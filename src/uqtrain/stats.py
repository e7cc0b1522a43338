"""Channel statistics of intermediate feature maps.

For a feature map F of shape (B, C, H, W) we track two levels:

* instance level: each sample's per-channel spatial mean and population
  std, both (B, C);
* batch level: the mean and population std of those instance statistics
  over the batch, four vectors of shape (C,).

The batch-level spreads say how much the instance statistics wobble
across the batch, which is exactly the scale the compensation module
uses for its perturbation draws.  All six statistics are plain
constants, and so are the centered planes below: the compensation op's
backward differentiates through them itself, so none of them goes on
the tape.

The instance level runs on position planes: the map is copied once into
(H * W, B, C), so each spatial reduction adds H * W planes of B * C
values (tensor.plane_sum, in numpy's own summation order) instead of
running B * C reductions of H * W values each.  The centered planes
x - U are kept for the compensation op, which reads them too.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DegenerateBatch, DegenerateSpatialDims, ShapeError

# variance smoothing inside every std; keeps each std at least 1e-6, so
# dividing by one is safe and sqrt is differentiable at zero spread.
EPS_VAR = 1e-12


@dataclass
class LayerStats:
    """All statistics of one feature map, every field a constant."""

    instance_mean: T.DiffArray   # (B, C)
    instance_std: T.DiffArray    # (B, C)
    mean_of_means: T.DiffArray   # (C,)
    std_of_means: T.DiffArray    # (C,)
    mean_of_stds: T.DiffArray    # (C,)
    std_of_stds: T.DiffArray     # (C,)
    centered: T.DiffArray        # (H * W, B, C) planes of x - U


def _std(x, mean, axis):
    """Population std over axis about its already computed mean, smoothed
    as sqrt(var + EPS_VAR).  Means here are sum / n, which is what
    np.mean computes, without its Python wrapper."""
    return np.sqrt(((x - mean) ** 2).sum(axis=axis) / x.shape[axis]
                   + EPS_VAR)


def layer_stats(feat: T.DiffArray) -> LayerStats:
    """Both levels of statistics of a (B, C, H, W) map.  Each mean is
    taken once and serves its std too."""
    if feat.ndim != 4:
        raise ShapeError(f"layer_stats needs a 4-d map, got {feat.shape}")
    b, c, h, w = feat.shape
    if h * w < 2:
        raise DegenerateSpatialDims(
            f"spatial std needs at least 2 positions, map is {h}x{w}")
    if b < 2:
        raise DegenerateBatch("batch statistics need at least 2 samples")
    planes = np.ascontiguousarray(
        feat.values.reshape(b, c, h * w).transpose(2, 0, 1))
    u = T.plane_sum(planes) / (h * w)
    centered = planes - u
    s = np.sqrt(T.plane_sum(centered * centered) / (h * w) + EPS_VAR)
    u_bar, s_bar = u.sum(axis=0) / b, s.sum(axis=0) / b
    return LayerStats(instance_mean=T.constant(u),
                      instance_std=T.constant(s),
                      mean_of_means=T.constant(u_bar),
                      std_of_means=T.constant(_std(u, u_bar, 0)),
                      mean_of_stds=T.constant(s_bar),
                      std_of_stds=T.constant(_std(s, s_bar, 0)),
                      centered=T.constant(centered))
