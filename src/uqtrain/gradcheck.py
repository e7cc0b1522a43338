"""Finite-difference audit of the autodiff core.

Every tape op gets checked against central differences on small random
inputs (mix_partners and triplet_hinge on hand-picked partner indices),
then the end-to-end case differentiates training.step_loss, the loss
every train step builds (backbone with compensation, heads, mixing,
both loss terms), with the partner plan held fixed at the base point,
since index selection is not part of the differentiable surface.

Each case draws its inputs and output weighting from its own generator,
keyed by (seed, case name), so adding or deleting a case leaves every
other case's inputs as they were.  Inputs stay off the kinks and away
from the near-zero spreads where central differences at T.FD_STEP lose
their accuracy.

The op outputs are reduced to scalars through a fixed random weighting,
sum(out * W), so elementwise gradient errors cannot cancel.  The
reduction, weighted_sum, is a tape node of the audit's own.
"""

import zlib

import numpy as np

from . import tensor as T
from .compensation import PerturbationDraw, compensate
from .config import TrainConfig
from .errors import ContractError
from .heads import build_vector_network
from .training import step_loss

# |analytic - numeric| / max(1, |analytic|, |numeric|) must stay below this
REL_TOL = 1e-4


def weighted_sum(x: T.DiffArray, w) -> T.DiffArray:
    """sum(x * w) as a scalar on the tape, for w a DiffArray or a plain
    array of x's shape."""
    w = w if isinstance(w, T.DiffArray) else T.constant(w)
    if x.shape != w.shape:
        raise ContractError(f"weighted_sum: shapes {x.shape} and {w.shape} "
                            "differ")
    xv, wv = x.values, w.values

    def bw(g):
        return g * wv, g * xv

    return T._record(T.DiffArray(np.sum(xv * wv)), (x, w), bw)


def _case(name, seed, build):
    """(name, f, arrays) for build(rng) = (op_fn, input arrays), with rng
    keyed by (seed, name).  The output weighting is frozen so f is
    deterministic across the repeated evaluations finite differencing
    needs."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    op_fn, inputs = build(rng)
    arrays = [T.parameter(a) for a in inputs]
    w = rng.standard_normal(op_fn(arrays).shape)
    return name, (lambda ars: weighted_sum(op_fn(ars), w)), arrays


def _normals(op_fn, *shapes, scale=1.0):
    return lambda rng: (op_fn, [rng.standard_normal(sh) * scale
                                for sh in shapes])


def _spreads(rng):
    """(2, 3) spatial means u and stds s for 2 samples of 3 channels:
    every s in [0.25, 2.75], and every batch spread of u and of s at
    least 0.25."""
    side = np.array([[-1.0], [1.0]])   # sample 0 below, sample 1 above
    u = rng.standard_normal(3) + side * rng.uniform(0.25, 1.0, 3)
    s = rng.uniform(1.0, 2.0, 3) + side * rng.uniform(0.25, 0.75, 3)
    return u, s


def _spread_map(rng):
    """The smallest map layer_stats accepts, 2 samples of 3 channels at 2
    positions, with the spreads of _spreads."""
    u, s = _spreads(rng)
    # the two positions u -+ s have spatial mean u and population std s
    pair = rng.choice([-1.0, 1.0], (2, 3, 1, 1)) * np.array([-1.0, 1.0])
    return u[:, :, None, None] + s[:, :, None, None] * pair


def _compensated(rng):
    noise = PerturbationDraw(*rng.standard_normal((2, 2, 3)))
    return ((lambda ars: compensate(ars[0], (3, 1, 2), noise)),
            [_spread_map(rng)])


def _compensated_flat_3x3(rng):
    """compensate on a block's flat (2, 27) output read as a 3x3 grid of
    3 channels, 9 positions, past the 8 at which numpy starts summing
    pairwise; each channel's positions are standardized to the spatial
    mean u and population std s of _spreads."""
    noise = PerturbationDraw(*rng.standard_normal((2, 2, 3)))
    u, s = _spreads(rng)
    z = rng.standard_normal((2, 3, 9))
    z = (z - z.mean(axis=2, keepdims=True)) / z.std(axis=2, keepdims=True)
    flat = (u[:, :, None] + s[:, :, None] * z).reshape(2, 27)
    return (lambda ars: compensate(ars[0], (3, 3, 3), noise)), [flat]


def _off_kink(rng):
    """relu on inputs at least 0.1 from its kink, which a central
    difference at T.FD_STEP would straddle."""
    x = rng.standard_normal((3, 4))
    return (lambda ars: T.relu(ars[0])), [x + np.copysign(0.1, x)]


def _op_cases(seed: int):
    """Yield (name, f, arrays) triples covering every tape op."""
    yield _case("add", seed,
                _normals(lambda ars: T.add(*ars), (3, 4), (3, 4)))
    yield _case("scalar_mul", seed,
                _normals(lambda ars: T.scalar_mul(1.7, ars[0]), (3, 4)))
    yield _case("relu", seed, _off_kink)
    yield _case("softplus", seed,
                _normals(lambda ars: T.softplus(ars[0], 0.5), (3, 4),
                         scale=2.0))
    yield _case("affine", seed,
                _normals(lambda ars: T.affine(*ars), (3, 4), (4, 2), (2,)))
    yield _case("perturb_stats", seed, _compensated)
    yield _case("perturb_stats_flat_3x3", seed, _compensated_flat_3x3)

    # sigmas >= 0.5 keep the weights' FD quotients well behaved; with two
    # partners row 0 is a partner three times over and row 2 is not mixed
    for idx, keep in (([[2, 0, 4, 1, 3]], [1] * 5),
                      ([[1, 0, 0, 4, 0], [2, 3, 4, 0, 2]], [1, 1, 0, 1, 1])):
        yield _case(f"mix_partners_{len(idx)}", seed,
                    lambda rng, idx=idx, keep=keep: (
                        lambda ars: T.mix_partners(*ars, idx, keep)[0],
                        [rng.standard_normal((5, 3)),
                         rng.uniform(0.5, 2.0, (5, 3))]))

    # gaps of about -8, +7, +13 and -8 stay clear of the hinge's kink under
    # the jitter: rows 1 and 2 are active, rows 0 and 3 not, row 2 invalid
    base = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0], [0.0, 3.0]])
    tri = ([1, 2, 3, 0], [2, 0, 1, 2], [1, 1, 0, 1], 1.0)
    yield _case("triplet_hinge", seed, lambda rng: (
        lambda ars: T.triplet_hinge(ars[0], *tri),
        [base + 0.1 * rng.standard_normal((4, 2))]))

    # target counts as ce_loss builds them: a row may carry one label
    # several times, and several labels
    counts = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 3.0, 0.0, 0.0],
                       [1.0, 1.0, 1.0, 0.0]])
    yield _case("class_cross_entropy", seed, _normals(
        lambda ars: T.class_cross_entropy(*ars, counts), (3, 5), (4, 5)))


def end_to_end_case(seed: int, **switches):
    """training.step_loss, the loss every train step builds, as a
    function of the parameters: the full method unless switches set
    TrainConfig's ingredient switches otherwise.

    Returns (f, params).  The partner plan is frozen at the base point;
    compensation draws are keyed, so every re-evaluation sees the same
    noise and the loss is a deterministic, almost-everywhere smooth
    function of the parameters.
    """
    rng = np.random.default_rng(10_000 + seed)
    net = build_vector_network(input_dim=4, num_classes=3, embed_dim=4,
                               grids=((3, 2, 2), (3, 2, 2)), seed=seed)
    x = rng.standard_normal((6, 4))
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    cfg = TrainConfig(seed=seed, mined_fraction=0.5, **switches).validate()
    _, plan = step_loss(net, x, labels, cfg, 0, 0)
    return ((lambda ars: step_loss(net, x, labels, cfg, 0, 0, plan)[0].total),
            [p for _, p in net.parameters()])


def run_gradcheck(n_seeds: int = 3, verbose: bool = False) -> list:
    """Check every op and the full objective on n_seeds random draws.
    Returns the list of failures as (case, seed, error)."""
    failures = []
    worst_overall = 0.0
    for seed in range(n_seeds):
        for name, f, arrays in (*_op_cases(seed),
                                ("end_to_end", *end_to_end_case(seed))):
            err = T.check_gradients(f, arrays)
            worst_overall = max(worst_overall, err)
            if err >= REL_TOL:
                failures.append((name, seed, err))
                if verbose:
                    print(f"FAIL {name} seed {seed}: rel err {err:.3e}")
    if verbose:
        print(f"checked {n_seeds} seed(s); worst rel err "
              f"{worst_overall:.3e} (tolerance {REL_TOL})")
    return failures
