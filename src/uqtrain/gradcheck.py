"""Finite-difference audit of the autodiff core.

Every tape op gets checked against central differences on small random
inputs (mix_partners and triplet_hinge on hand-picked partner indices),
then the full training objective (backbone with compensation, heads,
mixing, both loss terms) is checked end to end with the partner plan
frozen at the base point, since index selection is not part of the
differentiable surface.

The op outputs are reduced to scalars through a fixed random weighting,
sum(out * W), so elementwise gradient errors cannot cancel.  The
reduction, weighted_sum, is itself built from tape ops (reshape and
matmul), so it needs no op of its own.
"""

import numpy as np

from . import tensor as T
from .compensation import (PerturbationDraw, compensate,
                           forward_with_compensation)
from .heads import build_vector_network, head_forward
from .losses import ce_loss, mixup, total_loss, triplet_loss
from .mining import mine_triplets
from .stats import layer_stats

# |analytic - numeric| / max(1, |analytic|, |numeric|) must stay below this
REL_TOL = 1e-4
FD_STEP = 1e-4


def weighted_sum(x: T.DiffArray, w) -> T.DiffArray:
    """sum(x * w) as a scalar on the tape, for w a DiffArray or a plain
    array of x's shape: reshape(matmul(reshape(x, (1, n)), w_col), ())."""
    w = w if isinstance(w, T.DiffArray) else T.constant(w)
    n = x.size
    return T.reshape(T.matmul(T.reshape(x, (1, n)), T.reshape(w, (n, 1))),
                     ())


def _make_case(name, op_fn, arrays, rng):
    """Freeze a random output weighting so f is deterministic across the
    repeated evaluations finite differencing needs."""
    probe = op_fn(arrays)
    w = rng.standard_normal(probe.shape)

    def f(ars):
        return weighted_sum(op_fn(ars), w)

    return name, f, arrays


def _op_cases(seed: int):
    """Yield (name, f, arrays) triples covering every tape op."""
    rng = np.random.default_rng(seed)
    P = T.parameter

    def pair(shape_a, shape_b):
        return (P(rng.standard_normal(shape_a)),
                P(rng.standard_normal(shape_b)))

    # skip(n) draws the n normals a deleted case drew, so every case after
    # it keeps the inputs it has always been audited on
    skip = rng.standard_normal

    yield _make_case("add", lambda ars: T.add(ars[0], ars[1]),
                     list(pair((3, 4), (3, 4))), rng)
    skip(36)   # mul

    yield _make_case("add_broadcast", lambda ars: T.add(ars[0], ars[1]),
                     list(pair((3, 4), (4,))), rng)
    skip(27)   # mul_broadcast

    yield _make_case("scalar_mul", lambda ars: T.scalar_mul(1.7, ars[0]),
                     [P(rng.standard_normal((3, 4)))], rng)
    yield _make_case("relu", lambda ars: T.relu(ars[0]),
                     [P(rng.standard_normal((3, 4)))], rng)
    yield _make_case("softplus", lambda ars: T.softplus(ars[0]),
                     [P(rng.standard_normal((3, 4)) * 2.0)], rng)

    yield _make_case("matmul", lambda ars: T.matmul(ars[0], ars[1]),
                     list(pair((3, 4), (4, 2))), rng)
    skip(24)   # transpose
    yield _make_case("reshape", lambda ars: T.reshape(ars[0], (2, 6)),
                     [P(rng.standard_normal((3, 4)))], rng)
    skip(12)   # sum

    # the smallest map layer_stats accepts: 2 samples of 2 positions
    noise = PerturbationDraw(eps_mean=rng.standard_normal((2, 3)),
                             eps_std=rng.standard_normal((2, 3)))
    yield _make_case("perturb_stats",
                     lambda ars: compensate(ars[0], layer_stats(ars[0]),
                                            noise),
                     [P(rng.standard_normal((2, 3, 1, 2)))], rng)

    skip(24)   # log_softmax

    # sigmas >= 0.5 keep the weights' FD quotients well behaved; with two
    # partners row 0 is a partner three times over and row 2 is not mixed
    for idx, keep in (([[2, 0, 4, 1, 3]], [1] * 5),
                      ([[1, 0, 0, 4, 0], [2, 3, 4, 0, 2]], [1, 1, 0, 1, 1])):
        yield _make_case(f"mix_partners_{len(idx)}",
                         lambda ars, idx=idx, keep=keep:
                         T.mix_partners(ars[0], ars[1], idx, keep)[0],
                         [P(rng.standard_normal((5, 3))),
                          P(rng.uniform(0.5, 2.0, (5, 3)))], rng)

    # gaps of about -8, +7, +13 and -8 stay clear of the hinge's kink under
    # the jitter: rows 1 and 2 are active, rows 0 and 3 not, row 2 invalid
    base = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0], [0.0, 3.0]])
    tri = ([1, 2, 3, 0], [2, 0, 1, 2], [1, 1, 0, 1], 1.0)
    yield _make_case("triplet_hinge", lambda a: T.triplet_hinge(a[0], *tri),
                     [P(base + 0.1 * rng.standard_normal((4, 2)))], rng)

    # target counts as ce_loss builds them: a row may carry one label
    # several times, and several labels
    counts = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 3.0, 0.0, 0.0],
                       [1.0, 1.0, 1.0, 0.0]])
    yield _make_case("class_cross_entropy",
                     lambda ars: T.class_cross_entropy(ars[0], ars[1], counts),
                     list(pair((3, 5), (4, 5))), rng)


def end_to_end_case(seed: int):
    """The full training objective as a function of the parameters.

    Returns (f, params).  The partner plan is frozen at the base point;
    compensation draws are keyed, so every re-evaluation sees the same
    noise and the loss is a deterministic, almost-everywhere smooth
    function of the parameters.
    """
    rng = np.random.default_rng(10_000 + seed)
    batch = 6
    net = build_vector_network(input_dim=4, num_classes=3, embed_dim=4,
                               grids=((3, 2, 2), (3, 2, 2)), seed=seed)
    x = rng.standard_normal((batch, 4))
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    layers = (1, 2)

    def objective(plan):
        feats = forward_with_compensation(T.constant(x), net, layers,
                                          seed, 0, 0)
        u = head_forward(net, feats, labels)
        mixed = mixup(u, plan)
        ce = ce_loss(mixed.features, net.classifier, labels, plan)
        tl = triplet_loss(u, plan, margin=1.0)
        return total_loss(ce, tl, triplet_weight=0.003).total

    # freeze the plan at the base point
    feats = forward_with_compensation(T.constant(x), net, layers,
                                      seed, 0, 0)
    u = head_forward(net, feats, labels)
    plan = mine_triplets(u, p=0.5, seed=seed, epoch=0, batch_index=0)

    params = [p for _, p in net.parameters()]
    return (lambda ars: objective(plan)), params


def run_gradcheck(n_seeds: int = 3, verbose: bool = False) -> list:
    """Check every op and the full objective on n_seeds random draws.
    Returns the list of failures as (case, seed, error)."""
    failures = []
    worst_overall = 0.0
    for seed in range(n_seeds):
        for name, f, arrays in (*_op_cases(seed),
                                ("end_to_end", *end_to_end_case(seed))):
            err = T.check_gradients(f, arrays, h=FD_STEP)
            worst_overall = max(worst_overall, err)
            if err >= REL_TOL:
                failures.append((name, seed, err))
                if verbose:
                    print(f"FAIL {name} seed {seed}: rel err {err:.3e}")
    if verbose:
        print(f"checked {n_seeds} seed(s); worst rel err "
              f"{worst_overall:.3e} (tolerance {REL_TOL})")
    return failures
