"""Finite-difference audit of the autodiff core.

Every op gets checked against central differences on small random
inputs, then the full training objective (backbone with compensation,
heads, mixing, both loss terms) is checked end to end with the partner
plan frozen at the base point, since index selection is not part of the
differentiable surface.

The op outputs are reduced to scalars through a fixed random weighting,
sum(out * W), so elementwise gradient errors cannot cancel.
"""

import numpy as np

from . import tensor as T
from .compensation import forward_with_compensation
from .heads import build_vector_network, head_forward
from .losses import ce_loss, mixup, total_loss, triplet_loss
from .mining import mine_triplets

# |analytic - numeric| / max(1, |analytic|, |numeric|) must stay below this
REL_TOL = 1e-4
FD_STEP = 1e-4


def _make_case(name, op_fn, arrays, rng):
    """Freeze a random output weighting so f is deterministic across the
    repeated evaluations finite differencing needs."""
    probe = op_fn(arrays)
    w = T.constant(rng.standard_normal(probe.shape))

    def f(ars):
        return T.total_sum(T.mul(op_fn(ars), w))

    return name, f, arrays


def _op_cases(seed: int):
    """Yield (name, f, arrays) triples covering every tape op."""
    rng = np.random.default_rng(seed)
    P = T.parameter

    def pair(shape_a, shape_b):
        return (P(rng.standard_normal(shape_a)),
                P(rng.standard_normal(shape_b)))

    yield _make_case("add", lambda ars: T.add(ars[0], ars[1]),
                     list(pair((3, 4), (3, 4))), rng)
    yield _make_case("sub", lambda ars: T.sub(ars[0], ars[1]),
                     list(pair((3, 4), (3, 4))), rng)
    yield _make_case("mul", lambda ars: T.mul(ars[0], ars[1]),
                     list(pair((3, 4), (3, 4))), rng)

    a = P(rng.standard_normal((3, 4)))
    draw = rng.standard_normal((3, 4))
    # keep |denominator| >= 1 so the FD quotient itself stays well behaved
    b = P(np.sign(draw) * (np.abs(draw) + 1.0))
    yield _make_case("div", lambda ars: T.div(ars[0], ars[1]), [a, b], rng)

    yield _make_case("add_broadcast", lambda ars: T.add(ars[0], ars[1]),
                     list(pair((3, 4), (4,))), rng)
    yield _make_case("mul_broadcast", lambda ars: T.mul(ars[0], ars[1]),
                     list(pair((3, 1), (3, 4))), rng)

    yield _make_case("scalar_mul", lambda ars: T.scalar_mul(1.7, ars[0]),
                     [P(rng.standard_normal((3, 4)))], rng)
    yield _make_case("relu", lambda ars: T.relu(ars[0]),
                     [P(rng.standard_normal((3, 4)))], rng)
    yield _make_case("softplus", lambda ars: T.softplus(ars[0]),
                     [P(rng.standard_normal((3, 4)) * 2.0)], rng)

    yield _make_case("matmul", lambda ars: T.matmul(ars[0], ars[1]),
                     list(pair((3, 4), (4, 2))), rng)
    yield _make_case("transpose", lambda ars: T.transpose(ars[0]),
                     [P(rng.standard_normal((3, 4)))], rng)
    yield _make_case("reshape", lambda ars: T.reshape(ars[0], (2, 6)),
                     [P(rng.standard_normal((3, 4)))], rng)

    idx = np.array([0, 2, 2, 4])  # repeated row exercises scatter-add
    yield _make_case("take_rows", lambda ars: T.take_rows(ars[0], idx),
                     [P(rng.standard_normal((5, 3)))], rng)

    yield "sum", (lambda ars: T.total_sum(ars[0])), \
        [P(rng.standard_normal((3, 4)))]
    yield _make_case("row_sum", lambda ars: T.row_sum(ars[0]),
                     [P(rng.standard_normal((3, 4)))], rng)

    yield _make_case("spatial_mean", lambda ars: T.spatial_mean(ars[0]),
                     [P(rng.standard_normal((2, 3, 4, 4)))], rng)
    yield _make_case("spatial_std", lambda ars: T.spatial_std(ars[0]),
                     [P(rng.standard_normal((2, 3, 4, 4)))], rng)
    yield _make_case("batch_mean", lambda ars: T.batch_mean(ars[0]),
                     [P(rng.standard_normal((5, 3)))], rng)
    yield _make_case("batch_std", lambda ars: T.batch_std(ars[0]),
                     [P(rng.standard_normal((5, 3)))], rng)

    yield _make_case("log_softmax", lambda ars: T.log_softmax(ars[0]),
                     [P(rng.standard_normal((3, 4)))], rng)


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
        for name, f, arrays in _op_cases(seed):
            err = T.check_gradients(f, arrays, h=FD_STEP)
            worst_overall = max(worst_overall, err)
            if err >= REL_TOL:
                failures.append((name, seed, err))
                if verbose:
                    print(f"FAIL {name} seed {seed}: rel err {err:.3e}")
        f, params = end_to_end_case(seed)
        err = T.check_gradients(f, params, h=FD_STEP)
        worst_overall = max(worst_overall, err)
        if err >= REL_TOL:
            failures.append(("end_to_end", seed, err))
            if verbose:
                print(f"FAIL end_to_end seed {seed}: rel err {err:.3e}")
    if verbose:
        print(f"checked {n_seeds} seed(s); worst rel err "
              f"{worst_overall:.3e} (tolerance {REL_TOL})")
    return failures
