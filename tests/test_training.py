"""Optimizer, batch sampler, training loop, and evaluation metrics."""

import copy
import csv
import itertools
import os
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain import config, gradcheck, training
from uqtrain.compensation import forward_with_compensation
from uqtrain.config import TrainConfig
from uqtrain.data import LabeledDataset, make_blobs, split_dataset
from uqtrain.errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    NumericalDivergence,
)
from uqtrain.heads import (
    build_vector_network,
    class_logits,
    head_forward,
    uncertainty_score,
)
from uqtrain.mining import TripletPlan
from uqtrain.rng import STREAM_BATCH, keyed_rng
from uqtrain.training import (
    ABLATION_LADDER,
    METRICS_COLUMNS,
    Adam,
    balanced_batches,
    evaluate,
    fit,
    make_batches,
    rejection_accuracies,
    row_blocks,
    run_experiment,
    train_step,
    write_metrics_csv,
)


def small_config(**kw):
    base = dict(seed=0, batch_size=16, epochs=2, lr=0.01, embed_dim=8,
                hidden_grid="4x2x2", head_lr_multiplier=1.0)
    base.update(kw)
    return TrainConfig(**base)


def small_data(seed=0, n=96, k=3, d=6):
    ds = make_blobs(k, d, n, 1.0, seed=seed)
    return split_dataset(ds, (2 * n) // 3)


def test_adam_zero_grads_zero_decay_is_fixed_point():
    p = T.parameter(np.ones((2, 2)))
    p.grad = np.zeros((2, 2))
    opt = Adam([("p", p)])
    opt.step(lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.values, np.ones((2, 2)))


def test_adam_first_step_matches_hand_computation():
    p = T.parameter(np.array([2.0]))
    p.grad = np.array([1.0])
    opt = Adam([("p", p)])
    opt.step(lr=0.05, weight_decay=0.0)
    # m-hat = v-hat = 1 after bias correction, so the step is
    # lr * 1 / (sqrt(1) + eps)
    expect = 2.0 - 0.05 * 1.0 / (1.0 + 1e-8)
    assert p.values[0] == pytest.approx(expect, abs=1e-12)


def test_adam_decay_only_scales_matrix_params():
    p = T.parameter(np.full((2, 3), 4.0))
    p.grad = np.zeros((2, 3))
    b = T.parameter(np.full(3, 4.0))
    b.grad = np.zeros(3)
    opt = Adam([("w", p), ("b", b)])
    opt.step(lr=1.0, weight_decay=0.1)
    np.testing.assert_allclose(p.values, 3.6, atol=1e-12)
    np.testing.assert_array_equal(b.values, np.full(3, 4.0))


def test_adam_lr_multiplier_scales_named_param_steps():
    a = T.parameter(np.array([[1.0]]))
    b = T.parameter(np.array([[1.0]]))
    a.grad = np.array([[1.0]])
    b.grad = np.array([[1.0]])
    opt = Adam([("slow", a), ("fast", b)], lr_multipliers={"fast": 10.0})
    opt.step(lr=0.01)
    slow_step = 1.0 - a.values[0, 0]
    fast_step = 1.0 - b.values[0, 0]
    assert fast_step == pytest.approx(10.0 * slow_step, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_adam_rejects_a_non_finite_or_overflowing_gradient(bad):
    """A NaN or infinite entry anywhere, or one whose square overflows,
    stops the step before any parameter moves."""
    p = T.parameter(np.ones((2, 3)))
    p.grad = np.zeros((2, 3))
    p.grad[0, 1] = bad
    opt = Adam([("p", p)])
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalDivergence, match="gradient of p"):
        opt.step(lr=0.1)
    np.testing.assert_array_equal(p.values, np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_adam_bad_gradient_in_a_later_parameter_moves_no_parameter(bad):
    """The check covers every parameter before any steps: a bad entry in
    the second parameter's gradient names it, and the first parameter,
    whose gradient is fine, keeps its bytes too."""
    a = T.parameter(np.full((2, 3), 0.5))
    a.grad = np.full((2, 3), 0.25)
    b = T.parameter(np.array([1.0, -0.0, 2.0]))
    b.grad = np.array([0.5, bad, 0.5])
    before = [a.values.tobytes(), b.values.tobytes()]
    opt = Adam([("a", a), ("b", b)])
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalDivergence, match="gradient of b "):
        opt.step(lr=0.1, weight_decay=0.01)
    assert [a.values.tobytes(), b.values.tobytes()] == before


def test_adam_refused_step_leaves_no_trace():
    """A step refused for a NaN gradient leaves m, v, t and every
    parameter bitwise as they were, so the next finite step is the one
    an optimizer that never saw the NaN takes."""
    a = T.parameter(np.array([0.5, -1.0, 2.0]))
    w = T.parameter(np.full((2, 2), 0.75))
    opt = Adam([("a", a), ("w", w)])
    for grad in (np.array([0.25, -0.5, 1.0]), np.array([-0.125, 0.5, 0.0])):
        a.grad, w.grad = grad, np.full((2, 2), 0.5)
        opt.step(lr=0.1, weight_decay=0.01)

    def state():
        return [x.tobytes() for x in (opt.m, opt.v, a.values, w.values)] \
            + [opt.t]

    before = state()
    twin_opt, twin_a, twin_w = copy.deepcopy((opt, a, w))
    a.grad = np.array([0.25, np.nan, 1.0])
    with pytest.raises(NumericalDivergence, match="at optimizer step 3"):
        opt.step(lr=0.1, weight_decay=0.01)
    assert state() == before

    for p, q in ((a, twin_a), (w, twin_w)):
        p.grad = q.grad = np.full(p.values.shape, -0.25)
    opt.step(lr=0.1, weight_decay=0.01)
    twin_opt.step(lr=0.1, weight_decay=0.01)
    assert opt.t == twin_opt.t == 3
    for got, want in ((opt.m, twin_opt.m), (opt.v, twin_opt.v),
                      (a.values, twin_a.values), (w.values, twin_w.values)):
        assert got.tobytes() == want.tobytes()


def test_adam_rejects_a_gradient_of_another_shape():
    """A (3,) gradient for a (2, 3) parameter would broadcast over its
    rows; the step raises ContractError naming the parameter and both
    shapes, before any parameter moves."""
    a = T.parameter(np.ones(4))
    a.grad = np.ones(4)
    w = T.parameter(np.ones((2, 3)))
    w.grad = np.ones(3)
    opt = Adam([("a", a), ("w", w)])
    with pytest.raises(ContractError,
                       match=r"gradient of w has shape \(3,\), the "
                             r"parameter has shape \(2, 3\)"):
        opt.step(lr=0.1)
    np.testing.assert_array_equal(a.values, np.ones(4))
    np.testing.assert_array_equal(w.values, np.ones((2, 3)))


class LoopAdam:
    """Adam as one set of passes per parameter, each with its own
    moments: the oracle whose bits the optimizer's whole-vector passes
    must keep."""

    def __init__(self, named_params, lr_multipliers):
        self.named_params = named_params
        self.lr_multipliers = lr_multipliers
        self.m = [np.zeros_like(p.values) for _, p in named_params]
        self.v = [np.zeros_like(p.values) for _, p in named_params]
        self.t = 0

    def step(self, lr, weight_decay):
        self.t += 1
        b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for (name, p), m, v in zip(self.named_params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / bias1
            vhat = v / bias2
            step_lr = lr * self.lr_multipliers.get(name, 1.0)
            p.values -= step_lr * mhat / (np.sqrt(vhat) + eps)
            if weight_decay and p.values.ndim > 1:
                p.values *= 1.0 - step_lr * weight_decay


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_keeps_the_bits_of_a_per_parameter_loop(weight_decay):
    """Over several steps, with 1-d and 2-d parameters, two lr
    multipliers and a parameter whose grad is None for the first steps,
    every value and every moment equals the per-parameter loop's bitwise;
    each parameter keeps its own array throughout."""
    rng = np.random.default_rng(19)
    shapes = {"w0": (3, 4), "b0": (4,), "head_w": (4, 2), "head_b": (2,),
              "late": (2, 3)}
    mults = {"head_w": 10.0, "head_b": 10.0}
    # values near the step's size, so a step off by one bit shows in them
    start = {name: rng.standard_normal(shape) * 1e-3
             for name, shape in shapes.items()}
    start["late"][0, 0] = -0.0
    nets = [[(name, T.parameter(v.copy())) for name, v in start.items()]
            for _ in range(2)]
    opt, ref = Adam(nets[0], lr_multipliers=mults), LoopAdam(nets[1], mults)
    arrays = [p.values for _, p in nets[0]]
    for t in range(8):
        for name, shape in shapes.items():
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 2)
            for params in nets:
                p = dict(params)[name]
                p.grad = None if name == "late" and t < 3 else g.copy()
        opt.step(0.003, weight_decay)
        ref.step(0.003, weight_decay)
        for i, ((name, p), (_, q)) in enumerate(zip(*nets)):
            assert p.values is arrays[i], name
            assert p.values.tobytes() == q.values.tobytes(), (t, name)
            sl = opt.slices[i]
            assert opt.m[sl].tobytes() == ref.m[i].ravel().tobytes(), name
            assert opt.v[sl].tobytes() == ref.v[i].ravel().tobytes(), name
    assert opt.t == ref.t


def test_adam_without_parameters_steps_as_a_no_op():
    opt = Adam([])
    opt.step(0.1, weight_decay=0.01)
    opt.step(0.1)
    assert opt.m.size == opt.v.size == 0


def test_balanced_batches_interleave_classes():
    labels = np.array([0] * 20 + [1] * 20 + [2] * 20)
    batches = balanced_batches(labels, 12, seed=0, epoch=0)
    assert sum(len(b) for b in batches) == 60
    covered = np.sort(np.concatenate(batches))
    np.testing.assert_array_equal(covered, np.arange(60))
    for batch in batches:
        counts = np.bincount(labels[batch], minlength=3)
        assert counts.min() >= 3          # near-proportional representation


def loop_balanced_order(labels, seed, epoch):
    """The round-robin deal as a loop: shuffle each class's rows, then
    take the t-th row of every class that still has one, for t = 0, 1,
    ..."""
    rng = keyed_rng(seed, STREAM_BATCH, epoch)
    per_class = [rng.permutation(np.flatnonzero(labels == c))
                 for c in np.unique(labels)]
    order = []
    for t in range(max(len(p) for p in per_class)):
        for p in per_class:
            if t < len(p):
                order.append(p[t])
    return np.array(order, dtype=np.int64)


@pytest.mark.parametrize("counts", [{0: 7, 2: 3, 5: 1}, {1: 40, 3: 2},
                                    {0: 20, 1: 20, 2: 20}, {4: 9}])
def test_balanced_batches_repeat_the_round_robin_loop_bitwise(counts):
    """Uneven classes and gaps in the labels: the batches are the loop's
    deal cut by row_blocks, dtype included."""
    rng = np.random.default_rng(len(counts))
    labels = rng.permutation(np.repeat(list(counts), list(counts.values())))
    for epoch in range(3):
        order = loop_balanced_order(labels, 7, epoch)
        batches = balanced_batches(labels, 4, seed=7, epoch=epoch)
        expect = [order[s] for s in row_blocks(len(order), 4)]
        assert len(batches) == len(expect)
        for got, want in zip(batches, expect):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def test_batches_change_across_epochs_but_replay_within():
    labels = np.array([0, 1] * 30)
    a = balanced_batches(labels, 10, seed=3, epoch=0)
    b = balanced_batches(labels, 10, seed=3, epoch=0)
    c = balanced_batches(labels, 10, seed=3, epoch=1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@pytest.mark.parametrize("n", [257, 2049])
def test_one_sample_tail_joins_previous_batch(n):
    ds = make_blobs(3, 4, n, 1.0, seed=n)
    cfg = small_config(batch_size=128, epochs=1)
    batches = make_batches(ds.labels, cfg, 0)
    assert [len(b) for b in batches] == [128] * (n // 128 - 1) + [129]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)),
                                  np.arange(n))
    fit(build_vector_network(4, 3, 8, [(4, 2, 2)] * 2), ds, ds, cfg)


def test_train_step_lr_zero_freezes_parameters():
    train, _ = small_data()
    cfg = small_config(lr=1e-300)
    net = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=0)
    opt = Adam(net.parameters())
    before = {n: p.values.copy() for n, p in net.parameters()}
    breakdown = train_step(net, train.features[:16], train.labels[:16],
                           cfg, opt, 0, 0)
    assert np.isfinite(breakdown.total.values)
    for name, p in net.parameters():
        np.testing.assert_allclose(p.values, before[name], atol=1e-290)


def test_train_step_rejects_tiny_batches():
    cfg = small_config()
    net = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=0)
    opt = Adam(net.parameters())
    with pytest.raises(ContractError,
                       match="training batches need at least 2 samples"):
        train_step(net, np.zeros((1, 6)), np.zeros(1, dtype=np.int64),
                   cfg, opt, 0, 0)


@pytest.mark.parametrize("tag", ["baseline", "full"])
def test_step_rejects_labels_of_another_batch_size(tag):
    """The head never sees labels; the step's consumers of them check
    their shape: ce_loss on the baseline rung, mine_triplets first on
    the full method."""
    cfg = replace(small_config(), **dict(ABLATION_LADDER)[tag])
    net = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=0)
    with pytest.raises(ContractError,
                       match=r"labels shape \(3,\) does not match batch 2"):
        training.step_loss(net, np.zeros((2, 6)), np.zeros(3, dtype=np.int64),
                           cfg, 0, 0)


def test_degraded_step_equals_hand_built_plain_ce_baseline(monkeypatch):
    """With every mechanism disabled, one train_step must match an
    independently composed plain classifier step parameter for
    parameter."""
    train, _ = small_data()
    x = train.features[:12]
    labels = train.labels[:12]
    cfg = small_config(lr=0.01, weight_decay=1e-4, compensation=False,
                       triplet_weight=0.0, mined_fraction=0.0)

    def all_invalid(u, *args, **kwargs):
        n = len(u.labels)
        return TripletPlan(pos_index=np.arange(n), neg_index=np.arange(n),
                           mined_mask=np.zeros(n, dtype=bool),
                           valid_mask=np.zeros(n, dtype=bool))

    monkeypatch.setattr(training, "mine_triplets", all_invalid)

    net = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=5)
    opt = Adam(net.parameters(), lr_multipliers={
        name: cfg.head_lr_multiplier for name in net.head_param_names()})
    train_step(net, x, labels, cfg, opt, 0, 0)

    # the oracle: plain numpy forward, hand-written backward, and Adam's
    # first step, which moves each entry by lr * g / (|g| + eps) and then
    # decays matrices; no row is blended, so sigma's gradient is zero
    ref = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=5)
    w = {name: p.values.copy() for name, p in ref.parameters()}
    acts = [x]
    for i in range(2):
        z = acts[-1] @ w[f"block{i}.weight"] + w[f"block{i}.bias"]
        acts.append(np.maximum(z, 0.0))
    mu = acts[-1] @ w["mean_w"] + w["mean_b"]
    logits = mu @ w["classifier"].T
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    d_logits = (p - np.eye(3)[labels]) / 12.0
    grads = {name: np.zeros_like(v) for name, v in w.items()}
    grads["classifier"] = d_logits.T @ mu
    d_mu = d_logits @ w["classifier"]
    grads["mean_w"], grads["mean_b"] = acts[-1].T @ d_mu, d_mu.sum(axis=0)
    d_h = d_mu @ w["mean_w"].T
    for i in (1, 0):
        d_z = d_h * (acts[i + 1] > 0.0)
        grads[f"block{i}.weight"] = acts[i].T @ d_z
        grads[f"block{i}.bias"] = d_z.sum(axis=0)
        d_h = d_z @ w[f"block{i}.weight"].T

    for name, pa in net.parameters():
        g = grads[name]
        expect = w[name] - cfg.lr * g / (np.abs(g) + 1e-8)
        if expect.ndim > 1:
            expect *= 1.0 - cfg.lr * cfg.weight_decay
        np.testing.assert_allclose(pa.values, expect, atol=1e-10,
                                   err_msg=name)


# tape nodes of one train step at the default architecture
NODES_PER_STEP = {"baseline": 7, "compensation": 9, "compensation+pos": 12,
                  "compensation+neg": 12, "compensation+pos+neg": 12,
                  "full": 14}

# the same nodes by op: a block is affine, perturb_stats where compensated,
# and relu; the mean head is affine, and the sigma head (read only by the
# partner blend) affine and softplus; the total loss adds its terms
BASELINE_OPS = {"affine": 3, "relu": 2, "class_cross_entropy": 1, "add": 1}
COMPENSATED_OPS = dict(BASELINE_OPS, perturb_stats=2)
BLENDED_OPS = dict(COMPENSATED_OPS, affine=4, softplus=1, mix_partners=1)
OPS_PER_STEP = {"baseline": BASELINE_OPS, "compensation": COMPENSATED_OPS,
                "compensation+pos": BLENDED_OPS,
                "compensation+neg": BLENDED_OPS,
                "compensation+pos+neg": BLENDED_OPS,
                "full": dict(BLENDED_OPS, triplet_hinge=1, scalar_mul=1)}


@pytest.mark.parametrize("tag, overrides", ABLATION_LADDER,
                         ids=[tag for tag, _ in ABLATION_LADDER])
def test_every_tape_node_gets_a_gradient(monkeypatch, tag, overrides):
    """Only what a loss differentiates goes on the tape: without a
    partner branch no loss reads sigma, and the step builds no sigma
    head, so no variant records a node that gets no gradient."""
    ds = make_blobs(4, 10, 128, 1.0, seed=0)
    cfg = replace(TrainConfig(), **overrides)
    net = build_vector_network(10, 4, cfg.embed_dim,
                               [cfg.parse_grid()] * cfg.num_blocks, cfg.seed)
    seen = {}
    real_head, real_backward = training.head_forward, T.backward

    def spy_head(*args, **kwargs):
        seen["head"] = real_head(*args, **kwargs)
        return seen["head"]

    def spy_backward(loss, tape):
        ops = [n.backward.__qualname__.split(".", 1)[0] for n in tape.nodes]
        called = set()
        for i, node in enumerate(tape.nodes):
            def recorded(g, i=i, bw=node.backward):
                called.add(i)
                return bw(g)
            node.backward = recorded
        real_backward(loss, tape)
        seen["count"] = len(tape.nodes)
        seen["ops"] = Counter(ops)
        seen["dead"] = [(ops[i], n.out) for i, n in enumerate(tape.nodes)
                        if i not in called]

    monkeypatch.setattr(training, "head_forward", spy_head)
    monkeypatch.setattr(T, "backward", spy_backward)
    train_step(net, ds.features, ds.labels, cfg, Adam(net.parameters()),
               0, 0)
    assert seen["count"] == NODES_PER_STEP[tag]
    assert seen["ops"] == OPS_PER_STEP[tag]
    assert seen["dead"] == []
    partners = cfg.use_positive_branch or cfg.use_negative_branch
    assert (seen["head"][1] is not None) == partners


def test_full_step_gradients_own_their_memory(monkeypatch):
    """backward stores fresh contributions as they are: after a
    full-method step no two tape arrays' gradients share memory, none
    shares memory with any array's values, and every parameter gradient
    is a C-contiguous float64 array of its parameter's shape."""
    ds = make_blobs(4, 10, 128, 1.0, seed=0)
    cfg = TrainConfig()
    net = build_vector_network(10, 4, cfg.embed_dim,
                               [cfg.parse_grid()] * cfg.num_blocks, cfg.seed)
    seen = {}
    real_backward = T.backward

    def spy_backward(loss, tape):
        seen["tape"] = tape
        real_backward(loss, tape)

    monkeypatch.setattr(T, "backward", spy_backward)
    train_step(net, ds.features, ds.labels, cfg, Adam(net.parameters()),
               0, 0)
    arrays = list({id(a): a for node in seen["tape"].nodes
                   for a in (node.out, *node.inputs)}.values())
    grads = [a.grad for a in arrays if a.grad is not None]
    assert len(grads) == len(arrays) - 1   # all but the data
    for i, g in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)
        for a in arrays:
            assert not np.shares_memory(g, a.values)
    for name, p in net.parameters():
        assert p.grad.dtype == np.float64, name
        assert p.grad.flags.c_contiguous, name
        assert p.grad.shape == p.values.shape, name


@pytest.mark.parametrize("tag, overrides", ABLATION_LADDER,
                         ids=[tag for tag, _ in ABLATION_LADDER])
def test_train_step_builds_no_reported_mixup_weights(monkeypatch, tag,
                                                     overrides):
    """The blend weights MixedFeatures reports are built only when read,
    and a train step reads none of them."""
    ds = make_blobs(4, 10, 128, 1.0, seed=0)
    cfg = replace(TrainConfig(), **overrides)
    net = build_vector_network(10, 4, cfg.embed_dim,
                               [cfg.parse_grid()] * cfg.num_blocks, cfg.seed)
    built, seen = [], {}
    real_mixup = training.mixup

    def spy_mixup(*args, **kwargs):
        mixed = real_mixup(*args, **kwargs)
        seen["built_by_mixup"] = mixed._built is not None
        weights = mixed._weights

        def counted():
            built.append(tag)
            return weights()

        mixed._weights = counted
        seen["mixed"] = mixed
        return mixed

    monkeypatch.setattr(training, "mixup", spy_mixup)
    train_step(net, ds.features, ds.labels, cfg, Adam(net.parameters()),
               0, 0)
    assert built == [] and not seen["built_by_mixup"]
    mixed = seen["mixed"]
    total = mixed.w_self.values + mixed.w_pos.values + mixed.w_neg.values
    assert built == [tag]
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tag, overrides", ABLATION_LADDER,
                         ids=[tag for tag, _ in ABLATION_LADDER])
def test_every_rung_objective_matches_finite_differences(tag, overrides):
    """step_loss of each ablation rung, the plan frozen at the base point,
    against central differences over all 9 parameters, on the audit's
    net and batch.  Without a partner branch the sigma head is off the
    tape and its gradient is zero."""
    f, params = gradcheck.end_to_end_case(0, **overrides)
    assert len(params) == 9
    assert T.check_gradients(f, params, h=T.FD_STEP) \
        < gradcheck.REL_TOL


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP direction 5: at seed 25 one instance std sits at its 1e-6 "
    "floor, and central differences at FD_STEP step across that scale "
    "(rel err 0.996)"))
def test_end_to_end_audit_passes_at_seed_25():
    """The one failing seed of the audit over seeds 0-99.  Strict: once
    the zero-spread rule lands, this passes and the mark must go."""
    assert T.check_gradients(*gradcheck.end_to_end_case(25),
                             h=T.FD_STEP) < gradcheck.REL_TOL


def test_step_loss_takes_a_given_plan_only_with_a_partner_branch():
    """A given plan replaces the mined one; without a partner branch it
    is ignored, and the step has no plan."""
    ds = make_blobs(3, 6, 12, 1.0, seed=0)
    net = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=0)
    n = len(ds)
    swap = TripletPlan(pos_index=np.roll(np.arange(n), 1),
                       neg_index=np.roll(np.arange(n), 2),
                       mined_mask=np.zeros(n, dtype=bool),
                       valid_mask=np.ones(n, dtype=bool))
    for tag, overrides in ABLATION_LADDER:
        cfg = small_config(**overrides)
        mined_loss, mined = training.step_loss(net, ds.features, ds.labels,
                                               cfg, 0, 0)
        loss, plan = training.step_loss(net, ds.features, ds.labels, cfg,
                                        0, 0, swap)
        if tag in ("baseline", "compensation"):
            assert mined is None and plan is None, tag
            assert loss.scalars() == mined_loss.scalars(), tag
        else:
            assert plan is swap and mined is not swap, tag
            assert loss.scalars() != mined_loss.scalars(), tag


def test_parameter_off_the_tape_steps_with_a_zero_gradient():
    """A baseline step after a full-method step builds no sigma head; the
    sigma parameters must then step as with an explicit zero gradient,
    not with the gradient the full-method step left behind."""
    ds = make_blobs(4, 10, 64, 1.0, seed=0)
    full = TrainConfig()
    baseline = replace(full, **dict(ABLATION_LADDER)["baseline"])
    net = build_vector_network(10, 4, full.embed_dim,
                               [full.parse_grid()] * full.num_blocks,
                               full.seed)
    opt = Adam(net.parameters())
    train_step(net, ds.features, ds.labels, full, opt, 0, 0)
    assert np.any(net.sigma_w.grad != 0.0)

    ref_net, ref_opt = copy.deepcopy((net, opt))
    for p in (ref_net.sigma_w, ref_net.sigma_b):
        p.grad = np.zeros_like(p.values)
    ref_opt.step(baseline.lr, baseline.weight_decay)

    train_step(net, ds.features, ds.labels, baseline, opt, 0, 1)
    for name in ("sigma_w", "sigma_b"):
        got, want = getattr(net, name), getattr(ref_net, name)
        assert got.values.tobytes() == want.values.tobytes(), name


def test_train_acc_column_equals_evaluate_accuracy(monkeypatch, tmp_path):
    """fit's train pass skips the sigma head and the rejection ranking;
    each epoch's train_acc must still be evaluate's accuracy on the
    train set for the weights of that epoch."""
    train, test = small_data(seed=7)
    cfg = small_config(epochs=3)
    expected = []
    real_accuracy = training.accuracy

    def spy_accuracy(net, ds):
        expected.append(evaluate(net, train).accuracy)
        return real_accuracy(net, ds)

    monkeypatch.setattr(training, "accuracy", spy_accuracy)
    run_experiment(cfg, train, test, out_dir=str(tmp_path), tag="run")
    with open(os.path.join(tmp_path, "run_metrics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(expected) == cfg.epochs
    assert [float(row["train_acc"]) for row in rows] == expected


def test_three_epoch_replay_is_bitwise_identical():
    train, test = small_data(seed=1)
    cfg = small_config(epochs=3)
    a = run_experiment(cfg, train, test)
    b = run_experiment(cfg, train, test)
    for (name, pa), (_, pb) in zip(a.net.parameters(), b.net.parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), name
    assert a.history == b.history


def test_loss_stays_finite_across_twenty_seeds():
    for seed in range(20):
        train, test = small_data(seed=seed, n=72)
        cfg = small_config(seed=seed, epochs=1)
        result = run_experiment(cfg, train, test)
        for row in result.history:
            assert np.isfinite(row["loss_total"])
            assert np.isfinite(row["loss_ce"])
            assert np.isfinite(row["loss_triplet"])


def _whole_array_scores(net, x):
    """Predictions and scores from one forward over every row at once."""
    feats = forward_with_compensation(T.constant(x), net, None)
    mean, sigma = head_forward(net, feats)
    return (np.argmax(class_logits(net, mean.values), axis=1),
            uncertainty_score(sigma))


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                           (2, 1), (3, 0)],
                         ids=["1", "B-1", "B", "B+1", "2B+1", "3B"])
def test_block_scoring_matches_one_whole_array_pass(blocks, extra):
    """Row blocks of B rows, with a 1-row tail merged into the block
    before it, give the whole-array pass's predictions and score bits."""
    n = blocks * training.SCORE_BLOCK_ROWS + extra
    net = build_vector_network(10, 4, 64, [(16, 2, 2)] * 2, seed=5)
    x = np.random.default_rng(n).standard_normal((n, 10)) * 2.0
    labels = np.arange(n, dtype=np.int64) % 4
    want_preds, want_scores = _whole_array_scores(net, x)
    preds, scores = training.predict(net, x)
    assert np.array_equal(preds, want_preds)
    assert scores.tobytes() == want_scores.tobytes()
    assert training.accuracy(net, LabeledDataset(x, labels)) \
        == float(np.mean(want_preds == labels))


def test_predict_memory_stays_bounded():
    """Scoring 20000 rows holds one block's activations, not all rows'
    (49 MiB when the pass was whole-array)."""
    net = build_vector_network(10, 4, 64, [(16, 2, 2)] * 2, seed=5)
    x = np.random.default_rng(0).standard_normal((20000, 10))
    training.predict(net, x[:8])
    tracemalloc.start()
    try:
        training.predict(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_rejection_hand_case_from_four_samples():
    correct = np.array([False, True, True, True])
    scores = np.array([0.9, 0.5, 0.2, 0.1])
    acc = rejection_accuracies(correct, scores, rates=(0.0, 0.25))
    assert acc[0.0] == pytest.approx(0.75)
    assert acc[0.25] == pytest.approx(1.0)


def test_rejection_retains_exactly_ceil_fraction():
    rng = np.random.default_rng(0)
    n = 10
    correct = rng.random(n) < 0.5
    scores = rng.random(n)
    for r in (0.0, 0.1, 0.25, 0.3):
        kept = n - int(np.floor(r * n))
        assert kept == int(np.ceil((1.0 - r) * n))
        order = np.argsort(-scores, kind="stable")
        retained = np.sort(order[int(np.floor(r * n)):])
        expect = correct[retained].mean()
        acc = rejection_accuracies(correct, scores, rates=(r,))[r]
        assert acc == pytest.approx(expect)


def test_rejection_ties_drop_lowest_index_first():
    correct = np.array([False, True, True, True])
    scores = np.ones(4)
    acc = rejection_accuracies(correct, scores, rates=(0.25,))
    assert acc[0.25] == pytest.approx(1.0)


def test_rejection_empty_retained_set_is_an_error():
    with pytest.raises(ContractError):
        rejection_accuracies(np.array([True]), np.array([1.0]),
                             rates=(1.0,))
    with pytest.raises(ContractError):
        rejection_accuracies(np.array([], dtype=bool), np.array([]),
                             rates=(0.0,))


def test_evaluate_report_structure():
    train, test = small_data(seed=2)
    cfg = small_config(epochs=1)
    result = run_experiment(cfg, train, test)
    report = evaluate(result.net, test)
    assert set(report.accuracy_by_rejection) == {0.0, 0.1, 0.2, 0.3}
    assert 0.0 <= report.accuracy <= 1.0
    assert len(report.per_class_accuracy) == 3
    assert report.n_samples == len(test)
    assert np.isfinite(report.mean_sigma_correct)


def test_metrics_csv_format(tmp_path):
    train, test = small_data(seed=3)
    cfg = small_config(epochs=2)
    result = run_experiment(cfg, train, test)
    path = os.path.join(tmp_path, "metrics.csv")
    write_metrics_csv(result.history, path)
    with open(path) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == len(METRICS_COLUMNS)
    assert "." in row[2]              # float fields use decimal dots


def test_failed_metrics_and_echo_writes_keep_previous_files(tmp_path,
                                                            monkeypatch):
    """A metrics CSV or config echo whose write dies half way leaves the
    previous file's bytes and no temp file."""
    train, test = small_data(seed=3)
    cfg = small_config(epochs=2)
    result = run_experiment(cfg, train, test, out_dir=str(tmp_path),
                            tag="ok")
    names = sorted(os.listdir(tmp_path))
    metrics = os.path.join(tmp_path, "ok_metrics.csv")
    echo = os.path.join(tmp_path, "ok_config.txt")
    before = {}
    for path in (metrics, echo):
        with open(path, "rb") as fh:
            before[path] = fh.read()

    # the header and first row are written before the bad row raises
    with pytest.raises(KeyError):
        write_metrics_csv(result.history + [{"epoch": 2}], metrics)

    def broken_echo(cfg):
        raise OSError("disk full")

    monkeypatch.setattr(config, "echo_config", broken_echo)
    with pytest.raises(OSError, match="disk full"):
        config.write_config_echo(cfg, echo)
    for path, data in before.items():
        with open(path, "rb") as fh:
            assert fh.read() == data, path
    assert sorted(os.listdir(tmp_path)) == names


def test_train_and_test_widths_must_match():
    train, test = small_data(seed=3)
    narrow = replace(test, features=test.features[:, :-1])
    with pytest.raises(DataFormatError, match="5 feature columns, train data has 6"):
        run_experiment(small_config(epochs=1), train, narrow)


@pytest.mark.parametrize("which", ["train", "test"])
def test_oversized_label_raises_before_sizing_the_classifier(which):
    """A label of 10**10 would size a (10**10 + 1)-row classifier; the
    library raises a data error, not numpy's MemoryError."""
    pair = dict(zip(("train", "test"), small_data(seed=3)))
    labels = pair[which].labels.copy()
    labels[4] = 10 ** 10
    pair[which] = replace(pair[which], labels=labels)
    with pytest.raises(DataFormatError,
                       match=f"{which} data: largest label 10000000000 "
                             "implies 10000000001 classes, more than the 96"):
        run_experiment(small_config(epochs=1), pair["train"], pair["test"])


def test_single_class_pair_raises_a_data_error():
    """Labels that are all 0 imply one class; the library raises a data
    error naming both datasets, not the arch check's ContractError."""
    train, test = small_data(seed=3)
    train, test = (replace(ds, labels=np.zeros_like(ds.labels))
                   for ds in (train, test))
    with pytest.raises(DataFormatError,
                       match="train data and test data: labels imply 1 "
                             "class"):
        run_experiment(small_config(epochs=1), train, test)


def test_one_row_train_set_raises_a_data_error():
    """A train set of 1 row makes no train batch; the library raises a
    data error naming it before training, not the step's ContractError."""
    train, test = small_data(seed=3)
    one = replace(train, features=train.features[:1],
                  labels=train.labels[:1])
    with pytest.raises(DataFormatError,
                       match=r"train data: 1 row\(s\), a train step needs "
                             "at least 2 samples"):
        run_experiment(small_config(epochs=1), one, test)


def test_run_experiment_writes_artifacts(tmp_path):
    train, test = small_data(seed=4)
    cfg = small_config(epochs=1)
    run_experiment(cfg, train, test, out_dir=str(tmp_path), tag="demo")
    for suffix in ("metrics.csv", "config.txt", "checkpoint.json"):
        assert os.path.exists(os.path.join(tmp_path, f"demo_{suffix}"))


SWITCHES = {"compensation", "use_positive_branch", "use_negative_branch",
            "use_triplet_term"}


def test_ablation_overrides_map_onto_config():
    """Every ladder entry sets exactly the four ingredient switches, so a
    variant never inherits one from the config it is applied to."""
    for tag, overrides in ABLATION_LADDER:
        assert set(overrides) == SWITCHES, tag
        # replace() raises TypeError on a key that is not a field
        cfg = replace(small_config(), **overrides)
        assert {k: getattr(cfg, k) for k in overrides} == overrides, tag


def test_ablation_ladder_covers_baseline_to_full():
    names = [name for name, _ in ABLATION_LADDER]
    assert names[0] == "baseline"
    assert names[-1] == "full"
    assert not any(ABLATION_LADDER[0][1].values())
    assert all(ABLATION_LADDER[-1][1].values())


SETTINGS = [dict(zip(sorted(SWITCHES), bits))
            for bits in itertools.product((False, True), repeat=4)]


@pytest.mark.parametrize("switches", SETTINGS, ids=[
    "-".join(k for k, on in sw.items() if on) or "none" for sw in SETTINGS])
def test_every_switch_setting_has_one_meaning(switches):
    """The six settings whose triplet term would not run are refused,
    naming it and each branch that is off; each of the other ten trains
    a step whose triplet loss is 0.0 exactly when the term is off, and
    its config echo gives the setting back."""
    cfg = small_config(**switches)
    off = [k for k in ("use_positive_branch", "use_negative_branch")
           if not switches[k]]
    if switches["use_triplet_term"] and off:
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert all(k in str(err.value)
                   for k in ["use_triplet_term", *off]), err.value
        return
    cfg.validate()
    ds = make_blobs(3, 6, 24, 1.0, seed=0)
    net = build_vector_network(6, 3, cfg.embed_dim,
                               [cfg.parse_grid()] * cfg.num_blocks, cfg.seed)
    _, _, loss_triplet = train_step(net, ds.features, ds.labels, cfg,
                                    Adam(net.parameters()), 0,
                                    0).scalars()
    assert (loss_triplet == 0.0) == (not switches["use_triplet_term"])
    assert config.parse_config_text(config.echo_config(cfg)) == cfg


def test_model_size_counts_every_parameter():
    """check_model_size's arithmetic count is the parameter count of the
    network the same settings build."""
    for grid, blocks, embed, width, classes in [
            ("16x2x2", 2, 64, 10, 4), ("3x2x1", 1, 5, 7, 2),
            ("4x3x2", 3, 2, 1, 9)]:
        cfg = small_config(hidden_grid=grid, num_blocks=blocks,
                           embed_dim=embed)
        net = build_vector_network(width, classes, embed,
                                   [cfg.parse_grid()] * blocks)
        assert training.check_model_size(cfg, width, classes, 128) == sum(
            p.values.size for _, p in net.parameters())


@pytest.mark.parametrize("override, key, what", [
    (dict(hidden_grid="100000000000000000x2x2"), "hidden_grid",
     "a block's activations"),
    (dict(hidden_grid="2048x2x2", embed_dim=1), "hidden_grid",
     "one block's parameters"),
    (dict(embed_dim=3_000_000_000), "embed_dim", "a head's activations"),
    (dict(hidden_grid="64x4x4", embed_dim=40_000), "embed_dim",
     "the heads' parameters"),
    (dict(num_blocks=100_000_000_000), "num_blocks",
     "the network's parameters")])
def test_model_size_bound_names_the_field_past_it(override, key, what):
    cfg = small_config(**override)
    with pytest.raises(ConfigError,
                       match=f"^{key} = {getattr(cfg, key)}: {what} would "
                             f"hold [0-9]+ values, more than the bound of "
                             f"{training.MAX_MODEL_VALUES}$"):
        training.check_model_size(cfg, 10, 4, 128)


def test_fit_trains_above_chance_on_clean_blobs():
    train, test = small_data(seed=6, n=240, k=3)
    cfg = small_config(epochs=8, lr=0.01, batch_size=24)
    net = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=0)
    result = fit(net, train, test, cfg)
    assert result.report.accuracy > 0.5
