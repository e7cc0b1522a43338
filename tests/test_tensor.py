"""Core autodiff engine: forward values, backward gradients, error paths."""

import re

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain.compensation import compensate, draw_perturbation
from uqtrain.errors import ContractError
from uqtrain.gradcheck import _op_cases, weighted_sum
from uqtrain.heads import SIGMA_FLOOR
from uqtrain.stats import layer_stats


def test_relu_forward_values():
    out = T.relu(T.constant([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])


# zero, signed zero, tiny, unit, either side of where softplus(x) rounds
# to x or to exp(x) (36-37), the edge of exp's range, the largest values
SOFTPLUS_POINTS = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 36.0, -36.0,
                   37.0, -37.0, 709.0, -709.0, 1e308, -1e308]


def test_softplus_forward_matches_logaddexp():
    x = np.array(SOFTPLUS_POINTS)
    out = T.softplus(T.constant(x)).values
    np.testing.assert_allclose(out, np.logaddexp(0.0, x), rtol=1e-15, atol=0)


def test_softplus_backward_is_the_logistic_sigmoid_bitwise():
    x = np.concatenate([SOFTPLUS_POINTS, np.linspace(-40.0, 40.0, 801)])
    p = T.parameter(x)
    with T.Tape() as tape:
        loss = weighted_sum(T.softplus(p), np.ones(x.shape))
    T.backward(loss, tape)
    sig = np.where(x >= 0.0,
                   1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert p.grad.tobytes() == sig.tobytes()


def test_softplus_floor_is_added_in_place_bitwise():
    x = np.concatenate([SOFTPLUS_POINTS, np.linspace(-40.0, 40.0, 801)])
    g = np.random.default_rng(1).standard_normal(x.shape)
    for floor in (SIGMA_FLOOR, 0.5):
        off_tape = T.softplus(T.constant(x), floor).values
        assert off_tape.tobytes() == (T.softplus(T.constant(x)).values
                                      + floor).tobytes()
        grads = []
        for fl in (0.0, floor):
            p = T.parameter(x)
            with T.Tape() as tape:
                out = T.softplus(p, fl)
                loss = weighted_sum(out, g)
            T.backward(loss, tape)
            grads.append(p.grad.tobytes())
        assert out.values.tobytes() == off_tape.tobytes()
        assert grads[0] == grads[1]


def test_affine_identity_returns_operand():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5))
    out = T.affine(T.constant(a), T.constant(np.eye(5)),
                   T.constant(np.zeros(5)))
    np.testing.assert_allclose(out.values, a, atol=1e-15)


@pytest.mark.parametrize("b, n, m", [(3, 4, 2), (128, 64, 64), (37, 10, 1)])
def test_affine_repeats_matmul_plus_bias_bitwise(b, n, m):
    """The output and all three gradients are the arithmetic a matmul
    node plus a broadcast bias add did."""
    rng = np.random.default_rng(b)
    x, w = rng.standard_normal((b, n)), rng.standard_normal((n, m))
    bias, g = rng.standard_normal(m), rng.standard_normal((b, m))
    xp, wp, bp = T.parameter(x), T.parameter(w), T.parameter(bias)
    with T.Tape() as tape:
        out = T.affine(xp, wp, bp)
        loss = weighted_sum(out, g)
    assert len(tape.nodes) == 2
    T.backward(loss, tape)
    assert out.values.tobytes() == (x @ w + bias).tobytes()
    assert xp.grad.tobytes() == (g @ w.T).tobytes()
    assert wp.grad.tobytes() == (x.T @ g).tobytes()
    assert bp.grad.tobytes() == g.sum(axis=0).tobytes()


def test_backward_sum_gives_ones():
    x = T.parameter(np.arange(4.0).reshape(2, 2))
    with T.Tape() as tape:
        loss = weighted_sum(x, np.ones((2, 2)))
    T.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_backward_half_square_gives_input():
    vals = np.array([[1.0, -2.0], [3.0, 0.5]])
    x = T.parameter(vals)
    with T.Tape() as tape:
        loss = T.scalar_mul(0.5, weighted_sum(x, x))
    T.backward(loss, tape)
    np.testing.assert_allclose(x.grad, vals, atol=1e-15)


def test_backward_three_layer_composition_matches_fd():
    rng = np.random.default_rng(2)
    arrays = [T.parameter(rng.standard_normal((5, 4))),
              T.parameter(rng.standard_normal((4, 6))),
              T.parameter(rng.standard_normal((6, 3)))]

    zeros = T.constant(np.zeros(6)), T.constant(np.zeros(3))

    def f(ars):
        x, w1, w2 = ars
        h = T.relu(T.affine(x, w1, zeros[0]))
        return weighted_sum(T.softplus(T.affine(h, w2, zeros[1])),
                            np.ones((5, 3)))

    assert T.check_gradients(f, arrays) < 1e-4


def test_backward_requires_scalar_loss():
    x = T.parameter(np.ones(3))
    with T.Tape() as tape:
        out = T.add(x, x)
    with pytest.raises(ContractError):
        T.backward(out, tape)


def test_gradient_of_loss_wrt_itself_is_one():
    x = T.parameter(np.array(2.0))
    with T.Tape() as tape:
        loss = T.scalar_mul(3.0, x)
    T.backward(loss, tape)
    assert float(loss.grad) == 1.0


def test_grad_accumulates_when_node_reused():
    x = T.parameter(np.array([3.0]))
    with T.Tape() as tape:
        loss = weighted_sum(T.add(x, x), x)   # 2 x^2
    T.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [12.0])


def test_backward_only_adds_into_grad():
    """The sweep clears nothing and fills in nothing: a leaf the loss
    does not reach keeps grad None, even when another node on the tape
    reads it, and a second sweep adds onto the gradient the caller left
    in place."""
    x = T.parameter(np.array([1.0, 2.0]))
    unused = T.parameter(np.array([5.0]))
    for sweep in (1, 2):
        with T.Tape() as tape:
            loss = weighted_sum(x, np.array([3.0, 4.0]))
            _ = T.add(unused, unused)
        T.backward(loss, tape)
        assert unused.grad is None
        np.testing.assert_array_equal(x.grad, [3.0 * sweep, 4.0 * sweep])


def test_check_gradients_treats_an_unreached_input_as_zero_gradient():
    """An input f never reads has no grad after the sweep; its gradient
    is zero, and a stale grad left on it is not what gets compared.
    Small integers and a power-of-two step make every difference exact."""
    a = T.parameter(np.arange(6.0).reshape(2, 3))
    b = T.parameter(np.arange(4.0))
    b.grad = np.ones(4)
    err = T.check_gradients(lambda ars: weighted_sum(ars[0], np.ones((2, 3))),
                            [a, b], h=2.0 ** -10)
    assert err == 0.0


def test_mix_partners_raises_on_tiny_denominator():
    with pytest.raises(ContractError, match="mix_partners: denominator "
                                            "within 1e-12 of zero"):
        T.mix_partners(T.constant([[1.0], [2.0]]),
                       T.constant([[1e-13], [-1e-13]]), [[1, 1]], [1, 1])


@pytest.mark.parametrize("index, keep", [
    ([[0, 1], [1, 0]], [1, 1]), ([0, 2], [1, 1]), ([-1, 0], [1, 1]),
    ([0, 1, 0], [1, 1]),
    # the row mask must be (B,) too: a shorter or 2-d one would broadcast
    ([1, 0], [1]), ([1, 0], [1, 1, 1]), ([1, 0], [[1], [1]])],
    ids=["2-d", "past-end", "negative", "too-long",
         "mask-short", "mask-long", "mask-2-d"])
def test_partner_indices_must_be_rows_of_the_batch(index, keep):
    mean = T.constant(np.ones((2, 3)))
    if np.ndim(keep) == 1 and len(keep) == 2:
        what = ("partner indices must be 2 rows of the batch, got shape "
                + re.escape(str(np.shape(index))))
    else:
        what = r"row mask must be \(2,\), got shape " + re.escape(
            str(np.shape(keep)))
    with pytest.raises(ContractError, match="mix_partners: " + what):
        T.mix_partners(mean, mean, [index], keep)
    with pytest.raises(ContractError, match="triplet_hinge: " + what):
        T.triplet_hinge(mean, [0, 1], index, keep, 1.0)


@pytest.mark.parametrize("x, w, b", [((2, 3), (4, 2), (2,)),
                                     ((2, 3), (3, 2), (3,)),
                                     ((2, 3, 1), (3, 2), (2,))],
                         ids=["inner", "bias", "3-d"])
def test_affine_shape_mismatch(x, w, b):
    with pytest.raises(ContractError, match="affine: " + re.escape(
            f"{x} @ {w} + {b}") + " does not fit"):
        T.affine(*(T.constant(np.ones(sh)) for sh in (x, w, b)))


def test_add_shape_mismatch():
    with pytest.raises(ContractError,
                       match=r"add: shapes \(2, 3\) and \(2, 4\) differ"):
        T.add(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 4))))
    # adds do not broadcast
    with pytest.raises(ContractError,
                       match=r"add: shapes \(3, 4\) and \(4,\) differ"):
        T.add(T.constant(np.ones((3, 4))), T.constant(np.ones(4)))


def test_backward_copies_first_gradients_and_never_aliases():
    """add's backward hands g itself to both inputs.  The sweep must
    store a copy of each input's first contribution: a leaf used twice,
    and every array downstream of an add, must get the gradients a
    zero-filled buffer plus each contribution gives, and no two .grad
    arrays may share memory."""
    rng = np.random.default_rng(4)
    x = T.parameter(rng.standard_normal((3, 4)))
    y = T.parameter(rng.standard_normal((3, 4)))
    w = rng.standard_normal((3, 4))
    with T.Tape() as tape:
        s = T.add(x, y)
        d = T.add(s, s)
        t = T.add(d, x)
        loss = weighted_sum(t, w)
    T.backward(loss, tape)

    def zero_fill_and_add(*contribs):
        grad = np.zeros((3, 4))
        for c in contribs:
            grad += c
        return grad

    g_t = zero_fill_and_add(w)
    g_d = zero_fill_and_add(g_t)
    g_s = zero_fill_and_add(g_d, g_d)
    want = {"t": g_t, "d": g_d, "s": g_s,
            "x": zero_fill_and_add(g_t, g_s), "y": zero_fill_and_add(g_s)}
    arrays = {"t": t, "d": d, "s": s, "x": x, "y": y}
    for name, arr in arrays.items():
        assert arr.grad.tobytes() == want[name].tobytes(), name

    for name, arr in arrays.items():
        arr.grad[...] = np.nan
        for other, o in arrays.items():
            if other != name:
                assert o.grad.tobytes() == want[other].tobytes(), \
                    f"writing {name}.grad changed {other}.grad"
        arr.grad[...] = want[name]


def test_add_of_one_input_twice_doubles_g_and_leaves_g_alone():
    """add hands g itself to both inputs: x gets g + g, and the output's
    own gradient is still g."""
    rng = np.random.default_rng(5)
    x = T.parameter(rng.standard_normal((3, 4)))
    w = rng.standard_normal((3, 4))
    with T.Tape() as tape:
        s = T.add(x, x)
        loss = weighted_sum(s, w)
    T.backward(loss, tape)
    assert s.grad.tobytes() == w.tobytes()
    assert x.grad.tobytes() == (w + w).tobytes()


def test_backward_adopts_fresh_contributions_and_copies_shared_ones():
    """A fresh array a backward returns becomes the input's gradient as
    it is; one array handed to two inputs is stored once and copied
    once, so the two gradients do not share memory."""
    rng = np.random.default_rng(6)
    a, b = (T.parameter(rng.standard_normal((2, 3))) for _ in range(2))
    handed = {}

    def twin_bw(g):
        handed["c"] = g * 2.0
        return handed["c"], handed["c"]

    def single_bw(g):
        handed["d"] = g * 3.0
        return (handed["d"],)

    with T.Tape() as tape:
        twin = T._record(T.DiffArray(a.values + b.values), (a, b), twin_bw)
        out = T._record(T.DiffArray(twin.values * 3.0), (twin,), single_bw)
        loss = weighted_sum(out, np.ones((2, 3)))
    T.backward(loss, tape)
    assert twin.grad is handed["d"]
    assert a.grad is handed["c"] and b.grad is not handed["c"]
    assert not np.shares_memory(a.grad, b.grad)
    assert a.grad.tobytes() == b.grad.tobytes()


def kept_arrays(backward) -> list:
    """The arrays a backward closure holds, alone or in a list."""
    kept = []
    for cell in backward.__closure__ or ():
        value = cell.cell_contents
        for v in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(v, np.ndarray):
                kept.append(v)
    return kept


def test_no_backward_contribution_aliases_its_node(monkeypatch):
    """Every backward of every gradcheck op case returns fresh arrays: no
    contribution shares memory with the op's inputs, its output, the g
    it was handed or an array its closure keeps, except that add returns
    g itself.  perturb_stats' input gradient is also no view and
    C-contiguous, so the sweep keeps it without a copy."""
    checked = set()
    record = T._record

    def spy(out, inputs, backward):
        op = backward.__qualname__.split(".", 1)[0]

        def checked_backward(g):
            contribs = backward(g)
            for c in contribs:
                if c is None:
                    continue
                if op == "add":
                    assert c is g
                    continue
                for arr in (g, out.values, *(i.values for i in inputs),
                            *kept_arrays(backward)):
                    assert not np.shares_memory(c, arr), op
                if op == "perturb_stats":
                    assert c.base is None and c.flags.c_contiguous
            checked.add(op)
            return contribs
        return record(out, inputs, checked_backward)

    monkeypatch.setattr(T, "_record", spy)
    for _, f, arrays in _op_cases(0):
        with T.Tape() as tape:
            loss = f(arrays)
        T.backward(loss, tape)
    assert {"add", "affine", "relu", "softplus", "perturb_stats",
            "mix_partners", "triplet_hinge",
            "class_cross_entropy"} <= checked


def test_affine_of_a_constant_input_returns_no_input_gradient():
    rng = np.random.default_rng(7)
    x, w = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
    bias, g = rng.standard_normal(3), rng.standard_normal((5, 3))
    grads = {}
    for x_in in (T.constant(x), T.parameter(x)):
        wp, bp = T.parameter(w), T.parameter(bias)
        with T.Tape() as tape:
            out = T.affine(x_in, wp, bp)
        contribs = tape.nodes[0].backward(g)
        assert (contribs[0] is None) == (not x_in.requires_grad)
        grads[x_in.requires_grad] = [c.tobytes() for c in contribs[1:]]
        with T.Tape() as tape:
            loss = weighted_sum(T.affine(x_in, wp, bp), g)
        T.backward(loss, tape)
        assert (x_in.grad is None) == (not x_in.requires_grad)
    assert grads[False] == grads[True]


def test_relu_off_the_tape_records_nothing_and_keeps_requires_grad(
        monkeypatch):
    x = T.parameter(np.array([[-1.5, 0.0, 2.0], [3.0, -0.0, -4.0]]))
    calls = []
    record = T._record

    def spy(out, inputs, backward):
        calls.append(backward)
        return record(out, inputs, backward)

    monkeypatch.setattr(T, "_record", spy)
    off = T.relu(x)
    const = T.relu(T.constant(x.values))
    assert calls == []
    with T.Tape() as tape:
        on = T.relu(x)
        with_const = T.relu(T.constant(x.values))
    assert len(calls) == 1 and len(tape.nodes) == 1
    assert off.values.tobytes() == on.values.tobytes()
    assert off.values.tobytes() == const.values.tobytes()
    assert off.requires_grad and on.requires_grad
    assert not const.requires_grad and not with_const.requires_grad


def test_mix_partners_scatter_handles_duplicate_partners():
    # equal sigmas give weights of exactly 1/2; row 0 is everyone's partner
    # but row 2's, so its gradients gather two partner contributions
    mean = T.parameter(np.array([[1.0], [2.0], [3.0]]))
    sigma = T.parameter(np.ones((3, 1)))
    with T.Tape() as tape:
        out, _ = T.mix_partners(mean, sigma, [[0, 0, 2]], [1, 1, 1])
        loss = weighted_sum(out, np.ones((3, 1)))
    T.backward(loss, tape)
    np.testing.assert_array_equal(mean.grad, [[1.5], [0.5], [1.0]])
    np.testing.assert_array_equal(sigma.grad, [[-0.25], [0.25], [0.0]])


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 12))
    w, b = rng.standard_normal((12, 48)), rng.standard_normal(48)
    classifier = rng.standard_normal((3, 48))
    draw = draw_perturbation(4, 3, seed=3, epoch=0, batch_index=0,
                             layer_index=1)

    def forward():
        flat = T.affine(T.constant(x), T.constant(w), T.constant(b))
        grid = T.constant(flat.values.reshape(4, 3, 4, 4))
        feats = T.relu(compensate(flat, layer_stats(grid), draw))
        return T.class_cross_entropy(feats, T.constant(classifier),
                                     np.eye(3)[[0, 1, 2, 0]]).values

    assert forward().tobytes() == forward().tobytes()


def test_perturb_stats_on_the_flat_output_matches_its_grid_view_bitwise():
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((6, 3, 2, 2)) * 2.0
    st = layer_stats(T.constant(grid))
    draw = draw_perturbation(6, 3, seed=5, epoch=1, batch_index=2,
                             layer_index=1)
    g = rng.standard_normal(grid.shape)
    outs, grads = [], []
    for shape in (grid.shape, (6, 12)):
        x = T.parameter(grid.reshape(shape))
        with T.Tape() as tape:
            out = compensate(x, st, draw)
            loss = weighted_sum(out, g.reshape(shape))
        assert len(tape.nodes) == 2 and out.shape == shape
        T.backward(loss, tape)
        outs.append(out.values.tobytes())
        grads.append(x.grad.tobytes())
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def generic_chain_cross_entropy(x, classifier, targets):
    """The loss and both gradients as the generic ops composed them
    (transpose, matmul, log_softmax, mul with the targets, total_sum,
    scalar_mul by -1/B), copies and gradient accumulation included."""
    wt = classifier.T.copy()
    logits = x @ wt
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    c = -1.0 / x.shape[0]
    loss = c * np.asarray((targets * logp).sum())
    g_sum = np.zeros(()) + c * np.ones(())
    g_prod = np.broadcast_to(g_sum, logp.shape)
    g_logp = np.zeros(logp.shape) + g_prod * targets
    g_logits = g_logp - np.exp(logp) * g_logp.sum(axis=1, keepdims=True)
    return loss, g_logits @ wt.T, (x.T @ g_logits).T.copy()


@pytest.mark.parametrize("b, d, k", [(3, 5, 4), (128, 64, 4), (37, 8, 10)])
def test_class_cross_entropy_repeats_the_generic_chain_bitwise(b, d, k):
    rng = np.random.default_rng(b)
    x = rng.standard_normal((b, d)) * 3.0
    classifier = rng.standard_normal((k, d))
    targets = np.zeros((b, k))
    for _ in range(3):   # own label plus two blended partners' labels
        targets[np.arange(b), rng.integers(0, k, b)] += 1.0
    feats, cls = T.parameter(x), T.parameter(classifier)
    with T.Tape() as tape:
        loss = T.class_cross_entropy(feats, cls, targets)
    assert len(tape.nodes) == 1
    T.backward(loss, tape)
    want_loss, want_gx, want_gc = generic_chain_cross_entropy(
        x, classifier, targets)
    assert np.array_equal(loss.values, want_loss)
    assert np.array_equal(feats.grad, want_gx)
    assert np.array_equal(cls.grad, want_gc)


def test_class_cross_entropy_is_stable_at_extreme_logits():
    # logits of +-1e3 overflow a plain exp; equal ones give log(3)
    x = T.parameter(np.array([[1.0], [-1.0]]))
    classifier = T.parameter(np.array([[1e3], [-1e3], [0.0]]))
    with T.Tape() as tape:
        loss = T.class_cross_entropy(x, classifier, [[1, 0, 0], [1, 0, 0]])
    T.backward(loss, tape)
    # row 0 puts all mass on its label, row 1 puts it on class 1 (logp -2e3)
    assert float(loss.values) == 1000.0
    np.testing.assert_array_equal(x.grad, [[0.0], [-1000.0]])
    np.testing.assert_array_equal(classifier.grad, [[0.5], [-0.5], [0.0]])

    flat = T.class_cross_entropy(T.constant(np.ones((1, 1))),
                                 T.constant(np.full((3, 1), 1e3)),
                                 [[1, 0, 0]])
    np.testing.assert_allclose(flat.values, np.log(3.0), rtol=1e-15)

