"""Core autodiff engine: forward values, backward gradients, error paths."""

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain.compensation import compensate, draw_perturbation
from uqtrain.errors import ContractError, DegenerateDenominator, ShapeError
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
        loss = T.total_sum(T.softplus(p))
    T.backward(loss, tape)
    sig = np.where(x >= 0.0,
                   1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert p.grad.tobytes() == sig.tobytes()


def test_matmul_identity_returns_operand():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5))
    out = T.matmul(T.constant(np.eye(3)), T.constant(a))
    np.testing.assert_allclose(out.values, a, atol=1e-15)


def test_backward_sum_gives_ones():
    x = T.parameter(np.arange(4.0).reshape(2, 2))
    with T.Tape() as tape:
        loss = T.total_sum(x)
    T.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_backward_half_square_gives_input():
    vals = np.array([[1.0, -2.0], [3.0, 0.5]])
    x = T.parameter(vals)
    with T.Tape() as tape:
        loss = T.scalar_mul(0.5, T.total_sum(T.mul(x, x)))
    T.backward(loss, tape)
    np.testing.assert_allclose(x.grad, vals, atol=1e-15)


def test_backward_three_layer_composition_matches_fd():
    rng = np.random.default_rng(2)
    arrays = [T.parameter(rng.standard_normal((5, 4))),
              T.parameter(rng.standard_normal((4, 6))),
              T.parameter(rng.standard_normal((6, 3)))]

    def f(ars):
        x, w1, w2 = ars
        h = T.relu(T.matmul(x, w1))
        return T.total_sum(T.softplus(T.matmul(h, w2)))

    assert T.check_gradients(f, arrays) < 1e-4


def test_backward_requires_scalar_loss():
    x = T.parameter(np.ones(3))
    with T.Tape() as tape:
        out = T.mul(x, x)
    with pytest.raises(ContractError):
        T.backward(out, tape)


def test_gradient_of_loss_wrt_itself_is_one():
    x = T.parameter(np.array(2.0))
    with T.Tape() as tape:
        loss = T.mul(x, x)
    T.backward(loss, tape)
    assert float(loss.grad) == 1.0


def test_grad_accumulates_when_node_reused():
    x = T.parameter(np.array([3.0]))
    with T.Tape() as tape:
        loss = T.total_sum(T.add(T.mul(x, x), T.mul(x, x)))
    T.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [12.0])


def test_untouched_parameter_gets_zero_grad():
    x = T.parameter(np.array([1.0, 2.0]))
    unused = T.parameter(np.array([5.0]))
    with T.Tape() as tape:
        loss = T.total_sum(x)
        _ = T.mul(unused, unused)
    T.backward(loss, tape)
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_mix_partners_raises_on_tiny_denominator():
    with pytest.raises(DegenerateDenominator):
        T.mix_partners(T.constant([[1.0], [2.0]]),
                       T.constant([[1e-13], [-1e-13]]), [[1, 1]], [1, 1])


@pytest.mark.parametrize("index", [[[0, 1], [1, 0]], [0, 2], [-1, 0],
                                   [0, 1, 0]],
                         ids=["2-d", "past-end", "negative", "too-long"])
def test_partner_indices_must_be_rows_of_the_batch(index):
    mean = T.constant(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.mix_partners(mean, mean, [index], [1, 1])
    with pytest.raises(ShapeError):
        T.triplet_hinge(mean, [0, 1], index, [1, 1], 1.0)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((4, 2))))


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        T.add(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 4))))


def test_broadcast_add_and_unbroadcast_grad():
    x = T.parameter(np.ones((3, 4)))
    b = T.parameter(np.arange(4.0))
    with T.Tape() as tape:
        loss = T.total_sum(T.add(x, b))
    T.backward(loss, tape)
    np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])


def test_mix_partners_scatter_handles_duplicate_partners():
    # equal sigmas give weights of exactly 1/2; row 0 is everyone's partner
    # but row 2's, so its gradients gather two partner contributions
    mean = T.parameter(np.array([[1.0], [2.0], [3.0]]))
    sigma = T.parameter(np.ones((3, 1)))
    with T.Tape() as tape:
        out, _ = T.mix_partners(mean, sigma, [[0, 0, 2]], [1, 1, 1])
        loss = T.total_sum(out)
    T.backward(loss, tape)
    np.testing.assert_array_equal(mean.grad, [[1.5], [0.5], [1.0]])
    np.testing.assert_array_equal(sigma.grad, [[-0.25], [0.25], [0.0]])


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 12))
    w = rng.standard_normal((12, 48))
    draw = draw_perturbation(4, 3, seed=3, epoch=0, batch_index=0,
                             layer_index=1)

    def forward():
        grid = T.reshape(T.matmul(T.constant(x), T.constant(w)), (4, 3, 4, 4))
        out = compensate(grid, layer_stats(grid), draw)
        return T.log_softmax(T.relu(T.reshape(out, (4, 48)))).values

    assert forward().tobytes() == forward().tobytes()


def test_log_softmax_is_lse_stable():
    x = T.constant(np.array([[1000.0, 1000.0, 1000.0]]))
    out = T.log_softmax(x).values
    np.testing.assert_allclose(out, np.log(np.ones((1, 3)) / 3), atol=1e-12)

