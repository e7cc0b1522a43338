"""Statistic perturbation layer: identity, zero-mean, and oracle checks."""

import re

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain.compensation import (
    PerturbationDraw,
    compensate,
    draw_perturbation,
    forward_with_compensation,
)
from uqtrain.errors import ContractError
from uqtrain.gradcheck import weighted_sum
from uqtrain.heads import build_vector_network
from uqtrain.rng import STREAM_PERTURB, keyed_rng
from uqtrain.stats import EPS_VAR, layer_stats
from uqtrain.tensor import EPS_RESTANDARDIZE

def zero_draw(b, c):
    return PerturbationDraw(eps_mean=np.zeros((b, c)),
                            eps_std=np.zeros((b, c)))


def random_feat(rng, shape=(4, 3, 4, 4), min_spread=0.0):
    feat = rng.standard_normal(shape)
    if min_spread > 0:
        # widen every channel so the instance std is safely above min_spread
        feat = feat * (3.0 * min_spread)
    return feat


def test_zero_eps_is_identity_up_to_eps_div():
    rng = np.random.default_rng(0)
    feat = random_feat(rng, min_spread=0.1)
    st = layer_stats(feat)
    assert float(st.instance_std.min()) >= 0.1
    out = compensate(T.constant(feat), feat.shape[1:], zero_draw(4, 3))
    assert np.max(np.abs(out.values - feat)) <= 1e-4


def test_constant_channel_collapses_to_jittered_mean():
    rng = np.random.default_rng(1)
    feat = rng.standard_normal((3, 2, 2, 2))
    feat[:, 1] = 4.0                      # one spatially constant channel
    st = layer_stats(feat)
    draw = draw_perturbation(3, 2, seed=7, epoch=0,
                             batch_index=0, layer_index=1)
    out = compensate(T.constant(feat), feat.shape[1:], draw).values
    expect = (st.instance_mean[:, 1]
              + draw.eps_mean[:, 1] * st.std_of_means[1])
    for h in range(2):
        for w in range(2):
            np.testing.assert_allclose(out[:, 1, h, w], expect, atol=1e-9)


def test_compensate_matches_scalar_reference():
    rng = np.random.default_rng(2)
    feat = random_feat(rng)
    st = layer_stats(feat)
    draw = draw_perturbation(4, 3, seed=3, epoch=1,
                             batch_index=2, layer_index=1)
    out = compensate(T.constant(feat), feat.shape[1:], draw).values

    u = st.instance_mean
    s = st.instance_std
    sig_mu = st.std_of_means
    sig_sig = st.std_of_stds
    expect = np.zeros_like(feat)
    for b in range(4):
        for c in range(3):
            scale = s[b, c] + draw.eps_std[b, c] * sig_sig[c]
            shift = u[b, c] + draw.eps_mean[b, c] * sig_mu[c]
            for h in range(4):
                for w in range(4):
                    norm = ((feat[b, c, h, w] - u[b, c])
                            / (s[b, c] + EPS_RESTANDARDIZE))
                    expect[b, c, h, w] = scale * norm + shift
    np.testing.assert_array_equal(out, expect)


def test_perturbation_is_zero_mean_over_draws():
    rng = np.random.default_rng(3)
    feat = random_feat(rng, shape=(3, 2, 2, 2), min_spread=0.2)
    reference = compensate(T.constant(feat), feat.shape[1:],
                           zero_draw(3, 2)).values

    n_draws = 2000
    acc = np.zeros_like(feat)
    sq = np.zeros_like(feat)
    for i in range(n_draws):
        draw = draw_perturbation(3, 2, seed=11, epoch=0,
                                 batch_index=i, layer_index=1)
        out = compensate(T.constant(feat), feat.shape[1:], draw).values
        acc += out
        sq += out * out
    mean = acc / n_draws
    se = np.sqrt(np.maximum(sq / n_draws - mean ** 2, 0.0) / n_draws)
    assert np.all(np.abs(mean - reference) <= 3.0 * se + 1e-12)


def test_draws_reproduce_under_identical_keys():
    a = draw_perturbation(8, 4, seed=5, epoch=2,
                          batch_index=3, layer_index=1)
    b = draw_perturbation(8, 4, seed=5, epoch=2,
                          batch_index=3, layer_index=1)
    np.testing.assert_array_equal(a.eps_mean, b.eps_mean)
    np.testing.assert_array_equal(a.eps_std, b.eps_std)
    c = draw_perturbation(8, 4, seed=5, epoch=2,
                          batch_index=3, layer_index=2)
    assert not np.array_equal(a.eps_mean, c.eps_mean)


def test_batch_permutation_equivariance():
    rng = np.random.default_rng(4)
    feat = random_feat(rng)
    perm = rng.permutation(4)
    draw = draw_perturbation(4, 3, seed=9, epoch=0,
                             batch_index=0, layer_index=1)
    out = compensate(T.constant(feat), feat.shape[1:], draw).values
    permuted_draw = PerturbationDraw(eps_mean=draw.eps_mean[perm],
                                     eps_std=draw.eps_std[perm])
    out_perm = compensate(T.constant(feat[perm]), feat.shape[1:],
                          permuted_draw).values
    np.testing.assert_allclose(out[perm], out_perm, atol=1e-12)


def test_gradient_through_compensation_matches_fd():
    rng = np.random.default_rng(5)
    feat = T.parameter(random_feat(rng, shape=(3, 2, 2, 2)))
    draw = draw_perturbation(3, 2, seed=13, epoch=0,
                             batch_index=0, layer_index=1)
    weights = rng.standard_normal(feat.shape)

    def f(ars):
        out = compensate(ars[0], ars[0].shape[1:], draw)
        return weighted_sum(out, weights)

    assert T.check_gradients(f, [feat]) < 1e-4


def make_net():
    return build_vector_network(6, 3, embed_dim=8,
                                grids=((4, 2, 2), (4, 2, 2)), seed=0)


def test_disabled_layers_match_plain_forward(monkeypatch):
    """With no key the forward computes no statistics and draws no noise,
    so it is the plain forward; a keyed forward on the same input is not."""
    import uqtrain.compensation as comp

    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 6))
    net = make_net()
    keyed = forward_with_compensation(T.constant(x), net, (5, 3, 2))

    def forbidden(*args, **kwargs):
        raise AssertionError("the disabled forward touched compensation")

    monkeypatch.setattr(comp, "layer_stats", forbidden)
    monkeypatch.setattr(comp, "draw_perturbation", forbidden)
    monkeypatch.setattr(comp, "compensate", forbidden)
    a = forward_with_compensation(T.constant(x), net, None)

    h = T.constant(x)
    for block in net.blocks:
        h = T.relu(block.apply(h))
    assert a.values.tobytes() == h.values.tobytes()
    assert keyed.values.tobytes() != h.values.tobytes()


def test_eval_mode_is_plain_forward_bitwise():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 6))
    net = make_net()
    a = forward_with_compensation(T.constant(x), net, None)

    h = T.constant(x)
    for block in net.blocks:
        h = T.relu(block.apply(h))
    assert a.values.tobytes() == h.values.tobytes()


def test_single_enabled_layer_matches_manual_composition():
    """A keyed forward compensates every block, block k with the noise
    of (seed, epoch, batch_index, k)."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 6))
    net = make_net()
    out = forward_with_compensation(T.constant(x), net, (17, 1, 4))

    h = T.constant(x)
    for k, block in enumerate(net.blocks, start=1):
        feat = block.apply(h)
        draw = draw_perturbation(feat.shape[0], block.grid[0],
                                 seed=17, epoch=1,
                                 batch_index=4, layer_index=k)
        feat = compensate(feat, block.grid, draw)
        h = T.relu(feat)
    assert out.values.tobytes() == h.values.tobytes()


def test_stats_shape_mismatch_rejected():
    """compensate takes the statistics of the map it is given, read at
    the grid it is given: a map that is neither (B, C * H * W) nor
    (B, C, H, W) for that grid is refused, both shapes named."""
    rng = np.random.default_rng(11)
    feat = rng.standard_normal((4, 3, 2, 2))
    for shape, grid in (((4, 3, 2, 2), (5, 2, 2)), ((4, 12), (5, 2, 2)),
                        ((4, 3, 4), (3, 2, 2)), ((4, 6, 2), (3, 2, 2)),
                        ((4, 12, 1), (3, 2, 2))):
        c, h, w = grid
        with pytest.raises(ContractError, match=re.escape(
                f"map {shape} is neither (B, {c * h * w}) nor "
                f"(B, {c}, {h}, {w}) for grid {grid}")):
            compensate(T.constant(feat.reshape(shape)), grid,
                       zero_draw(4, grid[0]))
    # both noise fields must be (B, C); neither may broadcast
    for shape in ((3,), (1, 1)):
        for draw in (PerturbationDraw(np.zeros(shape), np.zeros((4, 3))),
                     PerturbationDraw(np.zeros((4, 3)), np.zeros(shape))):
            with pytest.raises(ContractError,
                               match=r"perturbation shape "
                                     + re.escape(str(shape))
                                     + r" does not match map \(4, 3\)"):
                compensate(T.constant(feat), feat.shape[1:], draw)


# ---------------------------------------------------------------------------
# the position-plane layout against the (B, C, H * W) formulas it replaced


def channel_axis_stats(x4):
    """layer_stats as the (B, C, H * W) layout computed it: numpy's
    spatial reductions over each channel's H * W contiguous values."""
    def std(x, mean, axis):
        return np.sqrt(np.mean((x - mean) ** 2, axis=axis) + EPS_VAR)
    u = x4.mean(axis=(2, 3))
    s = std(x4, u[:, :, None, None], (2, 3))
    u_bar, s_bar = u.mean(axis=0), s.mean(axis=0)
    return u, s, u_bar, std(u, u_bar, 0), s_bar, std(s, s_bar, 0)


def channel_axis_perturb(x, u, s, sm, ss, eps_m, eps_s, g):
    """perturb_stats' output and input gradient for an output gradient g,
    with x read as (B, C, H * W) and (B, C, 1) operands."""
    b, c = u.shape
    scale = (s + eps_s * ss)[:, :, None]
    shift = (u + eps_m * sm)[:, :, None]
    centered = x.reshape(b, c, -1) - u[:, :, None]
    denom = s[:, :, None] + EPS_RESTANDARDIZE
    out = (scale * (centered / denom) + shift).reshape(x.shape)
    n = centered.shape[2]
    g = g.reshape(b, c, n)
    a = scale / denom
    keep = 1.0 - a[:, :, 0]
    g_sum = g.sum(axis=2)
    gn_sum = (g * centered / denom).sum(axis=2)
    gu = (g_sum * keep + (u - u.mean(axis=0))
          * (eps_m * g_sum).sum(axis=0) / (b * sm))
    gs = (gn_sum * keep + (s - s.mean(axis=0))
          * (eps_s * gn_sum).sum(axis=0) / (b * ss))
    gx = (g * a + (gu / n)[:, :, None]
          + centered * (gs / (n * s))[:, :, None]).reshape(x.shape)
    return out, gx


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# From 8 positions on, numpy sums a channel's contiguous positions
# pairwise, while the planes are added left to right.  Each deviation
# from the channel-axis formulas must then stay within this many times
# the largest magnitude of the array it is in, about 9 float64 epsilons;
# at the grids below the worst is 3.1e-16 (the input gradient at 2x4
# and 12x12).
PAIRWISE_TOL = 2e-15


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=PAIRWISE_TOL * np.abs(want).max())


def left_to_right_stats(x4):
    """Each sample's channel mean and smoothed std, every spatial sum
    taken one position after another from +0.0, as numpy's reductions
    start (so negative zeros sum to +0.0)."""
    b, c, h, w = x4.shape
    cols = x4.reshape(b, c, h * w).transpose(2, 0, 1)
    total = np.zeros((b, c))
    for col in cols:
        total = total + col
    u = total / (h * w)
    total = np.zeros((b, c))
    for col in cols:
        total = total + (col - u) * (col - u)
    return u, np.sqrt(total / (h * w) + EPS_VAR)


# 2 to 7 positions, where numpy adds left to right, then grids from 8
# positions on, where it sums pairwise (above 128 in halves)
GRIDS = [(1, 2), (1, 3), (2, 2), (1, 5), (2, 3), (1, 7),
         (2, 4), (3, 3), (4, 4), (1, 17), (12, 12)]


@pytest.mark.parametrize("h, w", GRIDS, ids=[f"{h}x{w}" for h, w in GRIDS])
@pytest.mark.parametrize("flat", [False, True], ids=["4d", "flat"])
def test_position_planes_repeat_the_channel_axis_formulas_bitwise(h, w,
                                                                  flat):
    """Below 8 positions, layer_stats and the compensation op's forward
    and backward give the (B, C, H * W) formulas' bits, signs of zero
    included, on a 4-d map and on a block's flat output.  From 8 on they
    stay within PAIRWISE_TOL of them, and the instance statistics are
    left-to-right sums over the positions, bit for bit."""
    rng = np.random.default_rng(h * 100 + w)
    b, c = 5, 3
    x4 = rng.standard_normal((b, c, h, w)) * rng.uniform(0.5, 3.0, (b, c, 1, 1))
    x4[0, 1] = -0.0                  # one channel of negative zeros
    g4 = rng.standard_normal(x4.shape)
    g4[1, 2] = -0.0
    st = layer_stats(x4)
    expect = channel_axis_stats(x4)
    check = assert_same_bits if h * w < 8 else assert_close
    for got, want in zip((st.instance_mean, st.instance_std,
                          st.mean_of_means, st.std_of_means,
                          st.mean_of_stds, st.std_of_stds), expect):
        check(got, want)
    u, s = left_to_right_stats(x4)
    assert_same_bits(st.instance_mean, u)
    assert_same_bits(st.instance_std, s)

    shape = (b, c * h * w) if flat else x4.shape
    draw = draw_perturbation(b, c, seed=h, epoch=w, batch_index=0,
                             layer_index=1)
    x = T.parameter(x4.reshape(shape))
    with T.Tape() as tape:
        out = compensate(x, (c, h, w), draw)
    (gx,) = tape.nodes[0].backward(g4.reshape(shape))
    want_out, want_gx = channel_axis_perturb(
        x4.reshape(shape), *expect[:2], expect[3], expect[5],
        draw.eps_mean, draw.eps_std, g4.reshape(shape))
    assert out.shape == gx.shape == shape
    check(out.values, want_out)
    check(gx, want_gx)


def test_one_draw_repeats_two_draws_from_the_stream():
    """Both fields come from one call, in the order two calls gave."""
    rng = keyed_rng(4, STREAM_PERTURB, 1, 2, 3)
    eps_mean = rng.standard_normal((6, 5))
    eps_std = rng.standard_normal((6, 5))
    d = draw_perturbation(6, 5, seed=4, epoch=1, batch_index=2,
                          layer_index=3)
    assert d.eps_mean.tobytes() == eps_mean.tobytes()
    assert d.eps_std.tobytes() == eps_std.tobytes()
