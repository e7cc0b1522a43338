"""Statistic perturbation layer: identity, zero-mean, and oracle checks."""

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain.compensation import (
    EPS_DIV,
    PerturbationDraw,
    compensate,
    draw_perturbation,
    forward_with_compensation,
)
from uqtrain.errors import ShapeError
from uqtrain.heads import build_vector_network
from uqtrain.stats import layer_stats

ALL = (1, 2)


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
    st = layer_stats(T.constant(feat))
    assert float(st.instance_std.values.min()) >= 0.1
    out = compensate(T.constant(feat), st, zero_draw(4, 3))
    assert np.max(np.abs(out.values - feat)) <= 1e-4


def test_constant_channel_collapses_to_jittered_mean():
    rng = np.random.default_rng(1)
    feat = rng.standard_normal((3, 2, 2, 2))
    feat[:, 1] = 4.0                      # one spatially constant channel
    st = layer_stats(T.constant(feat))
    draw = draw_perturbation(3, 2, seed=7, epoch=0,
                             batch_index=0, layer_index=1)
    out = compensate(T.constant(feat), st, draw).values
    expect = (st.instance_mean.values[:, 1]
              + draw.eps_mean[:, 1] * st.std_of_means.values[1])
    for h in range(2):
        for w in range(2):
            np.testing.assert_allclose(out[:, 1, h, w], expect, atol=1e-9)


def test_compensate_matches_scalar_reference():
    rng = np.random.default_rng(2)
    feat = random_feat(rng)
    st = layer_stats(T.constant(feat))
    draw = draw_perturbation(4, 3, seed=3, epoch=1,
                             batch_index=2, layer_index=1)
    out = compensate(T.constant(feat), st, draw).values

    u = st.instance_mean.values
    s = st.instance_std.values
    sig_mu = st.std_of_means.values
    sig_sig = st.std_of_stds.values
    expect = np.zeros_like(feat)
    for b in range(4):
        for c in range(3):
            scale = s[b, c] + draw.eps_std[b, c] * sig_sig[c]
            shift = u[b, c] + draw.eps_mean[b, c] * sig_mu[c]
            for h in range(4):
                for w in range(4):
                    norm = (feat[b, c, h, w] - u[b, c]) / (s[b, c] + EPS_DIV)
                    expect[b, c, h, w] = scale * norm + shift
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_perturbation_is_zero_mean_over_draws():
    rng = np.random.default_rng(3)
    feat = random_feat(rng, shape=(3, 2, 2, 2), min_spread=0.2)
    st = layer_stats(T.constant(feat))
    reference = compensate(T.constant(feat), st, zero_draw(3, 2)).values

    n_draws = 2000
    acc = np.zeros_like(feat)
    sq = np.zeros_like(feat)
    for i in range(n_draws):
        draw = draw_perturbation(3, 2, seed=11, epoch=0,
                                 batch_index=i, layer_index=1)
        out = compensate(T.constant(feat), st, draw).values
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
    out = compensate(T.constant(feat), layer_stats(T.constant(feat)),
                     draw).values
    permuted_draw = PerturbationDraw(eps_mean=draw.eps_mean[perm],
                                     eps_std=draw.eps_std[perm])
    out_perm = compensate(T.constant(feat[perm]),
                          layer_stats(T.constant(feat[perm])),
                          permuted_draw).values
    np.testing.assert_allclose(out[perm], out_perm, atol=1e-12)


def test_gradient_through_compensation_matches_fd():
    rng = np.random.default_rng(5)
    feat = T.parameter(random_feat(rng, shape=(3, 2, 2, 2)))
    draw = draw_perturbation(3, 2, seed=13, epoch=0,
                             batch_index=0, layer_index=1)
    weights = rng.standard_normal(feat.shape)

    def f(ars):
        out = compensate(ars[0], layer_stats(ars[0]), draw)
        return T.total_sum(T.mul(out, T.constant(weights)))

    assert T.check_gradients(f, [feat]) < 1e-4


def make_net():
    return build_vector_network(6, 3, embed_dim=8,
                                grids=((4, 2, 2), (4, 2, 2)), seed=0)


def test_disabled_layers_match_plain_forward():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 6))
    net = make_net()
    a = forward_with_compensation(T.constant(x), net, (), 0, 0, 0)
    b = forward_with_compensation(T.constant(x), net, (), 5, 3, 2)
    assert a.values.tobytes() == b.values.tobytes()


def test_eval_mode_is_plain_forward_bitwise():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 6))
    net = make_net()
    a = forward_with_compensation(T.constant(x), net, (), 0, 0, 0)

    h = T.constant(x)
    for block in net.blocks:
        h = T.relu(block.apply(h))
    h = T.reshape(h, (h.shape[0], int(np.prod(h.shape[1:]))))
    assert a.values.tobytes() == h.values.tobytes()


def test_single_enabled_layer_matches_manual_composition():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 6))
    net = make_net()
    out = forward_with_compensation(T.constant(x), net, (2,),
                                    seed=17, epoch=1, batch_index=4)

    h = T.constant(x)
    for k, block in enumerate(net.blocks, start=1):
        feat = block.apply(h)
        if k == 2:
            st = layer_stats(feat)
            draw = draw_perturbation(feat.shape[0], feat.shape[1],
                                     seed=17, epoch=1,
                                     batch_index=4, layer_index=2)
            feat = compensate(feat, st, draw)
        h = T.relu(feat)
    h = T.reshape(h, (h.shape[0], int(np.prod(h.shape[1:]))))
    np.testing.assert_array_equal(out.values, h.values)


def test_stats_shape_mismatch_rejected():
    rng = np.random.default_rng(11)
    feat = rng.standard_normal((4, 3, 2, 2))
    other = layer_stats(T.constant(rng.standard_normal((4, 5, 2, 2))))
    with pytest.raises(ShapeError):
        compensate(T.constant(feat), other, zero_draw(4, 5))
