"""Feature statistics against brute-force loop oracles."""

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain.errors import ContractError
from uqtrain.stats import layer_stats


def loop_instance_stats(feat):
    """Nested-loop re-derivation of the per-instance channel statistics."""
    b, c, h, w = feat.shape
    u = np.zeros((b, c))
    s = np.zeros((b, c))
    for bi in range(b):
        for ci in range(c):
            vals = []
            for hi in range(h):
                for wi in range(w):
                    vals.append(feat[bi, ci, hi, wi])
            vals = np.array(vals)
            u[bi, ci] = vals.mean()
            s[bi, ci] = np.sqrt(((vals - vals.mean()) ** 2).mean())
    return u, s


def loop_batch_stats(u, s):
    b, c = u.shape
    mu = np.zeros(c)
    sig_mu = np.zeros(c)
    sig = np.zeros(c)
    sig_sig = np.zeros(c)
    for ci in range(c):
        col_u = np.array([u[bi, ci] for bi in range(b)])
        col_s = np.array([s[bi, ci] for bi in range(b)])
        mu[ci] = col_u.mean()
        sig_mu[ci] = np.sqrt(((col_u - col_u.mean()) ** 2).mean())
        sig[ci] = col_s.mean()
        sig_sig[ci] = np.sqrt(((col_s - col_s.mean()) ** 2).mean())
    return mu, sig_mu, sig, sig_sig


def map_with_stats(u, s):
    """A (B, C, 1, 2) map whose instance means are u and whose population
    stds are s: each map holds the two points u - s and u + s."""
    return u[:, :, None, None] + s[:, :, None, None] * np.array([-1.0, 1.0])


def test_constant_map_has_zero_spread():
    feat = np.full((2, 3, 2, 2), 5.0)
    st = layer_stats(feat)
    u, s = st.instance_mean, st.instance_std
    np.testing.assert_allclose(u, np.full((2, 3), 5.0), atol=1e-12)
    np.testing.assert_allclose(s, np.zeros((2, 3)), atol=1e-6)


def test_two_point_population_std():
    feat = np.array([0.0, 2.0] * 2).reshape(2, 1, 1, 2)
    st = layer_stats(feat)
    u, s = st.instance_mean, st.instance_std
    assert u[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert s[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_instance_stats_match_loop_oracle():
    rng = np.random.default_rng(0)
    feat = rng.standard_normal((4, 3, 2, 2))
    st = layer_stats(feat)
    u, s = st.instance_mean, st.instance_std
    lu, ls = loop_instance_stats(feat)
    np.testing.assert_allclose(u, lu, atol=1e-12)
    np.testing.assert_allclose(s, ls, atol=1e-12)


def test_batch_stats_identical_rows_zero_spread():
    row = np.array([1.0, -2.0, 3.0])
    u = np.tile(row, (4, 1))
    st = layer_stats(map_with_stats(u, np.abs(u)))
    mu, sig_mu = st.mean_of_means, st.std_of_means
    np.testing.assert_allclose(mu, row, atol=1e-12)
    np.testing.assert_allclose(sig_mu, np.zeros(3), atol=1e-6)


def test_batch_stats_two_point_column():
    u = np.array([[0.0], [2.0]])
    st = layer_stats(map_with_stats(u, np.zeros_like(u)))
    mu, sig_mu = st.mean_of_means, st.std_of_means
    assert mu.item() == pytest.approx(1.0, abs=1e-12)
    assert sig_mu.item() == pytest.approx(1.0, abs=1e-9)


def test_batch_stats_match_loop_oracle():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((8, 5))
    s = np.abs(rng.standard_normal((8, 5)))
    st = layer_stats(map_with_stats(u, s))
    mu, sig_mu = st.mean_of_means, st.std_of_means
    sig, sig_sig = st.mean_of_stds, st.std_of_stds
    # the oracle aggregates the instance statistics layer_stats produced
    lmu, lsig_mu, lsig, lsig_sig = loop_batch_stats(
        st.instance_mean, st.instance_std)
    np.testing.assert_allclose(mu, lmu, atol=1e-12)
    np.testing.assert_allclose(sig_mu, lsig_mu, atol=1e-12)
    np.testing.assert_allclose(sig, lsig, atol=1e-12)
    np.testing.assert_allclose(sig_sig, lsig_sig, atol=1e-12)


def test_composed_pipeline_matches_single_brute_force_pass():
    rng = np.random.default_rng(2)
    feats = []
    for _ in range(20):
        b = int(rng.integers(2, 9))
        c = int(rng.integers(1, 5))
        h = int(rng.integers(1, 4))
        w = int(rng.integers(2, 4))
        feats.append(rng.standard_normal((b, c, h, w)) * 3.0)
    # an integer-valued map is read as float64
    feats.append(rng.integers(-5, 6, (4, 3, 2, 3)))
    for feat in feats:
        st = layer_stats(feat)
        for name, value in vars(st).items():
            assert type(value) is np.ndarray, name
            assert value.dtype == np.float64, name
        lu, ls = loop_instance_stats(feat)
        lmu, lsig_mu, lsig, lsig_sig = loop_batch_stats(lu, ls)
        np.testing.assert_allclose(st.instance_mean, lu, atol=1e-10)
        np.testing.assert_allclose(st.instance_std, ls, atol=1e-10)
        np.testing.assert_allclose(st.mean_of_means, lmu, atol=1e-10)
        np.testing.assert_allclose(st.std_of_means, lsig_mu, atol=1e-10)
        np.testing.assert_allclose(st.mean_of_stds, lsig, atol=1e-10)
        np.testing.assert_allclose(st.std_of_stds, lsig_sig, atol=1e-10)


def test_batch_permutation_leaves_aggregates_unchanged():
    rng = np.random.default_rng(3)
    feat = rng.standard_normal((6, 4, 3, 3))
    perm = rng.permutation(6)
    a = layer_stats(feat)
    b = layer_stats(feat[perm])
    np.testing.assert_allclose(a.mean_of_means, b.mean_of_means, atol=1e-12)
    np.testing.assert_allclose(a.std_of_stds, b.std_of_stds, atol=1e-12)
    np.testing.assert_allclose(a.instance_mean[perm],
                               b.instance_mean, atol=1e-12)


def test_constant_shift_moves_means_only():
    rng = np.random.default_rng(4)
    feat = rng.standard_normal((5, 3, 2, 2))
    a = layer_stats(feat)
    b = layer_stats(feat + 7.0)
    np.testing.assert_allclose(b.instance_mean,
                               a.instance_mean + 7.0, atol=1e-12)
    np.testing.assert_allclose(b.mean_of_means,
                               a.mean_of_means + 7.0, atol=1e-12)
    np.testing.assert_allclose(b.instance_std, a.instance_std, atol=1e-9)
    np.testing.assert_allclose(b.std_of_means, a.std_of_means, atol=1e-9)
    np.testing.assert_allclose(b.mean_of_stds, a.mean_of_stds, atol=1e-9)


def test_single_pixel_map_rejected():
    with pytest.raises(ContractError,
                       match="spatial std needs at least 2 positions, map "
                             "is 1x1"):
        layer_stats(np.ones((2, 3, 1, 1)))


def test_single_sample_batch_rejected():
    with pytest.raises(ContractError,
                       match="batch statistics need at least 2 samples"):
        layer_stats(np.ones((1, 3, 2, 2)))


def test_stats_are_constants_even_for_a_parameter_map():
    rng = np.random.default_rng(5)
    feat = T.parameter(rng.standard_normal((3, 2, 2, 2)))
    with T.Tape() as tape:
        st = layer_stats(feat.values)
    assert tape.nodes == []
    assert not any(isinstance(v, T.DiffArray) for v in vars(st).values())
