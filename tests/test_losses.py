"""Mixup algebra and the closed-form loss identities."""

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain.errors import ContractError, LabelError, ShapeError
from uqtrain.heads import UncertainBatch
from uqtrain.losses import ce_loss, mixup, total_loss, triplet_loss
from uqtrain.mining import TripletPlan, mine_triplets


def batch_of(mu, sigma, labels):
    return UncertainBatch(mean=T.constant(np.asarray(mu, dtype=np.float64)),
                          sigma=T.constant(np.asarray(sigma,
                                                      dtype=np.float64)),
                          labels=np.asarray(labels, dtype=np.int64))


def all_valid_plan(pos, neg):
    pos = np.asarray(pos, dtype=np.int64)
    return TripletPlan(pos_index=pos,
                       neg_index=np.asarray(neg, dtype=np.int64),
                       mined_mask=np.ones(len(pos), dtype=bool),
                       valid_mask=np.ones(len(pos), dtype=bool))


def random_batch(rng, b=8, d=5, k=3):
    mu = rng.standard_normal((b, d))
    sigma = np.abs(rng.standard_normal((b, d))) + 0.1
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=b - k)])
    u = batch_of(mu, sigma, labels)
    plan = mine_triplets(u, 1.0, seed=0, epoch=0, batch_index=0)
    return u, plan


def test_symmetric_sigma_gives_exact_thirds():
    sigma = np.full((4, 3), 0.7)
    mu = np.arange(12.0).reshape(4, 3)
    u = batch_of(mu, sigma, [0, 0, 1, 1])
    plan = all_valid_plan([1, 0, 3, 2], [2, 3, 0, 1])
    mixed = mixup(u, plan)
    np.testing.assert_allclose(mixed.w_self.values, 1.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(mixed.w_pos.values, 1.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(mixed.w_neg.values, 1.0 / 3.0, atol=1e-12)
    expect = (mu + mu[[1, 0, 3, 2]] + mu[[2, 3, 0, 1]]) / 3.0
    np.testing.assert_allclose(mixed.features.values, expect, atol=1e-12)


def test_floor_sigma_partners_vanish_from_blend():
    mu = np.array([[0.5, -0.5], [1.0, 0.3], [-0.5, 0.2]])
    sigma = np.full((3, 2), 1e-6)
    sigma[0] = 1.0
    u = batch_of(mu, sigma, [0, 0, 1])
    plan = all_valid_plan([1, 0, 0], [2, 2, 1])
    mixed = mixup(u, plan)
    np.testing.assert_allclose(mixed.w_self.values[0], 1.0, atol=3e-6)
    np.testing.assert_allclose(mixed.features.values[0], mu[0], atol=2e-6)


def test_weight_rows_sum_to_one_and_envelope_holds():
    rng = np.random.default_rng(0)
    u, plan = random_batch(rng)
    mixed = mixup(u, plan)
    total = (mixed.w_self.values + mixed.w_pos.values + mixed.w_neg.values)
    valid = plan.valid_mask
    np.testing.assert_allclose(total[valid], 1.0, atol=1e-9)

    mu = u.mean.values
    lo = np.minimum(np.minimum(mu, mu[plan.pos_index]), mu[plan.neg_index])
    hi = np.maximum(np.maximum(mu, mu[plan.pos_index]), mu[plan.neg_index])
    f = mixed.features.values
    assert np.all(f[valid] >= lo[valid] - 1e-12)
    assert np.all(f[valid] <= hi[valid] + 1e-12)


def test_mixup_matches_scalar_reference():
    rng = np.random.default_rng(1)
    u, plan = random_batch(rng)
    mixed = mixup(u, plan)
    mu, sigma = u.mean.values, u.sigma.values
    for i in range(len(plan.pos_index)):
        if not plan.valid_mask[i]:
            continue
        for j in range(mu.shape[1]):
            sp = sigma[plan.pos_index[i], j]
            sn = sigma[plan.neg_index[i], j]
            den = sigma[i, j] + sp + sn
            expect = (sigma[i, j] * mu[i, j]
                      + sp * mu[plan.pos_index[i], j]
                      + sn * mu[plan.neg_index[i], j]) / den
            assert mixed.features.values[i, j] == pytest.approx(expect,
                                                                abs=1e-12)


def test_invalid_rows_degrade_to_identity():
    rng = np.random.default_rng(2)
    mu = rng.standard_normal((4, 3))
    u = batch_of(mu, np.abs(mu) + 0.5, [0, 0, 0, 0])
    plan = TripletPlan(pos_index=np.array([1, 0, 3, 2]),
                       neg_index=np.array([0, 0, 0, 0]),
                       mined_mask=np.zeros(4, dtype=bool),
                       valid_mask=np.zeros(4, dtype=bool))
    mixed = mixup(u, plan)
    np.testing.assert_allclose(mixed.features.values, mu, atol=1e-12)
    np.testing.assert_allclose(mixed.w_self.values, 1.0, atol=1e-12)
    np.testing.assert_allclose(mixed.w_pos.values, 0.0, atol=1e-12)


def test_no_plan_is_identity_blend():
    rng = np.random.default_rng(3)
    mu = rng.standard_normal((4, 3))
    u = batch_of(mu, np.abs(mu) + 0.5, [0, 1, 0, 1])
    mixed = mixup(u, None)
    np.testing.assert_array_equal(mixed.features.values, mu)


def eager_weights(sigma, plan, include_pos, include_neg):
    """(w_self, w_pos, w_neg) as mixup used to build them on every call:
    k * w_self + 1 - k and k * w_p for the row mask k, zeros for a branch
    that is off, ones and zeros without a plan."""
    zeros = np.zeros(sigma.shape)
    if plan is None or not (include_pos or include_neg):
        return np.ones(sigma.shape), zeros, zeros
    on = [(name, p) for name, p, use in (("pos", plan.pos_index, include_pos),
                                         ("neg", plan.neg_index, include_neg))
          if use]
    denom = sum((sigma[p] for _, p in on), sigma)
    k = np.asarray(plan.valid_mask, dtype=np.float64)[:, None]
    w = {name: k * (sigma[p] / denom) for name, p in on}
    return (k * (sigma / denom) + (1.0 - k), w.get("pos", zeros),
            w.get("neg", zeros))


@pytest.mark.parametrize("include_pos, include_neg, planned",
                         [(True, True, True), (True, False, True),
                          (False, True, True), (False, False, True),
                          (True, True, False)])
def test_weights_built_on_read_equal_the_eager_formula(include_pos,
                                                       include_neg, planned):
    rng = np.random.default_rng(8)
    u, plan = random_batch(rng, b=12, d=4)
    plan.valid_mask = plan.valid_mask & (np.arange(12) % 3 != 0)
    plan = plan if planned else None
    mixed = mixup(u, plan, include_pos=include_pos, include_neg=include_neg)
    want = eager_weights(u.sigma.values, plan, include_pos, include_neg)
    got = (mixed.w_self, mixed.w_pos, mixed.w_neg)
    for name, w, g in zip(("w_self", "w_pos", "w_neg"), want, got):
        assert not g.requires_grad, name
        assert g.values.tobytes() == w.tobytes(), name
    # a second read returns the same constants
    assert mixed.w_self is got[0] and mixed.w_neg is got[2]


def test_uniform_logits_ce_is_three_log_c():
    k = 7
    b = 5
    mixed = T.constant(np.random.default_rng(4).standard_normal((b, 4)))
    classifier = T.constant(np.zeros((k, 4)))
    labels = np.array([0, 1, 2, 3, 4])
    plan = all_valid_plan(np.roll(np.arange(b), 1), np.roll(np.arange(b), 2))
    loss = ce_loss(mixed, classifier, labels, plan)
    assert float(loss.values) == pytest.approx(3.0 * np.log(k), abs=1e-9)
    assert float(loss.values) == pytest.approx(5.8377, abs=1e-4)


def test_single_sample_two_class_uniform_case():
    mixed = T.constant(np.array([[3.0, -1.0]]))
    classifier = T.constant(np.array([[1.0, 0.5], [1.0, 0.5]]))
    plan = all_valid_plan([0], [0])
    loss = ce_loss(mixed, classifier, np.array([0]), plan)
    assert float(loss.values) == pytest.approx(3.0 * np.log(2.0), abs=1e-9)


def test_ce_matches_naive_per_sample_oracle():
    rng = np.random.default_rng(5)
    b, d, k = 6, 4, 3
    feats = rng.standard_normal((b, d))
    w = rng.standard_normal((k, d))
    labels = rng.integers(0, k, size=b)
    pos = np.array([(i + 2) % b for i in range(b)])
    neg = np.array([(i + 3) % b for i in range(b)])
    plan = all_valid_plan(pos, neg)
    loss = ce_loss(T.constant(feats), T.constant(w), labels, plan)

    total = 0.0
    for i in range(b):
        z = w @ feats[i]
        logp = z - np.log(np.exp(z - z.max()).sum()) - z.max()
        total -= (logp[labels[i]] + logp[labels[pos[i]]]
                  + logp[labels[neg[i]]])
    assert float(loss.values) == pytest.approx(total / b, abs=1e-10)


def test_three_term_form_equals_reduced_form():
    rng = np.random.default_rng(6)
    b, d, k = 4, 4, 3
    feats = rng.standard_normal((b, d))
    w = rng.standard_normal((k, d))
    labels = np.array([0, 0, 1, 1])
    pos = np.array([1, 0, 3, 2])       # same label as the anchor
    neg = np.array([2, 3, 0, 1])       # different label
    plan = all_valid_plan(pos, neg)
    loss = ce_loss(T.constant(feats), T.constant(w), labels, plan)

    z = feats @ w.T
    zmax = z.max(axis=1, keepdims=True)
    logp = z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    reduced = -(2.0 * logp[np.arange(b), labels]
                + logp[np.arange(b), labels[neg]]).mean()
    assert float(loss.values) == pytest.approx(reduced, abs=1e-12)


def test_invalid_rows_contribute_only_own_label():
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((3, 4))
    w = rng.standard_normal((2, 4))
    labels = np.array([0, 1, 0])
    plan = TripletPlan(pos_index=np.array([1, 0, 0]),
                       neg_index=np.array([1, 0, 1]),
                       mined_mask=np.zeros(3, dtype=bool),
                       valid_mask=np.zeros(3, dtype=bool))
    loss = ce_loss(T.constant(feats), T.constant(w), labels, plan)
    plain = ce_loss(T.constant(feats), T.constant(w), labels, None)
    assert float(loss.values) == pytest.approx(float(plain.values),
                                               abs=1e-12)


def test_ce_rejects_bad_labels():
    feats = T.constant(np.zeros((2, 3)))
    w = T.constant(np.zeros((2, 3)))
    with pytest.raises(LabelError):
        ce_loss(feats, w, np.array([0, 5]), None)


def test_degenerate_equality_triplet_is_margin_per_valid_row():
    mu = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    u = batch_of(mu, np.ones_like(mu), [0, 0, 1, 1])
    plan = all_valid_plan([1, 0, 3, 2], [2, 3, 0, 1])
    loss = triplet_loss(u, plan, margin=1.0)
    assert float(loss.values) == 4.0
    plan.valid_mask[2:] = False
    loss = triplet_loss(u, plan, margin=0.25)
    assert float(loss.values) == 0.5


def test_satisfied_margin_gives_zero():
    mu = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    u = batch_of(mu, np.ones_like(mu), [0, 0, 1, 1])
    plan = all_valid_plan([1, 0, 3, 2], [2, 2, 1, 1])
    assert float(triplet_loss(u, plan, margin=1.0).values) == 0.0


def test_triplet_matches_scalar_reference():
    rng = np.random.default_rng(8)
    u, plan = random_batch(rng)
    loss = triplet_loss(u, plan, margin=1.0)
    mu = u.mean.values
    total = 0.0
    for i in np.flatnonzero(plan.valid_mask):
        dp = np.sum((mu[i] - mu[plan.pos_index[i]]) ** 2)
        dn = np.sum((mu[i] - mu[plan.neg_index[i]]) ** 2)
        total += max(dp - dn + 1.0, 0.0)
    assert float(loss.values) == pytest.approx(total, abs=1e-10)


def test_triplet_translation_invariance():
    rng = np.random.default_rng(9)
    u, plan = random_batch(rng)
    shifted = batch_of(u.mean.values + 3.7, u.sigma.values, u.labels)
    a = float(triplet_loss(u, plan, 1.0).values)
    b = float(triplet_loss(shifted, plan, 1.0).values)
    assert a == pytest.approx(b, abs=1e-9)


def test_total_loss_composition():
    ce = T.constant(np.array(2.0))
    tl = T.constant(np.array(100.0))
    out = total_loss(ce, tl, triplet_weight=0.003)
    assert float(out.total.values) == pytest.approx(2.3, abs=1e-12)
    off = total_loss(ce, tl, triplet_weight=0.0)
    assert float(off.total.values) == 2.0
    with pytest.raises(ContractError):
        total_loss(ce, tl, triplet_weight=-0.1)


def test_total_is_exactly_ce_plus_weighted_triplet():
    rng = np.random.default_rng(10)
    u, plan = random_batch(rng)
    mixed = mixup(u, plan)
    w = T.constant(rng.standard_normal((3, 5)))
    ce = ce_loss(mixed.features, w, u.labels, plan)
    tl = triplet_loss(u, plan, 1.0)
    out = total_loss(ce, tl, 0.003)
    assert float(out.total.values) == float(ce.values) \
        + 0.003 * float(tl.values)


@pytest.mark.parametrize("mask", [[True], [True, True],
                                  [[True]] * 4],
                         ids=["one-row", "two-rows", "2-d"])
def test_valid_mask_must_cover_the_batch(mask):
    """A valid_mask that is not (B,) would broadcast in the blend and the
    triplet term, and would drop partner labels in the cross entropy."""
    u, plan = random_batch(np.random.default_rng(8), b=4)
    plan.valid_mask = np.array(mask)
    with pytest.raises(ShapeError):
        mixup(u, plan)
    with pytest.raises(ShapeError):
        triplet_loss(u, plan, 1.0)
    with pytest.raises(ShapeError):
        ce_loss(u.mean, T.constant(np.ones((3, 5))), u.labels, plan)
