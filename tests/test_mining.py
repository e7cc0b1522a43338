"""Triplet mining against an exhaustive pairwise-search oracle."""

import re
import tracemalloc

import numpy as np
import pytest

import uqtrain.mining as mining
import uqtrain.tensor as T
from uqtrain import training
from uqtrain.config import TrainConfig
from uqtrain.data import corrupt_labels, make_blobs, split_dataset
from uqtrain.errors import ContractError
from uqtrain.heads import UncertainBatch
from uqtrain.mining import (TripletPlan, mine_triplets,
                            pairwise_cosine_distances)
from uqtrain.rng import STREAM_MINE, keyed_rng

EPS_NORM = 1e-12


def batch_of(mu, labels):
    mu = np.asarray(mu, dtype=np.float64)
    return UncertainBatch(mean=T.constant(mu),
                          sigma=T.constant(np.ones_like(mu)),
                          labels=np.asarray(labels, dtype=np.int64))


def oracle_distance(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return 1.0 - float(a @ b) / (na * nb + EPS_NORM)


def elementwise_distances(mu, rows=None):
    """The cosine distance formula before the matrix product: each dot
    product reduced element by element over a (rows, B, d) product."""
    rows = np.arange(len(mu)) if rows is None else rows
    norms = np.sqrt(np.sum(mu ** 2, axis=1))
    dots = np.sum(mu[rows][:, None, :] * mu[None, :, :], axis=2)
    return 1.0 - dots / (np.outer(norms[rows], norms) + EPS_NORM)


def oracle_plan(mu, labels):
    """Exhaustive O(B^2) search: hardest positive, nearest negative."""
    b = len(labels)
    pos = np.arange(b)
    neg = np.arange(b)
    valid = np.ones(b, dtype=bool)
    for i in range(b):
        best_pos, best_pos_d = -1, -np.inf
        best_neg, best_neg_d = -1, np.inf
        for j in range(b):
            if j == i:
                continue
            d = oracle_distance(mu[i], mu[j])
            if labels[j] == labels[i] and d > best_pos_d:
                best_pos, best_pos_d = j, d
            if labels[j] != labels[i] and d < best_neg_d:
                best_neg, best_neg_d = j, d
        if best_pos < 0 or best_neg < 0:
            valid[i] = False
        pos[i] = best_pos if best_pos >= 0 else i
        neg[i] = best_neg if best_neg >= 0 else i
    return pos, neg, valid


def test_cosine_distance_closed_forms():
    a = np.array([1.0, 2.0, -3.0])
    d = pairwise_cosine_distances(np.stack([a, a, -a]))
    assert d[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert d[0, 2] == pytest.approx(2.0, abs=1e-9)
    d = pairwise_cosine_distances(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert d[0, 1] == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-9)
    np.testing.assert_array_equal(d, d.T)


def test_cosine_distance_zero_vector_is_one():
    d = pairwise_cosine_distances(np.array([[0.0, 0.0, 0.0],
                                            [1.0, 0.0, 0.0]]))
    assert d[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert d[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_two_samples_same_label_degrade():
    u = batch_of([[1.0, 0.0], [0.0, 1.0]], [0, 0])
    plan = mine_triplets(u, 1.0, seed=0, epoch=0, batch_index=0)
    np.testing.assert_array_equal(plan.pos_index, [1, 0])
    assert not plan.valid_mask.any()


def test_planar_angle_example():
    angles = np.deg2rad([0.0, 10.0, 20.0, 90.0])
    mu = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    u = batch_of(mu, [0, 0, 1, 1])
    plan = mine_triplets(u, 1.0, seed=0, epoch=0, batch_index=0)
    # positives are the forced same-label partners; negatives are the
    # angle-nearest sample of the other class (for the 90 degree anchor
    # that is the 10 degree sample, 80 degrees away)
    np.testing.assert_array_equal(plan.pos_index, [1, 0, 3, 2])
    np.testing.assert_array_equal(plan.neg_index, [2, 2, 1, 1])
    assert plan.valid_mask.all()
    pos, neg, valid = oracle_plan(mu, np.array([0, 0, 1, 1]))
    np.testing.assert_array_equal(plan.pos_index, pos)
    np.testing.assert_array_equal(plan.neg_index, neg)
    assert valid.all()


def test_full_mining_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(50):
        b = int(rng.integers(2, 65))
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        mu = rng.standard_normal((b, d))
        labels = rng.integers(0, k, size=b)
        if rng.random() < 0.3 and b >= 4:
            # duplicated embeddings force distance ties
            mu[1] = mu[0]
            mu[3] = mu[2]
        u = batch_of(mu, labels)
        plan = mine_triplets(u, 1.0, seed=trial, epoch=0, batch_index=0)
        pos, neg, valid = oracle_plan(mu, labels)
        np.testing.assert_array_equal(plan.pos_index, pos)
        np.testing.assert_array_equal(plan.neg_index, neg)
        np.testing.assert_array_equal(plan.valid_mask, valid)


def test_scale_invariance_of_mined_indices():
    rng = np.random.default_rng(1)
    mu = rng.standard_normal((16, 4))
    labels = rng.integers(0, 3, size=16)
    base = mine_triplets(batch_of(mu, labels), 1.0, 0, 0, 0)
    for c in (0.1, 10.0):
        scaled = mine_triplets(batch_of(c * mu, labels), 1.0, 0, 0, 0)
        np.testing.assert_array_equal(base.pos_index, scaled.pos_index)
        np.testing.assert_array_equal(base.neg_index, scaled.neg_index)


def test_mined_subset_size_is_floor_of_fraction():
    rng = np.random.default_rng(2)
    mu = rng.standard_normal((10, 3))
    labels = np.array([0, 1] * 5)
    for p, count in [(0.0, 0), (0.37, 3), (0.5, 5), (1.0, 10)]:
        plan = mine_triplets(batch_of(mu, labels), p, 0, 0, 0)
        assert plan.mined_mask.sum() == count


def test_plan_is_deterministic_per_key():
    rng = np.random.default_rng(3)
    mu = rng.standard_normal((12, 4))
    labels = rng.integers(0, 3, size=12)
    u = batch_of(mu, labels)
    a = mine_triplets(u, 0.5, seed=7, epoch=2, batch_index=5)
    b = mine_triplets(u, 0.5, seed=7, epoch=2, batch_index=5)
    np.testing.assert_array_equal(a.pos_index, b.pos_index)
    np.testing.assert_array_equal(a.neg_index, b.neg_index)
    np.testing.assert_array_equal(a.mined_mask, b.mined_mask)
    c = mine_triplets(u, 0.5, seed=7, epoch=3, batch_index=5)
    assert (not np.array_equal(a.mined_mask, c.mined_mask)
            or not np.array_equal(a.pos_index, c.pos_index))


def test_random_partners_respect_labels():
    rng = np.random.default_rng(4)
    mu = rng.standard_normal((24, 4))
    labels = np.array([0, 1, 2] * 8)
    plan = mine_triplets(batch_of(mu, labels), 0.0, 0, 0, 0)
    for i in range(24):
        assert plan.pos_index[i] != i
        assert labels[plan.pos_index[i]] == labels[i]
        assert labels[plan.neg_index[i]] != labels[i]
    assert plan.valid_mask.all()
    assert not plan.mined_mask.any()


def test_mined_entries_are_extremal():
    rng = np.random.default_rng(5)
    mu = rng.standard_normal((20, 5))
    labels = rng.integers(0, 4, size=20)
    plan = mine_triplets(batch_of(mu, labels), 1.0, 0, 0, 0)
    for i in np.flatnonzero(plan.valid_mask):
        dp = oracle_distance(mu[i], mu[plan.pos_index[i]])
        dn = oracle_distance(mu[i], mu[plan.neg_index[i]])
        for j in range(20):
            if j == i:
                continue
            d = oracle_distance(mu[i], mu[j])
            if labels[j] == labels[i]:
                assert dp >= d - 1e-12
            else:
                assert dn <= d + 1e-12


def test_contract_errors():
    u = batch_of([[1.0, 0.0]], [0])
    with pytest.raises(ContractError,
                       match="mining needs at least 2 samples, got 1"):
        mine_triplets(u, 1.0, 0, 0, 0)
    u2 = batch_of([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ContractError):
        mine_triplets(u2, 1.5, 0, 0, 0)
    # the embedding's shape is checked before its rows are counted
    for mean in (np.float64(1.0), np.zeros((2, 0))):
        u3 = UncertainBatch(mean=T.constant(mean), sigma=T.constant(mean),
                            labels=np.array([0, 1]))
        with pytest.raises(ContractError,
                           match="need a 2-d embedding matrix with at least "
                                 "one column, got " + re.escape(
                                     str(np.shape(mean)))):
            mine_triplets(u3, 1.0, 0, 0, 0)


def reference_plan(u, p, seed, epoch, batch_index):
    """The per-row loop mine_triplets replaced: full distance matrix, one
    flatnonzero and one draw per side and row.  Kept as the bitwise
    reference for partner choice and draw order."""
    mu = u.mean.values
    labels = u.labels
    b = mu.shape[0]
    dist = pairwise_cosine_distances(mu)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(b, dtype=bool)
    rng = keyed_rng(seed, STREAM_MINE, epoch, batch_index)
    mined_mask = np.zeros(b, dtype=bool)
    mined_mask[rng.choice(b, size=int(np.floor(p * b)), replace=False)] = True
    pos_index = np.arange(b, dtype=np.int64)
    neg_index = np.arange(b, dtype=np.int64)
    valid_mask = np.ones(b, dtype=bool)
    for i in range(b):
        pos_cands = np.flatnonzero(same[i] & ~eye[i])
        neg_cands = np.flatnonzero(~same[i])
        if pos_cands.size == 0 or neg_cands.size == 0:
            valid_mask[i] = False
        if pos_cands.size:
            if mined_mask[i]:
                pos_index[i] = pos_cands[np.argmax(dist[i, pos_cands])]
            else:
                pos_index[i] = pos_cands[rng.integers(pos_cands.size)]
        if neg_cands.size:
            if mined_mask[i]:
                neg_index[i] = neg_cands[np.argmin(dist[i, neg_cands])]
            else:
                neg_index[i] = neg_cands[rng.integers(neg_cands.size)]
    return TripletPlan(pos_index=pos_index, neg_index=neg_index,
                       mined_mask=mined_mask, valid_mask=valid_mask)


def random_batch(rng):
    """Sizes 2..200, widths 1..70, 1..5 classes, with duplicated rows and
    an all-zero row mixed in; half the batches name their classes by
    gapped values whose order differs from the class numbering."""
    b = int(rng.integers(2, 201))
    d = int(rng.integers(1, 71))
    k = int(rng.integers(1, 6))
    mu = rng.standard_normal((b, d)) * 10.0 ** rng.integers(-3, 4)
    labels = rng.integers(0, k, size=b)
    if rng.random() < 0.5:
        for _ in range(int(rng.integers(1, 4))):
            mu[rng.integers(b)] = mu[rng.integers(b)]
    if rng.random() < 0.3:
        mu[rng.integers(b)] = 0.0
    if rng.random() < 0.5:
        labels = np.array([1000, 3, 17, 250, 8])[labels]
    return mu, labels


def test_plans_match_per_row_reference_bitwise():
    rng = np.random.default_rng(11)
    fractions = [0.0, 0.2, 0.5, 1.0, None]
    singles = singletons = 0
    for trial in range(320):
        mu, labels = random_batch(rng)
        p = fractions[trial % 5]
        p = float(rng.random()) if p is None else p
        u = batch_of(mu, labels)
        got = mine_triplets(u, p, seed=trial, epoch=3, batch_index=trial % 7)
        want = reference_plan(u, p, seed=trial, epoch=3,
                              batch_index=trial % 7)
        for name in ("pos_index", "neg_index", "mined_mask", "valid_mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, (trial, name)
            np.testing.assert_array_equal(a, b, err_msg=f"{trial} {name}")
        counts = np.bincount(labels)
        singles += len(np.unique(labels)) == 1
        singletons += bool(np.any(counts == 1))
    # the draw covered the degenerate label layouts
    assert singles > 0 and singletons > 0


def assert_duplicates_tie(dist, groups):
    """Every query row holds bitwise-equal distances to the rows of each
    group of identical embeddings."""
    for group in groups:
        assert len({dist[:, j].tobytes() for j in group}) == 1


def test_subset_distances_match_elementwise_formula():
    """Any query subset agrees with the elementwise formula to rounding,
    and duplicated rows share their column bit for bit."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        mu, _ = random_batch(rng)
        rows = np.flatnonzero(rng.random(len(mu)) < 0.3)
        _, inverse = np.unique(mu, axis=0, return_inverse=True)
        groups = [np.flatnonzero(inverse.ravel() == g)
                  for g in range(inverse.max() + 1)]
        for query in (None, rows):
            got = pairwise_cosine_distances(mu, query)
            want = elementwise_distances(mu, query)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            assert_duplicates_tie(got, [g for g in groups if len(g) > 1])


def test_distances_of_a_large_batch_stay_in_bounded_memory():
    """At B = 2000, d = 64 and a fifth of the rows mined, one (rows, B, d)
    product would take 390 MiB; the matrix product stays under 32 MiB,
    agrees with the elementwise formula to rounding, and gives
    duplicated rows one column."""
    rng = np.random.default_rng(21)
    mu = rng.standard_normal((2000, 64))
    mu[[5, 900, 1999]] = mu[17]
    rows = np.sort(rng.choice(2000, size=400, replace=False))
    rows[:2] = (5, 17)
    tracemalloc.start()
    try:
        got = pairwise_cosine_distances(mu, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20
    np.testing.assert_allclose(got, elementwise_distances(mu, rows),
                               rtol=0, atol=1e-14)
    assert_duplicates_tie(got, [[5, 17, 900, 1999]])


def test_duplicates_tie_by_index_in_a_large_batch():
    """Rows 0, 999 and 1999 hold one embedding, row 1999 with -0.0 where
    the others hold +0.0.  Their columns are bitwise equal, so a mined
    row that picks one of them picks row 0."""
    rng = np.random.default_rng(22)
    v = rng.standard_normal(64)
    v[7] = 0.0
    mu = rng.standard_normal((2000, 64))
    labels = rng.integers(2, 4, size=2000)
    # class 1 sits next to v, so v is each one's nearest negative; the
    # rest of class 0 sits opposite v, so v is each one's farthest
    # positive
    near, far = np.arange(1, 400), np.arange(400, 800)
    mu[near] = v + 1e-3 * rng.standard_normal((near.size, 64))
    mu[far] = -v + 1e-3 * rng.standard_normal((far.size, 64))
    labels[near], labels[far] = 1, 0
    mu[[0, 999, 1999]] = v
    mu[1999, 7] = -0.0
    labels[[0, 999, 1999]] = 0
    assert mu[0].tobytes() != mu[1999].tobytes()
    dist = pairwise_cosine_distances(mu, np.arange(0, 2000, 7))
    assert_duplicates_tie(dist, [[0, 999, 1999]])
    plan = mine_triplets(batch_of(mu, labels), 0.2, 0, 0, 0)
    mined_near = near[plan.mined_mask[near]]
    mined_far = far[plan.mined_mask[far]]
    assert mined_near.size and mined_far.size
    assert (plan.neg_index[mined_near] == 0).all()
    assert (plan.pos_index[mined_far] == 0).all()


def test_training_plans_match_plans_from_elementwise_distances(
        monkeypatch):
    """Shadow every batch of a 3-epoch full-method fit on benchmark-shaped
    data (4 classes, 10 features, 2000 train rows, 30% flipped labels,
    batch 128): the plan mined from the matrix-product distances equals
    the plan mined from the elementwise formula."""
    pool = make_blobs(4, 10, 3000, 1.0, seed=5)
    train, test = split_dataset(pool, 2000)
    train = corrupt_labels(train, 0.3, 5)
    cfg = TrainConfig(seed=5, epochs=3, batch_size=128)
    real = training.mine_triplets
    mined = []

    def shadow(u, *args):
        got = real(u, *args)
        with monkeypatch.context() as m:
            m.setattr(mining, "pairwise_cosine_distances",
                      elementwise_distances)
            want = real(u, *args)
        for name in ("pos_index", "neg_index", "mined_mask", "valid_mask"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)
        mined.append(int(got.mined_mask.sum()))
        return got

    monkeypatch.setattr(training, "mine_triplets", shadow)
    training.run_experiment(cfg, train, test)
    assert len(mined) == 3 * 16 and sum(mined) > 0


def test_distances_go_through_the_module_for_mined_rows_only(monkeypatch):
    """The distance layer is looked up on the module at call time (a
    wrapper installed there sees every call), once per mined batch, with
    exactly the mined rows, and never when floor(p * B) is zero."""
    calls = []
    real = mining.pairwise_cosine_distances

    def spy(mu, rows=None):
        calls.append(None if rows is None else np.array(rows))
        return real(mu, rows)

    monkeypatch.setattr(mining, "pairwise_cosine_distances", spy)
    rng = np.random.default_rng(13)
    mu = rng.standard_normal((20, 4))
    labels = rng.integers(0, 3, size=20)
    plan = mine_triplets(batch_of(mu, labels), 0.25, 0, 0, 0)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0],
                                  np.flatnonzero(plan.mined_mask))
    assert len(calls[0]) == 5
    calls.clear()
    for p in (0.0, 0.04):
        mine_triplets(batch_of(mu, labels), p, 0, 0, 0)
    assert calls == []
