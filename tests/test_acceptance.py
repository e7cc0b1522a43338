"""Acceptance gate: ten criteria, one printed verdict line each.

Criteria 7 to 9 share a module-scoped fixture that trains the full
method, the compensation-only variant, and the plain baseline on the
standard desk benchmark (4 classes, 10 features, 2000/1000 split, 30%
flipped train labels, 5 seeds) plus the clean counterpart.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain.cli import EXIT_OK
from uqtrain.cli import main as cli_main
from uqtrain.compensation import (PerturbationDraw, compensate,
                                  draw_perturbation)
from uqtrain.config import TrainConfig
from uqtrain.data import corrupt_labels, make_blobs, split_dataset
from uqtrain.gradcheck import run_gradcheck
from uqtrain.heads import UncertainBatch
from uqtrain.losses import ce_loss, mixup, total_loss, triplet_loss
from uqtrain.mining import TripletPlan, mine_triplets
from uqtrain.stats import layer_stats
from uqtrain.training import ABLATION_LADDER, run_experiment

RATES = (0.0, 0.1, 0.2, 0.3)


def announce(num: int, ok: bool, detail: str, emit=None) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if emit is not None:
        emit(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


def test_criterion_1_gradient_integrity(verdict):
    t0 = time.perf_counter()
    failures = run_gradcheck(n_seeds=20)
    dt = time.perf_counter() - t0
    ok = not failures and dt < 120.0
    line = announce(1, ok, emit=verdict, detail=f"20 seeds, {len(failures)} failures, "
                           f"{dt:.1f}s (budget 120s)")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 2: statistics against nested-loop oracles


def _loop_stats(x: np.ndarray):
    b, c, h, w = x.shape
    imean = np.zeros((b, c))
    istd = np.zeros((b, c))
    for i in range(b):
        for j in range(c):
            acc = 0.0
            for p in range(h):
                for q in range(w):
                    acc += x[i, j, p, q]
            m = acc / (h * w)
            var = 0.0
            for p in range(h):
                for q in range(w):
                    var += (x[i, j, p, q] - m) ** 2
            imean[i, j] = m
            istd[i, j] = np.sqrt(var / (h * w) + 1e-12)

    def along_batch(mat):
        mu = np.zeros(c)
        sd = np.zeros(c)
        for j in range(c):
            s = 0.0
            for i in range(b):
                s += mat[i, j]
            mu[j] = s / b
            v = 0.0
            for i in range(b):
                v += (mat[i, j] - mu[j]) ** 2
            sd[j] = np.sqrt(v / b + 1e-12)
        return mu, sd

    mm, sm = along_batch(imean)
    ms, ss = along_batch(istd)
    return imean, istd, mm, sm, ms, ss


def test_criterion_2_statistics_oracle(verdict):
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(200):
        b = int(rng.integers(2, 17))
        c = int(rng.integers(1, 9))
        h, w = 1, 1
        while h * w < 2:
            h = int(rng.integers(1, 5))
            w = int(rng.integers(1, 5))
        x = rng.standard_normal((b, c, h, w)) * rng.uniform(0.5, 3.0)
        st = layer_stats(x)
        got = (st.instance_mean, st.instance_std, st.mean_of_means,
               st.std_of_means, st.mean_of_stds, st.std_of_stds)
        for a, e in zip(got, _loop_stats(x)):
            worst = max(worst, float(np.max(np.abs(a - e))))
    ok = worst < 1e-10
    line = announce(2, ok, emit=verdict, detail=f"200 batches up to 16x8x4x4, worst deviation "
                           f"{worst:.2e} (tol 1e-10)")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 3: compensation identity and zero-mean noise


def test_criterion_3_compensation_identity_and_zero_mean(verdict):
    rng = np.random.default_rng(30)
    identity_dev = 0.0
    for _ in range(20):
        x = rng.standard_normal((6, 4, 5, 5)) * 2.0
        feat = T.constant(x)
        st = layer_stats(x)
        assert st.instance_std.min() >= 0.1
        zero = PerturbationDraw(eps_mean=np.zeros((6, 4)),
                                eps_std=np.zeros((6, 4)))
        out = compensate(feat, x.shape[1:], zero)
        identity_dev = max(identity_dev,
                           float(np.max(np.abs(out.values - x))))

    n = 10000
    means = np.zeros((n, 4, 3))
    stds = np.zeros((n, 4, 3))
    for i in range(n):
        d = draw_perturbation(4, 3, seed=0, epoch=0,
                              batch_index=i, layer_index=1)
        means[i] = d.eps_mean
        stds[i] = d.eps_std
    zmax = 0.0
    for sample in (means, stds):
        se = sample.std(axis=0) / np.sqrt(n)
        zmax = max(zmax, float(np.max(np.abs(sample.mean(axis=0)) / se)))

    ok = identity_dev <= 1e-4 and zmax <= 3.0
    line = announce(3, ok, emit=verdict, detail=f"zero-noise deviation {identity_dev:.2e} "
                           f"(tol 1e-4), zero-mean max |z| {zmax:.2f} "
                           f"over 10000 draws (limit 3.0)")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 4: mining against the exhaustive search


def _exhaustive_plan(mu: np.ndarray, labels: np.ndarray):
    b = len(labels)

    def pair_dist(i, j):
        a, c = mu[i], mu[j]
        den = np.sqrt(np.sum(a * a)) * np.sqrt(np.sum(c * c)) + 1e-12
        return 1.0 - np.sum(a * c) / den

    pos = np.arange(b, dtype=np.int64)
    neg = np.arange(b, dtype=np.int64)
    valid = np.zeros(b, dtype=bool)
    for i in range(b):
        best_pos, best_pos_d = -1, -np.inf
        best_neg, best_neg_d = -1, np.inf
        for j in range(b):
            if j == i:
                continue
            d = pair_dist(i, j)
            if labels[j] == labels[i] and d > best_pos_d:
                best_pos, best_pos_d = j, d
            if labels[j] != labels[i] and d < best_neg_d:
                best_neg, best_neg_d = j, d
        if best_pos >= 0 and best_neg >= 0:
            pos[i], neg[i], valid[i] = best_pos, best_neg, True
    return pos, neg, valid


def test_criterion_4_mining_oracle(verdict):
    rng = np.random.default_rng(40)
    checked = 0
    for trial in range(200):
        b = int(rng.integers(2, 65))
        k = int(rng.integers(2, 9))
        labels = rng.integers(0, k, size=b).astype(np.int64)
        mu = rng.standard_normal((b, 8))
        if trial % 2 == 0 and b >= 4:
            # duplicated embeddings force exact distance ties
            dup = rng.integers(0, b, size=max(2, b // 4))
            mu[dup] = mu[dup[0]]
        u = UncertainBatch(mean=T.constant(mu),
                           sigma=T.constant(np.ones_like(mu)),
                           labels=labels)
        plan = mine_triplets(u, 1.0, seed=0, epoch=0, batch_index=trial)
        pos, neg, valid = _exhaustive_plan(mu, labels)
        np.testing.assert_array_equal(plan.valid_mask, valid)
        np.testing.assert_array_equal(plan.pos_index[valid], pos[valid])
        np.testing.assert_array_equal(plan.neg_index[valid], neg[valid])
        for c in (0.1, 10.0):
            scaled = UncertainBatch(mean=T.constant(c * mu),
                                    sigma=u.sigma, labels=labels)
            plan_c = mine_triplets(scaled, 1.0, seed=0, epoch=0,
                                   batch_index=trial)
            np.testing.assert_array_equal(plan_c.pos_index, plan.pos_index)
            np.testing.assert_array_equal(plan_c.neg_index, plan.neg_index)
        checked += 1
    ok = checked == 200
    line = announce(4, ok, emit=verdict, detail="200 batches match the exhaustive search, "
                           "ties included, scale-invariant for "
                           "c in {0.1, 10}")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: mixup algebra


def test_criterion_5_mixup_algebra(verdict):
    rng = np.random.default_rng(50)
    worst_sum = 0.0
    worst_env = 0.0
    for trial in range(50):
        b = int(rng.integers(8, 33))
        labels = rng.integers(0, 4, size=b).astype(np.int64)
        mu = rng.standard_normal((b, 6))
        sigma = rng.uniform(0.05, 2.0, size=(b, 6))
        u = UncertainBatch(mean=T.constant(mu), sigma=T.constant(sigma),
                           labels=labels)
        plan = mine_triplets(u, 1.0, seed=1, epoch=0, batch_index=trial)
        mixed = mixup(u, plan)
        total = (mixed.w_self.values + mixed.w_pos.values
                 + mixed.w_neg.values)
        worst_sum = max(worst_sum, float(np.max(np.abs(total - 1.0))))
        rows = np.flatnonzero(plan.valid_mask)
        assert rows.size > 0
        trio = np.stack([mu[rows], mu[plan.pos_index[rows]],
                         mu[plan.neg_index[rows]]])
        f = mixed.features.values[rows]
        worst_env = max(worst_env,
                        float(np.max(trio.min(axis=0) - f)),
                        float(np.max(f - trio.max(axis=0))))

    sym = UncertainBatch(mean=T.constant(np.arange(12.0).reshape(4, 3)),
                         sigma=T.constant(np.ones((4, 3))),
                         labels=np.array([0, 0, 1, 1]))
    sym_plan = TripletPlan(pos_index=np.array([1, 0, 3, 2]),
                           neg_index=np.array([2, 3, 0, 1]),
                           mined_mask=np.ones(4, dtype=bool),
                           valid_mask=np.ones(4, dtype=bool))
    sym_mix = mixup(sym, sym_plan)
    thirds_exact = (np.all(sym_mix.w_self.values == 1.0 / 3.0)
                    and np.all(sym_mix.w_pos.values == 1.0 / 3.0)
                    and np.all(sym_mix.w_neg.values == 1.0 / 3.0))

    ok = worst_sum < 1e-9 and worst_env < 1e-9 and thirds_exact
    line = announce(5, ok, emit=verdict, detail=f"row sums off by {worst_sum:.1e} (tol 1e-9), "
                           f"envelope breach {max(worst_env, 0.0):.1e}, "
                           f"symmetric weights exactly 1/3: {thirds_exact}")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 6: loss closed forms


def test_criterion_6_loss_closed_forms(verdict):
    labels = np.array([0, 0, 1, 1])
    plan = TripletPlan(pos_index=np.array([1, 0, 3, 2]),
                       neg_index=np.array([2, 3, 0, 1]),
                       mined_mask=np.ones(4, dtype=bool),
                       valid_mask=np.ones(4, dtype=bool))

    n_classes = 5
    mu = T.constant(np.zeros((4, 8)))
    classifier = T.constant(np.zeros((n_classes, 8)))
    ce = ce_loss(mu, classifier, labels, plan)
    ce_dev = abs(float(ce.values) - 3.0 * np.log(n_classes))

    same = UncertainBatch(mean=T.constant(np.tile([1.5, -0.5, 2.0], (4, 1))),
                          sigma=T.constant(np.ones((4, 3))),
                          labels=labels)
    tl = triplet_loss(same, plan, margin=1.0)
    triplet_exact = float(tl.values) == 1.0 * 4

    breakdown = total_loss(ce, tl, triplet_weight=0.003)
    compose_exact = (float(breakdown.total.values)
                     == float(ce.values) + 0.003 * float(tl.values))

    ok = ce_dev < 1e-9 and triplet_exact and compose_exact
    line = announce(6, ok, emit=verdict, detail=f"uniform-logit ce off by {ce_dev:.1e} "
                           f"(tol 1e-9), degenerate triplet equals "
                           f"margin*count: {triplet_exact}, total equals "
                           f"ce + 0.003*triplet: {compose_exact}")
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 7 to 9: the desk-scale experiment


def desk_data(seed: int, noise_ratio: float):
    pool = make_blobs(4, 10, 3000, 1.0, seed=seed)
    train, test = split_dataset(pool, 2000)
    if noise_ratio > 0:
        train = corrupt_labels(train, noise_ratio, seed)
    return train, test


FULL = dict(ABLATION_LADDER)["full"]
COMP_ONLY = dict(ABLATION_LADDER)["compensation"]
BASELINE = dict(ABLATION_LADDER)["baseline"]


@pytest.fixture(scope="module")
def experiment():
    t0 = time.perf_counter()
    acc = {"full": [], "comp": [], "base": [],
           "full_clean": [], "base_clean": []}
    curves = []
    for seed in range(5):
        cfg = TrainConfig(seed=seed)
        train_n, test = desk_data(seed, 0.3)
        full = run_experiment(replace(cfg, **FULL), train_n, test)
        acc["full"].append(full.report.accuracy)
        curves.append([full.report.accuracy_by_rejection[r] for r in RATES])
        acc["comp"].append(run_experiment(
            replace(cfg, **COMP_ONLY), train_n, test).report.accuracy)
        acc["base"].append(run_experiment(
            replace(cfg, **BASELINE), train_n, test).report.accuracy)

        train_c, test_c = desk_data(seed, 0.0)
        acc["full_clean"].append(run_experiment(
            replace(cfg, **FULL), train_c, test_c).report.accuracy)
        acc["base_clean"].append(run_experiment(
            replace(cfg, **BASELINE), train_c, test_c).report.accuracy)
    return {"mean": {k: float(np.mean(v)) for k, v in acc.items()},
            "curve": np.mean(np.array(curves), axis=0),
            "elapsed": time.perf_counter() - t0}


def test_criterion_7_noisy_label_gap(experiment, verdict):
    m = experiment["mean"]
    gap_noisy = (m["full"] - m["base"]) * 100.0
    gap_clean = (m["full_clean"] - m["base_clean"]) * 100.0
    elapsed = experiment["elapsed"]
    ok = gap_noisy >= 2.0 and gap_clean >= 0.0 and elapsed < 600.0
    line = announce(7, ok, emit=verdict, detail=f"30% flips: full {m['full']:.4f} vs baseline "
                           f"{m['base']:.4f}, gap +{gap_noisy:.2f} pts "
                           f"(need +2.0); clean gap +{gap_clean:.2f} pts "
                           f"(need 0.0); runtime {elapsed:.0f}s "
                           f"(budget 600s)")
    assert ok, line


def test_criterion_8_rejection_curve_shape(experiment, verdict):
    curve = experiment["curve"]
    steps = np.diff(curve) * 100.0
    inversions = steps[steps < 0]
    ok = len(inversions) <= 1 and (inversions >= -0.5).all()
    pretty = ", ".join(f"{v:.4f}" for v in curve)
    line = announce(8, ok, emit=verdict, detail=f"mean accuracy at 0/10/20/30% rejection: "
                           f"[{pretty}], {len(inversions)} inversion(s)"
                           + (f" worst {-inversions.min():.2f} pts"
                              if len(inversions) else ""))
    assert ok, line


def test_criterion_9_ablation_direction(experiment, verdict):
    m = experiment["mean"]
    gap_fc = (m["full"] - m["comp"]) * 100.0
    gap_cb = (m["comp"] - m["base"]) * 100.0
    ok = gap_fc >= -0.3 and gap_cb >= -0.3
    line = announce(9, ok, emit=verdict, detail=f"full {m['full']:.4f} >= compensation "
                           f"{m['comp']:.4f} >= baseline {m['base']:.4f} "
                           f"(gaps {gap_fc:+.2f} / {gap_cb:+.2f} pts, "
                           f"ties allowed within 0.3)")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 10: bitwise determinism of the train command


def test_criterion_10_bitwise_determinism(tmp_path, verdict):
    train_csv = os.path.join(tmp_path, "train.csv")
    test_csv = os.path.join(tmp_path, "test.csv")
    code = cli_main(["synth", "--train-out", train_csv,
                     "--test-out", test_csv, "--classes", "4",
                     "--features", "10", "--train-size", "2000",
                     "--test-size", "1000", "--noise-ratio", "0.3"])
    assert code == EXIT_OK

    args = ["train", "--data-train", train_csv, "--data-test", test_csv,
            "--epochs", "3", "--seed", "11"]
    assert cli_main(args + ["--out", os.path.join(tmp_path, "a")]) == EXIT_OK
    assert cli_main(args + ["--out", os.path.join(tmp_path, "b")]) == EXIT_OK

    same = True
    for name in ("run_checkpoint.json", "run_metrics.csv"):
        with open(os.path.join(tmp_path, "a", name), "rb") as fa:
            bytes_a = fa.read()
        with open(os.path.join(tmp_path, "b", name), "rb") as fb:
            bytes_b = fb.read()
        same = same and bytes_a == bytes_b
    line = announce(10, same, emit=verdict, detail="repeated train runs produce byte-identical "
                              "checkpoints and metrics")
    assert same, line
