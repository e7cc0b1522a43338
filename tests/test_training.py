"""Optimizer, batch sampler, training loop, and evaluation metrics."""

import os
from dataclasses import replace

import numpy as np
import pytest

import uqtrain.tensor as T
from uqtrain import training
from uqtrain.config import TrainConfig
from uqtrain.data import make_blobs, split_dataset
from uqtrain.errors import ContractError, DegenerateBatch
from uqtrain.heads import build_vector_network
from uqtrain.mining import TripletPlan
from uqtrain.training import (
    ABLATION_LADDER,
    METRICS_COLUMNS,
    Adam,
    balanced_batches,
    evaluate,
    fit,
    make_batches,
    rejection_accuracies,
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


def test_balanced_batches_interleave_classes():
    labels = np.array([0] * 20 + [1] * 20 + [2] * 20)
    batches = balanced_batches(labels, 12, seed=0, epoch=0)
    assert sum(len(b) for b in batches) == 60
    covered = np.sort(np.concatenate(batches))
    np.testing.assert_array_equal(covered, np.arange(60))
    for batch in batches:
        counts = np.bincount(labels[batch], minlength=3)
        assert counts.min() >= 3          # near-proportional representation


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
    with pytest.raises(DegenerateBatch):
        train_step(net, np.zeros((1, 6)), np.zeros(1, dtype=np.int64),
                   cfg, opt, 0, 0)


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

    ref = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=5)
    with T.Tape() as tape:
        h = T.constant(x)
        for block in ref.blocks:
            h = T.relu(block.apply(h))
        h = T.reshape(h, (h.shape[0], int(np.prod(h.shape[1:]))))
        mu = T.add(T.matmul(h, ref.mean_w), ref.mean_b)
        logp = T.log_softmax(T.matmul(mu, T.transpose(ref.classifier)))
        onehot = np.zeros((12, 3))
        onehot[np.arange(12), labels] = 1.0
        loss = T.scalar_mul(-1.0 / 12.0,
                            T.total_sum(T.mul(logp, T.constant(onehot))))
    T.backward(loss, tape)
    ref_opt = Adam(ref.parameters())
    ref_opt.step(cfg.lr, cfg.weight_decay)

    for (name, pa), (_, pb) in zip(net.parameters(), ref.parameters()):
        np.testing.assert_allclose(pa.values, pb.values, atol=1e-10,
                                   err_msg=name)


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
    report = evaluate(result.net, test, cfg)
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


def test_fit_trains_above_chance_on_clean_blobs():
    train, test = small_data(seed=6, n=240, k=3)
    cfg = small_config(epochs=8, lr=0.01, batch_size=24)
    net = build_vector_network(6, 3, 8, [(4, 2, 2)] * 2, seed=0)
    result = fit(net, train, test, cfg)
    assert result.report.accuracy > 0.5
