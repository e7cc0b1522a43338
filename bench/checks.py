"""Output checks made apart from the program.

Nothing here calls uqtrain: the checkpoint is decoded from its JSON and
base64 little-endian float64 buffers, the CSVs are parsed with numpy,
the eval forward pass is redone in plain numpy, and rejection accuracies
come from Python's own stable sort.  Each check raises CheckFailed.
"""

import base64
import csv
import hashlib
import json
import math

import numpy as np

SIGMA_FLOOR = 1e-6      # the additive floor the sigma head documents
EPS_NORM = 1e-12        # norm smoothing of the documented cosine distance


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_dataset(path):
    table = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return table[:, :-1], table[:, -1].astype(np.int64)


def count_rows(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def read_checkpoint(path):
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    require(payload.get("format") == "uqtrain-checkpoint",
            f"{path} is not a checkpoint")
    params = {}
    for name, entry in payload["params"].items():
        raw = base64.b64decode(entry["data"])
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"])
    return params


def numpy_forward(params, x):
    """Eval-mode forward: affine blocks with ReLU, mean and sigma heads,
    softplus + floor, bias-free classifier.  Returns (predictions,
    mean-sigma scores)."""
    h = x
    i = 0
    while f"block{i}.weight" in params:
        h = np.maximum(h @ params[f"block{i}.weight"]
                       + params[f"block{i}.bias"], 0.0)
        i += 1
    require(i > 0, "checkpoint holds no backbone block")
    mean = h @ params["mean_w"] + params["mean_b"]
    sigma = np.logaddexp(0.0, h @ params["sigma_w"] + params["sigma_b"])
    sigma = sigma + SIGMA_FLOOR
    logits = mean @ np.ascontiguousarray(params["classifier"].T)
    return np.argmax(logits, axis=1), sigma.mean(axis=1)


def rejection_accuracy(correct, scores, rate):
    """Accuracy after dropping the floor(rate * N) highest scores; equal
    scores keep their index order (sorted() is stable)."""
    n = len(correct)
    order = sorted(range(n), key=lambda i: -scores[i])
    kept = order[math.floor(rate * n):]
    return sum(1 for i in kept if correct[i]) / len(kept), len(kept)


def read_eval_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["metric", "value"], f"{path}: bad header")
    return {name: float(value) for name, value in rows[1:]}


def read_curve_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["rate", "accuracy", "retained"],
            f"{path}: bad header")
    return [(float(r), float(a), int(k)) for r, a, k in rows[1:]]


def read_metrics_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def check_scoring(checkpoint, data_path, program_preds, program_scores,
                  eval_csv, curve_csv):
    """The numpy forward must reproduce the program's predictions; the
    accuracies both commands report must match an independent ranking,
    and the two commands must agree with each other."""
    params = read_checkpoint(checkpoint)
    x, labels = read_dataset(data_path)
    n = count_rows(data_path)
    require(len(labels) == n, "numpy and line count disagree on rows")
    preds, scores = numpy_forward(params, x)
    require(np.array_equal(preds, program_preds),
            f"{int(np.sum(preds != program_preds))} predictions differ "
            "from the numpy forward pass")
    require(np.allclose(scores, program_scores, rtol=1e-12, atol=0.0),
            "uncertainty scores differ from the numpy forward pass")

    report = read_eval_csv(eval_csv)
    curve = read_curve_csv(curve_csv)
    require(int(report["n_samples"]) == n,
            f"eval n_samples {report['n_samples']} != {n} CSV rows")
    correct = (preds == labels).tolist()
    scores = scores.tolist()
    by_rate = {}
    for rate, acc, retained in curve:
        expected, kept = rejection_accuracy(correct, scores, rate)
        require(retained == n - math.floor(rate * n) == kept,
                f"rate {rate}: retained {retained}, expected {kept}")
        require(acc == expected,
                f"rate {rate}: reject-curve accuracy {acc} != {expected}")
        by_rate[rate] = acc
    require(report["accuracy"] == by_rate[0.0],
            "eval and reject-curve disagree at rate 0")
    for pct in (10, 20, 30):
        require(report[f"accuracy_reject_{pct}"] == by_rate[pct / 100],
                f"eval and reject-curve disagree at rate 0.{pct // 10}")
    return report["accuracy"], by_rate[0.3]


def check_metrics_history(path, epochs, accuracies=None):
    """One finite row per epoch; the last row's (test_acc, rej30), when
    given, are the ones eval reports for the written checkpoint."""
    rows = read_metrics_csv(path)
    require(len(rows) == epochs, f"{path}: {len(rows)} rows, want {epochs}")
    for row in rows:
        for key in ("loss_total", "loss_ce", "loss_triplet"):
            require(math.isfinite(float(row[key])),
                    f"{path}: epoch {row['epoch']} {key} = {row[key]}")
    if accuracies is not None:
        last = (float(rows[-1]["test_acc"]), float(rows[-1]["rej30"]))
        require(last == tuple(accuracies),
                f"last metrics row {last} differs from eval {accuracies}")


def check_mining(mu, labels, plan, mine_pos, mine_neg):
    """Mined rows hold the farthest same-label and nearest other-label
    sample (by an exhaustive search); random rows respect labels."""
    b = len(labels)
    norms = np.linalg.norm(mu, axis=1)
    for i in range(b):
        others = np.arange(b) != i
        same = (labels == labels[i]) & others
        diff = labels != labels[i]
        valid = bool(same.any() and diff.any())
        require(plan.valid_mask[i] == valid, f"row {i}: valid flag")
        if not valid:
            continue
        p, q = plan.pos_index[i], plan.neg_index[i]
        require(same[p], f"row {i}: positive {p} breaks the label rule")
        require(diff[q], f"row {i}: negative {q} breaks the label rule")
        if not plan.mined_mask[i]:
            continue
        dist = 1.0 - (mu @ mu[i]) / (norms * norms[i] + EPS_NORM)
        if mine_pos:
            require(math.isclose(dist[p], dist[same].max(), rel_tol=0,
                                 abs_tol=1e-12),
                    f"row {i}: positive is not the farthest same-label row")
        if mine_neg:
            require(math.isclose(dist[q], dist[diff].min(), rel_tol=0,
                                 abs_tol=1e-12),
                    f"row {i}: negative is not the nearest other-label row")
