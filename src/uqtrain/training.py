"""Optimizer, batch sampler, the train step, and the experiment harness.

Everything here is deterministic given (config, data): batch order,
perturbation draws and partner choices come from keyed streams, and the
optimizer touches parameters in the stable order Network.parameters()
defines.  Two runs with the same inputs produce bitwise identical
checkpoints and metrics files.
"""

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .compensation import forward_with_compensation
from .config import TrainConfig, write_config_echo
from .data import LabeledDataset
from .errors import ContractError, DegenerateBatch, NumericalDivergence
from .heads import (
    Network,
    build_vector_network,
    class_logits,
    head_forward,
    save_checkpoint,
    uncertainty_score,
)
from .losses import LossBreakdown, ce_loss, mixup, total_loss, triplet_loss
from .mining import mine_triplets
from .rng import STREAM_BATCH, keyed_rng

METRICS_COLUMNS = ["epoch", "step", "loss_total", "loss_ce", "loss_triplet",
                   "train_acc", "test_acc", "rej10", "rej20", "rej30",
                   "mean_sigma_correct", "mean_sigma_wrong"]

REJECTION_RATES = (0.0, 0.1, 0.2, 0.3)


class Adam:
    """Adam with AdamW-style weight decay.

    The step is the standard bias-corrected update; decay then shrinks
    the parameters directly (params *= 1 - lr * weight_decay) instead of
    entering the gradient.  Biases and other 1-d parameters are never
    decayed.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, named_params, lr_multipliers: dict | None = None):
        self.named_params = list(named_params)
        self.m = [np.zeros_like(p.values) for _, p in self.named_params]
        self.v = [np.zeros_like(p.values) for _, p in self.named_params]
        self.t = 0
        self.lr_multipliers = dict(lr_multipliers or {})

    def step(self, lr: float, weight_decay: float = 0.0) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for (name, p), m, v in zip(self.named_params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            decay = weight_decay if p.values.ndim > 1 else 0.0
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / bias1
            vhat = v / bias2
            step_lr = lr * self.lr_multipliers.get(name, 1.0)
            p.values -= step_lr * mhat / (np.sqrt(vhat) + self.eps)
            if decay:
                p.values *= 1.0 - step_lr * decay


# ---------------------------------------------------------------------------
# batch sampling


def balanced_batches(labels: np.ndarray, batch_size: int, seed: int,
                     epoch: int) -> list[np.ndarray]:
    """Class-interleaved batches: shuffle within each class, then deal the
    classes round-robin before chunking, so every batch sees every class
    at close to its global proportion.  A 1-sample tail joins the batch
    before it, since a train step needs at least 2 samples."""
    rng = keyed_rng(seed, STREAM_BATCH, epoch)
    classes = np.unique(labels)
    per_class = [rng.permutation(np.flatnonzero(labels == c))
                 for c in classes]
    longest = max(len(p) for p in per_class)
    order = []
    for t in range(longest):
        for p in per_class:
            if t < len(p):
                order.append(p[t])
    order = np.array(order, dtype=np.int64)
    chunks = [order[i:i + batch_size]
              for i in range(0, len(order), batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2:] = [np.concatenate(chunks[-2:])]
    return chunks


def make_batches(labels, cfg: TrainConfig, epoch: int) -> list[np.ndarray]:
    return balanced_batches(labels, cfg.batch_size, cfg.seed, epoch)


# ---------------------------------------------------------------------------
# single training step


def train_step(net: Network, x: np.ndarray, labels: np.ndarray,
               cfg: TrainConfig, opt: Adam, epoch: int,
               batch_index: int) -> LossBreakdown:
    """One forward/backward/update on a batch.  Raises
    NumericalDivergence if the loss leaves the realm of finite numbers."""
    if x.shape[0] < 2:
        raise DegenerateBatch("training batches need at least 2 samples")
    layers = cfg.resolve_compensation_layers() if cfg.compensation else ()

    with T.Tape() as tape:
        feats = forward_with_compensation(
            T.constant(x), net, layers, cfg.seed, epoch, batch_index)
        u = head_forward(net, feats, labels)

        plan = None
        if cfg.use_positive_branch or cfg.use_negative_branch:
            plan = mine_triplets(u, cfg.mined_fraction, cfg.seed, epoch,
                                 batch_index)

        mixed = mixup(u, plan, include_pos=cfg.use_positive_branch,
                      include_neg=cfg.use_negative_branch)
        ce = ce_loss(mixed.features, net.classifier, labels, plan,
                     include_pos=cfg.use_positive_branch,
                     include_neg=cfg.use_negative_branch)

        if (cfg.use_triplet_term and plan is not None
                and cfg.use_positive_branch and cfg.use_negative_branch):
            tl = triplet_loss(u, plan, cfg.margin)
        else:
            tl = T.constant(0.0)
        breakdown = total_loss(ce, tl, cfg.triplet_weight)

    if not np.isfinite(breakdown.total.values):
        raise NumericalDivergence(
            f"loss became {float(breakdown.total.values)} at epoch {epoch} "
            f"step {batch_index}")
    T.backward(breakdown.total, tape)
    opt.step(cfg.lr, cfg.weight_decay)
    return breakdown


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    """Accuracy and uncertainty summary of one model on one dataset."""

    accuracy_by_rejection: dict      # rate -> accuracy on retained samples
    per_class_accuracy: dict         # class -> accuracy at rejection 0
    mean_sigma_correct: float
    mean_sigma_wrong: float
    n_samples: int

    @property
    def accuracy(self) -> float:
        return self.accuracy_by_rejection[0.0]


# cfg is unused; the benchmark's output check calls predict(net, x, cfg)
def predict(net: Network, x: np.ndarray, cfg: TrainConfig):
    """Eval-mode forward: returns (predictions, uncertainty scores)."""
    feats = forward_with_compensation(T.constant(x), net, (), 0, 0, 0)
    u = head_forward(net, feats, np.zeros(x.shape[0], dtype=np.int64))
    logits = class_logits(net, u.mean).values
    preds = np.argmax(logits, axis=1)
    scores = uncertainty_score(u)
    return preds, scores


def rejection_accuracies(correct: np.ndarray, scores: np.ndarray,
                         rates=REJECTION_RATES) -> dict:
    """Accuracy over samples retained after rejecting the top-scoring
    fraction r.  Exactly floor(r * N) samples go; ties on the score
    boundary are broken toward the lowest index."""
    n = len(correct)
    if n == 0:
        raise ContractError("cannot evaluate an empty dataset")
    order = np.argsort(-scores, kind="stable")
    out = {}
    for r in rates:
        n_reject = int(np.floor(r * n))
        kept = order[n_reject:]
        if kept.size == 0:
            raise ContractError(f"rejection rate {r} leaves no samples")
        out[float(r)] = float(np.mean(correct[kept]))
    return out


# cfg is unused; it mirrors predict's parameter list (see there)
def evaluate(net: Network, ds: LabeledDataset, cfg: TrainConfig,
             rates=REJECTION_RATES) -> EvalReport:
    preds, scores = predict(net, ds.features, cfg)
    correct = preds == ds.labels

    acc_by_rej = rejection_accuracies(correct, scores, rates)

    per_class = {}
    for c in np.unique(ds.labels):
        rows = ds.labels == c
        per_class[int(c)] = float(np.mean(correct[rows]))

    sig_correct = scores[correct]
    sig_wrong = scores[~correct]
    return EvalReport(
        accuracy_by_rejection=acc_by_rej,
        per_class_accuracy=per_class,
        mean_sigma_correct=float(sig_correct.mean()) if sig_correct.size
        else float("nan"),
        mean_sigma_wrong=float(sig_wrong.mean()) if sig_wrong.size
        else float("nan"),
        n_samples=len(ds))


# ---------------------------------------------------------------------------
# full runs


@dataclass
class TrainResult:
    net: Network
    report: EvalReport
    history: list = field(default_factory=list)   # metrics rows as dicts


def _metrics_row(epoch, step, breakdown, train_acc, report) -> dict:
    loss_total, loss_ce, loss_tl = breakdown
    return {"epoch": epoch, "step": step,
            "loss_total": loss_total, "loss_ce": loss_ce,
            "loss_triplet": loss_tl, "train_acc": train_acc,
            "test_acc": report.accuracy_by_rejection[0.0],
            "rej10": report.accuracy_by_rejection[0.1],
            "rej20": report.accuracy_by_rejection[0.2],
            "rej30": report.accuracy_by_rejection[0.3],
            "mean_sigma_correct": report.mean_sigma_correct,
            "mean_sigma_wrong": report.mean_sigma_wrong}


def write_metrics_csv(rows: list, path: str) -> None:
    """Fixed column order, repr floats: bitwise reproducible output."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([
                row[c] if isinstance(row[c], int) else repr(float(row[c]))
                for c in METRICS_COLUMNS])


def fit(net: Network, train_ds: LabeledDataset, test_ds: LabeledDataset,
        cfg: TrainConfig) -> TrainResult:
    """Full training loop; history holds one metrics row per epoch."""
    opt = Adam(net.parameters(),
               lr_multipliers={name: cfg.head_lr_multiplier
                               for name in net.head_param_names()})
    history = []
    step = 0
    test_report = None
    for epoch in range(cfg.epochs):
        last = None
        for bidx, batch in enumerate(make_batches(train_ds.labels, cfg,
                                                  epoch)):
            last = train_step(net, train_ds.features[batch],
                              train_ds.labels[batch], cfg, opt, epoch, bidx)
            step += 1
        train_report = evaluate(net, train_ds, cfg, rates=(0.0,))
        test_report = evaluate(net, test_ds, cfg)
        history.append(_metrics_row(epoch, step, last.scalars(),
                                    train_report.accuracy, test_report))
    return TrainResult(net=net, report=test_report, history=history)


# (tag, overrides): each variant sets the four TrainConfig fields that
# switch the method's ingredients, the same keys as the `train` flags
ABLATION_LADDER = [
    ("baseline", dict(compensation=False, use_positive_branch=False,
                      use_negative_branch=False, use_triplet_term=False)),
    ("compensation", dict(compensation=True, use_positive_branch=False,
                          use_negative_branch=False, use_triplet_term=False)),
    ("compensation+pos", dict(compensation=True, use_positive_branch=True,
                              use_negative_branch=False,
                              use_triplet_term=False)),
    ("compensation+neg", dict(compensation=True, use_positive_branch=False,
                              use_negative_branch=True,
                              use_triplet_term=False)),
    ("compensation+pos+neg", dict(compensation=True, use_positive_branch=True,
                                  use_negative_branch=True,
                                  use_triplet_term=False)),
    ("full", dict(compensation=True, use_positive_branch=True,
                  use_negative_branch=True, use_triplet_term=True)),
]


def run_experiment(cfg: TrainConfig, train_ds: LabeledDataset,
                   test_ds: LabeledDataset, out_dir: str | None = None,
                   tag: str = "run") -> TrainResult:
    """Train one config end to end; optionally write its artifacts
    (metrics CSV, config echo, checkpoint) under out_dir."""
    cfg.validate()

    grid = cfg.parse_grid()
    net = build_vector_network(train_ds.features.shape[1],
                               max(train_ds.num_classes, test_ds.num_classes),
                               cfg.embed_dim,
                               [grid] * cfg.num_blocks, cfg.seed)
    result = fit(net, train_ds, test_ds, cfg)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(result.history,
                          os.path.join(out_dir, f"{tag}_metrics.csv"))
        write_config_echo(cfg, os.path.join(out_dir, f"{tag}_config.txt"))
        save_checkpoint(net, os.path.join(out_dir, f"{tag}_checkpoint.json"),
                        rng_state={"seed": cfg.seed, "epochs": cfg.epochs})
    return result
