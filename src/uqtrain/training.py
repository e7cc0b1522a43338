"""Optimizer, batch sampler, the train step, and the experiment harness.

Everything here is deterministic given (config, data): batch order,
perturbation draws and partner choices come from keyed streams, and the
optimizer touches parameters in the stable order Network.parameters()
defines.  Two runs with the same inputs produce bitwise identical
checkpoints and metrics files.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .compensation import forward_with_compensation
from .config import TrainConfig, write_config_echo
from .data import LabeledDataset
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    NumericalDivergence,
)
from .files import write_csv
from .heads import (
    Network,
    UncertainBatch,
    build_vector_network,
    class_logits,
    head_forward,
    save_checkpoint,
    uncertainty_score,
)
from .losses import LossBreakdown, ce_loss, mixup, total_loss, triplet_loss
from .mining import TripletPlan, mine_triplets
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
    decayed.  Adam reads gradients and never resets them (train_step
    does); a parameter whose grad is None steps with a zero gradient.

    The moments m and v are two flat float64 vectors over all parameters
    in named_params order; slices[i] is parameter i's part of them.  A
    step gathers the gradients into one flat buffer, runs the moment
    updates, bias correction and step size as whole-vector passes, then
    applies each parameter's part of the step in place.  Every entry
    takes the same operations in the same order as a per-parameter loop
    would, so the bits are those of that loop.  The parameters' arrays
    stay their own: the optimizer writes into p.values, never rebinds it.

    Nothing moves unless the whole step can be taken: a gradient whose
    shape differs from its parameter's raises ContractError, and a
    non-finite or overflowing gradient raises NumericalDivergence naming
    the first such parameter in order.  Either leaves the parameters, m,
    v and t as they were: the new moments go into two spare vectors,
    which replace m and v only once the new v is known to be finite.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, named_params, lr_multipliers: dict | None = None):
        self.named_params = list(named_params)
        self.slices = []
        end = 0
        for _, p in self.named_params:
            self.slices.append(slice(end, end + p.values.size))
            end += p.values.size
        self.m = np.zeros(end)
        self.v = np.zeros(end)
        self._spare = np.empty(end), np.empty(end)
        self.t = 0
        self._mults = [(lr_multipliers or {}).get(name, 1.0)
                       for name, _ in self.named_params]
        # consecutive parameters that share a multiplier form one run,
        # whose step is scaled by one scalar: (flat slice, multiplier)
        self._runs = []
        for sl, mult in zip(self.slices, self._mults):
            if self._runs and self._runs[-1][1] == mult:
                sl = slice(self._runs.pop()[0].start, sl.stop)
            self._runs.append((sl, mult))

    def _gather(self) -> np.ndarray:
        """The gradients as one flat vector, zeros for a None grad; raises
        ContractError on a gradient whose shape is not its parameter's."""
        parts = []
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros(p.values.shape)
            elif g.shape != p.values.shape:
                raise ContractError(
                    f"gradient of {name} has shape {g.shape}, the "
                    f"parameter has shape {p.values.shape}")
            parts.append(g.ravel())
        flat = np.empty(self.v.size)
        return np.concatenate(parts, out=flat) if parts else flat

    def step(self, lr: float, weight_decay: float = 0.0) -> None:
        g = self._gather()
        t = self.t + 1
        if not g.size:
            self.t = t
            return
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        # the new moments go into the spare vectors, so a refused step
        # leaves m and v as they were.  No temporary is allocated: the new
        # v's vector holds m's gradient term until v is built, and g, read
        # for the last time, holds v * b2, which is added to the gradient
        # term instead of the other way round (the same bits: + commutes)
        m, v = self._spare
        np.multiply(self.m, b1, out=m)
        m += np.multiply(g, 1.0 - b1, out=v)
        np.multiply(g, 1.0 - b2, out=v)
        v *= g
        v += np.multiply(self.v, b2, out=g)
        # a non-finite gradient makes v non-finite too, and so does an
        # overflowing g * g, which would freeze the parameter for good;
        # v >= 0, so its max is finite exactly when every entry is (a
        # NaN propagates through the max)
        if not np.isfinite(v.max()):
            name = next(name for (name, _), sl
                        in zip(self.named_params, self.slices)
                        if not np.isfinite(v[sl]).all())
            raise NumericalDivergence(
                f"gradient of {name} is not finite or overflows at "
                f"optimizer step {t}")
        self._spare = self.m, self.v
        self.m, self.v, self.t = m, v, t
        # step = ((lr * multiplier) * (m / bias1)) / (sqrt(v / bias2) + eps),
        # built in the old m's vector, now spare
        step = np.divide(m, bias1, out=self._spare[0])
        denom = np.divide(v, bias2, out=g)
        np.sqrt(denom, out=denom)
        denom += self.eps
        for sl, mult in self._runs:
            run = step[sl]
            run *= lr * mult
        step /= denom
        for (_, p), sl, mult in zip(self.named_params, self.slices,
                                    self._mults):
            p.values -= step[sl].reshape(p.values.shape)
            if weight_decay and p.values.ndim > 1:
                p.values *= 1.0 - lr * mult * weight_decay


# ---------------------------------------------------------------------------
# batch sampling


def row_blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most `size` rows covering n rows.  A 1-row
    tail joins the block before it: a train step needs at least 2
    samples, and on one row BLAS takes a matrix-vector kernel whose bits
    differ."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def balanced_batches(labels: np.ndarray, batch_size: int, seed: int,
                     epoch: int) -> list[np.ndarray]:
    """Class-interleaved batches: shuffle within each class, then deal the
    classes round-robin before chunking, so every batch sees every class
    at close to its global proportion, then cut by row_blocks."""
    rng = keyed_rng(seed, STREAM_BATCH, epoch)
    per_class = [rng.permutation(np.flatnonzero(labels == c))
                 for c in np.unique(labels)]
    # round t of the deal takes the t-th row of every class that still
    # has one, in class order: a stable sort by rank within the class
    shuffled = np.concatenate(per_class).astype(np.int64, copy=False)
    rank = np.concatenate([np.arange(len(p)) for p in per_class])
    order = shuffled[np.argsort(rank, kind="stable")]
    return [order[s] for s in row_blocks(len(order), batch_size)]


def make_batches(labels, cfg: TrainConfig, epoch: int) -> list[np.ndarray]:
    return balanced_batches(labels, cfg.batch_size, cfg.seed, epoch)


# ---------------------------------------------------------------------------
# single training step


def step_loss(net: Network, x: np.ndarray, labels: np.ndarray,
              cfg: TrainConfig, epoch: int, batch_index: int,
              plan: TripletPlan | None = None
              ) -> tuple[LossBreakdown, TripletPlan | None]:
    """The training objective of one batch, as the four switches of a
    validated cfg compose it; returns (breakdown, plan).  A given plan
    replaces the mined one; without a partner branch there is no plan at
    all."""
    # only the partner blend reads sigma, so a step without a partner
    # branch builds no sigma head
    partners = cfg.use_positive_branch or cfg.use_negative_branch
    feats = forward_with_compensation(
        T.constant(x), net,
        (cfg.seed, epoch, batch_index) if cfg.compensation else None)
    mean, sigma = head_forward(net, feats, with_sigma=partners)
    u = UncertainBatch(mean, sigma, labels=np.asarray(labels, dtype=np.int64))

    if not partners:
        plan = None
    elif plan is None:
        plan = mine_triplets(u, cfg.mined_fraction, cfg.seed, epoch,
                             batch_index)

    mixed = mixup(u, plan, include_pos=cfg.use_positive_branch,
                  include_neg=cfg.use_negative_branch)
    ce = ce_loss(mixed.features, net.classifier, u.labels, plan,
                 include_pos=cfg.use_positive_branch,
                 include_neg=cfg.use_negative_branch)

    if cfg.use_triplet_term:
        tl = triplet_loss(u, plan, cfg.margin)
    else:
        tl = T.constant(0.0)
    return total_loss(ce, tl, cfg.triplet_weight), plan


def train_step(net: Network, x: np.ndarray, labels: np.ndarray,
               cfg: TrainConfig, opt: Adam, epoch: int,
               batch_index: int) -> LossBreakdown:
    """One forward/backward/update on a batch.  Raises
    NumericalDivergence if the loss or a gradient leaves the realm of
    finite numbers."""
    if x.shape[0] < 2:
        raise ContractError("training batches need at least 2 samples")
    with T.Tape() as tape:
        breakdown, _ = step_loss(net, x, labels, cfg, epoch, batch_index)

    if not np.isfinite(breakdown.total.values):
        raise NumericalDivergence(
            f"loss became {float(breakdown.total.values)} at epoch {epoch} "
            f"step {batch_index}")
    # backward only adds, so the step owns the reset: a parameter the
    # loss does not reach keeps None, which Adam reads as zero
    for _, p in net.parameters():
        p.grad = None
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


# rows per scoring block: scoring holds one block's activations at a
# time, whatever the input's size
SCORE_BLOCK_ROWS = 1024


def _forward(net: Network, x: np.ndarray, with_sigma: bool):
    """Eval-mode forward in row_blocks: returns (predictions, uncertainty
    scores or None)."""
    n = x.shape[0]
    preds = np.empty(n, dtype=np.intp)
    scores = np.empty(n) if with_sigma else None
    for rows in row_blocks(n, SCORE_BLOCK_ROWS):
        feats = forward_with_compensation(T.constant(x[rows]), net, None)
        mean, sigma = head_forward(net, feats, with_sigma=with_sigma)
        preds[rows] = np.argmax(class_logits(net, mean.values), axis=1)
        if with_sigma:
            scores[rows] = uncertainty_score(sigma)
    return preds, scores


# cfg is unused; the benchmark's output check calls predict(net, x, cfg)
def predict(net: Network, x: np.ndarray, cfg: TrainConfig | None = None):
    """Eval-mode forward: returns (predictions, uncertainty scores)."""
    return _forward(net, x, with_sigma=True)


def accuracy(net: Network, ds: LabeledDataset) -> float:
    """evaluate(net, ds).accuracy without building sigma."""
    preds, _ = _forward(net, ds.features, with_sigma=False)
    return float(np.mean(preds == ds.labels))


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


def evaluate(net: Network, ds: LabeledDataset,
             rates=REJECTION_RATES) -> EvalReport:
    preds, scores = predict(net, ds.features)
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
    write_csv(path, METRICS_COLUMNS,
              ([row[c] for c in METRICS_COLUMNS] for row in rows))


def fit(net: Network, train_ds: LabeledDataset, test_ds: LabeledDataset,
        cfg: TrainConfig) -> TrainResult:
    """Full training loop; history holds one metrics row per epoch."""
    opt = Adam(net.parameters(),
               lr_multipliers={name: cfg.head_lr_multiplier
                               for name in net.head_param_names()})
    history = []
    step = 0
    test_report = None
    # a diverging run overflows, and subtracts inf from inf, before its
    # loss or a gradient turns non-finite, and numpy would warn of each on
    # stderr; the isfinite checks of train_step and Adam decide exit 3,
    # so the warnings would only stand before its one documented line
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            last = None
            for bidx, batch in enumerate(make_batches(train_ds.labels, cfg,
                                                      epoch)):
                last = train_step(net, train_ds.features[batch],
                                  train_ds.labels[batch], cfg, opt, epoch,
                                  bidx)
                step += 1
            train_acc = accuracy(net, train_ds)
            test_report = evaluate(net, test_ds)
            history.append(_metrics_row(epoch, step, last.scalars(),
                                        train_acc, test_report))
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


def class_count(train_ds: LabeledDataset, test_ds: LabeledDataset,
                names=("train data", "test data")) -> int:
    """Classes the classifier needs: one row per class up to the largest
    label of either dataset.  Checks the pair first, raising
    DataFormatError naming the dataset at fault: a train set under 2
    rows makes no train batch; a count above the two datasets' rows only
    allocates rows no sample can train, so it raises before anything is
    sized by it; a count below 2 leaves nothing to classify, so it
    raises naming both."""
    if len(train_ds) < 2:
        raise DataFormatError(f"{names[0]}: {len(train_ds)} row(s), a train "
                              "step needs at least 2 samples")
    rows = len(train_ds) + len(test_ds)
    for name, ds in zip(names, (train_ds, test_ds)):
        if ds.num_classes > rows:
            raise DataFormatError(
                f"{name}: largest label {ds.num_classes - 1} implies "
                f"{ds.num_classes} classes, more than the {rows} rows of "
                "the train and test data")
    count = max(train_ds.num_classes, test_ds.num_classes)
    if count < 2:
        raise DataFormatError(
            f"{names[0]} and {names[1]}: labels imply {count} class(es) "
            "(largest label + 1), a classifier needs at least 2")
    return count


# the most float64 values the network's parameters, or one batch's widest
# activation, may hold: 2**26, 512 MiB.  Adam keeps six more vectors the
# size of the parameters and a step a few dozen activations, so a run at
# the bound already takes gigabytes; far above it, the initial draw fails
# to allocate or the first epoch never ends
MAX_MODEL_VALUES = 1 << 26


def check_model_size(cfg: TrainConfig, input_dim: int, num_classes: int,
                     rows: int) -> int:
    """Refuse, before anything is allocated, an architecture whose
    parameters or largest per-batch activation pass MAX_MODEL_VALUES,
    raising ConfigError naming the field whose term does; rows is the
    most rows a train batch or scoring block can hold.  Returns the
    parameter count.  The counts are arithmetic on the config: the list
    of grids or shapes of 10**11 blocks alone would not fit in memory."""
    c, h, w = cfg.parse_grid()
    grid, embed = c * h * w, cfg.embed_dim
    first = (input_dim + 1) * grid
    block = (grid + 1) * grid
    heads = (2 * grid + 2 + num_classes) * embed
    total = first + (cfg.num_blocks - 1) * block + heads
    for key, what, count in (
            ("hidden_grid", "a block's activations", rows * grid),
            ("embed_dim", "a head's activations", rows * embed),
            ("hidden_grid", "one block's parameters", max(first, block)),
            ("embed_dim", "the heads' parameters", heads),
            ("num_blocks", "the network's parameters", total)):
        if count > MAX_MODEL_VALUES:
            raise ConfigError(
                f"{key} = {getattr(cfg, key)}: {what} would hold {count} "
                f"values, more than the bound of {MAX_MODEL_VALUES}")
    return total


def run_experiment(cfg: TrainConfig, train_ds: LabeledDataset,
                   test_ds: LabeledDataset, out_dir: str | None = None,
                   tag: str = "run") -> TrainResult:
    """Train one config end to end; optionally write its artifacts
    (metrics CSV, config echo, checkpoint) under out_dir."""
    cfg.validate()
    width, test_width = train_ds.features.shape[1], test_ds.features.shape[1]
    if width != test_width:
        raise DataFormatError(f"test data has {test_width} feature columns, "
                              f"train data has {width}")

    classes = class_count(train_ds, test_ds)
    check_model_size(cfg, width, classes,
                     min(max(cfg.batch_size, SCORE_BLOCK_ROWS),
                         max(len(train_ds), len(test_ds))))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    net = build_vector_network(width, classes, cfg.embed_dim,
                               [cfg.parse_grid()] * cfg.num_blocks, cfg.seed)
    result = fit(net, train_ds, test_ds, cfg)

    if out_dir is not None:
        write_metrics_csv(result.history,
                          os.path.join(out_dir, f"{tag}_metrics.csv"))
        write_config_echo(cfg, os.path.join(out_dir, f"{tag}_config.txt"))
        save_checkpoint(net, os.path.join(out_dir, f"{tag}_checkpoint.json"),
                        rng_state={"seed": cfg.seed, "epochs": cfg.epochs})
    return result
