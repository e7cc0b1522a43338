"""Synthetic datasets: Gaussian blobs, label corruption, domain shift.

Datasets are plain float64 feature matrices with integer labels.  The
file format is headerless CSV: one row per sample, feature columns then
the label column.  Floats are written with repr so a save/load round
trip is bitwise exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DataFormatError,
    GenerationError,
    LabelError,
)
from .rng import STREAM_DATA, keyed_rng

# how many times center sampling may retry before giving up
MAX_CENTER_ATTEMPTS = 1000

# per-feature scale and shift ranges of shift_domain's affine distortions
DOMAIN_SCALE_RANGE = (0.5, 2.0)
DOMAIN_SHIFT_RANGE = (-1.0, 1.0)


@dataclass
class LabeledDataset:
    """Feature matrix plus labels; optionally the pre-corruption labels
    and a per-sample domain id."""

    features: np.ndarray            # (N, D) float64
    labels: np.ndarray              # (N,) int64
    clean_labels: np.ndarray | None = None
    domain_id: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ContractError(f"features must be 2-d, got "
                                f"{self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ContractError("labels do not match feature rows")
        if self.labels.size and self.labels.min() < 0:
            raise LabelError("labels must be non-negative")

    def __len__(self):
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


@dataclass
class NoiseSpec:
    """Symmetric label flipping: fraction of samples, seed."""

    ratio: float = 0.0
    seed: int = 0


def make_blobs(n_classes: int, n_features: int, n_samples: int,
               spread: float, seed: int) -> LabeledDataset:
    """Gaussian blobs around well-separated standard-normal centers.

    Class centers are drawn i.i.d. N(0, I) and the whole set is redrawn
    until every pair is at least 2 * spread apart (so blobs overlap only
    in their tails); after MAX_CENTER_ATTEMPTS failures this raises
    GenerationError.  Labels cycle 0..K-1 so every prefix is nearly
    balanced.  spread = 0 gives point clusters.
    """
    if n_classes < 2:
        raise ContractError(f"need at least 2 classes, got {n_classes}")
    if n_samples < 2 * n_classes:
        raise ContractError("need at least 2 samples per class")
    if n_features < 1:
        raise ContractError("need at least 1 feature")
    if spread < 0:
        raise ContractError(f"spread must be non-negative, got {spread}")

    rng = keyed_rng(seed, STREAM_DATA, 0)
    centers = None
    for _ in range(MAX_CENTER_ATTEMPTS):
        cand = rng.standard_normal((n_classes, n_features))
        diffs = cand[:, None, :] - cand[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        off_diag = dist[~np.eye(n_classes, dtype=bool)]
        if off_diag.min() >= 2.0 * spread:
            centers = cand
            break
    if centers is None:
        raise GenerationError(
            f"could not place {n_classes} centers at pairwise distance "
            f">= {2.0 * spread} in {n_features} dims after "
            f"{MAX_CENTER_ATTEMPTS} attempts")

    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    noise = rng.standard_normal((n_samples, n_features)) * spread
    features = centers[labels] + noise
    return LabeledDataset(features=features, labels=labels)


def corrupt_labels(ds: LabeledDataset, spec: NoiseSpec) -> LabeledDataset:
    """Flip exactly floor(ratio * N) labels, never to the original class.

    Returns a new dataset; clean_labels records the pre-flip truth.
    """
    if not 0.0 <= spec.ratio <= 1.0:
        raise ContractError(f"noise ratio must be in [0, 1], got {spec.ratio}")
    n = len(ds)
    k = ds.num_classes
    if k < 2:
        raise ContractError("label corruption needs at least 2 classes")

    n_flip = int(np.floor(spec.ratio * n))
    rng = keyed_rng(spec.seed, STREAM_DATA, 1)
    flip_idx = rng.choice(n, size=n_flip, replace=False)
    new_labels = ds.labels.copy()
    # shift by 1..k-1 modulo k: cannot land on the original label
    offsets = rng.integers(1, k, size=n_flip)
    new_labels[flip_idx] = (new_labels[flip_idx] + offsets) % k

    clean = ds.clean_labels if ds.clean_labels is not None else ds.labels
    return LabeledDataset(features=ds.features.copy(), labels=new_labels,
                          clean_labels=clean.copy(),
                          domain_id=None if ds.domain_id is None
                          else ds.domain_id.copy())


def shift_domain(ds: LabeledDataset, n_domains: int,
                 seed: int) -> LabeledDataset:
    """Split samples round-robin into domains and give each domain its own
    per-feature affine distortion.  Labels are untouched."""
    if n_domains < 2:
        raise ContractError(f"need at least 2 domains, got {n_domains}")
    n, d = ds.features.shape
    rng = keyed_rng(seed, STREAM_DATA, 2)
    domain_id = np.arange(n, dtype=np.int64) % n_domains
    features = ds.features.copy()
    for dom in range(n_domains):
        scale = rng.uniform(*DOMAIN_SCALE_RANGE, size=d)
        shift = rng.uniform(*DOMAIN_SHIFT_RANGE, size=d)
        rows = domain_id == dom
        features[rows] = features[rows] * scale + shift
    return LabeledDataset(features=features, labels=ds.labels.copy(),
                          clean_labels=None if ds.clean_labels is None
                          else ds.clean_labels.copy(),
                          domain_id=domain_id)


def split_dataset(ds: LabeledDataset,
                  n_train: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Index-disjoint prefix/suffix split.  Because make_blobs cycles its
    labels, both halves stay nearly class-balanced."""
    if not 0 < n_train < len(ds):
        raise ContractError(f"n_train must be in (0, {len(ds)}), got {n_train}")

    def take(sl):
        return LabeledDataset(
            features=ds.features[sl].copy(),
            labels=ds.labels[sl].copy(),
            clean_labels=None if ds.clean_labels is None
            else ds.clean_labels[sl].copy(),
            domain_id=None if ds.domain_id is None
            else ds.domain_id[sl].copy())

    return take(slice(0, n_train)), take(slice(n_train, len(ds)))


def save_dataset(ds: LabeledDataset, path: str) -> None:
    """Headerless CSV, feature columns then the integer label column."""
    with open(path, "w", encoding="ascii") as fh:
        for row, label in zip(ds.features, ds.labels):
            cells = [repr(float(v)) for v in row]
            cells.append(str(int(label)))
            fh.write(",".join(cells) + "\n")


def load_dataset(path: str) -> LabeledDataset:
    """Parse save_dataset output; round-trips bitwise."""
    feats = []
    labels = []
    width = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) < 2:
                    raise DataFormatError(
                        f"{path}:{lineno}: need at least one feature and "
                        "a label")
                if width is None:
                    width = len(cells)
                elif len(cells) != width:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {width} columns, got "
                        f"{len(cells)}")
                try:
                    feats.append([float(c) for c in cells[:-1]])
                    labels.append(int(cells[-1]))
                except ValueError as e:
                    raise DataFormatError(f"{path}:{lineno}: {e}") from e
    except OSError as e:
        raise DataFormatError(f"cannot read dataset {path}: {e}") from e
    if not feats:
        raise DataFormatError(f"{path}: empty dataset")
    return LabeledDataset(features=np.array(feats, dtype=np.float64),
                          labels=np.array(labels, dtype=np.int64))
