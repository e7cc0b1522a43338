"""Synthetic datasets: Gaussian blobs and label corruption.

Datasets are plain float64 feature matrices with integer labels.  The
file format is headerless CSV: one row per sample, feature columns then
the label column.  Floats are written with repr so a save/load round
trip is bitwise exact.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataFormatError, GenerationError
from .files import atomic_open
from .rng import STREAM_DATA, keyed_rng

# how many times center sampling may retry before giving up
MAX_CENTER_ATTEMPTS = 1000

@dataclass
class LabeledDataset:
    """Feature matrix plus labels; optionally the pre-corruption labels."""

    features: np.ndarray            # (N, D) float64
    labels: np.ndarray              # (N,) int64
    clean_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ContractError(f"features must be 2-d, got "
                                f"{self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ContractError("labels do not match feature rows")
        if self.labels.size and self.labels.min() < 0:
            raise ContractError("labels must be non-negative")

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
    if not 0 <= spread < np.inf:
        raise ContractError(f"spread must be finite and non-negative, got "
                            f"{spread}")

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
                          clean_labels=clean.copy())


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
            else ds.clean_labels[sl].copy())

    return take(slice(0, n_train)), take(slice(n_train, len(ds)))


def save_dataset(ds: LabeledDataset, path: str) -> None:
    """Headerless CSV, feature columns then the integer label column,
    written atomically: an interrupted write leaves the previous file."""
    with atomic_open(path, encoding="ascii") as fh:
        for row, label in zip(ds.features, ds.labels):
            cells = [repr(float(v)) for v in row]
            cells.append(str(int(label)))
            fh.write(",".join(cells) + "\n")


def load_dataset(path: str) -> LabeledDataset:
    """Parse save_dataset output; round-trips bitwise.  A label outside
    int64, a negative label or a non-finite feature is a format error
    naming its line.

    The file is ASCII: float feature cells, then an integer label,
    comma-separated; blank lines are skipped.  Lines split as iterating
    the file does, on "\n" after universal newlines (str.splitlines would
    also split on \x0b, \x0c and \x1c-\x1e).  numpy's C tokenizer reads
    the file in one pass; a file it rejects goes through the
    line-at-a-time parse, which accepts the same files and names the
    line of the first row that does not parse.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataFormatError(f"cannot read dataset {path}: {e}") from e
    if not text.strip():
        raise DataFormatError(f"{path}: empty dataset")
    features, labels = _parse_table(text) or _parse_lines(path, text)
    bad = ~np.isfinite(features).all(axis=1) | (labels < 0)
    if bad.any():
        row = int(np.argmax(bad))
        lineno = [n for n, line in enumerate(text.split("\n"), start=1)
                  if line.strip()][row]
        what = (f"negative label {labels[row]}" if labels[row] < 0
                else "non-finite feature")
        raise DataFormatError(f"{path}:{lineno}: {what}")
    return LabeledDataset(features=features, labels=labels)


# Python's float() and int() reject the ASCII separators \x1c-\x1f inside
# a cell; numpy skips them like blanks
_NUMPY_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


def _parse_table(text: str):
    """(features, labels) of text's non-blank lines from one np.loadtxt
    call, or None if numpy rejects them, warns, or could accept a cell
    that _parse_lines rejects.  The label column is read as int64, so
    labels above 2**53 stay exact."""
    if any(c in text for c in _NUMPY_ONLY_BLANKS):
        return None
    rows = [row for row in map(str.strip, text.split("\n")) if row]
    width = rows[0].count(",") + 1
    if width < 2:
        return None
    dtype = [("x", "<f8", (width - 1,)), ("y", "<i8")]
    try:
        # older numpy read "3.0" as an int with a DeprecationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=dtype, delimiter=",",
                               comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    return np.ascontiguousarray(table["x"]), np.ascontiguousarray(table["y"])


def _parse_lines(path: str, text: str):
    """(features, labels) of text's non-blank lines, parsed one at a
    time with float() and int(); the first row that does not parse
    raises DataFormatError naming its line."""
    feats = []
    labels = []
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) < 2:
            raise DataFormatError(
                f"{path}:{lineno}: need at least one feature and a label")
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
        if not -2**63 <= labels[-1] < 2**63:  # stored as int64
            raise DataFormatError(
                f"{path}:{lineno}: label {labels[-1]} does not fit in int64")
    return (np.array(feats, dtype=np.float64),
            np.array(labels, dtype=np.int64))
