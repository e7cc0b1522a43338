"""Distance-based triplet partner selection.

For a fraction p of the batch (chosen uniformly per step) each sample is
paired with its hardest partners under cosine distance between embedding
means: the FARTHEST sample of the same label as positive and the NEAREST
sample of a different label as negative.  The rest of the batch gets
uniformly drawn label-respecting partners, which keeps early training
easy and lets the hard pairs take over as p says.

Only the mined rows get distances, and every partner is picked with
array operations over the batch's label masks: one masked arg-extremum
for the mined rows, one draw call for all the random ones.

Selection works on detached values; gradients enter later through the
gathered embeddings, not through the argmax itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateBatch, ShapeError
from .heads import UncertainBatch
from .rng import STREAM_MINE, keyed_rng

# norm smoothing inside the cosine distance
EPS_NORM = 1e-12
# elementwise products per chunk of query rows: bounds the memory the
# distances take at any batch size
DOT_CHUNK = 2 ** 20


@dataclass
class TripletPlan:
    """Partner indices for one batch.

    pos_index[i] / neg_index[i] point into the same batch.  valid_mask[i]
    is False when sample i lacks a same-label partner or a different-label
    partner; its indices then fall back to i itself and downstream losses
    skip it.  mined_mask marks the hard-mined subset.
    """

    pos_index: np.ndarray   # (B,) int64
    neg_index: np.ndarray   # (B,) int64
    mined_mask: np.ndarray  # (B,) bool
    valid_mask: np.ndarray  # (B,) bool


def pairwise_cosine_distances(mu: np.ndarray, rows=None) -> np.ndarray:
    """Cosine distances from the query rows of (B, d) to all B rows.

    rows indexes the query rows (all of them when omitted), so the
    result is (len(rows), B) and equals those rows of the full matrix bit
    for bit.  The dot products are reduced element by element rather than
    through a blocked matrix multiply: identical rows then produce
    bitwise-identical distances, so ties between duplicated embeddings
    resolve by index order at any scale of mu.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 2:
        raise ShapeError(f"need a 2-d embedding matrix, got {mu.shape}")
    if rows is None:
        rows = np.arange(mu.shape[0])
    norms = np.sqrt(np.sum(mu ** 2, axis=1))
    den = np.outer(norms[rows], norms) + EPS_NORM
    dots = np.empty(den.shape)
    step = max(1, DOT_CHUNK // max(1, mu.size))
    for lo in range(0, len(rows), step):
        query = mu[rows[lo:lo + step]]
        dots[lo:lo + step] = np.sum(query[:, None, :] * mu[None, :, :],
                                    axis=2)
    return 1.0 - dots / den


def _kth_true(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column of the k[r]-th (0-based) True entry in each row of mask."""
    return np.argmax(np.cumsum(mask, axis=1) > k[:, None], axis=1)


def mine_triplets(u: UncertainBatch, p: float, seed: int, epoch: int,
                  batch_index: int) -> TripletPlan:
    """Build the triplet plan for one batch.

    p in [0, 1] is the hard-mined fraction; floor(p * B) samples get both
    hardest partners from their distance rows (the only rows computed),
    the rest get seeded uniform label-respecting ones from a single draw
    call, in row order, positive before negative, as a per-row loop would
    draw them.  A row without a same-label or a different-label partner
    is invalid and keeps itself as the missing partner.
    """
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"mined fraction must be in [0, 1], got {p}")
    mu = u.mean.values
    labels = u.labels
    b = mu.shape[0]
    if b < 2:
        raise DegenerateBatch(f"mining needs at least 2 samples, got {b}")
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match "
                         f"batch {b}")
    if mu.ndim != 2:
        raise ShapeError(f"need a 2-d embedding matrix, got {mu.shape}")

    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(b, dtype=bool)
    neg_mask = ~same
    n_pos = pos_mask.sum(axis=1)
    n_neg = neg_mask.sum(axis=1)

    rng = keyed_rng(seed, STREAM_MINE, epoch, batch_index)
    n_mined = int(np.floor(p * b))
    mined_mask = np.zeros(b, dtype=bool)
    mined_mask[rng.choice(b, size=n_mined, replace=False)] = True

    pos_index = np.arange(b, dtype=np.int64)
    neg_index = np.arange(b, dtype=np.int64)
    valid_mask = (n_pos > 0) & (n_neg > 0)

    mined = np.flatnonzero(mined_mask)
    if mined.size:
        dist = pairwise_cosine_distances(mu, mined)
        # np.argmax / np.argmin take the first (lowest-index) extremum,
        # which settles ties; the fills never beat a candidate
        far = np.argmax(np.where(pos_mask[mined], dist, -np.inf), axis=1)
        near = np.argmin(np.where(neg_mask[mined], dist, np.inf), axis=1)
        pos_index[mined] = np.where(n_pos[mined] > 0, far, mined)
        neg_index[mined] = np.where(n_neg[mined] > 0, near, mined)

    rest = np.flatnonzero(~mined_mask)
    counts = np.stack([n_pos[rest], n_neg[rest]], axis=1)
    drawn = counts > 0
    picks = np.zeros_like(counts)
    # boolean indexing reads (row, side) in C order: row by row, positive
    # before negative, the order of the draws; a zero count draws nothing
    picks[drawn] = rng.integers(counts[drawn])
    for side, mask, index in ((0, pos_mask, pos_index),
                              (1, neg_mask, neg_index)):
        rows = rest[drawn[:, side]]
        index[rows] = _kth_true(mask[rows], picks[drawn[:, side], side])

    return TripletPlan(pos_index=pos_index, neg_index=neg_index,
                       mined_mask=mined_mask, valid_mask=valid_mask)
