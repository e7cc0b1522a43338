"""Distance-based triplet partner selection.

For a fraction p of the batch (chosen uniformly per step) each sample is
paired with its hardest partners under cosine distance between embedding
means: the FARTHEST sample of the same label as positive and the NEAREST
sample of a different label as negative.  The rest of the batch gets
uniformly drawn label-respecting partners, which keeps early training
easy and lets the hard pairs take over as p says.

Only the mined rows get distances, from one matrix product over the
batch's distinct rows.  Every partner is picked from one stable sort of
the labels: a masked arg-extremum over the mined rows' distances, and
one draw call plus index arithmetic on the sorted classes for all the
random ones.

Selection works on detached values; gradients enter later through the
gathered embeddings, not through the argmax itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .heads import UncertainBatch
from .rng import STREAM_MINE, keyed_rng

# norm smoothing inside the cosine distance
EPS_NORM = 1e-12


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


def _check_embeddings(mu: np.ndarray) -> None:
    if mu.ndim != 2 or mu.shape[1] == 0:
        raise ContractError(f"need a 2-d embedding matrix with at least one "
                            f"column, got {mu.shape}")


def pairwise_cosine_distances(mu: np.ndarray, rows=None) -> np.ndarray:
    """Cosine distances from the query rows of (B, d) to all B rows.

    rows indexes the query rows (all of them when omitted); the result is
    (len(rows), B).  The dot products come from one matrix product over
    the distinct rows of mu (-0.0 counts as +0.0), and each batch column
    is gathered from its distinct row's column.  Identical rows therefore
    give bitwise-identical distances in every query row, so ties between
    duplicated embeddings resolve by index order at any scale of mu.
    Other entries match the elementwise formula to rounding, which
    depends on the BLAS and on how many rows are queried.
    """
    mu = np.asarray(mu, dtype=np.float64)
    _check_embeddings(mu)
    if rows is None:
        rows = np.arange(mu.shape[0])
    # one opaque item per row, so np.unique compares whole rows bytewise
    keys = np.ascontiguousarray(mu + 0.0).view(
        np.dtype((np.void, mu.itemsize * mu.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    uniq = mu[first]
    norms = np.sqrt(np.sum(uniq ** 2, axis=1))
    query = inverse[rows]
    dots = uniq[query] @ uniq.T
    dots /= np.outer(norms[query], norms) + EPS_NORM
    return (1.0 - dots)[:, inverse]


def mine_triplets(u: UncertainBatch, p: float, seed: int, epoch: int,
                  batch_index: int) -> TripletPlan:
    """Build the triplet plan for one batch.

    p in [0, 1] is the hard-mined fraction; floor(p * B) samples get both
    hardest partners from their distance rows (the only rows computed),
    the rest get seeded uniform label-respecting ones from a single draw
    call, in row order, positive before negative, as a per-row loop would
    draw them: the k-th same-label or different-label row in index
    order.  A row without a same-label or a different-label partner is
    invalid and keeps itself as the missing partner.
    """
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"mined fraction must be in [0, 1], got {p}")
    mu = u.mean.values
    labels = u.labels
    _check_embeddings(mu)
    b = mu.shape[0]
    if b < 2:
        raise ContractError(f"mining needs at least 2 samples, got {b}")
    if labels.shape != (b,):
        raise ContractError(f"labels shape {labels.shape} does not match "
                            f"batch {b}")

    # order lists each class's rows in index order, classes one after
    # another; row i's class fills order[start[i]:start[i] + count[i]],
    # with i itself at offset rank[i]
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    start = np.searchsorted(sorted_labels, labels, side="left")
    count = np.searchsorted(sorted_labels, labels, side="right") - start
    sorted_rank = np.arange(b) - start[order]
    rank = np.empty(b, dtype=np.int64)
    rank[order] = sorted_rank
    n_pos = count - 1
    n_neg = b - count

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
        same = labels[mined, None] == labels
        # np.argmax / np.argmin take the first (lowest-index) extremum,
        # which settles ties; the fills never beat a candidate
        near = np.argmin(np.where(same, np.inf, dist), axis=1)
        same[np.arange(mined.size), mined] = False
        far = np.argmax(np.where(same, dist, -np.inf), axis=1)
        pos_index[mined] = np.where(n_pos[mined] > 0, far, mined)
        neg_index[mined] = np.where(n_neg[mined] > 0, near, mined)

    rest = np.flatnonzero(~mined_mask)
    counts = np.stack([n_pos[rest], n_neg[rest]], axis=1)
    drawn = counts > 0
    picks = np.zeros_like(counts)
    # boolean indexing reads (row, side) in C order: row by row, positive
    # before negative, the order of the draws; a zero count draws nothing
    picks[drawn] = rng.integers(counts[drawn])
    rows, k = rest[drawn[:, 0]], picks[drawn[:, 0], 0]
    # the k-th class member other than the row itself
    pos_index[rows] = order[start[rows] + k + (k >= rank[rows])]
    rows, k = rest[drawn[:, 1]], picks[drawn[:, 1], 1]
    # the k-th row outside the class is k plus the members t that come
    # before it, those with order[start + t] - t <= k; offsetting each
    # class's keys by start * B sorts all classes into one table
    keys = order - sorted_rank + start[order] * b
    before = np.searchsorted(keys, k + start[rows] * b, side="right")
    neg_index[rows] = k + before - start[rows]

    return TripletPlan(pos_index=pos_index, neg_index=neg_index,
                       mined_mask=mined_mask, valid_mask=valid_mask)
