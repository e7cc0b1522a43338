"""Distance-based triplet partner selection.

For a fraction p of the batch (chosen uniformly per step) each sample is
paired with its hardest partners under cosine distance between embedding
means: the FARTHEST sample of the same label as positive and the NEAREST
sample of a different label as negative.  The rest of the batch gets
uniformly drawn label-respecting partners, which keeps early training
easy and lets the hard pairs take over as p says.

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


def pairwise_cosine_distances(mu: np.ndarray) -> np.ndarray:
    """All-pairs cosine distances of the rows of (B, d).

    The dot products are reduced element by element rather than through a
    blocked matrix multiply: identical rows then produce bitwise-identical
    distances, so ties between duplicated embeddings resolve by index
    order at any scale of mu.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 2:
        raise ShapeError(f"need a 2-d embedding matrix, got {mu.shape}")
    norms = np.sqrt(np.sum(mu ** 2, axis=1))
    den = np.outer(norms, norms) + EPS_NORM
    dots = np.sum(mu[:, None, :] * mu[None, :, :], axis=2)
    return 1.0 - dots / den


def mine_triplets(u: UncertainBatch, p: float, seed: int, epoch: int,
                  batch_index: int) -> TripletPlan:
    """Build the triplet plan for one batch.

    p in [0, 1] is the hard-mined fraction; floor(p * B) samples get both
    hardest partners, the rest get seeded uniform label-respecting ones.
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

    dist = pairwise_cosine_distances(mu)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(b, dtype=bool)

    rng = keyed_rng(seed, STREAM_MINE, epoch, batch_index)
    n_mined = int(np.floor(p * b))
    mined_mask = np.zeros(b, dtype=bool)
    mined_mask[rng.choice(b, size=n_mined, replace=False)] = True

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
                # farthest same-label sample; np.argmax takes the first
                # (lowest-index) maximum, which settles ties
                pos_index[i] = pos_cands[np.argmax(dist[i, pos_cands])]
            else:
                pos_index[i] = pos_cands[rng.integers(pos_cands.size)]
        if neg_cands.size:
            if mined_mask[i]:
                neg_index[i] = neg_cands[np.argmin(dist[i, neg_cands])]
            else:
                neg_index[i] = neg_cands[rng.integers(neg_cands.size)]
        else:
            neg_index[i] = i

    return TripletPlan(pos_index=pos_index, neg_index=neg_index,
                       mined_mask=mined_mask, valid_mask=valid_mask)
