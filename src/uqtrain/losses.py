"""Uncertainty-weighted feature mixing and the training losses.

Each sample's embedding is blended with its positive and negative
partners using weights derived from the predicted sigmas, the blend is
classified, and the classification loss charges the blended features
with all three participating labels.  A squared-distance triplet term
on the raw means shapes the embedding geometry directly.

The blend, the cross entropy and the triplet term each record one tape
node (tensor.mix_partners, tensor.class_cross_entropy and
tensor.triplet_hinge) with a closed-form backward.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .heads import UncertainBatch
from .mining import TripletPlan


class MixedFeatures:
    """Blended embeddings and the per-branch weights that built them.

    Only features carries gradients.  The weights are constants, reported
    for inspection: (B, d), summing to one elementwise across the branches
    that exist; rows that could not be mixed carry f = mean, w = 1 and
    zero partner weights.  Training never reads them, so they are built
    the first time w_self, w_pos or w_neg is read, by calling weights:
    it returns a dict of the branches that exist ("self", "pos", "neg")
    to their arrays, and a missing branch reads as zeros.
    """

    def __init__(self, features: T.DiffArray,
                 weights: Callable[[], dict]):
        self.features = features    # (B, d)
        self._weights = weights
        self._built = None

    def _branch(self, name: str) -> T.DiffArray:
        if self._built is None:
            built = self._weights()
            zeros = np.zeros(self.features.shape)
            self._built = {n: T.constant(built.get(n, zeros))
                           for n in ("self", "pos", "neg")}
        return self._built[name]

    @property
    def w_self(self) -> T.DiffArray:   # (B, d), constant
        return self._branch("self")

    @property
    def w_pos(self) -> T.DiffArray:    # (B, d), constant
        return self._branch("pos")

    @property
    def w_neg(self) -> T.DiffArray:    # (B, d), constant
        return self._branch("neg")


def _partners(plan: TripletPlan, include_pos: bool,
              include_neg: bool) -> list[tuple[str, np.ndarray]]:
    """(branch, partner index) of the enabled branches, positive first."""
    return [(name, index) for name, index, on in
            (("pos", plan.pos_index, include_pos),
             ("neg", plan.neg_index, include_neg)) if on]


def mixup(u: UncertainBatch, plan: TripletPlan | None,
          include_pos: bool = True,
          include_neg: bool = True) -> MixedFeatures:
    """Blend each embedding with its partners, weighted by uncertainty.

    Each branch's weight is its own sigma divided by the sum of
    participating sigmas.  Rows where plan.valid_mask is False (or when
    both partner branches are switched off) degrade to the identity
    blend.  The blend is one tensor.mix_partners node; the identity path
    records nothing.  The reported weights are built when first read.
    """
    if plan is None or not (include_pos or include_neg):
        return MixedFeatures(u.mean,
                             lambda: {"self": np.ones(u.mean.shape)})

    partners = _partners(plan, include_pos, include_neg)
    features, weights = T.mix_partners(
        u.mean, u.sigma, [index for _, index in partners], plan.valid_mask)
    names = ["self"] + [name for name, _ in partners]
    return MixedFeatures(features, lambda: dict(zip(names, weights())))


def ce_loss(mixed: T.DiffArray, classifier: T.DiffArray,
            labels: np.ndarray, plan: TripletPlan | None = None,
            include_pos: bool = True,
            include_neg: bool = True) -> T.DiffArray:
    """Multi-label cross entropy over the blended features.

    Every sample is charged with its own label plus, when a valid plan is
    given, the labels of the partners blended into it, so the classifier
    must explain all ingredients of the mix.  Averaged over the batch;
    one tensor.class_cross_entropy node.
    """
    if mixed.ndim != 2:
        raise ContractError(f"ce_loss needs 2-d features, got {mixed.shape}")
    if classifier.ndim != 2 or classifier.shape[1] != mixed.shape[1]:
        raise ContractError(f"classifier {classifier.shape} does not match "
                            f"features {mixed.shape}")
    b = mixed.shape[0]
    k = classifier.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise ContractError(f"labels shape {labels.shape} does not match "
                            f"batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"labels outside [0, {k})")

    targets = np.zeros((b, k), dtype=np.float64)
    targets[np.arange(b), labels] += 1.0
    if plan is not None:
        if np.shape(plan.valid_mask) != (b,):
            raise ContractError(
                f"valid_mask shape {np.shape(plan.valid_mask)} does not "
                f"match batch {b}")
        rows = np.flatnonzero(plan.valid_mask)
        for _, index in _partners(plan, include_pos, include_neg):
            targets[rows, labels[index[rows]]] += 1.0

    return T.class_cross_entropy(mixed, classifier, targets)


def triplet_loss(u: UncertainBatch, plan: TripletPlan,
                 margin: float) -> T.DiffArray:
    """Hinged squared-distance triplet loss on the raw embedding means.

    sum_i max(||mu_i - mu_pos||^2 - ||mu_i - mu_neg||^2 + margin, 0)
    over the valid rows; a sum, not a mean, so each extra violating
    triplet adds its full cost.  One tensor.triplet_hinge node.
    """
    if not margin >= 0:
        raise ContractError(f"margin must be non-negative, got {margin}")
    return T.triplet_hinge(u.mean, plan.pos_index, plan.neg_index,
                           plan.valid_mask, float(margin))


@dataclass
class LossBreakdown:
    """The combined objective and its pieces, still differentiable."""

    total: T.DiffArray
    ce_term: T.DiffArray
    triplet_term: T.DiffArray

    def scalars(self) -> tuple[float, float, float]:
        return (float(self.total.values), float(self.ce_term.values),
                float(self.triplet_term.values))


def total_loss(ce_term: T.DiffArray, triplet_term: T.DiffArray,
               triplet_weight: float) -> LossBreakdown:
    """total = ce + triplet_weight * triplet, composed on the tape."""
    if triplet_weight < 0:
        raise ContractError(f"triplet weight must be non-negative, got "
                            f"{triplet_weight}")
    total = T.add(ce_term, T.scalar_mul(triplet_weight, triplet_term))
    return LossBreakdown(total=total, ce_term=ce_term,
                         triplet_term=triplet_term)
