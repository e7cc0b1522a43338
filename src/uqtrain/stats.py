"""Channel statistics of intermediate feature maps.

For a feature map F of shape (B, C, H, W) we track two levels:

* instance level: each sample's per-channel spatial mean and population
  std, both (B, C);
* batch level: the mean and population std of those instance statistics
  over the batch, four vectors of shape (C,).

The batch-level spreads say how much the instance statistics wobble
across the batch, which is exactly the scale the compensation module
uses for its perturbation draws.  No loss reads the two batch means, so
they are plain constants; the other four statistics carry gradients.
"""

from dataclasses import dataclass

from . import tensor as T
from .errors import DegenerateBatch, DegenerateSpatialDims, ShapeError


@dataclass
class LayerStats:
    """All statistics of one feature map; the batch means are constants."""

    instance_mean: T.DiffArray   # (B, C)
    instance_std: T.DiffArray    # (B, C)
    mean_of_means: T.DiffArray   # (C,), constant
    std_of_means: T.DiffArray    # (C,)
    mean_of_stds: T.DiffArray    # (C,), constant
    std_of_stds: T.DiffArray     # (C,)


def layer_stats(feat: T.DiffArray) -> LayerStats:
    """Both levels of statistics of a (B, C, H, W) map."""
    if feat.ndim != 4:
        raise ShapeError(f"layer_stats needs a 4-d map, got {feat.shape}")
    if feat.shape[2] * feat.shape[3] < 2:
        raise DegenerateSpatialDims(
            f"spatial std needs at least 2 positions, map is "
            f"{feat.shape[2]}x{feat.shape[3]}")
    if feat.shape[0] < 2:
        raise DegenerateBatch("batch statistics need at least 2 samples")
    u, s = T.spatial_mean(feat), T.spatial_std(feat)
    return LayerStats(instance_mean=u, instance_std=s,
                      mean_of_means=T.constant(u.values.mean(axis=0)),
                      std_of_means=T.batch_std(u),
                      mean_of_stds=T.constant(s.values.mean(axis=0)),
                      std_of_stds=T.batch_std(s))
