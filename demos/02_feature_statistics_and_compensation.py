"""Statistic perturbation on a feature map, step by step.

A feature map is summarized by its per-instance channel statistics; the
batch-level spread of those statistics tells us how much they wobble
across samples.  Compensation re-normalizes the map and re-injects the
statistics jittered by that spread, so a network trained under it stops
trusting any one map's exact mean and scale.
"""

import numpy as np

import uqtrain.tensor as T
from uqtrain.compensation import (PerturbationDraw, compensate,
                                  draw_perturbation)
from uqtrain.stats import layer_stats


def main():
    rng = np.random.default_rng(7)
    # 4 samples, 3 channels, 6x6 spatial, different scale per sample
    x = rng.standard_normal((4, 3, 6, 6)) * np.array(
        [0.5, 1.0, 2.0, 4.0])[:, None, None, None]
    feat = T.constant(x)
    st = layer_stats(x)

    print("instance stds by sample (rows) and channel (cols):")
    print(np.round(st.instance_std, 3))
    print(f"spread of the means across the batch:  "
          f"{np.round(st.std_of_means, 3)}")
    print(f"spread of the stds across the batch:   "
          f"{np.round(st.std_of_stds, 3)}")

    zero = PerturbationDraw(eps_mean=np.zeros((4, 3)),
                            eps_std=np.zeros((4, 3)))
    identity = compensate(feat, st, zero)
    print(f"\nzero noise deviation from the input: "
          f"{np.abs(identity.values - x).max():.2e} "
          f"(the transform collapses to the identity)")

    draw = draw_perturbation(4, 3, seed=0, epoch=0, batch_index=0,
                             layer_index=1)
    out = compensate(feat, st, draw)
    shift = np.abs(out.values - x).mean(axis=(1, 2, 3))
    print(f"per-sample mean absolute shift under a real draw: "
          f"{np.round(shift, 3)}")
    print("(samples whose statistics wobble more get shifted more)")

    # the same key always yields the same noise; the next batch differs
    again = draw_perturbation(4, 3, seed=0, epoch=0, batch_index=0,
                              layer_index=1)
    other = draw_perturbation(4, 3, seed=0, epoch=0, batch_index=1,
                              layer_index=1)
    print(f"\nsame (seed, epoch, batch, layer) reproduces the draw: "
          f"{np.array_equal(draw.eps_mean, again.eps_mean)}")
    print(f"a different batch index changes it: "
          f"{not np.array_equal(draw.eps_mean, other.eps_mean)}")


if __name__ == "__main__":
    main()
