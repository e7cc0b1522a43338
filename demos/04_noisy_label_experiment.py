"""Label noise, and what the full method does about it.

Trains two models on the same blob data with 30% of the train labels
flipped: a plain cross-entropy baseline and the full method
(compensation + mined triplets + uncertainty-weighted mixup).  The run
is smaller than the benchmark configuration so it finishes in well
under a minute; the direction of the result is the same.
"""

import argparse
from dataclasses import replace

import numpy as np

from uqtrain.config import TrainConfig
from uqtrain.data import NoiseSpec, corrupt_labels, make_blobs, split_dataset
from uqtrain.training import predict, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--noise", type=float, default=0.3)
    args = ap.parse_args()

    pool = make_blobs(4, 10, 900, 1.0, seed=args.seed)
    train, test = split_dataset(pool, 600)
    noisy = corrupt_labels(train, NoiseSpec(ratio=args.noise,
                                            seed=args.seed))
    flipped = noisy.labels != noisy.clean_labels
    print(f"{int(flipped.sum())} of {len(train)} train labels flipped "
          f"({args.noise:.0%}); test labels stay clean\n")

    cfg = TrainConfig(seed=args.seed, epochs=args.epochs)

    # the defaults are the full method; these four switches turn it off
    plain_ce = replace(cfg, compensation=False, use_positive_branch=False,
                       use_negative_branch=False, use_triplet_term=False)
    baseline = run_experiment(plain_ce, noisy, test)
    # the per-epoch test accuracy is in the history: no extra pass
    best = max(baseline.history, key=lambda row: row["test_acc"])
    print(f"plain cross-entropy baseline:  "
          f"test accuracy {baseline.report.accuracy:.4f} "
          f"(best {best['test_acc']:.4f}, after epoch {best['epoch'] + 1} "
          f"of {args.epochs})")

    full = run_experiment(cfg, noisy, test)
    print(f"full method:                   "
          f"test accuracy {full.report.accuracy:.4f}")

    gap = (full.report.accuracy - baseline.report.accuracy) * 100
    print(f"\ngap: {gap:+.2f} points at {args.noise:.0%} label noise")

    tail_base = [row["train_acc"] for row in baseline.history[-5:]]
    print(f"\nbaseline train accuracy over the last epochs: "
          f"{np.round(tail_base, 3)}")
    if flipped.any():
        print("\nshare of flipped train rows predicted as their noisy label:")
        for name, result in (("baseline", baseline), ("full method", full)):
            preds, _ = predict(result.net, noisy.features[flipped])
            share = np.mean(preds == noisy.labels[flipped])
            print(f"  {name:<12} {share:.1%}")


if __name__ == "__main__":
    main()
