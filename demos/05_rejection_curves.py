"""Selective prediction: skip the samples the model distrusts.

After training under label noise, each test sample carries a predicted
sigma.  Ranking by that score and rejecting the most uncertain fraction
should raise the accuracy on what remains; how fast it rises is a
direct read on whether the sigma head learned anything real.
"""

import argparse

import numpy as np

from uqtrain.config import TrainConfig
from uqtrain.data import corrupt_labels, make_blobs, split_dataset
from uqtrain.training import evaluate, predict, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=100)
    args = ap.parse_args()

    # the sigma head needs the benchmark scale to calibrate; smaller
    # runs train fine but rank their own mistakes poorly
    pool = make_blobs(4, 10, 3000, 1.0, seed=args.seed)
    train, test = split_dataset(pool, 2000)
    noisy = corrupt_labels(train, 0.3, args.seed)

    cfg = TrainConfig(seed=args.seed, epochs=args.epochs)
    result = run_experiment(cfg, noisy, test)

    rates = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    report = evaluate(result.net, test, rates=rates)

    print("rejection rate   retained   accuracy")
    n = len(test)
    for r in rates:
        kept = n - int(np.floor(r * n))
        print(f"     {r:>4.0%}        {kept:>5}     "
              f"{report.accuracy_by_rejection[r]:.4f}")

    print(f"\nmean sigma on correct predictions: "
          f"{report.mean_sigma_correct:.4f}")
    print(f"mean sigma on wrong predictions:   "
          f"{report.mean_sigma_wrong:.4f}")

    preds, scores = predict(result.net, test.features)
    worst = np.argsort(-scores)[:5]
    print(f"\nfive most distrusted samples: indices {worst.tolist()}")
    print(f"their predictions: {preds[worst].tolist()}, "
          f"true labels: {test.labels[worst].tolist()}")


if __name__ == "__main__":
    main()
