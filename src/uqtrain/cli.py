"""Command line interface.

Subcommands:

* synth        generate blob datasets, optionally flipping train labels
* train        train a model from a config file plus --key value overrides
* eval         evaluate a checkpoint on a dataset
* reject-curve accuracy versus rejection-rate table for a checkpoint
* gradcheck    finite-difference audit of the autodiff core
* ablate       train the component ladder and tabulate accuracies

Exit codes: 0 success, 2 configuration/usage error, 3 numerical
divergence, 4 I/O or data-format error.
"""

import argparse
import ctypes
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .config import TrainConfig, apply_overrides, load_config_file
from .data import (
    NoiseSpec,
    corrupt_labels,
    load_dataset,
    make_blobs,
    save_dataset,
    split_dataset,
)
from .errors import (
    ConfigError,
    DataFormatError,
    GenerationError,
    NumericalDivergence,
    UqtrainError,
)
from .files import write_csv
from .heads import load_checkpoint
from .training import ABLATION_LADDER, class_count, evaluate, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

# glibc's mallopt parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_allocator() -> bool:
    """Fix glibc's malloc thresholds for the rest of the process.

    By default glibc maps each block above one threshold afresh and hands
    free heap above another back to the kernel, and raises both to the
    largest mapped block freed so far.  Whether a train step or a scoring
    pass faults its temporaries in again then depends on what the process
    happened to free before: in a 40-epoch full-method fit at the
    benchmark's shapes, each per-epoch evaluate took 437 minor page
    faults and each train step 32, against under 2 with the thresholds
    fixed.  Blocks up to 32 MiB now come from the heap, and up to 64 MiB
    of free heap stays mapped.  Returns False where the C library has no
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="config file of key = value lines")
    group = parser.add_argument_group("config overrides")
    for f in fields(TrainConfig):
        group.add_argument(f"--{f.name.replace('_', '-')}",
                           dest=f"cfg_{f.name}", default=None, metavar="V",
                           help=f"override {f.name}")


def _build_config(args) -> TrainConfig:
    cfg = TrainConfig()
    if args.config:
        cfg = load_config_file(args.config, cfg)
    overrides = {f.name: getattr(args, f"cfg_{f.name}")
                 for f in fields(TrainConfig)
                 if getattr(args, f"cfg_{f.name}") is not None}
    apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def _load_pair(cfg: TrainConfig):
    if not cfg.data_train or not cfg.data_test:
        raise ConfigError("data_train and data_test must both be set "
                          "(config file or --data-train/--data-test)")
    pair = load_dataset(cfg.data_train), load_dataset(cfg.data_test)
    class_count(*pair, names=(cfg.data_train, cfg.data_test))
    return pair


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    for flag, size in (("--train-size", args.train_size),
                       ("--test-size", args.test_size)):
        if size < 1:
            raise ConfigError(f"{flag} must be at least 1, got {size}")
    total = args.train_size + args.test_size
    pool = make_blobs(args.classes, args.features, total, args.spread,
                      args.seed)
    train, test = split_dataset(pool, args.train_size)
    if args.noise_ratio != 0:   # NaN and negatives reach the range check
        train = corrupt_labels(train, NoiseSpec(ratio=args.noise_ratio,
                                                seed=args.noise_seed))
    save_dataset(train, args.train_out)
    save_dataset(test, args.test_out)
    print(f"wrote {len(train)} train rows to {args.train_out}")
    print(f"wrote {len(test)} test rows to {args.test_out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _build_config(args)
    train_ds, test_ds = _load_pair(cfg)
    result = run_experiment(cfg, train_ds, test_ds, out_dir=args.out)
    acc = result.report.accuracy
    print(f"final test accuracy: {acc:.4f}")
    print(f"artifacts in {args.out}/ (run_*)")
    return EXIT_OK


def _report_rows(report) -> list:
    rows = [("accuracy", report.accuracy_by_rejection[0.0])]
    for r in sorted(report.accuracy_by_rejection):
        if r > 0:
            rows.append((f"accuracy_reject_{int(round(r * 100))}",
                         report.accuracy_by_rejection[r]))
    for c in sorted(report.per_class_accuracy):
        rows.append((f"class_{c}_accuracy", report.per_class_accuracy[c]))
    rows.append(("mean_sigma_correct", report.mean_sigma_correct))
    rows.append(("mean_sigma_wrong", report.mean_sigma_wrong))
    rows.append(("n_samples", report.n_samples))
    return rows


def _load_scored(args):
    """The checkpoint and the dataset it scores, of matching widths."""
    net, _ = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    width = net.arch["input_dim"]
    if ds.features.shape[1] != width:
        raise DataFormatError(f"{args.data} has {ds.features.shape[1]} "
                              f"feature columns, checkpoint "
                              f"{args.checkpoint} takes {width}")
    return net, ds


def cmd_eval(args) -> int:
    net, ds = _load_scored(args)
    report = evaluate(net, ds)
    rows = _report_rows(report)
    for name, value in rows:
        print(f"{name} = {value}")
    if args.out:
        write_csv(args.out, ["metric", "value"], rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_reject_curve(args) -> int:
    net, ds = _load_scored(args)
    try:
        rates = sorted(float(r) for r in args.rates.split(","))
    except ValueError:
        raise ConfigError(f"--rates must be comma-separated numbers, got "
                          f"{args.rates!r}") from None
    if any(not 0.0 <= r < 1.0 for r in rates):
        raise ConfigError("rejection rates must be in [0, 1)")
    accs = evaluate(net, ds, rates).accuracy_by_rejection
    rows = [(r, accs[r], len(ds) - int(np.floor(r * len(ds))))
            for r in rates]
    print("rate,accuracy,retained")
    for r, a, kept in rows:
        print(f"{r},{a},{kept}")
    if args.out:
        write_csv(args.out, ["rate", "accuracy", "retained"], rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    failures = run_gradcheck(n_seeds=args.seeds, verbose=True)
    if failures:
        print(f"gradcheck FAILED: {len(failures)} case(s) above tolerance")
        return EXIT_DIVERGED
    print("gradcheck passed")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    train_ds, test_ds = _load_pair(cfg)
    rows = []
    for tag, overrides in ABLATION_LADDER:
        result = run_experiment(replace(cfg, **overrides), train_ds, test_ds,
                                out_dir=args.out, tag=tag)
        acc = result.report.accuracy
        rows.append((tag, acc))
        print(f"{tag}: {acc:.4f}")
    table = os.path.join(args.out, "ablation.csv")
    write_csv(table, ["variant", "test_accuracy"], rows)
    print(f"wrote {table}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqtrain",
        description="uncertainty-aware robust training on synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate blob datasets")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--features", type=int, default=10)
    p.add_argument("--train-size", type=int, default=2000)
    p.add_argument("--test-size", type=int, default=1000)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-ratio", type=float, default=0.0,
                   help="fraction of train labels to flip")
    p.add_argument("--noise-seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    _add_config_arguments(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="also write a metrics CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reject-curve",
                       help="accuracy after rejecting uncertain samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rates", default="0,0.1,0.2,0.3")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reject_curve)

    p = sub.add_parser("gradcheck",
                       help="finite-difference audit of the autodiff core")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train the component ladder")
    _add_config_arguments(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_allocator()
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalDivergence as e:
        print(f"numerical divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataFormatError, GenerationError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except UqtrainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
