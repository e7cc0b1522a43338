"""End-to-end checks of the command line interface, run in-process."""

import base64
import csv
import json
import os
import platform
import subprocess
import sys
import textwrap
import time
import warnings
from inspect import getmembers, isclass
from types import SimpleNamespace

import numpy as np
import pytest

import uqtrain
import uqtrain.cli as cli
import uqtrain.errors as errors
import uqtrain.training as training
from uqtrain.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
from uqtrain.data import LabeledDataset, load_dataset, save_dataset
from uqtrain.heads import (build_vector_network, load_checkpoint,
                           save_checkpoint)
from uqtrain.training import MAX_MODEL_VALUES


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Small synthetic train/test pair shared by the command tests."""
    d = tmp_path_factory.mktemp("cli_data")
    train = os.path.join(d, "train.csv")
    test = os.path.join(d, "test.csv")
    code = main(["synth", "--train-out", train, "--test-out", test,
                 "--classes", "3", "--features", "6",
                 "--train-size", "90", "--test-size", "45",
                 "--spread", "1.0", "--seed", "0"])
    assert code == EXIT_OK
    return {"train": train, "test": test, "dir": str(d)}


def fast_args(data):
    return ["--data-train", data["train"], "--data-test", data["test"],
            "--epochs", "2", "--batch-size", "16", "--embed-dim", "8",
            "--hidden-grid", "4x2x2", "--head-lr-multiplier", "1.0"]


def test_synth_writes_loadable_datasets(data_dir, capsys):
    train = load_dataset(data_dir["train"])
    test = load_dataset(data_dir["test"])
    assert len(train) == 90 and len(test) == 45
    assert train.features.shape == (90, 6)
    assert set(np.unique(train.labels)) == {0, 1, 2}


def test_synth_noise_flips_exact_fraction(tmp_path):
    clean_t = os.path.join(tmp_path, "ct.csv")
    clean_v = os.path.join(tmp_path, "cv.csv")
    noisy_t = os.path.join(tmp_path, "nt.csv")
    noisy_v = os.path.join(tmp_path, "nv.csv")
    base = ["--classes", "3", "--features", "6", "--train-size", "90",
            "--test-size", "30", "--seed", "7"]
    assert main(["synth", "--train-out", clean_t, "--test-out", clean_v]
                + base) == EXIT_OK
    assert main(["synth", "--train-out", noisy_t, "--test-out", noisy_v,
                 "--noise-ratio", "0.3"] + base) == EXIT_OK
    clean = load_dataset(clean_t)
    noisy = load_dataset(noisy_t)
    np.testing.assert_array_equal(clean.features, noisy.features)
    assert int(np.sum(clean.labels != noisy.labels)) == 27
    # test split is never corrupted
    np.testing.assert_array_equal(load_dataset(clean_v).labels,
                                  load_dataset(noisy_v).labels)


def test_train_writes_artifacts(data_dir, tmp_path, capsys):
    out = os.path.join(tmp_path, "run")
    code = main(["train", "--out", out] + fast_args(data_dir))
    assert code == EXIT_OK
    assert "final test accuracy:" in capsys.readouterr().out
    for name in ("run_checkpoint.json", "run_metrics.csv",
                 "run_config.txt"):
        assert os.path.exists(os.path.join(out, name))
    net, extra = load_checkpoint(os.path.join(out, "run_checkpoint.json"))
    assert extra["seed"] == 0


def test_train_replay_is_byte_identical(data_dir, tmp_path):
    """Same inputs, two runs: every artifact byte must match."""
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    assert main(["train", "--out", out_a] + fast_args(data_dir)) == EXIT_OK
    assert main(["train", "--out", out_b] + fast_args(data_dir)) == EXIT_OK
    for name in ("run_checkpoint.json", "run_metrics.csv"):
        with open(os.path.join(out_a, name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(out_b, name), "rb") as fb:
            b = fb.read()
        assert a == b, name


def test_config_echo_reproduces_the_run(data_dir, tmp_path):
    """Re-ingesting the echoed config must rebuild the exact run."""
    out_a = os.path.join(tmp_path, "orig")
    assert main(["train", "--out", out_a, "--seed", "3", "--lr", "0.005"]
                + fast_args(data_dir)) == EXIT_OK
    echo = os.path.join(out_a, "run_config.txt")

    out_b = os.path.join(tmp_path, "replay")
    assert main(["train", "--out", out_b, "--config", echo]) == EXIT_OK
    for name in ("run_checkpoint.json", "run_metrics.csv"):
        with open(os.path.join(out_a, name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(out_b, name), "rb") as fb:
            b = fb.read()
        assert a == b, name


def test_eval_prints_metrics_and_writes_csv(data_dir, tmp_path, capsys):
    out = os.path.join(tmp_path, "run")
    assert main(["train", "--out", out] + fast_args(data_dir)) == EXIT_OK
    capsys.readouterr()
    csv_path = os.path.join(tmp_path, "eval.csv")
    code = main(["eval",
                 "--checkpoint", os.path.join(out, "run_checkpoint.json"),
                 "--data", data_dir["test"], "--out", csv_path])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "accuracy = " in text
    assert "mean_sigma_correct = " in text
    with open(csv_path) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "metric,value"
    assert any(line.startswith("accuracy,") for line in lines)


def test_reject_curve_table(data_dir, tmp_path, capsys):
    out = os.path.join(tmp_path, "run")
    assert main(["train", "--out", out] + fast_args(data_dir)) == EXIT_OK
    capsys.readouterr()
    code = main(["reject-curve",
                 "--checkpoint", os.path.join(out, "run_checkpoint.json"),
                 "--data", data_dir["test"], "--rates", "0,0.2"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "rate,accuracy,retained"
    rows = [line.split(",") for line in lines[1:3]]
    assert int(rows[0][2]) == 45           # keeps everything at rate 0
    assert int(rows[1][2]) == 45 - int(np.floor(0.2 * 45))


def test_reject_curve_rejects_bad_rates(data_dir, tmp_path, capsys):
    out = os.path.join(tmp_path, "run")
    assert main(["train", "--out", out] + fast_args(data_dir)) == EXIT_OK
    code = main(["reject-curve",
                 "--checkpoint", os.path.join(out, "run_checkpoint.json"),
                 "--data", data_dir["test"], "--rates", "0,1.5"])
    assert code == EXIT_CONFIG


def read_csv_rows(path):
    with open(path) as f:
        return [line.split(",") for line in f.read().strip().split("\n")]


def test_scoring_depends_only_on_checkpoint_and_data(data_dir, tmp_path,
                                                     capsys):
    """eval and reject-curve take no settings, so a model trained with
    non-default ones scores exactly as its last metrics row says."""
    out = os.path.join(tmp_path, "run")
    assert main(["train", "--out", out, "--compensation", "false",
                 "--mined-fraction", "0.5"]
                + fast_args(data_dir)) == EXIT_OK
    history = read_csv_rows(os.path.join(out, "run_metrics.csv"))
    last = dict(zip(history[0], history[-1]))
    expect = [float(last[c]) for c in ("test_acc", "rej10", "rej20",
                                       "rej30")]
    checkpoint = os.path.join(out, "run_checkpoint.json")
    eval_csv = os.path.join(tmp_path, "eval.csv")
    curve_csv = os.path.join(tmp_path, "curve.csv")
    assert main(["eval", "--checkpoint", checkpoint, "--data",
                 data_dir["test"], "--out", eval_csv]) == EXIT_OK
    assert main(["reject-curve", "--checkpoint", checkpoint, "--data",
                 data_dir["test"], "--out", curve_csv]) == EXIT_OK
    metrics = dict(read_csv_rows(eval_csv)[1:])
    assert [float(metrics[m]) for m in (
        "accuracy", "accuracy_reject_10", "accuracy_reject_20",
        "accuracy_reject_30")] == expect
    assert [float(row[1]) for row in read_csv_rows(curve_csv)[1:]] == expect

    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", checkpoint, "--data", data_dir["test"],
              "--uncertainty-score", "max"])
    assert exc.value.code == EXIT_CONFIG


def test_gradcheck_command_passes(capsys):
    code = main(["gradcheck", "--seeds", "2"])
    assert code == EXIT_OK
    assert "gradcheck passed" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_gradcheck_without_seeds_is_a_config_error(seeds, capsys):
    code = main(["gradcheck", "--seeds", seeds])
    assert code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "--seeds must be at least 1" in err
    assert "gradcheck passed" not in out


CHURN = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from uqtrain import cli
    if sys.argv[1] == "pin":
        assert cli._pin_allocator()

    def churn():
        # 6.4 MiB of 64 KiB blocks, each below glibc's default mmap size
        blocks = [np.ones(8192) for _ in range(100)]
        del blocks

    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        churn()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt is glibc's")
def test_pinned_allocator_keeps_freed_heap_mapped():
    """Freeing a heap's worth of mid-size blocks and allocating them
    again: glibc's default thresholds hand the pages back and fault them
    in again every round; pinned by the CLI, they stay mapped."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(uqtrain.__file__))
    faults = {}
    for mode in ("default", "pin"):
        run = subprocess.run([sys.executable, "-c", CHURN, mode], env=env,
                             capture_output=True, text=True, check=True)
        faults[mode] = int(run.stdout)
    assert faults["default"] > 5000
    assert faults["pin"] < 100


def test_ablate_writes_ladder_table(data_dir, tmp_path, capsys):
    out = os.path.join(tmp_path, "ablation")
    code = main(["ablate", "--out", out] + fast_args(data_dir))
    assert code == EXIT_OK
    table = os.path.join(out, "ablation.csv")
    with open(table) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "variant,test_accuracy"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["baseline", "compensation", "compensation+pos",
                     "compensation+neg", "compensation+pos+neg", "full"]

    # a ladder entry means exactly its four `train` flags
    switches_off = ["--compensation", "false", "--use-positive-branch",
                    "false", "--use-negative-branch", "false",
                    "--use-triplet-term", "false"]
    for tag, flags in (("full", []), ("baseline", switches_off)):
        run = os.path.join(tmp_path, tag)
        assert main(["train", "--out", run] + fast_args(data_dir)
                    + flags) == EXIT_OK
        for suffix in ("checkpoint.json", "metrics.csv", "config.txt"):
            with open(os.path.join(run, f"run_{suffix}"), "rb") as fa:
                a = fa.read()
            with open(os.path.join(out, f"{tag}_{suffix}"), "rb") as fb:
                b = fb.read()
            assert a == b, (tag, suffix)


def test_bad_config_key_exits_2(data_dir, tmp_path, capsys):
    bad = os.path.join(tmp_path, "bad.cfg")
    with open(bad, "w") as f:
        f.write("epochs = 2\nlearning_rate_typo = 0.1\n")
    code = main(["train", "--out", os.path.join(tmp_path, "x"),
                 "--config", bad])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    # keys an older config echo may carry fail the same way, by name
    for key in ("compensation_batch_stats", "uncertainty_score", "sampler",
                "compensation_layers"):
        with open(bad, "w") as f:
            f.write(f"epochs = 2\n{key} = x\n")
        code = main(["train", "--out", os.path.join(tmp_path, "x"),
                     "--config", bad])
        assert code == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err


def test_nul_byte_in_config_data_path_exits_2(data_dir, tmp_path, capsys):
    """open() cannot take a NUL byte, so validate() refuses the path
    before any work starts: one stderr line, no traceback."""
    cfg = os.path.join(tmp_path, "nul.cfg")
    with open(cfg, "w") as f:
        f.write(f"data_train = a\0b.csv\ndata_test = {data_dir['test']}\n")
    out = os.path.join(tmp_path, "x")
    code = main(["train", "--out", out, "--config", cfg])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: data_train") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_divergent_run_exits_3(data_dir, tmp_path, capsys):
    """Exit 3 prints its one documented line: numpy warns of no overflow
    on the way to the non-finite loss."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--out", os.path.join(tmp_path, "x")]
                    + fast_args(data_dir) + ["--lr", "1e150",
                                             "--epochs", "3"])
    assert code == EXIT_DIVERGED
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical divergence: loss became nan")
    assert err.count("\n") == 1


@pytest.mark.parametrize("pos, neg", [("false", "true"), ("true", "false"),
                                      ("false", "false")])
def test_triplet_term_without_a_branch_exits_2(data_dir, tmp_path, capsys,
                                                pos, neg):
    code = main(["train", "--out", os.path.join(tmp_path, "x")]
                + fast_args(data_dir) + ["--use-positive-branch", pos,
                                         "--use-negative-branch", neg])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    off = [f"use_{side}_branch = false"
           for side, value in (("positive", pos), ("negative", neg))
           if value == "false"]
    assert err == ("config error: use_triplet_term needs both partner "
                   f"branches, got {', '.join(off)}; set use_triplet_term "
                   "false\n")
    assert not os.path.exists(os.path.join(tmp_path, "x"))


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("flag, value, key", [
    ("--embed-dim", "100000000000000000000", "embed_dim"),
    ("--hidden-grid", "100000000000000000x2x2", "hidden_grid"),
    ("--embed-dim", "3000000000", "embed_dim"),
    ("--num-blocks", "100000000000", "num_blocks")])
def test_oversized_architecture_exits_2_before_allocating(
        data_dir, tmp_path, capsys, command, flag, value, key):
    """The size bound is arithmetic on the config: no network, list of
    grids or parameter array is built, so each refusal takes
    milliseconds, prints one line and creates no --out directory."""
    out = os.path.join(tmp_path, "x")
    start = time.perf_counter()
    code = main([command, "--out", out] + fast_args(data_dir) + [flag, value])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} = {value}: ")
    assert f"bound of {MAX_MODEL_VALUES}\n" in err
    assert err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_out_naming_a_file_exits_4_before_training(
        data_dir, tmp_path, monkeypatch, command):
    """The --out directory is made before the first train step, so an
    --out that names a file fails at once."""
    def forbidden(*args, **kwargs):
        raise AssertionError("train_step ran")

    monkeypatch.setattr(training, "train_step", forbidden)
    out = os.path.join(tmp_path, "x")
    open(out, "w").close()
    assert main([command, "--out", out] + fast_args(data_dir)) == EXIT_IO


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["lr", "weight_decay", "head_lr_multiplier",
                                   "triplet_weight", "margin"])
def test_non_finite_setting_exits_2(data_dir, tmp_path, capsys, field, value):
    with np.errstate(all="ignore"):
        code = main(["train", "--out", os.path.join(tmp_path, "x")]
                    + fast_args(data_dir)
                    + [f"--{field.replace('_', '-')}", value])
    assert code == EXIT_CONFIG
    assert f"config error: {field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--noise-ratio", "nan"),
                                         ("--noise-ratio", "-0.1"),
                                         ("--spread", "nan"),
                                         ("--spread", "inf")])
def test_synth_rejects_bad_generator_setting(tmp_path, capsys, flag, value):
    train = os.path.join(tmp_path, "t.csv")
    code = main(["synth", "--train-out", train,
                 "--test-out", os.path.join(tmp_path, "v.csv"),
                 "--train-size", "90", "--test-size", "30", flag, value])
    assert code == EXIT_CONFIG
    assert flag[2:].replace("-", " ") in capsys.readouterr().err
    assert not os.path.exists(train)


@pytest.mark.parametrize("flag, value", [("--train-size", "0"),
                                         ("--train-size", "-5"),
                                         ("--test-size", "0")])
def test_synth_size_below_one_names_its_flag(tmp_path, capsys, flag, value):
    train = os.path.join(tmp_path, "t.csv")
    code = main(["synth", "--train-out", train,
                 "--test-out", os.path.join(tmp_path, "v.csv"),
                 "--train-size", "90", "--test-size", "30", flag, value])
    assert code == EXIT_CONFIG
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not os.path.exists(train)


ROWS_TIMES_FEATURES = "(--train-size + --test-size) * --features"


@pytest.mark.parametrize("args, flags", [
    (["--features", "100000000000"], ROWS_TIMES_FEATURES),
    (["--test-size", "100000000000000"], ROWS_TIMES_FEATURES),
    (["--classes", "30000", "--train-size", "60000"],
     "--classes ** 2 * --features")],
    ids=["features", "test-size", "classes"])
def test_synth_past_the_size_bound_exits_2_before_allocating(
        tmp_path, capsys, args, flags):
    """The generated features and make_blobs' (K, K, D) center differences
    are counted by arithmetic against the bound train applies, so each
    refusal takes milliseconds, prints one line and writes no file."""
    start = time.perf_counter()
    code = main(["synth", "--train-out", os.path.join(tmp_path, "t.csv"),
                 "--test-out", os.path.join(tmp_path, "v.csv")] + args)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flags}: ")
    assert err.endswith(f"values, more than the bound of {MAX_MODEL_VALUES}\n")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", ["-1", str(2**64)])
@pytest.mark.parametrize("flag", ["--seed", "--noise-seed"])
@pytest.mark.parametrize("ratio", ["0", "0.3"])
def test_synth_seed_outside_the_key_range_exits_2(tmp_path, capsys, flag,
                                                   value, ratio):
    """Philox keys are 64-bit: a seed outside [0, 2**64) would draw the
    same data as one inside, so it is refused whether or not labels are
    flipped."""
    code = main(["synth", "--train-out", os.path.join(tmp_path, "t.csv"),
                 "--test-out", os.path.join(tmp_path, "v.csv"),
                 "--train-size", "90", "--test-size", "30",
                 "--noise-ratio", ratio, flag, value])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {flag} must be in [0, 2**64), got {value}\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", ["-1", str(2**64)])
def test_train_seed_outside_the_key_range_exits_2(data_dir, tmp_path, capsys,
                                                  value, via):
    """--seed 2**64 used to train the run of --seed 0, and --seed -1 that
    of 2**64 - 1; either, as a flag or in a config echo, is refused."""
    if via == "flag":
        args = fast_args(data_dir) + ["--seed", value]
    else:
        cfg = os.path.join(tmp_path, "seed.cfg")
        with open(cfg, "w") as f:
            f.write(f"seed = {value}\n")
        args = fast_args(data_dir) + ["--config", cfg]
    out = os.path.join(tmp_path, "x")
    assert main(["train", "--out", out] + args) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: seed must be in [0, 2**64), got {value}\n")
    assert not os.path.exists(out)


def test_failed_artifact_write_names_the_target(data_dir, tmp_path, capsys):
    """An --out whose directory is missing exits 4 naming the file asked
    for, not the temp file beside it, and leaves no temp file."""
    ck = os.path.join(tmp_path, "ck.json")
    save_checkpoint(build_vector_network(6, 3, 8, [(4, 2, 2)], seed=0), ck)
    out = os.path.join(tmp_path, "missing_dir", "x.csv")
    code = main(["eval", "--checkpoint", ck, "--data", data_dir["test"],
                 "--out", out])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"{out}'" in err and ".tmp" not in err
    assert os.listdir(tmp_path) == ["ck.json"]


def test_missing_data_file_exits_4(tmp_path, capsys):
    code = main(["train", "--out", os.path.join(tmp_path, "x"),
                 "--data-train", "/nonexistent/a.csv",
                 "--data-test", "/nonexistent/b.csv",
                 "--epochs", "1"])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_missing_checkpoint_exits_4(data_dir, capsys):
    code = main(["eval", "--checkpoint", "/nonexistent/ck.json",
                 "--data", data_dir["test"]])
    assert code == EXIT_IO


# the exit code and stderr prefix of every class in errors; a class
# missing here fails the test below until its line of the table is added
EXIT_TABLE = {
    "UqtrainError": (EXIT_CONFIG, "error: "),
    "ContractError": (EXIT_CONFIG, "error: "),
    "ConfigError": (EXIT_CONFIG, "config error: "),
    "NumericalDivergence": (EXIT_DIVERGED, "numerical divergence: "),
    "DataFormatError": (EXIT_IO, "i/o error: "),
}


@pytest.mark.parametrize("name", sorted(
    name for name, obj in getmembers(errors, isclass)
    if obj.__module__ == errors.__name__))
def test_every_error_type_has_its_exit_code(name, capsys, monkeypatch):
    def cmd_gradcheck(args):
        raise getattr(errors, name)("the message")
    monkeypatch.setattr(cli, "cmd_gradcheck", cmd_gradcheck)
    code, prefix = EXIT_TABLE[name]
    assert main(["gradcheck", "--seeds", "1"]) == code
    assert capsys.readouterr().err == f"{prefix}the message\n"


def test_unplaceable_centers_exit_2(tmp_path, capsys):
    """Centers that cannot be placed are a bad argument to make_blobs,
    like its others: exit 2, and exit 4 is left to files."""
    code = main(["synth", "--train-out", os.path.join(tmp_path, "t.csv"),
                 "--test-out", os.path.join(tmp_path, "v.csv"),
                 "--classes", "4", "--features", "1", "--spread", "5"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: could not place 4 centers")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def _list_payload(blob):
    return [blob]


def _no_arch(blob):
    del blob["arch"]
    return blob


def _arch_without_embed_dim(blob):
    del blob["arch"]["embed_dim"]
    return blob


def _non_base64_data(blob):
    blob["params"]["classifier"]["data"] = "not base64"
    return blob


def _truncated_buffer(blob):
    entry = blob["params"]["classifier"]
    raw = base64.b64decode(entry["data"])
    entry["data"] = base64.b64encode(raw[:-3]).decode("ascii")
    return blob


def _oversized_grids(blob):
    """An arch whose first block would take 7.28 TiB; the buffers are the
    small network's."""
    blob["arch"]["grids"] = [[100000, 1000, 1000], [16, 2, 2]]
    return blob


def _zero_width_embedding(blob):
    """embed_dim 0 with buffers of matching (0-wide) shapes: consistent,
    but it scores nothing."""
    blob["arch"]["embed_dim"] = 0
    params = blob["params"]
    for name in ("mean_w", "mean_b", "sigma_w", "sigma_b", "classifier"):
        shape = params[name]["shape"][:-1] + [0]
        params[name] = {"shape": shape, "data": ""}
    return blob


def _set_buffer(blob, name, index, value):
    entry = blob["params"][name]
    arr = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
    arr[index] = value
    entry["data"] = base64.b64encode(arr.tobytes()).decode("ascii")
    return blob


def _nan_parameter(blob):
    """One NaN in the classifier: argmax would pick its column."""
    return _set_buffer(blob, "classifier", 5, np.nan)


def _inf_parameter(blob):
    """An all-inf sigma head: every sigma would read nan."""
    return _set_buffer(blob, "sigma_w", slice(None), np.inf)


@pytest.mark.parametrize("corrupt", [
    _list_payload, _no_arch, _arch_without_embed_dim, _non_base64_data,
    _truncated_buffer, _oversized_grids, _zero_width_embedding,
    _nan_parameter, _inf_parameter],
    ids=lambda f: f.__name__.lstrip("_"))
def test_malformed_checkpoint_exits_4(data_dir, tmp_path, capsys, corrupt):
    path = os.path.join(tmp_path, "ck.json")
    save_checkpoint(build_vector_network(6, 3, 8, [(4, 2, 2)] * 2), path)
    with open(path) as f:
        blob = json.load(f)
    with open(path, "w") as f:
        json.dump(corrupt(blob), f)
    code = main(["eval", "--checkpoint", path, "--data", data_dir["test"]])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate", "eval",
                                     "reject-curve"])
def test_feature_width_mismatch_exits_4(data_dir, tmp_path, capsys,
                                        command):
    """Data one column narrower than the train data (train, ablate) or
    than the checkpoint's input (eval, reject-curve) fails before any
    work; run_experiment's refusal names the test and the train file."""
    narrow = os.path.join(tmp_path, "narrow.csv")
    assert main(["synth", "--train-out", narrow,
                 "--test-out", os.path.join(tmp_path, "unused.csv"),
                 "--classes", "3", "--features", "5", "--train-size", "30",
                 "--test-size", "15"]) == EXIT_OK
    capsys.readouterr()
    if command in ("train", "ablate"):
        args = [command, "--out", os.path.join(tmp_path, "x")] \
            + fast_args(dict(data_dir, test=narrow))
    else:
        ck = os.path.join(tmp_path, "ck.json")
        save_checkpoint(build_vector_network(6, 3, 8, [(4, 2, 2)] * 2), ck)
        args = [command, "--checkpoint", ck, "--data", narrow]
    assert main(args) == EXIT_IO
    captured = capsys.readouterr()
    assert "i/o error" in captured.err
    assert "5 feature columns" in captured.err and "6" in captured.err
    if command in ("train", "ablate"):
        assert captured.err == (f"i/o error: {narrow} has 5 feature "
                                f"columns, {data_dir['train']} has 6\n")
    assert captured.out == ""
    assert not os.path.exists(os.path.join(tmp_path, "x"))


def test_gradient_overflow_exits_3(data_dir, tmp_path, capsys):
    """Features near 1e150 keep the loss finite but overflow Adam's g * g;
    the run stops instead of freezing the parameter and exiting 0."""
    ds = load_dataset(data_dir["train"])
    huge = os.path.join(tmp_path, "huge.csv")
    save_dataset(LabeledDataset(ds.features[:40] * 1e150, ds.labels[:40]),
                 huge)
    with np.errstate(all="ignore"):
        code = main(["train", "--out", os.path.join(tmp_path, "x")]
                    + fast_args(dict(data_dir, train=huge)))
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "numerical divergence" in err and "gradient of" in err
    assert not os.path.exists(os.path.join(tmp_path, "x", "run_metrics.csv"))


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("cell, what", [
    ("-1", "negative label -1"), ("nan", "non-finite feature"),
    ("-inf", "non-finite feature"),
    ("99999999999999999999",
     "label 99999999999999999999 does not fit in int64")],
    ids=["label", "nan", "inf", "int64-label"])
def test_bad_data_row_exits_4(data_dir, tmp_path, capsys, command, cell,
                              what):
    """A negative or out-of-int64 label or a non-finite feature on line 3
    fails at load, naming the file and the line."""
    with open(data_dir["test"]) as f:
        lines = f.read().splitlines()
    cells = lines[2].split(",")
    cells[-1 if "label" in what else 0] = cell
    lines[2] = ",".join(cells)
    bad = os.path.join(tmp_path, "bad.csv")
    with open(bad, "w") as f:
        f.write("\n".join(lines) + "\n")
    if command == "train":
        args = ["train", "--out", os.path.join(tmp_path, "x")] \
            + fast_args(dict(data_dir, train=bad))
    else:
        ck = os.path.join(tmp_path, "ck.json")
        save_checkpoint(build_vector_network(6, 3, 8, [(4, 2, 2)] * 2), ck)
        args = ["eval", "--checkpoint", ck, "--data", bad]
    assert main(args) == EXIT_IO
    captured = capsys.readouterr()
    assert f"i/o error: {bad}:3: {what}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_oversized_label_exits_4(data_dir, tmp_path, capsys, command):
    """A train label of 10**10 would size the classifier for 10**10 + 1
    classes; the run stops at load, naming the file and the label."""
    with open(data_dir["train"]) as f:
        lines = f.read().splitlines()
    cells = lines[4].split(",")
    cells[-1] = "10000000000"
    lines[4] = ",".join(cells)
    bad = os.path.join(tmp_path, "bad.csv")
    with open(bad, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = os.path.join(tmp_path, "x")
    assert main([command, "--out", out]
                + fast_args(dict(data_dir, train=bad))) == EXIT_IO
    captured = capsys.readouterr()
    assert (f"i/o error: {bad}: largest label 10000000000 implies "
            "10000000001 classes, more than the 135 rows") in captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_single_class_data_exits_4(data_dir, tmp_path, capsys, command):
    """A train/test pair whose labels are all 0 holds one class; the run
    stops at load with a data error naming both files."""
    paths = {}
    for split in ("train", "test"):
        with open(data_dir[split]) as f:
            rows = [line.rsplit(",", 1)[0] + ",0"
                    for line in f.read().splitlines()]
        paths[split] = os.path.join(tmp_path, f"{split}0.csv")
        with open(paths[split], "w") as f:
            f.write("\n".join(rows) + "\n")
    out = os.path.join(tmp_path, "x")
    assert main([command, "--out", out]
                + fast_args(dict(data_dir, **paths))) == EXIT_IO
    captured = capsys.readouterr()
    assert (f"i/o error: {paths['train']} and {paths['test']}: labels "
            "imply 1 class(es)") in captured.err
    assert "at least 2" in captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_one_row_train_set_exits_4(data_dir, tmp_path, capsys, command):
    """A 1-row train CSV makes no train batch; the run stops at load
    with a data error naming the file."""
    with open(data_dir["train"]) as f:
        first = f.read().splitlines()[0]
    one = os.path.join(tmp_path, "one.csv")
    with open(one, "w") as f:
        f.write(first + "\n")
    out = os.path.join(tmp_path, "x")
    assert main([command, "--out", out]
                + fast_args(dict(data_dir, train=one))) == EXIT_IO
    captured = capsys.readouterr()
    assert (f"i/o error: {one}: 1 row(s), a train step needs at least 2 "
            "samples") in captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["eval", "reject-curve", "ablate"])
def test_failed_csv_write_keeps_previous_file(data_dir, tmp_path, capsys,
                                              monkeypatch, command):
    """A CSV output whose write dies after its header leaves the previous
    file's bytes and no temp file."""
    if command == "ablate":
        folder = os.path.join(tmp_path, "ablation")
        target = os.path.join(folder, "ablation.csv")
        args = ["ablate", "--out", folder] + fast_args(data_dir)
    else:
        folder = str(tmp_path)
        target = os.path.join(folder, "out.csv")
        ck = os.path.join(folder, "ck.json")
        save_checkpoint(build_vector_network(6, 3, 8, [(4, 2, 2)] * 2), ck)
        args = [command, "--checkpoint", ck, "--data", data_dir["test"],
                "--out", target]
    assert main(args) == EXIT_OK
    names = sorted(os.listdir(folder))
    with open(target, "rb") as f:
        before = f.read()

    real_writer = csv.writer

    def writer_failing_after_header(fh):
        writer = real_writer(fh)
        if not fh.name.startswith(target):
            return writer
        written = []

        def writerow(row):
            if written:
                raise OSError("disk full")
            written.append(row)
            return writer.writerow(row)
        return SimpleNamespace(writerow=writerow)

    monkeypatch.setattr(csv, "writer", writer_failing_after_header)
    assert main(args) == EXIT_IO
    assert "disk full" in capsys.readouterr().err
    with open(target, "rb") as f:
        assert f.read() == before
    assert sorted(os.listdir(folder)) == names


@pytest.mark.parametrize("case, code", [
    ("train-data", EXIT_IO), ("eval-data", EXIT_IO),
    ("eval-checkpoint", EXIT_IO), ("config", EXIT_CONFIG)])
def test_undecodable_input_exits_with_its_code(data_dir, tmp_path, capsys,
                                               case, code):
    """A non-ASCII byte in a data CSV or checkpoint, or an invalid UTF-8
    byte in a config file, is a format error naming the file, not a
    traceback."""
    ck = os.path.join(tmp_path, "ck.json")
    save_checkpoint(build_vector_network(6, 3, 8, [(4, 2, 2)] * 2), ck)
    with open(data_dir["test"], "rb") as f:
        data = f.read()
    bad_csv = os.path.join(tmp_path, "bad.csv")
    with open(bad_csv, "wb") as f:
        f.write(data.replace(b",", "é,".encode("utf-8"), 1))
    if case == "train-data":
        bad = bad_csv
        args = ["train", "--out", os.path.join(tmp_path, "x")] \
            + fast_args(dict(data_dir, train=bad))
    elif case == "eval-data":
        bad = bad_csv
        args = ["eval", "--checkpoint", ck, "--data", bad]
    elif case == "eval-checkpoint":
        bad = ck
        with open(ck, "rb") as f:
            blob = f.read()
        with open(ck, "wb") as f:
            f.write(blob.replace(b"uqtrain-checkpoint",
                                 "uqtrain-checkpointé".encode("utf-8")))
        args = ["eval", "--checkpoint", ck, "--data", data_dir["test"]]
    else:
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "wb") as f:
            f.write(b"seed = 1\n# caf\xe9\n")
        args = ["train", "--out", os.path.join(tmp_path, "x"),
                "--config", bad] + fast_args(data_dir)
    assert main(args) == code
    captured = capsys.readouterr()
    assert bad in captured.err and "decode" in captured.err
    assert captured.out == ""
