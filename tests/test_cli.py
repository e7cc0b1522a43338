"""End-to-end checks of the command line interface, run in-process."""

import base64
import json
import os

import numpy as np
import pytest

from uqtrain.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
from uqtrain.data import load_dataset
from uqtrain.heads import (build_vector_network, load_checkpoint,
                           save_checkpoint)


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
    assert main(["train", "--out", out, "--compensation-layers", "2",
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
    for key in ("compensation_batch_stats", "uncertainty_score", "sampler"):
        with open(bad, "w") as f:
            f.write(f"epochs = 2\n{key} = x\n")
        code = main(["train", "--out", os.path.join(tmp_path, "x"),
                     "--config", bad])
        assert code == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err


def test_divergent_run_exits_3(data_dir, tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = main(["train", "--out", os.path.join(tmp_path, "x"),
                     "--lr", "1e200"] + fast_args(data_dir))
    assert code == EXIT_DIVERGED
    assert "numerical divergence" in capsys.readouterr().err


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


@pytest.mark.parametrize("corrupt", [
    _list_payload, _no_arch, _arch_without_embed_dim, _non_base64_data,
    _truncated_buffer], ids=lambda f: f.__name__.lstrip("_"))
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
