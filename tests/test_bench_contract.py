"""The names the benchmark under bench/ binds must exist in the package.

bench/tracer.py wraps uqtrain functions by module and attribute name, and
bench/workloads.py calls training.predict directly; a rename would
otherwise surface only when the benchmark runs.  A short traced run
checks that every wrapper still fires.  Nothing here edits bench/.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from uqtrain import cli, training
from uqtrain.config import TrainConfig
from uqtrain.heads import build_vector_network

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


@pytest.fixture(scope="module")
def bench():
    """bench/tracer.py and bench/workloads.py, imported as the benchmark
    imports them."""
    sys.path.insert(0, BENCH)
    try:
        yield (importlib.import_module("tracer"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(BENCH)


@pytest.fixture(scope="module")
def tracer(bench):
    return bench[0]


def test_every_traced_name_resolves(tracer):
    assert tracer.TRACED
    for spec, attr, name in tracer.TRACED:
        module, *cls = spec if isinstance(spec, tuple) else (spec,)
        owner = importlib.import_module(f"uqtrain.{module}")
        for c in cls:
            owner = getattr(owner, c, None)
            assert owner is not None, f"{name}: uqtrain.{module}.{c} is gone"
        assert callable(getattr(owner, attr, None)), \
            f"{name}: {spec}.{attr} does not resolve"


def test_predict_takes_a_default_config():
    net = build_vector_network(5, 3, 8, [(4, 2, 2)] * 2, seed=0)
    x = np.random.default_rng(0).standard_normal((7, 5))
    preds, scores = training.predict(net, x, TrainConfig())
    assert preds.shape == (7,) and scores.shape == (7,)
    assert np.all(np.isfinite(scores))


def test_trace_mode_records_every_span(bench, tmp_path):
    """The benchmark's --trace mode, in small: with its wrappers and hooks
    installed, synth, a 2-epoch train and one eval record a span under
    every traced name, and the traced-run checks find no failure."""
    tracer, workloads = bench
    run = workloads.Run(workloads.WORKLOADS["alum-noisy30"], 0, str(tmp_path))
    t = tracer.Tracer()
    train, test = (os.path.join(tmp_path, f) for f in ("tr.csv", "te.csv"))
    out = os.path.join(tmp_path, "run")
    patches = tracer.install(t, run.trace_hooks(t))
    try:
        assert cli.main(["synth", "--train-out", train, "--test-out", test,
                         "--train-size", "200", "--test-size", "100",
                         "--noise-ratio", "0.3"]) == 0
        assert cli.main(["train", "--data-train", train, "--data-test", test,
                         "--out", out, "--epochs", "2",
                         "--batch-size", "64"]) == 0
        assert cli.main(["eval", "--checkpoint",
                         os.path.join(out, "run_checkpoint.json"),
                         "--data", test]) == 0
    finally:
        patches.restore()
    recorded = {name for name, *_ in t.spans}
    assert [name for _, _, name in tracer.TRACED if name not in recorded] == []
    run.verify(lambda: run.check_traced(t.counts))
    assert run.failures == []
