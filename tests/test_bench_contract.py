"""The names the benchmark under bench/ binds must exist in the package.

bench/tracer.py wraps uqtrain functions by module and attribute name, and
bench/workloads.py calls training.predict directly; a rename would
otherwise surface only when the benchmark runs.  Nothing here edits
bench/.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from uqtrain import training
from uqtrain.config import TrainConfig
from uqtrain.heads import build_vector_network

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(BENCH)


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
