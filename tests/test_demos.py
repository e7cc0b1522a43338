"""The quick demos run to completion as standalone scripts."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# 04 and 05 train models for a minute or more at their default epochs;
# two epochs run every line of them in seconds
DEMOS = [("01_tensor_autodiff.py", []),
         ("02_feature_statistics_and_compensation.py", []),
         ("03_triplet_mining_and_mixup.py", []),
         ("04_noisy_label_experiment.py", ["--epochs", "2"]),
         ("05_rejection_curves.py", ["--epochs", "2"])]


@pytest.mark.parametrize("script, args", DEMOS, ids=[s for s, _ in DEMOS])
def test_demo_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script),
                           *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
