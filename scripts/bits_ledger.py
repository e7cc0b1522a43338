"""The bits ledger: SHA-256 digests of one fixed mini-run, and the
platform they were made on.

The mini-run goes through the uqtrain command line, in-process:

    synth --noise-ratio 0.3 --seed 0 --noise-seed 0
    ablate --epochs 2                  every rung of the ablation ladder
    eval --out, reject-curve --out     of the full and baseline checkpoints

The ledger holds the digest of each rung's checkpoint and metrics CSV, of
ablation.csv and of the four scoring CSVs.  The same code gives the same
bytes only on the same numpy build, BLAS kernels and SIMD dispatch, so
the ledger also records a fingerprint of those: numpy's version, its
BLAS (name, version and, for OpenBLAS, the core it dispatched to) and
the SIMD targets numpy dispatches to on this CPU.

tests/test_bits_ledger.py reruns the mini-run against the committed
manifest.  A change that moves bits on purpose regenerates it:

    PYTHONPATH=src python scripts/bits_ledger.py

The digests are those of whichever uqtrain is imported, so pointing
PYTHONPATH at another tree's src makes the manifest from that tree.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from uqtrain import cli
from uqtrain.training import ABLATION_LADDER

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "tests", "data", "bits_manifest.json")

SCORED = ("full", "baseline")

ARTIFACTS = ([f"{tag}_{kind}" for tag, _ in ABLATION_LADDER
              for kind in ("checkpoint.json", "metrics.csv")]
             + ["ablation.csv"]
             + [f"{variant}_{kind}.csv" for variant in SCORED
                for kind in ("eval", "curve")])


def _openblas_core() -> str:
    """The core the loaded OpenBLAS dispatched to, "unknown" where the
    library cannot be found or does not say."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # builds prefix and suffix the symbol to keep it their own
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_get_corename{suffix}",
                             None)
                if fn is not None:
                    fn.argtypes, fn.restype = (), ctypes.c_char_p
                    return fn().decode()
    return "unknown"


def fingerprint() -> dict:
    """What the bits of a run depend on besides the code."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:   # numpy before 1.26 only prints its build
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": _openblas_core(),
            "simd_baseline": " ".join(simd.get("baseline", [])),
            "simd_dispatched": " ".join(simd.get("found", []))}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def mini_run(out_dir: str) -> dict:
    """Run the mini-run into out_dir; the digest of each artifact by
    file name."""
    train = os.path.join(out_dir, "train.csv")
    test = os.path.join(out_dir, "test.csv")
    commands = [
        ["synth", "--train-out", train, "--test-out", test,
         "--noise-ratio", "0.3", "--seed", "0", "--noise-seed", "0"],
        ["ablate", "--data-train", train, "--data-test", test,
         "--out", out_dir, "--epochs", "2"]]
    for variant in SCORED:
        scored = ["--checkpoint",
                  os.path.join(out_dir, f"{variant}_checkpoint.json"),
                  "--data", test, "--out"]
        commands += [
            ["eval", *scored, os.path.join(out_dir, f"{variant}_eval.csv")],
            ["reject-curve", *scored,
             os.path.join(out_dir, f"{variant}_curve.csv")]]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"uqtrain {' '.join(argv)} exited {code}")
    return {name: _sha256(os.path.join(out_dir, name)) for name in ARTIFACTS}


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        digests = mini_run(out_dir)
    manifest = {"fingerprint": fingerprint(), "digests": digests}
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(MANIFEST)} from uqtrain at "
          f"{os.path.dirname(cli.__file__)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
