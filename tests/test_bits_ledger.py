"""The committed bits ledger: a fixed mini-run must reproduce the digests
in tests/data/bits_manifest.json on the platform they were made on."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bits_ledger.py")


def load_ledger():
    spec = importlib.util.spec_from_file_location("bits_ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mini_run_reproduces_the_committed_digests(tmp_path):
    """On the manifest's platform every artifact keeps its digest, and a
    mismatch names the files.  Elsewhere the bits may differ for reasons
    outside the code, so the test skips, naming both fingerprints."""
    ledger = load_ledger()
    with open(ledger.MANIFEST, encoding="ascii") as fh:
        manifest = json.load(fh)
    assert sorted(manifest["digests"]) == sorted(ledger.ARTIFACTS)
    here = ledger.fingerprint()
    if here != manifest["fingerprint"]:
        pytest.skip(f"digests not comparable: platform {here} is not "
                    f"the manifest's {manifest['fingerprint']}")
    got = ledger.mini_run(str(tmp_path))
    moved = sorted(name for name, digest in manifest["digests"].items()
                   if got[name] != digest)
    assert not moved, f"bits moved in: {', '.join(moved)}"
