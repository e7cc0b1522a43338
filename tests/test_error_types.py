"""Every error type in `errors` is raised or caught somewhere in the
library (a stdlib stand-in for a linter's dead-code rule, like the
unused-import and tape-op inventories)."""

import ast
import os

import numpy as np
import pytest

from uqtrain.errors import ContractError
from uqtrain.rng import STREAM_MINE, keyed_rng

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                   "src", "uqtrain")


def parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def error_types() -> set[str]:
    return {n.name for n in parse("errors.py").body
            if isinstance(n, ast.ClassDef)}


def named(node) -> set[str]:
    """Class names a raise or except clause refers to: X, X(...),
    errors.X, or a tuple of these."""
    if isinstance(node, ast.Call):
        return named(node.func)
    if isinstance(node, ast.Tuple):
        return set().union(*(named(e) for e in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_every_error_type_is_raised_or_caught():
    used = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            for n in ast.walk(parse(name)):
                if isinstance(n, ast.Raise) and n.exc is not None:
                    used |= named(n.exc)
                elif isinstance(n, ast.ExceptHandler) and n.type is not None:
                    used |= named(n.type)
    types = error_types()
    assert types == {"UqtrainError", "ConfigError", "ContractError",
                     "NumericalDivergence", "DataFormatError"}
    assert types - used == set()


@pytest.mark.parametrize("seed, coords, message", [
    (0, (1, 2, 3, 4), "at most three stream coordinates are supported"),
    (0, (1, -2), "stream coordinates must be non-negative"),
    (-1, (), r"seed must be in \[0, 2\*\*64\), got -1$"),
    (2**64, (), r"seed must be in \[0, 2\*\*64\), got 18446744073709551616$")],
    ids=["four-coordinates", "negative", "negative-seed", "seed-2**64"])
def test_keyed_rng_raises_a_contract_error(seed, coords, message):
    """A seed outside the 64-bit Philox key range raises rather than
    alias one inside it (2**64 keyed the draws of 0, -1 those of
    2**64 - 1)."""
    with pytest.raises(ContractError, match=message):
        keyed_rng(seed, STREAM_MINE, *coords)


def test_keyed_rng_keys_in_range_seeds_unchanged():
    """Every seed in [0, 2**64) is its own Philox key, as before."""
    for seed in (0, 7, 2**63, 2**64 - 1):
        philox = np.random.Philox(key=np.uint64(seed),
                                  counter=np.array([STREAM_MINE, 0, 0, 0],
                                                   dtype=np.uint64))
        np.testing.assert_array_equal(keyed_rng(seed, STREAM_MINE).random(4),
                                      np.random.Generator(philox).random(4))
