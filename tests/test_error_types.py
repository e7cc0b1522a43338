"""Every error type in `errors` is raised or caught somewhere in the
library (a stdlib stand-in for a linter's dead-code rule, like the
unused-import and tape-op inventories)."""

import ast
import os

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
                     "NumericalDivergence", "GenerationError",
                     "DataFormatError"}
    assert types - used == set()


@pytest.mark.parametrize("coords, message", [
    ((1, 2, 3, 4), "at most three stream coordinates are supported"),
    ((1, -2), "stream coordinates must be non-negative")],
    ids=["four-coordinates", "negative"])
def test_keyed_rng_raises_a_contract_error(coords, message):
    with pytest.raises(ContractError, match=message):
        keyed_rng(0, STREAM_MINE, *coords)
