"""The tape-op inventory of `tensor`: every public op has a caller in the
library proper, outside the autodiff core and its finite-difference audit
(a stdlib stand-in for a linter's dead-code rule), and a gradcheck case."""

import ast
import os

import uqtrain.tensor as T
from uqtrain.gradcheck import _op_cases

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                   "src", "uqtrain")
CORE = ("tensor.py", "gradcheck.py")


def parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def tape_ops() -> set[str]:
    """Public top-level functions of tensor.py that call _record."""
    return {fn.name for fn in parse("tensor.py").body
            if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_")
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "_record" for n in ast.walk(fn))}


def tensor_references(name) -> set[str]:
    """Attributes read off the tensor module, as `T.op`, in one module."""
    tree = parse(name)
    aliases = {a.asname or a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) for a in n.names
               if a.name == "tensor"}
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in aliases}


def test_every_tape_op_has_a_library_caller():
    ops = tape_ops()
    assert {"add", "affine", "perturb_stats", "class_cross_entropy"} <= ops
    used = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name not in CORE:
            used |= tensor_references(name)
    assert ops - used == set()


def test_every_tape_op_has_a_gradcheck_case(monkeypatch):
    recorded = set()
    record = T._record

    def spy(out, inputs, backward):
        recorded.add(backward.__qualname__.split(".", 1)[0])
        return record(out, inputs, backward)

    monkeypatch.setattr(T, "_record", spy)
    for _, f, arrays in _op_cases(0):
        T.check_gradients(f, arrays)
    ops = tape_ops()
    assert {"add", "affine", "perturb_stats", "class_cross_entropy"} <= ops
    assert ops <= recorded, f"no gradcheck case for {sorted(ops - recorded)}"
