"""Every module reads each name it imports (a stdlib stand-in for a
linter's unused-import rule), and every module parses as Python 3.10,
the floor pyproject.toml's requires-python states."""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DIRS = ("src/uqtrain", "tests", "demos")


def python_files(root=ROOT, dirs=DIRS):
    for d in dirs:
        folder = os.path.join(root, d)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def unused_imports(path) -> list[str]:
    """Names bound by an import in path that the module never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_every_import_is_read():
    unused = {os.path.relpath(path, ROOT): names
              for path in python_files()
              if (names := unused_imports(path))}
    assert unused == {}


def test_every_module_parses_as_python_3_10():
    """ast's feature_version rejects grammar newer than 3.10, such as
    except*, whatever Python runs the test."""
    for path in python_files(dirs=DIRS + ("scripts", "bench")):
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
