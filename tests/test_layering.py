"""No module of the package imports or reads an underscored name of a
sibling module: what one module shares with another is public."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentmix

PACKAGE = Path(momentmix.__file__).parent
SIBLINGS = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _source_module(node: ast.ImportFrom) -> str | None:
    """'' for an import from the package itself, the sibling's name for an
    import from a sibling, None otherwise."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "momentmix":
        return node.module.partition(".")[2]
    return None


def private_sibling_reads(source: str) -> list[tuple[int, str]]:
    """(line, 'module.name') for each underscored name of a sibling module
    that the source imports or reads as an attribute of the module."""
    tree = ast.parse(source)
    modules = {}  # local name -> sibling module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _source_module(node)
            for alias in node.names if sibling is not None else ():
                if sibling == "" and alias.name in SIBLINGS:
                    modules[alias.asname or alias.name] = alias.name
                elif sibling and _private(alias.name):
                    found.append((node.lineno, f"{sibling}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, sibling = alias.name.partition(".")
                if package == "momentmix" and sibling in SIBLINGS and alias.asname:
                    modules[alias.asname] = sibling
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_checker_finds_imports_and_reads():
    source = "\n".join([
        "from .numerics import _COND_LIMIT, lstsq",
        "from . import decomposition, gmm as mixtures",
        "x = decomposition._threshold(3) + mixtures._MOMENT_CHUNK",
        "from momentmix.tensor_store import _prefix_tree",
        "import momentmix.generating as gen",
        "y = gen._GAP_TOL + decomposition.max_rank(5, 3)[0] + x.__class__",
        "from numpy import _private_numpy_name",
    ])
    assert private_sibling_reads(source) == [
        (1, "numerics._COND_LIMIT"),
        (3, "decomposition._threshold"),
        (3, "gmm._MOMENT_CHUNK"),
        (4, "tensor_store._prefix_tree"),
        (6, "generating._GAP_TOL"),
    ]


@pytest.mark.parametrize("module", SIBLINGS + ["__init__"])
def test_no_private_sibling_reads(module):
    assert private_sibling_reads((PACKAGE / f"{module}.py").read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in the source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_tensor_store_imports_gc():
    # pausing the garbage collector is tensor_store's JSON read and write
    # alone; nothing else may switch it
    assert imported_modules(
        "import os.path, gc\nfrom gc import disable\nfrom . import gc") == {"os", "gc"}
    users = [m for m in SIBLINGS + ["__init__"]
             if "gc" in imported_modules((PACKAGE / f"{m}.py").read_text())]
    assert users == ["tensor_store"]


def test_only_tensor_store_imports_orjson():
    # orjson reads and writes tensor files and checks mapping keys, inside
    # tensor_store's functions
    users = [m for m in SIBLINGS + ["__init__"]
             if "orjson" in imported_modules((PACKAGE / f"{m}.py").read_text())]
    assert users == ["tensor_store"]


# A fresh interpreter imports the package, checks that no scipy module that
# costs import time is loaded, nor orjson, which only tensor files and key
# checks need, then runs the exact path through the CLI and checks scipy
# again.
_SCIPY_FREE = """
import sys
import momentmix
from momentmix.cli import main

def loaded():
    return sorted(m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules)

print("import", loaded(), "orjson" in sys.modules)
out = sys.argv[1]
assert main(["maxrank", "--d", "8", "--m", "4"]) == 0
assert main(["gen-tensor", "--d", "8", "--m", "4", "--r", "3", "--seed", "4",
             "--out", out + "/t.json"]) == 0
assert main(["decompose", "--tensor", out + "/t.json", "--r", "3", "--seed", "4",
             "--out", out + "/d.json"]) == 0
print("cli", loaded())
"""


def test_import_and_exact_cli_leave_scipy_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith(("import", "cli"))]
    assert lines == ["import [] False", "cli []"]
