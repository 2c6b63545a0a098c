"""Every name a module under src/fsmtrap imports is used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fsmtrap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that is never referenced."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_unused_and_accepts_used():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Mapping, Optional\n"
        "def f(x: Optional[int]):\n"
        "    from json import dumps\n"
        "    return dumps(x), osp.sep\n"
    )
    assert unused_imports(src) == [(2, "os"), (4, "Mapping")]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"batchsim.py", "graph.py", "obfuscate.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"
