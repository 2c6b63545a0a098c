"""Every module-level function and class under src/fsmtrap has a caller.

A definition counts as used when its name is loaded, or read as an
attribute, somewhere in ``src/``, ``tests/`` or ``benchmarks/`` outside its
own body; an import alone does not count.  ``__init__.py`` and
``__main__.py`` define nothing to check.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fsmtrap"
SEARCHED = ("src", "tests", "benchmarks")


def _references(tree: ast.AST) -> Counter:
    """How often each name is loaded or read as an attribute in ``tree``."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def uncalled(modules: dict, others: list) -> list:
    """(module, name) of each module-level def or class in ``modules`` (name
    -> source) that nothing in ``modules`` or ``others`` (sources) references
    outside its own body."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    total: Counter = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in others]:
        total += _references(tree)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if total[node.name] - _references(node)[node.name] <= 0:
                    found.append((module, node.name))
    return found


def test_checker_flags_self_reference_only():
    modules = {
        "m": (
            "import os\n"
            "def used(): return os.sep\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Unused: pass\n"
            "class Attr: pass\n"
        )
    }
    others = ["from m import used, Unused\nimport m\nused()\nm.Attr\n"]
    assert uncalled(modules, others) == [("m", "recursive"), ("m", "Unused")]


def test_every_definition_has_a_caller():
    modules = {
        p.name: p.read_text()
        for p in sorted(SRC.glob("*.py"))
        if p.name not in ("__init__.py", "__main__.py")
    }
    assert {"batchsim.py", "graph.py", "relic.py"} <= set(modules)
    others = [
        p.read_text()
        for top in SEARCHED
        for p in sorted((ROOT / top).rglob("*.py"))
        if p.parent != SRC or p.name in ("__init__.py", "__main__.py")
    ]
    assert len(others) > 10
    found = uncalled(modules, others)
    assert not found, f"definitions without a caller (module, name): {found}"
