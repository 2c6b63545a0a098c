"""Every module-level function and class under src/fsmtrap, and every
method and property of those classes, has a caller.

A definition counts as used when its name is loaded, or read as an
attribute, somewhere in ``src/`` or ``benchmarks/`` outside its own body; an
import alone does not count, and neither does a use in ``tests/``: code only
tests call belongs in ``tests/oracles.py``.  Names are counted, not
resolved, so a method counts as used when anything reads an attribute of its
name.  Dunder methods are called by the language and are exempt.
``__init__.py`` and ``__main__.py`` define nothing to check.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fsmtrap"
SEARCHED = ("src", "benchmarks")


def _references(tree: ast.AST) -> Counter:
    """How often each name is loaded or read as an attribute in ``tree``."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level def or class and each
    non-dunder method or property of a module-level class."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def uncalled(modules: dict, others: list) -> list:
    """(module, qualified name) of each definition in ``modules`` (name ->
    source) that nothing in ``modules`` or ``others`` (sources) references
    outside its own body."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    total: Counter = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in others]:
        total += _references(tree)
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if total[node.name] - _references(node)[node.name] <= 0:
                found.append((module, qualname))
    return found


def test_checker_flags_self_reference_only():
    modules = {
        "m": (
            "import os\n"
            "def used(): return os.sep\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Unused: pass\n"
            "class Attr:\n"
            "    def __len__(self): return 0\n"
            "    def read(self): return self.helper\n"
            "    @property\n"
            "    def helper(self): return 1\n"
            "    def orphan(self): return self.orphan()\n"
        )
    }
    others = ["from m import used, Unused\nimport m\nused()\nm.Attr().read()\n"]
    assert uncalled(modules, others) == [
        ("m", "recursive"), ("m", "Unused"), ("m", "Attr.orphan")
    ]


def test_every_definition_has_a_caller():
    modules = {
        p.name: p.read_text()
        for p in sorted(SRC.glob("*.py"))
        if p.name not in ("__init__.py", "__main__.py")
    }
    assert {"batchsim.py", "graph.py", "relic.py"} <= set(modules)
    paths = [
        p
        for top in SEARCHED
        for p in sorted((ROOT / top).rglob("*.py"))
        if p.parent != SRC or p.name in ("__init__.py", "__main__.py")
    ]
    assert {"__main__.py", "recipes.py", "tracing.py"} <= {p.name for p in paths}
    found = uncalled(modules, [p.read_text() for p in paths])
    assert not found, f"definitions without a caller (module, name): {found}"
