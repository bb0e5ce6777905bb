"""Every module-level function or class of the package has a caller.  A
public one's name appears in src, demos or perfbench outside its own
definition; package __init__ re-exports do not count, and the functions that
the benchmark's per-layer spans name are exempt.  A private one's name
appears in src outside its own definition.  Tests never count as callers."""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "whitmin"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
SEARCHED = MODULES + sorted((ROOT / "demos").rglob("*.py")) + sorted(
    (ROOT / "perfbench").rglob("*.py"))


def definitions(source: str, private: bool):
    """(name, first line, last line) of each private, or each public,
    module-level def or class."""
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def _span_pinned():
    """Function names that BENCHMARK.json's per-layer spans pin."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"].rsplit(".", 2)[1] for m in metrics
            if m["name"].endswith((".calls", ".self_s"))}


def unreached(definitions, texts):
    """Names of the definitions no text names, a definition's own lines
    aside; definitions are (path, name, first line, last line)."""
    out = []
    for path, name, first, last in definitions:
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not any(pattern.search(line) for other, lines in texts.items()
                   for i, line in enumerate(lines, 1)
                   if other != path or not first <= i <= last):
            out.append(name)
    return out


def test_finds_an_unreached_definition():
    texts = {"m.py": ["def used():", "    pass", "def lonely():", "    lonely()"],
             "n.py": ["used()"]}
    defs = [("m.py", "used", 1, 2), ("m.py", "lonely", 3, 4)]
    assert unreached(defs, texts) == ["lonely"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_is_reached(path):
    texts = {p: p.read_text().splitlines() for p in SEARCHED}
    defs = [(path, *d) for d in definitions(path.read_text(), private=False)
            if d[0] not in _span_pinned()]
    assert unreached(defs, texts) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_reached(path):
    texts = {p: p.read_text().splitlines() for p in PACKAGE.rglob("*.py")}
    defs = [(path, *d) for d in definitions(path.read_text(), private=True)]
    assert unreached(defs, texts) == []


def unused_imports(source: str):
    """Names that the source's imports bind and its code never reads; a
    from-__future__ import binds none."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import List, Tuple\nx: List[int] = np.zeros(os.sep)\n")
    assert unused_imports(source) == ["Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
