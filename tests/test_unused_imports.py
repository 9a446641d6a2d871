"""No module imports a name it never uses (pyflakes' F401, which CI's ruff gate enforces).

The scan runs offline, where ruff is not installed: it parses every ``.py``
file under ``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` and
reports each imported name that no expression of its scope reads.  A name
counts as used when it appears as a load, as the root of an attribute
chain, inside a string annotation, or in the module's ``__all__``; an import
whose line carries ``# noqa: F401`` (or a bare ``# noqa``) is exempt, as
are ``from __future__`` imports.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TREES = ("src", "tests", "benchmarks", "examples")
_NOQA = re.compile(r"#\s*noqa(?::[^#\n]*\bF401\b|\s*$)")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by a string annotation (``"QAOAAnsatz"``, ``"np.ndarray | None"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _loaded(ast.parse(node.value, mode="eval"))
        except SyntaxError:
            return set()
    return set()


def _loaded(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, string annotations included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    return {
                        elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    }
    return set()


def _imports(scope: ast.AST):
    """``(bound name, alias line, statement line)`` of every import directly in ``scope``.

    Imports inside nested functions and lambdas belong to those scopes.
    """
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.lineno, node.lineno
        todo.extend(ast.iter_child_nodes(node))


def unused_imports(path: Path, root: Path = _ROOT) -> list[str]:
    """``"path:line name"`` (``path`` relative to ``root``) for every unused import in one file."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, _SCOPES)]
    exported = _exported(tree)
    found = []
    for scope in scopes:
        used = _loaded(scope) | (exported if scope is tree else set())
        for name, line, first in _imports(scope):
            if name in used or any(_NOQA.search(lines[i - 1]) for i in {line, first}):
                continue
            found.append(f"{path.relative_to(root)}:{line} {name}")
    return sorted(found)


def test_scanner_flags_unused_and_honours_exemptions(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "import numpy as np\n"
        "from typing import Any, Sequence\n"
        "from pathlib import Path\n"
        "__all__ = ['Path']\n"
        "def f(x: 'Sequence[int]') -> np.ndarray:\n"
        "    import re\n"
        "    return x\n"
    )
    found = [entry.split(" ", 1)[1] for entry in unused_imports(module, tmp_path)]
    assert found == ["os", "Any", "re"]


@pytest.mark.parametrize("tree", _TREES)
def test_no_unused_imports(tree):
    found = [entry for path in (_ROOT / tree).rglob("*.py") for entry in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(sorted(found))
