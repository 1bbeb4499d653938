"""The runtime imports only the standard library and numpy."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def absolute_imports(path: Path):
    """``(line, module)`` for every absolute import, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_imports_only_stdlib_and_numpy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {module}"
        for path in files
        for line, module in absolute_imports(path)
        if module.split(".")[0] not in ALLOWED
    ]
    assert offenders == []
