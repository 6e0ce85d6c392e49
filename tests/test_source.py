"""Source hygiene checks on the rcaudit package (no linter is installed)."""

from __future__ import annotations

import ast
from pathlib import Path

import rcaudit

PACKAGE_DIR = Path(rcaudit.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name a module imports and never reads.

    Names listed in `__all__`, `from __future__` imports and lines marked
    `# noqa: F401` are allowed.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from sys import argv  # noqa: F401\n"
        "import xml.dom\n"
        "from re import match\n"
        "__all__ = ['match']\n"
        "print(np.zeros(1), loads('1'))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (6, "xml")]


def test_package_has_no_unused_imports():
    found = {
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert not found, sorted(found)
