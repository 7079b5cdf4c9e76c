"""The configuration boundary, checked where ``ruff`` is not installed.

``pyproject.toml`` bans ``os.environ`` (ruff TID251) everywhere but the
files its ``per-file-ignores`` exempt: every ``REPRO_*`` knob is read
through :mod:`repro.settings`, whose frames are what make a unit of work
see one snapshot.  This test applies the same rule to ``src/`` and
``tests/`` with the standard library alone.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _exempt() -> set[str]:
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    ignores = config["tool"]["ruff"]["lint"]["per-file-ignores"]
    return {path for path, rules in ignores.items() if "TID251" in rules}


def _environ_uses(tree: ast.AST) -> list[int]:
    """Lines that reach ``os.environ``: as an attribute of a name bound
    to the ``os`` module, or imported from it."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "os"
    }
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id in aliases
        ) or (
            isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name == "environ" for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_environment_is_read_only_inside_the_settings_boundary():
    exempt = _exempt()
    offenders = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            name = path.relative_to(ROOT).as_posix()
            if name in exempt:
                continue
            for line in _environ_uses(ast.parse(path.read_text(), name)):
                offenders.append(f"{name}:{line}")
    assert offenders == []


def test_the_scan_sees_every_spelling():
    tree = ast.parse(
        "import os\nimport os as o\nfrom os import environ\n"
        "os.environ.get('X')\ndict(o.environ)\nos.getenv('X')\n"
    )
    assert _environ_uses(tree) == [3, 4, 5]
