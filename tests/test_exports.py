"""Every name the package exports must have a reader outside ``src``'s
library modules: the command-line front end, a script or a test."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "passperf"


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def reader_sources() -> str:
    paths = [PACKAGE / "cli.py", *sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("tests/*.py"))]
    this = Path(__file__).resolve()
    return "\n".join(path.read_text(encoding="utf-8") for path in paths if path.resolve() != this)


def test_every_export_is_referenced_by_the_cli_scripts_or_tests():
    names = exported_names()
    assert names, "passperf/__init__.py exports nothing"
    text = reader_sources()
    unused = [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == [], f"exported but never referenced outside the library: {unused}"
