"""Every name the package exports must have a reader outside ``src``'s
library modules: the command-line front end, a script or a test. Every
module the benchmark imports by name must exist."""

import ast
import importlib
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


def benchmark_modules() -> tuple:
    # read with ast, so that the benchmark's tracer is never imported here
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "PACKAGE_MODULES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no PACKAGE_MODULES")


def test_every_module_the_benchmark_imports_exists():
    names = benchmark_modules()
    assert names, "PACKAGE_MODULES is empty"
    for name in names:
        importlib.import_module(f"passperf.{name}")
