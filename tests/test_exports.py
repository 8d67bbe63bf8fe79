"""Every name the package exports must have a reader outside ``src``'s
library modules that takes it from the top-level package: the command-line
front end, a script or a test. Every module the benchmark imports by name
must exist."""

import ast
import importlib
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


def top_level_reads(path: Path) -> set:
    """Names ``path`` takes from the top-level package: ``from passperf
    import X`` (``from . import X`` inside the package) or ``passperf.X``,
    also through ``import passperf as alias``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = path.parent == PACKAGE
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname or "passperf" for alias in node.names if alias.name == "passperf")
        elif isinstance(node, ast.ImportFrom) and (
            (node.level == 0 and node.module == "passperf")
            or (inside and node.level == 1 and node.module is None)
        ):
            names.update(alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
    return names


def reader_paths() -> list:
    paths = [PACKAGE / "cli.py", *sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("tests/*.py"))]
    this = Path(__file__).resolve()
    return [path for path in paths if path.resolve() != this]


def test_every_export_is_referenced_by_the_cli_scripts_or_tests():
    names = exported_names()
    assert names, "passperf/__init__.py exports nothing"
    read = set().union(*map(top_level_reads, reader_paths()))
    unused = [name for name in names if name not in read]
    assert unused == [], f"exported but never taken from passperf outside the library: {unused}"


def test_top_level_reads_count_only_imports_from_the_package(tmp_path):
    path = tmp_path / "reader.py"
    path.write_text(
        "import passperf\nimport passperf as pp\nfrom passperf import SweepSpec\n"
        "from passperf.sweep import omega_one\nfrom passperf import config\n"
        "passperf.run_sweep\npp.validate\nconfig.dbm_to_watts\n# snr_grid\n",
        encoding="utf-8",
    )
    assert top_level_reads(path) == {"SweepSpec", "config", "run_sweep", "validate"}


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


# Span names in perfbench/spans.py that no package function carries: the
# layers they feed read zero until the benchmark renames them.
KNOWN_UNRESOLVED = {
    "geometry.diff_cdf",
    "geometry.diff_pdf",
    "geometry.sample_wdma",
    "geometry.sample_noma",
    "geometry.sq_diff_cdf",
    "montecarlo.sinr_trials",
    "noma.noma_breakpoints",
    "quadrature.integrate_interval",
    "quadrature.integrate_unit",
    "quadrature.j0",
    "quadrature.j1",
    "quadrature.refined_unit",
    "quadrature.refined_interval",
}


def benchmark_span_names() -> set:
    """Every ``<module>.<function>`` the tracer reports on: the values of
    LAYERS and CELL_FUNCTIONS, CROSSOVER_PROBES and the keys of
    ``Tracer._work_counters``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            if target == "LAYERS":
                names.update(name for group in ast.literal_eval(node.value).values() for name in group)
            elif target == "CELL_FUNCTIONS":
                names.update(ast.literal_eval(node.value).values())
            elif target == "CROSSOVER_PROBES":
                names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and node.name == "_work_counters":
            (counters,) = [n.value for n in node.body if isinstance(n, ast.Return)]
            names.update(ast.literal_eval(key) for key in counters.keys)
    return names


def traced_name(module: str, function: str) -> bool:
    """Whether the tracer finds ``function`` in ``passperf.<module>`` under
    that span name: a public callable defined there."""
    obj = getattr(importlib.import_module(f"passperf.{module}"), function, None)
    return (
        not function.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == f"passperf.{module}"
        and getattr(obj, "__name__", None) == function
    )


def test_benchmark_span_names_resolve_to_package_functions():
    names = benchmark_span_names()
    assert "quadrature.chebyshev_rule" in names and "noma.noma_rate_near" in names
    unresolved = {name for name in names if not traced_name(*name.split(".", 1))}
    assert unresolved <= KNOWN_UNRESOLVED, (
        f"perfbench/spans.py names functions the package does not define: "
        f"{sorted(unresolved - KNOWN_UNRESOLVED)}"
    )
