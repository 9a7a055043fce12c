import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavedamp"


def import_nodes():
    """(module stem, node) of every import under the package, function bodies included."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.stem, node


def third_party_imports():
    """Top-level names of every absolute import under the package."""
    names = set()
    for _, node in import_nodes():
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            names.add(node.module.split(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != PACKAGE.name}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    assert third_party_imports() == declared


def importers_of(name):
    """Stems of the modules under the package that import name from another module."""
    return {stem for stem, node in import_nodes()
            if isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)}


def test_only_the_probe_path_imports_solve_modes():
    # every modal probe runs through reconstruct._probe, the one caller of the batch solver
    assert importers_of("solve_modes") == {"reconstruct"}


def test_only_forward_reads_the_trace_window():
    # the window bounds the memory of forward's reduced batch; no other module's bits
    # may depend on where its windows fall
    assert importers_of("TRACE_WINDOW") == set()
