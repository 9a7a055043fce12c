import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavedamp"


def package_trees():
    """(module stem, parsed module) of every module under the package."""
    for path in PACKAGE.glob("*.py"):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def import_nodes():
    """(module stem, node) of every import under the package, function bodies included."""
    for stem, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield stem, node


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


def test_declared_numpy_floor_has_reshape_copy():
    # forward._neighbour_sum_into calls reshape(-1, copy=False), which numpy 2.1 introduced
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floors = [re.fullmatch(r"numpy\s*>=\s*(\d+)\.(\d+)(\.\d+)*", req.strip())
              for req in project["dependencies"] if req.strip().startswith("numpy")]
    assert len(floors) == 1 and floors[0] is not None
    assert (int(floors[0].group(1)), int(floors[0].group(2))) >= (2, 1)


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


def callers_of(name):
    """(module stem, enclosing top-level definition) of every call of name under the package."""
    callers = set()
    for stem, tree in package_trees():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    callers.add((stem, getattr(top, "name", None)))
    return callers


def test_the_reference_format_stays_inside_reconstruct():
    # every probe is stepped, so the closed form builds only the references, and no other
    # module knows their rank-one format: the observability estimate asks for raw traces
    assert callers_of("undamped_mode_trace") == {("reconstruct", "reference_solution")}
    assert importers_of("UndampedReference") == set()


def test_one_coding_of_the_stiffness_form():
    # stiffness_energy and the energy log take dot products of the same weighted gradients,
    # formed by one helper, and no other coding of the form's differences is left
    names = {getattr(node, attr, None) for _, tree in package_trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name")}
    assert not names & {"_mirror_second_difference", "_first_differences", "_paired_differences"}
    assert callers_of("_weighted_gradient") == {("forward", "_stiffness_bilinear"),
                                                ("forward", "_EnergyLog")}


def test_the_step_fraction_is_a_constant():
    # every solve steps at forward.DT_FACTOR of the CFL limit; the config keeps the key
    # only so that older configs parse, and no function takes the fraction
    params = {node.arg for _, tree in package_trees() for node in ast.walk(tree)
              if isinstance(node, ast.arg)}
    assert "dt_factor" not in params
    readers = {stem for stem, tree in package_trees() for node in ast.walk(tree)
               if "dt_factor" in (getattr(node, "id", None), getattr(node, "attr", None))}
    assert readers == {"config"}


def test_lines_are_fitted_in_closed_form():
    # no command maps LAPACK to fit a line: both line fits go through spectral.fit_line, and
    # only the Gauss-Newton round's Gram step solves a system with lstsq
    names = {getattr(node, attr, None) for _, tree in package_trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name")}
    assert "polyfit" not in names
    assert callers_of("lstsq") == {("reconstruct", "_gram_step")}
    assert callers_of("fit_line") == {("reconstruct", "_fit_envelope_rate"),
                                      ("diagnostics", "fit_decay")}


def test_the_energy_log_sums_in_a_fixed_order():
    # a dot product over more than forward.DOT_BLOCK values would take its bits from the
    # BLAS thread count; every one the log, the stiffness form and the Gauss-Newton fit
    # take is blocked
    assert callers_of("vdot") == {("forward", "_fixed_order_dot")}
    assert callers_of("_fixed_order_dot") == {("forward", "_stiffness_bilinear"),
                                              ("forward", "_EnergyLog"),
                                              ("reconstruct", "fit_damping_least_squares")}


def test_a_gauss_newton_round_reads_its_jacobian_through_its_gram_system():
    # the fit takes |r| and every row of J^T r as fixed-order dot products, and its step and
    # stop from G = J^T J and J^T r: reconstruct calls no np.linalg.norm, and the one matrix
    # product of the Jacobian (columns, J^T) is the Gram product columns @ columns.T
    assert not any(stem == "reconstruct" for stem, _ in callers_of("norm"))
    tree = dict(package_trees())["reconstruct"]

    def names_columns(node):
        return any(getattr(sub, "id", None) == "columns" for sub in ast.walk(node))

    products = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                and names_columns(node)]
    products += [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in
                 ("matmul", "dot", "vdot", "inner", "einsum", "tensordot")
                 and any(names_columns(arg) for arg in node.args)]
    assert products == ["columns @ columns.T"]
    transposed = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr == "T" and getattr(node.value, "id", None) == "columns"]
    assert len(transposed) == 1


def test_samples_are_scaled_in_one_place():
    # every norm of samples squares them only after spectral._unit_scaled's power of two, and
    # the space-time norms take spectral.integrate: no second quadrature is left in forward
    assert callers_of("frexp") == {("spectral", "_unit_scaled")}
    names = {getattr(node, attr, None) for _, tree in package_trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name")}
    assert "time_quadrature" not in names


def test_no_module_names_numpy_random():
    # verify's seeded checks draw from verify.SeededStream; numpy.random's seeding would load
    # OpenSSL through secrets, hmac and _hashlib
    for stem, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                named = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                named = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            assert not {"numpy.random", "np.random"} & set(named), stem
            assert not any(name.startswith("numpy.random.") for name in named), stem


def test_verify_loads_neither_numpy_random_nor_openssl(tmp_path):
    watched = ("numpy.random", "secrets", "_hashlib")
    code = ("import sys\n"
            f"watched = {watched!r}\n"
            "before = [name for name in watched if name in sys.modules]\n"
            "import wavedamp.cli\n"
            f"status = wavedamp.cli.main(['verify', '--out', {str(tmp_path / 'v')!r}])\n"
            "print(status, before, [name for name in watched if name in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    status, before, after = out.stdout.strip().splitlines()[-1].split(" ", 2)
    assert status == "0"
    if before != "[]":
        pytest.skip(f"this interpreter loads {before} before any import")
    assert after == "[]"
