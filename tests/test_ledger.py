"""The artifact ledger: the committed artifacts of seed-1 runs of every benchmark workload.

Each directory under data/ledger holds a workload's config (config.cfg, the
text the benchmark's make_inputs(workload, 1) writes) and every artifact its
run writes except manifest.json, which records timings.  The forward run's
3 MB trace.bin is held as trace.json instead: its header and the L2 norm of
each side (ledger_drift.trace_summary), compared like any other JSON.  The
test reruns the command in process (ledger_drift.rerun), walks each
artifact's cells as the drift table does (ledger_drift.cells), and fails
when any numeric value moves by more than RTOL relative, or when a file, a
column, a key or a text field changes.  It reports, without failing, a file that
stays within RTOL but is not byte-equal, so a library upgrade that moves
only the last bits passes.

verify.csv's value column also passes a change of at most ATOL absolute.
Some of its values are roundoff themselves: adjoint.identity is a defect
of about 2e-18, which a different BLAS or summation order moves by far
more than RTOL relative.  Every other value passes on RTOL alone.  Every
artifact but that row has the same bits under one and two BLAS threads;
the ledger's verify.csv was written under two, so under one it is
reported as not byte-equal.

A change that moves these numbers on purpose regenerates the ledger: run
`wavedamp <command> --config config.cfg --out <that directory>` for each
workload, delete any manifest.json it writes, and replace a trace.bin by
the trace_summary text of it, saved as trace.json.  ledger_drift.py does
this (--update), after printing how far each artifact moved.
"""

import warnings

import pytest

from ledger_drift import LEDGER, _number, cells, drift, rerun

RTOL = 1e-9
ATOL = {("verify.csv", "value"): 1e-15}  # absolute floors, by (file, column)


def moved_cells(name: str, old: str, new: str) -> list:
    """The cells of artifact name that moved beyond RTOL (or its ATOL), or whose text changed.

    A changed set of rows, columns or keys is one entry of its own.
    """
    before, after = cells(name, old), cells(name, new)
    if [cell[0] for cell in before] != [cell[0] for cell in after]:
        return ["rows, columns or keys"]
    moved = []
    for (key, where, a), (_, _, b) in zip(before, after):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        atol = ATOL.get((name, key), 0.0)
        # a changed text cell, or a NaN on either side, counts as moved
        if x is None or y is None or not abs(x - y) <= max(RTOL * max(abs(x), abs(y)), atol):
            moved.append(f"{key} at {where}: {a} -> {b}")
    return moved


@pytest.mark.parametrize("workload", ["forward-n129", "reconstruct-n65", "sweep-n65", "verify"])
def test_artifacts_match_the_ledger(workload, tmp_path):
    entry, out = LEDGER / workload, tmp_path / "out"
    names = sorted(path.name for path in entry.iterdir() if path.name != "config.cfg")
    assert rerun(entry, out) == names
    drift, not_byte_equal = [], []
    for name in names:
        old, new = (entry / name).read_text(), (out / name).read_text()
        if old == new:
            continue
        not_byte_equal.append(name)
        drift += [f"{name} {d}" for d in moved_cells(name, old, new)]
    assert drift == []
    if not_byte_equal:
        warnings.warn(f"{workload}: within {RTOL:g} relative of the ledger but not byte-equal: "
                      f"{', '.join(not_byte_equal)}")


def test_drift_table_rows():
    # one row per moved column or key: largest absolute and relative change, and where
    old = "name,value\na,1.0\nb,4.0\n"
    assert drift("x.csv", old, "name,value\na,1.5\nb,5.0\n") == [("value", "1", "0.33", "a")]
    assert drift("x.csv", old, "name,value\nc,1.0\nb,4.0\n") == [("name", "(text)", "a -> c", "a")]
    assert drift("x.csv", old, "name,value\na,1.0\n")[0][0] == "(layout)"
    moved = drift("x.json", '{"r": [1.0, 2.0], "k": "t"}', '{"r": [1.0, 3.0], "k": "t"}')
    assert moved == [(".r[]", "1", "0.33", "[1]")]


def test_the_verdict_fails_on_a_moved_or_changed_cell():
    old = "name,value\na,1.0\nb,4.0\n"
    assert moved_cells("x.csv", old, "name,value\na,1.0000000001\nb,4.0\n") == []
    assert moved_cells("x.csv", old, "name,value\na,1.00001\nb,4.0\n") == [
        "value at a: 1.0 -> 1.00001"]
    assert moved_cells("x.csv", old, "name,value\nc,1.0\nb,4.0\n") == ["name at a: a -> c"]
    assert moved_cells("x.csv", old, "name,value\na,nan\nb,4.0\n") == ["value at a: 1.0 -> nan"]
    assert moved_cells("x.csv", old, "name,value\na,1.0\n") == ["rows, columns or keys"]
    # verify.csv's values pass a change of at most ATOL absolute
    roundoff = "name,value\nadjoint.identity,{}\n"
    assert moved_cells("verify.csv", roundoff.format(2e-18), roundoff.format(3e-18)) == []
    assert moved_cells("x.json", '{"k": "t", "r": [1.0]}', '{"k": "u", "r": [1.0]}') == [
        ".k at : t -> u"]
    assert moved_cells("x.json", '{"r": [1.0, 2.0]}', '{"r": [1.0, 2.5]}') == [
        ".r[] at [1]: 2.0 -> 2.5"]
