"""The artifact ledger: the committed artifacts of seed-1 runs of every benchmark workload.

Each directory under data/ledger holds a workload's config (config.cfg, the
text the benchmark's make_inputs(workload, 1) writes) and every artifact its
run writes except manifest.json, which records timings.  The forward run's
3 MB trace.bin is held as trace.json instead: its header and the L2 norm of
each side (ledger_drift.trace_summary), compared like any other JSON.  The
test reruns the command in process (ledger_drift.rerun) and fails when any
numeric value moves by more than RTOL relative, or when a file, a column, a
key or a text field changes.  It reports, without failing, a file that
stays within RTOL but is not byte-equal, so a library upgrade that moves
only the last bits passes.

verify.csv's value column also passes a change of at most ATOL absolute.
Some of its values are roundoff themselves: adjoint.identity is a defect
of about 2e-18, which a different BLAS or summation order moves by far
more than RTOL relative.  Every other value passes on RTOL alone.

A change that moves these numbers on purpose regenerates the ledger: run
`wavedamp <command> --config config.cfg --out <that directory>` for each
workload, delete any manifest.json it writes, and replace a trace.bin by
the trace_summary text of it, saved as trace.json.  ledger_drift.py does
this (--update), after printing how far each artifact moved.
"""

import json
import warnings

import pytest

from ledger_drift import LEDGER, drift, rerun

RTOL = 1e-9
ATOL = {("verify.csv", "value"): 1e-15}  # absolute floors, by (file, column)


def _moved(a, b, atol=0.0) -> bool:
    # a NaN on either side counts as moved
    return not abs(a - b) <= max(RTOL * max(abs(a), abs(b)), atol)


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def _csv_drift(name: str, old: str, new: str) -> list:
    old_rows = [line.split(",") for line in old.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    if [len(row) for row in old_rows] != [len(row) for row in new_rows]:
        return ["the table's shape"]
    atol = [ATOL.get((name, column), 0.0) for column in old_rows[0]]
    drift = []
    for r, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
        for c, (a, b) in enumerate(zip(old_row, new_row)):
            x, y = _number(a), _number(b)
            if a != b and (x is None or y is None or _moved(x, y, atol[c])):
                drift.append(f"row {r} column {c}: {a} -> {b}")
    return drift


def _json_drift(old, new, key="") -> list:
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            return [f"{key or 'top'}: keys {sorted(old)} -> {sorted(new)}"]
        return [d for k in old for d in _json_drift(old[k], new[k], f"{key}.{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{key}: length {len(old)} -> {len(new)}"]
        return [d for i, (a, b) in enumerate(zip(old, new))
                for d in _json_drift(a, b, f"{key}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if old == new or (numbers and not _moved(old, new)):
        return []
    return [f"{key}: {old} -> {new}"]


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
        moved = (_json_drift(json.loads(old), json.loads(new)) if name.endswith(".json")
                 else _csv_drift(name, old, new))
        drift += [f"{name} {d}" for d in moved]
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
