"""Rerun every workload of the artifact ledger and tabulate how far each artifact moved.

    PYTHONPATH=src python tests/ledger_drift.py [--update]

Each directory under tests/data/ledger holds a workload's config.cfg.  The
script reruns its command in process, as tests/test_ledger.py does, and
prints one markdown row per artifact that is byte-equal to the ledger's,
and otherwise one row per numeric CSV column or JSON key (list positions
fold into one key) that moved: the largest absolute and relative change,
and where the relative one falls.  A changed text field, table shape or
key set gets a row of its own.  With --update it then writes the new
artifacts over the ledger, which is how test_ledger.py's docstring says a
change that moves these numbers on purpose regenerates it.

Run it once under each BLAS thread count (OPENBLAS_NUM_THREADS=1, then 2)
to see which artifacts depend on the count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from wavedamp import cli
from wavedamp.forward import _fixed_order_dot
from wavedamp.io import read_trace_binary

LEDGER = Path(__file__).parent / "data" / "ledger"


def trace_summary(path) -> str:
    """The ledger's trace.json for a trace.bin: n, steps, dt and the L2 norm of each side.

    The norms sum in a fixed order, so they have the same bits at any BLAS thread count.
    """
    dump = read_trace_binary(path)
    norms = {side: math.sqrt(_fixed_order_dot(sides, sides))
             for side, sides in zip(("bottom", "left"), dump["sides"])}
    summary = {"n": dump["n"], "steps": dump["steps"], "dt": dump["dt"], "norms": norms}
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def rerun(entry: Path, out: Path) -> list:
    """Run entry's workload into out as the ledger holds it; return the artifact names.

    The command is the workload name's first word.  manifest.json, which
    records timings, is deleted, and trace.bin is replaced by trace.json.
    """
    command = entry.name.split("-")[0]
    with contextlib.redirect_stdout(sys.stderr):
        status = cli.main([command, "--config", str(entry / "config.cfg"), "--out", str(out)])
    if status != 0:
        raise RuntimeError(f"{entry.name}: {command} did not exit 0")
    (out / "manifest.json").unlink(missing_ok=True)
    if (out / "trace.bin").exists():
        (out / "trace.json").write_text(trace_summary(out / "trace.bin"))
        (out / "trace.bin").unlink()
    return sorted(path.name for path in out.iterdir())


def _number(field):
    if isinstance(field, bool):
        return None
    try:
        return float(field)
    except (TypeError, ValueError):
        return None


def _csv_cells(text: str):
    """(column name, row label, field) of every cell below the header."""
    rows = [line.split(",") for line in text.splitlines()]
    return [(rows[0][c], row[0], field) for row in rows[1:] for c, field in enumerate(row)]


def _json_cells(value, key=""):
    """(key, position, leaf) of every leaf, list positions folded into the key as []."""
    if isinstance(value, dict):
        return [cell for k in sorted(value) for cell in _json_cells(value[k], f"{key}.{k}")]
    if isinstance(value, list):
        return [(k, f"[{i}]{where}", leaf)
                for i, item in enumerate(value) for k, where, leaf in _json_cells(item, f"{key}[]")]
    return [(key or "top", "", value)]


def cells(name: str, text: str) -> list:
    """(column or key, where, field or leaf) of every cell of the CSV or JSON artifact name."""
    return _json_cells(json.loads(text)) if name.endswith(".json") else _csv_cells(text)


def drift(name: str, old: str, new: str) -> list:
    """Rows (column or key, largest absolute change, largest relative change, where) of a file."""
    before, after = cells(name, old), cells(name, new)
    if [cell[0] for cell in before] != [cell[0] for cell in after]:
        return [("(layout)", "rows, columns or keys changed", "", "")]
    worst, text = {}, {}  # key -> [largest abs change, largest rel change, where the rel one is]
    for (key, where, a), (_, _, b) in zip(before, after):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            text.setdefault(key, (f"{a} -> {b}", where))
            continue
        change, scale = abs(x - y), max(abs(x), abs(y))
        relative = change / scale if scale > 0 else 0.0
        entry = worst.setdefault(key, [0.0, 0.0, where])
        entry[0] = max(entry[0], change)
        if relative > entry[1]:
            entry[1:] = relative, where
    return ([(key, f"{change:.2g}", f"{relative:.2g}", where)
             for key, (change, relative, where) in worst.items()]
            + [(key, "(text)", moved, where) for key, (moved, where) in text.items()])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="write the new artifacts over the ledger after the table")
    args = parser.parse_args(argv)
    print("| workload | file | column or key | largest abs change | largest rel change | at |")
    print("|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        entries = sorted(path for path in LEDGER.iterdir() if (path / "config.cfg").exists())
        for entry in entries:
            out = Path(tmp) / entry.name
            names = rerun(entry, out)
            kept = sorted(path.name for path in entry.iterdir() if path.name != "config.cfg")
            for name in sorted(set(names) | set(kept)):
                if name not in names or name not in kept:
                    where = "ledger only" if name in kept else "new run only"
                    print(f"| {entry.name} | {name} | ({where}) | | | |")
                    continue
                old, new = (entry / name).read_text(), (out / name).read_text()
                if old == new:
                    print(f"| {entry.name} | {name} | byte-equal | | | |")
                    continue
                for key, change, relative, where in drift(name, old, new):
                    print(f"| {entry.name} | {name} | {key} | {change} | {relative} | {where} |")
            if args.update:
                for name in kept:
                    if name not in names:
                        (entry / name).unlink()
                for name in names:
                    shutil.copyfile(out / name, entry / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
