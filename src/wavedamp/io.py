"""Artifact persistence: CSV tables, binary trace dumps, run manifests.

CSV files are comma-separated with a header row, '.' decimal separator
and LF line endings.  Floats are written with repr, the shortest digit
string that round-trips, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import MAX_DAMPING_SAMPLES
from .errors import ConfigError
from .forward import BoundaryTrace
from .spectral import SampledFunction1D

__all__ = [
    "format_value",
    "write_csv",
    "write_energy_csv",
    "write_trace_csv",
    "write_trace_binary",
    "read_trace_binary",
    "save_damping_csv",
    "load_damping_csv",
    "write_manifest",
    "sha256_file",
]


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
    return path


def write_energy_csv(path, times: np.ndarray, energies: np.ndarray) -> Path:
    return write_csv(path, ["t", "energy"], zip(times.tolist(), energies.tolist()))


_SIDES = ("bottom", "left")  # the order of a trace's sides


def write_trace_csv(path, trace: BoundaryTrace, side: str) -> Path:
    """Long-format dump (t, i, value) of one damped side, 'bottom' or 'left', of a trace."""
    if side not in _SIDES:
        raise ValueError("side must be 'bottom' or 'left'")
    data = trace.sides[_SIDES.index(side)]

    def rows():
        for m, t in enumerate(trace.times.tolist()):
            row_vals = data[m]
            for i in range(row_vals.shape[0]):
                yield (t, i, float(row_vals[i]))

    return write_csv(path, ["t", "i", "value"], rows())


_HEADER = struct.Struct("<4d")  # n, steps, dt, side count, all as float64


def write_trace_binary(path, trace: BoundaryTrace) -> Path:
    """Row-major float64 dump of the (2, steps + 1, n) normal-derivative sides."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    steps = trace.times.shape[0] - 1
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(float(trace.n), float(steps), trace.dt, 2.0))
        fh.write(np.ascontiguousarray(trace.sides, dtype="<f8").tobytes())
    return path


def read_trace_binary(path):
    """Inverse of write_trace_binary; bit-exact on the stored arrays."""
    raw = Path(path).read_bytes()
    n_f, steps_f, dt, sides = _HEADER.unpack_from(raw, 0)
    n, steps, sides = int(n_f), int(steps_f), int(sides)
    if sides != 2:
        raise ValueError(f"expected 2 sides in trace dump, found {sides}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if data.shape[0] != sides * (steps + 1) * n:
        raise ValueError("trace dump payload size mismatch")
    return {"n": n, "steps": steps, "dt": dt, "sides": data.reshape(sides, steps + 1, n).copy()}


def save_damping_csv(path, component: SampledFunction1D) -> Path:
    return write_csv(path, ["s", "value"],
                     zip(component.nodes.tolist(), component.values.tolist()))


def load_damping_csv(path) -> SampledFunction1D:
    path = Path(path)
    try:
        rows = path.read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("damping_csv", f"cannot read {path} as UTF-8 text: {exc}") from exc
    if not rows or rows[0].strip() != "s,value":
        raise ConfigError("damping_csv", f"{path} must start with header 's,value'")
    if len(rows) - 1 > MAX_DAMPING_SAMPLES:
        raise ConfigError("damping_csv", f"{path} has more than {MAX_DAMPING_SAMPLES} rows")
    s_vals, values = [], []
    for line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError("damping_csv", f"malformed row in {path}: {line!r}")
        try:
            s_val, value = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError("damping_csv", f"non-numeric row in {path}: {line!r}") from exc
        if not (math.isfinite(s_val) and math.isfinite(value)):
            raise ConfigError("damping_csv", f"non-finite row in {path}: {line!r}")
        s_vals.append(s_val)
        values.append(value)
    s_arr = np.asarray(s_vals)
    expected = np.linspace(0.0, 1.0, len(s_vals))
    if len(s_vals) < 3 or np.max(np.abs(s_arr - expected)) > 1e-9:
        raise ConfigError("damping_csv", f"{path} must sample uniform nodes on [0, 1]")
    return SampledFunction1D(np.asarray(values))


def sha256_file(path) -> str:
    # hashlib maps OpenSSL's libcrypto, megabytes of resident memory, so only the code
    # that hashes imports it
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, config_text: str, version: str, timings: dict) -> Path:
    """Checksummed inventory of every artifact in the output directory.

    Written last, so a complete manifest certifies a complete run.
    """
    import hashlib

    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    files = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and p != manifest_path:
            rel = p.relative_to(out_dir).as_posix()
            files[rel] = {"sha256": sha256_file(p), "bytes": p.stat().st_size}
    payload = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "tool_version": version,
        "files": files,
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
    }
    manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return manifest_path
