"""The benchmark's correctness checks accept real artifacts and reject tampered ones.

Artifacts come from the real commands on small grids; each tampering
rewrites the manifest checksums where needed, so that the check under test,
not the manifest check, has to catch it.
"""

import csv
import hashlib
import json
import shutil
import types

import numpy as np
import pytest

from checks import (
    VERIFY_TOLERANCES,
    check_forward,
    check_operation,
    check_reconstruct,
    check_sweep,
    check_verify,
    convolve_closed_form_defect,
)
from workloads import Inputs, Workload

wavedamp_cli = pytest.importorskip("wavedamp.cli")
inverse_source = pytest.importorskip("wavedamp.inverse_source")

SMALL = {
    "forward": Workload("forward-n33", "forward", 33),
    "reconstruct": Workload("reconstruct-n33", "reconstruct", 33, ("gn_iters = 1",)),
    "sweep": Workload("sweep-n33", "sweep", 33, ("probe_budget = 1",)),
}


def small_inputs(command):
    return Inputs(SMALL[command], base=0.1, slope1=0.04, slope2=0.02, program_seed=7)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    made = {}
    for command in SMALL:
        inputs = small_inputs(command)
        cfg = root / f"{command}.cfg"
        cfg.write_text(inputs.config_text())
        out = root / command
        assert wavedamp_cli.main(inputs.argv(str(cfg), str(out))) == 0
        made[command] = out
    return made


@pytest.fixture
def copy_of(artifacts, tmp_path):
    def copy(command):
        out = tmp_path / command
        shutil.copytree(artifacts[command], out)
        return out
    return copy


def rehash(out):
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for name, entry in manifest["files"].items():
        entry["sha256"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def edit_csv(path, edit):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def rejected(errors, fragment):
    return any(fragment in e for e in errors)


@pytest.mark.parametrize("command, check", [
    ("forward", check_forward), ("reconstruct", check_reconstruct), ("sweep", check_sweep)])
def test_real_artifacts_pass(artifacts, command, check):
    assert check(artifacts[command], small_inputs(command)) == []


# --- forward ---------------------------------------------------------------

def test_forward_rejects_unlisted_byte_flip(copy_of):
    out = copy_of("forward")
    raw = bytearray((out / "trace.bin").read_bytes())
    raw[-1] ^= 0x01
    (out / "trace.bin").write_bytes(bytes(raw))
    assert rejected(check_forward(out, small_inputs("forward")), "sha256 of trace.bin")


def test_forward_rejects_non_finite_trace(copy_of):
    out = copy_of("forward")
    raw = bytearray((out / "trace.bin").read_bytes())
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    (out / "trace.bin").write_bytes(bytes(raw))
    rehash(out)
    assert rejected(check_forward(out, small_inputs("forward")), "non-finite")


def test_forward_rejects_truncated_trace(copy_of):
    out = copy_of("forward")
    raw = (out / "trace.bin").read_bytes()
    (out / "trace.bin").write_bytes(raw[:-8 * 33])
    rehash(out)
    assert rejected(check_forward(out, small_inputs("forward")), "trace.bin")


def test_forward_rejects_wrong_initial_energy(copy_of):
    out = copy_of("forward")
    h = 1.0 / 32

    def edit(rows):
        rows[0]["energy"] = repr(float(rows[0]["energy"]) * (1.0 + 3.0 * h * h))
    edit_csv(out / "energy.csv", edit)
    rehash(out)
    assert rejected(check_forward(out, small_inputs("forward")), "E(0)")


def test_forward_rejects_energy_rise(copy_of):
    out = copy_of("forward")

    def edit(rows):
        rows[10]["energy"] = repr(float(rows[9]["energy"]) * (1.0 + 1e-9))
    edit_csv(out / "energy.csv", edit)
    rehash(out)
    assert rejected(check_forward(out, small_inputs("forward")), "energy rises")


def test_forward_rejects_nonpositive_decay(copy_of):
    out = copy_of("forward")
    edit_json(out / "decay.json", lambda d: d.update(omega_fit=-0.01))
    rehash(out)
    assert rejected(check_forward(out, small_inputs("forward")), "omega_fit")


# --- reconstruct -----------------------------------------------------------

def test_reconstruct_rejects_wrong_profile(copy_of):
    out = copy_of("reconstruct")

    def edit(rows):
        for r in rows:
            r["value"] = repr(1.5 * float(r["value"]))
    edit_csv(out / "refined_a1.csv", edit)
    edit_csv(out / "refined_a2.csv", edit)
    rehash(out)
    assert rejected(check_reconstruct(out, small_inputs("reconstruct")), "refined L2 error")


@pytest.mark.parametrize("residuals, fragment", [
    ([0.4, 0.1, 0.2], "increase"), ([0.4, 0.35], "above 0.7")])
def test_reconstruct_rejects_bad_residuals(copy_of, residuals, fragment):
    out = copy_of("reconstruct")
    edit_json(out / "summary.json", lambda d: d.update(gn_residuals=residuals))
    rehash(out)
    assert rejected(check_reconstruct(out, small_inputs("reconstruct")), fragment)


def test_reconstruct_rejects_trace_at_noise_floor(copy_of):
    out = copy_of("reconstruct")
    edit_json(out / "summary.json", lambda d: d.update(trace_norm=5.0 * d["noise_floor"]))
    rehash(out)
    assert rejected(check_reconstruct(out, small_inputs("reconstruct")), "noise_floor")


# --- sweep -----------------------------------------------------------------

def _sweep_rejects(copy_of, edit, fragment):
    out = copy_of("sweep")
    edit_csv(out / "sweep.csv", edit)
    rehash(out)
    return rejected(check_sweep(out, small_inputs("sweep")), fragment)


def test_sweep_rejects_non_monotone_delta(copy_of):
    def edit(rows):
        rows[0]["delta"], rows[1]["delta"] = rows[1]["delta"], rows[0]["delta"]
    assert _sweep_rejects(copy_of, edit, "strictly decrease")


def test_sweep_rejects_wrong_norm(copy_of):
    def edit(rows):
        rows[1]["a_l2"] = repr(float(rows[1]["a_l2"]) * (1.0 + 1e-9))
    assert _sweep_rejects(copy_of, edit, "differs from")


def test_sweep_rejects_violated_bound(copy_of):
    def edit(rows):
        r = rows[-1]
        r["bound_rhs"] = repr(0.5 * float(r["a_l2"]))
    assert _sweep_rejects(copy_of, edit, "stability bound")


def test_sweep_rejects_wrong_truncation(copy_of):
    def edit(rows):
        rows[0]["N0"] = str(int(rows[0]["N0"]) + 1)
    assert _sweep_rejects(copy_of, edit, "bracket")


# --- verify ----------------------------------------------------------------

def write_verify_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write("name,value,tolerance,passed\n")
        for name, value, tol in rows:
            fh.write(f"{name},{value!r},{tol!r},{int(value <= tol)}\n")


def good_verify_rows():
    return [(name, 0.1 * tol, tol) for name, tol in VERIFY_TOLERANCES.items()]


def test_verify_accepts_listed_tolerances(tmp_path):
    write_verify_csv(tmp_path / "verify.csv", good_verify_rows())
    assert check_verify(tmp_path, None) == []


@pytest.mark.parametrize("edit, fragment", [
    (lambda rows: rows.__setitem__(3, (rows[3][0], 0.0, 2.0 * rows[3][2])), "looser"),
    (lambda rows: rows.__setitem__(0, (rows[0][0], 2.0 * rows[0][2], rows[0][2])), "exceeds"),
    (lambda rows: rows.pop(), "did not run"),
    (lambda rows: rows.append(("extra.check", 0.0, 1.0)), "no listed tolerance"),
])
def test_verify_rejects_tampered_report(tmp_path, edit, fragment):
    rows = good_verify_rows()
    edit(rows)
    write_verify_csv(tmp_path / "verify.csv", rows)
    assert rejected(check_verify(tmp_path, None), fragment)


def test_closed_form_convolution(tmp_path):
    defect = convolve_closed_form_defect(inverse_source)
    assert defect <= 1e-12

    def skewed(lam, sig):
        out = inverse_source.convolve_causal(lam, sig)
        return inverse_source.TimeSignal(out.values * (1.0 + 1e-9), out.tau)
    fake = types.SimpleNamespace(Modulation=inverse_source.Modulation,
                                 TimeSignal=inverse_source.TimeSignal,
                                 convolve_causal=skewed)
    bad = convolve_closed_form_defect(fake)
    assert bad > 1e-12
    write_verify_csv(tmp_path / "verify.csv", good_verify_rows())
    inputs = Inputs(Workload("verify", "verify", 65), 0.1, 0.0, 0.0, 1)
    assert check_operation(tmp_path, inputs, defect) == []
    assert rejected(check_operation(tmp_path, inputs, bad), "convolve_causal")
