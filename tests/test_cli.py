import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wavedamp
from wavedamp.cli import main
from wavedamp.config import load_config
from wavedamp.forward import solve_from_mode
from wavedamp.grid import Grid2D
from wavedamp.io import read_trace_binary
from wavedamp.reconstruct import project_onto_modes
from wavedamp.spectral import ModeIndex
from wavedamp.verify import CheckResult


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_forward_writes(out, artifacts):
    """The run wrote exactly these artifacts and its manifest, and the manifest lists them."""
    assert sorted(path.name for path in out.iterdir()) == sorted(artifacts + ["manifest.json"])
    assert sorted(json.loads((out / "manifest.json").read_text())["files"]) == sorted(artifacts)


class TestForwardCommand:
    def test_undamped_run_conserves_energy(self, tmp_path):
        cfg = write_cfg(tmp_path, "n = 33\ntau = 2.0\ndamping_kind = zero\n")
        out = tmp_path / "fwd"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
        assert_forward_writes(out, ["energy.csv", "trace.bin"])
        rows = (out / "energy.csv").read_text().splitlines()[1:]
        energies = np.array([float(r.split(",")[1]) for r in rows])
        assert np.abs(energies - energies[0]).max() / energies[0] < 1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["timings_seconds"]) == {"solve", "write"}
        dump = read_trace_binary(out / "trace.bin")
        assert dump["n"] == 33

    def test_damped_run_reports_decay(self, tmp_path):
        cfg = write_cfg(tmp_path, "n = 33\ntau = 8.0\ndamping_kind = constant\ndamping_base = 1.0\n")
        out = tmp_path / "fwd"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
        assert_forward_writes(out, ["decay.json", "energy.csv", "trace.bin"])
        decay = json.loads((out / "decay.json").read_text())
        assert decay["omega_fit"] > 0
        # trace.bin holds the solve's trace bit for bit
        config = load_config(cfg)
        result = solve_from_mode(config.build_damping(), ModeIndex(config.probe_k, config.probe_l),
                                 Grid2D(config.n), config.tau)
        assert read_trace_binary(out / "trace.bin")["sides"].tobytes() == result.trace.sides.tobytes()

    def test_invalid_field_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "n = 5\n")
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "wavelength = 3\n")
        assert main(["forward", "--config", cfg]) == 2


@pytest.mark.parametrize("command, text, field", [
    ("forward", "tau = inf\n", "tau"),
    ("forward", "damping_base = nan\n", "damping_base"),
    ("forward", "damping_slope1 = inf\n", "damping_slope1"),
    ("sweep", "sweep_epsilons = nan,0.2\n", "sweep_epsilons"),
    ("forward", "damping_kind = csv\ndamping_csv1 = {csv}\ndamping_csv2 = {csv}\n",
     "damping_csv"),
], ids=["tau", "damping_base", "damping_slope1", "sweep_epsilons", "damping_csv"])
def test_non_finite_input_exit_2(tmp_path, capsys, command, text, field):
    csv = tmp_path / "a.csv"
    csv.write_text("s,value\n0.0,0.1\n0.5,nan\n1.0,0.1\n")
    cfg = write_cfg(tmp_path, "n = 17\n" + text.format(csv=csv))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"'{field}'" in capsys.readouterr().err


DAMPING_FIELDS = ("damping_kind", "damping_base", "damping_slope1", "damping_slope2",
                  "damping_csv1", "damping_csv2")


@pytest.mark.parametrize("command, text, field", [
    ("forward", "damping_kind = affine\ndamping_base = -0.1\n", "damping_base"),
    ("forward", "damping_kind = affine\ndamping_slope1 = -0.5\n", "damping_slope1"),
    ("forward", "damping_kind = affine\ndamping_base = 0.2\ndamping_slope2 = -0.5\n",
     "damping_slope2"),
    # a sweep's family must be strictly positive; the error names what lets it reach zero
    ("sweep", "damping_kind = zero\n", "damping_kind"),
    ("sweep", "damping_kind = constant\ndamping_base = 0.0\n", "damping_base"),
    ("sweep", "damping_kind = affine\ndamping_base = 0.0\n", "damping_base"),
    ("sweep", "damping_kind = affine\ndamping_base = 0.2\ndamping_slope2 = -0.2\n",
     "damping_slope2"),
    ("sweep", "damping_kind = csv\ndamping_csv1 = {vanishing}\ndamping_csv2 = {positive}\n",
     "damping_csv1"),
    ("sweep", "damping_kind = csv\ndamping_csv1 = {positive}\ndamping_csv2 = {vanishing}\n",
     "damping_csv2"),
    # a csv error names the file at fault
    ("forward", "damping_kind = csv\ndamping_csv1 = {positive}\n", "damping_csv2"),
    ("forward", "damping_kind = csv\ndamping_csv1 = {positive}\ndamping_csv2 = {negative}\n",
     "damping_csv2"),
], ids=["damping_base", "damping_slope1", "damping_slope2", "sweep-zero", "sweep-constant",
        "sweep-affine-base", "sweep-affine-slope2", "sweep-csv1", "sweep-csv2", "csv2-missing",
        "csv2-negative"])
def test_negative_affine_damping_names_its_field_exit_2(tmp_path, capsys, command, text, field):
    positive, vanishing = tmp_path / "positive.csv", tmp_path / "vanishing.csv"
    negative = tmp_path / "negative.csv"
    positive.write_text("s,value\n0.0,0.1\n0.5,0.1\n1.0,0.1\n")
    vanishing.write_text("s,value\n0.0,0.1\n0.5,0.05\n1.0,0.0\n")
    negative.write_text("s,value\n0.0,0.1\n0.5,-0.05\n1.0,0.1\n")
    cfg = write_cfg(tmp_path, "n = 17\n" + text.format(positive=positive, vanishing=vanishing,
                                                        negative=negative))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert [name for name in DAMPING_FIELDS if f"'{name}'" in err] == [field]


@pytest.mark.parametrize("text, field", [
    ("n = 1026\ntau = 0.001\n", "n"),
    ("n = 100000000\n", "n"),
    ("n = 257\ntau = 11.0\n", "tau"),
    ("n = 17\ntau = 1e308\n", "tau"),
    # under the work cap (n^2 * steps = 2.6e8) but over the trace cap (1.5e7 values)
    ("n = 17\ntau = 20000.0\n", "tau"),
    # no grid up to MAX_N resolves a probe mode index above 127
    (f"probe_k = {10 ** 400}\n", "probe_k"),
    ("probe_l = 128\n", "probe_l"),
    ("probe_budget = 128\n", "probe_budget"),
])
def test_oversized_run_exit_2_before_any_solve(tmp_path, monkeypatch, capsys, text, field):
    # a missing cap would reach the solver; fail there instead of allocating
    monkeypatch.setattr(wavedamp.cli, "solve_from_mode",
                        lambda *a, **k: pytest.fail("an oversized run reached the solver"))
    cfg = write_cfg(tmp_path, text)
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("forward", "n = 33\ntau = 0.02\n", "window too short for a decay fit"),
    ("reconstruct", "n = 33\ntau = 1e-12\n", "degenerate projection window"),
    ("sweep", "n = 33\ntau = 1e-12\n", "degenerate projection window"),
    ("forward", "n = 17\ntau = 1e-300\n", "squares below the smallest normal double"),
], ids=["forward-decay-fit", "reconstruct-projection", "sweep-projection", "forward-dt-underflow"])
def test_short_horizon_exits_1_without_a_traceback(tmp_path, command, text, message):
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(wavedamp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "wavedamp.cli", command, "--config",
                          write_cfg(tmp_path, text), "--out", str(out)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr and len(run.stderr.splitlines()) == 1
    assert message in run.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rate", ["745", "1e308"])
def test_large_trunc_rate_sweeps_without_a_traceback(tmp_path, rate):
    # exp(-trunc_rate) underflows, so c_trunc reads 0; N0 comes from its log margin instead
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(wavedamp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "wavedamp.cli", "sweep", "--config",
                          write_cfg(tmp_path, f"n = 33\ntau = 1.0\ntrunc_rate = {rate}\n"),
                          "--out", str(out)], capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert "Traceback" not in run.stderr
    assert json.loads((out / "sweep_context.json").read_text())["c_trunc"] == 0.0
    # the calibration member passes N = 1 with margin 2, and any N = 2 costs 3 * trunc_rate
    rows = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[5] for row in rows] == ["N0", "1", "1", "1", "1"]


def test_horizon_too_short_for_the_decay_fit_fails_before_any_solve(tmp_path, monkeypatch,
                                                                      capsys):
    # a positive damping's run ends in the decay fit, so its window is checked first
    monkeypatch.setattr(wavedamp.cli, "solve_from_mode",
                        lambda *a, **k: pytest.fail("a run too short to fit reached the solver"))
    cfg = write_cfg(tmp_path, "n = 17\ntau = 0.1\ndamping_kind = constant\ndamping_base = 0.5\n")
    out = tmp_path / "fwd"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 1
    assert "window too short for a decay fit: 5 samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["forward", "reconstruct", "sweep", "verify"])
def test_non_utf8_config_exit_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "'config'" in err and "UTF-8" in err


@pytest.mark.parametrize("command", ["forward", "reconstruct", "sweep", "verify"])
@pytest.mark.parametrize("below_a_file", [False, True], ids=["existing-file", "below-a-file"])
def test_unusable_out_exit_2_before_any_solve(tmp_path, monkeypatch, capsys, command,
                                              below_a_file):
    # the output directory is made before the run, so a bad --out costs no solve
    calls = []
    for seam in ("wavedamp.reconstruct.solve_modes", "wavedamp.cli.solve_from_mode",
                 "wavedamp.cli.run_checks"):
        monkeypatch.setattr(seam, lambda *a, _seam=seam, **k: calls.append(_seam))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "x" if below_a_file else taken
    cfg = write_cfg(tmp_path, "n = 33\ntau = 1.0\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "'out_dir'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command, text, message", [
    ("reconstruct", "n = 17\ntau = 1.0\n", "17 samples cannot resolve mode order 4"),
    ("sweep", "n = 33\ntau = 1.0\ntrunc_order = 100\n",
     "257 samples cannot resolve mode order 100"),
], ids=["reconstruct", "sweep"])
def test_unresolved_truncation_order_fails_before_any_solve(tmp_path, capsys, probe_members,
                                                            command, text, message):
    # the projection onto modes 0..trunc_order comes after the probes, so check it first
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert probe_members == []
    assert list(out.iterdir()) == []


class TestReconstructCommand:
    def test_zero_damping_flags_noise_floor(self, tmp_path):
        # at tau = 4 the envelope fit of time_project sees two half-period bins of a trace at
        # roundoff; the default gn_iters asks for a refinement that the floor then skips
        for tau, extra in ((2.0, "gn_iters = 0\n"), (4.0, "")):
            cfg = write_cfg(tmp_path, f"n = 33\ntau = {tau}\ndamping_kind = zero\n{extra}")
            out = tmp_path / f"rec-{tau}"
            assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["below_noise_floor"] is True
            assert summary["trace_norm"] <= 1e-6 * summary["noise_floor"]
            assert "gn_residuals" not in summary and not (out / "refined_a1.csv").exists()

    def test_probe_is_a_batch_of_one(self, tmp_path, probe_members):
        # the undamped reference is in closed form: only the damped probe is stepped
        cfg = write_cfg(tmp_path, "n = 33\ntau = 1.0\ndamping_kind = constant\n"
                                  "damping_base = 0.1\ngn_iters = 0\n")
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec")]) == 0
        assert len(probe_members) == 1
        assert probe_members[0][0].minimum() > 0.0

    def test_constant_damping_recovery(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "n = 65\ntau = 4.0\ndamping_kind = constant\ndamping_base = 0.1\ngn_iters = 0\n")
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["linearized_error_l2"] < 0.15
        assert (out / "recon_a1.csv").exists()
        assert (out / "fourier_coeffs.csv").exists()

    def test_error_at_a_tiny_damping_matches_exact_arithmetic(self, tmp_path):
        # the truth's squares underflow a double; score the written estimate in rationals
        cfg = write_cfg(tmp_path, "n = 33\ntau = 2.0\ndamping_kind = constant\n"
                                  "damping_base = 1e-170\n")
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        s = np.linspace(0.0, 0.8, 257)  # the unguarded region at the default guard, 0.2
        weights = [Fraction(1, 2)] + [Fraction(1)] * 255 + [Fraction(1, 2)]
        truth = Fraction(1e-170)
        num = den = Fraction(0)
        for name in ("recon_a1.csv", "recon_a2.csv"):
            rows = [[float(v) for v in line.split(",")]
                    for line in (out / name).read_text().splitlines()[1:]]
            nodes, values = np.array(rows).T
            for w, value in zip(weights, np.interp(s, nodes, values)):
                num += w * (Fraction(value) - truth) ** 2
                den += w * truth ** 2
        ratio = num / den
        p, q = ratio.numerator, ratio.denominator
        exact = float(Fraction(math.isqrt(p * q << 128), q << 64))  # sqrt(p / q) to 2^-64
        summary = json.loads((out / "summary.json").read_text())
        assert summary["linearized_error_l2"] == pytest.approx(exact, rel=1e-12)


    def test_unusable_probe_mode_fails_before_any_solve(self, tmp_path, monkeypatch, capsys):
        solves = []
        real_solve = wavedamp.forward.solve
        monkeypatch.setattr(wavedamp.forward, "solve",
                            lambda *a, **k: solves.append(1) or real_solve(*a, **k))
        cfg = write_cfg(tmp_path, "n = 33\ntau = 1.0\nprobe_k = 1\n")
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec")]) == 1
        assert "nearly vanishes" in capsys.readouterr().err
        assert solves == []


class TestSweepCommand:
    def test_family_size_guard(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep_epsilons = 0.4\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("epsilons", ["0.1234567,0.1234568,0.05", "0.4,0.4,0.05"])
    def test_colliding_member_ids_exit_2_before_any_solve(self, tmp_path, capsys, probe_members,
                                                          epsilons):
        # sweep.csv names each row, and sweep_context.json the calibration row, by member id
        cfg = write_cfg(tmp_path, f"n = 17\ntau = 1.0\nsweep_epsilons = {epsilons}\n")
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'sweep_epsilons'" in err and "repeat the member ids ['eps-0." in err
        assert probe_members == []
        assert not out.exists()

    def test_records_and_determinism(self, tmp_path):
        text = ("n = 33\ntau = 2.0\ndamping_kind = constant\ndamping_base = 0.1\n"
                "probe_budget = 1\nsweep_epsilons = 0.4,0.2,0.1\n")
        cfg = write_cfg(tmp_path, text)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        sweep1 = (out1 / "sweep.csv").read_bytes()
        assert sweep1 == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "bound_curve.csv").read_bytes() == (out2 / "bound_curve.csv").read_bytes()
        rows = sweep1.decode().splitlines()
        assert rows[0] == "damping_id,epsilon,delta,a_l2,bound_rhs,N0,recon_error_l2,C_emp"
        deltas = [float(r.split(",")[2]) for r in rows[1:]]
        assert deltas == sorted(deltas, reverse=True)

    def test_unusable_probe_mode_fails_before_any_solve(self, tmp_path, monkeypatch, capsys):
        solves = []
        real_solve = wavedamp.forward.solve
        monkeypatch.setattr(wavedamp.forward, "solve",
                            lambda *a, **k: solves.append(1) or real_solve(*a, **k))
        cfg = write_cfg(tmp_path, "n = 33\ntau = 1.0\nprobe_k = 1\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
        assert "nearly vanishes" in capsys.readouterr().err
        assert solves == []

    def test_unresolved_probe_set_fails_before_the_references(self, tmp_path, capsys,
                                                               probe_members):
        # the references are a probe batch too, so the resolution check comes first
        cfg = write_cfg(tmp_path, "n = 33\ntau = 1.0\nprobe_budget = 4\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
        assert "cannot resolve probe mode (0,4)" in capsys.readouterr().err
        assert probe_members == []

    @pytest.mark.parametrize("text", ["tau = 2.0\ndamping_kind = constant\ndamping_base = 1e-100\n",
                                      "tau = 1.0\ndamping_base = 1e160\n"],
                             ids=["1e-100", "1e160"])
    def test_bound_constants_a_double_cannot_hold_fail_before_any_solve(self, tmp_path, capsys,
                                                                         probe_members, text):
        # M^2 / m underflows to 0 at 1e-100, and M = h1^2 overflows at 1e160
        cfg = write_cfg(tmp_path, "n = 33\nprobe_budget = 1\nsweep_epsilons = 0.4,0.2\n" + text)
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) in (1, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "a double cannot hold" in err[0]
        assert probe_members == []
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("text", ["tau = 2.0\ndamping_kind = constant\ndamping_base = 1e-80\n",
                                      "tau = 1.0\ndamping_base = 1e150\n"],
                             ids=["1e-80", "1e150"])
    def test_extreme_scales_a_double_holds_complete(self, tmp_path, text):
        # the refusal above is no wider than the failure
        cfg = write_cfg(tmp_path, "n = 33\nprobe_budget = 1\nsweep_epsilons = 0.4,0.2\n" + text)
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row[1:])
        context = json.loads((out / "sweep_context.json").read_text())
        assert all(math.isfinite(v) for key, v in context.items() if key != "calib_id")

    def test_coefficient_constants_hold_where_m_squared_overflows(self, tmp_path):
        # at an affine 1e150 family M (an H1 norm squared) reads 1.6e299, so M^2 overflows;
        # each C_emp is max over the projection coefficients of (c/M)^2 (m/delta) e^{-k^2(...)}
        cfg = write_cfg(tmp_path, "n = 33\nprobe_budget = 1\nsweep_epsilons = 0.4,0.2\n"
                                  "tau = 1.0\ndamping_base = 1e150\n")
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        config = load_config(cfg)
        context = json.loads((out / "sweep_context.json").read_text())
        m, M = context["m"], context["M"]
        assert M * M == math.inf
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        base = config.build_damping()
        for row, eps in zip(rows, config.sweep_epsilons):
            member, delta = base.scaled(eps), float(row[2])
            expected = max((c / M) ** 2 * (m / delta)
                           * math.exp(-k * k * (config.tau ** 2 * math.pi ** 2 + 1.0))
                           for side in (member.a1, member.a2)
                           for k, c in enumerate(project_onto_modes(side, config.trunc_order).coeffs))
            assert float(row[-1]) > 0.0
            assert float(row[-1]) == pytest.approx(expected, rel=1e-12)
        assert context["c_emp_cal"] == float(rows[0][-1])


class TestVerifyCommand:
    def test_filter_prefix(self, tmp_path, capsys):
        assert main(["verify", "--filter", "rellich"]) == 0
        printed = capsys.readouterr().out
        assert "rellich.constant" in printed
        assert "adjoint.identity" not in printed

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        failing = CheckResult(name="demo.check", value=1.0, tolerance=0.5, passed=False)
        monkeypatch.setattr("wavedamp.cli.run_checks", lambda config, name_prefix=None: [failing])
        assert main(["verify"]) == 1
        printed = capsys.readouterr().out
        assert "demo.check  FAIL" in printed
        assert "FAILED: demo.check" in printed

    def test_unmatched_prefix_exits_1_and_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--filter", "nosuch", "--out", str(out)]) == 1
        assert "no checks match prefix 'nosuch'" in capsys.readouterr().out
        assert not (out / "verify.csv").exists()

    def test_report_artifact(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--filter", "energy", "--out", str(out)]) == 0
        rows = (out / "verify.csv").read_text().splitlines()
        assert rows[0] == "name,value,tolerance,passed"
        assert rows[1].startswith("energy.conservation,")


def test_import_leaves_scipy_unloaded():
    # no module of the package needs scipy
    code = "import sys, wavedamp.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(wavedamp.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_import_leaves_openssl_unloaded():
    # hashlib maps OpenSSL's libcrypto through _hashlib; only io's hashing code imports it
    code = ("import sys\n"
            "before = '_hashlib' in sys.modules\n"
            "import wavedamp.cli\n"
            "print(before, '_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wavedamp.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    before, after = out.stdout.split()
    if before == "True":
        pytest.skip("this interpreter loads _hashlib before any import")
    assert after == "False"


def test_source_bound_check_leaves_scipy_unloaded():
    code = ("import sys\n"
            "from wavedamp.forward import mode_boundary_source\n"
            "from wavedamp.grid import Grid2D\n"
            "from wavedamp.inverse_source import source_bound_check\n"
            "from wavedamp.spectral import DampingPair, ModeIndex\n"
            "grid, a = Grid2D(17), DampingPair.constant(0.5)\n"
            "source_bound_check(a, mode_boundary_source(a, ModeIndex(0, 0), grid), 0.5, grid)\n"
            "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wavedamp.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
