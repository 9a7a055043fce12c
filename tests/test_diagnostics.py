import numpy as np
import pytest

import wavedamp.reconstruct
from wavedamp.diagnostics import estimate_observability, fit_decay
from wavedamp.errors import ObservabilityFailure, ResolutionError
from wavedamp.forward import solve
from wavedamp.grid import Grid2D
from wavedamp.reconstruct import probe_mode, time_project
from wavedamp.spectral import DampingPair, ModeIndex, mode_shape


def modal_run(n, a_value, tau):
    grid = Grid2D(n)
    a = DampingPair.constant(a_value) if a_value > 0 else DampingPair.zero()
    u0 = grid.sample(lambda x, y: mode_shape(ModeIndex(0, 0), x, y))
    return solve(u0, np.zeros_like(u0), a, grid, tau)


class TestFitDecay:
    def test_synthetic_exponential_is_exact(self):
        t = np.linspace(0, 10, 501)
        omega = 0.37
        energies = 3.0 * np.exp(-2 * omega * t)
        fit = fit_decay(t, energies)
        assert fit.omega_fit == pytest.approx(omega, rel=1e-12)
        assert fit.residual < 1e-12

    def test_undamped_rate_is_negligible(self):
        res = modal_run(65, 0.0, 8.0)
        fit = fit_decay(res.times, res.energies)
        assert abs(fit.omega_fit) < 1e-4

    def test_damped_rate_baseline(self):
        res = modal_run(65, 1.0, 8.0)
        fit = fit_decay(res.times, res.energies)
        assert fit.omega_fit == pytest.approx(1.15294932, rel=1e-6)
        res_fine = modal_run(129, 1.0, 8.0)
        fit_fine = fit_decay(res_fine.times, res_fine.energies)
        assert abs(fit.omega_fit - fit_fine.omega_fit) / fit_fine.omega_fit < 0.10

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            fit_decay(np.linspace(0, 1, 30), np.linspace(1, -0.1, 30))

    def test_window_excludes_transient(self):
        t = np.linspace(0, 10, 201)
        energies = np.exp(-t)
        energies[:10] = 5.0  # corrupt the leading 5 percent only
        fit = fit_decay(t, energies)
        assert fit.omega_fit == pytest.approx(0.5, rel=1e-9)


def test_line_fits_call_no_lapack(monkeypatch):
    # the decay fit and time_project's envelope fit are closed-form lines (spectral.fit_line)
    def no_lapack(*args, **kwargs):
        raise AssertionError("a line fit called LAPACK")

    monkeypatch.setattr("numpy.linalg.lstsq", no_lapack)
    monkeypatch.setattr("numpy.polyfit", no_lapack)
    res = modal_run(33, 0.5, 1.0)
    assert fit_decay(res.times, res.energies).omega_fit > 0.0
    meas = probe_mode(DampingPair.constant(0.1, n=33), ModeIndex(0, 0), 1.0, Grid2D(33))
    y1, y2 = time_project(meas)
    assert np.isfinite(y1.values).all() and np.isfinite(y2.values).all()


class TestObservability:
    PROBES = [ModeIndex(k, l) for k in range(3) for l in range(3)]

    def test_kappa_baseline_and_grid_stability(self):
        rep65 = estimate_observability(DampingPair.constant(1.0), 4.0, self.PROBES, Grid2D(65))
        rep129 = estimate_observability(DampingPair.constant(1.0), 4.0, self.PROBES, Grid2D(129))
        assert rep65.kappa_est == pytest.approx(1.41411, rel=1e-4)
        assert abs(rep65.kappa_est - rep129.kappa_est) / rep129.kappa_est < 0.05

    def test_variable_damping_kappa_pinned(self):
        a = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2), lambda s: np.full_like(s, 0.1))
        kappas = {n: estimate_observability(a, 4.0, self.PROBES, Grid2D(n)).kappa_est
                  for n in (33, 65)}
        assert kappas == {33: 4.745966479628067, 65: 4.7680660027619535}

    def test_zero_damping_fails(self):
        with pytest.raises(ObservabilityFailure):
            estimate_observability(DampingPair.zero(), 4.0, [ModeIndex(0, 0)], Grid2D(65))

    def test_damped_probes_run_the_one_probe_path(self, monkeypatch):
        calls = []
        real_probe = wavedamp.reconstruct._probe

        def counting_probe(dampings, modes, *args, **kwargs):
            calls.append((len(dampings), list(modes)))
            return real_probe(dampings, modes, *args, **kwargs)

        monkeypatch.setattr("wavedamp.reconstruct._probe", counting_probe)
        probes = [ModeIndex(0, 0), ModeIndex(1, 0)]
        estimate_observability(DampingPair.constant(1.0), 1.0, probes, Grid2D(33))
        assert calls == [(1, probes)]

    def test_kappa_monotone_in_horizon(self):
        grid = Grid2D(65)
        a = DampingPair.constant(1.0)
        rep4 = estimate_observability(a, 4.0, [ModeIndex(0, 0)], grid)
        rep8 = estimate_observability(a, 8.0, [ModeIndex(0, 0)], grid)
        assert rep8.kappa_est <= rep4.kappa_est * (1 + 1e-12)

    def test_unresolved_probe_rejected_before_solving(self):
        # the probe rule of reconstruct's probes: mode (5, 0) needs n >= 45
        with pytest.raises(ResolutionError, match="need n >= 45"):
            estimate_observability(DampingPair.constant(1.0), 1.0, [ModeIndex(5, 0)], Grid2D(33))

    def test_empty_probe_set_rejected(self):
        with pytest.raises(ValueError):
            estimate_observability(DampingPair.constant(1.0), 4.0, [], Grid2D(33))

