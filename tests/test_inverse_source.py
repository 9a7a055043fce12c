import math

import numpy as np
import pytest

from wavedamp.forward import SourceSpec, mode_boundary_source
from wavedamp.grid import Grid2D
from wavedamp.inverse_source import (
    Modulation,
    _causal_matrix,
    TimeSignal,
    convolve_anticausal,
    convolve_causal,
    gronwall_bound_check,
    source_bound_check,
    stability_factor,
)
from wavedamp.spectral import DampingPair, ModeIndex


def constant_modulation(tau=2.0, steps=400):
    return Modulation.from_callable(lambda t: np.ones_like(t), tau, steps)


class TestCausalConvolution:
    def test_unit_kernel_integrates(self):
        lam = constant_modulation()
        out = convolve_causal(lam, TimeSignal(np.ones(401), 2.0))
        np.testing.assert_allclose(out.values[:, 0], lam.times, atol=1e-12)

    def test_zero_signal(self):
        lam = constant_modulation()
        out = convolve_causal(lam, TimeSignal(np.zeros(401), 2.0))
        assert np.all(out.values == 0.0)

    def test_starts_at_zero(self):
        lam = constant_modulation()
        rng = np.random.default_rng(1)
        out = convolve_causal(lam, TimeSignal(rng.standard_normal(401), 2.0))
        assert out.values[0, 0] == 0.0

    def test_cosine_kernel_antiderivative(self):
        omega = 3.0
        lam = Modulation.from_callable(lambda t: np.cos(omega * t), 2.0, 2048)
        out = convolve_causal(lam, TimeSignal(np.ones(2049), 2.0))
        np.testing.assert_allclose(out.values[:, 0], np.sin(omega * lam.times) / omega,
                                   atol=1e-6)

    def test_causality_bit_exact(self):
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), 3.0, 512)
        rng = np.random.default_rng(2)
        h = rng.standard_normal(513)
        h_tail = h.copy()
        h_tail[301:] += rng.standard_normal(212)
        s_ref = convolve_causal(lam, TimeSignal(h, 3.0)).values
        s_tail = convolve_causal(lam, TimeSignal(h_tail, 3.0)).values
        assert np.array_equal(s_ref[:301], s_tail[:301])


def explicit_causal_matrix(lam):
    """lam(t - s) times the trapezoid weight of s in row t, on the lower triangle."""
    m, dt = lam.steps, lam.dt
    mat = np.zeros((m + 1, m + 1))
    for t in range(1, m + 1):
        for s in range(t + 1):
            weight = 0.5 * dt if s in (0, t) else dt
            mat[t, s] = lam.values[t - s] * weight
    return mat


@pytest.mark.parametrize("steps", [2, 3, 17, 512])
def test_strided_matrix_matches_the_explicit_formula(steps):
    lam = Modulation.from_callable(lambda t: np.cos(2 * t) + 0.3 * t, 3.0, steps)
    mat = _causal_matrix(lam)
    assert np.array_equal(mat, explicit_causal_matrix(lam))
    assert mat.flags.c_contiguous


class TestAnticausalConvolution:
    def test_unit_kernel(self):
        lam = constant_modulation()
        out = convolve_anticausal(lam, TimeSignal(np.ones(401), 2.0))
        np.testing.assert_allclose(out.values[1:-1, 0], 2.0 - lam.times[1:-1], atol=1e-12)
        # end samples carry their O(dt) trapezoid weights
        assert abs(out.values[-1, 0]) <= 0.5 * lam.dt + 1e-15
        assert abs(out.values[0, 0] - 2.0) <= 0.5 * lam.dt + 1e-15

    def test_anticausality_bit_exact(self):
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), 3.0, 512)
        rng = np.random.default_rng(3)
        h = rng.standard_normal(513)
        h_head = h.copy()
        h_head[:200] += 1.0
        k_ref = convolve_anticausal(lam, TimeSignal(h, 3.0)).values
        k_head = convolve_anticausal(lam, TimeSignal(h_head, 3.0)).values
        assert np.array_equal(k_ref[200:], k_head[200:])

    def test_adjoint_identity(self):
        tau, steps = 3.0, 2048
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), tau, steps)
        rng = np.random.default_rng(17)
        for _ in range(100):
            h = TimeSignal(rng.standard_normal(steps + 1), tau)
            g = TimeSignal(rng.standard_normal(steps + 1), tau)
            lhs = convolve_causal(lam, h).inner(g)
            rhs = h.inner(convolve_anticausal(lam, g))
            assert abs(lhs - rhs) <= 1e-8 * h.l2_norm() * g.l2_norm()

    def test_cached_matrix_is_per_modulation(self):
        tau, steps = 3.0, 256
        g = TimeSignal(np.random.default_rng(5).standard_normal((steps + 1, 2)), tau)
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), tau, steps)
        first = convolve_anticausal(lam, g).values
        assert np.array_equal(convolve_anticausal(lam, g).values, first)
        other = Modulation.from_callable(lambda t: np.exp(-t), tau, steps)
        second = convolve_anticausal(other, g).values
        assert not np.allclose(second, first)
        # a fresh modulation with the same samples builds its matrix anew
        fresh = convolve_anticausal(Modulation(other.values, tau), g).values
        assert np.array_equal(second, fresh)

    def test_batched_signal_matches_separate_columns(self):
        tau, steps, k = 3.0, 512, 7
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), tau, steps)
        g = np.random.default_rng(11).standard_normal((steps + 1, k))
        batched = convolve_anticausal(lam, TimeSignal(g, tau)).values
        for col in range(k):
            single = convolve_anticausal(lam, TimeSignal(g[:, col], tau)).values[:, 0]
            assert np.abs(batched[:, col] - single).max() <= 1e-14 * np.abs(single).max()

    def test_discrete_injectivity_rank(self):
        steps = 128
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), 1.0, steps)
        basis = np.eye(steps + 1)
        columns = [convolve_anticausal(lam, TimeSignal(basis[i], 1.0)).values[:, 0]
                   for i in range(steps + 1)]
        mat = np.column_stack(columns)
        assert np.linalg.matrix_rank(mat) == steps


class TestStabilityFactor:
    def test_constant_modulation(self):
        assert stability_factor(constant_modulation()) == pytest.approx(math.sqrt(2.0))

    def test_cosine_on_pi(self):
        lam = Modulation.from_callable(np.cos, math.pi, 4096)
        expect = math.sqrt(2.0) * math.exp(math.pi ** 2 / 2)
        assert stability_factor(lam) == pytest.approx(expect, rel=1e-4)

    def test_modal_cosine_matches_quadrature(self):
        # oracle: ||lam'||^2 for cos(omega t) is lam (tau/2 - sin(2 omega tau)/(4 omega))
        from wavedamp.spectral import eigenpair

        pair = eigenpair(ModeIndex(0, 0))
        tau = 4.0
        lam = Modulation.from_callable(lambda t: np.cos(pair.omega * t), tau, 8192)
        dl2_sq = pair.eigenvalue * (tau / 2 - math.sin(2 * pair.omega * tau) / (4 * pair.omega))
        expect = math.sqrt(2.0) * math.exp(dl2_sq * tau)
        assert stability_factor(lam) == pytest.approx(expect, rel=1e-3)

    def test_zero_initial_value_rejected(self):
        lam = Modulation.from_callable(np.sin, 1.0, 64)
        with pytest.raises(ValueError):
            stability_factor(lam)


class TestGronwall:
    def test_zero_signal(self):
        lam = constant_modulation()
        chk = gronwall_bound_check(lam, TimeSignal(np.zeros(401), 2.0))
        assert chk.lhs == 0.0
        assert chk.holds

    def test_smooth_bump(self):
        lam = constant_modulation(3.0, 600)
        t = lam.times
        bump = np.exp(-40 * (t - 1.5) ** 2)
        chk = gronwall_bound_check(lam, TimeSignal(bump, 3.0))
        assert chk.holds

    def test_seeded_family(self):
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), 3.0, 512)
        rng = np.random.default_rng(99)
        for _ in range(50):
            sig = TimeSignal(rng.standard_normal(513), 3.0)
            assert gronwall_bound_check(lam, sig).holds


class TestSourceBound:
    def test_zero_source(self):
        grid = Grid2D(33)
        a = DampingPair.constant(0.5)
        src = SourceSpec(profile=lambda t: 1.0, load=np.zeros((33, 33)))
        chk = source_bound_check(a, src, 1.0, grid)
        assert chk.wnorm == 0.0
        assert chk.trace_norm == 0.0
        assert chk.ratio == 0.0

    def test_modal_source_two_resolutions(self):
        ratios = {}
        for n in (65, 129):
            grid = Grid2D(n)
            a = DampingPair.constant(0.5)
            src = mode_boundary_source(a, ModeIndex(0, 0), grid)
            ratios[n] = source_bound_check(a, src, 4.0, grid).ratio
        assert abs(ratios[65] - ratios[129]) / ratios[129] < 0.05

    def test_scaling_invariance(self):
        grid = Grid2D(33)
        a = DampingPair.constant(0.5)
        src = mode_boundary_source(a, ModeIndex(0, 0), grid)
        doubled = SourceSpec(profile=src.profile, load=2.0 * src.load)
        chk1 = source_bound_check(a, src, 1.0, grid)
        chk2 = source_bound_check(a, doubled, 1.0, grid)
        assert chk2.wnorm == pytest.approx(2 * chk1.wnorm, rel=1e-12)
        assert chk2.trace_norm == pytest.approx(2 * chk1.trace_norm, rel=1e-12)
        assert chk2.ratio == pytest.approx(chk1.ratio, rel=1e-12)

    def test_requires_positive_damping(self):
        grid = Grid2D(33)
        src = SourceSpec(profile=lambda t: 1.0, load=np.ones((33, 33)))
        with pytest.raises(ValueError):
            source_bound_check(DampingPair.zero(), src, 1.0, grid)
