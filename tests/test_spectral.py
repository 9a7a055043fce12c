import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import damping_samples, scaled_pair
from wavedamp.config import MAX_DAMPING_SAMPLES
from wavedamp.errors import ResolutionError
from wavedamp.spectral import (
    DampingPair,
    ModeIndex,
    SampledFunction1D,
    boundary_mode,
    eigenpair,
    fit_line,
    holder_seminorm,
    integrate,
    mode_shape,
    multiplier_bound_check,
    project_onto_modes,
    sobolev_norms,
    synthesize_from_modes,
    _masked_inverse_distance,
)
from wavedamp.verify import SeededStream, _random_trig


def sampled(fn, n=257):
    return SampledFunction1D.from_callable(fn, n)


class TestEigenpairs:
    def test_lowest_mode(self):
        pair = eigenpair(ModeIndex(0, 0))
        assert pair.eigenvalue == pytest.approx(math.pi ** 2 / 2)
        assert pair.omega == pytest.approx(math.sqrt(math.pi ** 2 / 2))

    def test_mixed_modes(self):
        assert eigenpair(ModeIndex(1, 0)).eigenvalue == pytest.approx(2.5 * math.pi ** 2)
        assert eigenpair(ModeIndex(2, 3)).eigenvalue == pytest.approx(18.5 * math.pi ** 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ModeIndex(-1, 0)


class TestModeShapes:
    def test_center_value(self):
        assert mode_shape(ModeIndex(0, 0), 0.0, 0.0) == pytest.approx(2.0)

    def test_dirichlet_side_vanishes(self):
        y = np.linspace(0, 1, 11)
        for mode in (ModeIndex(0, 0), ModeIndex(2, 1)):
            assert np.abs(mode_shape(mode, 1.0, y)).max() < 1e-12

    def test_unit_l2_norm_by_quadrature(self):
        n = 513
        s = np.linspace(0, 1, n)
        x, y = np.meshgrid(s, s, indexing="ij")
        vals = mode_shape(ModeIndex(0, 0), x, y) ** 2
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        quad = (vals * w[:, None] * w[None, :]).sum() / (n - 1) ** 2
        assert quad == pytest.approx(1.0, abs=1e-5)

    def test_boundary_mode_values(self):
        assert boundary_mode(0, 0.0) == pytest.approx(math.sqrt(2.0))
        assert abs(boundary_mode(0, 1.0)) < 1e-12

    def test_boundary_mode_orthogonality(self):
        n = 1025
        s = np.linspace(0, 1, n)
        prod = boundary_mode(0, s) * boundary_mode(1, s)
        assert abs(integrate(prod, 1.0 / (n - 1))) < 1e-6

    def test_orthonormality_matrix(self):
        n = 1025
        s = np.linspace(0, 1, n)
        dx = 1.0 / (n - 1)
        for k in range(9):
            for kp in range(k, 9):
                val = integrate(boundary_mode(k, s) * boundary_mode(kp, s), dx)
                assert val == pytest.approx(1.0 if k == kp else 0.0, abs=2e-5)

    def test_discrete_eigen_relation(self):
        # interior 5-point Laplacian reproduces -lambda * shape at O(h^2)
        errs = {}
        for n in (33, 65):
            h = 1.0 / (n - 1)
            s = np.linspace(0, 1, n)
            x, y = np.meshgrid(s, s, indexing="ij")
            for k in range(3):
                for l in range(3):
                    mode = ModeIndex(k, l)
                    u = mode_shape(mode, x, y)
                    lam = eigenpair(mode).eigenvalue
                    lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:]
                           + u[1:-1, :-2] - 4 * u[1:-1, 1:-1]) / h ** 2
                    err = np.abs(lap + lam * u[1:-1, 1:-1]).max()
                    tk, tl = (k + 0.5) * math.pi, (l + 0.5) * math.pi
                    assert err <= h ** 2 / 12 * (tk ** 4 + tl ** 4) * 2 * 1.1
                    errs[(n, k, l)] = err
        for k in range(3):
            for l in range(3):
                ratio = errs[(33, k, l)] / errs[(65, k, l)]
                assert 3.4 <= ratio <= 4.6


class TestFourier:
    def test_project_constant(self):
        coeffs = project_onto_modes(sampled(lambda s: np.ones_like(s)), 0)
        assert coeffs.coeffs[0] == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-5)

    def test_project_mode_is_delta(self):
        coeffs = project_onto_modes(sampled(lambda s: boundary_mode(0, s), 513), 4)
        expect = np.zeros(5)
        expect[0] = 1.0
        np.testing.assert_allclose(coeffs.coeffs, expect, atol=2e-5)

    def test_project_linear(self):
        coeffs = project_onto_modes(sampled(lambda s: s, 513), 0)
        exact = math.sqrt(2) * (2 / math.pi - 4 / math.pi ** 2)
        assert coeffs.coeffs[0] == pytest.approx(exact, abs=1e-5)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            project_onto_modes(SampledFunction1D(np.zeros(10)), 4)

    def test_synthesize_single_mode(self):
        from wavedamp.spectral import FourierCoeffs

        f = synthesize_from_modes(FourierCoeffs(np.array([1.0, 0.0])), 129)
        np.testing.assert_allclose(f.values, boundary_mode(0, f.nodes), atol=1e-12)

    def test_synthesize_zero(self):
        from wavedamp.spectral import FourierCoeffs

        f = synthesize_from_modes(FourierCoeffs(np.zeros(3)), 65)
        assert np.all(f.values == 0.0)

    def test_round_trip_on_coefficients(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=5)
        from wavedamp.spectral import FourierCoeffs

        f = synthesize_from_modes(FourierCoeffs(coeffs), 1025)
        back = project_onto_modes(f, 4)
        np.testing.assert_allclose(back.coeffs, coeffs, atol=1e-5)

    def test_truncation_error_decreases(self):
        f = sampled(lambda s: np.ones_like(s), 1025)
        errs = []
        for order in (2, 4, 8, 16):
            rec = synthesize_from_modes(project_onto_modes(f, order), f.n)
            err = math.sqrt(integrate((rec.values - f.values) ** 2, f.dx))
            errs.append(err)
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_parseval_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vals = rng.normal(size=1025)
            # smooth out so the quadrature is trustworthy
            kernel = np.ones(9) / 9
            vals = np.convolve(vals, kernel, mode="same")
            f = SampledFunction1D(vals)
            coeffs = project_onto_modes(f, 8)
            l2_sq = integrate(f.values ** 2, f.dx)
            assert (coeffs.coeffs ** 2).sum() <= l2_sq + 1e-6


class TestSobolevNorms:
    def test_constant(self):
        norms = sobolev_norms(sampled(lambda s: np.ones_like(s)))
        assert norms.l2 == pytest.approx(1.0)
        assert norms.h1 == pytest.approx(1.0)
        assert norms.h_half == pytest.approx(1.0)

    def test_zero(self):
        norms = sobolev_norms(sampled(lambda s: np.zeros_like(s)))
        assert norms.l2 == norms.h1 == norms.h_half == 0.0

    def test_linear(self):
        norms = sobolev_norms(sampled(lambda s: s, 513))
        assert norms.l2 == pytest.approx(1 / math.sqrt(3), abs=1e-5)
        assert norms.h1 == pytest.approx(math.sqrt(4 / 3), abs=1e-5)
        assert math.isfinite(norms.h_half)

    def test_linear_half_norm_regression(self):
        # frozen from the double-sum quadrature oracle at n = 257
        norms = sobolev_norms(sampled(lambda s: s, 257))
        assert norms.h_half == pytest.approx(1.1530089446595129, rel=1e-9)


class TestHolder:
    def test_constant_is_zero(self):
        assert holder_seminorm(sampled(lambda s: 0.7 * np.ones_like(s)), 0.8) == 0.0

    def test_identity_lipschitz(self):
        assert holder_seminorm(sampled(lambda s: s), 1.0) == pytest.approx(1.0)

    def test_identity_alpha_06(self):
        # sup of |x - y|^(1 - 0.6) sits at the full-interval pair
        assert holder_seminorm(sampled(lambda s: s), 0.6) == pytest.approx(1.0)

    def test_alpha_one_matches_max_slope(self):
        rng = np.random.default_rng(5)
        vals = np.cumsum(rng.normal(size=129))
        f = SampledFunction1D(vals)
        expected = np.abs(np.diff(vals)).max() * (f.n - 1)
        assert holder_seminorm(f, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            holder_seminorm(sampled(lambda s: s), 0.5)


def direct_half_seminorm_sq(f):
    """dx^2 sum over midpoint pairs i != j of (m_i - m_j)^2 / |x_i - x_j|^2, formed pair by pair."""
    v, s, dx = f.values, f.nodes, f.dx
    mid, xm = 0.5 * (v[1:] + v[:-1]), 0.5 * (s[1:] + s[:-1])
    off = ~np.eye(f.n - 1, dtype=bool)
    return float((dx * dx * ((mid[:, None] - mid[None, :])[off] ** 2
                             / (xm[:, None] - xm[None, :])[off] ** 2)).sum())


def direct_holder(f, alpha):
    """max over node pairs i != j of |v_i - v_j| / |s_i - s_j|^alpha, formed pair by pair."""
    v, s = f.values, f.nodes
    off = ~np.eye(f.n, dtype=bool)
    return float(np.max(np.abs(v[:, None] - v[None, :])[off]
                        / np.abs(s[:, None] - s[None, :])[off] ** alpha))


@pytest.mark.parametrize("n", [17, 257])
def test_cached_distance_weights_match_the_direct_formula(n):
    # the direct formulas build the distances and the off-diagonal mask on every call
    rng = np.random.default_rng(n)
    f = SampledFunction1D(np.cumsum(rng.normal(size=n)) / n)
    norms = sobolev_norms(f)
    direct = math.sqrt(norms.l2 ** 2 + direct_half_seminorm_sq(f))
    assert norms.h_half == pytest.approx(direct, rel=1e-12)
    for alpha in (0.55, 0.8, 1.0):
        assert holder_seminorm(f, alpha) == pytest.approx(direct_holder(f, alpha), rel=1e-12)
    inverse, row_sums = _masked_inverse_distance(n)
    again = _masked_inverse_distance(n)
    assert again[0] is inverse and again[1] is row_sums
    assert not inverse.flags.writeable and not row_sums.flags.writeable
    assert np.all(np.diag(inverse) == 0.0)
    assert np.array_equal(row_sums, inverse.sum(axis=1))


def signed(low, high):
    """0, or a value of either sign and of magnitude in [low, high]; drawn without a filter."""
    return st.just(0.0) | st.floats(low, high) | st.floats(-high, -low)


# squares of samples below about 1e-154 underflow, in the direct formulas as in the norms
sample_values = signed(1e-100, 1e3)
samples = st.integers(3, 300).flatmap(lambda n: arrays(np.float64, n, elements=sample_values))


@settings(max_examples=60, deadline=None)
@given(values=samples, alpha=st.floats(0.5, 1.0, exclude_min=True))
def test_norms_match_the_pairwise_formulas(values, alpha):
    # the lag maxima and the row-sum form reorder the pair sums; the values stay the direct ones.
    # SampledFunction1D takes 3 samples at least, so n = 3 (two lags, one midpoint pair) is the
    # smallest case
    f = SampledFunction1D(values)
    assert holder_seminorm(f, alpha) == pytest.approx(direct_holder(f, alpha), rel=1e-12, abs=0.0)
    norms = sobolev_norms(f)
    direct = math.sqrt(norms.l2 ** 2 + direct_half_seminorm_sq(f))
    assert norms.h_half == pytest.approx(direct, rel=1e-12, abs=0.0)


# well scaled for the power-of-two property: a sample times 2^-1000 is still a normal double
normal_values = signed(1e-6, 1e3)
normal_samples = st.integers(3, 300).flatmap(lambda n: arrays(np.float64, n, elements=normal_values))


@settings(max_examples=60, deadline=None)
@given(values=normal_samples, k=st.integers(0, 1000))
@example(values=np.ldexp([3.1e-161, 0.0, 0.0, 0.0, 0.0], 533), k=533)  # (3.1e-161, 0, 0, 0, 0)
def test_norms_are_homogeneous_under_powers_of_two(values, k):
    # the norms scale the samples by a power of two of their own, so squares of tiny samples
    # do not underflow: scaling the input by 2^-k scales each norm by exactly 2^-k
    norms = sobolev_norms(SampledFunction1D(values))
    tiny = sobolev_norms(SampledFunction1D(np.ldexp(values, -k)))
    assert tiny.l2 == math.ldexp(norms.l2, -k)
    assert tiny.h1 == math.ldexp(norms.h1, -k)
    assert tiny.h_half == math.ldexp(norms.h_half, -k)


damping_sides = damping_samples(st.just(0.0) | st.floats(1e-6, 1e3))


@settings(max_examples=60, deadline=None)
@given(a1=damping_sides, a2=damping_sides, k=st.integers(0, 1000))
@example(a1=np.full(257, math.ldexp(3.1e-161, 533)), a2=np.full(257, math.ldexp(3.1e-161, 533)),
         k=533)  # DampingPair.constant(3.1e-161)
@example(a1=np.zeros(3), a2=np.array([0.0, 1.0, 0.0, 0.0]), k=512)  # one side identically zero
def test_pair_norm_is_homogeneous_under_powers_of_two(a1, a2, k):
    # the sides' norms combine under a common power of two, so the pair norm of tiny sides
    # keeps its digits
    assert scaled_pair(a1, a2, -k).l2_norm() == math.ldexp(scaled_pair(a1, a2).l2_norm(), -k)


@settings(max_examples=100, deadline=None)
@given(start=st.floats(-100.0, 100.0),
       steps=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=200),
       data=st.data())
def test_fit_line_matches_polyfit(start, steps, data):
    # well-conditioned data: increasing abscissae at least 0.1 apart, values of at most 1e3
    x = start + np.concatenate([[0.0], np.cumsum(steps)])
    y = data.draw(arrays(np.float64, x.shape[0], elements=st.floats(-1e3, 1e3)))
    slope, intercept = fit_line(x, y)
    expected_slope, expected_intercept = np.polyfit(x, y, 1)
    scale = max(float(np.max(np.abs(y))), 1.0)
    assert slope == pytest.approx(expected_slope, rel=1e-12, abs=1e-12 * scale / np.ptp(x))
    fitted, expected = slope * x + intercept, expected_slope * x + expected_intercept
    assert np.abs(fitted - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("x, y", [([1.0], [2.0]), ([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
                                  ([0.0, 1.0], [1.0, 2.0, 3.0])],
                         ids=["one-point", "one-abscissa", "lengths-differ"])
def test_fit_line_needs_two_abscissae(x, y):
    with pytest.raises(ValueError, match="line fit"):
        fit_line(x, y)


def test_fit_line_is_exact_on_a_line():
    x = np.arange(7.0)
    assert fit_line(x, 3.0 - 0.5 * x) == (-0.5, 3.0)


def test_random_profiles_draw_as_one_block():
    # verify's profiles: one draw of 12 equals 12 single draws, and the cached basis gives the
    # term-by-term sum up to roundoff
    block, one_by_one = SeededStream(13, 4), SeededStream(13, 4)
    f = _random_trig(block, offset=0.25)
    s = np.linspace(0.0, 1.0, 257)
    expected = np.full(257, 0.25)
    for k in range(6):
        expected += one_by_one.normal(size=1)[0] / (k + 1) ** 2 * np.cos((k + 0.5) * math.pi * s)
        expected += one_by_one.normal(size=1)[0] / (k + 1) ** 2 * np.sin((k + 1) * math.pi * s)
    assert one_by_one.uniform(0.0, 1.0) == block.uniform(0.0, 1.0)
    np.testing.assert_allclose(f.values, expected, rtol=0.0, atol=1e-14)


class TestMultiplierBound:
    def test_unit_multiplier_is_tight(self):
        f = sampled(lambda s: np.cos(2 * s) + s)
        chk = multiplier_bound_check(sampled(lambda s: np.ones_like(s)), f, 1.0)
        assert chk.holds
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-9)

    def test_zero_multiplier(self):
        f = sampled(lambda s: np.sin(3 * s))
        chk = multiplier_bound_check(sampled(lambda s: np.zeros_like(s)), f, 0.75)
        assert chk.lhs == 0.0
        assert chk.holds

    def test_affine_multiplier(self):
        chk = multiplier_bound_check(
            sampled(lambda s: 1 + s / 2), sampled(lambda s: boundary_mode(0, s)), 0.75)
        assert chk.holds

    def test_randomized_family(self):
        rng = np.random.default_rng(2024)
        s = np.linspace(0, 1, 257)
        for _ in range(50):
            a_vals = rng.uniform(0, 1) + sum(
                rng.normal() / (k + 1) ** 2 * np.cos((k + 0.5) * math.pi * s) for k in range(6))
            f_vals = sum(rng.normal() / (k + 1) ** 1.5 * np.cos((k + 0.5) * math.pi * s)
                         for k in range(8))
            alpha = rng.uniform(0.55, 1.0)
            chk = multiplier_bound_check(SampledFunction1D(a_vals), SampledFunction1D(f_vals), alpha)
            assert chk.holds


class TestDampingPair:
    def test_corner_mismatch_rejected(self):
        with pytest.raises(ValueError, match="corner"):
            DampingPair.from_callables(lambda s: np.ones_like(s), lambda s: 2 * np.ones_like(s))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DampingPair.from_callables(lambda s: s - 0.5, lambda s: s - 0.5)

    def test_pair_norm(self):
        a = DampingPair.constant(0.3)
        assert a.l2_norm() == pytest.approx(0.3 * math.sqrt(2), rel=1e-6)

    def test_pair_norms_have_the_bits_of_sobolev_norms(self):
        a = DampingPair.from_callables(lambda s: 0.1 + 0.05 * np.sin(3 * s),
                                       lambda s: 0.1 + 0.03 * s * s, 129)
        n1, n2 = (sobolev_norms(c) for c in (a.a1, a.a2))
        assert a.l2_norm() == math.sqrt(n1.l2 * n1.l2 + n2.l2 * n2.l2)
        assert a.h1_sq_max() == max(n1.h1 * n1.h1, n2.h1 * n2.h1)

    def test_pair_norms_at_extreme_scales(self):
        tiny = DampingPair.constant(3.1e-161)
        expected = math.sqrt(2.0) * sobolev_norms(tiny.a1).l2
        assert abs(tiny.l2_norm() - expected) <= math.ulp(expected)
        huge = DampingPair.constant(1e200)
        assert huge.l2_norm() == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-12)
        # an H1 norm of 1e200 squares past the largest double, and so does one past it
        assert huge.h1_sq_max() == math.inf
        def wavy(s):
            return 1e307 * (1.5 + np.cos(40 * np.pi * s))

        assert DampingPair.from_callables(wavy, wavy).h1_sq_max() == math.inf

    def test_pair_norms_take_memory_linear_in_the_samples(self):
        # only the H^{1/2} norm builds a (samples - 1)^2 matrix, 128 MiB at the cap
        a = DampingPair.from_callables(lambda s: 0.1 + 0.05 * s, lambda s: 0.1 + 0.02 * s * s,
                                       MAX_DAMPING_SAMPLES)
        tracemalloc.start()
        try:
            a.l2_norm()
            a.h1_sq_max()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_scaling(self):
        a = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2), lambda s: 0.1 * np.ones_like(s))
        half = a.scaled(0.5)
        np.testing.assert_allclose(half.a1.values, 0.5 * a.a1.values)
