import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavedamp import inverse_source
from wavedamp.forward import SourceSpec, mode_boundary_source
from wavedamp.grid import Grid2D
from wavedamp.inverse_source import (
    PANEL,
    Modulation,
    TimeSignal,
    _anticausal_rows,
    _causal_rows,
    _kernel_panels,
    convolve_anticausal,
    convolve_causal,
    gronwall_bound_check,
    gronwall_column_checks,
    source_bound_check,
    stability_factor,
)
from wavedamp.spectral import DampingPair, ModeIndex, trapezoid_weights
from wavedamp.verify import SeededStream, _adjoint_checks, _gronwall_check


def constant_modulation(tau=2.0, steps=400):
    return Modulation.from_callable(lambda t: np.ones_like(t), tau, steps)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("kind", [Modulation, TimeSignal])
def test_horizon_must_be_finite_and_positive(kind, tau):
    # a horizon that is not a finite positive number is rejected when the samples are
    # taken, not left to end in a math domain error in l2_norm
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        kind(np.ones(5), tau)


def test_signal_copies_only_an_array_its_caller_keeps():
    data = np.ones((401, 2))
    kept = TimeSignal(data, 2.0)
    assert not np.shares_memory(kept.values, data) and data.flags.writeable
    # a convolution's fresh output is handed over, not copied once more
    handed = TimeSignal(data, 2.0, copy=False)
    assert np.shares_memory(handed.values, data) and not handed.values.flags.writeable
    out = convolve_causal(constant_modulation(), kept)
    assert not out.values.flags.writeable
    assert np.array_equal(out.values, convolve_causal(constant_modulation(), handed).values)


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


@pytest.mark.parametrize("steps", [2, 3, 17, 127, 128, 129, 512])
def test_strided_matrix_matches_the_explicit_formula(steps):
    # every row panel K[t0:t1, :t1] and column panel K[s0:, s0:s1] is the formula's block,
    # and the panels of each layout tile the time grid in order
    lam = Modulation.from_callable(lambda t: np.cos(2 * t) + 0.3 * t, 3.0, steps)
    mat = explicit_causal_matrix(lam)
    for by_columns in (False, True):
        spans = []
        for start, stop, panel in _kernel_panels(lam, by_columns):
            block = mat[start:, start:stop] if by_columns else mat[start:stop, :stop]
            assert np.array_equal(panel, block)
            assert stop - start <= PANEL
            spans.append((start, stop))
        edges = [0] + [stop for _, stop in spans]
        assert spans == list(zip(edges[:-1], edges[1:])) and edges[-1] == steps + 1


def panel_cuts(steps):
    """Cuts on each side of every panel boundary, and the two ends."""
    edges = range(PANEL, steps + 1, PANEL)
    return sorted({c for e in edges for c in (e - 1, e)} | {0, steps})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=st.sampled_from([2, 3, 17, 127, 128, 129, 255, 256, 300]),
       cols=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_panel_products_match_the_matrix_and_keep_causality(data, steps, cols, seed):
    tau = 3.0
    lam = Modulation.from_callable(lambda t: np.cos(2 * t) + 0.3 * t, tau, steps)
    mat = explicit_causal_matrix(lam)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((steps + 1, cols))
    w = trapezoid_weights(steps + 1)[:, None]

    causal = convolve_causal(lam, TimeSignal(h, tau)).values
    scale = (np.abs(mat) @ np.abs(h)).max()
    assert np.abs(causal - mat @ h).max() <= 1e-13 * scale
    anticausal = convolve_anticausal(lam, TimeSignal(h, tau)).values
    scale = ((np.abs(mat).T @ np.abs(w * h)) / w).max()
    assert np.abs(anticausal - (mat.T @ (w * h)) / w).max() <= 1e-13 * scale

    cut = data.draw(st.one_of(st.integers(0, steps), st.sampled_from(panel_cuts(steps))),
                    label="cut")
    tail = h.copy()
    tail[cut + 1:] += rng.standard_normal((steps - cut, cols))
    assert np.array_equal(convolve_causal(lam, TimeSignal(tail, tau)).values[: cut + 1],
                          causal[: cut + 1])
    head = h.copy()
    head[:cut] += rng.standard_normal((cut, cols))
    assert np.array_equal(convolve_anticausal(lam, TimeSignal(head, tau)).values[cut:],
                          anticausal[cut:])


def panel_products(lam, x, by_columns):
    """K x, or K^T x, with each panel's product written straight into its output rows."""
    out = np.empty_like(x)
    for start, stop, panel in _kernel_panels(lam, by_columns):
        if by_columns:
            np.matmul(panel.T, x[start:], out=out[start:stop])
        else:
            np.matmul(panel, x[:stop], out=out[start:stop])
    return out


@settings(max_examples=30, deadline=None)
@given(steps=st.sampled_from([2, 3, 127, 128, 129, 2048]), cols=st.integers(1, 100),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_rows_tile_the_grid_and_are_the_convolution(steps, cols, seed):
    tau = 3.0
    lam = Modulation.from_callable(lambda t: np.cos(2 * t) + 0.3 * t, tau, steps)
    h = np.random.default_rng(seed).standard_normal((steps + 1, cols))
    w = trapezoid_weights(steps + 1)[:, None]
    for rows_of, by_columns, x, convolve, scale in (
            (_causal_rows, False, h, convolve_causal, 1.0),
            (_anticausal_rows, True, w * h, convolve_anticausal, w)):
        spans, blocks = [], []
        for start, stop, rows in rows_of(lam, x):
            spans.append((start, stop))
            blocks.append(rows.copy())  # the next block overwrites rows
        edges = [0] + [stop for _, stop in spans]
        assert spans == list(zip(edges[:-1], edges[1:])) and edges[-1] == steps + 1
        streamed = np.concatenate(blocks)
        assert streamed.tobytes() == panel_products(lam, x, by_columns).tobytes()
        expected = convolve(lam, TimeSignal(h, tau)).values
        assert (streamed / scale).tobytes() == expected.tobytes()


def test_adjoint_pairs_draw_as_one_block():
    # pair by pair, the draws equal one (100, 2, steps + 1) draw and leave the stream at the
    # same position, so the causality check's signal, drawn next, is the same too
    steps = 2048
    block = SeededStream(11, 0)
    pairs = block.standard_normal((100, 2, steps + 1))
    pairwise = SeededStream(11, 0)
    for pair in pairs:
        assert np.array_equal(pairwise.standard_normal((2, steps + 1)), pair)
    used = SeededStream(11, 0)
    _adjoint_checks(used)
    signal = block.standard_normal(steps + 1)
    assert np.array_equal(pairwise.standard_normal(steps + 1), signal)
    assert np.array_equal(used.standard_normal(3), block.standard_normal(3))


def test_adjoint_checks_stay_within_their_memory_bound():
    # verify's 100 adjoint pairs at 2048 steps: h and g (3.3 MB) and one 2.1 MB kernel panel.
    # Holding the pairs once more and whole convolution outputs took 11.6 MB.
    tracemalloc.start()
    try:
        _adjoint_checks(SeededStream(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20


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

    def test_products_leave_the_modulation_as_built(self):
        tau, steps = 3.0, 256
        g = TimeSignal(np.random.default_rng(5).standard_normal((steps + 1, 2)), tau)
        lam = Modulation.from_callable(lambda t: np.cos(2 * t), tau, steps)
        first = convolve_anticausal(lam, g).values
        convolve_causal(lam, g)
        assert np.array_equal(convolve_anticausal(lam, g).values, first)
        # nothing is cached on the frozen modulation
        assert set(vars(lam)) == {"values", "tau"}
        other = Modulation.from_callable(lambda t: np.exp(-t), tau, steps)
        second = convolve_anticausal(other, g).values
        assert not np.allclose(second, first)
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


MODULATIONS = {
    "constant": lambda t: np.ones_like(t),
    "cosine": lambda t: np.cos(2 * t),
    "drift": lambda t: np.cos(2 * t) + 0.3 * t,
    "decay": lambda t: np.exp(-t),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(MODULATIONS)), steps=st.sampled_from([2, 3, 17, 128, 129, 512]),
       cols=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_column_checks_are_the_single_signal_checks(kind, steps, cols, seed):
    # one convolution over the columns gives each column the lhs, rhs and verdict of its own check
    tau = 3.0
    lam = Modulation.from_callable(MODULATIONS[kind], tau, steps)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((steps + 1, cols)) * 10.0 ** rng.uniform(-3, 3, cols)
    batched = gronwall_column_checks(lam, TimeSignal(h, tau))
    assert len(batched) == cols
    for column, chk in zip(h.T, batched):
        single = gronwall_bound_check(lam, TimeSignal(column, tau))
        assert chk.lhs == pytest.approx(single.lhs, rel=1e-12, abs=0.0)
        assert chk.rhs == pytest.approx(single.rhs, rel=1e-12, abs=0.0)
        assert chk.holds == single.holds


def test_gronwall_signals_draw_as_one_block():
    # row by row, one (50, steps + 1) draw equals 50 draws and leaves the same position
    block = SeededStream(12, 1)
    signals = block.standard_normal((50, 513))
    one_by_one = SeededStream(12, 1)
    for row in signals:
        assert np.array_equal(one_by_one.standard_normal(513), row)
    used = SeededStream(12, 1)
    _gronwall_check(used)
    assert np.array_equal(used.standard_normal(3), block.standard_normal(3))


def test_gronwall_check_sweeps_the_panels_once(monkeypatch):
    # the 50 seeded signals share one anticausal convolution, so K's column panels are
    # formed in one sweep, and no causal row panel is formed
    sweeps = []

    def counting_panels(lam, by_columns):
        sweeps.append(by_columns)
        return _kernel_panels(lam, by_columns)

    monkeypatch.setattr(inverse_source, "_kernel_panels", counting_panels)
    assert _gronwall_check(np.random.default_rng(0)).passed
    assert sweeps == [True]


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
