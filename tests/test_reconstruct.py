import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_probe_solves, damping_samples, scaled_pair
from wavedamp.errors import RegimeError, ResolutionError
from wavedamp import forward, reconstruct
from wavedamp.forward import TRACE_WINDOW, BoundaryTrace, solve_from_mode, step_count
from wavedamp.grid import Grid2D
from wavedamp.reconstruct import (
    GN_RTOL,
    ModalMeasurement,
    UndampedReference,
    _least_squares_step,
    _probe,
    coefficient_bound_constant,
    damping_l2_error,
    estimate_gap,
    fit_damping_least_squares,
    graph_norm,
    linearized_recover,
    probe_mode,
    reference_solution,
    select_truncation,
    stability_bound_rhs,
    stability_sweep,
    time_project,
)
from wavedamp.spectral import (
    DampingPair,
    ModeIndex,
    SampledFunction1D,
    boundary_mode,
    eigenpair,
    mode_shape,
)
from wavedamp.forward import stiffness_energy, weighted_l2_sq


# two dampings that are identically zero on every grid, a constant and an affine one
PROBE_DAMPINGS = [DampingPair.zero(), DampingPair.constant(0.0), DampingPair.constant(0.2),
                  DampingPair.from_callables(lambda s: 0.1 * (2 + s),
                                             lambda s: 0.2 * np.ones_like(s))]


def synthetic_measurement(grid, mode, tau, profile_bottom, profile_left, steps=500):
    """Trace built directly from sin(omega t) times spatial profiles."""
    omega = eigenpair(mode).omega
    dt = tau / steps
    times = dt * np.arange(steps + 1)
    sin_t = np.sin(omega * times)
    sides = sin_t[None, :, None] * np.stack([profile_bottom, profile_left])[:, None, :]
    trace = BoundaryTrace(times=times, sides=sides, dt=dt)
    reference = UndampedReference(np.zeros(steps + 1), np.zeros((2, grid.n)), tau)
    return ModalMeasurement(mode=mode, trace=trace, trace_norm=trace.l2_norm(),
                            reference=reference)


class TestProbe:
    def test_measurement_computes_its_norm_once(self, monkeypatch):
        grid = Grid2D(33)
        a, mode = DampingPair.constant(0.2), ModeIndex(1, 0)
        reference = reference_solution(mode, 1.0, grid)
        expected = solve_from_mode(a, mode, grid, 1.0).trace
        expected = expected.difference(reference).l2_norm()
        steps, calls = [], []
        per_step, whole = reconstruct.step_quadrature, reconstruct.integrate
        monkeypatch.setattr(reconstruct, "step_quadrature",
                            lambda sides: steps.append(sides.shape[1]) or per_step(sides))
        monkeypatch.setattr(reconstruct, "integrate",
                            lambda rows, dt: calls.append(rows.shape) or whole(rows, dt))
        monkeypatch.setattr(BoundaryTrace, "l2_norm", lambda self: pytest.fail("norm recomputed"))
        meas = probe_mode(a, mode, 1.0, grid)
        # each step's quadrature once, as its window is handed on, and one time quadrature
        assert sum(steps) == meas.trace.sides.shape[1]
        assert calls == [(meas.trace.sides.shape[1],)]
        assert meas.trace_norm == expected

    def test_reference_subtracts_the_bits_of_its_sides(self):
        grid = Grid2D(33)
        mode = ModeIndex(1, 0)
        reference = reference_solution(mode, 1.0, grid)
        sides = np.stack([solve_from_mode(a, mode, grid, 1.0).trace.sides
                          for a in (DampingPair.constant(0.2), DampingPair.constant(0.1))])
        expected = sides - reference.sides
        for first, last in ((0, 40), (40, sides.shape[-2])):
            window = reference.subtract_from(sides[..., first:last, :], first)
            assert np.array_equal(window, expected[..., first:last, :])
        materialized = BoundaryTrace(times=reference.dt * np.arange(sides.shape[-2]),
                                     sides=reference.sides, dt=reference.dt)
        assert reference.l2_norm() == pytest.approx(materialized.l2_norm(), rel=1e-13)
        with pytest.raises(ValueError, match="matching discretizations"):
            reference.subtract_from(sides[..., :-1, :], 2)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([17, 33]),
           kinds=st.lists(st.sampled_from(range(len(PROBE_DAMPINGS))), min_size=1, max_size=4),
           modes=st.lists(st.sampled_from([ModeIndex(0, 0), ModeIndex(1, 0), ModeIndex(1, 1)]),
                          min_size=1, max_size=3),
           closed_form=st.lists(st.booleans(), min_size=3, max_size=3),
           tau=st.floats(0.05, 1.0), chunk=st.integers(1, 4), width=st.sampled_from([7, 64]))
    def test_probe_hands_on_each_probe_minus_its_reference(self, n, kinds, modes, closed_form,
                                                           tau, chunk, width):
        grid = Grid2D(n)
        dampings = [PROBE_DAMPINGS[kind] for kind in kinds]
        steps = step_count(tau, grid.h)
        references = [reference_solution(mode, tau, grid) if closed else
                      UndampedReference(np.zeros(steps + 1), np.zeros((2, n)), tau)
                      for mode, closed in zip(modes, closed_form)]
        probes = np.full((len(dampings), len(modes), 2, steps + 1, n), np.nan)
        handed = Counter()

        def take(i, j, first, sides):
            if dampings[i].minimum() > 0.0:
                # a stepped probe comes in the batch's windows
                assert first % width == 0 and 1 <= sides.shape[1] <= width
            else:
                # an undamped probe is its closed form, handed on in one piece
                assert first == 0 and sides.shape[1] == steps + 1
            handed.update((i, j, m) for m in range(first, first + sides.shape[1]))
            probes[i, j, :, first:first + sides.shape[1]] = sides

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forward, "BATCH_NODE_CAP", chunk * n * n)
            patch.setattr(forward, "TRACE_WINDOW", width)
            solves = count_probe_solves(patch)
            _probe(dampings, modes, references, tau, grid, take)
        # every (damping, mode, step) once; a damping identically zero on the grid is not
        # stepped, and the rest run as one batch
        assert handed == Counter({(i, j, m): 1 for i in range(len(dampings))
                                  for j in range(len(modes)) for m in range(steps + 1)})
        stepped = [a for a in dampings if a.minimum() > 0.0]
        assert solves == [(a, mode) for a in stepped for mode in modes]
        for i, a in enumerate(dampings):
            for j, mode in enumerate(modes):
                # an undamped probe is the closed form, which test_forward holds to the solve
                run = (solve_from_mode(a, mode, grid, tau).trace if a.minimum() > 0.0
                       else reference_solution(mode, tau, grid))
                assert probes[i, j].tobytes() == (run.sides - references[j].sides).tobytes()

    def test_zero_damping_probe_is_null(self):
        grid = Grid2D(33)
        meas = probe_mode(DampingPair.zero(), ModeIndex(0, 0), 1.0, grid)
        assert meas.trace_norm == 0.0
        assert meas.trace_norm <= 10 * meas.noise_floor

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            probe_mode(DampingPair.constant(0.1), ModeIndex(4, 4), 1.0, Grid2D(17))

    def test_leading_frequency_matches_mode(self):
        grid = Grid2D(65)
        mode = ModeIndex(0, 0)
        meas = probe_mode(DampingPair.constant(0.1), mode, 4.0, grid)
        sig = meas.trace.sides[0, :, 0]
        padded = np.zeros(8 * sig.shape[0])
        padded[: sig.shape[0]] = sig * np.hanning(sig.shape[0])
        freqs = np.fft.rfftfreq(padded.shape[0], meas.trace.dt)
        peak = freqs[np.argmax(np.abs(np.fft.rfft(padded)))]
        omega = eigenpair(mode).omega
        assert abs(2 * math.pi * peak - omega) / omega < 0.15

    def test_response_scales_linearly_in_damping(self):
        grid = Grid2D(65)
        mode = ModeIndex(0, 0)
        devs = {}
        for small in (0.025, 0.05):
            m1 = probe_mode(DampingPair.constant(small), mode, 4.0, grid)
            m2 = probe_mode(DampingPair.constant(2 * small), mode, 4.0, grid)
            scale = np.abs(m2.trace.sides[0]).max()
            devs[small] = np.abs(m2.trace.sides[0] - 2 * m1.trace.sides[0]).max() / scale
        assert devs[0.05] < 0.35
        # deviation is first order in the damping amplitude
        assert 1.4 <= devs[0.05] / devs[0.025] <= 2.9


class TestTimeProject:
    def test_synthetic_sin_trace_recovers_profile(self):
        grid = Grid2D(33)
        mode = ModeIndex(0, 0)
        g1 = np.cos(grid.nodes)
        g2 = 0.5 * np.ones(grid.n)
        meas = synthetic_measurement(grid, mode, 4.0, g1, g2)
        y1, y2 = time_project(meas)
        np.testing.assert_allclose(y1.values, g1, atol=1e-6)
        np.testing.assert_allclose(y2.values, g2, atol=1e-6)

    def test_zero_trace_projects_to_zero(self):
        grid = Grid2D(33)
        meas = synthetic_measurement(grid, ModeIndex(0, 0), 4.0,
                                     np.zeros(grid.n), np.zeros(grid.n))
        y1, y2 = time_project(meas)
        assert np.all(y1.values == 0.0)
        assert np.all(y2.values == 0.0)

    def test_first_order_model(self):
        # Y approximates a * omega * sqrt(2) * phi on the solver output
        grid = Grid2D(65)
        mode = ModeIndex(0, 0)
        a_val = 0.1
        meas = probe_mode(DampingPair.constant(a_val), mode, 4.0, grid)
        y1, _ = time_project(meas)
        omega = eigenpair(mode).omega
        model = a_val * omega * math.sqrt(2.0) * boundary_mode(0, grid.nodes)
        keep = grid.nodes <= 0.8
        rel = np.abs(y1.values[keep] - model[keep]) / np.abs(model[keep])
        assert rel.max() < 0.10


class TestLinearizedRecover:
    def test_exact_synthetic_inversion(self):
        grid = Grid2D(33)
        mode = ModeIndex(0, 0)
        omega = eigenpair(mode).omega
        a_true = 0.3
        profile = a_true * omega * math.sqrt(2.0) * boundary_mode(0, grid.nodes)
        meas = synthetic_measurement(grid, mode, 4.0, profile, profile)
        y1, y2 = time_project(meas)
        est = linearized_recover(y1, y2, mode, guard=0.2)
        keep = est.a1.nodes <= 0.8
        np.testing.assert_allclose(est.a1.values[keep], a_true, atol=1e-6)

    def test_zero_input(self):
        grid = Grid2D(33)
        zero = SampledFunction1D(np.zeros(grid.n))
        est = linearized_recover(zero, zero, ModeIndex(0, 0))
        assert np.all(est.a1.values == 0.0)
        assert np.all(est.a2.values == 0.0)

    def test_higher_mode_unusable(self):
        grid = Grid2D(65)
        ones = SampledFunction1D(np.ones(grid.n))
        with pytest.raises(ResolutionError):
            linearized_recover(ones, ones, ModeIndex(1, 1), guard=0.2)

    def test_end_to_end_recovery(self):
        grid = Grid2D(65)
        truth = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2),
                                           lambda s: 0.1 * np.ones_like(s))
        meas = probe_mode(truth, ModeIndex(0, 0), 4.0, grid)
        y1, y2 = time_project(meas)
        est = linearized_recover(y1, y2, ModeIndex(0, 0), guard=0.2)
        assert damping_l2_error(est, truth, guard=0.2) < 0.15

    def test_axis_swap_symmetry(self):
        grid = Grid2D(65)
        a = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2),
                                       lambda s: 0.1 * np.ones_like(s))
        swapped = DampingPair(a.a2, a.a1)
        m1 = probe_mode(a, ModeIndex(0, 0), 2.0, grid)
        m2 = probe_mode(swapped, ModeIndex(0, 0), 2.0, grid)
        e1 = linearized_recover(*time_project(m1), ModeIndex(0, 0))
        e2 = linearized_recover(*time_project(m2), ModeIndex(0, 0))
        np.testing.assert_allclose(e1.a1.values, e2.a2.values, atol=1e-12)
        np.testing.assert_allclose(e1.a2.values, e2.a1.values, atol=1e-12)


estimate_sides = damping_samples(st.just(0.0) | st.floats(1e-6, 1e3))
truth_sides = damping_samples(st.floats(1e-6, 1e3))  # never zero: the error is relative


@settings(max_examples=60, deadline=None)
@given(estimate=st.tuples(estimate_sides, estimate_sides),
       truth=st.tuples(truth_sides, truth_sides), k=st.integers(-800, 800))
def test_relative_error_is_unchanged_under_powers_of_two(estimate, truth, k):
    # the difference and the truth are each scaled before they are squared.  For |k| <= 800
    # every interpolated value and difference of these samples stays a normal double, so
    # scaling both pairs by 2^k leaves every bit of the ratio
    expected = damping_l2_error(scaled_pair(*estimate), scaled_pair(*truth))
    assert damping_l2_error(scaled_pair(*estimate, k), scaled_pair(*truth, k)) == expected


def test_relative_error_past_the_double_range_is_inf():
    assert damping_l2_error(DampingPair.constant(1.0), DampingPair.constant(5e-324)) == math.inf


class TestGap:
    def test_zero_damping_gap(self):
        grid = Grid2D(33)
        gap = estimate_gap(DampingPair.zero(), 1, 1.0, grid)
        assert gap.value == 0.0

    def test_monotone_in_budget(self):
        grid = Grid2D(33)
        a = DampingPair.constant(0.2)
        refs = {}
        vals = []
        for budget in (0, 1, 2):
            vals.append(estimate_gap(a, budget, 1.0, grid).value)
        assert vals[0] <= vals[1] <= vals[2]

    def test_two_resolution_stability(self):
        a = DampingPair.constant(0.1)
        v65 = estimate_gap(a, 2, 4.0, Grid2D(65)).value
        v129 = estimate_gap(a, 2, 4.0, Grid2D(129)).value
        assert abs(v65 - v129) / v129 < 0.05

    def test_keeps_the_measurement_of_each_probe(self):
        grid = Grid2D(33)
        a = DampingPair.constant(0.2)
        modes = [ModeIndex(k, l) for k in range(2) for l in range(2)]
        refs = {mode: reference_solution(mode, 1.0, grid) for mode in modes}
        gap = estimate_gap(a, 1, 1.0, grid, references=refs)
        assert list(gap.measurements) == modes
        ratios = []
        for mode in modes:
            kept = gap.measurements[mode]
            fresh = probe_mode(a, mode, 1.0, grid)
            alone = solve_from_mode(a, mode, grid, 1.0).trace.difference(refs[mode])
            assert kept.reference is refs[mode]
            for trace in (fresh.trace, alone):
                assert np.array_equal(kept.trace.sides, trace.sides)
            ratios.append(fresh.trace_norm / graph_norm(mode))
        assert gap.value == max(ratios)

    @pytest.mark.parametrize("tau, case", [(0.3, "shorter_than_a_window"),
                                           (0.3505, "steps_fill_windows"),
                                           (0.7, "steps_and_one_fill_windows"),
                                           (0.6, "generic")])
    def test_streamed_norms_have_the_stored_bits(self, tau, case):
        grid = Grid2D(65)
        steps = step_count(tau, grid.h)
        assert {"shorter_than_a_window": steps + 1 < TRACE_WINDOW,
                "steps_fill_windows": steps % TRACE_WINDOW == 0,
                "steps_and_one_fill_windows": (steps + 1) % TRACE_WINDOW == 0,
                "generic": steps > TRACE_WINDOW and steps % TRACE_WINDOW > 0
                and (steps + 1) % TRACE_WINDOW > 0}[case]
        a = DampingPair.from_callables(lambda s: 0.1 * (2 + s), lambda s: 0.2 * np.ones_like(s))
        kept = ModeIndex(1, 0)
        gap = estimate_gap(a, 1, tau, grid, keep={kept})
        assert list(gap.measurements) == [kept]
        for mode, norm in gap.norms.items():
            stored = probe_mode(a, mode, tau, grid)
            assert norm == stored.trace_norm
            if mode == kept:
                assert gap.measurements[mode].trace_norm == norm
                assert gap.measurements[mode].trace.sides.tobytes() == stored.trace.sides.tobytes()

    def test_chunked_batch_gives_the_same_bits(self, monkeypatch):
        grid = Grid2D(17)
        a = DampingPair.constant(0.2)
        whole = estimate_gap(a, 1, 2.2, grid)
        monkeypatch.setattr(forward, "BATCH_NODE_CAP", 3 * grid.n ** 2)
        members = count_probe_solves(monkeypatch)
        chunked = estimate_gap(a, 1, 2.2, grid)
        assert len(members) == 4
        assert chunked.norms == whole.norms
        for mode, meas in whole.measurements.items():
            assert chunked.measurements[mode].trace.sides.tobytes() == meas.trace.sides.tobytes()

    def test_zero_damping_is_not_stepped_and_its_norms_are_zero(self, monkeypatch):
        grid = Grid2D(17)
        members = count_probe_solves(monkeypatch)
        gap = estimate_gap(DampingPair.zero(), 1, 1.0, grid, keep={ModeIndex(0, 0)})
        assert members == []
        assert list(gap.norms.values()) == [0.0] * 4
        assert not gap.measurements[ModeIndex(0, 0)].trace.sides.any()

    def test_references_must_match_the_horizon(self):
        # a zero damping steps nothing, so nothing else would notice
        grid = Grid2D(17)
        modes = [ModeIndex(k, l) for k in range(2) for l in range(2)]
        refs = {mode: reference_solution(mode, 1.0, grid) for mode in modes}
        with pytest.raises(ValueError, match="matching discretizations"):
            estimate_gap(DampingPair.zero(), 1, 2.0, grid, references=refs)
        with pytest.raises(ValueError, match="tau must be positive"):
            estimate_gap(DampingPair.zero(), 1, -1.0, grid, references=refs)

    def test_graph_norm_value(self):
        lam = eigenpair(ModeIndex(0, 0)).eigenvalue
        assert graph_norm(ModeIndex(0, 0)) == pytest.approx(math.sqrt(lam + lam * lam))


class TestTruncationRule:
    def test_worked_example(self):
        assert select_truncation(1.0, 1.0, 2.0, math.exp(-18)) == 2

    def test_boundary_case(self):
        assert select_truncation(1.0, 1.0, 2.0, math.exp(-2.0)) == 1

    def test_monotone_in_delta(self):
        deltas = [math.exp(-e) for e in (3, 6, 12, 24, 48)]
        orders = [select_truncation(1.0, 1.0, 2.0, d) for d in deltas]
        assert all(a <= b for a, b in zip(orders, orders[1:]))

    def test_regime_violation(self):
        with pytest.raises(RegimeError):
            select_truncation(1.0, 1.0, 2.0, 1.0)

    def test_bracketing(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = rng.uniform(0.1, 5.0)
            rate = rng.uniform(0.5, 3.0)
            c = rng.uniform(0.1, 5.0)
            delta = m / c * math.exp(-rate) * rng.uniform(0.001, 1.0)
            n0 = select_truncation(c, m, rate, delta)
            ln = math.log(c / m * delta)
            assert ln + rate * n0 ** 2 <= -2 * math.log(n0)
            assert ln + rate * (n0 + 1) ** 2 > -2 * math.log(n0 + 1)


class TestStabilityBound:
    def test_small_gap_value(self):
        val = stability_bound_rhs(math.exp(-4.0), 1.0, 1.0, 1.0)
        assert val == pytest.approx(0.5 + math.exp(-4.0))

    def test_tiny_gap_value(self):
        val = stability_bound_rhs(math.exp(-100.0), 1.0, 1.0, 1.0)
        assert val == pytest.approx(0.1, abs=1e-12)

    def test_zero_gap_is_vacuous(self):
        assert stability_bound_rhs(0.0, 1.0, 1.0, 1.0) == math.inf

    def test_singularity_rejected(self):
        with pytest.raises(ValueError):
            stability_bound_rhs(0.5, 0.5, 1.0, 1.0)

    def test_monotone_decreasing_in_log_gap(self):
        vals = [stability_bound_rhs(math.exp(-e), 1.0, 1.0, 1.0) for e in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCoefficientBound:
    def test_zero_coefficient(self):
        assert coefficient_bound_constant(0.0, 3, 0.1, 1.0, 0.01, 4.0) == 0.0

    def test_log_space_underflow_is_zero(self):
        # k = 3 at tau = 4 puts the exponent beyond 1400; the ratio underflows
        assert coefficient_bound_constant(0.5, 3, 0.1, 1.0, 0.01, 4.0) == 0.0

    def test_k0_matches_direct_formula(self):
        val = coefficient_bound_constant(0.3, 0, 0.5, 2.0, 0.01, 4.0)
        assert val == pytest.approx(0.3 ** 2 / (2.0 ** 2 / 0.5 * 0.01))


@pytest.fixture(scope="module")
def small_sweep():
    grid = Grid2D(33)
    base = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2),
                                      lambda s: 0.1 * np.ones_like(s))
    eps = [0.4, 0.2, 0.1]
    family = [base.scaled(e) for e in eps]
    return stability_sweep(family, eps, 2.0, grid, probe_budget=1)


class TestSweep:
    def test_gap_monotone_in_scale(self, small_sweep):
        records, _ = small_sweep
        deltas = [r.delta for r in records]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_bound_holds_below_calibration(self, small_sweep):
        records, context = small_sweep
        for r in records:
            if r.damping_id != context.calib_id:
                assert r.a_l2 <= r.bound_rhs

    def test_truncation_bracketing_per_record(self, small_sweep):
        records, context = small_sweep
        for r in records:
            ln = math.log(context.c_trunc / context.m * r.delta)
            assert ln + context.trunc_rate * r.n0 ** 2 <= -2 * math.log(r.n0)
            assert ln + context.trunc_rate * (r.n0 + 1) ** 2 > -2 * math.log(r.n0 + 1)

    def test_coefficient_constant_calibration_dominates(self, small_sweep):
        records, context = small_sweep
        assert context.c_emp_cal == pytest.approx(max(r.c_emp for r in records))

    def test_each_probe_mode_solved_once_per_member(self, monkeypatch):
        grid = Grid2D(17)
        eps = [0.4, 0.2]
        family = [DampingPair.constant(0.1).scaled(e) for e in eps]
        budget = 1
        solves = count_probe_solves(monkeypatch)
        stability_sweep(family, eps, 1.0, grid, probe_budget=budget)
        # the undamped references are in closed form: no member of any batch is undamped
        assert len(solves) == (budget + 1) ** 2 * len(family)
        modes = [ModeIndex(k, l) for k in range(budget + 1) for l in range(budget + 1)]
        probes = [mode for a, mode in solves if a.minimum() > 0.0]
        references = [mode for a, mode in solves if a.minimum() == 0.0]
        assert Counter(probes) == {mode: len(family) for mode in modes}
        assert references == []

    def test_sweep_holds_no_reference_trace(self):
        # a member's four damped traces take 0.73 MB here; streamed, a member holds a
        # window of them and its recovery trace: measured peaks 0.84 MB, 1.39 MB with
        # the traces stored, and 2.11 MB with references solved as well
        grid = Grid2D(33)
        family = [DampingPair.constant(0.1).scaled(e) for e in (0.4, 0.2)]
        stability_sweep(family, [0.4, 0.2], 0.25, grid, probe_budget=1)  # first-call set-up
        tracemalloc.start()
        try:
            stability_sweep(family, [0.4, 0.2], 4.0, grid, probe_budget=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * 2 ** 20

    def test_sweep_peak_grows_with_the_budget_by_no_trace(self):
        # budget 3 adds twelve probes to budget 1, and so their stepping state to each
        # batch.  Stored, their traces would also grow that step with tau: 1.11 MB more
        # at tau = 4 than at tau = 2 (measured).  Streamed, the growth at both horizons
        # is the same to within one window of the budget-3 batch (measured 0.04 MB)
        grid = Grid2D(33)
        family = [DampingPair.constant(0.1).scaled(e) for e in (0.4, 0.2)]
        stability_sweep(family, [0.4, 0.2], 0.25, grid, probe_budget=3)  # first-call set-up

        def peak(tau, budget):
            tracemalloc.start()
            try:
                stability_sweep(family, [0.4, 0.2], tau, grid, probe_budget=budget)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = {tau: peak(tau, 3) - peak(tau, 1) for tau in (2.0, 4.0)}
        window = 16 * 2 * TRACE_WINDOW * grid.n * 8
        assert abs(growth[4.0] - growth[2.0]) < window

    def test_unusable_recovery_mode_rejected_before_any_solve(self, monkeypatch):
        grid = Grid2D(33)
        family = [DampingPair.constant(0.1).scaled(e) for e in (0.4, 0.2)]
        solves = count_probe_solves(monkeypatch)
        with pytest.raises(ResolutionError, match="nearly vanishes"):
            stability_sweep(family, [0.4, 0.2], 1.0, grid, probe_budget=1,
                            recovery_mode=ModeIndex(1, 0))
        assert solves == []

    def test_recovery_mode_outside_probe_set_rejected_before_any_solve(self, monkeypatch):
        # on 17 nodes the samples of boundary mode 5 stay clear of its zeros,
        # so only the probe-set check stops it
        grid = Grid2D(17)
        family = [DampingPair.constant(0.1).scaled(e) for e in (0.4, 0.2)]
        solves = count_probe_solves(monkeypatch)
        with pytest.raises(ResolutionError, match="outside the probe set"):
            stability_sweep(family, [0.4, 0.2], 1.0, grid, probe_budget=0,
                            recovery_mode=ModeIndex(5, 0))
        assert solves == []

    def test_family_size_enforced(self):
        grid = Grid2D(33)
        base = DampingPair.constant(0.1)
        with pytest.raises(ValueError):
            stability_sweep([base], [1.0], 1.0, grid)


class TestTensorStiffnessChain:
    def test_single_constant_across_modes(self):
        # product (a1 x a2) * mode stays in the Dirichlet-free space with
        # gradient norm at most C0 sqrt(lambda) times the tensor H1 norm
        grid = Grid2D(65)
        x, y = grid.meshgrid()
        rng = np.random.default_rng(11)
        ratios = []
        for _ in range(5):
            c1 = rng.normal(0.5, 0.2, 4)
            c2 = rng.normal(0.5, 0.2, 4)
            a1 = 0.3 + abs(c1[0]) + sum(abs(c) / (k + 2) ** 2 * np.cos((k + 0.5) * math.pi * grid.nodes)
                                        for k, c in enumerate(c1))
            a2 = 0.3 + abs(c1[0]) + sum(abs(c) / (k + 2) ** 2 * np.cos((k + 0.5) * math.pi * grid.nodes)
                                        for k, c in enumerate(c2))
            a2[0] = a1[0]
            tensor = a1[:, None] * a2[None, :]
            tensor_h1 = math.sqrt(weighted_l2_sq(tensor, grid) + stiffness_energy(tensor, grid))
            for k in range(3):
                for l in range(3):
                    mode = ModeIndex(k, l)
                    lam = eigenpair(mode).eigenvalue
                    prod = tensor * mode_shape(mode, x, y)
                    ratios.append(math.sqrt(stiffness_energy(prod, grid))
                                  / (math.sqrt(lam) * tensor_h1))
        # frozen envelope from the quadrature oracle run
        assert max(ratios) <= 1.25


class TestGaussNewton:
    def test_fixed_point_on_exact_data(self):
        grid = Grid2D(33)
        truth = DampingPair.constant(0.1, n=33)
        meas = probe_mode(truth, ModeIndex(0, 0), 1.0, grid)
        refined, info = fit_damping_least_squares([meas], truth, grid, 1.0,
                                                  iters=2, fit_order=1)
        # data generated by the initial guess: residual starts near zero
        assert info.residuals[0] < 1e-10
        assert damping_l2_error(refined, truth, guard=0.2) < 1e-6

    def test_zero_data_zero_init(self):
        grid = Grid2D(33)
        zero = DampingPair.zero(n=33)
        meas = probe_mode(zero, ModeIndex(0, 0), 1.0, grid)
        refined, info = fit_damping_least_squares([meas], zero, grid, 1.0,
                                                  iters=2, fit_order=1)
        assert info.residuals[0] == 0.0
        assert info.termination == "zero_residual"
        assert np.all(refined.a1.values == 0.0)

    def test_exhausted_iterations_are_not_converged(self):
        grid = Grid2D(33)
        meas = probe_mode(DampingPair.constant(0.1, n=33), ModeIndex(0, 0), 1.0, grid)
        _, info = fit_damping_least_squares([meas], DampingPair.constant(0.05, n=33),
                                            grid, 1.0, iters=1, fit_order=0)
        assert len(info.residuals) == 2
        assert info.residuals[-1] > 0.0
        assert info.termination == "max_iters"

    def test_failed_line_search_ends_the_fit(self, monkeypatch):
        # a model trace that ignores the damping: zero Jacobian, zero step,
        # so the first line search cannot improve and a second round would repeat it
        grid = Grid2D(33)
        mode = ModeIndex(0, 0)
        meas = probe_mode(DampingPair.constant(0.1, n=33), mode, 1.0, grid)
        frozen = solve_from_mode(DampingPair.constant(0.05, n=33), mode, grid, 1.0).trace
        calls = []

        def fake_solve_modes(dampings, modes, grid, tau, *, reduce):
            # every member, the batched Jacobian columns too, hands on the frozen trace
            calls.extend(a for a in dampings for _ in modes)
            for first in range(0, frozen.sides.shape[1], TRACE_WINDOW):
                window = frozen.sides[:, first:first + TRACE_WINDOW]
                reduce(0, first, np.stack([window] * (len(dampings) * len(modes))))

        monkeypatch.setattr("wavedamp.reconstruct.solve_modes", fake_solve_modes)
        _, info = fit_damping_least_squares([meas], DampingPair.constant(0.05, n=33),
                                            grid, 1.0, iters=3, fit_order=0)
        assert len(info.residuals) == 2
        assert info.residuals[1] == info.residuals[0] > 0.0
        assert info.termination == "stalled"
        # one initial residual, two Jacobian columns, four line-search trials
        assert len(calls) == 7

    @pytest.mark.parametrize("case", ["horizon", "mixed horizons", "grid", "reference horizon",
                                      "reference grid"])
    def test_measurements_from_another_discretization_fail_before_any_solve(self, case,
                                                                             monkeypatch):
        grid, a, mode = Grid2D(33), DampingPair.constant(0.1, n=33), ModeIndex(0, 0)
        meas = probe_mode(a, mode, 1.0, grid)
        steps = meas.trace.sides.shape[1] - 1

        def with_reference(reference):
            return ModalMeasurement(mode=mode, trace=meas.trace, trace_norm=meas.trace_norm,
                                    reference=reference)

        measurements = {
            "horizon": lambda: [probe_mode(a, mode, 2.0, grid)],
            "mixed horizons": lambda: [meas, probe_mode(a, ModeIndex(1, 0), 2.0, grid)],
            "grid": lambda: [probe_mode(a, mode, 1.0, Grid2D(17))],
            "reference horizon": lambda: [with_reference(reference_solution(mode, 2.0, grid))],
            "reference grid": lambda: [with_reference(UndampedReference(
                np.zeros(steps + 1), np.zeros((2, 17)), 1.0))],
        }[case]()
        solves = count_probe_solves(monkeypatch)
        with pytest.raises(ValueError, match="matching discretizations"):
            fit_damping_least_squares(measurements, a, grid, 1.0, iters=1, fit_order=0)
        assert solves == []

    def test_fit_differences_against_the_measurement_reference(self):
        # data carrying a zero reference: the closed-form undamped reference
        # (nonzero at the discretization floor) would leave a residual
        grid = Grid2D(33)
        truth = DampingPair.constant(0.1, n=33)
        mode = ModeIndex(0, 0)
        assert reference_solution(mode, 1.0, grid).l2_norm() > 0.0
        damped = solve_from_mode(truth, mode, grid, 1.0).trace
        zero = UndampedReference(np.zeros_like(damped.times), np.zeros((2, grid.n)), 1.0)
        meas = ModalMeasurement(mode=mode, trace=damped, trace_norm=damped.l2_norm(),
                                reference=zero)
        assert meas.noise_floor == 0.0
        _, info = fit_damping_least_squares([meas], truth, grid, 1.0, iters=1, fit_order=0)
        assert info.residuals == [0.0]
        assert info.termination == "zero_residual"

    @staticmethod
    def _affine_fit_inputs():
        grid = Grid2D(33)
        truth = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2),
                                           lambda s: 0.1 * np.ones_like(s), n=33)
        mode = ModeIndex(0, 0)
        meas = probe_mode(truth, mode, 1.0, grid)
        y1, y2 = time_project(meas)
        return grid, meas, linearized_recover(y1, y2, mode)

    def test_tolerance_ends_the_fit_at_its_last_solve(self, monkeypatch):
        grid, meas, estimate = self._affine_fit_inputs()
        events = []  # (damping, mode) of each solved member, None for each least-squares solve
        lstsq = np.linalg.lstsq
        count_probe_solves(monkeypatch, events)
        monkeypatch.setattr("numpy.linalg.lstsq",
                            lambda *a, **k: events.append(None) or lstsq(*a, **k))
        refined, info = fit_damping_least_squares([meas], estimate, grid, 1.0,
                                                  iters=6, fit_order=1)
        params = 4
        rounds = len(info.residuals) - 1
        assert info.termination == "tolerance"
        assert 1 <= rounds < 6
        # each round: a batch member per Jacobian column, the step's lstsq, the line-search
        # trials, then the prediction's lstsq
        runs = [len(run) for run in "".join("|" if a is None else "s" for a in events).split("|")]
        assert len(runs) == 2 * rounds + 1
        assert runs[0] == 1 + params and runs[2:-1:2] == [params] * (rounds - 1)
        trials = runs[1::2]
        assert all(1 <= t <= 4 for t in trials)
        solved = [event[0] for event in events if event is not None]
        assert len(solved) == 1 + rounds * params + sum(trials)
        # the stop costs no solve: the accepted trial, the first solve of the
        # returned pair, is the last one
        first = next(i for i, a in enumerate(solved)
                     if np.array_equal(a.a1.values, refined.a1.values)
                     and np.array_equal(a.a2.values, refined.a2.values))
        assert first == len(solved) - 1

    def test_tolerance_stop_is_true(self):
        # a round restarted from the returned pair gains less than the tolerance
        grid, meas, estimate = self._affine_fit_inputs()
        refined, info = fit_damping_least_squares([meas], estimate, grid, 1.0,
                                                  iters=6, fit_order=1)
        assert info.termination == "tolerance"
        _, again = fit_damping_least_squares([meas], refined, grid, 1.0, iters=1, fit_order=1)
        assert again.residuals[0] == info.residuals[-1]
        first, last = again.residuals[0], again.residuals[-1]
        assert (first - last) / first < GN_RTOL

    @pytest.mark.parametrize("degenerate", ["zero column", "equal columns"])
    def test_gram_step_is_the_minimum_norm_least_squares_step(self, degenerate):
        rng = np.random.default_rng(7)
        jac = rng.standard_normal((400, 6))
        if degenerate == "zero column":
            jac[:, 2] = 0.0
        else:
            jac[:, 4] = jac[:, 1]
        r = rng.standard_normal(400)
        columns = np.ascontiguousarray(jac.T)
        step = _least_squares_step(columns, columns @ columns.T, r)
        expected, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        np.testing.assert_allclose(step, expected, rtol=0.0, atol=1e-10)

    def test_one_round_stays_within_its_memory_bound(self, monkeypatch):
        grid, meas, estimate = self._affine_fit_inputs()
        shapes = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr("numpy.linalg.lstsq",
                            lambda a, *args, **kw: shapes.append(np.shape(a)) or lstsq(a, *args, **kw))
        tracemalloc.start()
        try:
            _, info = fit_damping_least_squares([meas], estimate, grid, 1.0, iters=1, fit_order=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(info.residuals) == 2
        assert peak < 2 * 2 ** 20
        # LAPACK's workspace is not traced: the round's least-squares solves are held to
        # the (10, 10) Gram system by shape, never the tall Jacobian
        assert shapes and all(shape == (10, 10) for shape in shapes)

    def test_no_rounds_allowed_is_max_iters(self, monkeypatch):
        grid = Grid2D(33)
        meas = probe_mode(DampingPair.constant(0.1, n=33), ModeIndex(0, 0), 1.0, grid)
        solves = count_probe_solves(monkeypatch)
        _, info = fit_damping_least_squares([meas], DampingPair.constant(0.05, n=33),
                                            grid, 1.0, iters=0, fit_order=0)
        assert info.termination == "max_iters"
        assert len(info.residuals) == 1 and info.residuals[0] > 0.0
        assert len(solves) == 1

    def test_needs_measurements(self):
        with pytest.raises(ValueError):
            fit_damping_least_squares([], DampingPair.zero(), Grid2D(33), 1.0)
