import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavedamp import forward
from wavedamp.errors import NumericalError
from wavedamp.forward import (
    _stiffness_bilinear,
    BoundaryTrace,
    damping_rate,
    dissipation_residual,
    energy,
    mode_boundary_source,
    probe_equivalent_source,
    rellich_residual,
    solve,
    solve_from_mode,
    solve_modes,
    start_step,
    step,
    step_count,
    step_quadrature,
    stiffness_dual_norm,
    stiffness_energy,
    undamped_mode_trace,
    weighted_l2_sq,
    WaveState,
)
from wavedamp.grid import Grid2D
from wavedamp.spectral import (
    DampingPair,
    ModeIndex,
    SampledFunction1D,
    eigenpair,
    mode_shape,
    trapezoid_weights,
)


def mode_field(grid, mode=ModeIndex(0, 0)):
    return grid.sample(lambda x, y: mode_shape(mode, x, y))


def boundary_damping_flux(a1_nodes, a2_nodes, v_bottom, v_left, grid):
    """Trapezoid quadrature of a * v^2 over the damped sides."""
    w = grid.side_weights * grid.h
    return float((w * a1_nodes * v_bottom ** 2).sum() + (w * a2_nodes * v_left ** 2).sum())


def friction_field(gam):
    """The per-node friction of side vectors (..., 2, n): column 0 and row 0, zero elsewhere."""
    n = gam.shape[-1]
    field = np.zeros(gam.shape[:-2] + (n, n))
    field[..., :, 0] = gam[..., 0, :]
    field[..., 0, :] = gam[..., 1, :]
    return field


@pytest.fixture(scope="module")
def damped_run():
    grid = Grid2D(65)
    a = DampingPair.constant(1.0)
    res = solve(mode_field(grid), np.zeros((65, 65)), a, grid, 2.0)
    return grid, a, res


class TestScheme:
    def test_zero_state_stays_zero(self):
        grid = Grid2D(33)
        zero = np.zeros((33, 33))
        res = solve(zero, zero, DampingPair.constant(0.7), grid, 0.5)
        assert np.all(res.final.u == 0.0)
        assert np.all(res.final.v == 0.0)

    def test_solve_from_mode_starts_from_rest(self):
        grid = Grid2D(33)
        a = DampingPair.constant(0.3)
        mode = ModeIndex(1, 0)
        res = solve_from_mode(a, mode, grid, 0.5)
        ref = solve(mode_field(grid, mode), np.zeros((33, 33)), a, grid, 0.5)
        assert np.array_equal(res.trace.sides, ref.trace.sides)
        assert np.array_equal(res.energies, ref.energies)

    def test_damping_rate_is_the_two_side_vectors(self):
        grid = Grid2D(17)
        a = DampingPair.from_callables(lambda s: 0.2 + 0.1 * s, lambda s: 0.2 + 0.3 * s ** 2)
        gam = damping_rate(a, grid)
        assert gam.shape == (2, 17)
        rate1, rate2 = (2.0 / grid.h) * a.a1.at(grid.nodes), (2.0 / grid.h) * a.a2.at(grid.nodes)
        assert np.array_equal(gam[0, 1:], rate1[1:])
        assert np.array_equal(gam[1, 1:], rate2[1:])
        # the corner is on both damped sides, and its friction is the sum of theirs
        assert gam[0, 0] == gam[1, 0] == rate1[0] + rate2[0]

    def test_single_step_kernel_zero(self):
        grid = Grid2D(33)
        zero = np.zeros((33, 33))
        gam = damping_rate(DampingPair.constant(1.0), grid)
        out = step(zero, zero, 0.0, 0.3 * grid.h, grid, gam)
        assert np.all(out == 0.0)

    def test_cfl_guard(self):
        grid = Grid2D(33)
        zero = np.zeros((33, 33))
        gam = damping_rate(DampingPair.zero(), grid)
        with pytest.raises(NumericalError, match="CFL"):
            step(zero, zero, 0.0, grid.h, grid, gam)

    def test_modal_exactness_spot(self):
        grid = Grid2D(65)
        mode = ModeIndex(0, 0)
        u0 = mode_field(grid, mode)
        res = solve(u0, np.zeros_like(u0), DampingPair.zero(), grid, 2.0)
        exact = math.cos(eigenpair(mode).omega * res.final.t) * u0
        err = math.sqrt(weighted_l2_sq(res.final.u - exact, grid))
        assert err < 2e-4

    def test_zero_trace_for_undamped_mode(self):
        grid = Grid2D(65)
        res = solve(mode_field(grid), np.zeros((65, 65)), DampingPair.zero(), grid, 2.0)
        # analytic normal trace is identically zero; measured one sits at the floor
        assert res.trace.l2_norm() < 5e-3 * math.sqrt(2 * res.energies[0])

    @pytest.mark.parametrize("n, trace_bound", [(33, 2e-8), (65, 1e-6)])
    @pytest.mark.parametrize("mode", [ModeIndex(0, 0), ModeIndex(1, 1), ModeIndex(2, 1)])
    def test_undamped_mode_solve_matches_the_closed_form(self, n, trace_bound, mode):
        # the sampled mode is an eigenvector of the mirrored Laplacian, so the undamped
        # leapfrog keeps u^m = cos(m theta) u^0.  The trace is the O(h^2) defect of the
        # one-sided stencil, so the field's roundoff is large against it: measured up to
        # 5.5e-9 (n = 33) and 2.3e-7 (n = 65) of its max, and 8e-15 of max|u^0| for the field
        grid = Grid2D(n)
        res = solve_from_mode(DampingPair.zero(), mode, grid, 2.0)
        profile, start = undamped_mode_trace(mode, grid, 2.0)
        u0 = forward.mode_field(mode, grid)
        assert profile.shape == res.times.shape
        assert np.abs(res.final.u - profile[-1] * u0).max() <= 5e-14 * np.abs(u0).max()
        assert np.array_equal(res.trace.sides[:, 0], start)
        reference = start[:, None, :] * profile[:, None]
        assert np.abs(res.trace.sides - reference).max() <= trace_bound * np.abs(reference).max()

    def test_dirichlet_rows_pinned(self, damped_run):
        _, _, res = damped_run
        assert np.abs(res.final.u[-1, :]).max() == 0.0
        assert np.abs(res.final.u[:, -1]).max() == 0.0

    def test_initial_data_validated(self):
        grid = Grid2D(33)
        bad = np.ones((33, 33))
        with pytest.raises(ValueError, match="Dirichlet"):
            solve(bad, np.zeros_like(bad), DampingPair.zero(), grid, 1.0)

    def test_axis_swap_symmetry(self):
        grid = Grid2D(33)
        a = DampingPair.from_callables(lambda s: 0.2 + 0.1 * s, lambda s: 0.2 * np.ones_like(s))
        swapped = DampingPair(a.a2, a.a1)
        mode = ModeIndex(1, 0)
        mode_sw = ModeIndex(0, 1)
        res = solve(mode_field(grid, mode), np.zeros((33, 33)), a, grid, 1.0)
        res_sw = solve(mode_field(grid, mode_sw), np.zeros((33, 33)), swapped, grid, 1.0)
        np.testing.assert_allclose(res.final.u, res_sw.final.u.T, atol=1e-13)
        np.testing.assert_allclose(res.trace.sides[0], res_sw.trace.sides[1], atol=1e-13)

    def test_trace_holds_only_the_measurement(self, damped_run):
        _, _, res = damped_run
        names = [f.name for f in dataclasses.fields(BoundaryTrace)]
        assert names == ["times", "sides", "dt"]
        assert res.trace.sides.shape == (2, res.times.shape[0], 65)
        assert res.velocities.shape == res.trace.sides.shape

    @pytest.mark.parametrize("side", [0, 1], ids=["normal_bottom", "normal_left"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trace_raises(self, side, bad):
        times = np.linspace(0.0, 1.0, 5)
        sides = np.zeros((2, 5, 17))
        sides[side, 3, 4] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            BoundaryTrace(times=times, sides=sides, dt=0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_window_norm_raises(self, bad):
        # a reduced batch's windows are never BoundaryTraces; their norms are checked instead
        window = np.ones((2, 3, 17))
        window[1, 2, 5] = bad
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="not finite"):
            step_quadrature(window)

    @pytest.mark.parametrize("shape", [(3, 5, 17), (1, 5, 17), (5, 17), (2, 5, 17, 1)])
    def test_trace_needs_two_sides(self, shape):
        with pytest.raises(ValueError, match="shaped"):
            BoundaryTrace(times=np.linspace(0.0, 1.0, 5), sides=np.zeros(shape), dt=0.25)

    @pytest.mark.parametrize("count", [4, 6])
    def test_trace_times_match_its_steps(self, count):
        with pytest.raises(ValueError, match="times"):
            BoundaryTrace(times=np.linspace(0.0, 1.0, count), sides=np.zeros((2, 5, 17)), dt=0.25)

    def test_quad_weights_built_once_and_read_only(self):
        grid = Grid2D(17)
        w = grid.quad_weights
        assert grid.quad_weights is w
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        ws = grid.side_weights
        assert grid.side_weights is ws
        with pytest.raises(ValueError):
            ws[0] = 1.0

    def test_step_matches_the_plain_expression(self):
        # the kernel takes the undamped update at every node and then corrects the damped
        # sides, so it gives the bits of correction_step; the plain leapfrog expression
        # divides the whole update by 1 + half instead, so it agrees only to roundoff
        grid = Grid2D(33)
        a = DampingPair.constant(0.4)
        gam = damping_rate(a, grid)
        source = mode_boundary_source(a, ModeIndex(1, 0), grid)
        u_prev = mode_field(grid, ModeIndex(1, 2))
        u = 0.9 * u_prev + 0.1 * mode_field(grid)
        dt = 0.4 * grid.h
        for src in (None, source):
            stepped = step(u, u_prev, 0.3, dt, grid, gam, src)
            assert np.array_equal(stepped, correction_step(u, u_prev, 0.3, dt, grid, gam, src))
            plain = plain_step(u, u_prev, 0.3, dt, grid, gam, src)
            assert np.abs(stepped - plain).max() <= 1e-13 * np.abs(u).max()

    def test_positional_step_returns_a_fresh_array(self):
        # the benchmark's step-kernel timing calls step(u, u_prev, t, dt, grid, gam)
        grid = Grid2D(17)
        gam = damping_rate(DampingPair.constant(0.4), grid)
        u_prev = mode_field(grid)
        u = 0.5 * u_prev
        first = step(u, u_prev, 0.0, 0.3 * grid.h, grid, gam)
        second = step(u, u_prev, 0.0, 0.3 * grid.h, grid, gam)
        assert np.array_equal(first, second)
        for other in (u, u_prev, second):
            assert not np.shares_memory(first, other)


def mirrored_neighbours(u):
    """The mirrored neighbour sum of one field, summed in the kernel's order by plain slicing."""
    neighbours = np.zeros_like(u)
    neighbours[:, 1:-1] = u[:, :-2] + u[:, 2:]
    neighbours[:, 0] = 2.0 * u[:, 1]
    neighbours[1:-1, :] = neighbours[1:-1, :] + u[:-2, :] + u[2:, :]
    neighbours[0, :] += 2.0 * u[1, :]
    return neighbours


def correction_step(u, u_prev, t, dt, grid, gam, source=None):
    """The undamped update U, then U scale + u_prev carry with per-node scale and carry fields.

    U = r S(u) + (2 - 4 r) u - u_prev (+ profile(t) dt^2 accel_load) at every node, and
    scale = 1 / (1 + half), carry = half / (1 + half) with half = gam dt / 2, which are
    exactly 1 and 0 off the damped sides.  gam holds the friction's side vectors, (2, n),
    from which the fields are built here.
    """
    half = 0.5 * dt * friction_field(gam)
    scale, carry = 1.0 / (1.0 + half), half / (1.0 + half)
    r = dt * dt / (grid.h * grid.h)
    undamped = r * mirrored_neighbours(u) + (2.0 - 4.0 * r) * u - u_prev
    if source is not None:
        accel_load = source.load / (grid.h ** 2 * grid.quad_weights)
        undamped = undamped + source.profile(t) * ((dt * dt) * accel_load)
    return grid.zero_dirichlet(undamped * scale + u_prev * carry)


side_damping = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@st.composite
def lean_step_case(draw, members=st.one_of(st.none(), st.integers(1, 3))):
    """Fields pinned on the Dirichlet sides and the friction's side vectors.

    A single (n, n) field, or a (B, n, n) stack for members B, takes (2, n)
    side vectors that every member shares or (B, 2, n) with one pair per
    member.  Each side's damping vanishes only at drawn nodes, also on a
    drawn stretch, or on all of its length; the corner, on both sides,
    takes the sum of the two.
    """
    n = draw(st.sampled_from([17, 20]))
    members = draw(members)
    shared = members is None or draw(st.booleans())
    shape = (n, n) if members is None else (members, n, n)
    entry = st.floats(-1.0, 1.0)
    u, u_prev = (draw(arrays(float, shape, elements=entry, fill=entry)) for _ in range(2))
    grid = Grid2D(n)
    gam = (2.0 / grid.h) * draw(arrays(float, (2, n) if shared else (members, 2, n),
                                       elements=side_damping))
    for side in range(2):
        extent = draw(st.sampled_from(["none", "stretch", "all"]))
        if extent == "stretch":
            stop = draw(st.integers(1, n))
            gam[..., side, draw(st.integers(0, stop - 1)):stop] = 0.0
        elif extent == "all":
            gam[..., side, :] = 0.0
    gam[..., :, 0] = (gam[..., 0, 0] + gam[..., 1, 0])[..., None]
    dt = draw(st.floats(0.05, 1.0)) * forward.CFL_LIMIT * grid.h
    return grid, grid.zero_dirichlet(u), grid.zero_dirichlet(u_prev), gam, shared, dt


def subnormal_case():
    """An undamped field of subnormal values, where roundoff is absolute, not relative."""
    grid = Grid2D(17)
    u = grid.zero_dirichlet(np.full((17, 17), 2.2250738585072014e-313))
    return grid, u, np.zeros_like(u), np.zeros((2, 17)), True, 0.022097086912079608


@settings(max_examples=40, deadline=None)
@given(case=lean_step_case(), forced=st.booleans(), t=st.floats(0.0, 2.0))
@example(case=subnormal_case(), forced=False, t=0.0)
def test_lean_step_matches_the_per_node_expression(case, forced, t):
    # off the damped sides scale = 1 and carry = 0 exactly, so correcting only the two
    # sides gives the bits of the per-node correction everywhere (up to the sign of a
    # zero); the plain leapfrog expression checks the correction's algebra to roundoff
    grid, u, u_prev, gam, shared, dt = case
    source = None
    if forced and u.ndim == 2:
        source = mode_boundary_source(DampingPair.constant(0.3), ModeIndex(1, 0), grid)
    kernel = forward._Leapfrog(dt, grid, gam, source, u.shape)
    kernel.fields[0] = u_prev
    kernel.fields[1] = u
    stepped = kernel.advance(t)[0]
    members = [None] if u.ndim == 2 else range(u.shape[0])
    for b in members:
        pick = (lambda x: x) if b is None else (lambda x: x[b])
        member_gam = gam if shared else gam[b]
        args = pick(u), pick(u_prev), t, dt, grid, member_gam, source
        assert np.array_equal(pick(stepped), correction_step(*args))
        # roundoff of the step's largest input: the fields, or the forcing dt^2 f
        scale = max(np.abs(pick(u)).max(), np.abs(pick(u_prev)).max())
        if source is not None:
            accel_load = source.load / (grid.h ** 2 * grid.quad_weights)
            scale = max(scale, dt * dt * abs(source.profile(t)) * np.abs(accel_load).max())
        # below the normal range each rounding is off by up to half the smallest subnormal
        floor = 16 * np.finfo(float).smallest_subnormal
        assert np.abs(pick(stepped) - plain_step(*args)).max() <= 1e-13 * scale + floor
    assert step(u, u_prev, t, dt, grid, gam, source).tobytes() == stepped.tobytes()


@settings(max_examples=25, deadline=None)
@given(case=lean_step_case(members=st.integers(1, 3)), forced=st.booleans())
def test_start_step_on_a_stack_matches_each_member(case, forced):
    # a batch starts all its members in one call; with u1 nonzero the friction term
    # gam u1 counts, which a batch from rest never exercises
    grid, u0, u1, gam, shared, dt = case
    source = None
    if forced:
        source = mode_boundary_source(DampingPair.constant(0.3), ModeIndex(1, 0), grid)
    stacked = start_step(u0, u1, dt, grid, gam, source)
    for b in range(u0.shape[0]):
        member_gam = gam if shared else gam[b]
        alone = start_step(u0[b], u1[b], dt, grid, member_gam, source)
        assert stacked[b].tobytes() == alone.tobytes()
        # the Taylor start with the per-node friction field, equal up to the sign of zeros
        lap = (mirrored_neighbours(u0[b]) - 4.0 * u0[b]) / (grid.h * grid.h)
        acc = lap - friction_field(member_gam) * u1[b]
        if source is not None:
            acc = acc + source.profile(0.0) * (source.load / (grid.h ** 2 * grid.quad_weights))
        expected = grid.zero_dirichlet(u0[b] + dt * u1[b] + 0.5 * dt * dt * acc)
        assert np.array_equal(alone, expected)


def test_batch_starts_inside_the_kernels_ring():
    # the Taylor start of a batch from rest allocates nothing field-sized: fields[2] and
    # work hold its sums, and only the damped sides' friction terms are formed apart
    grid, members = Grid2D(65), 9
    gam = np.stack([damping_rate(DampingPair.constant(0.1 * (b + 1)), grid) for b in range(members)])
    kernel = forward._Leapfrog(0.5 * forward.CFL_LIMIT * grid.h, grid, gam, None,
                               (members, grid.n, grid.n))
    kernel.fields[0] = mode_field(grid)
    u1 = np.zeros((grid.n, grid.n))
    tracemalloc.start()
    try:
        kernel.start(u1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u1.nbytes


def plain_laplacian(u, h):
    """The mirrored 5-point Laplacian as plain strided second differences."""
    lap = np.zeros_like(u)
    lap[1:-1, :] += u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]
    lap[0, :] += 2.0 * (u[1, :] - u[0, :])
    lap[:, 1:-1] += u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]
    lap[:, 0] += 2.0 * (u[:, 1] - u[:, 0])
    return lap / (h * h)


def plain_step(u, u_prev, t, dt, grid, gam, source=None):
    """The unfolded leapfrog expression (2 u - (1 - half) u_prev + dt^2 acc) / (1 + half).

    gam holds the friction's side vectors, (2, n), from which the field is built here.
    """
    half = 0.5 * dt * friction_field(gam)
    acc = plain_laplacian(u, grid.h)
    if source is not None:
        acc = acc + source.profile(t) * (source.load / (grid.h ** 2 * grid.quad_weights))
    return grid.zero_dirichlet((2.0 * u - (1.0 - half) * u_prev + dt * dt * acc) / (1.0 + half))


def plain_trace(u0, a, grid, tau):
    """Trace rows (bottom, left) of a solve from (u0, 0) by a loop of the plain expression."""
    steps = step_count(tau, grid.h)
    dt = tau / steps
    gam = damping_rate(a, grid)
    h = grid.h

    def normal(u):
        return np.concatenate(((3.0 * u[:, 0] - 4.0 * u[:, 1] + u[:, 2]) / (2.0 * h),
                               (3.0 * u[0, :] - 4.0 * u[1, :] + u[2, :]) / (2.0 * h)))

    u_prev = u0
    u = grid.zero_dirichlet(u0 + 0.5 * dt * dt * plain_laplacian(u0, h))
    rows = [normal(u_prev), normal(u)]
    for m in range(1, steps):
        u_prev, u = u, plain_step(u, u_prev, m * dt, dt, grid, gam)
        rows.append(normal(u))
    return np.array(rows)


PROBE_MODES = [ModeIndex(k, l) for k in range(3) for l in range(3)]


@pytest.mark.parametrize("n", [17, 33])
def test_solve_stays_within_roundoff_of_the_plain_scheme(n):
    # the corrected kernel and the plain expression round differently; over a
    # whole solve the traces drift apart by roundoff only
    grid = Grid2D(n)
    a = DampingPair.from_callables(lambda s: 0.3 + 0.2 * s, lambda s: 0.3 + 0.1 * s ** 2)
    for mode in PROBE_MODES:
        u0 = mode_field(grid, mode)
        grid.zero_dirichlet(u0)
        res = solve(u0, np.zeros_like(u0), a, grid, 1.0)
        ref = plain_trace(u0, a, grid, 1.0)
        got = np.concatenate(res.trace.sides, axis=1)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


LINEARITY_MODES = [ModeIndex(k, l) for k in range(2) for l in range(2)]
coefficient = st.floats(-1.0, 1.0)
modal_data = st.lists(coefficient, min_size=2 * len(LINEARITY_MODES),
                      max_size=2 * len(LINEARITY_MODES))


@settings(max_examples=25, deadline=None)
@given(alpha=coefficient, beta=coefficient, u_coeffs=modal_data, w_coeffs=modal_data,
       damping=st.floats(0.0, 2.0))
def test_trace_is_linear_in_initial_data(alpha, beta, u_coeffs, w_coeffs, damping):
    grid = Grid2D(17)
    a = DampingPair.constant(damping)
    shapes = [mode_field(grid, mode) for mode in LINEARITY_MODES]

    def initial_data(coeffs):
        k = len(shapes)
        return (sum(c * f for c, f in zip(coeffs[:k], shapes)),
                sum(c * f for c, f in zip(coeffs[k:], shapes)))

    u0, u1 = initial_data(u_coeffs)
    w0, w1 = initial_data(w_coeffs)
    ru = solve(u0, u1, a, grid, 0.5)
    rw = solve(w0, w1, a, grid, 0.5)
    rc = solve(alpha * u0 + beta * w0, alpha * u1 + beta * w1, a, grid, 0.5)
    # an undamped trace is a cancellation at the discretization floor, so its
    # roundoff is measured against the size of the data (the energy norm);
    # below the smallest normal double, underflow decides
    data_scale = max(math.sqrt(2.0 * rc.energies[0]), abs(alpha) * math.sqrt(2.0 * ru.energies[0]),
                     abs(beta) * math.sqrt(2.0 * rw.energies[0]))
    for side in range(2):
        lhs = rc.trace.sides[side]
        rhs = alpha * ru.trace.sides[side] + beta * rw.trace.sides[side]
        scale = max(data_scale, np.abs(lhs).max(), np.abs(alpha * ru.trace.sides[side]).max(),
                    np.abs(beta * rw.trace.sides[side]).max())
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale + np.finfo(float).tiny


coefficient_part = st.floats(0.0, 1.0)


@functools.lru_cache(maxsize=None)
def damped_sides_n65():
    """The 129 steps of one damped probe trace at n = 65."""
    a = DampingPair.from_callables(lambda s: 0.1 * (2 + s), lambda s: 0.2 * np.ones_like(s))
    return solve_from_mode(a, ModeIndex(1, 1), Grid2D(65), 1.0).trace.sides


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 128), length=st.integers(1, 129))
@example(start=0, length=1)
@example(start=37, length=5)
@example(start=1, length=64)
@example(start=64, length=65)
def test_step_quadrature_of_any_cut_is_that_of_the_whole(start, length):
    # each step is reduced on its own, so a run of steps cut anywhere from a trace,
    # of any length, has the bits of the same steps of the whole trace
    sides = damped_sides_n65()
    stop = min(start + length, sides.shape[1])
    whole = step_quadrature(sides)
    assert step_quadrature(sides[:, start:stop]).tobytes() == whole[start:stop].tobytes()


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(1e-3, 50.0), n=st.integers(17, 1025))
@example(tau=1e-3, n=17)
@example(tau=50.0, n=1025)
@example(tau=0.7292038680986271, n=17)  # 33 steps of one ulp above the bound
def test_time_step_stays_within_the_step_fraction_of_the_cfl_limit(tau, n):
    # the step count rounds tau / (DT_FACTOR * CFL_LIMIT * h) up, so the step is the
    # fraction of the CFL limit or less, up to the one ulp the rounded quotient can cost
    h = Grid2D(n).h
    steps, dt = forward._time_step(tau, h)
    bound = forward.DT_FACTOR * forward.CFL_LIMIT * h
    assert steps == step_count(tau, h) >= 2
    assert dt <= np.nextafter(bound, np.inf)


def reduced_traces(pairs, modes, grid, tau):
    """Every member's trace of a reduced solve_modes batch, reassembled from its windows."""
    steps = step_count(tau, grid.h)
    traces = np.full((len(pairs) * len(modes), 2, steps + 1, grid.n), np.nan)

    def reduce(start, first, window):
        traces[start:start + window.shape[0], :, first:first + window.shape[2]] = window

    solve_modes(pairs, modes, grid, tau, reduce=reduce)
    return traces


@pytest.mark.parametrize("width", [1, 5, 46, 47, 64])
def test_reduced_batch_hands_on_every_step_once(width, monkeypatch):
    # 46 steps: windows that divide the steps, the steps and one, neither, and none
    grid = Grid2D(17)
    pairs = [DampingPair.constant(0.2), DampingPair.constant(0.1)]
    modes = [ModeIndex(0, 0), ModeIndex(1, 0)]
    alone = np.stack([solve_from_mode(a, mode, grid, 1.0).trace.sides
                      for a in pairs for mode in modes])
    monkeypatch.setattr(forward, "TRACE_WINDOW", width)
    monkeypatch.setattr(forward, "BATCH_NODE_CAP", 3 * grid.n ** 2)
    streamed = np.full(alone.shape, np.nan)
    calls = []

    def reduce(start, first, window):
        calls.append((start, first))
        assert window.shape[2] <= width
        streamed[start:start + window.shape[0], :, first:first + window.shape[2]] = window

    assert solve_modes(pairs, modes, grid, 1.0, reduce=reduce) is None
    assert streamed.tobytes() == alone.tobytes()
    assert calls == [(start, first) for start in (0, 3) for first in range(0, 47, width)]


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([17, 33]), base=coefficient_part, slope1=coefficient_part,
       slope2=coefficient_part, curve1=coefficient_part, curve2=coefficient_part,
       mode=st.sampled_from(PROBE_MODES), tau=st.floats(0.05, 1.0))
def test_staggered_energy_identity(n, base, slope1, slope2, curve1, curve2, mode, tau):
    # (E^{m+1/2} - E^{m-1/2}) / dt = -sum_boundary a v_c^2 holds to roundoff for
    # every nonnegative damping, so the staggered energy never increases
    assume(max(slope1, slope2, curve1, curve2) >= 0.01)
    grid = Grid2D(n)
    s = np.linspace(0.0, 1.0, 257)
    a = DampingPair(SampledFunction1D(base + slope1 * s + curve1 * s ** 2),
                    SampledFunction1D(base + slope2 * s + curve2 * s ** 2))
    res = solve_from_mode(a, mode, grid, tau)
    a1n, a2n = a.a1.at(grid.nodes), a.a2.at(grid.nodes)
    stag = res.staggered_energies
    flux = np.array([boundary_damping_flux(a1n, a2n, *res.velocities[:, m], grid)
                     for m in range(1, stag.shape[0])])
    assert np.abs(np.diff(stag) / res.dt + flux).max() <= 1e-11 * stag[0]
    assert np.diff(stag).max() <= 0.0


def affine_quadratic(base, slope, curve):
    s = np.linspace(0.0, 1.0, 257)
    return SampledFunction1D(base + slope * s + curve * s ** 2)


member_damping = st.tuples(coefficient_part, coefficient_part, coefficient_part,
                           coefficient_part, coefficient_part)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([17, 33]), modes=st.lists(st.sampled_from(PROBE_MODES), min_size=1,
                                                     max_size=4),
       dampings=st.lists(member_damping, min_size=1, max_size=2),
       tau=st.floats(0.05, 1.0), chunk=st.integers(1, 4))
def test_batch_matches_sequential_solves(n, modes, dampings, tau, chunk):
    # a cap of chunk * n^2 nodes splits a larger batch into consecutive chunks
    grid = Grid2D(n)
    pairs = [DampingPair(affine_quadratic(base, slope1, curve1),
                         affine_quadratic(base, slope2, curve2))
             for base, slope1, slope2, curve1, curve2 in dampings]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forward, "BATCH_NODE_CAP", chunk * n * n)
        traces = reduced_traces(pairs, modes, grid, tau)
    assert len(traces) == len(pairs) * len(modes)
    # damping-major: member i * len(modes) + j solves modes[j] under pairs[i]
    members = [(a, mode) for a in pairs for mode in modes]
    for sides, (a, mode) in zip(traces, members):
        assert sides.tobytes() == solve_from_mode(a, mode, grid, tau).trace.sides.tobytes()


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([17, 33]), base=coefficient_part, slope1=coefficient_part,
       slope2=coefficient_part, curve1=coefficient_part, curve2=coefficient_part,
       mode=st.sampled_from(PROBE_MODES), tau=st.floats(0.05, 1.0))
def test_axis_swap_symmetry_property(n, base, slope1, slope2, curve1, curve2, mode, tau):
    # swapping a1 <-> a2 and the mode (k, l) -> (l, k) transposes the problem, so the
    # bottom and left traces trade places; the neighbour sum adds the two axes in a
    # fixed order, so they agree to roundoff, not bit for bit.  That roundoff has the
    # size of the data, so under a weak damping, whose trace is small, it is measured
    # against the data's energy norm (as in the linearity property above)
    grid = Grid2D(n)
    a1, a2 = affine_quadratic(base, slope1, curve1), affine_quadratic(base, slope2, curve2)
    trace = solve_from_mode(DampingPair(a1, a2), mode, grid, tau).trace
    swapped = solve_from_mode(DampingPair(a2, a1), ModeIndex(mode.l, mode.k), grid, tau).trace
    scale = max(np.abs(trace.sides).max(),
                math.sqrt(stiffness_energy(mode_field(grid, mode), grid)))
    assert np.abs(trace.sides - swapped.sides[::-1]).max() <= 1e-12 * scale


class TestEnergy:
    def test_mode_energy_values(self):
        grid = Grid2D(129)
        for mode, expect in ((ModeIndex(0, 0), math.pi ** 2 / 4),
                             (ModeIndex(1, 0), 5 * math.pi ** 2 / 4)):
            state = WaveState(u=mode_field(grid, mode), v=np.zeros((129, 129)), t=0.0)
            assert energy(state, grid) == pytest.approx(expect, rel=1e-3)

    def test_zero_energy(self):
        grid = Grid2D(33)
        state = WaveState(u=np.zeros((33, 33)), v=np.zeros((33, 33)), t=0.0)
        assert energy(state, grid) == 0.0

    def test_conservation_without_damping(self):
        grid = Grid2D(129)
        res = solve(mode_field(grid), np.zeros((129, 129)), DampingPair.zero(), grid, 4.0)
        drift = np.abs(res.energies - res.energies[0]).max() / res.energies[0]
        assert drift < 1e-3
        stag = np.abs(res.staggered_energies - res.staggered_energies[0]).max()
        assert stag < 1e-10 * res.staggered_energies[0]

    @pytest.mark.parametrize("n", [33, 65])
    def test_energy_at_rest_is_half_the_stiffness_energy_bit_for_bit(self, n):
        # the log pairs the same first differences by the same helper as stiffness_energy
        grid = Grid2D(n)
        u0 = grid.zero_dirichlet(np.random.default_rng(n).standard_normal((n, n)))
        res = solve(u0, np.zeros_like(u0), DampingPair.constant(0.3), grid, 0.25)
        assert res.energies[0] == 0.5 * stiffness_energy(u0, grid)

    def test_damping_strictly_dissipates(self, damped_run):
        _, _, res = damped_run
        idx = int(1.0 / res.dt)
        assert res.energies[idx] < res.energies[0]

    def test_staggered_energy_monotone_for_family(self):
        grid = Grid2D(33)
        u0 = mode_field(grid, ModeIndex(1, 1))
        for value in (0.0, 0.5, 1.0, 2.0):
            a = DampingPair.constant(value)
            res = solve(u0, np.zeros_like(u0), a, grid, 1.5)
            increases = np.diff(res.staggered_energies)
            assert increases.max() <= 1e-12 * res.staggered_energies[0]

    def test_top_of_the_spectrum_keeps_its_energy_as_the_grid_refines(self):
        # the scheme loses uniform observability at the top of its spectrum (Zuazua,
        # SIAM Rev. 47 (2005) 197-243): under a = 1 over tau = 4 the top mode (n - 2, 0)
        # keeps most of its energy, more on the finer grid, while mode (0, 0) gives
        # nearly all of it up.  The probe rule filters the top out
        a = DampingPair.constant(1.0)

        def kept(n, mode):
            res = solve_from_mode(a, mode, Grid2D(n), 4.0)
            return res.energies[-1] / res.energies[0]

        top = [kept(n, ModeIndex(n - 2, 0)) for n in (33, 65)]
        assert 0.6 < top[0] < top[1]
        assert max(kept(n, ModeIndex(0, 0)) for n in (33, 65)) < 1e-3


class TestDissipationIdentity:
    def test_zero_damping_residual(self):
        grid = Grid2D(65)
        res = solve(mode_field(grid), np.zeros((65, 65)), DampingPair.zero(), grid, 2.0)
        assert dissipation_residual(res, DampingPair.zero()) < 1e-3

    def test_zero_state_residual(self):
        grid = Grid2D(33)
        zero = np.zeros((33, 33))
        res = solve(zero, zero, DampingPair.constant(1.0), grid, 1.0)
        assert dissipation_residual(res, DampingPair.constant(1.0)) == 0.0

    def test_residual_refines_at_second_order(self, damped_run):
        grid65, a, res65 = damped_run
        r65 = dissipation_residual(res65, a)
        grid = Grid2D(129)
        res129 = solve(mode_field(grid), np.zeros((129, 129)), a, grid, 2.0)
        r129 = dissipation_residual(res129, a)
        assert r65 < 1e-2
        assert r129 < r65 / 3.3

    def test_matches_the_per_step_flux(self):
        grid = Grid2D(33)
        s = np.linspace(0.0, 1.0, 257)
        a = DampingPair(SampledFunction1D(0.5 + 0.5 * s), SampledFunction1D(0.5 + 0.3 * s ** 2))
        res = solve(mode_field(grid, ModeIndex(1, 0)), np.zeros((33, 33)), a, grid, 1.0)
        a1n, a2n = a.a1.at(grid.nodes), a.a2.at(grid.nodes)
        e = res.energies
        loop = max(abs((e[m + 1] - e[m - 1]) / (2.0 * res.dt)
                       + boundary_damping_flux(a1n, a2n, *res.velocities[:, m], grid))
                   for m in range(1, e.shape[0] - 1))
        assert abs(dissipation_residual(res, a) - loop) <= 1e-12 * loop

    def test_trace_matches_damping_relation(self, damped_run):
        grid, a, res = damped_run
        # both sides record d_nu u and -a v; they agree at O(h) pointwise
        interior = np.abs(res.trace.sides[0, 1:-1, :-1]
                          + a.a1.at(grid.nodes)[:-1] * res.velocities[0, 1:-1, :-1]).max()
        assert interior < 4.0 * grid.h


class TestSources:
    def test_probe_equivalent_source_reproduces_difference(self):
        grid = Grid2D(65)
        a = DampingPair.constant(0.1)
        mode = ModeIndex(0, 0)
        u0 = mode_field(grid, mode)
        damped = solve(u0, np.zeros_like(u0), a, grid, 2.0)
        undamped = solve(u0, np.zeros_like(u0), DampingPair.zero(), grid, 2.0)
        diff = damped.trace.difference(undamped.trace)
        src = probe_equivalent_source(a, mode, grid)
        forced = solve(np.zeros_like(u0), np.zeros_like(u0), a, grid, 2.0, source=src)
        scale = np.abs(diff.sides[0]).max()
        assert np.abs(forced.trace.sides[0] - diff.sides[0]).max() < 1e-3 * scale

    def test_source_superposition(self):
        grid = Grid2D(33)
        a = DampingPair.constant(0.5)
        zero = np.zeros((33, 33))
        src1 = mode_boundary_source(a, ModeIndex(0, 0), grid)
        load2 = grid.h ** 2 * grid.quad_weights * mode_field(grid, ModeIndex(1, 1))
        src2 = type(src1)(profile=src1.profile, load=load2)
        combined = type(src1)(profile=src1.profile, load=src1.load + load2)
        t1 = solve(zero, zero, a, grid, 1.0, source=src1).trace
        t2 = solve(zero, zero, a, grid, 1.0, source=src2).trace
        tc = solve(zero, zero, a, grid, 1.0, source=combined).trace
        np.testing.assert_allclose(tc.sides[0], t1.sides[0] + t2.sides[0], atol=1e-12)


class TestRellich:
    X0 = (1.25, 1.25)

    @staticmethod
    def zero(x, y):
        return np.zeros_like(x)

    def test_constant_field(self):
        assert rellich_residual(lambda x, y: np.ones_like(x), self.X0, Grid2D(65),
                                self.zero) < 1e-8

    @pytest.mark.parametrize("field", [lambda x, y: x, lambda x, y: 0.3 + 2.0 * x - y],
                             ids=["x", "affine"])
    def test_linear_field(self, field):
        assert rellich_residual(field, self.X0, Grid2D(65), self.zero) < 1e-13

    def test_mode_residual_decreases(self):
        mode = ModeIndex(0, 0)
        lam = eigenpair(mode).eigenvalue
        vals = [rellich_residual(lambda x, y: mode_shape(mode, x, y), self.X0, Grid2D(n),
                                 lambda x, y: -lam * mode_shape(mode, x, y))
                for n in (33, 65, 129)]
        assert vals[0] > vals[1] > vals[2]
        # pinned bits: the gradients and the quadrature must not change
        assert vals == [0.2624300282031058, 0.12345055076052525, 0.05977905340788148]

    def test_interior_x0_rejected(self):
        with pytest.raises(ValueError):
            rellich_residual(lambda x, y: x, (0.5, 0.5), Grid2D(33), self.zero)


class TestStiffnessForm:
    def test_matches_eigenvalue(self):
        grid = Grid2D(129)
        u = mode_field(grid, ModeIndex(0, 0))
        lam = eigenpair(ModeIndex(0, 0)).eigenvalue
        assert stiffness_energy(u, grid) == pytest.approx(lam, rel=1e-4)

    def test_dual_norm_of_zero_load(self):
        assert stiffness_dual_norm(np.zeros((33, 33)), Grid2D(33)) == 0.0

    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_dual_norm_of_a_stiffness_load_is_its_energy_norm(self, n):
        # the load psi -> B(phi, psi) has dual norm sqrt(B(phi, phi)) exactly
        grid = Grid2D(n)
        phi = np.random.default_rng(n).standard_normal((n, n))
        grid.zero_dirichlet(phi)
        load = grid.quad_weights * (4.0 * phi - mirrored_neighbours(phi))
        assert stiffness_dual_norm(load, grid) == pytest.approx(
            math.sqrt(stiffness_energy(phi, grid)), rel=1e-12)

    def test_dual_norm_bounds_every_pairing(self):
        grid = Grid2D(33)
        load = mode_boundary_source(DampingPair.constant(0.3), ModeIndex(0, 0), grid).load
        wnorm = stiffness_dual_norm(load, grid)
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = grid.zero_dirichlet(rng.standard_normal((33, 33)))
            pairing = float((load * psi).sum())
            assert pairing <= wnorm * math.sqrt(stiffness_energy(psi, grid)) * (1 + 1e-9)

    def test_boundary_functional_norm_baseline(self):
        # grid-converged dual norm of the damping-mode functional, a = 0.1
        values = {}
        for n in (65, 129):
            grid = Grid2D(n)
            load = mode_boundary_source(DampingPair.constant(0.1), ModeIndex(0, 0), grid).load
            values[n] = stiffness_dual_norm(load, grid)
        assert values[65] == pytest.approx(0.441870365, rel=1e-6)
        assert abs(values[65] - values[129]) / values[129] < 0.02


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from([5, 17, 33]))
def test_stiffness_form_by_summation_by_parts(data, n):
    # B(x, u) = sum q x (4 u - S(u)) for x vanishing on the Dirichlet sides
    # magnitudes kept where products of two entries stay normal floats
    magnitude = st.floats(1e-6, 1e3)
    entry = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    field = arrays(float, (n, n), elements=entry, fill=entry)
    x, u = data.draw(field), data.draw(field)
    for f in (x, u):
        f[-1, :] = 0.0
        f[:, -1] = 0.0
    weights = trapezoid_weights(n)
    lhs = _stiffness_bilinear(x, u)
    rhs = float((np.outer(weights, weights) * x * (4.0 * u - mirrored_neighbours(u))).sum())
    scale = math.sqrt(_stiffness_bilinear(x, x)) * math.sqrt(_stiffness_bilinear(u, u))
    assert abs(lhs - rhs) <= 1e-13 * scale


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from([17, 33]))
def test_weighted_gradient_is_the_trapezoid_form(data, n):
    # B(u, u) against the trapezoid-weighted sum of squared first differences, written out;
    # the fields are not pinned on the Dirichlet sides, so every edge weight counts
    magnitude = st.floats(1e-6, 1e3)
    entry = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    u = data.draw(arrays(float, (n, n), elements=entry, fill=entry))
    w = trapezoid_weights(n)
    explicit = float((w * (u[1:] - u[:-1]) ** 2).sum()
                     + (w[:, None] * (u[:, 1:] - u[:, :-1]) ** 2).sum())
    assert abs(stiffness_energy(u, Grid2D(n)) - explicit) <= 1e-14 * explicit
    # every entry is written, and the y block's wrap column is exactly zero
    g = forward._weighted_gradient(u, np.full((2 * n - 1, n), np.nan))
    assert np.isfinite(g).all()
    assert (g[n - 1:, -1] == 0.0).all()


def test_energy_log_writes_only_its_own_buffers():
    # the log scales the differences it forms in place, never the caller's data, the
    # kernel's ring or the final state
    grid, a = Grid2D(17), DampingPair.constant(0.3)
    rng = np.random.default_rng(17)
    u0, u1 = (grid.zero_dirichlet(rng.standard_normal((17, 17))) for _ in range(2))
    kept = u0.copy(), u1.copy()
    res = solve(u0, u1, a, grid, 0.5)
    assert np.array_equal(u0, kept[0]) and np.array_equal(u1, kept[1])
    dt, gam = res.dt, damping_rate(a, grid)
    fields = [u0, start_step(u0, u1, dt, grid, gam)]
    for t in res.times[1:]:
        fields.append(step(fields[-1], fields[-2], t, dt, grid, gam))
    assert np.array_equal(fields[-2], res.final.u)
    assert np.array_equal((fields[-1] - fields[-3]) / (2.0 * dt), res.final.v)
    assert np.array_equal(res.velocities[:, 0], [u1[:, 0], u1[0, :]])

    # 200 log steps at n = 65 allocate no field-sized array
    grid = Grid2D(65)
    ring = [grid.zero_dirichlet(rng.standard_normal((65, 65))) for _ in range(3)]
    log = forward._EnergyLog(201, 0.01, grid)
    log.energy(0, ring[0], ring[1], 0.0, 1.0)
    log.staggered_energy(0, ring[1], ring[0])
    tracemalloc.start()
    try:
        for m in range(1, 201):
            log.step(m, ring[(m + 1) % 3], ring[m % 3], ring[(m - 1) % 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring[0].nbytes


@pytest.mark.parametrize("size", [1, 9999, 10000, 10001, 16641, 33153])
def test_fixed_order_dot_sums_blocks_in_order(size):
    # one block is np.vdot itself; a longer product is the in-order sum of its blocks' vdots
    rng = np.random.default_rng(size)
    a, b = rng.standard_normal(size), rng.standard_normal(size)
    blocks = [float(np.vdot(a[i:i + forward.DOT_BLOCK], b[i:i + forward.DOT_BLOCK]))
              for i in range(0, size, forward.DOT_BLOCK)]
    expected = 0.0
    for block in blocks:
        expected += block
    assert forward._fixed_order_dot(a, b) == expected
    assert forward._fixed_order_dot(a, b) == pytest.approx(float(np.vdot(a, b)), rel=1e-12)


ENERGY_LOG_AT_129 = """
import hashlib
import numpy as np
from wavedamp.forward import solve, stiffness_energy
from wavedamp.grid import Grid2D
from wavedamp.spectral import DampingPair
grid = Grid2D(129)
rng = np.random.default_rng(129)
u0, u1 = (grid.zero_dirichlet(rng.standard_normal((129, 129))) for _ in range(2))
res = solve(u0, u1, DampingPair.constant(0.1), grid, 0.05)
logged = res.energies.tobytes() + res.staggered_energies.tobytes()
print(hashlib.sha256(logged).hexdigest(), stiffness_energy(u0, grid).hex())
"""

GAUSS_NEWTON_AT_65 = """
import hashlib
import numpy as np
from wavedamp.grid import Grid2D
from wavedamp.reconstruct import (fit_damping_least_squares, linearized_recover, probe_mode,
                                  time_project)
from wavedamp.spectral import DampingPair, ModeIndex
grid = Grid2D(65)
truth = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2), lambda s: 0.1 + 0.03 * s, n=65)
meas = probe_mode(truth, ModeIndex(0, 0), 1.0, grid)
estimate = linearized_recover(*time_project(meas), ModeIndex(0, 0))
refined, info = fit_damping_least_squares([meas], estimate, grid, 1.0, iters=2, fit_order=1)
fitted = refined.a1.values.tobytes() + refined.a2.values.tobytes()
print(hashlib.sha256(fitted).hexdigest(), [r.hex() for r in info.residuals], info.termination)
"""


@pytest.mark.parametrize("code", [ENERGY_LOG_AT_129, GAUSS_NEWTON_AT_65],
                         ids=["energy-log-n129", "gauss-newton-n65"])
def test_the_same_bits_at_one_and_two_blas_threads(code):
    # at n = 129 every dot product of the energy log exceeds the length OpenBLAS keeps on one
    # thread, and at n = 65 so does every Gauss-Newton residual norm and row of J^T r
    src = str(Path(forward.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env, timeout=120)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [17, 33])
def test_diagnostics_match_a_per_step_recomputation(n):
    grid = Grid2D(n)
    s = np.linspace(0.0, 1.0, 257)
    a = DampingPair(SampledFunction1D(0.3 + 0.5 * s), SampledFunction1D(0.3 + 0.2 * s ** 2))
    source = mode_boundary_source(a, ModeIndex(1, 0), grid)
    u0 = grid.zero_dirichlet(mode_field(grid, ModeIndex(1, 1)))
    u1 = grid.zero_dirichlet(0.7 * mode_field(grid, ModeIndex(0, 1)))
    res = solve(u0, u1, a, grid, 0.5, source=source)

    # replay the solve step by step, keeping every field
    dt, times = res.dt, res.times
    gam = damping_rate(a, grid)
    fields = [u0, start_step(u0, u1, dt, grid, gam, source)]
    for m in range(1, times.shape[0]):
        fields.append(step(fields[m], fields[m - 1], times[m], dt, grid, gam, source))
    past = fields.pop()  # u^{M+1}, one step past tau
    assert np.array_equal(fields[-1], res.final.u)
    # the final velocity is centered like every other
    assert np.array_equal((past - fields[-2]) / (2.0 * dt), res.final.v)
    # and is the closed second-order closure at tau, divided by 1 + gam dt / 2 per node
    lap = (mirrored_neighbours(fields[-1]) - 4.0 * fields[-1]) / (grid.h * grid.h)
    accel = source.load / (grid.h ** 2 * grid.quad_weights)
    acc = lap + source.profile(float(times[-1])) * accel
    closed = (((fields[-1] - fields[-2]) / dt + 0.5 * dt * acc)
              / (1.0 + 0.5 * dt * friction_field(gam)))
    assert np.abs(closed - res.final.v).max() <= 1e-12 * np.abs(res.final.v).max()

    velocities = [u1] + [(fields[m + 1] - fields[m - 1]) / (2.0 * dt)
                         for m in range(1, len(fields) - 1)] + [res.final.v]
    energies = [energy(WaveState(u=f, v=v, t=t), grid)
                for f, v, t in zip(fields, velocities, times)]
    staggered = [0.5 * (weighted_l2_sq((new - old) / dt, grid) + _stiffness_bilinear(new, old))
                 for new, old in zip(fields[1:], fields[:-1])]
    e0 = energies[0]
    assert np.abs(res.energies - energies).max() <= 1e-13 * e0
    assert np.abs(res.staggered_energies - staggered).max() <= 1e-13 * e0
    assert np.array_equal(res.velocities[0], [v[:, 0] for v in velocities])
    assert np.array_equal(res.velocities[1], [v[0, :] for v in velocities])


@pytest.mark.parametrize("n, tau, message", [
    (33, 2.0, "field blew up at step 128"),
    (17, 0.5, "final field contains non-finite values"),
], ids=["every-128-steps", "final"])
def test_time_loop_raises_on_a_field_that_blows_up(n, tau, message):
    # finite data at the edge of the float range overflow in the loop, which checks
    # every 128th step and the last, so no NaN leaves a solve silently
    grid = Grid2D(n)
    u0 = 5e307 * forward.mode_field(ModeIndex(0, 0), grid)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match=message):
        solve(u0, np.zeros_like(u0), DampingPair.constant(0.1), grid, tau)
