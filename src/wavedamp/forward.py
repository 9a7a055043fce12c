"""Explicit finite-difference solver for the boundary-damped wave equation.

The scheme is the classical leapfrog update with a 5-point Laplacian.
On the damped sides the centered normal difference is closed with a
ghost node chosen so that d_nu u = -a * du/dt; the velocity in that
relation is taken centered in time, which makes the boundary term a
diagonal (per-node) solve and yields an exact discrete dissipation
identity: the staggered energy

    E^{m+1/2} = 1/2 ||(u^{m+1} - u^m)/dt||^2 + 1/2 B(u^{m+1}, u^m)

satisfies (E^{m+1/2} - E^{m-1/2})/dt = -sum_boundary a * v_centered^2,
where B is the stiffness form below.  In particular the staggered energy
is non-increasing for every nonnegative damping and exactly conserved
for zero damping, up to roundoff.

Fields are shaped (n, n) with u[i, j] at (i*h, j*h); see grid.py for the
boundary layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError
from .grid import Grid2D
from .spectral import DampingPair, ModeIndex, eigenpair, integrate, mode_shape, trapezoid_weights

__all__ = [
    "CFL_LIMIT",
    "DT_FACTOR",
    "BATCH_NODE_CAP",
    "TRACE_WINDOW",
    "DOT_BLOCK",
    "WaveState",
    "BoundaryTrace",
    "step_quadrature",
    "SourceSpec",
    "SolveResult",
    "mode_boundary_source",
    "probe_equivalent_source",
    "damping_rate",
    "step",
    "start_step",
    "step_count",
    "step_times",
    "solve",
    "solve_from_mode",
    "solve_modes",
    "mode_field",
    "undamped_mode_trace",
    "energy",
    "stiffness_energy",
    "stiffness_dual_norm",
    "weighted_l2_sq",
    "dissipation_residual",
    "rellich_residual",
]

CFL_LIMIT = 1.0 / math.sqrt(2.0)
DT_FACTOR = 0.5  # fraction of the CFL limit every solve steps at
BATCH_NODE_CAP = 45000  # most nodes, members * n^2, that one batch steps at once
TRACE_WINDOW = 64  # steps a reduced batch records before it hands them on
DOT_BLOCK = 10000  # most values OpenBLAS's dot product reduces on one thread


# ---------------------------------------------------------------------------
# state and measurement containers

@dataclass
class WaveState:
    """Displacement and velocity fields at one instant.

    The displacement must vanish on the Dirichlet sides (largest index in
    either direction).
    """

    u: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 2:
            raise ValueError("u and v must be square fields of equal shape")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise NumericalError("non-finite field values in wave state")
        scale = max(1.0, float(np.abs(self.u).max()))
        if max(np.abs(self.u[-1, :]).max(), np.abs(self.u[:, -1]).max()) > 1e-8 * scale:
            raise ValueError("displacement must vanish on the Dirichlet sides")


@dataclass
class BoundaryTrace:
    """The measurement: space-time samples of the outward normal derivative.

    sides, shaped (2, steps + 1, n), holds d_nu u at (x_i, 0, t_m) in
    sides[0, m, i] (the bottom side) and at (0, y_j, t_m) in sides[1, m, j]
    (the left side), both from one-sided second-order differences on the
    damped sides.  The boundary velocities are not part of the measurement;
    they are a diagnostic of the solver and live on SolveResult.
    """

    times: np.ndarray
    sides: np.ndarray
    dt: float

    def __post_init__(self):
        if self.sides.ndim != 3 or self.sides.shape[0] != 2:
            raise ValueError(f"trace sides must be shaped (2, steps+1, n), got {self.sides.shape}")
        if self.times.shape != self.sides.shape[1:2]:
            raise ValueError("times length must match the step count")
        # a pass of isfinite; the norm is left to the callers that read it
        if not np.isfinite(self.sides).all():
            raise NumericalError("boundary trace has non-finite values")

    @property
    def n(self) -> int:
        return self.sides.shape[2]

    def l2_norm(self) -> float:
        """Space-time L2 norm over both damped sides."""
        return math.sqrt(integrate(step_quadrature(self.sides), self.dt))

    def difference(self, other: "BoundaryTrace") -> "BoundaryTrace":
        if self.sides.shape != other.sides.shape:
            raise ValueError("traces must come from matching discretizations")
        return BoundaryTrace(times=self.times, sides=self.sides - other.sides, dt=self.dt)


def step_quadrature(sides: np.ndarray) -> np.ndarray:
    """h sum_i w_i (bottom_i^2 + left_i^2) at each step of sides, shaped (2, steps, n).

    Each step is reduced on its own (einsum, no BLAS call), so any run of
    steps cut from a trace gets the bits of the same steps of the whole
    trace.  Raises NumericalError on a value that is not finite.
    """
    n = sides.shape[-1]
    h = 1.0 / (n - 1)
    wx = trapezoid_weights(n)
    per_step = h * (np.einsum("kj,j->k", sides[0] ** 2, wx)
                    + np.einsum("kj,j->k", sides[1] ** 2, wx))
    if not np.isfinite(per_step).all():
        raise NumericalError("boundary trace norm is not finite")
    return per_step


@dataclass
class SourceSpec:
    """Separable volume or boundary forcing profile(t) * load.

    load[i, j] is the forcing functional evaluated at the nodal basis
    function of (i, j), i.e. already integrated against quadrature
    weights.  For a plain L2 source f this is h^2 * w_ij * f_ij; for a
    boundary functional it is the side quadrature of the density.
    """

    profile: Callable[[float], float]
    load: np.ndarray


def mode_boundary_source(a: DampingPair, mode: ModeIndex, grid: Grid2D) -> SourceSpec:
    """Boundary functional -sqrt(lam) * integral over damped sides of a * mode * v.

    This is the source whose response with zero initial data reproduces
    the damped-minus-undamped modal probe; its time profile is
    cos(omega t) with omega the mode frequency.
    """
    pair = eigenpair(mode)
    s = grid.nodes
    w_side = trapezoid_weights(grid.n) * grid.h
    load = np.zeros((grid.n, grid.n))
    load[:, 0] += -pair.omega * w_side * a.a1.at(s) * mode_shape(mode, s, 0.0)
    load[0, :] += -pair.omega * w_side * a.a2.at(s) * mode_shape(mode, 0.0, s)
    omega = pair.omega
    return SourceSpec(profile=lambda t: math.cos(omega * t), load=load)


def probe_equivalent_source(a: DampingPair, mode: ModeIndex, grid: Grid2D) -> SourceSpec:
    """Source whose zero-data response equals the damped-minus-undamped probe.

    The undamped modal solution cos(omega t) * mode violates the damped
    boundary condition by a * omega * sin(omega t) * mode, so the
    difference field solves the damped problem driven by the boundary
    functional of mode_boundary_source with flipped sign and a
    quarter-period-shifted modulation sin(omega t).
    """
    base = mode_boundary_source(a, mode, grid)
    omega = eigenpair(mode).omega
    return SourceSpec(profile=lambda t: math.sin(omega * t), load=-base.load)


# ---------------------------------------------------------------------------
# discrete forms

def stiffness_energy(u: np.ndarray, grid: Grid2D) -> float:
    """Quadratic form B(u, u): squared discrete gradient norm.

    Cell-midpoint differences in the derivative direction with trapezoid
    weights transversally; this is exactly the form whose decay the
    leapfrog scheme reproduces.  B(u, w) is the dot product of u's and w's
    weighted gradients, which the energy log forms by the same helper, so
    a solve's energy at a state of rest is half this value bit for bit.
    """
    return _stiffness_bilinear(u, u)


def _stiffness_bilinear(u: np.ndarray, w: np.ndarray) -> float:
    n = u.shape[0]
    gu, gw = np.empty((2 * n - 1, n)), np.empty((2 * n - 1, n))
    return _fixed_order_dot(_weighted_gradient(u, gu), _weighted_gradient(w, gw))


def _fixed_order_dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.vdot(a, b), summed in order over blocks of at most DOT_BLOCK values.

    OpenBLAS splits a longer dot product across its threads, so its last
    bits would depend on the thread count; a block's do not.  Arrays of at
    most DOT_BLOCK values (every field up to n = 70) get np.vdot's own bits.
    """
    if a.size <= DOT_BLOCK:
        return float(np.vdot(a, b))
    a, b = a.ravel(), b.ravel()
    total = 0.0
    for first in range(0, a.shape[0], DOT_BLOCK):
        total += float(np.vdot(a[first:first + DOT_BLOCK], b[first:first + DOT_BLOCK]))
    return total


def _weighted_gradient(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Write u's first differences, each times the root of its transverse weight, into g.

    g, C-contiguous and shaped (2n - 1, n), takes u[i + 1, j] - u[i, j] in
    rows :n-1 and u[i, j + 1] - u[i, j] in rows n-1:, the latter from one
    contiguous pass over the flattened field whose row-end wraps land in
    the last column, then zeroed.  The x block's columns 0 and n-1 and the
    y block's rows 0 and n-1 have trapezoid weight 1/2, so scale by sqrt(1/2).
    """
    n = u.shape[0]
    dx, dy = g[:n - 1], g[n - 1:]
    np.subtract(u[1:], u[:-1], out=dx)
    flat, flat_dy = u.ravel(), dy.ravel()
    np.subtract(flat[1:], flat[:-1], out=flat_dy[:-1])
    dy[:, -1].fill(0.0)
    # one call per x-block edge: a (n - 1, 2) view of both loops per row, at twice the cost
    for edges in (dx[:, 0], dx[:, -1], dy[::n - 1]):
        np.multiply(edges, math.sqrt(0.5), out=edges)
    return g


def stiffness_dual_norm(load: np.ndarray, grid: Grid2D) -> float:
    """Dual norm sup_psi load . psi / sqrt(B(psi, psi)) over fields vanishing on the Dirichlet sides.

    load is an (n, n) array of functional values against the nodal basis,
    e.g. SourceSpec.load.  On the free nodes [0 .. n-2]^2, B is
    (W x W)(L x I + I x L), with W the trapezoid weights and L the 1-D
    second difference mirrored at node 0 and zero at node n-1.  The sampled
    cosines V[i, k] = cos((k + 1/2) pi i h) are W-orthogonal eigenvectors of
    L with eigenvalues lam_k = 4 sin^2((k + 1/2) pi h / 2), so the Riesz
    solve is diagonal in that basis and, with c_k = sum_i w_i V[i, k]^2,

        ||load||'^2 = sum_kl (V^T F V)_kl^2 / (c_k c_l (lam_k + lam_l)),  F = load[:n-1, :n-1].
    """
    load = np.asarray(load, dtype=float)
    if load.shape != (grid.n, grid.n):
        raise ValueError("load must match the grid")
    m = grid.n - 1
    theta = (np.arange(m) + 0.5) * (math.pi * grid.h)
    basis = np.cos(np.outer(np.arange(m), theta))
    lam = 4.0 * np.sin(0.5 * theta) ** 2
    c = grid.side_weights[:m] @ basis ** 2
    coeffs = basis.T @ load[:m, :m] @ basis
    return math.sqrt(float((coeffs ** 2 / (np.outer(c, c) * (lam[:, None] + lam))).sum()))


def weighted_l2_sq(u: np.ndarray, grid: Grid2D) -> float:
    """Squared L2 norm by tensor trapezoid quadrature."""
    return float(grid.h ** 2 * (grid.quad_weights * u * u).sum())


def energy(state: WaveState, grid: Grid2D) -> float:
    """E = 1/2 (B(u, u) + ||v||_{L2}^2)."""
    return 0.5 * (stiffness_energy(state.u, grid) + weighted_l2_sq(state.v, grid))


# ---------------------------------------------------------------------------
# scheme kernels

def _neighbour_sum_into(u: np.ndarray, out: np.ndarray,
                        row: np.ndarray) -> Callable[[], np.ndarray]:
    """A call that writes the mirrored neighbour sum S(u) into out, with its views made once.

    S is the sum of the four neighbours of each node, with even reflection
    across y = 0 and x = 0.  u is one (n, n) field or a (B, n, n) stack of
    them, and each call reads u as it is then.  S is valid on all
    non-Dirichlet nodes; the Dirichlet row and column of out hold finite
    values that the caller pins.  Each interior sum is
    ((y-neighbours) + lower x-neighbour) + upper x-neighbour.  The
    y-neighbours are added over the whole flattened stack, so that pass is
    contiguous; the sums that wrap around a row end (or from one member
    into the next) land in columns 0 and n-1, which are then overwritten.
    u and out must be C-contiguous and must not share memory.  row, shaped
    like u[..., 0, :], holds the x-mirror of row 0.
    """
    n = u.shape[-1]
    flat, total = u.reshape(-1, copy=False), out.reshape(-1, copy=False)
    y_lower, y_upper, y_sums = flat[:-2], flat[2:], total[1:-1]
    # columns 0 and n-1 of every member, as 1-D strided views
    mirror_column, first_column, last_column = flat[1::n], total[::n], total[n - 1::n]
    inner, x_lower, x_upper = out[..., 1:-1, :], u[..., :-2, :], u[..., 2:, :]
    mirror_row, first_row = u[..., 1, :], out[..., 0, :]

    def neighbour_sum() -> np.ndarray:
        np.add(y_lower, y_upper, out=y_sums)
        np.multiply(2.0, mirror_column, out=first_column)
        last_column.fill(0.0)
        np.add(inner, x_lower, out=inner)
        np.add(inner, x_upper, out=inner)
        np.multiply(2.0, mirror_row, out=row)
        np.add(first_row, row, out=first_row)
        return out

    return neighbour_sum


def damping_rate(a: DampingPair, grid: Grid2D) -> np.ndarray:
    """The friction 2 a / h from ghost elimination, as its two side vectors, shaped (2, n).

    Row 0 is the bottom side (column 0 of a field) and row 1 the left side
    (row 0).  Both rows hold the corner, where the two sides' frictions add.
    Off these sides the friction is zero.
    """
    s = grid.nodes
    rates = (2.0 / grid.h) * np.stack([a.a1.at(s), a.a2.at(s)])
    rates[:, 0] = rates[0, 0] + rates[1, 0]
    return rates


def _check_cfl(dt: float, h: float):
    if dt > CFL_LIMIT * h * (1.0 + 1e-12):
        raise NumericalError(f"dt = {dt:.3e} violates the CFL bound {CFL_LIMIT * h:.3e}")


class _Leapfrog:
    """The in-place leapfrog update over a ring of three fields, built once per solve.

    With r = dt^2 / h^2, every node first takes the undamped update

        U = r S(u^m) + (2 - 4 r) u^m - u^{m-1} + profile(t) dt^2 accel,

    S being the mirrored neighbour sum and accel the source's load per unit
    mass, its load over each node's quadrature weight.  gam holds the friction on the
    damped sides only, column 0 and row 0 (see damping_rate): shaped (2, n)
    for every member, or (B, 2, n) with one row pair per member.  With
    half = gam dt / 2, the damped sides are then corrected in place, column
    0 and then row 0 past the corner, to

        u^{m+1} = U / (1 + half) + u^{m-1} half / (1 + half),

    which is the scheme (1 + half) u^{m+1} = 2 u^m - (1 - half) u^{m-1}
    + dt^2 (lap u^m + profile(t) accel) up to roundoff.  Off the damped sides
    half = 0, and U is u^{m+1}.

    u^{m-1}, u^m and u^{m+1} rotate through `fields`, shaped (3,) + shape
    for one (n, n) field or a (B, n, n) batch; fields[0] and fields[1] take
    u^0 and u^1 before the first advance, u^1 either given or formed by start.
    """

    def __init__(self, dt: float, grid: Grid2D, gam: np.ndarray,
                 source: Optional[SourceSpec], shape: Tuple[int, ...]):
        n = grid.n
        half = 0.5 * dt * np.broadcast_to(gam, shape[:-2] + (2, n))
        one_plus = 1.0 + half
        scale, carry = 1.0 / one_plus, half / one_plus
        # the factors of column 0, flattened as its strided view is, and of row 0 past the corner
        self.bottom = scale[..., 0, :].reshape(-1), carry[..., 0, :].reshape(-1)
        self.left = scale[..., 1, 1:], carry[..., 1, 1:]
        self.fields = np.empty((3,) + shape)
        # fields[slot] holds u^m, fields[slot - 1] u^(m-1) and fields[slot + 1] u^(m+1)
        self.slot = 1
        self.work = np.empty(shape)
        self.row = np.empty(shape[:-2] + (n,))
        self.dt, self.grid, self.gam, self.source = dt, grid, gam, source
        r = dt * dt / (grid.h * grid.h)
        self.accel = None if source is None else source.load / (grid.h ** 2 * grid.quad_weights)
        load = None if source is None else (dt * dt) * self.accel
        self.phases = [self._phase(k, r, source, load) for k in range(3)]

    def _phase(self, k: int, r: float, source: Optional[SourceSpec],
               load: Optional[np.ndarray]) -> Callable[[float], Tuple[np.ndarray, ...]]:
        """The step from fields[k] and fields[k - 1] into fields[k + 1], on views made once."""
        u, u_prev, out = self.fields[k], self.fields[k - 1], self.fields[(k + 1) % 3]
        n = u.shape[-1]
        neighbour_sum = _neighbour_sum_into(u, out, self.row)
        work, c = self.work, 2.0 - 4.0 * r
        # the damped sides of out and u_prev; column 0 of a C-contiguous stack is one
        # strided view of its flattened nodes.  row is free once S is formed, and holds
        # u_prev's share of each side in turn
        out_bottom, prev_bottom = out.reshape(-1)[::n], u_prev.reshape(-1)[::n]
        out_left, prev_left = out[..., 0, 1:], u_prev[..., 0, 1:]
        carried_bottom, carried_left = self.row.reshape(-1), self.row[..., 1:]
        (bottom_scale, bottom_carry), (left_scale, left_carry) = self.bottom, self.left
        dirichlet_row, dirichlet_column = out[..., -1, :], out.reshape(-1)[n - 1::n]

        def advance(t: float) -> Tuple[np.ndarray, ...]:
            neighbour_sum()
            np.multiply(out, r, out=out)
            np.multiply(u, c, out=work)
            np.add(out, work, out=out)
            np.subtract(out, u_prev, out=out)
            if source is not None:
                np.multiply(source.profile(t), load, out=work)
                np.add(out, work, out=out)
            np.multiply(out_bottom, bottom_scale, out=out_bottom)
            np.multiply(prev_bottom, bottom_carry, out=carried_bottom)
            np.add(out_bottom, carried_bottom, out=out_bottom)
            np.multiply(out_left, left_scale, out=out_left)
            np.multiply(prev_left, left_carry, out=carried_left)
            np.add(out_left, carried_left, out=out_left)
            dirichlet_row.fill(0.0)
            dirichlet_column.fill(0.0)
            return out, u, u_prev

        return advance

    def advance(self, t: float) -> Tuple[np.ndarray, ...]:
        """One step at time t = m dt; returns the views u^{m+1}, u^m and u^{m-1} of fields."""
        fields = self.phases[self.slot](t)
        self.slot = (self.slot + 1) % 3
        return fields

    def start(self, u1: np.ndarray) -> np.ndarray:
        """The Taylor start from u^0 in fields[0] and velocity u1, written into fields[1].

        u^1 = u^0 + dt u1 + dt^2 / 2 (lap u^0 - gam u1 + profile(0) accel),
        with fields[2] holding the acceleration and work the rest, so no
        field-sized array is allocated.  u1 is of fields[0]'s shape or one
        (n, n) field for every member; gam u1 is formed on the damped sides
        only, the corner once.
        """
        u0, u, acc, work = self.fields[0], self.fields[1], self.fields[2], self.work
        gam, h = self.gam, self.grid.h
        _neighbour_sum_into(u0, acc, self.row)()
        np.subtract(acc, np.multiply(4.0, u0, out=work), out=acc)
        np.divide(acc, h * h, out=acc)
        acc[..., :, 0] -= gam[..., 0, :] * u1[..., :, 0]
        acc[..., 0, 1:] -= gam[..., 1, 1:] * u1[..., 0, 1:]
        if self.source is not None:
            np.add(acc, np.multiply(self.source.profile(0.0), self.accel, out=work), out=acc)
        np.add(u0, np.multiply(self.dt, u1, out=work), out=work)
        np.add(work, np.multiply(0.5 * self.dt * self.dt, acc, out=acc), out=u)
        return self.grid.zero_dirichlet(u)


def step(u: np.ndarray, u_prev: np.ndarray, t: float, dt: float, grid: Grid2D,
         gam: np.ndarray, source: Optional[SourceSpec] = None) -> np.ndarray:
    """One leapfrog step u^{m-1}, u^m -> u^{m+1} at time t = m dt, into a fresh array.

    The boundary friction uses the centered velocity
    (u^{m+1} - u^{m-1}) / (2 dt), solved pointwise: every node takes the
    undamped update U of _Leapfrog, and the damped sides, whose friction
    gam holds (see damping_rate), are then corrected to
    U / (1 + half) + u_prev half / (1 + half) with half = gam dt / 2.
    """
    _check_cfl(dt, grid.h)
    kernel = _Leapfrog(dt, grid, gam, source, u.shape)
    kernel.fields[0] = u_prev
    kernel.fields[1] = u
    return kernel.advance(t)[0]


def start_step(u0: np.ndarray, u1: np.ndarray, dt: float, grid: Grid2D,
               gam: np.ndarray, source: Optional[SourceSpec] = None) -> np.ndarray:
    """Taylor start producing u at t = dt from initial data u0, u1 of one shape, into a fresh array.

    u^1 = u0 + dt u1 + dt^2 / 2 (lap u0 - gam u1 + profile(0) accel), as
    _Leapfrog.start forms it.  u0 and u1 are (n, n) fields or (B, n, n)
    stacks, and gam is shaped as _Leapfrog takes it.
    """
    kernel = _Leapfrog(dt, grid, gam, source, u0.shape)
    kernel.fields[0] = u0
    return kernel.start(u1)


def _trace_recorder(grid: Grid2D) -> Callable[[np.ndarray, np.ndarray], None]:
    """A call record(u, out) writing the trace of u into out, shaped u.shape[:-2] + (2, n).

    The one-sided normal-derivative stencil has weights (3, -4, 1) / (2h)
    down each damped side's first three rows: column k of the field for
    the bottom side (out[..., 0, :]) and row k for the left side
    (out[..., 1, :]).  u is one (n, n) field or a (B, n, n) stack, and both
    products read it through strided views, with no copy.
    """
    weights = np.array([3.0, -4.0, 1.0]) / (2.0 * grid.h)

    def record(u: np.ndarray, out: np.ndarray):
        np.matmul(u[..., :, :3], weights, out=out[..., 0, :])
        np.matmul(weights, u[..., :3, :], out=out[..., 1, :])

    return record


class _EnergyLog:
    """The diagnostics of one solve, recorded into buffers allocated once.

    B(u^m, u^m) and B(u^{m+1}, u^m) are dot products of weighted gradients
    from stiffness_energy's helper, kept in two slots that swap every step.
    Each kinetic term forms its difference of fields in the log's own diff,
    which vanishes on the Dirichlet sides, reads the velocities' damped
    sides off it (velocities[0] bottom, [1] left), and scales its row 0 and
    column 0 by sqrt(1/2), so that its dot product is the trapezoid norm.
    """

    def __init__(self, steps: int, dt: float, grid: Grid2D):
        n = grid.n
        self.energies = np.empty(steps + 1)
        self.staggered_energies = np.empty(steps)
        self.velocities = np.empty((2, steps + 1, n))
        self.dt = dt
        self.h2 = grid.h ** 2
        self.diff = np.empty((n, n))
        self.edges = self.diff[0], self.diff[:, 0]
        # slots[0] holds the weighted gradient of the field energy() reads next
        self.slots = [np.empty((2 * n - 1, n)) for _ in range(2)]

    def _trapezoid_sq(self) -> float:
        """sum_ij w_i w_j diff_ij^2, diff vanishing on the Dirichlet sides; scales diff in place."""
        for side in self.edges:
            np.multiply(side, math.sqrt(0.5), out=side)
        return _fixed_order_dot(self.diff, self.diff)

    def energy(self, m: int, u: np.ndarray, later: np.ndarray, earlier, span: float):
        """Energy and boundary velocities at step m of u, with velocity (later - earlier) / span.

        earlier is a field or 0.0, and the difference is formed in diff.  The
        gradient of u is staggered_energy's from step m - 1, or formed here at m = 0.
        """
        if m == 0:
            _weighted_gradient(u, self.slots[0])
        d = np.subtract(later, earlier, out=self.diff)
        np.divide(d[:, 0], span, out=self.velocities[0, m])
        np.divide(d[0, :], span, out=self.velocities[1, m])
        kinetic = self.h2 / (span * span) * self._trapezoid_sq()
        self.energies[m] = 0.5 * (_fixed_order_dot(self.slots[0], self.slots[0]) + kinetic)

    def staggered_energy(self, m: int, u_new: np.ndarray, u_old: np.ndarray):
        """E^{m+1/2} from u^{m+1} and u^m, u^m's gradient in slots[0]; puts u^{m+1}'s there."""
        old, new = self.slots
        _weighted_gradient(u_new, new)
        np.subtract(u_new, u_old, out=self.diff)
        kinetic = self.h2 / (self.dt * self.dt) * self._trapezoid_sq()
        self.staggered_energies[m] = 0.5 * (kinetic + _fixed_order_dot(new, old))
        self.slots.reverse()

    def step(self, m: int, u_next: np.ndarray, u_curr: np.ndarray, u_prev: np.ndarray):
        """Energy at step m from the centered velocity, then E^{m+1/2}."""
        self.energy(m, u_curr, u_next, u_prev, 2.0 * self.dt)
        self.staggered_energy(m, u_next, u_curr)


@dataclass
class SolveResult:
    """One forward run: the measured trace plus the solver's diagnostics.

    Besides the trace, the times and the final state, a solve records
    energies (integer-step energy, read by the forward command and the
    energy checks), staggered_energies (E^{m+1/2} at t = (m + 1/2) dt, the
    series carrying the exact dissipation identity) and velocities, shaped
    like the trace's sides (the centered velocities (u^{m+1} - u^{m-1}) / (2 dt)
    on the damped sides, which only the dissipation identity reads; the last,
    final.v's, from one step past tau that the trace does not record).  The
    energies are formed as _EnergyLog says, in buffers of the log's own.
    """

    final: WaveState
    trace: BoundaryTrace
    times: np.ndarray
    grid: Grid2D
    dt: float
    energies: np.ndarray
    staggered_energies: np.ndarray
    velocities: np.ndarray


def step_count(tau: float, h: float) -> int:
    """Number of leapfrog steps a solve takes to reach tau on spacing h."""
    return max(2, int(math.ceil(tau / (DT_FACTOR * CFL_LIMIT * h))))


def _time_step(tau: float, h: float) -> Tuple[int, float]:
    """Step count and step of a solve to tau, checked for underflow.

    The step is at most DT_FACTOR * CFL_LIMIT * h up to roundoff, so within the CFL bound.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    steps = step_count(tau, h)
    dt = tau / steps
    if dt * dt < np.finfo(float).tiny:
        raise NumericalError(f"dt = {dt:.3e} squares below the smallest normal double; raise tau")
    return steps, dt


def step_times(tau: float, h: float) -> np.ndarray:
    """The times m dt, m = 0..steps, at which a solve to tau records; checked as _time_step."""
    steps, dt = _time_step(tau, h)
    return dt * np.arange(steps + 1)


def _initial_data(u, grid: Grid2D) -> np.ndarray:
    """Initial data as a float (n, n) array, not yet pinned.

    Raises ValueError unless the data match the grid and vanish on the Dirichlet sides.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n, grid.n):
        raise ValueError("initial fields must match the grid")
    if grid.on_dirichlet_max(u) > 1e-9:
        raise ValueError("initial data must vanish on the Dirichlet sides")
    return u


def _leapfrog_loop(u0: np.ndarray, u1: np.ndarray, gam: np.ndarray, grid: Grid2D,
                   steps: int, dt: float, traces: np.ndarray,
                   source: Optional[SourceSpec] = None, log: Optional[_EnergyLog] = None,
                   flush: Optional[Callable[[int, np.ndarray], None]] = None):
    """The time loop of every solve, over one (n, n) field or a (B, n, n) batch.

    u0 is copied into the kernel's ring and pinned there; u1, of u0's shape
    or one (n, n) field for every member, must vanish on the Dirichlet
    sides.  gam is the friction's side vectors, (2, n) for every member or
    (B, 2, n) per member (see _Leapfrog).  Records each
    member's trace at integer step m into column m % W of traces, shaped
    (B, 2, W, n) with B = 1 for a single field: traces[b, 0] is member b's
    bottom trace and traces[b, 1] its left trace.  Without flush, W must
    be steps + 1, and traces ends up holding every step.  With it,
    flush(first, window) is called each time the W columns fill and once
    for the columns left at the end; window, a view of traces, holds steps
    first, first + 1, ... in its columns.  The energy log is kept only for
    a single field, and its last energy is left to the caller.  Returns the
    step times and the kernel, whose next advance(times[steps]) steps past
    tau from u^steps and u^(steps - 1).
    """
    kernel = _Leapfrog(dt, grid, gam, source, u0.shape)
    times = dt * np.arange(steps + 1)
    record = _trace_recorder(grid)
    columns = traces if u0.ndim == 3 else traces[0]
    width = traces.shape[2]

    def put(m: int, u: np.ndarray):
        record(u, columns[..., m % width, :])
        if flush is not None and (m + 1) % width == 0:
            flush(m + 1 - width, traces)

    u_prev = kernel.fields[0]
    u_prev[...] = u0
    grid.zero_dirichlet(u_prev)
    put(0, u_prev)
    if log is not None:
        log.energy(0, u_prev, u1, 0.0, 1.0)  # the velocity u1 - 0, formed in the log's buffer
    u_curr = kernel.start(u1)
    if log is not None:
        log.staggered_energy(0, u_curr, u_prev)

    for m in range(1, steps):
        u_next, u_curr, u_prev = kernel.advance(times[m])
        put(m, u_curr)
        if log is not None:
            log.step(m, u_next, u_curr, u_prev)
        if m % 128 == 0 and not np.isfinite(u_next).all():
            raise NumericalError(f"field blew up at step {m} (t = {times[m]:.3f})")

    put(steps, u_next)
    left = (steps + 1) % width
    if flush is not None and left:
        flush(steps + 1 - left, traces[:, :, :left])
    if not np.isfinite(u_next).all():
        raise NumericalError("final field contains non-finite values")
    return times, kernel


def solve(u0: np.ndarray, u1: np.ndarray, a: DampingPair, grid: Grid2D, tau: float,
          source: Optional[SourceSpec] = None) -> SolveResult:
    """Advance the damped wave problem to time tau.

    Records, at every integer step, the normal-derivative trace on both
    damped sides, the total energy and the centered boundary velocities,
    and the staggered energy series carrying the exact dissipation
    identity.  A solve is a batch of one of the loop that solve_modes runs,
    with the initial velocity, source, final state and diagnostics that
    only a single solve carries; its trace is bit-identical to a batch
    member's.
    """
    steps, dt = _time_step(tau, grid.h)
    u0 = _initial_data(u0, grid)
    u1 = grid.zero_dirichlet(np.array(_initial_data(u1, grid)))
    gam = damping_rate(a, grid)
    traces = np.empty((1, 2, steps + 1, grid.n))
    log = _EnergyLog(steps, dt, grid)
    times, kernel = _leapfrog_loop(u0, u1, gam, grid, steps, dt, traces, source, log)

    # one step past tau, so the final velocity is centered like every other
    u_next, u_curr, u_prev = kernel.advance(times[-1])
    log.energy(steps, u_curr, u_next, u_prev, 2.0 * dt)
    v = (u_next - u_prev) / (2.0 * dt)
    return SolveResult(final=WaveState(u=u_curr.copy(), v=v, t=float(times[-1])),
                       trace=BoundaryTrace(times=times, sides=traces[0], dt=dt),
                       times=times, grid=grid, dt=dt, energies=log.energies,
                       staggered_energies=log.staggered_energies, velocities=log.velocities)


def mode_field(mode: ModeIndex, grid: Grid2D) -> np.ndarray:
    """The mode shape sampled on the grid and pinned on the Dirichlet sides.

    The shape is a product of two cosines, so 2n of them sample its n^2 nodes.
    """
    s = grid.nodes
    return grid.zero_dirichlet(mode_shape(mode, s[:, None], s[None, :]))


def undamped_mode_trace(mode: ModeIndex, grid: Grid2D,
                        tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """The trace of the undamped solve from (mode shape, 0), in closed form, as (profile, start).

    The sampled mode is an eigenvector of the mirrored 5-point Laplacian,
    mirrored at 0 and zero at node n - 1, with eigenvalue -mu_h,
    mu_h = (4 / h^2)(sin^2(theta_k h / 2) + sin^2(theta_l h / 2)) and
    theta_k = (k + 1/2) pi.  With zero damping the Taylor start gives
    u^1 = (1 - dt^2 mu_h / 2) u^0 = cos(theta) u^0, and the leapfrog keeps
    u^m = cos(m theta) u^0, with theta = 2 asin(dt sqrt(mu_h) / 2) (the
    form acos(1 - dt^2 mu_h / 2) cancels for small theta).  So the trace at
    step m is profile[m] = cos(m theta) times start, the step-0 trace,
    shaped (2, n) and recorded as a solve records it.
    """
    steps, dt = _time_step(tau, grid.h)
    half_h = 0.5 * math.pi * grid.h
    mu = (4.0 / grid.h ** 2) * (math.sin((mode.k + 0.5) * half_h) ** 2
                                + math.sin((mode.l + 0.5) * half_h) ** 2)
    theta = 2.0 * math.asin(0.5 * dt * math.sqrt(mu))
    start = np.empty((2, grid.n))
    _trace_recorder(grid)(mode_field(mode, grid), start)
    return np.cos(theta * np.arange(steps + 1)), start


def solve_from_mode(a: DampingPair, mode: ModeIndex, grid: Grid2D, tau: float) -> SolveResult:
    """Solve from the initial data (mode shape, 0) that generates every modal measurement."""
    u0 = mode_field(mode, grid)
    return solve(u0, np.zeros_like(u0), a, grid, tau)


def solve_modes(dampings: Sequence[DampingPair], modes: Sequence[ModeIndex], grid: Grid2D,
                tau: float, *, reduce: Callable[[int, int, np.ndarray], None]) -> None:
    """The solves from (mode shape, 0), one per damping pair and mode, as one reduced batch.

    The members run damping-major: member b = i * len(modes) + j solves
    modes[j] under dampings[i], and its trace is bit-identical to that of
    solve_from_mode(dampings[i], modes[j], grid, tau).  The
    members step together, at most BATCH_NODE_CAP // n^2 at a time, and no
    trace is kept: each chunk of members records into its own window of
    TRACE_WINDOW steps and calls reduce(start, first, window) each time the
    window fills and once at the end, window[c] holding steps first,
    first + 1, ... of member start + c.  The window is overwritten after
    the call returns.
    """
    steps, dt = _time_step(tau, grid.h)
    n, members = grid.n, len(dampings) * len(modes)
    # each damping's friction, repeated across the modes, and the mode stack, repeated
    # across the dampings; each is a view when there is one damping or one mode.  The
    # loop copies each chunk into its own ring, so the repeats may share memory
    rates = np.stack([damping_rate(a, grid) for a in dampings])[:, None]
    gam = np.broadcast_to(rates, (len(dampings), len(modes), 2, n)).reshape(members, 2, n)
    fields = np.stack([mode_field(mode, grid) for mode in modes])
    u0 = np.broadcast_to(fields, (len(dampings),) + fields.shape).reshape(members, n, n)
    chunk = max(1, BATCH_NODE_CAP // n ** 2)
    for start in range(0, members, chunk):
        stop = min(start + chunk, members)
        window = np.empty((stop - start, 2, min(TRACE_WINDOW, steps + 1), n))
        _leapfrog_loop(u0[start:stop], np.zeros((n, n)), gam[start:stop], grid, steps, dt, window,
                       flush=lambda first, part, start=start: reduce(start, first, part))


# ---------------------------------------------------------------------------
# identities

def dissipation_residual(result: SolveResult, a: DampingPair) -> float:
    """Max over interior steps of |dE/dt + boundary damping flux|.

    dE/dt uses centered differencing of the recorded integer-step energy
    series; the flux pairs the recorded centered boundary velocities with
    the damping profile.  Second-order small for smooth trajectories.
    """
    grid = result.grid
    w = grid.side_weights * grid.h
    dedt = (result.energies[2:] - result.energies[:-2]) / (2.0 * result.dt)
    bottom, left = result.velocities[:, 1:-1]
    flux = bottom ** 2 @ (w * a.a1.at(grid.nodes)) + left ** 2 @ (w * a.a2.at(grid.nodes))
    return float(np.abs(dedt + flux).max())


def rellich_residual(phi, x0, grid: Grid2D, laplacian) -> float:
    """Defect of the multiplier identity with m(x) = x - x0.

    Checks 2 int lap(phi) (m . grad phi) dx against
    2 int_bdry d_nu phi (m . grad phi) - int_bdry (m . nu) |grad phi|^2.
    phi and its exact Laplacian are callables of (x, y), sampled on the
    grid.  Gradients are centered inside and one-sided first order on
    the boundary (np.gradient), so the defect is O(h) for smooth
    nonlinear fields and at roundoff for constant and affine ones.
    """
    cx, cy = float(x0[0]), float(x0[1])
    if not (cx > 1.0 and cy > 1.0):
        raise ValueError("x0 must lie strictly beyond the far corner")
    u = grid.sample(phi)
    lap = grid.sample(laplacian)
    h = grid.h
    gx, gy = np.gradient(u, h)

    x, y = grid.meshgrid()
    mdotgrad = (x - cx) * gx + (y - cy) * gy
    grad_sq = gx ** 2 + gy ** 2

    vol = 2.0 * h ** 2 * float((grid.quad_weights * lap * mdotgrad).sum())

    w = trapezoid_weights(grid.n) * h
    # per side: outward normal derivative, m . nu, m . grad, |grad|^2
    bdry1 = 0.0
    bdry2 = 0.0
    sides = [
        (-gy[:, 0], cy - 0.0, mdotgrad[:, 0], grad_sq[:, 0]),      # bottom, nu = (0,-1)
        (gy[:, -1], 1.0 - cy, mdotgrad[:, -1], grad_sq[:, -1]),    # top, nu = (0,1)
        (-gx[0, :], cx - 0.0, mdotgrad[0, :], grad_sq[0, :]),      # left, nu = (-1,0)
        (gx[-1, :], 1.0 - cx, mdotgrad[-1, :], grad_sq[-1, :]),    # right, nu = (1,0)
    ]
    for dnu, m_dot_nu, mg, gsq in sides:
        bdry1 += 2.0 * float((w * dnu * mg).sum())
        bdry2 += float(m_dot_nu * (w * gsq).sum())
    return abs(vol - (bdry1 - bdry2))
