"""Discrete Riesz representative and dual norm on the Dirichlet-free space.

Solves the variational problem B(z, psi) = w(psi) for every grid function
psi vanishing on the Dirichlet sides, where B is the stiffness form of
forward.py (5-point stencil with reflecting ghost rows on the damped
sides).  The dual norm of the functional is then ||w||' = sqrt(B(z, z))
= sqrt(z . F), with F the nodal load vector F_p = w(basis_p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .grid import Grid2D
from .spectral import trapezoid_weights

__all__ = ["RieszResult", "stiffness_matrix", "riesz_solve"]

CG_RTOL = 1e-12  # relative residual at which conjugate gradients stop
CG_MAXITER_PER_NODE = 40  # iteration cap per grid node along one side


@lru_cache(maxsize=8)
def _assemble(n: int):
    """Stiffness matrix on the free sub-grid [0 .. n-2]^2, CSR format."""
    import scipy.sparse as sp  # loaded on first use: no command needs it

    w = trapezoid_weights(n)
    e = np.ones(n)
    d1 = sp.diags([-e[:-1], e[:-1]], offsets=[0, 1], shape=(n - 1, n))
    t1 = (d1.T @ d1).tocsr()
    s_full = sp.kron(t1, sp.diags(w)) + sp.kron(sp.diags(w), t1)
    free = np.zeros((n, n), dtype=bool)
    free[:-1, :-1] = True
    idx = np.flatnonzero(free.ravel())
    s = s_full.tocsr()[idx][:, idx].tocsr()
    return s, idx


def stiffness_matrix(grid: Grid2D):
    """Sparse stiffness matrix and the flat indices of the free nodes."""
    return _assemble(grid.n)


@dataclass
class RieszResult:
    z: np.ndarray
    vprime_norm: float


def riesz_solve(load: np.ndarray, grid: Grid2D) -> RieszResult:
    """Riesz representative of the nodal load vector and its dual norm.

    `load` is an (n, n) array of functional values against the nodal
    basis, e.g. SourceSpec.load.  Conjugate gradients on the symmetric
    positive definite free-node system.
    """
    from scipy.sparse.linalg import cg

    load = np.asarray(load, dtype=float)
    if load.shape != (grid.n, grid.n):
        raise ValueError("load must match the grid")
    s, idx = _assemble(grid.n)
    f = load.ravel()[idx]
    if not np.any(f):
        return RieszResult(z=np.zeros((grid.n, grid.n)), vprime_norm=0.0)
    z_free, info = cg(s, f, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER_PER_NODE * grid.n)
    if info != 0:
        raise NumericalError(f"conjugate gradients did not converge (info = {info})")
    z = np.zeros(grid.n * grid.n)
    z[idx] = z_free
    norm_sq = float(z_free @ f)
    return RieszResult(z=z.reshape(grid.n, grid.n), vprime_norm=math.sqrt(max(norm_sq, 0.0)))
