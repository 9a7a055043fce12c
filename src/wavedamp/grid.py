"""Uniform node-centered grid on the closed unit square.

Index convention: fields are arrays u[i, j] with x = i*h and y = j*h,
h = 1/(n-1).  The Dirichlet part of the boundary is {x = 1} union
{y = 1} (largest index in either direction); the damped part is
{y = 0} (the bottom side, damping profile a1(x)) union {x = 0}
(the left side, damping profile a2(y)).  The corner (0, 0) belongs to
both damped sides and carries their shared value a1(0) = a2(0); the
corners touching a Dirichlet side are Dirichlet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import trapezoid_weights

__all__ = ["Grid2D"]


@dataclass(frozen=True)
class Grid2D:
    n: int

    def __post_init__(self):
        if self.n < 17:
            raise ValueError(f"grid needs at least 17 nodes per side, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)

    def meshgrid(self):
        """Coordinate arrays (x[i, j], y[i, j]) matching the field layout."""
        s = self.nodes
        return np.meshgrid(s, s, indexing="ij")

    def sample(self, fn) -> np.ndarray:
        x, y = self.meshgrid()
        return np.asarray(fn(x, y), dtype=float)

    @cached_property
    def side_weights(self) -> np.ndarray:
        """1-D trapezoid weights along a side (spacing excluded), built once and read-only."""
        weights = trapezoid_weights(self.n)
        weights.flags.writeable = False
        return weights

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Tensor trapezoid weights (spacing excluded), built once and read-only."""
        w = self.side_weights
        weights = w[:, None] * w[None, :]
        weights.flags.writeable = False
        return weights

    def zero_dirichlet(self, u: np.ndarray) -> np.ndarray:
        """Pin the Dirichlet sides x = 1 and y = 1 in place, of one field or a (B, n, n) stack."""
        u[..., -1, :] = 0.0
        u[..., :, -1] = 0.0
        return u

    def on_dirichlet_max(self, u: np.ndarray) -> float:
        return float(max(np.abs(u[..., -1, :]).max(), np.abs(u[..., :, -1]).max()))
