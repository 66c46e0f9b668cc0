"""Uniform grids on (0,1)^d with homogeneous Dirichlet convention.

A field is a float64 array of shape grid.shape, (N-1,) or (N-1, N-1), that
holds the interior values only; boundary values are identically zero and are
never stored. A batch of B fields has shape (B, *grid.shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int or a numpy integer: a float,
    even 64.0, and a bool are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} takes integers, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0,1)^d, d in {1,2}, with N subdivisions per axis.

    Mesh size is h = 1/N; interior points are x_n = n*h for 1 <= n <= N-1
    on each axis, giving (N-1)^d interior points in total.
    """

    d: int
    N: int

    def __post_init__(self):
        check_int("d", self.d)
        check_int("N", self.N)
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def n_interior_per_axis(self) -> int:
        return self.N - 1

    @property
    def n_interior(self) -> int:
        return (self.N - 1) ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        """Interior shape, (N-1,) or (N-1, N-1)."""
        return (self.N - 1,) * self.d

    def axis_coords(self) -> np.ndarray:
        """Interior coordinates along one axis: h, 2h, ..., (N-1)h."""
        return np.arange(1, self.N) * self.h

    def as_field(self, u) -> np.ndarray:
        """u as a float64 field on this grid, u itself if it is one already;
        raises ValueError naming both shapes unless u has the grid's shape."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.shape:
            raise ValueError(f"field of shape {u.shape} does not match the grid's shape {self.shape}")
        return u


def sine_initial(*coords: np.ndarray) -> np.ndarray:
    """u_0 = prod_i sin(pi x_i), one coordinate array per axis (vectorized):
    sin(pi x) in 1d, sin(pi x1) sin(pi x2) in 2d."""
    return math.prod(np.sin(np.pi * x) for x in coords)


_BOUNDARY_TOL = 1e-12


def _check_boundary(u0: Callable[..., np.ndarray], grid: Grid) -> None:
    # Sample u_0 on the boundary of [0,1]^d at grid resolution; it must vanish.
    t = np.linspace(0.0, 1.0, grid.N + 1)
    if grid.d == 1:
        pts = [(np.array([0.0]),), (np.array([1.0]),)]
    else:
        z = np.zeros_like(t)
        o = np.ones_like(t)
        pts = [(z, t), (o, t), (t, z), (t, o)]
    for coords in pts:
        vals = np.asarray(u0(*coords), dtype=np.float64)
        bad = np.abs(vals) > _BOUNDARY_TOL
        if bad.any():
            i = int(np.argmax(bad))
            where = tuple(float(c.reshape(-1)[i]) for c in coords)
            raise ValueError(
                f"initial data does not vanish on the boundary: "
                f"u0{where} = {vals.reshape(-1)[i]!r}"
            )


def sample_initial(u0: Callable[..., np.ndarray], grid: Grid) -> np.ndarray:
    """Evaluate u_0 at the interior grid points, as a read-only field of
    shape grid.shape. u0 takes one coordinate array per axis (vectorized),
    as sine_initial does.

    Raises ValueError if u_0 fails to vanish on the boundary (to 1e-12) or
    u0 returns a non-finite value, naming the offending point.
    """
    _check_boundary(u0, grid)
    x = grid.axis_coords()
    coords = (x,) if grid.d == 1 else np.meshgrid(x, x, indexing="ij")
    vals = np.asarray(u0(*coords), dtype=np.float64).reshape(grid.shape).copy()
    if not np.isfinite(vals).all():
        flat_bad = int(np.argmax(~np.isfinite(vals).reshape(-1)))
        idx = np.unravel_index(flat_bad, grid.shape)
        coord = tuple(float((i + 1) * grid.h) for i in idx)
        raise ValueError(f"initial data is non-finite at x = {coord}")
    vals.setflags(write=False)
    return vals
