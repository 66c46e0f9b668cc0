"""Uniform grids on (0,1)^d with homogeneous Dirichlet convention.

A field is a float64 array of shape grid.shape, (N-1,) or (N-1, N-1), that
holds the interior values only; boundary values are identically zero and are
never stored. A batch of B fields has shape (B, *grid.shape); Grid.as_field
and Grid.as_batch are the shape checks. sample_initial evaluates u_0 once, on
the closed grid, checks that it vanishes on the boundary (a non-finite
boundary value does not) and is finite inside, and keeps the interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def check_int(name: str, value) -> int:
    """value as a Python int; raises ValueError unless value is an int or a
    numpy integer: a float, even 64.0, and a bool are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} takes integers, got {value!r}")
    return int(value)


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

    def as_batch(self, arr) -> np.ndarray:
        """arr as a float64 field or batch of fields, arr itself if it is one
        already; raises ValueError naming both shapes unless arr's trailing
        axes are the grid's shape."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape[arr.ndim - self.d:] != self.shape:
            raise ValueError(f"array of shape {arr.shape} does not end in the grid's shape {self.shape}")
        return arr


def sine_initial(*coords: np.ndarray) -> np.ndarray:
    """u_0 = prod_i sin(pi x_i), one coordinate array per axis (vectorized):
    sin(pi x) in 1d, sin(pi x1) sin(pi x2) in 2d."""
    return math.prod(np.sin(np.pi * x) for x in coords)


_BOUNDARY_TOL = 1e-12


def sample_initial(u0: Callable[..., np.ndarray], grid: Grid) -> np.ndarray:
    """Evaluate u_0 once, on the closed grid (boundary nodes included), and
    return its interior values as a read-only field of shape grid.shape.
    u0 takes one coordinate array per axis (vectorized), as sine_initial
    does.

    Raises ValueError naming both shapes if u0 does not return one value
    per node of the closed grid, and, naming the first offending node in
    row-major order, if a boundary value is not within 1e-12 of zero (a NaN
    is not) or an interior value is not finite.
    """
    t = np.linspace(0.0, 1.0, grid.N + 1)  # its interior nodes are grid.axis_coords()
    coords = (t,) if grid.d == 1 else tuple(np.meshgrid(t, t, indexing="ij"))
    closed = (grid.N + 1,) * grid.d
    vals = np.asarray(u0(*coords), dtype=np.float64)
    if vals.shape != closed:
        raise ValueError(f"u0 returned shape {vals.shape}, which does not match the closed "
                         f"grid's shape {closed}")
    interior = (slice(1, -1),) * grid.d
    on_boundary = np.ones(closed, dtype=bool)
    on_boundary[interior] = False

    def first(bad: np.ndarray) -> tuple[tuple[int, ...], tuple[float, ...]]:
        idx = np.unravel_index(int(np.argmax(bad)), closed)
        return idx, tuple(float(c[idx]) for c in coords)

    bad = on_boundary & ~(np.abs(vals) <= _BOUNDARY_TOL)
    if bad.any():
        idx, x = first(bad)
        raise ValueError(f"initial data does not vanish on the boundary: u0{x} = {vals[idx]!r}")
    bad = ~on_boundary & ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"initial data is non-finite at x = {first(bad)[1]}")
    field = vals[interior].copy()
    field.setflags(write=False)
    return field
