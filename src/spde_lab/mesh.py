"""Uniform grids on (0,1)^d with homogeneous Dirichlet convention.

Fields store interior values only; boundary values are identically zero and
are never stored. Layout for d=2 is row-major with the second axis fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0,1)^d, d in {1,2}, with N subdivisions per axis.

    Mesh size is h = 1/N; interior points are x_n = n*h for 1 <= n <= N-1
    on each axis, giving (N-1)^d interior points in total.
    """

    d: int
    N: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class GridField:
    """Real values on the interior points of a grid.

    The values array is flat (length (N-1)^d, row-major for d=2) and is
    made read-only on construction; treat fields as immutable values.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.grid.n_interior:
            raise ValueError(
                f"field length {v.size} does not match grid with "
                f"{self.grid.n_interior} interior points"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def values_nd(self) -> np.ndarray:
        """Values reshaped to the interior shape (view, read-only)."""
        return self.values.reshape(self.grid.shape)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def __eq__(self, other):
        if not isinstance(other, GridField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class InitialData:
    """Initial condition u_0 on [0,1]^d, vanishing on the boundary.

    The evaluator takes one coordinate array per axis (vectorized) and
    returns u_0 at those points.
    """

    evaluator: Callable[..., np.ndarray]

    @staticmethod
    def sine_1d() -> "InitialData":
        """u_0(x) = sin(pi x)."""
        return InitialData(lambda x: np.sin(np.pi * x))

    @staticmethod
    def sine_product_2d() -> "InitialData":
        """u_0(x1, x2) = sin(pi x1) sin(pi x2)."""
        return InitialData(lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))

    @staticmethod
    def custom(evaluator: Callable[..., np.ndarray]) -> "InitialData":
        return InitialData(evaluator)


_BOUNDARY_TOL = 1e-12


def _check_boundary(data: InitialData, grid: Grid) -> None:
    # Sample u_0 on the boundary of [0,1]^d at grid resolution; it must vanish.
    t = np.linspace(0.0, 1.0, grid.N + 1)
    if grid.d == 1:
        pts = [(np.array([0.0]),), (np.array([1.0]),)]
    else:
        z = np.zeros_like(t)
        o = np.ones_like(t)
        pts = [(z, t), (o, t), (t, z), (t, o)]
    for coords in pts:
        vals = np.asarray(data.evaluator(*coords), dtype=np.float64)
        bad = np.abs(vals) > _BOUNDARY_TOL
        if bad.any():
            i = int(np.argmax(bad))
            where = tuple(float(c.reshape(-1)[i]) for c in coords)
            raise ValueError(
                f"initial data does not vanish on the boundary: "
                f"u0{where} = {vals.reshape(-1)[i]!r}"
            )


def sample_initial(data: InitialData, grid: Grid) -> GridField:
    """Evaluate u_0 at the interior grid points.

    Raises ValueError if u_0 fails to vanish on the boundary (to 1e-12) or
    the evaluator returns a non-finite value, naming the offending point.
    """
    _check_boundary(data, grid)
    x = grid.axis_coords()
    if grid.d == 1:
        vals = np.asarray(data.evaluator(x), dtype=np.float64)
    else:
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        vals = np.asarray(data.evaluator(x1, x2), dtype=np.float64)
    vals = vals.reshape(grid.shape)
    if not np.isfinite(vals).all():
        flat_bad = int(np.argmax(~np.isfinite(vals).reshape(-1)))
        idx = np.unravel_index(flat_bad, grid.shape)
        coord = tuple(float((i + 1) * grid.h) for i in idx)
        raise ValueError(f"initial data is non-finite at x = {coord}")
    return GridField(grid, vals.reshape(-1))


def sup_norm(v: GridField) -> float:
    """Max over interior points of |v|; 0 for the zero field."""
    return float(np.max(np.abs(v.values)))


def min_value(v: GridField) -> float:
    """Minimum entry. NaN propagates, so any corrupted field fails a
    ``min_value(v) >= 0`` positivity check."""
    return float(np.min(v.values))
