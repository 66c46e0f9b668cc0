"""Scaled discrete Laplacian N^2 D^N and its exact flows.

D^N is the (N-1)x(N-1) tridiagonal matrix tridiag(1,-2,1) of the centered
second difference with homogeneous Dirichlet boundary conditions; in 2d the
operator is the Kronecker sum A (+) A of the per-axis 1d operator A.

The eigensystem is closed form: the orthonormal discrete sine basis
v_k(n) = sqrt(2h) sin(k pi n h) diagonalizes A with eigenvalues
mu_k = -4 N^2 sin^2(k pi / (2N)), all strictly negative. HeatOperator
applies N^2 D^N by its stencil; HeatFlow(op, tau) holds the two exact
flows at one step size, for one field or a batch:

* heat: the semigroup e^{tau N^2 D^N} (spectral multipliers exp(tau mu_k)),
* solve: (I - tau N^2 D^N)^{-1} (banded Cholesky in 1d, spectral divisors
  in 2d),

each one call of the batched kernel semigroup_array or solve_implicit_array
with per-tau data that the flow builds on first use.

The sine transform is applied either as an explicit orthonormal matrix
product (small grids) or via the FFT-based DST-I, which with 'ortho'
normalization is exactly that matrix and is its own inverse.

scipy is imported only by the calls that use it: scipy.fft when an
operator on the DST path is built, scipy.linalg by a 1d flow's first
solve and by dense_semigroup. So a 1d run without SEM, like every 2d run,
never loads scipy.linalg.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .mesh import Grid

# Above this per-axis size the FFT-based transform beats the dense matmul.
_MATMUL_MAX_N = 128

_DENSE_CAP = 4096


class PositivityDiagnosticsError(RuntimeError):
    """Semigroup output from a nonnegative field went negative beyond
    roundoff scale; indicates a genuine bug, not floating-point noise."""


class HeatOperator:
    """Precomputed spectral data for N^2 D^N on a grid; immutable."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n_interior_per_axis
        k = np.arange(1, grid.N)
        self.eigenvalues = -4.0 * grid.N**2 * np.sin(k * np.pi / (2 * grid.N)) ** 2
        self.eigenvalues.setflags(write=False)
        if n <= _MATMUL_MAX_N:
            # Orthonormal sine matrix, symmetric and involutory.
            self._sine_matrix = np.sqrt(2.0 * grid.h) * np.sin(np.pi * np.outer(k, k * grid.h))
            self._sine_matrix.setflags(write=False)
        else:
            import scipy.fft

            self._sine_matrix = None
            self._dst = scipy.fft.dst if grid.d == 1 else scipy.fft.dstn

    # -- sine transform on the trailing d axes of an array ---------------

    def sine_transform(self, arr: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Orthonormal DST-I along the trailing grid axes (own inverse).

        overwrite=True lets the FFT path reuse arr's memory; pass it only
        for a buffer the caller owns and no longer reads.
        """
        if self._sine_matrix is not None:
            S = self._sine_matrix
            out = arr @ S  # trailing axis; S is symmetric
            if self.grid.d == 2:
                out = S @ out  # axis -2, batched over leading axes
            return out
        if self.grid.d == 1:
            return self._dst(arr, type=1, norm="ortho", axis=-1, overwrite_x=overwrite)
        return self._dst(arr, type=1, norm="ortho", axes=(-2, -1), overwrite_x=overwrite)

    # -- array-level kernels (batched over leading axes) -------------------

    def laplacian_array(self, arr: np.ndarray) -> np.ndarray:
        """N^2 D^N applied along the trailing grid axes via the stencil,
        with zero Dirichlet neighbors outside the interior."""
        N2 = float(self.grid.N**2)
        out = (-2.0 * self.grid.d) * np.asarray(arr, dtype=np.float64)
        out[..., 1:] += arr[..., :-1]
        out[..., :-1] += arr[..., 1:]
        if self.grid.d == 2:
            out[..., 1:, :] += arr[..., :-1, :]
            out[..., :-1, :] += arr[..., 1:, :]
        return N2 * out

    def semigroup_array(
        self, arr: np.ndarray, multipliers: np.ndarray, clamp_nonneg: bool = True
    ) -> np.ndarray:
        """exp(tau N^2 D^N) applied along the trailing grid axes.

        For input slices that are entrywise nonnegative, roundoff-negative
        output entries above -1e-12 * sup|input| are clamped to zero (the
        semigroup kernel is provably nonnegative); a larger negative entry
        raises PositivityDiagnosticsError.

        When the whole output is >= 0 there is nothing to clamp or flag, so
        one reduction replaces the per-slice scan. A NaN anywhere fails that
        test and sends the batch to the full scan, which still clamps the
        other slices. arr is never modified.
        """
        out = self.sine_transform(arr)
        out *= multipliers
        out = self.sine_transform(out, overwrite=True)
        if not clamp_nonneg or out.size == 0 or out.min() >= 0.0:
            return out
        axes = tuple(range(arr.ndim - self.grid.d, arr.ndim))
        nonneg = np.all(arr >= 0.0, axis=axes, keepdims=True)
        if not nonneg.any():
            return out
        eps = 1e-12 * np.max(np.abs(arr), axis=axes, keepdims=True)
        bad = nonneg & (out <= -eps) & (eps > 0)
        if bad.any():
            raise PositivityDiagnosticsError(
                f"semigroup produced entry {out[bad].min()} from a "
                f"nonnegative field (clamp threshold {-eps.max()})"
            )
        np.copyto(out, 0.0, where=nonneg & (out < 0.0))
        return out

    def solve_implicit_array(self, rhs: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """(I - tau N^2 D^N)^{-1} rhs along the trailing grid axes, with
        factor = HeatFlow(self, tau).implicit_factor. Each slice is solved
        on its own, so a non-finite slice leaves the others' bits alone."""
        if self.grid.d == 1:
            import scipy.linalg

            flat = rhs.reshape(-1, rhs.shape[-1])
            x = scipy.linalg.cho_solve_banded((factor, False), flat.T, check_finite=False).T
            return x.reshape(rhs.shape)
        return self.sine_transform(self.sine_transform(rhs) / factor)

    # -- dense diagnostic paths ---------------------------------------------

    def dense_matrix(self) -> np.ndarray:
        """Explicit dense N^2 D^N, for oracle tests at small N."""
        if self.grid.n_interior > _DENSE_CAP:
            raise ValueError(
                f"dense matrix capped at {_DENSE_CAP} interior points, "
                f"grid has {self.grid.n_interior}"
            )
        n = self.grid.n_interior_per_axis
        A = self.grid.N**2 * (
            np.diag(np.full(n, -2.0))
            + np.diag(np.ones(n - 1), 1)
            + np.diag(np.ones(n - 1), -1)
        )
        if self.grid.d == 1:
            return A
        eye = np.eye(n)
        return np.kron(A, eye) + np.kron(eye, A)

    def dense_semigroup(self, tau: float) -> np.ndarray:
        """Dense exp(tau N^2 D^N) with roundoff-negative entries zeroed;
        agrees with the spectral path to 1e-10 (alternative construction)."""
        if self.grid.n_interior_per_axis > 2**8:
            raise ValueError("dense semigroup capped at N = 2^8 per axis")
        import scipy.linalg

        E = scipy.linalg.expm(tau * self.dense_matrix())
        np.copyto(E, 0.0, where=E < 0.0)
        return E

    def eigenvector(self, k: int) -> np.ndarray:
        """Orthonormal sine mode v_k(n) = sqrt(2h) sin(k pi n h), 1d only."""
        if self.grid.d != 1:
            raise ValueError("per-axis eigenvectors are 1d; take products in 2d")
        if not 1 <= k <= self.grid.N - 1:
            raise ValueError(f"mode index must be in 1..{self.grid.N - 1}")
        x = self.grid.axis_coords()
        return np.sqrt(2.0 * self.grid.h) * np.sin(k * np.pi * x)


class HeatFlow:
    """heat(arr) = e^{tau N^2 D^N} arr and solve(arr) = (I - tau N^2 D^N)^{-1}
    arr at one step size tau, on a field or a batch that Grid.as_batch takes."""

    def __init__(self, op: HeatOperator, tau: float):
        if not 0 < tau < np.inf:  # NaN fails too
            raise ValueError(f"tau must be finite and > 0, got {tau}")
        self.op = op
        self.tau = tau

    @cached_property
    def semigroup_mult(self) -> np.ndarray:
        """exp(tau mu) on the interior shape (outer product in 2d)."""
        m = np.exp(self.tau * self.op.eigenvalues)
        if self.op.grid.d == 2:
            m = np.outer(m, m)
        return m

    @cached_property
    def implicit_factor(self) -> np.ndarray:
        """The banded Cholesky factor in 1d; the spectral divisors, all >= 1,
        in 2d."""
        grid, tau = self.op.grid, self.tau
        if grid.d == 2:
            mu = self.op.eigenvalues
            return 1.0 - tau * (mu[:, None] + mu[None, :])
        import scipy.linalg

        c = tau * grid.N**2
        ab = np.zeros((2, grid.n_interior_per_axis))
        ab[1, :] = 1.0 + 2.0 * c
        ab[0, 1:] = -c
        return scipy.linalg.cholesky_banded(ab)

    def heat(self, arr) -> np.ndarray:
        """e^{tau N^2 D^N} arr, clamped as semigroup_array clamps."""
        return self.op.semigroup_array(self.op.grid.as_batch(arr), self.semigroup_mult)

    def solve(self, arr) -> np.ndarray:
        """The unique x with (I - tau N^2 D^N) x = arr. Always solvable:
        the eigenvalues of the system matrix are all >= 1."""
        return self.op.solve_implicit_array(self.op.grid.as_batch(arr), self.implicit_factor)
