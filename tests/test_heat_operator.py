import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from spde_lab.heat_operator import HeatFlow, HeatOperator, PositivityDiagnosticsError
from spde_lab.integrators import exact_linear_array
from spde_lab.mesh import Grid
from spde_lab.selftest import dense_laplacian, dense_semigroup


def sup(v):
    return float(np.max(np.abs(v)))


def rand_field(grid, rng, nonneg=False):
    return rng.uniform(0.0, 1.5, grid.shape) if nonneg else rng.standard_normal(grid.shape)


# -- laplacian_array ---------------------------------------------------------


def test_laplacian_single_point():
    op = HeatOperator(Grid(1, 2))
    assert op.laplacian_array(np.array([1.0]))[0] == -8.0


def test_laplacian_zero_field():
    op = HeatOperator(Grid(1, 8))
    out = op.laplacian_array(np.zeros(7))
    assert np.all(out == 0.0)


def test_laplacian_hand_stencil_n4():
    op = HeatOperator(Grid(1, 4))
    out = op.laplacian_array(np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(out, 16.0 * np.array([-1.0, 0.0, -1.0]))


def test_operator_rejects_a_field_of_another_grid():
    op = HeatOperator(Grid(1, 4))
    flow = HeatFlow(op, 0.1)
    for shape in ((7,), (2, 7), ()):
        message = re.escape(f"array of shape {shape} does not end in the grid's shape (3,)")
        with pytest.raises(ValueError, match=message):
            flow.heat(np.zeros(shape))
        with pytest.raises(ValueError, match=message):
            flow.solve(np.zeros(shape))
    # the exact solution at t = 0 is u0 itself, checked as one field
    message = re.escape("field of shape (7,) does not match the grid's shape (3,)")
    with pytest.raises(ValueError, match=message):
        exact_linear_array(op, np.zeros(7), 1.0, 0.0, 0.0)


@pytest.mark.parametrize("grid", [Grid(1, 6), Grid(2, 5)])
def test_laplacian_matches_dense_on_basis(grid):
    op = HeatOperator(grid)
    A = dense_laplacian(grid.d, grid.N)
    for j in range(grid.n_interior):
        e = np.zeros(grid.n_interior)
        e[j] = 1.0
        out = op.laplacian_array(e.reshape(grid.shape)).reshape(-1)
        assert np.allclose(out, A[:, j], atol=1e-12)


def sine_mode(grid, k):
    """The orthonormal 1d sine mode v_k(n) = sqrt(2h) sin(k pi n h)."""
    return np.sqrt(2.0 * grid.h) * np.sin(k * np.pi * grid.axis_coords())


def test_eigenvector_relation():
    op = HeatOperator(Grid(1, 16))
    for k in range(1, 16):
        v = sine_mode(op.grid, k)
        out = op.laplacian_array(v)
        assert np.allclose(out, op.eigenvalues[k - 1] * v, atol=1e-10)


def test_eigenvalues_negative_and_limit():
    op = HeatOperator(Grid(1, 1024))
    assert np.all(op.eigenvalues < 0.0)
    assert op.eigenvalues.max() == pytest.approx(-np.pi**2, abs=1e-3)


# -- the selftest's dense matrices ------------------------------------------


def test_dense_matrix_n4():
    expected = 16.0 * np.array([[-2.0, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert np.array_equal(dense_laplacian(1, 4), expected)


def test_dense_matrix_2d_kronecker():
    A = dense_laplacian(2, 3)
    assert A.shape == (4, 4)
    # each interior point of the 2x2 grid has two neighbors, coefficient N^2
    off = A - np.diag(np.diag(A))
    assert np.all(off.sum(axis=1) == 2 * 9.0)
    assert np.all(off.sum(axis=1) <= 2 * 16.0)


def test_dense_semigroup_nonnegative_substochastic():
    # the raw matrix exponential is already entrywise nonnegative up to
    # roundoff and sub-stochastic; the oracle only zeroes noise
    for grid in (Grid(1, 8), Grid(2, 5)):
        A = dense_laplacian(grid.d, grid.N)
        raw = scipy.linalg.expm(0.01 * A)
        assert raw.min() >= -1e-12
        assert np.all(raw.sum(axis=1) <= 1.0 + 1e-12)
        E = dense_semigroup(A, 0.01)
        assert np.all(E >= 0.0)
        assert np.max(np.abs(E - raw)) <= 1e-12


def test_dense_semigroup_matches_spectral():
    rng = np.random.default_rng(3)
    for grid in (Grid(1, 16), Grid(2, 6)):
        op = HeatOperator(grid)
        tau = 0.173
        E = dense_semigroup(dense_laplacian(grid.d, grid.N), tau)
        v = rand_field(grid, rng)
        got = HeatFlow(op, tau).heat(v).reshape(-1)
        assert np.allclose(E @ v.reshape(-1), got, atol=1e-10)


# -- HeatFlow.heat ----------------------------------------------------------


def test_semigroup_scalar_case():
    op = HeatOperator(Grid(1, 2))
    out = HeatFlow(op, 0.25).heat(np.array([1.0]))
    assert out[0] == pytest.approx(np.exp(-2.0), rel=1e-14)


def test_semigroup_negative_tau_rejected():
    op = HeatOperator(Grid(1, 8))
    with pytest.raises(ValueError, match=re.escape("tau must be finite and > 0, got -0.1")):
        HeatFlow(op, -0.1)


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_flows_reject_a_non_finite_tau(tau):
    op = HeatOperator(Grid(1, 8))
    with pytest.raises(ValueError, match=re.escape(f"tau must be finite and > 0, got {tau}")):
        HeatFlow(op, tau)


def test_semigroup_eigenvector_decay():
    op = HeatOperator(Grid(1, 8))
    tau = 0.37
    flow = HeatFlow(op, tau)
    for k in (1, 3, 7):
        v = sine_mode(op.grid, k)
        out = flow.heat(v)
        assert np.allclose(out, np.exp(tau * op.eigenvalues[k - 1]) * v, atol=1e-12)


@pytest.mark.parametrize("grid", [Grid(1, 8), Grid(1, 200), Grid(2, 8)])
def test_semigroup_vs_dense_expm(grid):
    # independent oracle: scaling-and-squaring matrix exponential
    rng = np.random.default_rng(7)
    op = HeatOperator(grid)
    for tau in (0.003, 0.21, 1.0):
        E = scipy.linalg.expm(tau * dense_laplacian(grid.d, grid.N))
        v = rand_field(grid, rng)
        got = HeatFlow(op, tau).heat(v).reshape(-1)
        assert np.allclose(got, E @ v.reshape(-1), atol=1e-10)


def test_semigroup_law():
    rng = np.random.default_rng(11)
    for grid in (Grid(1, 32), Grid(2, 6)):
        op = HeatOperator(grid)
        v = rand_field(grid, rng)
        s, t = 0.07, 0.45
        a = HeatFlow(op, s).heat(HeatFlow(op, t).heat(v))
        b = HeatFlow(op, s + t).heat(v)
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def test_semigroup_positivity_exact():
    rng = np.random.default_rng(13)
    for grid in (Grid(1, 64), Grid(1, 256), Grid(2, 16)):
        op = HeatOperator(grid)
        for tau in (1e-4, 0.03, 2.0):
            out = HeatFlow(op, tau).heat(rand_field(grid, rng, nonneg=True))
            assert np.min(out) >= 0.0


def test_semigroup_contraction():
    rng = np.random.default_rng(17)
    for grid in (Grid(1, 64), Grid(2, 8)):
        op = HeatOperator(grid)
        for tau in (0.001, 0.1, 1.0):
            v = rand_field(grid, rng)
            assert sup(HeatFlow(op, tau).heat(v)) <= sup(v) * (1 + 1e-14)


def test_semigroup_diagnostics_error_on_genuine_negative():
    # feed a fake multiplier that breaks positivity by a visible margin
    op = HeatOperator(Grid(1, 8))
    v = np.ones(7)
    bad_mult = -np.ones(7)
    with pytest.raises(PositivityDiagnosticsError):
        op.semigroup_array(v, bad_mult)


def test_matmul_and_fft_transforms_agree():
    # below the size cutoff the transform is a dense sine-matrix product,
    # above it an FFT-based DST; both must implement the same map
    rng = np.random.default_rng(19)
    small, big = HeatOperator(Grid(1, 64)), HeatOperator(Grid(1, 256))
    assert small._sine_matrix is not None and big._sine_matrix is None
    v64 = rng.standard_normal(63)
    import scipy.fft

    assert np.allclose(
        small.sine_transform(v64),
        scipy.fft.dst(v64, type=1, norm="ortho"),
        atol=1e-12,
    )


# -- HeatFlow.solve ---------------------------------------------------------


def test_solve_scalar_case():
    op = HeatOperator(Grid(1, 2))
    out = HeatFlow(op, 0.25).solve(np.array([1.0]))
    assert out[0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_solve_zero_rhs():
    op = HeatOperator(Grid(2, 6))
    out = HeatFlow(op, 0.5).solve(np.zeros((5, 5)))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("grid", [Grid(1, 8), Grid(1, 300), Grid(2, 12)])
def test_solve_residual(grid):
    rng = np.random.default_rng(23)
    op = HeatOperator(grid)
    b = rand_field(grid, rng)
    for tau in (1e-3, 0.25, 3.0):
        x = HeatFlow(op, tau).solve(b)
        residual = x - tau * op.laplacian_array(x) - b
        assert sup(residual) <= 1e-12 * max(sup(b), 1.0)


def test_solve_inverts_forward_map():
    rng = np.random.default_rng(29)
    for grid in (Grid(1, 32), Grid(2, 8)):
        op = HeatOperator(grid)
        x = rand_field(grid, rng)
        tau = 0.11
        b = x - tau * op.laplacian_array(x)
        back = HeatFlow(op, tau).solve(b)
        assert np.allclose(back, x, rtol=1e-12, atol=1e-12)


def test_solve_rejects_nonpositive_tau():
    op = HeatOperator(Grid(1, 4))
    with pytest.raises(ValueError, match=re.escape("tau must be finite and > 0, got 0.0")):
        HeatFlow(op, 0.0)


# -- semigroup_array pinned against the straightforward implementation ------


def reference_semigroup_array(op, arr, multipliers, clamp_nonneg=True):
    """The full per-slice clamp scan, kept as the oracle for the fast path."""
    out = op.sine_transform(op.sine_transform(arr) * multipliers)
    if not clamp_nonneg:
        return out
    axes = tuple(range(arr.ndim - op.grid.d, arr.ndim))
    nonneg = np.all(arr >= 0.0, axis=axes, keepdims=True)
    if not nonneg.any():
        return out
    eps = 1e-12 * np.max(np.abs(arr), axis=axes, keepdims=True)
    bad = nonneg & (out <= -eps) & (eps > 0)
    if bad.any():
        raise PositivityDiagnosticsError("reference: genuine negative")
    np.copyto(out, 0.0, where=nonneg & (out < 0.0))
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def frozen(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


SLICES = ("spike", "mixed", "zero", "nan", "smooth")


def mixed_batch(grid, rng):
    """One slice per case: a nonnegative spike whose semigroup output has
    roundoff negatives, a mixed-sign field, an all-zero field, a field with
    one NaN, and a smooth positive field."""
    spike = np.zeros(grid.shape)
    spike[(0,) * grid.d] = 1.0
    mixed = rng.standard_normal(grid.shape)
    nan = rng.uniform(0.0, 1.0, grid.shape)
    nan[(1,) * grid.d] = np.nan
    smooth = rng.uniform(0.5, 1.5, grid.shape)
    return frozen(np.stack([spike, mixed, np.zeros(grid.shape), nan, smooth]))


@pytest.mark.parametrize("grid", [Grid(1, 256), Grid(2, 16)])
def test_semigroup_array_matches_reference_bitwise(grid):
    op = HeatOperator(grid)
    assert (op._sine_matrix is None) == (grid.d == 1)  # DST path, matmul path
    mult = frozen(HeatFlow(op, 2.0**-10).semigroup_mult)
    arr = mixed_batch(grid, np.random.default_rng(31))
    arr_before, mult_before = arr.copy(), mult.copy()
    raw = reference_semigroup_array(op, arr, mult, clamp_nonneg=False)
    got = op.semigroup_array(arr, mult)
    want = reference_semigroup_array(op, arr, mult)
    assert same_bits(got, want)
    # the spike slice had roundoff negatives, and they were zeroed
    i = SLICES.index("spike")
    assert raw[i].min() < 0.0 and got[i].min() >= 0.0
    # the mixed-sign slice is left alone; the NaN slice stays NaN
    assert same_bits(got[SLICES.index("mixed")], raw[SLICES.index("mixed")])
    assert np.isnan(got[SLICES.index("nan")]).all()
    assert np.all(got[SLICES.index("zero")] == 0.0)
    assert same_bits(op.semigroup_array(arr, mult, clamp_nonneg=False), raw)
    # each slice alone takes the same path as inside the batch
    for i in range(len(SLICES)):
        assert same_bits(op.semigroup_array(arr[i], mult), got[i])
    assert same_bits(arr, arr_before) and same_bits(mult, mult_before)


@pytest.mark.parametrize("grid", [Grid(1, 256), Grid(2, 16), Grid(1, 64)])
def test_semigroup_array_zero_size_batch(grid):
    op = HeatOperator(grid)
    flow = HeatFlow(op, 0.1)
    empty = np.zeros((0,) + grid.shape)
    for clamp in (True, False):
        out = op.semigroup_array(empty, flow.semigroup_mult, clamp_nonneg=clamp)
        assert out.shape == empty.shape
    assert flow.heat(empty).shape == flow.solve(empty).shape == empty.shape


def test_sine_transform_overwrite_same_bits():
    rng = np.random.default_rng(37)
    for grid in (Grid(1, 256), Grid(2, 160), Grid(1, 64)):
        op = HeatOperator(grid)
        v = rng.standard_normal((3,) + grid.shape)
        want = op.sine_transform(v)
        assert same_bits(op.sine_transform(v.copy(), overwrite=True), want)


# -- the positivity diagnostics, over random fields and step sizes -----------


@pytest.mark.parametrize("d,N", [(1, 64), (1, 256), (2, 16), (2, 256)])
@given(level=st.integers(0, 16), seed=st.integers(0, 2**32 - 1))
def test_semigroup_negative_multiplier_raises_property(d, N, level, seed):
    # one multiplier made negative on purpose: the map is no longer positive,
    # and a nonnegative field that has a share of that mode must raise
    op = HeatOperator(Grid(d, N))
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, op.grid.shape)
    mult = HeatFlow(op, 2.0**-level).semigroup_mult
    k = tuple(int(rng.integers(0, n)) for n in mult.shape)
    assume(abs(op.sine_transform(u)[k]) > 1e-3 * u.max())
    mult[k] = -1e6
    with pytest.raises(PositivityDiagnosticsError):
        op.semigroup_array(u, mult)


@pytest.mark.parametrize("d,N", [(1, 64), (1, 256), (2, 16), (2, 256)])
@given(level=st.integers(12, 16), seed=st.integers(0, 2**32 - 1))
def test_semigroup_roundoff_negatives_are_clamped_property(d, N, level, seed):
    # one spike spreads over a few points in a short step; far from it the
    # exact result lies far below roundoff, so the transforms leave tiny
    # negatives there, which are set to 0 without raising
    op = HeatOperator(Grid(d, N))
    rng = np.random.default_rng(seed)
    u = np.zeros(op.grid.shape)
    u[tuple(int(rng.integers(0, n)) for n in u.shape)] = rng.uniform(0.5, 2.0)
    mult = HeatFlow(op, 2.0**-level).semigroup_mult
    raw = op.semigroup_array(u, mult, clamp_nonneg=False)
    assert -1e-12 * u.max() < raw.min() < 0.0
    out = op.semigroup_array(u, mult)
    want = np.where(raw < 0.0, 0.0, raw)
    assert out.tobytes() == want.tobytes()
