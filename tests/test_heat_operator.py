import numpy as np
import pytest
import scipy.linalg

from spde_lab.heat_operator import HeatOperator, PositivityDiagnosticsError
from spde_lab.mesh import Grid, GridField, sup_norm


def field(grid, values):
    return GridField(grid, values)


def rand_field(grid, rng, nonneg=False):
    v = rng.uniform(0.0, 1.5, grid.n_interior) if nonneg else rng.standard_normal(grid.n_interior)
    return GridField(grid, v)


# -- apply_laplacian ---------------------------------------------------------


def test_laplacian_single_point():
    op = HeatOperator(Grid(1, 2))
    assert op.apply_laplacian(field(op.grid, [1.0])).values[0] == -8.0


def test_laplacian_zero_field():
    op = HeatOperator(Grid(1, 8))
    out = op.apply_laplacian(field(op.grid, np.zeros(7)))
    assert np.all(out.values == 0.0)


def test_laplacian_hand_stencil_n4():
    op = HeatOperator(Grid(1, 4))
    out = op.apply_laplacian(field(op.grid, [1.0, 1.0, 1.0]))
    assert np.array_equal(out.values, 16.0 * np.array([-1.0, 0.0, -1.0]))


def test_laplacian_grid_mismatch():
    op = HeatOperator(Grid(1, 4))
    with pytest.raises(ValueError, match="mismatch"):
        op.apply_laplacian(field(Grid(1, 8), np.zeros(7)))


@pytest.mark.parametrize("grid", [Grid(1, 6), Grid(2, 5)])
def test_laplacian_matches_dense_on_basis(grid):
    op = HeatOperator(grid)
    A = op.dense_matrix()
    for j in range(grid.n_interior):
        e = np.zeros(grid.n_interior)
        e[j] = 1.0
        assert np.allclose(op.apply_laplacian(field(grid, e)).values, A[:, j], atol=1e-12)


def test_eigenvector_relation():
    op = HeatOperator(Grid(1, 16))
    for k in range(1, 16):
        v = op.eigenvector(k)
        out = op.apply_laplacian(v)
        assert np.allclose(out.values, op.eigenvalues[k - 1] * v.values, atol=1e-10)


def test_eigenvalues_negative_and_limit():
    op = HeatOperator(Grid(1, 1024))
    assert np.all(op.eigenvalues < 0.0)
    assert op.eigenvalues.max() == pytest.approx(-np.pi**2, abs=1e-3)


# -- dense matrices ----------------------------------------------------------


def test_dense_matrix_n4():
    op = HeatOperator(Grid(1, 4))
    expected = 16.0 * np.array([[-2.0, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert np.array_equal(op.dense_matrix(), expected)


def test_dense_matrix_2d_kronecker():
    op = HeatOperator(Grid(2, 3))
    A = op.dense_matrix()
    assert A.shape == (4, 4)
    # each interior point of the 2x2 grid has two neighbors, coefficient N^2
    off = A - np.diag(np.diag(A))
    assert np.all(off.sum(axis=1) == 2 * 9.0)
    assert np.all(off.sum(axis=1) <= 2 * 16.0)


def test_dense_matrix_cap():
    with pytest.raises(ValueError, match="cap"):
        HeatOperator(Grid(2, 100)).dense_matrix()


def test_dense_semigroup_nonnegative_substochastic():
    # the raw matrix exponential is already entrywise nonnegative up to
    # roundoff and sub-stochastic; the diagnostic path only zeroes noise
    for grid in (Grid(1, 8), Grid(2, 5)):
        op = HeatOperator(grid)
        raw = scipy.linalg.expm(0.01 * op.dense_matrix())
        assert raw.min() >= -1e-12
        assert np.all(raw.sum(axis=1) <= 1.0 + 1e-12)
        E = op.dense_semigroup(0.01)
        assert np.all(E >= 0.0)
        assert np.max(np.abs(E - raw)) <= 1e-12


def test_dense_semigroup_matches_spectral():
    rng = np.random.default_rng(3)
    for grid in (Grid(1, 16), Grid(2, 6)):
        op = HeatOperator(grid)
        tau = 0.173
        E = op.dense_semigroup(tau)
        v = rand_field(grid, rng)
        assert np.allclose(E @ v.values, op.apply_semigroup(tau, v).values, atol=1e-10)


# -- apply_semigroup ---------------------------------------------------------


def test_semigroup_scalar_case():
    op = HeatOperator(Grid(1, 2))
    out = op.apply_semigroup(0.25, field(op.grid, [1.0]))
    assert out.values[0] == pytest.approx(np.exp(-2.0), rel=1e-14)


def test_semigroup_tau_zero_identity():
    op = HeatOperator(Grid(1, 8))
    v = field(op.grid, np.arange(7.0))
    assert op.apply_semigroup(0.0, v) is v


def test_semigroup_negative_tau_rejected():
    op = HeatOperator(Grid(1, 8))
    with pytest.raises(ValueError):
        op.apply_semigroup(-0.1, field(op.grid, np.zeros(7)))


def test_semigroup_eigenvector_decay():
    op = HeatOperator(Grid(1, 8))
    tau = 0.37
    for k in (1, 3, 7):
        v = op.eigenvector(k)
        out = op.apply_semigroup(tau, v)
        assert np.allclose(out.values, np.exp(tau * op.eigenvalues[k - 1]) * v.values, atol=1e-12)


@pytest.mark.parametrize("grid", [Grid(1, 8), Grid(1, 200), Grid(2, 8)])
def test_semigroup_vs_dense_expm(grid):
    # independent oracle: scaling-and-squaring matrix exponential
    rng = np.random.default_rng(7)
    op = HeatOperator(grid)
    for tau in (0.003, 0.21, 1.0):
        E = scipy.linalg.expm(tau * op.dense_matrix())
        v = rand_field(grid, rng)
        assert np.allclose(op.apply_semigroup(tau, v).values, E @ v.values, atol=1e-10)


def test_semigroup_law():
    rng = np.random.default_rng(11)
    for grid in (Grid(1, 32), Grid(2, 6)):
        op = HeatOperator(grid)
        v = rand_field(grid, rng)
        s, t = 0.07, 0.45
        a = op.apply_semigroup(s, op.apply_semigroup(t, v))
        b = op.apply_semigroup(s + t, v)
        assert np.allclose(a.values, b.values, rtol=1e-10, atol=1e-12)


def test_semigroup_positivity_exact():
    rng = np.random.default_rng(13)
    for grid in (Grid(1, 64), Grid(1, 256), Grid(2, 16)):
        op = HeatOperator(grid)
        for tau in (1e-4, 0.03, 2.0):
            out = op.apply_semigroup(tau, rand_field(grid, rng, nonneg=True))
            assert np.min(out.values) >= 0.0


def test_semigroup_contraction():
    rng = np.random.default_rng(17)
    for grid in (Grid(1, 64), Grid(2, 8)):
        op = HeatOperator(grid)
        for tau in (0.001, 0.1, 1.0):
            v = rand_field(grid, rng)
            assert sup_norm(op.apply_semigroup(tau, v)) <= sup_norm(v) * (1 + 1e-14)


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


# -- solve_implicit ----------------------------------------------------------


def test_solve_scalar_case():
    op = HeatOperator(Grid(1, 2))
    out = op.solve_implicit(0.25, field(op.grid, [1.0]))
    assert out.values[0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_solve_zero_rhs():
    op = HeatOperator(Grid(2, 6))
    out = op.solve_implicit(0.5, field(op.grid, np.zeros(25)))
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("grid", [Grid(1, 8), Grid(1, 300), Grid(2, 12)])
def test_solve_residual(grid):
    rng = np.random.default_rng(23)
    op = HeatOperator(grid)
    b = rand_field(grid, rng)
    for tau in (1e-3, 0.25, 3.0):
        x = op.solve_implicit(tau, b)
        residual = x.values - tau * op.apply_laplacian(x).values - b.values
        assert np.max(np.abs(residual)) <= 1e-12 * max(sup_norm(b), 1.0)


def test_solve_inverts_forward_map():
    rng = np.random.default_rng(29)
    for grid in (Grid(1, 32), Grid(2, 8)):
        op = HeatOperator(grid)
        x = rand_field(grid, rng)
        tau = 0.11
        b = GridField(grid, x.values - tau * op.apply_laplacian(x).values)
        back = op.solve_implicit(tau, b)
        assert np.allclose(back.values, x.values, rtol=1e-12, atol=1e-12)


def test_solve_rejects_nonpositive_tau():
    op = HeatOperator(Grid(1, 4))
    with pytest.raises(ValueError):
        op.solve_implicit(0.0, field(op.grid, np.zeros(3)))


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
    mult = frozen(op.semigroup_multipliers(2.0**-10))
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
    mult = op.semigroup_multipliers(0.1)
    empty = np.zeros((0,) + grid.shape)
    for clamp in (True, False):
        out = op.semigroup_array(empty, mult, clamp_nonneg=clamp)
        assert out.shape == empty.shape


def test_sine_transform_overwrite_same_bits():
    rng = np.random.default_rng(37)
    for grid in (Grid(1, 256), Grid(2, 160), Grid(1, 64)):
        op = HeatOperator(grid)
        v = rng.standard_normal((3,) + grid.shape)
        want = op.sine_transform(v)
        assert same_bits(op.sine_transform(v.copy(), overwrite=True), want)
