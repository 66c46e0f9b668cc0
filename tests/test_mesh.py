import math
import re

import numpy as np
import pytest

from spde_lab.mesh import Grid, sample_initial, sine_initial


def test_grid_basics():
    g = Grid(1, 4)
    assert g.h == 0.25
    assert g.n_interior == 3
    assert np.allclose(g.axis_coords(), [0.25, 0.5, 0.75])
    g2 = Grid(2, 4)
    assert g2.n_interior == 9
    assert g2.shape == (3, 3)


@pytest.mark.parametrize("d,N", [(0, 4), (3, 4), (1, 1), (2, 0)])
def test_grid_rejects_bad_parameters(d, N):
    with pytest.raises(ValueError):
        Grid(d, N)


@pytest.mark.parametrize("d,N,message", [
    (1, 64.0, "N takes integers, got 64.0"),
    (1.0, 64, "d takes integers, got 1.0"),
    (True, 64, "d takes integers, got True"),
    (2, np.float64(8.0), "N takes integers, got np.float64(8.0)"),
])
def test_grid_rejects_a_float_or_bool(d, N, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Grid(d, N)


def test_grid_accepts_numpy_integers():
    assert Grid(np.int64(2), np.int32(5)).shape == (4, 4)


def test_field_length_checked():
    with pytest.raises(ValueError, match=re.escape("field of shape (2,) does not match the "
                                                   "grid's shape (3,)")):
        Grid(1, 4).as_field([1.0, 2.0])
    # a flat field of the right size is not a 2d field
    with pytest.raises(ValueError, match=re.escape("shape (16,) does not match the grid's "
                                                   "shape (4, 4)")):
        Grid(2, 5).as_field(np.arange(16.0))
    u = np.arange(16.0).reshape(4, 4)
    assert Grid(2, 5).as_field(u) is u
    assert Grid(1, 4).as_field([1, 2, 3]).dtype == np.float64


def test_field_values_read_only():
    for grid in (Grid(1, 4), Grid(2, 5)):
        f = sample_initial(sine_initial, grid)
        assert f.shape == grid.shape and f.flags.c_contiguous
        with pytest.raises(ValueError):
            f[(0,) * grid.d] = 9.0


def test_sample_sine_1d_n4():
    # sin at x = 1/4, 1/2, 3/4
    f = sample_initial(sine_initial, Grid(1, 4))
    expected = [math.sqrt(2) / 2, 1.0, math.sqrt(2) / 2]
    assert np.allclose(f, expected, rtol=0, atol=1e-15)


def test_sample_sine_product_2d_single_point():
    f = sample_initial(sine_initial, Grid(2, 2))
    assert f.shape == (1, 1)
    assert f[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_sample_custom_zero():
    f = sample_initial(lambda x: 0.0 * x, Grid(1, 8))
    assert np.all(f == 0.0)


@pytest.mark.parametrize("u0,grid,returned,closed", [
    (lambda x: 0.0, Grid(1, 8), (), (9,)),
    (lambda x, y: 0.0, Grid(2, 4), (), (5, 5)),
    (lambda x: [0.0, 0.0], Grid(1, 8), (2,), (9,)),
], ids=["scalar-1d", "scalar-2d", "list-of-2"])
def test_sample_names_the_shape_u0_returned(u0, grid, returned, closed):
    with pytest.raises(ValueError, match=re.escape(
            f"u0 returned shape {returned}, which does not match the closed grid's "
            f"shape {closed}")):
        sample_initial(u0, grid)


def test_sample_rejects_nonvanishing_boundary():
    with pytest.raises(ValueError, match="boundary"):
        sample_initial(lambda x: x + 1.0, Grid(1, 8))


def test_sample_rejects_nonfinite_with_coordinate():
    def bad(x):
        out = np.sin(np.pi * x)
        return np.where(np.isclose(x, 0.5), np.nan, out)

    with pytest.raises(ValueError, match="0.5"):
        sample_initial(bad, Grid(1, 4))


@pytest.mark.parametrize("grid", [Grid(1, 8), Grid(2, 8)])
def test_sample_evaluates_u0_once_on_the_closed_grid(grid):
    calls = []

    def counted(*coords):
        calls.append([c.shape for c in coords])
        return sine_initial(*coords)

    f = sample_initial(counted, grid)
    assert calls == [[(grid.N + 1,) * grid.d] * grid.d]
    # the interior of the closed grid is the grid's own coordinates, bit for bit
    x = grid.axis_coords()
    expected = sine_initial(*((x,) if grid.d == 1 else np.meshgrid(x, x, indexing="ij")))
    assert np.array_equal(f, expected)


def test_closed_grid_interior_is_the_axis_coords():
    # sample_initial's nodes; equal bits keep every stored report's bytes
    for N in range(2, 2049):
        assert np.array_equal(np.linspace(0.0, 1.0, N + 1)[1:-1], Grid(1, N).axis_coords()), N


def test_sample_rejects_a_nan_on_the_boundary():
    # abs(nan) > 1e-12 is False, so a NaN once passed where an inf did not
    with pytest.raises(ValueError, match=re.escape(
            "does not vanish on the boundary: u0(0.0,) = np.float64(nan)")):
        sample_initial(lambda x: np.where(x == 0.0, np.nan, np.sin(np.pi * x)), Grid(1, 8))

    def nan_on_top_edge(x, y):
        return np.where(y == 1.0, np.nan, sine_initial(x, y))

    with pytest.raises(ValueError, match=re.escape(
            "does not vanish on the boundary: u0(0.0, 1.0) = np.float64(nan)")):
        sample_initial(nan_on_top_edge, Grid(2, 8))


def test_sample_names_the_first_bad_node_in_row_major_order():
    with pytest.raises(ValueError, match=re.escape("u0(0.0, 0.25) = np.float64(0.25)")):
        sample_initial(lambda x, y: x + y, Grid(2, 4))

    # a bad boundary is named before a non-finite interior node
    def bad(x, y):
        return np.where((x == 0.25) & (y == 0.5), np.inf, x * y * (1.0 - y))

    with pytest.raises(ValueError, match=re.escape("u0(1.0, 0.25) = np.float64(0.1875)")):
        sample_initial(bad, Grid(2, 4))


def test_as_batch_checks_the_trailing_shape():
    grid = Grid(2, 4)
    U = np.zeros((5, 3, 3))
    assert grid.as_batch(U) is U
    assert grid.as_batch(np.zeros((3, 3))).shape == (3, 3)
    assert grid.as_batch([[[1, 2, 3]] * 3]).dtype == np.float64
    for shape in ((9,), (5, 3), (3, 3, 4), ()):
        with pytest.raises(ValueError, match=re.escape(
                f"array of shape {shape} does not end in the grid's shape (3, 3)")):
            grid.as_batch(np.zeros(shape))


def test_sampled_sine_sup_approaches_one():
    sups = [
        np.max(np.abs(sample_initial(sine_initial, Grid(1, N))))
        for N in (3, 5, 9, 17, 33)
    ]
    assert all(b >= a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 1.0
    assert sups[-1] > 0.995

