import math

import numpy as np
import pytest

from spde_lab.mesh import (
    Grid,
    GridField,
    min_value,
    sample_initial,
    sine_initial,
    sup_norm,
)


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


def test_field_length_checked():
    with pytest.raises(ValueError):
        GridField(Grid(1, 4), [1.0, 2.0])


def test_field_values_read_only():
    f = GridField(Grid(1, 4), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        f.values[0] = 9.0


def test_sample_sine_1d_n4():
    # sin at x = 1/4, 1/2, 3/4
    f = sample_initial(sine_initial, Grid(1, 4))
    expected = [math.sqrt(2) / 2, 1.0, math.sqrt(2) / 2]
    assert np.allclose(f.values, expected, rtol=0, atol=1e-15)


def test_sample_sine_product_2d_single_point():
    f = sample_initial(sine_initial, Grid(2, 2))
    assert f.values.shape == (1,)
    assert f.values[0] == pytest.approx(1.0, abs=1e-15)


def test_sample_custom_zero():
    f = sample_initial(lambda x: 0.0 * x, Grid(1, 8))
    assert np.all(f.values == 0.0)


def test_sample_rejects_nonvanishing_boundary():
    with pytest.raises(ValueError, match="boundary"):
        sample_initial(lambda x: x + 1.0, Grid(1, 8))


def test_sample_rejects_nonfinite_with_coordinate():
    def bad(x):
        out = np.sin(np.pi * x)
        return np.where(np.isclose(x, 0.5), np.nan, out)

    with pytest.raises(ValueError, match="0.5"):
        sample_initial(bad, Grid(1, 4))


def test_sup_norm_examples():
    g = Grid(1, 4)
    assert sup_norm(GridField(g, [1.0, -3.0, 2.0])) == 3.0
    assert sup_norm(GridField(g, np.zeros(3))) == 0.0
    assert sup_norm(sample_initial(sine_initial, g)) == 1.0


def test_sup_norm_scaling():
    rng = np.random.default_rng(0)
    g = Grid(1, 16)
    v = rng.standard_normal(15)
    for c in (0.0, 0.5, 3.0):
        assert sup_norm(GridField(g, c * v)) == pytest.approx(c * sup_norm(GridField(g, v)), rel=1e-15)


def test_sampled_sine_sup_approaches_one():
    sups = [
        sup_norm(sample_initial(sine_initial, Grid(1, N)))
        for N in (3, 5, 9, 17, 33)
    ]
    assert all(b >= a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 1.0
    assert sups[-1] > 0.995


def test_min_value():
    g = Grid(1, 4)
    assert min_value(GridField(g, [1.0, -3.0, 2.0])) == -3.0
    assert min_value(GridField(g, [0.5, 0.0, 2.0])) >= 0.0


def test_min_value_nan_fails_positivity_check():
    f = GridField(Grid(1, 4), [1.0, np.nan, 2.0])
    assert not (min_value(f) >= 0.0)
    assert not f.is_finite()
