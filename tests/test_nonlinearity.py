import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spde_lab
from spde_lab.experiments import CENSUS_G
from spde_lab.nonlinearity import CLI_NAMES, EPS_DOM, Nonlinearity, from_name

ALL_NAMES = tuple(CLI_NAMES)


def test_linear_f_constant():
    nl = from_name("linear", 1.0)
    for v in (-5.0, -1e-9, 0.0, 1e-9, 3.0):
        assert nl.f(v) == pytest.approx(1.0, abs=1e-15)


def test_rational_values():
    nl = from_name("rational", 2.5)
    assert nl.f(2.0) == pytest.approx(0.5, rel=1e-15)
    assert from_name("rational", 1.0).g(1.0) == pytest.approx(0.5, rel=1e-15)


def test_log1p_f_at_zero():
    assert from_name("log1p", 2.5).f(0.0) == pytest.approx(2.5, abs=1e-15)


def test_zero_nonlinearity():
    nl = from_name("zero", 2.5)
    v = np.linspace(-3, 3, 11)
    assert np.all(nl.f(v) == 0.0)
    assert np.all(nl.g(v) == 0.0)


def test_g_examples():
    assert from_name("linear", 2.5).g(1.0) == 2.5
    assert from_name("sineplus", 2.5).g(0.0) == 0.0


def test_g_vanishes_at_zero_everywhere():
    for name in ALL_NAMES:
        assert abs(float(from_name(name, 2.5).g(0.0))) <= 1e-14


def test_custom_rejects_nonvanishing_g():
    with pytest.raises(ValueError, match="g\\(0\\)"):
        Nonlinearity("shifted", 1.0, g=lambda v: v + 1.0, f=lambda v: 1.0 + 1.0 / v)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ratio_consistency(name):
    # v * f(v) = g(v) on a wide grid, relative 1e-12
    nl = from_name(name, 2.5)
    v = np.concatenate(
        [np.linspace(-10, 10, 4001), np.geomspace(1e-9, 1, 100), -np.geomspace(1e-9, 0.99, 100)]
    )
    v = v[np.abs(v) >= 1e-10]
    g = nl.g(v)
    lhs = v * nl.f(v)
    mask = np.abs(g) > 0
    assert np.all(np.abs(lhs[mask] - g[mask]) <= 1e-12 * np.abs(g[mask]))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gprime0_matches_central_difference(name):
    # f(0) = g'(0)
    nl = from_name(name, 2.5)
    h = 1e-6
    fd = float(nl.g(h) - nl.g(-h)) / (2 * h)
    assert float(nl.f(0.0)) == pytest.approx(fd, abs=1e-6)


def test_f_continuous_at_zero():
    for name in ALL_NAMES:
        nl = from_name(name, 2.5)
        f0 = float(nl.f(0.0))
        for v in (1e-9, -1e-9):
            assert abs(float(nl.f(v)) - f0) <= 1e-8


def test_f_bounded_by_lipschitz_constant():
    # |f| <= Lip(g); analytic constants per tag, with the log1p bound on
    # the tangent-extended domain (the raw 1 does not hold below zero
    # where |ln(1+v)/v| > 1)
    v = np.linspace(-10, 10, 100001)
    bounds = {
        "linear": 1.0,
        "rational": 1.0,
        "sineplus": 2.0,
        "log1p": 1.0 / EPS_DOM,
    }
    for name, c in bounds.items():
        nl = from_name(name, 2.5)
        fmax = float(np.max(np.abs(nl.f(v))))
        assert fmax <= 2.5 * c * (1 + 1e-12)


def test_log1p_positive_side_bound_is_one():
    nl = from_name("log1p", 2.5)
    v = np.geomspace(1e-8, 10, 10001)
    assert float(np.max(np.abs(nl.f(v)))) <= 2.5 * (1 + 1e-12)


def test_log1p_extension_is_c1_and_total():
    nl = from_name("log1p", 1.0)
    v_star = -1.0 + EPS_DOM
    h = 1e-9
    # value continuity at the junction: both branches give ln(eps) at v*
    assert float(nl.g(v_star)) == pytest.approx(math.log(EPS_DOM), rel=1e-12)
    # one-sided slopes match the tangent slope 1/eps
    slope_hi = (float(nl.g(v_star + h)) - float(nl.g(v_star))) / h
    slope_lo = (float(nl.g(v_star)) - float(nl.g(v_star - h))) / h
    assert slope_hi == pytest.approx(1.0 / EPS_DOM, rel=1e-2)
    assert slope_lo == pytest.approx(1.0 / EPS_DOM, rel=1e-2)
    # total and finite well below -1
    deep = nl.g(np.array([-1.0, -2.0, -50.0]))
    assert np.all(np.isfinite(deep))
    # agrees with ln(1+v) on the untouched branch
    assert float(nl.g(-0.5)) == pytest.approx(math.log(0.5), rel=1e-14)


def test_the_catalogue_is_built_only_through_from_name():
    # a builder took a NaN lambda and made g NaN everywhere; from_name checks it
    assert not {"linear", "rational", "sine_plus", "log1p", "zero"} & set(dir(spde_lab))
    with pytest.raises(ValueError, match="lambda must be finite, got nan"):
        from_name("rational", float("nan"))


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("lam", [float(np.finfo(np.float64).max), np.finfo(np.float64).max],
                         ids=["python-float", "numpy-scalar"])
def test_a_lambda_at_the_float_maximum_builds_without_a_warning(name, lam):
    # sineplus's f(0) = 2 lam overflows to inf, silently for either type of lam
    nl = from_name(name, lam)
    if name == "sineplus":
        assert nl.f(0.0) == np.inf


def test_from_name_rejects_unknown():
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        from_name("cubic", 1.0)


def test_nan_propagates():
    # the zero map is excluded: g = 0 sends every input to 0 by definition
    for name in CENSUS_G:
        nl = from_name(name, 2.5)
        assert math.isnan(float(nl.g(float("nan"))))


# -- every g and f is bitwise its textbook formula ----------------------------

# The oracle: each textbook formula evaluated on every entry (sin everywhere,
# both log1p branches everywhere, the ratio divided through a guard).


def textbook_g(name, lam):
    v_star = -1.0 + EPS_DOM

    def log1p_g(v):
        v = np.asarray(v, dtype=np.float64)
        branch = np.where(v > v_star, v, 0.0)
        tangent = np.log(EPS_DOM) + (1.0 / EPS_DOM) * (v - v_star)
        return lam * np.where(v > v_star, np.log1p(branch), tangent)

    return {
        "linear": lambda v: lam * v,
        "rational": lambda v: lam * v / (1.0 + v * v),
        "sineplus": lambda v: lam * (np.sin(v) + v),
        "log1p": log1p_g,
        "zero": lambda v: np.zeros_like(np.asarray(v, dtype=np.float64)),
    }[name]


def textbook_ratio(g, gprime0):
    def f(v):
        v = np.asarray(v, dtype=np.float64)
        small = np.abs(v) < 1e-12
        safe = np.where(small, 1.0, v)
        return np.where(small, gprime0, g(v) / safe)

    return f


def textbook_f(name, lam):
    if name == "linear":
        return lambda v: np.full_like(np.asarray(v, dtype=np.float64), lam)
    if name == "rational":
        return lambda v: lam / (1.0 + np.asarray(v, dtype=np.float64) ** 2)
    if name == "zero":
        return textbook_g("zero", lam)
    gprime0 = {"sineplus": 2.0 * lam, "log1p": lam}[name]
    return textbook_ratio(textbook_g(name, lam), gprime0)


# (label, function under test, its textbook formula) for lam = 2.5 and -1.5
PAIRS = [
    (f"{name}.{which}[{lam}]", getattr(from_name(name, lam), which),
     (textbook_g if which == "g" else textbook_f)(name, lam))
    for name in sorted(CLI_NAMES) for which in ("g", "f") for lam in (2.5, -1.5)
]


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# sin of this even v in (2^53, 2^54) is 1 - 3.8e-20, which rounds to 1.0, and
# v / 2 is odd: v + sin(v) is a tie and rounds up to v + 2, so a sine skip
# from 2^53 on would be wrong here
SINE_TIE = 9014820867183090.0

EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    + [s * x for s in (1.0, -1.0) for b in (1e-12, 2.0**53, 2.0**54, SINE_TIE)
       for x in _around(b)]
    + _around(-1.0 + EPS_DOM)
)


def same_bits_and_no_new_warning(new, old, v):
    """new(v) and old(v) agree bit for bit (NaN payloads included), new
    raises no RuntimeWarning that old does not, and v is not written."""
    v_before = np.array(v, copy=True)
    with warnings.catch_warnings(record=True) as old_warned:
        warnings.simplefilter("always")
        want = np.asarray(old(v))
    with warnings.catch_warnings(record=True) as new_warned:
        warnings.simplefilter("always")
        got = np.asarray(new(v))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (v, got, want)
    assert {str(w.message) for w in new_warned} <= {str(w.message) for w in old_warned}
    assert np.asarray(v).tobytes() == v_before.tobytes()


@pytest.mark.parametrize("label,new,old", PAIRS, ids=[p[0] for p in PAIRS])
def test_g_and_f_are_textbook_bits_on_edges(label, new, old):
    same_bits_and_no_new_warning(new, old, EDGES.copy())
    same_bits_and_no_new_warning(new, old, np.stack([EDGES, EDGES[::-1]]))
    for x in EDGES:
        same_bits_and_no_new_warning(new, old, np.float64(x))


def test_sine_skip_starts_at_2_to_54():
    assert 2.0**53 < SINE_TIE < 2.0**54
    assert from_name("sineplus", 1.0).g(SINE_TIE) == SINE_TIE + 2.0
    assert from_name("sineplus", 1.0).g(-SINE_TIE) == -SINE_TIE - 2.0  # sin is odd
    assert from_name("sineplus", 1.0).g(2.0**54) == 2.0**54


# floats of every class: hypothesis draws NaNs with various payloads and signs
ANY_FLOATS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(max_examples=150)
@given(v=ANY_FLOATS, mix=st.sampled_from((1.0, 2.0**54, 1e300, 1e-300)))
def test_g_and_f_are_textbook_bits_property(v, mix):
    # scaling by mix pushes part of each draw past the sine bound or deep
    # below v*, so the fast paths meet mixed fields, not only uniform ones
    with np.errstate(all="ignore"):
        v = np.where(np.arange(v.size).reshape(v.shape) % 3 == 0, v * mix, v)
    for label, new, old in PAIRS:
        same_bits_and_no_new_warning(new, old, v)
