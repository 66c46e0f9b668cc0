"""Diffusion coefficients g with g(0) = 0 and their ratio function f.

f(v) = g(v)/v for v != 0 and f(0) = g'(0); f is continuous and bounded by
the Lipschitz constant of g, which is what makes the splitting scheme's
exponential update well behaved for any step size.

Catalogue (lam scales the noise): linear lam*v, rational lam*v/(1+v^2),
sineplus lam*(sin(v)+v), log1p lam*ln(1+v), zero.

Each g and f returns, bit for bit, its textbook formula evaluated on every
entry (±0, subnormals, ±inf and NaN included), but skips the costly work
that cannot change an entry:

* sineplus skips sin where |v| >= 2^54 and v is finite. There the ulp of v
  is at least 4 above and 2 below |v|, so adding |sin v| <= 1 moves v by at
  most half an ulp, and the only possible tie (v = ±2^54, sin v = ∓1)
  rounds to v, which is even. Below 2^54 a sine that rounds to ±1 can tie
  with an odd v and round away (v = 9014820867183090 gives v + 2), so the
  bound cannot be lower. The comparators' fields grow this large before
  they overflow, and sin of a huge argument is costly.
* log1p skips the tangent line when every entry lies above v* = -1 +
  EPS_DOM, as in every nonnegative field. A field with an entry at or below
  v* takes both branches in full: on the comparators' mixed-sign census
  fields that ran faster than gathering the entries of either branch.
* f = g/v divides only where |v| >= 1e-12 and puts g'(0) only below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# ln(1+v) is extended below v* = -1 + EPS_DOM by its tangent line at v*,
# keeping g defined, C^1 and Lipschitz on all of R. Iterates of the
# non-positivity-preserving comparators can land there; such paths already
# contain negative values, so the extension never affects a positivity
# census classification, it only keeps the run total.
EPS_DOM = 1e-6

# Below this |v| the ratio g(v)/v is replaced by g'(0) (continuity at 0).
_NEAR_ZERO = 1e-12

# From this |v| on, a finite v + sin(v) rounds to v (see the module docstring).
_SINE_ABSORBED = 2.0**54


@dataclass(frozen=True)
class Nonlinearity:
    """A diffusion coefficient g and f = g/v, with f(0) = g'(0); the name is
    its CLI_NAMES spelling. Name and lam are its equality key."""

    name: str
    lam: float
    g: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    f: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    def __post_init__(self):
        g0 = float(self.g(np.float64(0.0)))
        if abs(g0) > 1e-14:
            raise ValueError(f"g(0) must vanish, got {g0!r}")


def _ratio_with_limit(g: Callable, gprime0: float) -> Callable:
    def f(v):
        v = np.asarray(v, dtype=np.float64)
        gv = g(v)
        a = np.abs(v)
        if a.min(initial=np.inf) >= _NEAR_ZERO:
            return gv / v
        out = np.full(np.broadcast(gv, v).shape, gprime0, dtype=np.float64)
        return np.divide(gv, v, out=out, where=~(a < _NEAR_ZERO))  # NaN entries divide

    return f


def linear(lam: float) -> Nonlinearity:
    return Nonlinearity(
        "linear",
        lam,
        g=lambda v: lam * v,
        f=lambda v: np.full_like(np.asarray(v, dtype=np.float64), lam),
    )


def rational(lam: float) -> Nonlinearity:
    # f has the closed form lam / (1 + v^2).
    return Nonlinearity(
        "rational",
        lam,
        g=lambda v: lam * v / (1.0 + v * v),
        f=lambda v: lam / (1.0 + np.asarray(v, dtype=np.float64) ** 2),
    )


def sine_plus(lam: float) -> Nonlinearity:
    def g(v):
        v = np.asarray(v, dtype=np.float64)
        a = np.abs(v)
        if not a.max(initial=0.0) >= _SINE_ABSORBED:  # a NaN max lands here too
            return lam * (np.sin(v) + v)
        # v + sin(v) == v on the finite entries at or above the bound
        live = np.flatnonzero(~((a >= _SINE_ABSORBED) & (a < np.inf)))
        out = v.copy()
        x = np.take(v, live)
        np.put(out, live, np.sin(x) + x)
        return lam * out

    return Nonlinearity("sineplus", lam, g=g, f=_ratio_with_limit(g, 2.0 * lam))


def log1p(lam: float) -> Nonlinearity:
    v_star = -1.0 + EPS_DOM
    g_star = np.log(EPS_DOM)
    slope = 1.0 / EPS_DOM

    def g(v):
        v = np.asarray(v, dtype=np.float64)
        above = v > v_star  # NaN takes the tangent
        if above.all():  # every nonnegative field, so every LT field
            return lam * np.log1p(v)
        branch = np.where(above, v, 0.0)  # keep log1p off invalid inputs
        return lam * np.where(above, np.log1p(branch), g_star + slope * (v - v_star))

    return Nonlinearity("log1p", lam, g=g, f=_ratio_with_limit(g, lam))


def zero() -> Nonlinearity:
    def zeros(v):
        return np.zeros_like(np.asarray(v, dtype=np.float64))

    return Nonlinearity("zero", 0.0, g=zeros, f=zeros)


#: CLI spellings of the catalogue, each with its builder taking lam.
CLI_NAMES: dict[str, Callable[[float], Nonlinearity]] = {
    "linear": linear,
    "rational": rational,
    "sineplus": sine_plus,
    "log1p": log1p,
    "zero": lambda lam: zero(),
}


def from_name(name: str, lam: float) -> Nonlinearity:
    """Build a catalogue entry from its CLI spelling, matched exactly; lam
    must be finite."""
    try:
        build = CLI_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown nonlinearity {name!r}; choose from {sorted(CLI_NAMES)}"
        ) from None
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    return build(lam)
