"""Diffusion coefficients g with g(0) = 0 and their ratio function f.

f(v) = g(v)/v for v != 0 and f(0) = g'(0); f is continuous and bounded by
the Lipschitz constant of g, which is what makes the splitting scheme's
exponential update well behaved for any step size.

Catalogue (lam scales the noise): linear lam*v, rational lam*v/(1+v^2),
sineplus lam*(sin(v)+v), log1p lam*ln(1+v), zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np


class NonlinearityKind(Enum):
    LINEAR = "linear"
    RATIONAL = "rational"
    SINE_PLUS = "sineplus"
    LOG1P = "log1p"
    ZERO = "zero"
    CUSTOM = "custom"


# ln(1+v) is extended below v* = -1 + EPS_DOM by its tangent line at v*,
# keeping g defined, C^1 and Lipschitz on all of R. Iterates of the
# non-positivity-preserving comparators can land there; such paths already
# contain negative values, so the extension never affects a positivity
# census classification, it only keeps the run total.
EPS_DOM = 1e-6

# Below this |v| the ratio g(v)/v is replaced by g'(0) (continuity at 0).
_NEAR_ZERO = 1e-12


@dataclass(frozen=True)
class Nonlinearity:
    """A diffusion coefficient g, its derivative at 0, and f = g/v."""

    kind: NonlinearityKind
    lam: float
    g: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    f: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    gprime0: float = 0.0
    lipschitz_bound: float = 0.0

    def __post_init__(self):
        g0 = float(self.g(np.float64(0.0)))
        if abs(g0) > 1e-14:
            raise ValueError(f"g(0) must vanish, got {g0!r}")


def eval_g(nl: Nonlinearity, v) -> np.ndarray:
    """g(v), vectorized."""
    return nl.g(np.asarray(v, dtype=np.float64))


def eval_f(nl: Nonlinearity, v) -> np.ndarray:
    """f(v) = g(v)/v for v != 0, g'(0) at v = 0, vectorized."""
    return nl.f(np.asarray(v, dtype=np.float64))


def _ratio_with_limit(g: Callable, gprime0: float) -> Callable:
    def f(v):
        v = np.asarray(v, dtype=np.float64)
        small = np.abs(v) < _NEAR_ZERO
        safe = np.where(small, 1.0, v)
        return np.where(small, gprime0, g(v) / safe)

    return f


def linear(lam: float) -> Nonlinearity:
    return Nonlinearity(
        NonlinearityKind.LINEAR,
        lam,
        g=lambda v: lam * v,
        f=lambda v: np.full_like(np.asarray(v, dtype=np.float64), lam),
        gprime0=lam,
        lipschitz_bound=abs(lam),
    )


def rational(lam: float) -> Nonlinearity:
    # f has the closed form lam / (1 + v^2).
    return Nonlinearity(
        NonlinearityKind.RATIONAL,
        lam,
        g=lambda v: lam * v / (1.0 + v * v),
        f=lambda v: lam / (1.0 + np.asarray(v, dtype=np.float64) ** 2),
        gprime0=lam,
        lipschitz_bound=abs(lam),
    )


def sine_plus(lam: float) -> Nonlinearity:
    def g(v):
        return lam * (np.sin(v) + v)

    return Nonlinearity(
        NonlinearityKind.SINE_PLUS,
        lam,
        g=g,
        f=_ratio_with_limit(g, 2.0 * lam),
        gprime0=2.0 * lam,
        lipschitz_bound=2.0 * abs(lam),
    )


def log1p(lam: float) -> Nonlinearity:
    v_star = -1.0 + EPS_DOM
    g_star = np.log(EPS_DOM)
    slope = 1.0 / EPS_DOM

    def g(v):
        v = np.asarray(v, dtype=np.float64)
        branch = np.where(v > v_star, v, 0.0)  # keep log1p off invalid inputs
        return lam * np.where(
            v > v_star, np.log1p(branch), g_star + slope * (v - v_star)
        )

    return Nonlinearity(
        NonlinearityKind.LOG1P,
        lam,
        g=g,
        f=_ratio_with_limit(g, lam),
        gprime0=lam,
        # sup |g'| on the extended domain is attained at v*.
        lipschitz_bound=abs(lam) / EPS_DOM,
    )


def zero() -> Nonlinearity:
    def zeros(v):
        return np.zeros_like(np.asarray(v, dtype=np.float64))

    return Nonlinearity(
        NonlinearityKind.ZERO, 0.0, g=zeros, f=zeros, gprime0=0.0, lipschitz_bound=0.0
    )


def custom(
    g: Callable,
    gprime0: float,
    lipschitz_bound: float,
    lam: float = 1.0,
) -> Nonlinearity:
    """Wrap a user coefficient; g must be vectorized and satisfy g(0) = 0."""
    return Nonlinearity(
        NonlinearityKind.CUSTOM,
        lam,
        g=g,
        f=_ratio_with_limit(g, gprime0),
        gprime0=gprime0,
        lipschitz_bound=lipschitz_bound,
    )


#: CLI spellings of the catalogue, each with its builder taking lam.
CLI_NAMES: dict[str, Callable[[float], Nonlinearity]] = {
    "linear": linear,
    "rational": rational,
    "sineplus": sine_plus,
    "log1p": log1p,
    "zero": lambda lam: zero(),
}


def from_name(name: str, lam: float) -> Nonlinearity:
    """Build a catalogue entry from its CLI spelling; lam must be finite."""
    try:
        build = CLI_NAMES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown nonlinearity {name!r}; choose from {sorted(CLI_NAMES)}"
        ) from None
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    return build(lam)
