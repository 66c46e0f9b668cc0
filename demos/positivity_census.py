#!/usr/bin/env python3
"""Positivity census, 1d and 2d.

Reproduces the headline experiment: evolve the stochastic heat equation
du = Laplace(u) dt + g(u) dbeta on (0,1)^d from u0 = sin(pi x) (times
sin(pi x2) in 2d) with four choices of g at noise intensity 2.5, and count
how many of 100 sample paths keep every grid value nonnegative at every
step. The Lie-Trotter splitting integrator (LT) preserves positivity by
construction; Euler-Maruyama (EM), semi-implicit Euler-Maruyama (SEM) and
the stochastic exponential Euler scheme (SEXP) do not.

All four integrators see the same Brownian increments per sample, so the
comparison is coupling-noise free. Takes a few seconds.
"""

from spde_lab.experiments import CensusConfig, positivity_census

G_LABELS = {
    "linear": "2.5 v",
    "rational": "2.5 v/(1+v^2)",
    "sineplus": "2.5 (sin(v)+v)",
    "log1p": "2.5 ln(1+v)",
}


def run(dim: int) -> None:
    print(f"\n--- positivity census, d={dim} "
          f"(tau=2^-5, {'h=2^-8' if dim == 1 else 'h=2^-4 per axis'}, 100 samples)")
    print(f"{'g(v)':<16} {'LT':>8} {'EM':>8} {'SEM':>8} {'SEXP':>8}")
    make = CensusConfig if dim == 1 else CensusConfig.default_2d
    counts = positivity_census(make(g_names=tuple(G_LABELS)), jobs=2).positive_counts()
    for g in G_LABELS:
        row = [counts[(k, g)] for k in ("lt", "em", "sem", "sexp")]
        print(f"{G_LABELS[g]:<16}" + "".join(f" {c:>4}/100" for c in row))


if __name__ == "__main__":
    run(1)
    run(2)
    print("\nLT keeps every path nonnegative for any step size; the classical")
    print("integrators produce negative values (EM additionally explodes at")
    print("this step size, since tau * N^2 far exceeds its stability limit).")
