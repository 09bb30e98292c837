"""Adaptive Gauss-Legendre quadrature.

The engine bisects panels depth-first (left half first) until the embedded
error estimate meets both tolerances or the subdivision budget runs out, so
results are bit-reproducible for a given spec.  Integrands are called on
node arrays.  An integrand may also return m values per node, an array of
shape (m, len(x)): the components then share one panel tree, and a panel is
accepted only when every component meets its tolerance.

The engine has no singularity handling of its own: the square-root
endpoint singularities of the power densities are removed by each caller,
which integrates in the theta domain of x = c*cos^2(theta), where the
integrand is bounded and plain Gauss-Legendre panels converge quickly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FINE_NODES, _FINE_WEIGHTS = np.polynomial.legendre.leggauss(15)
_COARSE_NODES, _COARSE_WEIGHTS = np.polynomial.legendre.leggauss(7)
# relative roundoff floor of a panel's error estimate (QUADPACK qk15 uses
# the same 50*eps): where both rules are exact -- any polynomial of degree
# <= 13 -- they agree bit for bit, and an estimate of exactly 0 would meet
# any tolerance and hide an exhausted subdivision budget
_ROUNDOFF = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class QuadratureResult:
    """value and est_error are (m,) arrays for an integrand of m components."""

    value: float
    est_error: float
    subdivisions: int
    converged: bool


def _rule(weights, fx):
    """Weighted node sum: a float for a scalar integrand, an (m,) array
    for a vector one (the rule applied along the node axis)."""
    fx = np.asarray(fx)
    if fx.ndim == 1:
        return float(np.dot(weights, fx))
    return fx @ weights


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fine = half * _rule(_FINE_WEIGHTS, f(mid + half * _FINE_NODES))
    coarse = half * _rule(_COARSE_WEIGHTS, f(mid + half * _COARSE_NODES))
    if isinstance(fine, float):
        return fine, max(abs(fine - coarse), _ROUNDOFF * abs(fine))
    return fine, np.maximum(np.abs(fine - coarse), _ROUNDOFF * np.abs(fine))


def _meets(val, err, abs_tol: float, rel_tol: float) -> bool:
    """Whether a panel's error estimate meets the tolerance of every component."""
    if isinstance(val, float):
        return err <= max(abs_tol, rel_tol * abs(val))
    return bool(np.all(err <= np.maximum(abs_tol, rel_tol * np.abs(val))))


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC,
              breakpoints=()) -> QuadratureResult:
    """Integrate f over [a, b].

    f(x) returns len(x) values, or an (m, len(x)) array for m integrands
    at once; value and est_error are then (m,) arrays, and converged is
    False if any component missed its tolerance.

    breakpoints seeds the initial panelization with interior points; pass
    points bracketing any region whose features are much narrower than the
    interval (adaptive refinement alone cannot find structure it never
    samples, and a feature hugging a panel edge can sit between nodes).
    """
    if b < a:
        res = integrate(f, b, a, spec, breakpoints)
        return QuadratureResult(-res.value, res.est_error, res.subdivisions, res.converged)
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)

    total = 0.0
    err_total = 0.0
    nsub = 0
    converged = True
    width = b - a
    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    stack = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)][::-1]
    while stack:
        x, y = stack.pop()
        val, err = _panel(f, x, y)
        if _meets(val, err, spec.abs_tol * (y - x) / width, spec.rel_tol) \
                or (y - x) < 1e-15 * width:
            total += val
            err_total += err
        elif nsub >= spec.max_subdivisions:
            total += val
            err_total += err
            converged = False
        else:
            nsub += 1
            mid = 0.5 * (x + y)
            stack.append((mid, y))
            stack.append((x, mid))
    return QuadratureResult(value=total, est_error=err_total,
                            subdivisions=nsub, converged=converged)
