"""Adaptive Gauss-Legendre quadrature.

The engine refines level by level: each round makes one integrand call on
the GL15 and GL7 nodes of every pending panel, and bisects each panel whose
embedded error estimate misses either tolerance.  Accepted panels are summed
left to right, the order a depth-first bisection gives, so results are
bit-reproducible for a given spec.  An exhausted max_subdivisions budget is
spent level by level, on the leftmost failing panels of each round, so an
unconverged value differs from the depth-first engine's.  An integrand may
also return m values per node, an array of shape (m, len(x)): the components
then share one panel tree, and a panel is accepted only when every
component meets its tolerance.

The engine has no singularity handling of its own: the square-root
endpoint singularities of the power densities, and the square-root decay
of the SINR density at its supremum, are removed by each caller, which
integrates in the theta domain of x = c*cos^2(theta), where the integrand
is bounded and smooth and plain Gauss-Legendre panels converge quickly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FINE_NODES, _FINE_WEIGHTS = np.polynomial.legendre.leggauss(15)
_COARSE_NODES, _COARSE_WEIGHTS = np.polynomial.legendre.leggauss(7)
# one round evaluates both rules' nodes of a panel in a single call
_NODES = np.concatenate([_FINE_NODES, _COARSE_NODES])
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


def _interleave(left, right):
    """[left[0], right[0], left[1], right[1], ...]: the two halves of each
    bisected panel, side by side."""
    out = np.empty(2 * left.size)
    out[0::2], out[1::2] = left, right
    return out


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

    width = b - a
    edges = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b])
    lo, hi = edges[:-1], edges[1:]
    leaves = []  # (lo, hi, value, error) of the panels each round accepted
    nsub = 0
    converged = True
    while True:
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        fx = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
        vector = fx.ndim == 2
        fx = fx.reshape(-1, lo.size, _NODES.size)  # (components, panels, nodes)
        fine = half * (fx[..., :_FINE_NODES.size] @ _FINE_WEIGHTS)
        coarse = half * (fx[..., _FINE_NODES.size:] @ _COARSE_WEIGHTS)
        err = np.maximum(np.abs(fine - coarse), _ROUNDOFF * np.abs(fine))
        tol = np.maximum(spec.abs_tol * (hi - lo) / width, spec.rel_tol * np.abs(fine))
        failing = np.flatnonzero(~(np.all(err <= tol, axis=0) | ((hi - lo) < 1e-15 * width)))
        split = failing[:spec.max_subdivisions - nsub]
        converged = converged and split.size == failing.size
        if not split.size:  # every panel accepted, or the budget is spent
            leaves.append((lo, hi, fine, err))
            break
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        leaves.append([x[..., keep] for x in (lo, hi, fine, err)])
        nsub += split.size
        mid = mid[split]
        lo, hi = _interleave(lo[split], mid), _interleave(mid, hi[split])

    leaf_lo, leaf_hi, vals, errs = (np.concatenate(x, axis=-1) for x in zip(*leaves))
    # (lo, hi) order is the depth-first leaf order: panels are disjoint, and a
    # zero-width one, left by bisecting below float resolution, sorts first.
    # The leaves are few, and Python's sort, unlike np.lexsort, adds nothing
    # to peak RSS.  cumsum adds one leaf at a time in that order (np.sum adds
    # pairwise, and rounds differently); + 0.0 turns a leading -0.0 into 0.0
    order = sorted(range(leaf_lo.size), key=lambda i: (leaf_lo[i], leaf_hi[i]))
    value, est_error = (np.cumsum(x[:, order], axis=1)[:, -1] + 0.0 for x in (vals, errs))
    if not vector:
        value, est_error = float(value[0]), float(est_error[0])
    return QuadratureResult(value=value, est_error=est_error,
                            subdivisions=nsub, converged=converged)
