"""Adaptive Gauss-Legendre quadrature.

The engine refines level by level: each round makes one integrand call on
the GL15 and GL7 nodes of every pending panel, and bisects each panel whose
embedded error estimate misses either tolerance; a round in which every
panel meets its tolerance ends the call.  The edges and estimates
of all panels, pending and accepted, are kept in left-to-right order; a
bisected panel is replaced in place by its halves, and the result is one
running sum over the estimates in the order a depth-first bisection gives,
bit-reproducible for a given spec.
An exhausted max_subdivisions budget is spent level by level, on the
leftmost failing panels of each round, so an unconverged value differs from
the depth-first engine's.  An integrand may also return m values per node,
an array of shape (m, len(x)): the components then share one panel tree,
and a panel is accepted only when every component meets its tolerance.

The engine has no singularity handling of its own: the square-root
endpoint singularities of the power densities, and the square-root decay
of the SINR density at its supremum, are removed by each caller, which
integrates in the theta domain of x = c*cos^2(theta), where the integrand
is bounded and smooth and plain Gauss-Legendre panels converge quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the 15- and 7-point Gauss-Legendre rules on [-1, 1], the bits of
# np.polynomial.legendre.leggauss(15) and (7) (the tests pin them), written
# out so that importing the engine does not load all of numpy.polynomial
_FINE_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854])
_FINE_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203])
_COARSE_NODES = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586])
_COARSE_WEIGHTS = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973])
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
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got [{a}, {b}]")
    if b < a:
        res = integrate(f, b, a, spec, breakpoints)
        return QuadratureResult(-res.value, res.est_error, res.subdivisions, res.converged)
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)

    # a float array: an integer one would truncate the midpoints written into it
    edges = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b], dtype=float)
    width = edges[-1] - edges[0]
    todo = np.arange(edges.size - 1)  # positions of the pending panels
    est = None  # (value, error) x components x panels, in position order
    nsub, converged = 0, True
    while True:
        lo, hi = edges[todo], edges[todo + 1]
        span = hi - lo
        half, mid = 0.5 * span, 0.5 * (lo + hi)
        fx = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
        vector = fx.ndim == 2
        fx = fx.reshape(-1, todo.size, _NODES.size)  # (components, panels, nodes)
        fine = half * (fx[..., :_FINE_NODES.size] @ _FINE_WEIGHTS)
        coarse = half * (fx[..., _FINE_NODES.size:] @ _COARSE_WEIGHTS)
        mag = np.abs(fine)
        # a panel infinite on every node gives inf - inf: a NaN estimate,
        # which the finiteness test below handles, so it need not warn
        with np.errstate(invalid="ignore"):
            err = np.maximum(np.abs(fine - coarse), _ROUNDOFF * mag)
        tol = np.maximum(spec.abs_tol * span / width, spec.rel_tol * mag)
        if est is None:  # the first round evaluates every panel
            est = np.array((fine, err))
        else:
            est[:, :, todo] = fine, err
        finite = np.isfinite(err)
        meets = (err <= tol) & finite
        if meets.all():  # every panel accepted: how a smooth integral ends
            break
        # a non-finite estimate stays as it is: bisecting it would spend the
        # whole budget on halves that are just as non-finite
        finite = np.logical_and.reduce(finite, axis=0)
        accept = np.logical_and.reduce(meets, axis=0) | (span < 1e-15 * width)
        failing = (~accept & finite).nonzero()[0]
        split = failing[:spec.max_subdivisions - nsub]
        converged = converged and split.size == failing.size and bool(finite.all())
        if not split.size:  # every panel accepted, or the budget is spent
            break
        nsub += split.size
        # bisect in place: repeat each split panel's left edge and (value,
        # error) slot; the repeated edge becomes the midpoint
        at = todo[split]
        rep = np.sort(np.concatenate((np.arange(edges.size), at)))
        edges, est = edges[rep], est[..., rep[:-1]]
        todo = (at + np.arange(at.size)).repeat(2)  # each left half, then its right
        todo[1::2] += 1
        edges[todo[1::2]] = mid[split]

    # position order is the depth-first leaf order, and cumsum adds one panel
    # at a time in it (np.sum adds pairwise); + 0.0 turns -0.0 into 0.0
    value, est_error = est.cumsum(axis=-1)[..., -1] + 0.0
    if not vector:
        value, est_error = float(value[0]), float(est_error[0])
    return QuadratureResult(value=value, est_error=est_error,
                            subdivisions=nsub, converged=converged)
