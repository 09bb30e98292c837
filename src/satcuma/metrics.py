"""System-level performance metrics: outage probability, ergodic rate and
mean SINR/SNR, built on the adaptive quadrature engine (the mean SNR is a
closed form) and on the SINR law of distributions.sinr_law.

Outage comes in two flavours.  The exact form integrates the signal-power
density against the Gaussian interference CDF (a single smooth integral
after the endpoint substitution); the compact form is the closed-form
high-density limit.  Both are clamped to [0, 1]: the truncated-Gaussian
normalization ignores the noise-floor shift of the support, which pushes
the raw value above one from a root y_c below the SINR supremum on (the
clamp is recorded in the result warnings).  The exact ergodic rate keeps
this clamped law: its survival is zero beyond y_c, so it is found first,
and the rate is a smooth double integral up to it plus a boundary term
that makes an error in y_c second order (_rate_exact_nats).  A law cut at
the noise floor, whose outage reaches one only at the supremum, would
need neither the root nor the boundary term.

Noise-only scenarios (U = 1) bypass the Gaussian machinery entirely: the
SINR is then a deterministic rescaling of the signal power and every metric
reduces to a signal-distribution integral or closed form.

Each law checks port density mu >= 2 where it is defined (signal_support,
sinr_law, sinr_supremum, mean_signal_power_closed), so the metrics make no
domain decision, and the compact forms refuse mu < 2 as the exact ones do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .core import cuma_signal_gain
from .distributions import sinr_supremum
from .quadrature import QuadratureSpec, integrate
from .scenario import Scenario

WARN_CLAMPED = "clamped"
WARN_QUAD_LIMIT = "quadrature-limit"

METRIC_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=2000)

# the exact rate's inner Gaussian integral runs over s in [-_S_MAX, _S_MAX]
# at most: exp(-s^2/2) underflows to zero long before either end
_S_MAX = 40.0
# seeds of each inner panel tree, in s: they bracket the Gaussian window
_S_SEEDS = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)
# outer theta nodes (three panels' worth) per inner panel tree of the exact
# rate: bounds its (theta, t) arrays when the outer integral passes every
# node of a round at once
_THETA_CHUNK = 66
# Newton steps of _outage_root, safeguarded by bisection of the bracket
_ROOT_STEPS = 100
# thresholds per row chunk of _outage's integrand: bounds its temporaries
# for a long threshold grid such as validate's 3000-point SINR curve
_GAMMA_CHUNK = 256


@dataclass(frozen=True)
class MetricResult:
    value: float
    est_error: float
    warnings: tuple = ()

    def __post_init__(self):
        if self.est_error < 0:
            raise ValueError("est_error must be non-negative")


def mean_signal_power_closed(sc: Scenario) -> float:
    """Closed-form mean of the signal power,
    (zeta/(2 V^2)) * (1 + mu*sin(2*pi/mu)/(2*pi))."""
    dist.require_analytic_density(sc.mu)
    mu = sc.mu
    return (sc.zeta_u / (2.0 * sc.V ** 2)) * (1.0 + mu * math.sin(2.0 * math.pi / mu) / (2.0 * math.pi))


def _flag_quad(warnings: tuple, converged: bool) -> tuple:
    """warnings, plus the quadrature-limit flag when an integral did not converge."""
    return warnings if converged else warnings + (WARN_QUAD_LIMIT,)


def _clamp01(value: float, warnings: tuple) -> tuple:
    if value < 0.0 or value > 1.0:
        return min(max(value, 0.0), 1.0), warnings + (WARN_CLAMPED,)
    return value, warnings


def _z_breakpoints(sc: Scenario) -> tuple:
    """Seed points for integrals over the SINR axis.

    The SINR density concentrates where the interference-plus-noise variable
    sits within a few kappa of its mean, plus the band induced by the signal
    support; both can be a tiny fraction of (0, supremum], so adaptive
    refinement needs them in the initial panelization.
    """
    z_sup = sinr_supremum(sc)
    pts = [z_sup * math.cos(math.pi / sc.mu) ** 2]
    if sc.users.U > 1:
        law = dist.sinr_law(sc)
        for j in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            if law.omega + j * law.kappa > 0.0:  # x = j at a positive interference
                pts.append(law.alpha(0.0) / law.alpha_at(j, 1.0))
    return tuple(p for p in pts if 0.0 < p < z_sup)


def _outage(gammas, sc: Scenario, spec: QuadratureSpec = METRIC_SPEC):
    """Unclamped outage P(SINR < gamma) for a vector of thresholds.

    Evaluated in the theta domain of the endpoint substitution
    alpha = (zeta/V^2) cos^2(theta), where the signal density becomes the
    constant mu/pi and the integrand is bounded and smooth.  One adaptive
    integral serves every threshold: all share one panel tree, refined until
    each meets the tolerance.  The integrand fills its (thresholds, nodes)
    output _GAMMA_CHUNK thresholds at a time, so the normal CDF's
    temporaries hold one chunk of rows; a single threshold is one chunk.
    Returns (values, est_errors, converged).
    """
    gammas = np.asarray(gammas, dtype=float)
    if sc.users.U == 1:
        vals = np.asarray(dist.signal_cdf(gammas * sc.noise_term, sc.zeta_u, sc.mu, sc.V))
        return vals, np.zeros_like(vals), True

    law = dist.sinr_law(sc)

    def integrand(theta):
        alpha = law.alpha(theta)
        out = np.empty((gammas.size, theta.size))
        for c in range(0, gammas.size, _GAMMA_CHUNK):
            g = gammas[c:c + _GAMMA_CHUNK, None]
            out[c:c + _GAMMA_CHUNK] = dist.std_normal_cdf(law.x(alpha, g))
        return out

    res = integrate(integrand, 0.0, math.pi / law.mu, spec)
    scale = law.mu / (math.pi * law.tm)
    return 1.0 / law.tm - scale * res.value, scale * res.est_error, res.converged


def outage_exact(gamma: float, sc: Scenario,
                 spec: QuadratureSpec = METRIC_SPEC) -> MetricResult:
    """Outage probability P(SINR < gamma) from the single-integral form."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    vals, errs, converged = _outage([gamma], sc, spec)
    val, warnings = _clamp01(float(vals[0]), _flag_quad(sc.warnings, converged))
    return MetricResult(value=val, est_error=float(errs[0]), warnings=warnings)


def outage_exact_curve(gammas, sc: Scenario) -> np.ndarray:
    """Outage on a threshold grid, clamped to [0, 1]: the values of
    outage_exact, from one integral for the whole grid."""
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas <= 0):
        raise ValueError("thresholds must be positive")
    return np.clip(_outage(gammas, sc)[0], 0.0, 1.0)


def outage_compact(gamma: float, sc: Scenario) -> MetricResult:
    """Closed-form outage for the compact (high-density) regime."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    val, warnings = _clamp01(float(dist.sinr_cdf_compact_raw(gamma, sc)), sc.warnings)
    return MetricResult(value=val, est_error=0.0, warnings=warnings)


def ergodic_rate(sc: Scenario, outage: str = "exact",
                 spec: QuadratureSpec = METRIC_SPEC) -> MetricResult:
    """Network ergodic rate (U*B/ln 2) * E[ln(1 + SINR)].

    With interferers this is the paper's integral of (1 - outage(y))/(1+y)
    over the clamped outage.  The exact form integrates by parts up to the
    root y_c where the unclamped outage reaches one, beyond which the
    integrand is zero: one smooth double integral over theta and the
    standardised interference, plus the boundary term
    ln(1 + y_c)(1 - F(y_c)), which leaves only an O(delta^2) error for a
    y_c off by delta (_rate_exact_nats).  The compact form integrates its
    closed-form outage over y up to the supremum, where it reaches one.

    Noise-only scenarios (U = 1) have no outage model to choose: the rate
    is (B/ln 2) * (mu/pi) * integral over [0, pi/mu] of
    ln(1 + zeta cos^2(theta)/(V^2 n)), since the signal power is
    (zeta/V^2) cos^2(theta) with theta uniform on [0, pi/mu].
    """
    if outage not in ("exact", "compact"):
        raise ValueError(f"outage must be 'exact' or 'compact', got {outage!r}")
    U, B = sc.users.U, sc.budget.B
    scale = U * B / math.log(2.0)
    if U == 1:
        snr_peak = sinr_supremum(sc)
        mu = sc.mu

        def integrand(theta):
            return np.log1p(snr_peak * np.cos(theta) ** 2)

        res = integrate(integrand, 0.0, math.pi / mu, spec)
        value, est_error, converged = res.value, res.est_error, res.converged
        scale = B * mu / (math.pi * math.log(2.0))
    elif outage == "exact":
        value, est_error, converged = _rate_exact_nats(sc, spec)
    else:
        def integrand(y):
            return (1.0 - np.asarray(dist.sinr_cdf_compact(y, sc))) / (1.0 + y)

        res = integrate(integrand, 0.0, sinr_supremum(sc), spec,
                        breakpoints=_z_breakpoints(sc))
        value, est_error, converged = res.value, res.est_error, res.converged
    return MetricResult(value=scale * value, est_error=scale * est_error,
                        warnings=_flag_quad(sc.warnings, converged))


def _theta_breakpoints(y: float, sc: Scenario) -> list:
    """Seed points in theta for an integrand of x = (alpha(theta)/y - m)/kappa
    at one threshold y: the theta where x = -8 and x = 8.  Where the noise
    term dwarfs kappa, the Gaussian window of x is a sliver of [0, pi/mu]
    that panels seeded without them may never sample."""
    law = dist.sinr_law(sc)
    pts = []
    for j in (-8.0, 8.0):
        c2 = law.alpha_at(j, y) / law.alpha(0.0)  # cos^2(theta) at x = j
        if 0.0 < c2 < 1.0:
            pts.append(math.acos(math.sqrt(c2)))
    return pts


def _outage_slope(y: float, sc: Scenario, spec: QuadratureSpec):
    """The unclamped outage F(y) of _outage and its slope F'(y) at one
    threshold, from one integral.  With x = (alpha(theta)/y - m)/kappa,
    F' = (mu/(pi*tm)) * integral of phi(x) * alpha/(kappa*y^2) over theta.
    Returns (F, F', est_error of F, converged)."""
    law = dist.sinr_law(sc)

    # a threshold y past the float range gives inf and NaN values, which
    # _outage_root reports as a NaN root; they need no warning
    def integrand(theta):
        alpha = law.alpha(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            x = law.x(alpha, y)
            return np.array((dist.std_normal_cdf(x), np.exp(-0.5 * x * x) * alpha))

    res = integrate(integrand, 0.0, math.pi / law.mu, spec,
                    breakpoints=_theta_breakpoints(y, sc))
    scale = law.mu / (math.pi * law.tm)
    f, slope = 1.0 / law.tm - scale * res.value[0], scale * res.value[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = float(slope) / (math.sqrt(2.0 * math.pi) * law.kappa * y * y)
    return float(f), slope, float(scale * res.est_error[0]), res.converged


def _outage_root(sc: Scenario, spec: QuadratureSpec):
    """The threshold y_c in (0, supremum] where the unclamped outage F
    reaches one; the clamped survival 1 - min(F, 1) is zero beyond it.

    One vector call of _outage on the SINR breakpoints and the supremum
    (where F >= 1) brackets the root.  Newton steps, each one _outage_slope
    call and bisecting the bracket when a step would leave it, refine it
    until the second-order error that the remaining step leaves in the
    rate, (1 - F)^2 / (2 F' (1 + y)), is below a thousandth of the absolute
    tolerance and of the relative one times ln(1 + y), which bounds the
    rate.  Returns (y, F(y), that error plus ln(1 + y) times the error of
    F(y), converged); y is NaN when F or F' leaves the float range.
    """
    pts = np.sort(np.array(_z_breakpoints(sc) + (sinr_supremum(sc),)))
    vals, _, converged = _outage(pts, sc, spec)
    k = int(np.argmax(vals >= 1.0)) if vals[-1] >= 1.0 else pts.size - 1
    lo, f_lo = (pts[k - 1], vals[k - 1]) if k else (0.0, 0.0)
    hi, f_hi = pts[k], vals[k]
    # start where the chord of the bracket crosses one
    y = lo + (hi - lo) * (1.0 - f_lo) / (f_hi - f_lo) if f_hi > f_lo else 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        f, slope, f_err, ok = _outage_slope(y, sc, spec)
        converged = converged and ok
        if not (math.isfinite(f) and math.isfinite(slope)):  # out of float range
            return math.nan, math.nan, math.nan, False
        tail = (1.0 - f) ** 2 / (2.0 * slope * (1.0 + y)) if slope > 0.0 else math.inf
        if tail <= 1e-3 * min(spec.abs_tol, spec.rel_tol * math.log1p(y)):
            break
        if f < 1.0:
            lo = y
        else:
            hi = y
        step = (1.0 - f) / slope if slope > 0.0 else math.inf
        y = y + step if lo < y + step < hi else 0.5 * (lo + hi)
    else:
        converged = False
    return y, f, tail + math.log1p(y) * f_err, converged


def _rate_exact_nats(sc: Scenario, spec: QuadratureSpec):
    """E[ln(1 + SINR)] under the clamped exact outage, for U > 1.

    The paper's form is the integral of (1 - min(F, 1))/(1 + y) over
    y > 0, with F the unclamped outage of _outage.  Up to the root y_c of
    F = 1 (_outage_root) the clamp does nothing, and beyond it the
    integrand is zero.  Integrating by parts on [0, y_c],

        integral = ln(1 + y_c) (1 - F(y_c)) + integral of ln(1 + y) F'(y),

    and F' is an integral over theta of the Gaussian density at
    x = (alpha(theta)/y - m)/kappa.  Swapping the two integrals and
    substituting s = x turns the second term into

        (mu/(pi tm sqrt(2 pi))) * integral over theta in [0, pi/mu] of
        integral over s in [x_c(theta), _S_MAX] of
        ln(1 + alpha(theta)/(m + kappa s)) exp(-s^2/2),

    with x_c(theta) = (alpha(theta)/y_c - m)/kappa, raised to -_S_MAX
    where it lies below.  Both integrands are smooth, and no CDF is
    evaluated inside.  The identity holds for any upper limit, so the
    boundary term makes the result exact for the computed y_c: a y_c off
    by delta only adds the integral of the survival between the two,
    O(delta^2), as the survival vanishes linearly at the root.

    The inner integrals of one outer round share one panel tree on t in
    [0, 1], s = x_c + t*(_S_MAX - x_c), _THETA_CHUNK outer nodes at a
    time, seeded at _S_SEEDS for the chunk's mean x_c; the outer integral
    is seeded where x_c = -8 and 8 (_theta_breakpoints).  Returns (value,
    est_error, converged): the error sums the outer rule's estimate, the
    largest inner estimate times the outer interval (which bounds the inner
    errors weighted by the outer rule) and the root term of _outage_root.
    """
    law = dist.sinr_law(sc)
    mu = law.mu
    y_c, f_c, root_err, converged = _outage_root(sc, spec)
    inner_err, inner_converged = 0.0, True

    def outer(theta):
        nonlocal inner_err, inner_converged
        alpha = law.alpha(theta)
        x_c = np.maximum(law.x(alpha, y_c), -_S_MAX)
        width = np.maximum(_S_MAX - x_c, 0.0)
        out = np.empty(theta.size)
        for c in range(0, theta.size, _THETA_CHUNK):
            a, s0, w = (v[c:c + _THETA_CHUNK, None] for v in (alpha, x_c, width))

            def inner(t):
                s = s0 + w * t
                return w * np.exp(-0.5 * s * s) * np.log1p(a / (law.m + law.kappa * s))

            # the window moves with theta: seed it for the chunk's mean x_c
            s_mid = float(s0.mean())
            seeds = [(v - s_mid) / (_S_MAX - s_mid) for v in _S_SEEDS] if s_mid < _S_MAX else ()
            res = integrate(inner, 0.0, 1.0, spec, breakpoints=seeds)
            out[c:c + _THETA_CHUNK] = res.value
            inner_err = max(inner_err, float(res.est_error.max()))
            inner_converged = inner_converged and res.converged
        return out

    res = integrate(outer, 0.0, math.pi / mu, spec,
                    breakpoints=_theta_breakpoints(y_c, sc))
    scale = mu / (math.pi * law.tm * math.sqrt(2.0 * math.pi))
    value = scale * res.value + math.log1p(y_c) * (1.0 - f_c)
    est_error = scale * (res.est_error + inner_err * math.pi / mu) + root_err
    return value, est_error, converged and res.converged and inner_converged


def mean_sinr(sc: Scenario, spec: QuadratureSpec = METRIC_SPEC) -> float:
    """Mean SINR as the first moment of the SINR density over its support,
    in the angle domain z = supremum * cos^2(phi), phi in [0, pi/2]: its
    Jacobian 2 * supremum * cos(phi) * sin(phi) cancels the density's
    sqrt(supremum - z) fall, which a z-domain rule could only chase by
    bisecting its last panel some 35 levels deep."""
    if sc.users.U == 1:
        return mean_snr(sc)
    z_sup = sinr_supremum(sc)

    def angle(z):
        return math.acos(math.sqrt(z / z_sup))

    def integrand(phi):
        c = np.cos(phi)
        z = z_sup * c * c
        return z * dist.sinr_pdf_exact(z, sc, spec) * (2.0 * z_sup * c * np.sin(phi))

    return integrate(integrand, angle(z_sup), 0.5 * math.pi, spec,
                     breakpoints=[angle(b) for b in _z_breakpoints(sc)]).value


def mean_snr(sc: Scenario) -> float:
    """Mean SNR of the noise-only link, (2*Gamma/Kbar) * E[signal power],
    in closed form; mean_snr_compact gives the high-density limit."""
    return (2.0 * sc.Gamma / sc.Kbar) * mean_signal_power_closed(sc)


def mean_snr_compact(sc: Scenario) -> float:
    """Compact-regime mean SNR Gamma*zeta_u times the beamforming gain
    4(K-1)/pi^2 (core.cuma_signal_gain): linear in the port count."""
    return sc.Gamma * sc.zeta_u * cuma_signal_gain(sc.antenna.K)
