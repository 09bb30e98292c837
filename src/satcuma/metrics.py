"""System-level performance metrics: outage probability, ergodic rate and
mean SINR/SNR, built on the adaptive quadrature engine (the mean SNR is a
closed form).

Outage comes in two flavours.  The exact form integrates the signal-power
density against the Gaussian interference CDF (a single smooth integral
after the endpoint substitution); the compact form is the closed-form
high-density limit.  Both are clamped to [0, 1]: the truncated-Gaussian
normalization ignores the noise-floor shift of the support, which can push
the raw value marginally above one near and beyond the SINR supremum (the
clamp is recorded in the result warnings).

Noise-only scenarios (U = 1) bypass the Gaussian machinery entirely: the
SINR is then a deterministic rescaling of the signal power and every metric
reduces to a signal-distribution integral or closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import sinr_supremum
from .quadrature import QuadratureSpec, integrate
from .scenario import WARN_ODD_MU, Scenario  # noqa: F401 (re-exported)

WARN_CLAMPED = "clamped"
WARN_QUAD_LIMIT = "quadrature-limit"

METRIC_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=2000)


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
    mu = sc.mu
    return (sc.zeta_u / (2.0 * sc.V ** 2)) * (1.0 + mu * math.sin(2.0 * math.pi / mu) / (2.0 * math.pi))


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
    zeta, V = sc.zeta_u, sc.V
    pts = [z_sup * math.cos(math.pi / sc.mu) ** 2]
    if sc.users.U > 1:
        params = dist.scenario_trunc_gauss(sc)
        m = params.omega + sc.noise_term
        for j in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            bt = m + j * params.kappa
            if bt > sc.noise_term:
                pts.append(zeta / (V ** 2 * bt))
    return tuple(p for p in pts if 0.0 < p < z_sup)


def _sinr_density_integral(g, sc: Scenario, upper: float, spec: QuadratureSpec):
    """Integral of g(z) * sinr_pdf_exact(z) over (0, upper], upper <= supremum.

    The density falls like sqrt(supremum - z) at the supremum, which a z-domain
    rule can only chase by bisecting its last panel some 35 levels deep.  In
    the angle domain z = supremum * cos^2(phi), phi in [acos(sqrt(upper /
    supremum)), pi/2], the Jacobian 2 * supremum * cos(phi) * sin(phi) cancels
    that root, and the integrand is smooth.
    """
    z_sup = sinr_supremum(sc)

    def angle(z):
        return math.acos(math.sqrt(z / z_sup))

    def integrand(phi):
        c = np.cos(phi)
        z = z_sup * c * c
        return g(z) * dist.sinr_pdf_exact(z, sc, spec) * (2.0 * z_sup * c * np.sin(phi))

    return integrate(integrand, angle(upper), 0.5 * math.pi, spec,
                     breakpoints=[angle(b) for b in _z_breakpoints(sc)])


def _outage(gammas, sc: Scenario, spec: QuadratureSpec = METRIC_SPEC):
    """Unclamped outage P(SINR < gamma) for a vector of thresholds.

    Evaluated in the theta domain of the endpoint substitution
    alpha = (zeta/V^2) cos^2(theta), where the signal density becomes the
    constant mu/pi and the integrand is bounded and smooth.  One adaptive
    integral serves every threshold: all share one panel tree, refined until
    each meets the tolerance.  Returns (values, est_errors, converged).
    """
    gammas = np.asarray(gammas, dtype=float)
    dist.require_analytic_density(sc.mu)
    if sc.users.U == 1:
        vals = np.asarray(dist.signal_cdf(gammas * sc.noise_term, sc.zeta_u, sc.mu, sc.V))
        return vals, np.zeros_like(vals), True

    params = dist.scenario_trunc_gauss(sc)
    zeta, V, mu = sc.zeta_u, sc.V, sc.mu
    m = params.omega + sc.noise_term
    kappa = params.kappa
    tmass = params.truncation_mass

    def integrand(theta):
        alpha = zeta * np.cos(theta) ** 2 / V ** 2
        return dist.std_normal_cdf((alpha / gammas[:, None] - m) / kappa)

    res = integrate(integrand, 0.0, math.pi / mu, spec)
    scale = mu / (math.pi * tmass)
    return 1.0 / tmass - scale * res.value, scale * res.est_error, res.converged


def outage_exact(gamma: float, sc: Scenario,
                 spec: QuadratureSpec = METRIC_SPEC) -> MetricResult:
    """Outage probability P(SINR < gamma) from the single-integral form."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    vals, errs, converged = _outage([gamma], sc, spec)
    warnings = sc.warnings if converged else sc.warnings + (WARN_QUAD_LIMIT,)
    val, warnings = _clamp01(float(vals[0]), warnings)
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


def outage_exact_double_integral(gamma: float, sc: Scenario,
                                 spec: QuadratureSpec = METRIC_SPEC) -> MetricResult:
    """Outage via direct integration of the SINR density.

    Cross-check route for the single-integral reduction; the two must agree
    within quadrature tolerance.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    res = _sinr_density_integral(np.ones_like, sc, min(gamma, sinr_supremum(sc)), spec)
    warnings = sc.warnings if res.converged else sc.warnings + (WARN_QUAD_LIMIT,)
    val, warnings = _clamp01(res.value, warnings)
    return MetricResult(value=val, est_error=res.est_error, warnings=warnings)


def ergodic_rate(sc: Scenario, outage: str = "exact",
                 spec: QuadratureSpec = METRIC_SPEC) -> MetricResult:
    """Network ergodic rate (U*B/ln 2) * E[ln(1 + SINR)].

    With interferers this is the paper's integral of (1 - outage(y))/(1+y);
    the integrand is exactly zero beyond the SINR supremum (the clamped
    outage reaches one there for both outage forms), so the upper limit is
    truncated at the supremum.  Each node set of the exact form is one
    vector call of the outage integral.

    Noise-only scenarios (U = 1) have no outage model to choose: the rate
    is (B/ln 2) * (mu/pi) * integral over [0, pi/mu] of
    ln(1 + zeta cos^2(theta)/(V^2 n)), since the signal power is
    (zeta/V^2) cos^2(theta) with theta uniform on [0, pi/mu].
    """
    if outage not in ("exact", "compact"):
        raise ValueError(f"outage must be 'exact' or 'compact', got {outage!r}")
    warnings = sc.warnings
    U, B = sc.users.U, sc.budget.B

    if U == 1:
        dist.require_analytic_density(sc.mu)
        snr_peak = sinr_supremum(sc)
        mu = sc.mu

        def integrand(theta):
            return np.log1p(snr_peak * np.cos(theta) ** 2)

        res = integrate(integrand, 0.0, math.pi / mu, spec)
        if not res.converged:
            warnings = warnings + (WARN_QUAD_LIMIT,)
        scale = B * mu / (math.pi * math.log(2.0))
        return MetricResult(value=scale * res.value, est_error=scale * res.est_error,
                            warnings=warnings)

    inner_converged = True
    if outage == "exact":
        def survival(y):
            nonlocal inner_converged
            vals, _, converged = _outage(y, sc, spec)
            inner_converged = inner_converged and converged
            return 1.0 - np.clip(vals, 0.0, 1.0)
    else:
        def survival(y):
            return 1.0 - np.asarray(dist.sinr_cdf_compact(y, sc))

    def integrand(y):
        return survival(y) / (1.0 + y)

    res = integrate(integrand, 0.0, sinr_supremum(sc), spec, breakpoints=_z_breakpoints(sc))
    if not (res.converged and inner_converged):
        warnings = warnings + (WARN_QUAD_LIMIT,)
    scale = U * B / math.log(2.0)
    return MetricResult(value=scale * res.value, est_error=scale * res.est_error,
                        warnings=warnings)


def mean_sinr(sc: Scenario, spec: QuadratureSpec = METRIC_SPEC) -> float:
    """Mean SINR as the first moment of the SINR density over its support."""
    if sc.users.U == 1:
        return mean_snr(sc)
    return _sinr_density_integral(lambda z: z, sc, sinr_supremum(sc), spec).value


def mean_snr(sc: Scenario) -> float:
    """Mean SNR of the noise-only link, (2*Gamma/Kbar) * E[signal power],
    in closed form; mean_snr_compact gives the high-density limit."""
    dist.require_analytic_density(sc.mu)
    return (2.0 * sc.Gamma / sc.Kbar) * mean_signal_power_closed(sc)


def mean_snr_compact(sc: Scenario) -> float:
    """Compact-regime mean SNR 4*Gamma*zeta_u*(K-1)/pi^2: the linear
    beamforming-gain law in the port count."""
    return 4.0 * sc.Gamma * sc.zeta_u * (sc.antenna.K - 1) / math.pi ** 2
