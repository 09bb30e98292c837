"""Analytic distributions of signal power, interference power and SINR.

Closed-form densities and CDFs for the aggregated in-phase signal power,
the per-interferer power, the truncated-Gaussian aggregate interference,
and the resulting SINR (an integral form valid for any density, plus a
closed form for the compact high-density regime).  Also the
stochastic-dominance diagnostics comparing signal and interference.

Density conventions: evaluating outside the support returns 0 so plotting
and quadrature can probe freely; the singular support endpoints return inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from .scenario import Scenario

_SQRT2 = math.sqrt(2.0)
# z values per panel tree of sinr_pdf_exact: bounds its (z, nodes) arrays
# when an outer integral passes it every node of a round at once
_Z_CHUNK = 256


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    0.5*erfc(-x/sqrt(2)) is the numerically stable form of
    Phi(-x) = 1 - Phi(x) at large |x|.
    """
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class TruncGaussParams:
    """Pre-truncation mean and standard deviation of the aggregate interference."""

    omega: float
    kappa: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    @property
    def truncation_mass(self) -> float:
        """Probability mass the untruncated Gaussian puts on beta >= 0."""
        return float(std_normal_cdf(self.omega / self.kappa))


@dataclass(frozen=True)
class SupportInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"invalid support [{self.lo}, {self.hi}]")

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


def require_analytic_density(mu: float) -> None:
    """The closed forms need mu >= 2: below that the single-wavelength
    activation window degenerates and the cos^2 change of variables loses
    monotonicity.  The brute-force oracle has no such restriction."""
    if mu < 2.0:
        raise ValueError(f"analytic forms require port density >= 2, got {mu}")


def signal_support(zeta: float, mu: float, V: float) -> SupportInterval:
    """Signal power range [cos^2(pi/mu)*zeta/V^2, zeta/V^2]."""
    require_analytic_density(mu)
    hi = zeta / V ** 2
    return SupportInterval(lo=math.cos(math.pi / mu) ** 2 * hi, hi=hi)


def interference_support(zeta: float, V: float) -> SupportInterval:
    """Per-interferer power range [0, zeta/V^2]."""
    return SupportInterval(lo=0.0, hi=zeta / V ** 2)


def signal_pdf(alpha, zeta: float, mu: float, V: float):
    """Density of the aggregated in-phase signal power.

    (mu/2pi) * sqrt(V^2 / (zeta*alpha - V^2*alpha^2)) strictly inside the
    support; 0 outside; inf at the endpoints.
    """
    alpha = np.asarray(alpha, dtype=float)
    sup = signal_support(zeta, mu, V)
    with np.errstate(divide="ignore", invalid="ignore"):
        radicand = zeta * alpha - V ** 2 * alpha ** 2
        dens = (mu / (2.0 * math.pi)) * np.sqrt(V ** 2 / radicand)
    out = np.where((alpha > sup.lo) & (alpha < sup.hi), dens, 0.0)
    out = np.where((alpha == sup.lo) | (alpha == sup.hi), np.inf, out)
    return out if out.ndim else float(out)


def signal_cdf(alpha, zeta: float, mu: float, V: float):
    """CDF of the signal power; clamps to {0, 1} outside the support."""
    alpha = np.asarray(alpha, dtype=float)
    arg = np.clip(2.0 * V ** 2 * alpha / zeta - 1.0, -1.0, 1.0)
    cdf = 1.0 - (mu / (2.0 * math.pi)) * np.arccos(arg)
    sup = signal_support(zeta, mu, V)
    out = np.clip(np.where(alpha < sup.lo, 0.0, np.where(alpha > sup.hi, 1.0, cdf)), 0.0, 1.0)
    return out if out.ndim else float(out)


def interference_cdf_per_user(Y, zeta: float, V: float):
    """Per-interferer power CDF 1 - arccos(2*V^2*Y/zeta - 1)/pi.

    Independent of the desired user's phase, which is what makes the signal
    and interference powers independent.  Clamps to {0, 1} outside the
    support.
    """
    Y = np.asarray(Y, dtype=float)
    arg = np.clip(2.0 * V ** 2 * Y / zeta - 1.0, -1.0, 1.0)
    out = np.where(Y < 0.0, 0.0, np.where(Y > zeta / V ** 2, 1.0,
                                          1.0 - np.arccos(arg) / math.pi))
    return out if out.ndim else float(out)


def interference_pdf_per_user(y, zeta: float, V: float):
    """Per-interferer power density (1/pi) * sqrt(V^2/(zeta*y - V^2*y^2))."""
    y = np.asarray(y, dtype=float)
    sup = interference_support(zeta, V)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = (1.0 / math.pi) * np.sqrt(V ** 2 / (zeta * y - V ** 2 * y ** 2))
    out = np.where((y > sup.lo) & (y < sup.hi), dens, 0.0)
    out = np.where((y == sup.lo) | (y == sup.hi), np.inf, out)
    return out if out.ndim else float(out)


def interference_mean_per_user(zeta: float, V: float) -> float:
    return zeta / (2.0 * V ** 2)


def interference_variance_per_user(zeta: float, V: float) -> float:
    return zeta ** 2 / (8.0 * V ** 4)


def trunc_gauss_params(zeta_list, V: float) -> TruncGaussParams:
    """Aggregate-interference parameters: omega = sum(zeta)/(2 V^2) and
    kappa = sqrt(sum(zeta^2)/(8 V^4))."""
    zs = np.asarray(zeta_list, dtype=float)
    if zs.size == 0:
        raise ValueError("at least one interferer required (noise-only case is "
                         "handled by the metrics layer)")
    omega = float(zs.sum() / (2.0 * V ** 2))
    kappa = float(math.sqrt((zs ** 2).sum() / (8.0 * V ** 4)))
    return TruncGaussParams(omega=omega, kappa=kappa)


def scenario_trunc_gauss(sc: Scenario) -> TruncGaussParams:
    return trunc_gauss_params(sc.zeta_interferers, sc.V)


def total_interference_pdf(beta, params: TruncGaussParams):
    """Truncated-Gaussian density of the total interference power (beta >= 0)."""
    beta = np.asarray(beta, dtype=float)
    norm = params.truncation_mass * math.sqrt(2.0 * math.pi) * params.kappa
    dens = np.exp(-((beta - params.omega) ** 2) / (2.0 * params.kappa ** 2)) / norm
    out = np.where(beta >= 0.0, dens, 0.0)
    return out if out.ndim else float(out)


def total_interference_cdf(beta, params: TruncGaussParams):
    beta = np.asarray(beta, dtype=float)
    lo = std_normal_cdf(-params.omega / params.kappa)
    cdf = (std_normal_cdf((beta - params.omega) / params.kappa) - lo) / params.truncation_mass
    out = np.clip(np.where(beta < 0.0, 0.0, cdf), 0.0, 1.0)
    return out if out.ndim else float(out)


def interference_plus_noise_pdf(beta_tilde, params: TruncGaussParams,
                                Kbar: float, Gamma: float):
    """Density of beta + Kbar/(2*Gamma): the interference law shifted by the
    in-phase noise term."""
    shift = Kbar / (2.0 * Gamma)
    return total_interference_pdf(np.asarray(beta_tilde, dtype=float) - shift, params)


def sinr_pdf_exact(z, sc: Scenario, spec: QuadratureSpec = DEFAULT_SPEC):
    """SINR density valid for any port density, as a single smooth integral.

    The raw integral over the interference-plus-noise variable has
    square-root endpoint singularities; substituting
    beta_tilde = (zeta/(z V^2)) cos^2(theta) removes them analytically.  The
    integrand is cut at the noise floor Kbar/(2*Gamma) -- below it the
    interference-plus-noise variable has no mass -- which also makes the
    density integrate to one and vanish beyond the SINR supremum.  With
    theta = t*theta_max(z), every z of a batch of _Z_CHUNK shares one panel
    tree on t in [0, 1].
    """
    require_analytic_density(sc.mu)
    z = np.asarray(z, dtype=float)
    if sc.users.U == 1:
        # degenerate interference: SINR is the rescaled signal power
        return signal_pdf(z * sc.noise_term, sc.zeta_u, sc.mu, sc.V) * sc.noise_term

    params = scenario_trunc_gauss(sc)
    zeta, V, mu = sc.zeta_u, sc.V, sc.mu
    m = params.omega + sc.noise_term
    kappa = params.kappa
    scale = (mu / (2.0 * math.pi)) / (params.truncation_mass * math.sqrt(2.0 * math.pi) * kappa)
    q = z * sc.noise_term * V ** 2 / zeta  # cos^2 threshold of the noise floor
    live = np.flatnonzero((z > 0) & (q < 1.0))
    out = np.zeros(z.size)
    for i in (live[c:c + _Z_CHUNK] for c in range(0, live.size, _Z_CHUNK)):
        zc = z.flat[i][:, None]
        th = np.minimum(math.pi / mu, np.arccos(np.sqrt(q.flat[i])))[:, None]

        def integrand(t):
            c2 = np.cos(th * t) ** 2
            bt = zeta * c2 / (zc * V ** 2)
            return th * (2.0 * zeta * c2 / (zc ** 2 * V ** 2)) \
                * np.exp(-((bt - m) ** 2) / (2.0 * kappa ** 2))

        out[i] = scale * integrate(integrand, 0.0, 1.0, spec).value
    return out.reshape(z.shape) if z.ndim else float(out[0])


def sinr_pdf_compact(z, sc: Scenario):
    """Closed-form SINR density for the compact (high-density) regime, where
    the signal power is the constant zeta/V^2."""
    if sc.users.U == 1:
        raise ValueError("compact SINR density requires at least one interferer")
    z = np.asarray(z, dtype=float)
    params = scenario_trunc_gauss(sc)
    zeta, V = sc.zeta_u, sc.V
    m = params.omega + sc.noise_term
    kappa = params.kappa
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expo = -((zeta / (z * V ** 2) - m) ** 2) / (2.0 * kappa ** 2)
        scale = zeta / (params.truncation_mass * V ** 2) \
            / (z ** 2 * math.sqrt(2.0 * math.pi) * kappa)
        # the exponential underflows long before 1/z^2 overflows; decide on
        # the exponent so the product can never become inf * 0
        dens = np.where(expo < -700.0, 0.0, scale * np.exp(expo))
    out = np.where(z > 0.0, dens, 0.0)
    return out if out.ndim else float(out)


def sinr_supremum(sc: Scenario) -> float:
    """Largest attainable SINR, 2*Gamma*zeta_u/(Kbar*V^2): maximum signal
    power over the noise floor alone."""
    return sc.zeta_u / (sc.V ** 2 * sc.noise_term)


def sinr_cdf_compact_raw(z, sc: Scenario):
    """Compact-regime SINR CDF at z > 0, unclamped: the truncated-Gaussian
    normalization ignores the noise-floor shift of the support, so it can
    exceed one near and beyond the supremum.  Without interferers it is a
    step at the supremum (the signal is deterministic in the compact limit)."""
    z = np.asarray(z, dtype=float)
    if sc.users.U == 1:
        return np.where(z > sinr_supremum(sc), 1.0, 0.0)
    params = scenario_trunc_gauss(sc)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (sc.zeta_u / (z * params.kappa * sc.V ** 2)
               - sc.noise_term / params.kappa - params.omega / params.kappa)
    return (1.0 - std_normal_cdf(arg)) / params.truncation_mass


def sinr_cdf_compact(z, sc: Scenario):
    """Closed-form SINR CDF for the compact regime, clamped to [0, 1]."""
    z = np.asarray(z, dtype=float)
    out = np.clip(np.where(z <= 0.0, 0.0, sinr_cdf_compact_raw(z, sc)), 0.0, 1.0)
    return out if out.ndim else float(out)


def cdf_difference(Y, zeta: float, mu: float, V: float):
    """Pointwise gap F_interference(Y) - F_signal(Y); non-negative for every
    threshold, which is the first-order stochastic dominance of the signal
    power over each interferer's power.

    Below the signal support the gap is the interference CDF itself; on the
    shared support it equals (mu/2 - 1) times the interference tail mass.
    At mu = 2 the gap is identically zero: signal and interference are then
    statistically indistinguishable.
    """
    Y = np.asarray(Y, dtype=float)
    sup = signal_support(zeta, mu, V)
    f_int = interference_cdf_per_user(Y, zeta, V)
    lower = f_int
    upper = (mu / 2.0 - 1.0) * (1.0 - f_int)
    out = np.where(Y <= 0.0, 0.0,
                   np.where(Y <= sup.lo, lower,
                            np.where(Y < sup.hi, upper, 0.0)))
    return out if out.ndim else float(out)


def pdf_ratio(Y, zeta: float, mu: float, V: float):
    """Signal/interference density ratio: 0 below the signal support,
    mu/2 on the shared support."""
    Y = np.asarray(Y, dtype=float)
    sup = signal_support(zeta, mu, V)
    out = np.where((Y > sup.lo) & (Y < sup.hi), mu / 2.0, 0.0)
    return out if out.ndim else float(out)
