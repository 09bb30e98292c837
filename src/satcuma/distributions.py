"""Analytic distributions of signal power, interference power and SINR.

Closed-form densities and CDFs for the aggregated in-phase signal power
and the per-interferer power (one arc law, _arc_pdf and _arc_cdf), the
truncated-Gaussian aggregate interference, and the resulting SINR (an
integral form valid for any density, plus a closed form for the compact
high-density regime).  sinr_law builds a scenario's SINR law once, as one
SinrLaw record of the interference's moments and the desired user's
constants, which maps a signal power and an SINR to the standardised
interference plus noise where they meet, and back.  The density and CDF
of the aggregate interference (total_interference_*) take that record, and
metrics reads it too.  Also the stochastic-dominance diagnostics comparing
signal and interference.

Density conventions: evaluating outside the support returns 0 so plotting
and quadrature can probe freely; the singular support endpoints return inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from .scenario import Scenario, interference_moments

_SQRT2 = math.sqrt(2.0)
# z values per panel tree of sinr_pdf_exact: bounds its (z, nodes) arrays
# when an outer integral passes it every node of a round at once
_Z_CHUNK = 256

# Cephes ndtr.c's rational approximations of erfc, highest power first.
# Each table holds a numerator and a monic denominator, padded to one
# length with exact leading zeros and ones, so both rows run through
# Horner's rule together, rounding as Cephes' polevl and p1evl do.
def _horner_table(num, den):
    rows = np.array([[0.0] * (len(den) + 1 - len(num)) + list(num), [1.0] + list(den)])
    return tuple(rows.T[:, :, None])  # one (2, 1) column per Horner step


# erf(x) = x*T(x^2)/U(x^2) for |x| < 1
_ERF_TU = _horner_table(
    (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4),
    (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4))
# erfc(x) = exp(-x^2)*P(x)/Q(x) for 1 <= x < 8
_ERFC_PQ = _horner_table(
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
    (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2))
# erfc(x) = exp(-x^2)*R(x)/S(x) for x >= 8
_ERFC_RS = _horner_table(
    (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
    (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0))
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


def _horner(x, table):
    """Numerator and denominator of a Cephes table at the 1-D array x."""
    acc = table[0] * x + table[1]
    for c in table[2:]:
        acc *= x
        acc += c
    return acc


def _erfc_small(x, a):
    t, u = _horner(x * x, _ERF_TU)
    return 1.0 - x * t / u


def _erfc_tail(table):
    def branch(x, a):
        p, q = _horner(a, table)
        y = np.exp(-(a * a)) * p / q
        return np.where(x < 0.0, 2.0 - y, y)
    return branch


def _erfc_underflow(x, a):
    return 1.0 - np.sign(x)  # 0 or 2, and NaN stays NaN


def _least_with_square_above(bound):
    a = math.sqrt(bound)
    while a * a > bound:
        a = math.nextafter(a, 0.0)
    while a * a <= bound:
        a = math.nextafter(a, math.inf)
    return a


# erfc's branch k serves edges[k-1] <= |x| < edges[k]; the last edge is the
# least |x| whose square exceeds MAXLOG, Cephes' underflow test
_ERFC_EDGES = np.array([1.0, 8.0, _least_with_square_above(_MAXLOG)])
_ERFC_BRANCHES = (_erfc_small, _erfc_tail(_ERFC_PQ), _erfc_tail(_ERFC_RS), _erfc_underflow)


def erfc(x):
    """Complementary error function, a port of Cephes ndtr.c's erfc.

    Branches by |x|: 1 - erf(x) below 1, exp(-x^2)*P/Q below 8,
    exp(-x^2)*R/S beyond, and 2 - erfc(|x|) for negative x.  Where
    x^2 > MAXLOG the result is 0 (or 2) without forming any polynomial,
    so huge arguments cannot overflow.  Each branch runs on its own
    elements only, and an array that needs one branch is not split.  A
    scalar takes the array path too, so both agree bit for bit, and comes
    back as a float.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    a = np.abs(flat)
    branch = np.searchsorted(_ERFC_EDGES, a, side="right")  # NaN sorts last
    present = np.flatnonzero(np.bincount(branch, minlength=len(_ERFC_BRANCHES)))
    if present.size == 1:
        out = _ERFC_BRANCHES[present[0]](flat, a)
    else:
        out = np.empty_like(flat)
        for k in present:
            sel = branch == k
            out[sel] = _ERFC_BRANCHES[k](flat[sel], a[sel])
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    0.5*erfc(-x/sqrt(2)) is the numerically stable form of
    Phi(-x) = 1 - Phi(x) at large |x|.
    """
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class SupportInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"invalid support [{self.lo}, {self.hi}]")


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


def _arc_pdf(x, zeta: float, V: float, sup: SupportInterval, rate: float):
    """Density rate * V / sqrt(zeta*x - V^2*x^2) of (zeta/V^2) cos^2(theta),
    theta of density rate, inside sup; 0 outside, inf at its endpoints."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the root taken as two factors: x*(zeta - V^2*x) underflows at subnormal x
        dens = rate * V / (np.sqrt(x) * np.sqrt(zeta - V ** 2 * x))
    out = np.where((x > sup.lo) & (x < sup.hi), dens, 0.0)
    out = np.where((x == sup.lo) | (x == sup.hi), np.inf, out)
    return out if out.ndim else float(out)


def _arc_cdf(x, zeta: float, V: float, sup: SupportInterval, rate: float):
    """CDF 1 - rate * arccos(2*V^2*x/zeta - 1) of the arc law of _arc_pdf;
    clamps to {0, 1} outside sup."""
    x = np.asarray(x, dtype=float)
    arg = np.clip(2.0 * V ** 2 * x / zeta - 1.0, -1.0, 1.0)
    cdf = 1.0 - rate * np.arccos(arg)
    out = np.clip(np.where(x < sup.lo, 0.0, np.where(x > sup.hi, 1.0, cdf)), 0.0, 1.0)
    return out if out.ndim else float(out)


def signal_pdf(alpha, zeta: float, mu: float, V: float):
    """Density (mu/2pi) * sqrt(V^2 / (zeta*alpha - V^2*alpha^2)) of the aggregated
    in-phase signal power inside its support; 0 outside, inf at the endpoints."""
    return _arc_pdf(alpha, zeta, V, signal_support(zeta, mu, V), mu / (2.0 * math.pi))


def signal_cdf(alpha, zeta: float, mu: float, V: float):
    """CDF of the signal power; clamps to {0, 1} outside the support."""
    return _arc_cdf(alpha, zeta, V, signal_support(zeta, mu, V), mu / (2.0 * math.pi))


def interference_cdf_per_user(Y, zeta: float, V: float):
    """Per-interferer power CDF 1 - arccos(2*V^2*Y/zeta - 1)/pi, clamped to
    {0, 1} outside the support.  Independent of the desired user's phase,
    which is what makes the signal and interference powers independent."""
    return _arc_cdf(Y, zeta, V, interference_support(zeta, V), 1.0 / math.pi)


def interference_pdf_per_user(y, zeta: float, V: float):
    """Per-interferer power density (1/pi) * sqrt(V^2/(zeta*y - V^2*y^2))."""
    return _arc_pdf(y, zeta, V, interference_support(zeta, V), 1.0 / math.pi)


@dataclass(frozen=True)
class SinrLaw:
    """A scenario's SINR law: the desired user's zeta, V and mu, the
    pre-truncation mean omega and spread kappa of the aggregate
    interference, the mean m = omega + n of interference plus noise n, and
    the mass tm = Phi(omega/kappa) the Gaussian puts on beta >= 0."""

    zeta: float
    V: float
    mu: float
    omega: float
    kappa: float
    m: float
    tm: float

    def alpha(self, theta):
        """Signal power (zeta/V^2) cos^2(theta) at the substitution angle theta."""
        zeta, V = self.zeta, self.V
        return zeta * np.cos(theta) ** 2 / V ** 2

    def x(self, alpha, z):
        """Standardised interference plus noise where alpha meets SINR z."""
        return (alpha / z - self.m) / self.kappa

    def alpha_at(self, x, z):
        """Signal power that meets SINR z at x: the inverse of x."""
        return z * (self.m + x * self.kappa)


@functools.lru_cache(maxsize=64)
def sinr_law(sc: Scenario) -> SinrLaw:
    """The SINR law of a scenario with interferers, built once per scenario
    from its interference_moments.  Callers finish one scenario before they
    start the next, so a few entries catch every repeat; the bound keeps
    long runs from growing it."""
    if sc.users.U == 1:
        raise ValueError("at least one interferer required (noise-only case is "
                         "handled by the metrics layer)")
    require_analytic_density(sc.mu)
    omega, kappa = interference_moments(sc.zeta_interferers, sc.V)
    if not kappa > 0.0:  # zeta^2 underflows; build_scenario rejects such zeta
        raise ValueError(f"kappa must be positive, got {kappa}")
    return SinrLaw(zeta=sc.zeta_u, V=sc.V, mu=sc.mu, omega=omega, kappa=kappa,
                   m=omega + sc.noise_term, tm=float(std_normal_cdf(omega / kappa)))


def total_interference_pdf(beta, law: SinrLaw):
    """Truncated-Gaussian density of the total interference power (beta >= 0)."""
    beta = np.asarray(beta, dtype=float)
    norm = law.tm * math.sqrt(2.0 * math.pi) * law.kappa
    dens = np.exp(-((beta - law.omega) ** 2) / (2.0 * law.kappa ** 2)) / norm
    out = np.where(beta >= 0.0, dens, 0.0)
    return out if out.ndim else float(out)


def total_interference_cdf(beta, law: SinrLaw):
    beta = np.asarray(beta, dtype=float)
    lo = std_normal_cdf(-law.omega / law.kappa)
    cdf = (std_normal_cdf((beta - law.omega) / law.kappa) - lo) / law.tm
    out = np.clip(np.where(beta < 0.0, 0.0, cdf), 0.0, 1.0)
    return out if out.ndim else float(out)


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
    z = np.asarray(z, dtype=float)
    if sc.users.U == 1:
        # degenerate interference: SINR is the rescaled signal power
        return signal_pdf(z * sc.noise_term, sc.zeta_u, sc.mu, sc.V) * sc.noise_term

    law = sinr_law(sc)
    scale = (law.mu / (2.0 * math.pi)) / (law.tm * math.sqrt(2.0 * math.pi) * law.kappa)
    q = z * sc.noise_term * law.V ** 2 / law.zeta  # cos^2 threshold of the noise floor
    live = np.flatnonzero((z > 0) & (q < 1.0))
    out = np.zeros(z.size)
    for i in (live[c:c + _Z_CHUNK] for c in range(0, live.size, _Z_CHUNK)):
        zc = z.flat[i][:, None]
        th = np.minimum(math.pi / law.mu, np.arccos(np.sqrt(q.flat[i])))[:, None]

        def integrand(t):
            # z past the float range (a tiny supremum) gives inf and NaN
            # values, which the quadrature reports; they need no warning
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                alpha = law.alpha(th * t)
                x = law.x(alpha, zc)
                return th * (2.0 * alpha / zc ** 2) * np.exp(-0.5 * x * x)

        out[i] = scale * integrate(integrand, 0.0, 1.0, spec).value
    return out.reshape(z.shape) if z.ndim else float(out[0])


def sinr_pdf_compact(z, sc: Scenario):
    """Closed-form SINR density for the compact (high-density) regime, where
    the signal power is the constant zeta/V^2."""
    z = np.asarray(z, dtype=float)
    law = sinr_law(sc)
    peak = law.alpha(0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expo = -0.5 * law.x(peak, z) ** 2
        scale = peak / law.tm / (z ** 2 * math.sqrt(2.0 * math.pi) * law.kappa)
        # the exponential underflows long before 1/z^2 overflows; decide on
        # the exponent so the product can never become inf * 0
        dens = np.where(expo < -700.0, 0.0, scale * np.exp(expo))
    out = np.where(z > 0.0, dens, 0.0)
    return out if out.ndim else float(out)


def sinr_supremum(sc: Scenario) -> float:
    """Largest attainable SINR, 2*Gamma*zeta_u/(Kbar*V^2): maximum signal
    power over the noise floor alone."""
    require_analytic_density(sc.mu)
    return sc.zeta_u / (sc.V ** 2 * sc.noise_term)


def sinr_cdf_compact_raw(z, sc: Scenario):
    """Compact-regime SINR CDF at z > 0, unclamped: the truncated-Gaussian
    normalization ignores the noise-floor shift of the support, so it can
    exceed one near and beyond the supremum.  Without interferers it is a
    step at the supremum (the signal is deterministic in the compact limit)."""
    z = np.asarray(z, dtype=float)
    if sc.users.U == 1:
        return np.where(z > sinr_supremum(sc), 1.0, 0.0)
    law = sinr_law(sc)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        arg = law.x(law.alpha(0.0), z)
    return (1.0 - std_normal_cdf(arg)) / law.tm


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
