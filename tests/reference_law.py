"""An independent reference for the exact metrics of the cut SINR law.

The law: the signal power alpha = A cos^2(theta), A = zeta_u/V^2 and theta
uniform on [0, pi/mu], is independent of the aggregate interference beta, a
Gaussian of mean omega and spread kappa cut to beta >= 0, and the SINR is
alpha/(beta + n).  Everything here starts from the scenario's inputs
(sc.zeta_u, sc.zeta_interferers, sc.V, sc.mu and sc.noise_term) and uses
SciPy's quad and ndtr only; it calls no satcuma.metrics and no SinrLaw
code, so it shares no step with what it checks.  Two routes give the
outage P(SINR < gamma) and must agree with each other:

- outage_s integrates over the standardised interference s, beta = omega +
  kappa*s, the signal CDF F_alpha(gamma*(m + kappa*s)) against phi(s);
- outage_theta integrates over the signal angle theta the Gaussian tail
  1 - Phi(x(theta)), x = (alpha(theta)/gamma - m)/kappa, up to the angle
  where alpha/gamma falls to the noise term n, beyond which outage is sure.

The mean SINR and the ergodic rate are expectations over s too:
mean_sinr_s is E[alpha] * E[1/(beta + n)], as alpha and beta are
independent, and rate_s is (U*B/ln 2) * E[ln(1 + SINR)], the integral over
s of phi(s) * G(m + kappa*s) with G(b) the mean over theta of
ln(1 + alpha(theta)/b) (log1p_sinr_s).

outage_s_mpmath, mean_sinr_s_mpmath and log1p_sinr_s_mpmath are the same
s-integrals at 30, 30 and 20 digits, which pin the reference itself.

Run as a script, it prints one line per preset row with U > 1 that the
reference checks: outage_exact and mean_sinr of fig3, fig4 and fig5, and
rate_exact of fig7, fig8 and fig9.  Each line holds the preset, series,
grid value, metric, analytic, est_error, the reference and the gap:

    PYTHONPATH=src python tests/reference_law.py
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from scipy.integrate import quad
from scipy.special import ndtr

from satcuma.scenario import build_scenario
from satcuma.sweep import _config_at, preset_sweeps

# relative tolerance of every quad here
EPSREL = 1e-13
# the s-integrals run over [-S_MAX, S_MAX] at most: phi(s) underflows beyond
S_MAX = 40.0
# each integral is seeded where the standardised interference s (or x) is one of these
SEEDS = (-8.0, -4.0, 0.0, 4.0, 8.0)
# the presets whose rows of each metric the reference checks
PRESETS = {"outage_exact": ("fig3", "fig4", "fig5"), "mean_sinr": ("fig3", "fig4", "fig5"),
           "rate_exact": ("fig7", "fig8", "fig9")}


@dataclass(frozen=True)
class Law:
    """The cut law's constants, from the scenario's inputs: the peak signal
    power A, the density mu, the interference mean omega and spread kappa,
    the mean m = omega + n of interference plus noise, rho = omega/kappa and
    the mass tm = Phi(rho) of the cut Gaussian."""

    A: float
    mu: float
    n: float
    omega: float
    kappa: float
    m: float
    rho: float
    tm: float


def cut_law(sc) -> Law:
    V2 = sc.V * sc.V
    zs = [float(z) for z in sc.zeta_interferers]
    omega = math.fsum(zs) / (2.0 * V2)
    kappa = math.sqrt(math.fsum(z * z for z in zs) / 8.0) / V2
    n = sc.noise_term
    return Law(A=sc.zeta_u / V2, mu=sc.mu, n=n, omega=omega, kappa=kappa, m=omega + n,
               rho=omega / kappa, tm=float(ndtr(omega / kappa)))


def signal_cdf(a: float, law: Law) -> float:
    """F_alpha(a) = 1 - mu/2 + (mu/pi) asin(sqrt(a/A)) on the signal support
    [A cos^2(pi/mu), A]; 0 below it and 1 above."""
    r = a / law.A
    if r >= 1.0:
        return 1.0
    return max(0.0, 1.0 - 0.5 * law.mu + law.mu / math.pi * math.asin(math.sqrt(max(r, 0.0))))


def _kinks(gamma: float, law: Law) -> tuple:
    """The s where gamma*(m + kappa*s) meets the low and the high end of the
    signal support."""
    lo = law.A * math.cos(math.pi / law.mu) ** 2
    return (lo / gamma - law.m) / law.kappa, (law.A / gamma - law.m) / law.kappa


def outage_s(gamma: float, sc) -> float:
    """(1/tm) [1 - Phi(max(s_hi, -rho)) + integral over [max(s_lo, -rho),
    s_hi] of F_alpha(gamma*(m + kappa*s)) phi(s) ds]."""
    law = cut_law(sc)
    s_lo, s_hi = _kinks(gamma, law)
    tail = float(ndtr(-max(s_hi, -law.rho)))
    a, b = max(s_lo, -law.rho, -S_MAX), min(s_hi, S_MAX)
    body = 0.0
    if a < b:
        def f(s):
            return signal_cdf(gamma * (law.m + law.kappa * s), law) \
                * math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)

        body = quad(f, a, b, points=[p for p in SEEDS if a < p < b] or None,
                    epsabs=0.0, epsrel=EPSREL, limit=400)[0]
    return (tail + body) / law.tm


def outage_theta(gamma: float, sc) -> float:
    """(mu/pi) [(1/tm) integral over [0, u] of (1 - Phi(x(theta))) dtheta
    + (pi/mu - u)], u = min(pi/mu, acos(sqrt(gamma*n/A))) the noise-floor
    angle, past which alpha/gamma < n and the outage is sure."""
    law = cut_law(sc)
    u = min(math.pi / law.mu, math.acos(math.sqrt(min(gamma * law.n / law.A, 1.0))))
    body = 0.0
    if u > 0.0:
        def f(theta):
            x = (law.A * math.cos(theta) ** 2 / gamma - law.m) / law.kappa
            return float(ndtr(-x))

        seeds = []
        for j in SEEDS:
            c2 = gamma * (law.m + j * law.kappa) / law.A  # cos^2(theta) where x = j
            if 0.0 < c2 < 1.0 and 0.0 < math.acos(math.sqrt(c2)) < u:
                seeds.append(math.acos(math.sqrt(c2)))
        body = quad(f, 0.0, u, points=sorted(seeds) or None,
                    epsabs=0.0, epsrel=EPSREL, limit=400)[0]
    return law.mu / math.pi * (body / law.tm + (math.pi / law.mu - u))


def _s_expectation(h, law: Law) -> float:
    """E[h(s)] over the cut Gaussian: (1/tm) integral over [max(-rho,
    -S_MAX), S_MAX] of h(s) phi(s) ds, seeded at SEEDS."""
    a, b = max(-law.rho, -S_MAX), S_MAX

    def f(s):
        return h(s) * math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)

    return quad(f, a, b, points=[p for p in SEEDS if a < p < b] or None,
                epsabs=0.0, epsrel=EPSREL, limit=400)[0] / law.tm


def mean_signal_power(law: Law) -> float:
    """E[alpha] = (A/2) (1 + mu sin(2 pi/mu)/(2 pi)), the mean of A cos^2(theta)
    over theta uniform on [0, pi/mu]."""
    return 0.5 * law.A * (1.0 + law.mu * math.sin(2.0 * math.pi / law.mu) / (2.0 * math.pi))


def mean_sinr_s(sc) -> float:
    """E[alpha] * E[1/(beta + n)], beta + n = m + kappa*s."""
    law = cut_law(sc)
    return mean_signal_power(law) * _s_expectation(lambda s: 1.0 / (law.m + law.kappa * s), law)


def log1p_sinr_s(sc) -> float:
    """E[ln(1 + SINR)] = E[G(m + kappa*s)], G(b) = (mu/pi) integral over [0,
    pi/mu] of ln(1 + A cos^2(theta)/b) dtheta."""
    law = cut_law(sc)

    def G(b):
        return law.mu / math.pi * quad(lambda t: math.log1p(law.A * math.cos(t) ** 2 / b),
                                       0.0, math.pi / law.mu, epsabs=0.0, epsrel=EPSREL,
                                       limit=400)[0]

    return _s_expectation(lambda s: G(law.m + law.kappa * s), law)


def rate_s(sc) -> float:
    """The network ergodic rate (U*B/ln 2) * E[ln(1 + SINR)]."""
    return sc.users.U * sc.budget.B / math.log(2.0) * log1p_sinr_s(sc)


def _mp_law(sc):
    """A, mu, omega, kappa and m at the working precision."""
    V2 = mp.mpf(sc.V) ** 2
    zs = [mp.mpf(float(z)) for z in sc.zeta_interferers]
    omega = mp.fsum(zs) / (2 * V2)
    kappa = mp.sqrt(mp.fsum(z * z for z in zs) / 8) / V2
    return mp.mpf(sc.zeta_u) / V2, mp.mpf(sc.mu), omega, kappa, omega + mp.mpf(sc.noise_term)


def _mp_s_expectation(h, omega, kappa) -> float:
    """_s_expectation at the working precision."""
    rho = omega / kappa
    a = max(-rho, -S_MAX)
    body = mp.quad(lambda s: h(s) * mp.npdf(s), [a] + [p for p in SEEDS if a < p] + [S_MAX])
    return body / mp.ncdf(rho)


def outage_s_mpmath(gamma: float, sc, dps: int = 30) -> float:
    """outage_s with every step at dps digits."""
    with mp.workdps(dps):
        A, mu, omega, kappa, m = _mp_law(sc)
        g = mp.mpf(gamma)
        rho = omega / kappa
        s_lo = (A * mp.cos(mp.pi / mu) ** 2 / g - m) / kappa
        s_hi = (A / g - m) / kappa

        def f(s):
            r = min(max(g * (m + kappa * s) / A, 0), 1)  # rounding at the kinks
            cdf = 1 - mu / 2 + mu / mp.pi * mp.asin(mp.sqrt(r))
            return max(cdf, 0) * mp.npdf(s)

        a, b = max(s_lo, -rho, -S_MAX), min(s_hi, S_MAX)
        body = mp.quad(f, [a] + [p for p in SEEDS if a < p < b] + [b]) if a < b else 0
        return float((mp.ncdf(-max(s_hi, -rho)) + body) / mp.ncdf(rho))


def mean_sinr_s_mpmath(sc, dps: int = 30) -> float:
    """mean_sinr_s with every step at dps digits."""
    with mp.workdps(dps):
        A, mu, omega, kappa, m = _mp_law(sc)
        mean_alpha = A / 2 * (1 + mu * mp.sin(2 * mp.pi / mu) / (2 * mp.pi))
        return float(mean_alpha * _mp_s_expectation(lambda s: 1 / (m + kappa * s), omega, kappa))


def log1p_sinr_s_mpmath(sc, dps: int = 20) -> float:
    """log1p_sinr_s with every step at dps digits."""
    with mp.workdps(dps):
        A, mu, omega, kappa, m = _mp_law(sc)

        def G(b):
            return mu / mp.pi * mp.quad(lambda t: mp.log1p(A * mp.cos(t) ** 2 / b), [0, mp.pi / mu])

        return float(_mp_s_expectation(lambda s: G(m + kappa * s), omega, kappa))


@dataclass(frozen=True)
class Row:
    """One preset row: where it is, its metric, scenario and threshold."""

    preset: str
    series: str
    param: str
    value: float
    metric: str
    sc: object
    gamma: float

    @property
    def label(self) -> str:
        return f"{self.preset}/{self.series}/{self.param}={self.value}"


def preset_rows(metric: str) -> list:
    """The rows of metric with U > 1 of its PRESETS, in sweep order."""
    rows = []
    for name in PRESETS[metric]:
        for spec in preset_sweeps(name):
            if metric not in spec.metrics:
                continue
            for v in spec.grid:
                sc = build_scenario(_config_at(spec, v))
                if sc.users.U > 1:
                    rows.append(Row(name, spec.series, spec.param, v, metric, sc, spec.gamma))
    return rows


def main() -> None:
    from satcuma import metrics

    analytic = {"outage_exact": lambda row: metrics.outage_exact(row.gamma, row.sc),
                "mean_sinr": lambda row: metrics.MetricResult(metrics.mean_sinr(row.sc), 0.0),
                "rate_exact": lambda row: metrics.ergodic_rate(row.sc)}
    reference = {"outage_exact": lambda row: outage_s(row.gamma, row.sc),
                 "mean_sinr": lambda row: mean_sinr_s(row.sc),
                 "rate_exact": lambda row: rate_s(row.sc)}
    print("preset\tseries\tvalue\tmetric\tanalytic\test_error\treference\tgap")
    for metric in PRESETS:
        for row in preset_rows(metric):
            r = analytic[metric](row)
            ref = reference[metric](row)
            print(f"{row.preset}\t{row.series}\t{row.param}={row.value}\t{metric}\t"
                  f"{r.value:.12g}\t{r.est_error:.3g}\t{ref:.12g}\t{r.value - ref:+.3g}")


if __name__ == "__main__":
    main()
