import math

import numpy as np
import pytest
from scipy.integrate import quad

from satcuma import build_scenario, table_default_config
from satcuma.distributions import sinr_pdf_exact, sinr_supremum
from satcuma.metrics import METRIC_SPEC, WARN_QUAD_LIMIT, MetricResult, _z_breakpoints
from satcuma.scenario import AntennaConfig, LinkBudget, Scenario, UserField, phase_chunks


def reference_scenario(K=21, W=2, U=5, **over):
    """Standard LEO uplink scenario (30 GHz, 10 MHz, 1 W, 40 dBi, 1200 km)."""
    return build_scenario(table_default_config(K=K, W=W, U=U, **over))


def unit_scenario(K=9, W=2, U=5, gamma_snr=1e30, psi_u=math.pi / 3):
    """Synthetic scenario with zeta = 1 and a controllable nominal SNR.

    K=9, W=2 gives mu=4 and V^2 = 1/8, the worked-example geometry.  The
    nominal SNR is set through the transmit power; the default makes the
    noise term negligible.  Interferer phases step by 0.9 from 0.4, wrapped
    into (0, 2*pi).
    """
    psi = (psi_u,) + tuple((0.4 + 0.9 * j) % (2.0 * math.pi) for j in range(1, U))
    return Scenario(antenna=AntennaConfig(K=K, W=W),
                    budget=LinkBudget(P=gamma_snr * BASE_NOISE, G=1.0, B=1e7, T=207.0,
                                      f_c=30e9),
                    users=UserField(U=U, zeta=(1.0,) * U, psi=psi))


BASE_NOISE = 1.381e-23 * 207.0 * 1e7  # noise power of the synthetic budget


def outage_exact_double_integral(gamma, sc):
    """Outage P(SINR < gamma) as the integral of sinr_pdf_exact over
    (0, min(gamma, supremum)]: the density route that cross-checks
    metrics.outage_exact.

    SciPy quad runs in the angle domain z = supremum * cos^2(phi), whose
    Jacobian 2 * supremum * cos(phi) * sin(phi) cancels the density's
    sqrt(supremum - z) fall at the supremum, seeded at the angles of
    metrics._z_breakpoints; so it shares no quadrature engine with the code
    it checks.  Clamped to [0, 1] as outage_exact is, and flagged
    quadrature-limit where quad reports no convergence.
    """
    z_sup = sinr_supremum(sc)

    def angle(z):
        return math.acos(math.sqrt(z / z_sup))

    def integrand(phi):
        c = math.cos(phi)
        return sinr_pdf_exact(z_sup * c * c, sc, METRIC_SPEC) * (2.0 * z_sup * c * math.sin(phi))

    lo = angle(min(gamma, z_sup))
    seeds = sorted(p for p in map(angle, _z_breakpoints(sc)) if lo < p < 0.5 * math.pi)
    out = quad(integrand, lo, 0.5 * math.pi, points=seeds or None, epsabs=METRIC_SPEC.abs_tol,
               epsrel=METRIC_SPEC.rel_tol, limit=200, full_output=1)
    value, err = out[0], out[1]
    warnings = (WARN_QUAD_LIMIT,) if len(out) > 3 else ()  # a fourth item is quad's message
    return MetricResult(value=min(max(value, 0.0), 1.0), est_error=err, warnings=warnings)


def draw_block(seed, lo, hi, u):
    """Phases of trials [lo, hi) of the phase stream, shape (hi - lo, u), in
    one draw."""
    return next(phase_chunks(seed, lo, hi, u, hi - lo))[1]


def naive_block(sc, psi):
    """Straightforward full-cosine port sums, one interferer at a time: the
    kernel's reference, kept as the unblocked array code it replaced."""
    u, k, zeta, gamma = sc.users.U, sc.antenna.K, sc.users.zeta, sc.Gamma
    ports = 2.0 * math.pi * np.arange(1, k) / sc.mu
    cos0 = np.cos(psi[:, :1] + ports[None, :])
    mask = cos0 > 0.0
    amp = (cos0 * mask).sum(axis=1)
    alpha = zeta[0] * amp ** 2
    kbar = mask.sum(axis=1)
    ys = np.empty((psi.shape[0], u - 1))
    for j in range(1, u):
        s = (np.cos(psi[:, j:j + 1] + ports[None, :]) * mask).sum(axis=1)
        ys[:, j - 1] = zeta[j] * s ** 2
    beta = ys.sum(axis=1)
    denom = beta + kbar / (2.0 * gamma)
    sinr = np.divide(alpha, denom, out=np.zeros_like(alpha), where=denom > 0.0)
    return {"alpha": alpha, "ys": ys, "beta": beta, "sinr": sinr, "kbar": kbar}


def naive_negative_set(sc, psi):
    """Both activation sets from full cosines: the amplitudes the kernel
    returns, and the per-set SINR that only criterion 9 needs (reference)."""
    u, k, zeta, gamma = sc.users.U, sc.antenna.K, sc.users.zeta, sc.Gamma
    ports = 2.0 * math.pi * np.arange(1, k) / sc.mu
    cos0 = np.cos(psi[:, :1] + ports[None, :])
    mpos = cos0 > 0.0
    mneg = cos0 < 0.0
    sp = (cos0 * mpos).sum(axis=1)
    sn = (cos0 * mneg).sum(axis=1)
    beta_p = np.zeros(psi.shape[0])
    beta_n = np.zeros(psi.shape[0])
    for j in range(1, u):
        cj = np.cos(psi[:, j:j + 1] + ports[None, :])
        beta_p += zeta[j] * (cj * mpos).sum(axis=1) ** 2
        beta_n += zeta[j] * (cj * mneg).sum(axis=1) ** 2
    den_p = beta_p + mpos.sum(axis=1) / (2.0 * gamma)
    den_n = beta_n + mneg.sum(axis=1) / (2.0 * gamma)
    ap = zeta[0] * sp ** 2
    an = zeta[0] * sn ** 2
    return {"amp_pos": math.sqrt(zeta[0]) * sp,
            "amp_neg": math.sqrt(zeta[0]) * np.abs(sn),
            "sinr_pos": np.divide(ap, den_p, out=np.zeros_like(ap), where=den_p > 0.0),
            "sinr_neg": np.divide(an, den_n, out=np.zeros_like(an), where=den_n > 0.0)}


@pytest.fixture
def table_scenario():
    return reference_scenario()
