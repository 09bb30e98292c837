"""Oracle-vs-analytic validation suite.

Runs the brute-force Monte-Carlo oracle against every closed form for a
given scenario and reports one pass/fail line per check: compact-form
equivalence, distribution fits (KS), outage agreement, stochastic
dominance, signal/interference independence, and the negative-set residual
bound.

Checks that are only meaningful in a particular regime (the aggregate
interference CLT fit below the massive-access regime, the compact SINR
density at low port density, everything compact-form at odd density) are
reported as informational: their statistics appear in the table, their
result reads "info", and they do not affect the overall verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core, distributions as dist, metrics, montecarlo as mc
from .scenario import Scenario, phase_chunks, phase_offset

# fit tolerances as stated for n = 1e6 trials; below that, each check's
# effective threshold is floored at its own sampling-noise level so that a
# small --trials run stays meaningful without raising false alarms; the SINR
# fit is further floored at the aggregate interference model's own KS
# distance, the error it inherits from that model
KS_SIGNAL = 0.01
KS_INTERFERENCE = 0.01
KS_AGGREGATE = 0.02       # meaningful in the massive-access regime (U >= 20)
KS_SINR_COMPACT_MU = 10.0  # density at which the exact-fit bound tightens
KS_SINR_TIGHT = 0.01
KS_SINR_LOOSE = 0.015
KS_COMPACT_PDF = 0.10     # compact-form SINR fit bound at high density
OUTAGE_AGREEMENT = 0.01
INDEPENDENCE_BOUND = 0.01
EQUIVALENCE_REL = 1e-9
FSD_SIGMA = 3.0
EQUIVALENCE_SUBSAMPLE = 20000
NEGATIVE_SET_TRIALS = 100000
_EQUIVALENCE_CHUNK = 2048  # trials per chunk of the compact-form comparison

_KS_NOISE_MULT = 2.5      # ~99.99% two-sided KS quantile multiplier
_CORR_NOISE_MULT = 4.0    # max over interferers of a null correlation


def _ks_floor(stated: float, n: int) -> float:
    return max(stated, _KS_NOISE_MULT / math.sqrt(n))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    note: str = ""
    informational: bool = False


@dataclass
class ValidationReport:
    scenario_label: str
    n_trials: int
    master_seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def render(self) -> str:
        lines = [
            f"validation: {self.scenario_label}  trials={self.n_trials}  seed={self.master_seed}",
            "-" * 78,
            f"{'check':34s} {'result':6s} {'statistic':>12s} {'threshold':>12s}  note",
        ]
        for c in self.checks:
            verdict = "info" if c.informational else ("PASS" if c.passed else "FAIL")
            lines.append(f"{c.name:34s} {verdict:6s} {c.statistic:12.5g} "
                         f"{c.threshold:12.5g}  {c.note}")
        lines.append("-" * 78)
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _scenario_label(sc: Scenario) -> str:
    return (f"K={sc.antenna.K} W={sc.antenna.W} U={sc.users.U} "
            f"mu={sc.antenna.mu} B={sc.budget.B:g}")


def _compact_equivalence(sc: Scenario, master_seed: int, alpha: np.ndarray,
                         ys: np.ndarray) -> float:
    """Worst relative deviation between compact and brute-force powers.

    alpha and ys are the brute-force powers of the first trials of a pass
    seeded master_seed.  Their phases are drawn again from the pass's
    stream, _EQUIVALENCE_CHUNK trials at a time into one reused buffer, and
    each chunk's compact powers are compared with its rows, so the scratch
    holds one chunk.  Deviations are normalized by the power scale zeta/V^2
    so phase-nulled interference (power ~ 0) does not blow up the ratio.
    """
    cfg, u, n = sc.antenna, sc.users.U, alpha.size
    zeta = np.asarray(sc.users.zeta)
    scale = zeta.max() / cfg.V ** 2
    worst = 0.0
    for c, psi in phase_chunks(master_seed, 0, n, u, _EQUIVALENCE_CHUNK):
        r = slice(c, c + psi.shape[0])
        a_comp = core.signal_power_compact(psi[:, 0], zeta[0], cfg)
        t = phase_offset(psi[:, :1])
        y_comp = core.interference_power_compact(psi[:, 1:], zeta[1:], t, cfg)
        dev = np.concatenate([
            (np.abs(a_comp - alpha[r]) / np.maximum(alpha[r], scale)).ravel(),
            (np.abs(y_comp - ys[r]) / np.maximum(ys[r], scale)).ravel()])
        worst = np.maximum(worst, dev.max())  # np.maximum keeps a NaN
    return float(worst)


def run_validation(sc: Scenario, n_trials: int, master_seed: int,
                   workers: int = 1, gamma: float = 0.35) -> ValidationReport:
    """Run the full suite; see module docstring for the check list."""
    report = ValidationReport(scenario_label=_scenario_label(sc),
                              n_trials=n_trials, master_seed=master_seed)
    even = sc.antenna.mu_is_even_integer
    mu, V = sc.mu, sc.V
    zeta_u = sc.zeta_u

    def check(name, statistic, threshold, gating=True, note="", passed=None):
        # passed overrides the rule statistic <= threshold
        report.checks.append(CheckResult(
            name=name, passed=statistic <= threshold if passed is None else passed,
            statistic=statistic, threshold=threshold, note=note, informational=not gating))

    # one brute-force pass; the negative-set amplitudes cover its first trials
    n_k2 = min(n_trials, NEGATIVE_SET_TRIALS)
    batch = mc.run_trials(sc, n_trials, master_seed, workers=workers, k2_trials=n_k2)

    # 1. compact-form equivalence on the first trials of the batch
    n_sub = min(n_trials, EQUIVALENCE_SUBSAMPLE)
    dev = _compact_equivalence(sc, master_seed, batch.alpha[:n_sub], batch.ys[:n_sub])
    check("compact-form-equivalence", dev, EQUIVALENCE_REL, even,
          "" if even else "odd density: compact forms only empirically valid")

    # 2. activated-port count
    expect = sc.Kbar
    frac = float((batch.kbar == expect).mean()) if even else float(np.mean(batch.kbar) / expect)
    check("activated-port-count", frac, 1.0, even,
          "fraction with (K-1)/2 ports" if even else "mean count / ((K-1)/2)",
          passed=frac == 1.0 or not even)

    # 3-4. per-variable distribution fits
    d_alpha = mc.ks_distance(batch.alpha, lambda a: dist.signal_cdf(a, zeta_u, mu, V))
    check("signal-distribution-fit", d_alpha, _ks_floor(KS_SIGNAL, n_trials), even)

    if sc.users.U > 1:
        z1 = sc.users.zeta[1]
        d_y = mc.ks_distance(batch.ys[:, 0], lambda y: dist.interference_cdf_per_user(y, z1, V))
        check("interference-distribution-fit", d_y, _ks_floor(KS_INTERFERENCE, n_trials),
              even)

        # 5. aggregate interference CLT fit
        law = dist.sinr_law(sc)
        d_b = mc.ks_distance(batch.beta, lambda b: dist.total_interference_cdf(b, law))
        clt_regime = sc.users.U >= 20
        check("aggregate-interference-fit", d_b, _ks_floor(KS_AGGREGATE, n_trials),
              clt_regime and even, "" if clt_regime else "below massive-access regime")

        # 6. SINR distribution fit against the exact analytic CDF.  Signal
        # and interference are independent, so F_SINR(z) = E[1 - F_beta(
        # alpha/z - n)] and the SINR law cannot fit better than the
        # aggregate model it is built on: the threshold is floored at that
        # model's own KS distance plus the sampling allowance
        zg = np.linspace(max(batch.sinr.min() * 0.999, 1e-12), batch.sinr.max() * 1.001, 3000)
        Fg = metrics.outage_exact_curve(zg, sc)
        d_sinr = mc.ks_distance(batch.sinr, lambda z: np.interp(z, zg, Fg))
        thr = max(_ks_floor(KS_SINR_TIGHT if mu >= KS_SINR_COMPACT_MU
                            else KS_SINR_LOOSE, n_trials),
                  d_b + _KS_NOISE_MULT / math.sqrt(n_trials))
        check("sinr-distribution-fit", d_sinr, thr, even)

        # 7. compact SINR form: expected to fit only at high density
        d_cmp = mc.ks_distance(batch.sinr, lambda z: dist.sinr_cdf_compact(z, sc))
        compact_regime = mu >= KS_SINR_COMPACT_MU
        check("sinr-compact-fit", d_cmp, _ks_floor(KS_COMPACT_PDF, n_trials),
              compact_regime and even,
              "" if compact_regime else "expected-fail below compact regime")

    # 8. outage agreement at the reference threshold
    emp, ci_lo, ci_hi = mc.empirical_outage(batch, gamma)
    ana = metrics.outage_exact(gamma, sc).value
    diff = abs(ana - emp)
    thr_out = max(OUTAGE_AGREEMENT, 4.0 * math.sqrt(0.25 / n_trials))
    if even:
        check("outage-agreement", diff, thr_out,
              note=f"gamma={gamma:g} empirical CI [{ci_lo:.4f}, {ci_hi:.4f}]")
    else:
        check("outage-agreement", diff, thr_out,
              note=f"gamma={gamma:g} odd density: analytic must not undershoot",
              passed=ana >= emp - 3.0 * math.sqrt(max(emp * (1 - emp), 1e-12) / n_trials))

    # 9. first-order stochastic dominance of signal power over interference
    if sc.users.U > 1:
        hi = max(zeta_u, sc.users.zeta[1]) / V ** 2
        thresholds = np.linspace(0.0, hi, 1000)
        Fa = mc.empirical_cdf(batch.alpha, thresholds)
        Fy = mc.empirical_cdf(batch.ys[:, 0], thresholds)
        sigma = np.sqrt(Fa * (1 - Fa) / n_trials + Fy * (1 - Fy) / n_trials)
        margin = float(np.max(Fa - Fy - FSD_SIGMA * sigma))
        check("stochastic-dominance", margin, 0.0,
              note="max(F_signal - F_interference - 3*sigma)")

        # 10. independence of signal and each interferer power
        worst_corr = max(abs(float(np.corrcoef(batch.alpha, batch.ys[:, j])[0, 1]))
                         for j in range(batch.ys.shape[1]))
        check("signal-interference-independence", worst_corr,
              max(INDEPENDENCE_BOUND, _CORR_NOISE_MULT / math.sqrt(n_trials)))

    # 11. negative-set residual bound
    bound = core.k2_residual_bound(sc.antenna) * math.sqrt(zeta_u)
    worst_gap = float(np.max(np.abs(batch.amp_neg - batch.amp_pos)))
    check("negative-set-residual", worst_gap, bound, note=f"over {n_k2} trials")

    return report
