"""Reference combiners and comparison logic.

MRC and ZF baselines for the identical-angle LoS uplink, the closed-form
beamforming gains of the aggregated-port receiver, and the port-count
thresholds at which it overtakes MRC.  The ZF Monte-Carlo, zf_sinr_mc, is
a test oracle: the identical-angle channel is rank one, so every trial is a
combiner failure whose SINR is mrc_sinr, which fig3 states in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import cuma_signal_gain, window_phase
from .metrics import MetricResult, ergodic_rate
from .scenario import Scenario, UserField


def mrc_sinr(M: int, zeta_list, Gamma: float) -> float:
    """MRC SINR under identical angles: M*zeta_u / (M*sum(zeta_others) + 1/Gamma),
    with zeta_list[0] the desired user's.

    Signal and interference receive the same array gain M, so MRC only
    suppresses noise in this geometry.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    zu, *zs = zeta_list
    return M * zu / (M * sum(zs) + 1.0 / Gamma)


def mrc_mean_snr(M: int, zeta_u: float, Gamma: float) -> float:
    """Noise-limited MRC SNR, M*zeta_u*Gamma."""
    return M * zeta_u * Gamma


def cuma_beamforming_gains(K: int, psi_tilde_list, t: float, mu: float):
    """Signal and per-interferer power gains in the compact regime.

    The interferer gain is the signal gain scaled by the phase-dependent
    suppression sin^2(window_phase(psi_tilde, t, mu)); it equals the signal
    gain when the interferer phase aligns with the signal's.
    """
    g = cuma_signal_gain(K)
    gains = tuple(g * math.sin(window_phase(p, t, mu)) ** 2 for p in psi_tilde_list)
    return g, gains


def interferer_suppression(psi_tilde: float, t: float, mu: float) -> float:
    """Suppression factor delta = 1 - sin^2(window_phase(psi_tilde, t, mu))."""
    return 1.0 - math.sin(window_phase(psi_tilde, t, mu)) ** 2


def min_ports_vs_mrc(M: int, Gamma: float, zeta_list, delta_list,
                     epsilon: float, W: int) -> int:
    """Smallest port count K at which the aggregated-port receiver beats
    MRC with M antennas, subject to the density floor mu >= epsilon.

    K must exceed max(ceil((pi^2 M/4) / (M*Gamma*sum(zeta*delta) + 1)),
    ceil(epsilon*W)) by more than one.  delta_list holds each interferer's
    suppression (interferer_suppression), evaluated at the scenario's own
    mu.  delta changes with mu, so a bound computed at one K need not hold
    at another.
    """
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be an integer >= 1, got {M}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    zetas, deltas = list(zeta_list), list(delta_list)
    if len(zetas) != len(deltas):
        raise ValueError(f"{len(zetas)} zeta entries but {len(deltas)} delta entries")
    for d in deltas:
        if not (0.0 <= d <= 1.0):
            raise ValueError(f"delta entries must lie in [0, 1], got {d}")
    s = sum(z * d for z, d in zip(zetas, deltas))
    gain_term = math.ceil((math.pi ** 2 * M / 4.0) / (M * Gamma * s + 1.0))
    return max(gain_term, math.ceil(epsilon * W)) + 2


def min_ports_noise_limited(M: int, epsilon: float, W: int) -> int:
    """Worst case for the aggregator, min_ports_vs_mrc with Gamma -> 0:
    K > max(ceil(pi^2 M/4), ceil(eps W)) + 1."""
    return min_ports_vs_mrc(M, 0.0, [], [], epsilon, W)


def min_ports_interference_limited(epsilon: float, W: int) -> int:
    """Interference-limited regime: the aggregator always wins once the
    density floor is met, K > ceil(eps W) + 1."""
    return math.ceil(epsilon * W) + 2


_SV_CUTOFF = 1e-8  # relative singular-value cutoff of the ZF pseudo-inverse


@dataclass(frozen=True)
class ZfMonteCarlo:
    """Post-combining SINR statistics of the zero-forcing baseline."""

    mean: float
    variance: float
    n_trials: int
    combiner_failures: int


def zf_sinr_mc(M: int, sc: Scenario, trials: int, seed: int,
               channel_fn=None) -> ZfMonteCarlo:
    """Monte-Carlo zero-forcing SINR for the desired user.

    Per trial the combiner is the desired user's row of the pseudo-inverse
    of the M x U channel matrix, with singular values below
    1e-8 * sigma_max (_SV_CUTOFF) discarded.  Trials whose numerical rank is
    below U are counted as combiner failures; their (least-squares) SINR
    still enters the statistics.  The LoS phases are drawn as rng.random(U)
    per trial; channel_fn(rng, M, U) may supply a synthetic M x U channel
    instead, for testing, called once per trial with the one generator.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    U = sc.users.U
    amplitude = np.sqrt(np.asarray(sc.users.zeta))
    steering = np.exp(1j * math.pi * np.arange(M))  # half-wavelength, in-line
    rng = np.random.Generator(np.random.Philox(key=seed))
    sinrs = np.empty(trials)
    failures = 0
    for i in range(trials):
        if channel_fn is not None:
            H = np.asarray(channel_fn(rng, M, U), dtype=complex)
        else:
            psi = rng.random(U) * 2.0 * math.pi
            H = steering[:, None] * (amplitude * np.exp(1j * psi))[None, :]
        u_, s_, vh = np.linalg.svd(H, full_matrices=False)
        keep = s_ >= _SV_CUTOFF * s_[0]
        failures += int(keep.sum() < U)
        w = (vh[keep, 0].conj() / s_[keep]) @ u_[:, keep].conj().T  # pinv row 0
        gains = np.abs(w @ H) ** 2
        sinrs[i] = gains[0] / (gains[1:].sum() + np.vdot(w, w).real / sc.Gamma)
    return ZfMonteCarlo(mean=float(sinrs.mean()), variance=float(sinrs.var()),
                        n_trials=trials, combiner_failures=failures)


def single_user_scenario(sc: Scenario) -> Scenario:
    """Strip a scenario down to its desired user."""
    users = UserField(U=1, zeta=(sc.users.zeta[0],), psi=(sc.users.psi[0],))
    return replace(sc, users=users)


def ocuma_rate(sc: Scenario) -> MetricResult:
    """Orthogonal-access rate: one user at a time with the full band.

    Evaluated as the single-user ergodic rate with prefactor B; the input
    scenario's U is ignored apart from selecting the desired user.
    """
    return ergodic_rate(single_user_scenario(sc), outage="exact")
