"""Port activation and instantaneous power/SINR computation.

Two independent routes to the same quantities live here.  The brute-force
route enumerates ports, applies the sign rule and sums channel cosines
explicitly; it is the reference used to validate everything else.  The
compact route evaluates the closed forms for signal and interference power
that hold exactly when the port density mu is an even integer (and remain
empirically accurate at high density for any mu).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scenario import AntennaConfig, phase_offset


class PortSetKind(enum.Enum):
    POSITIVE_INPHASE = "K1"
    NEGATIVE_INPHASE = "K2"


@dataclass(frozen=True)
class PortSet:
    """Activated port indices (port 1 is the reference, never included)."""

    indices: tuple
    kind: PortSetKind

    def __post_init__(self):
        if 1 in self.indices:
            raise ValueError("port 1 is the reference port and cannot be activated")

    def __len__(self):
        return len(self.indices)


class WindowBounds(NamedTuple):
    k_low: int
    k_up: int
    degenerate: bool


def port_phase(psi: float, k, mu: float):
    """In-phase channel angle psi + 2*pi*(k-1)/mu at port k."""
    return psi + 2.0 * math.pi * (np.asarray(k) - 1) / mu


def activated_set(psi_u: float, cfg: AntennaConfig, kind: PortSetKind) -> PortSet:
    """Ports in {2..K} whose in-phase channel has the requested sign.

    Ports sitting exactly on the cos() = 0 boundary belong to neither set,
    which keeps the two sets disjoint; under continuous phases this is a
    measure-zero event.
    """
    ks = np.arange(2, cfg.K + 1)
    c = np.cos(port_phase(psi_u, ks, cfg.mu_float))
    if kind is PortSetKind.POSITIVE_INPHASE:
        mask = c > 0.0
    else:
        mask = c < 0.0
    return PortSet(indices=tuple(int(k) for k in ks[mask]), kind=kind)


def window_bounds(psi_u: float, mu) -> WindowBounds:
    """Single-wavelength window of positive-cosine ports.

    k_low = ceil((3/4 - psi/2pi)*mu) + 1 and k_up = floor((5/4 - psi/2pi)*mu) + 1.
    For even mu and non-degenerate psi the window has exactly mu/2 ports
    (k_up = k_low + mu/2 - 1).  The degenerate flag marks the measure-zero
    phases where either bound expression lands on an exact integer; there
    the window gains one boundary port and brute force is authoritative.
    """
    mu = float(mu)
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    a = phase_offset(psi_u) * mu
    b = (1.25 - psi_u / (2.0 * math.pi)) * mu
    degenerate = (a == math.floor(a)) or (b == math.floor(b))
    k_low = int(math.ceil(a)) + 1
    k_up = int(math.floor(b)) + 1
    return WindowBounds(k_low=k_low, k_up=k_up, degenerate=degenerate)


def signal_amplitude_bruteforce(psi_u: float, zeta_u: float, port_set: PortSet,
                                cfg: AntennaConfig) -> float:
    """Signed aggregated amplitude sqrt(zeta_u) * sum of port cosines."""
    if not port_set.indices:
        return 0.0
    ks = np.asarray(port_set.indices)
    return math.sqrt(zeta_u) * float(np.cos(port_phase(psi_u, ks, cfg.mu_float)).sum())


def window_phase(psi_tilde, t, mu: float):
    """Phase psi_tilde - pi/mu + (2*pi/mu)*ceil(t*mu) of the compact forms,
    t the desired user's phase offset; scalars or arrays, which broadcast."""
    return psi_tilde - math.pi / mu + (2.0 * math.pi / mu) * np.ceil(t * mu)


def cuma_signal_gain(K: int) -> float:
    """Compact-regime beamforming gain 4(K-1)/pi^2 on the desired signal."""
    return 4.0 * (K - 1) / math.pi ** 2


def signal_power_compact(psi_u, zeta_u, cfg: AntennaConfig):
    """Closed-form in-phase signal power of the positive-cosine port set.

    zeta_u * cos^2(window_phase(-2*pi*t, t, mu)) / V^2 with t the phase
    offset of psi_u and V = sin(pi/mu)/W.  Exact for even integer mu.
    Accepts scalars or NumPy arrays, which broadcast.
    """
    t = phase_offset(np.asarray(psi_u))
    return zeta_u * np.cos(window_phase(-2.0 * math.pi * t, t, cfg.mu_float)) ** 2 / cfg.V ** 2


def interference_power_compact(psi_tilde, zeta_tilde, t, cfg: AntennaConfig):
    """Closed-form per-interferer power collected on the desired user's set,
    zeta * sin^2(window_phase(psi_tilde, t, mu)) / V^2, where t is the
    desired user's phase offset.  Accepts scalars or NumPy arrays, which
    broadcast.
    """
    x = window_phase(np.asarray(psi_tilde), np.asarray(t), cfg.mu_float)
    return zeta_tilde * np.sin(x) ** 2 / cfg.V ** 2


def instant_sinr(alpha: float, y_list, kbar: float, gamma: float) -> float:
    """In-phase SINR alpha / (sum(y) + kbar/(2*gamma)).

    An empty activation set (kbar = 0 with no interference) collects
    nothing; the SINR is zero by convention rather than 0/0.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    denom = sum(y_list) + kbar / (2.0 * gamma)
    return alpha / denom if denom > 0.0 else 0.0


def k2_residual_bound(cfg: AntennaConfig) -> float:
    """Amplitude bound |sin(pi*K/mu)| / sin(pi/mu) on the gap between the
    positive-set and negative-set aggregated amplitudes.

    The full-aperture cosine sum over all K-1 ports spans exactly W whole
    wavelengths, so the realized gap is zero up to rounding; this bound is
    the loose guarantee that holds without that observation.
    """
    mu = cfg.mu_float
    return abs(math.sin(math.pi * cfg.K / mu)) / math.sin(math.pi / mu)
