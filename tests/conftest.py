import math

import pytest

from satcuma import build_scenario, table_default_config
from satcuma.scenario import AntennaConfig, LinkBudget, Scenario, UserField


def reference_scenario(K=21, W=2, U=5, **over):
    """Standard LEO uplink scenario (30 GHz, 10 MHz, 1 W, 40 dBi, 1200 km)."""
    return build_scenario(table_default_config(K=K, W=W, U=U, **over))


def unit_scenario(K=9, W=2, U=5, gamma_snr=1e30, psi_u=math.pi / 3):
    """Synthetic scenario with zeta = 1 and a controllable nominal SNR.

    K=9, W=2 gives mu=4 and V^2 = 1/8, the worked-example geometry.  The
    nominal SNR is set through the transmit power; the default makes the
    noise term negligible.
    """
    psi = (psi_u,) + tuple(0.4 + 0.9 * j for j in range(1, U))
    return Scenario(antenna=AntennaConfig(K=K, W=W),
                    budget=LinkBudget(P=gamma_snr * BASE_NOISE, G=1.0, B=1e7, T=207.0),
                    users=UserField(U=U, zeta=(1.0,) * U, psi=psi))


BASE_NOISE = 1.381e-23 * 207.0 * 1e7  # noise power of the synthetic budget


@pytest.fixture
def table_scenario():
    return reference_scenario()
