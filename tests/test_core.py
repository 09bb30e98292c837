import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satcuma.core import (PortSet, PortSetKind, activated_set, instant_sinr,
                          interference_power_compact, k2_residual_bound,
                          port_phase, signal_amplitude_bruteforce,
                          signal_power_compact, window_bounds)
from satcuma.scenario import AntennaConfig

CFG_MU4 = AntennaConfig(K=9, W=2)  # mu = 4, V^2 = 1/8


def brute_positive_sum(psi, cfg):
    """Independent enumeration oracle for the positive-cosine port sum."""
    total = 0.0
    for k in range(2, cfg.K + 1):
        c = math.cos(psi + 2 * math.pi * (k - 1) / cfg.mu_float)
        if c > 0:
            total += c
    return total


class TestActivatedSet:
    def test_worked_example_positive(self):
        ps = activated_set(math.pi / 3, CFG_MU4, PortSetKind.POSITIVE_INPHASE)
        assert ps.indices == (4, 5, 8, 9)
        assert len(ps) == (CFG_MU4.K - 1) // 2

    def test_worked_example_negative(self):
        ps = activated_set(math.pi / 3, CFG_MU4, PortSetKind.NEGATIVE_INPHASE)
        assert ps.indices == (2, 3, 6, 7)

    def test_boundary_phase_keeps_sets_disjoint(self):
        # psi = pi/2 puts ports on the cos = 0 boundary; in double precision
        # the cosines land at ~1e-16, so membership (strict inequality on the
        # computed value) assigns each port to exactly one set, and a port
        # would drop out of both only on an exact floating-point zero
        pos = activated_set(math.pi / 2, CFG_MU4, PortSetKind.POSITIVE_INPHASE)
        neg = activated_set(math.pi / 2, CFG_MU4, PortSetKind.NEGATIVE_INPHASE)
        assert set(pos.indices).isdisjoint(neg.indices)
        assert len(pos) + len(neg) == CFG_MU4.K - 1

    def test_sets_partition_ports(self):
        rng = np.random.default_rng(5)
        for psi in rng.uniform(0.01, 2 * math.pi - 0.01, 50):
            pos = activated_set(psi, CFG_MU4, PortSetKind.POSITIVE_INPHASE)
            neg = activated_set(psi, CFG_MU4, PortSetKind.NEGATIVE_INPHASE)
            assert set(pos.indices).isdisjoint(neg.indices)
            assert len(pos) + len(neg) == CFG_MU4.K - 1  # a.s. no boundary hits

    def test_reference_port_never_activated(self):
        with pytest.raises(ValueError, match="reference"):
            PortSet(indices=(1, 2), kind=PortSetKind.POSITIVE_INPHASE)

    def test_cardinality_even_mu(self):
        rng = np.random.default_rng(6)
        for cfg in (AntennaConfig(K=9, W=2), AntennaConfig(K=25, W=2),
                    AntennaConfig(K=61, W=3)):
            for psi in rng.uniform(0.01, 2 * math.pi - 0.01, 200):
                ps = activated_set(psi, cfg, PortSetKind.POSITIVE_INPHASE)
                assert len(ps) == (cfg.K - 1) // 2


class TestWindowBounds:
    def test_worked_example(self):
        wb = window_bounds(math.pi / 3, 4)
        assert (wb.k_low, wb.k_up) == (4, 5)
        assert not wb.degenerate

    def test_window_length_even_mu(self):
        rng = np.random.default_rng(7)
        for mu in (2, 4, 6, 10, 20):
            for psi in rng.uniform(0.01, 2 * math.pi - 0.01, 100):
                wb = window_bounds(psi, mu)
                if not wb.degenerate:
                    assert wb.k_up - wb.k_low + 1 == mu // 2

    def test_degenerate_boundary(self):
        # mu=4, psi=pi makes t*mu = 1 exactly; window picks up both boundary ports
        wb = window_bounds(math.pi, 4)
        assert wb.degenerate
        assert wb.k_up - wb.k_low + 1 == 4 // 2 + 1

    def test_window_matches_bruteforce_sum(self):
        # W * (window cosine sum) must equal the full positive-port sum
        rng = np.random.default_rng(8)
        for cfg in (CFG_MU4, AntennaConfig(K=41, W=4)):
            mu = cfg.mu_float
            for psi in rng.uniform(0.01, 2 * math.pi - 0.01, 100):
                wb = window_bounds(psi, mu)
                if wb.degenerate:
                    continue
                window = sum(math.cos(psi + 2 * math.pi * (k - 1) / mu)
                             for k in range(wb.k_low, wb.k_up + 1))
                assert cfg.W * window == pytest.approx(
                    brute_positive_sum(psi, cfg), abs=1e-10)

    def test_degenerate_window_still_matches_bruteforce(self):
        # at the boundary phase the window gains a cos ~ 0 port, which
        # contributes nothing to the sum, so the identity survives
        psi, cfg = math.pi, CFG_MU4
        wb = window_bounds(psi, cfg.mu_float)
        assert wb.degenerate
        window = sum(math.cos(psi + 2 * math.pi * (k - 1) / cfg.mu_float)
                     for k in range(wb.k_low, wb.k_up + 1))
        assert cfg.W * window == pytest.approx(
            brute_positive_sum(psi, cfg), abs=1e-10)


class TestSignalPower:
    def test_amplitude_worked_example(self):
        ps = activated_set(math.pi / 3, CFG_MU4, PortSetKind.POSITIVE_INPHASE)
        amp = signal_amplitude_bruteforce(math.pi / 3, 1.0, ps, CFG_MU4)
        assert amp == pytest.approx(1 + math.sqrt(3), rel=1e-12)  # 2.7320508

    def test_empty_set(self):
        empty = PortSet(indices=(), kind=PortSetKind.POSITIVE_INPHASE)
        assert signal_amplitude_bruteforce(1.0, 1.0, empty, CFG_MU4) == 0.0

    def test_compact_worked_example(self):
        alpha = signal_power_compact(math.pi / 3, 1.0, CFG_MU4)
        assert alpha == pytest.approx(4 + 2 * math.sqrt(3), rel=1e-12)  # 7.4641016

    def test_compact_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        for cfg in (AntennaConfig(K=5, W=2), CFG_MU4, AntennaConfig(K=21, W=2),
                    AntennaConfig(K=61, W=3), AntennaConfig(K=201, W=5)):
            scale = 1.0 / cfg.V ** 2
            for psi in rng.uniform(0.01, 2 * math.pi - 0.01, 300):
                brute = brute_positive_sum(psi, cfg) ** 2
                comp = signal_power_compact(psi, 1.0, cfg)
                assert abs(comp - brute) <= 1e-9 * max(brute, scale)

    def test_support_bounds(self):
        rng = np.random.default_rng(10)
        mu = CFG_MU4.mu_float
        lo = math.cos(math.pi / mu) ** 2 / CFG_MU4.V ** 2
        hi = 1.0 / CFG_MU4.V ** 2
        for psi in rng.uniform(0.01, 2 * math.pi - 0.01, 500):
            a = signal_power_compact(psi, 1.0, CFG_MU4)
            assert lo - 1e-9 <= a <= hi + 1e-9

    def test_large_mu_approaches_constant(self):
        cfg = AntennaConfig(K=2001, W=2)
        hi = 1.0 / cfg.V ** 2
        rng = np.random.default_rng(11)
        vals = [signal_power_compact(p, 1.0, cfg)
                for p in rng.uniform(0.01, 2 * math.pi - 0.01, 100)]
        assert min(vals) >= hi * math.cos(math.pi / cfg.mu_float) ** 2
        assert max(vals) / min(vals) - 1 < 1e-5

    def test_phase_periodicity(self):
        # shifting psi by 2*pi/mu permutes the ports and preserves the power
        rng = np.random.default_rng(12)
        for cfg in (CFG_MU4, AntennaConfig(K=21, W=2)):
            mu = cfg.mu_float
            for psi in rng.uniform(0.01, 2 * math.pi - 2 * math.pi / mu - 0.01, 200):
                a1 = signal_power_compact(psi, 1.0, cfg)
                a2 = signal_power_compact(psi + 2 * math.pi / mu, 1.0, cfg)
                assert a2 == pytest.approx(a1, abs=1e-9 * max(1, a1))

    def test_phase_shift_is_cyclic_port_shift(self):
        # the activation pattern at psi + 2*pi/mu is the pattern at psi
        # advanced by one port (port k sees the phase port k+1 saw)
        rng = np.random.default_rng(16)
        cfg = AntennaConfig(K=21, W=2)
        mu = cfg.mu_float
        ks = np.arange(2, cfg.K + 1)
        for psi in rng.uniform(0.01, 2 * math.pi - 2 * math.pi / mu - 0.01, 100):
            m1 = np.cos(port_phase(psi, ks, mu)) > 0
            m2 = np.cos(port_phase(psi + 2 * math.pi / mu, ks, mu)) > 0
            assert np.array_equal(m2[:-1], m1[1:])


class TestInterferencePower:
    def test_compact_worked_example(self):
        t = 0.75 - (math.pi / 3) / (2 * math.pi)
        y = interference_power_compact(math.pi / 2, 1.0, t, CFG_MU4)
        assert y == pytest.approx(4.0, rel=1e-12)

    def test_bruteforce_worked_example(self):
        ps = activated_set(math.pi / 3, CFG_MU4, PortSetKind.POSITIVE_INPHASE)
        s = signal_amplitude_bruteforce(math.pi / 2, 1.0, ps, CFG_MU4)
        assert s ** 2 == pytest.approx(4.0, rel=1e-12)

    def test_perfect_nulling(self):
        # choose psi_tilde so the sine argument is exactly pi
        t = 0.75 - (math.pi / 3) / (2 * math.pi)
        mu = CFG_MU4.mu_float
        shift = -math.pi / mu + (2 * math.pi / mu) * math.ceil(t * mu)
        y = interference_power_compact(math.pi - shift, 1.0, t, CFG_MU4)
        assert y == pytest.approx(0.0, abs=1e-25)

    def test_compact_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        for cfg in (CFG_MU4, AntennaConfig(K=41, W=2), AntennaConfig(K=61, W=3)):
            scale = 1.0 / cfg.V ** 2
            ks = np.arange(2, cfg.K + 1)
            for _ in range(300):
                psi_u, psi_t = rng.uniform(0.01, 2 * math.pi - 0.01, 2)
                cos0 = np.cos(port_phase(psi_u, ks, cfg.mu_float))
                mask = cos0 > 0
                brute = float((np.cos(port_phase(psi_t, ks, cfg.mu_float)) * mask).sum()) ** 2
                t = 0.75 - psi_u / (2 * math.pi)
                comp = interference_power_compact(psi_t, 1.0, t, cfg)
                assert abs(comp - brute) <= 1e-9 * max(brute, scale)

    def test_range(self):
        rng = np.random.default_rng(14)
        hi = 1.0 / CFG_MU4.V ** 2
        for _ in range(500):
            psi_u, psi_t = rng.uniform(0.01, 2 * math.pi - 0.01, 2)
            t = 0.75 - psi_u / (2 * math.pi)
            y = interference_power_compact(psi_t, 1.0, t, CFG_MU4)
            assert 0.0 <= y <= hi + 1e-9


class TestCompactFormProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(half_mu=st.integers(1, 30), W=st.integers(1, 5),
           psi_u=st.floats(1e-6, 2 * math.pi - 1e-6),
           psi_t=st.floats(1e-6, 2 * math.pi - 1e-6))
    def test_compact_forms_equal_bruteforce_at_even_mu(self, half_mu, W, psi_u, psi_t):
        cfg = AntennaConfig(K=2 * half_mu * W + 1, W=W)  # mu = 2*half_mu
        scale = 1.0 / cfg.V ** 2
        alpha = brute_positive_sum(psi_u, cfg) ** 2
        assert abs(signal_power_compact(psi_u, 1.0, cfg) - alpha) <= 1e-9 * max(alpha, scale)
        ks = np.arange(2, cfg.K + 1)
        mask = np.cos(port_phase(psi_u, ks, cfg.mu_float)) > 0
        y = float((np.cos(port_phase(psi_t, ks, cfg.mu_float)) * mask).sum()) ** 2
        t = 0.75 - psi_u / (2 * math.pi)
        assert abs(interference_power_compact(psi_t, 1.0, t, cfg) - y) <= 1e-9 * max(y, scale)


class TestCompactFormArrays:
    CFGS = (CFG_MU4, AntennaConfig(K=21, W=2), AntennaConfig(K=11, W=2),
            AntennaConfig(K=61, W=3))

    def test_signal_array_call_matches_scalar_calls(self):
        rng = np.random.default_rng(15)
        psi = rng.uniform(0.01, 2 * math.pi - 0.01, 400)
        for cfg in self.CFGS:
            arr = signal_power_compact(psi, 0.7, cfg)
            assert arr.shape == psi.shape
            scalar = np.array([signal_power_compact(p, 0.7, cfg) for p in psi])
            np.testing.assert_allclose(arr, scalar, rtol=1e-14, atol=0.0)

    def test_interference_array_call_broadcasts(self):
        # (n, 1) desired-user phases against (n, U-1) interferer phases and
        # (U-1,) path losses, as the validation suite calls it
        rng = np.random.default_rng(16)
        psi = rng.uniform(0.01, 2 * math.pi - 0.01, (300, 5))
        zeta = np.array([1.0, 0.5, 2.0, 0.25])
        for cfg in self.CFGS:
            t = 0.75 - psi[:, :1] / (2 * math.pi)
            arr = interference_power_compact(psi[:, 1:], zeta, t, cfg)
            assert arr.shape == (300, 4)
            scalar = np.array([[interference_power_compact(psi[i, j + 1], zeta[j],
                                                           t[i, 0], cfg)
                                for j in range(4)] for i in range(300)])
            np.testing.assert_allclose(arr, scalar, rtol=1e-14, atol=0.0)

    def test_scalar_calls_return_floats(self):
        t = 0.75 - (math.pi / 3) / (2 * math.pi)
        assert isinstance(signal_power_compact(math.pi / 3, 1.0, CFG_MU4), float)
        assert isinstance(interference_power_compact(math.pi / 2, 1.0, t, CFG_MU4), float)


class TestInstantSinr:
    def test_bruteforce_composition(self):
        # the desired user's positive set collects the interferer too
        pset = activated_set(math.pi / 3, CFG_MU4, PortSetKind.POSITIVE_INPHASE)
        alpha = signal_amplitude_bruteforce(math.pi / 3, 1.0, pset, CFG_MU4) ** 2
        y = signal_amplitude_bruteforce(math.pi / 2, 1.0, pset, CFG_MU4) ** 2
        assert alpha == pytest.approx(4 + 2 * math.sqrt(3), rel=1e-12)
        assert y == pytest.approx(4.0, rel=1e-12)
        assert instant_sinr(alpha, [y], len(pset), 10.0) == pytest.approx(
            alpha / (4.0 + 4 / 20), rel=1e-12)

    def test_worked_example(self):
        assert instant_sinr(4 + 2 * math.sqrt(3), [], 4, 10.0) == pytest.approx(
            (4 + 2 * math.sqrt(3)) / 0.2, rel=1e-12)  # 37.3205

    def test_zero_signal(self):
        assert instant_sinr(0.0, [1.0, 2.0], 4, 10.0) == 0.0

    def test_interference_limited_ratio(self):
        alpha, y = 7.4641, 4.0
        assert instant_sinr(alpha, [y], 4, 1e30) == pytest.approx(alpha / y, rel=1e-9)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            instant_sinr(1.0, [], 4, 0.0)

    def test_empty_activation_set_gives_zero(self):
        assert instant_sinr(0.0, [], 0, 10.0) == 0.0


class TestNegativeSetResidual:
    def test_reference_bound_is_one(self):
        cfg = AntennaConfig(K=61, W=3)
        assert k2_residual_bound(cfg) == pytest.approx(1.0, rel=1e-12)
        # small against the maximum amplitude 1/V
        assert k2_residual_bound(cfg) / (1 / cfg.V) == pytest.approx(0.052145, rel=1e-4)

    def test_upper_bound(self):
        for k, w in ((9, 2), (21, 2), (61, 3), (101, 5)):
            cfg = AntennaConfig(K=k, W=w)
            assert k2_residual_bound(cfg) <= 1.0 / math.sin(math.pi / cfg.mu_float) + 1e-12

    def test_vanishes_relative_to_amplitude_at_large_k(self):
        small = AntennaConfig(K=41, W=2)
        large = AntennaConfig(K=4001, W=2)
        rel_small = k2_residual_bound(small) * small.V
        rel_large = k2_residual_bound(large) * large.V
        assert rel_large < rel_small / 50

    def test_realized_gap_within_bound(self):
        rng = np.random.default_rng(15)
        for cfg in (CFG_MU4, AntennaConfig(K=61, W=3)):
            bound = k2_residual_bound(cfg)
            for psi in rng.uniform(0.01, 2 * math.pi - 0.01, 200):
                pos = activated_set(psi, cfg, PortSetKind.POSITIVE_INPHASE)
                neg = activated_set(psi, cfg, PortSetKind.NEGATIVE_INPHASE)
                s1 = signal_amplitude_bruteforce(psi, 1.0, pos, cfg)
                s2 = signal_amplitude_bruteforce(psi, 1.0, neg, cfg)
                assert abs(abs(s2) - s1) <= bound + 1e-9
