import math
from dataclasses import replace

import numpy as np
import pytest

from satcuma.benchmarks import (GainComparison, MrcConfig, cuma_beamforming_gains,
                                cuma_signal_gain, gain_comparison,
                                interferer_suppression,
                                min_ports_interference_limited,
                                min_ports_noise_limited, min_ports_vs_mrc,
                                mrc_mean_snr, mrc_sinr, ocuma_rate,
                                single_user_scenario, zf_sinr_mc)
from satcuma import benchmarks, sweep
from satcuma.sweep import preset_sweeps, run_sweep
from satcuma.metrics import ergodic_rate, mean_snr
from satcuma.core import ceil_t_mu

from conftest import reference_scenario


class TestMrc:
    def test_worked_example(self):
        # M=3, four equal unit interferers, Gamma=10
        assert mrc_sinr(3, [1.0] * 5, 10.0) == pytest.approx(3.0 / 12.1, rel=1e-12)

    def test_interference_limited_antenna_count_cancels(self):
        for m in (1, 3, 18):
            v = mrc_sinr(m, [1.0] * 5, 1e30)
            assert v == pytest.approx(1.0 / 4.0, rel=1e-9)

    def test_siso_noise_only(self):
        assert mrc_sinr(1, [2.0], 10.0) == pytest.approx(2.0 * 10.0, rel=1e-12)

    def test_mean_snr(self):
        assert mrc_mean_snr(18, 2.0, 5.0) == 180.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MrcConfig(M=0)
        with pytest.raises(ValueError):
            mrc_sinr(0, [1.0], 1.0)


class TestBeamformingGains:
    def test_signal_gain_value(self):
        assert cuma_signal_gain(61) == pytest.approx(240.0 / math.pi ** 2, rel=1e-12)
        assert cuma_signal_gain(61) == pytest.approx(24.317, abs=5e-4)

    def test_aligned_interferer_has_full_gain(self):
        # interferer phase equal to the signal phase: suppression factor 1
        mu, psi_u = 10.0, 1.3
        t = 0.75 - psi_u / (2.0 * math.pi)
        g, gains = cuma_beamforming_gains(21, [psi_u], t, mu)
        # sin^2 argument for psi_tilde = psi_u reproduces the signal cos^2 form
        assert gains[0] <= g
        assert interferer_suppression(psi_u, t, mu) >= 0.0

    def test_nulling_phase(self):
        mu = 10.0
        t = 0.3
        shift = -math.pi / mu + (2.0 * math.pi / mu) * ceil_t_mu(t, mu)
        psi_null = math.pi - shift
        _, gains = cuma_beamforming_gains(21, [psi_null], t, mu)
        assert gains[0] == pytest.approx(0.0, abs=1e-20)

    def test_interferer_gain_bounded_by_signal_gain(self):
        rng = np.random.default_rng(40)
        g, gains = cuma_beamforming_gains(
            51, list(rng.uniform(0.01, 6.2, 64)), 0.25, 10.0)
        assert all(0.0 <= x <= g + 1e-12 for x in gains)

    def test_maxima_pattern_with_pi_signal_phase(self):
        # psi_u = pi, K=51, W=5 (mu=10): interferer gain is maximal near
        # phases 0, pi and 2*pi
        t = 0.75 - math.pi / (2.0 * math.pi)
        g, gains = cuma_beamforming_gains(
            51, [0.01, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi - 0.01],
            t, 10.0)
        assert gains[0] > 0.99 * g
        assert gains[2] > 0.99 * g
        assert gains[4] > 0.99 * g
        assert gains[1] < 0.01 * g
        assert gains[3] < 0.01 * g


class TestMinPorts:
    def test_noise_limited_example(self):
        # M=18, eps=7, W=3: ceil(pi^2*18/4) = 45 dominates ceil(21) = 21
        assert min_ports_noise_limited(18, 7.0, 3) == 47

    def test_interference_limited_example(self):
        assert min_ports_interference_limited(7.0, 3) == 23

    def test_single_antenna_case(self):
        # M=1: ceil(pi^2/4) = 3; the density floor dominates for eps*W > 3
        assert min_ports_noise_limited(1, 7.0, 3) == math.ceil(21) + 2

    def test_general_form_reduces_to_noise_limited(self):
        # delta = 1 with vanishing Gamma reproduces the worst case
        got = min_ports_vs_mrc(18, 1e-30, [1.0] * 4, [1.0] * 4, 7.0, 3)
        assert got == min_ports_noise_limited(18, 7.0, 3)

    def test_strong_interference_lowers_threshold(self):
        strong = min_ports_vs_mrc(18, 1e30, [1.0] * 4, [1.0] * 4, 7.0, 3)
        assert strong == min_ports_interference_limited(7.0, 3)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            min_ports_vs_mrc(3, 1.0, [1.0], [1.0], 0.0, 3)

    def test_gain_comparison_bundle(self, table_scenario):
        gc = gain_comparison(table_scenario, M=18)
        assert isinstance(gc, GainComparison)
        assert gc.cuma_gain == pytest.approx(cuma_signal_gain(21), rel=1e-12)
        assert gc.min_ports >= 2
        assert all(0.0 <= d <= 1.0 for d in gc.delta)


def _trial_channel(rng, M, sc, channel_fn):
    """One trial's M x U channel, drawn as the per-trial loop drew it."""
    U = sc.users.U
    if channel_fn is not None:
        return np.asarray(channel_fn(rng, M, U), dtype=complex)
    psi = rng.random(U) * 2.0 * math.pi
    steering = np.exp(1j * math.pi * np.arange(M))
    return steering[:, None] * (np.sqrt(np.asarray(sc.users.zeta)) * np.exp(1j * psi))[None, :]


def _zf_loop_reference(M, sc, trials, seed, channel_fn=None):
    """The per-trial loop that the batched zf_sinr_mc replaced, kept as its
    reference: (mean, variance, combiner failures)."""
    U = sc.users.U
    rng = np.random.Generator(np.random.Philox(key=seed))
    sinrs = np.empty(trials)
    failures = 0
    for i in range(trials):
        H = _trial_channel(rng, M, sc, channel_fn)
        u_, s_, vh = np.linalg.svd(H, full_matrices=False)
        keep = s_ >= 1e-8 * s_[0]
        if keep.sum() < U:
            failures += 1
        pinv = (vh[keep].conj().T / s_[keep]) @ u_[:, keep].conj().T
        w = pinv[0]
        gains = np.abs(w @ H) ** 2
        noise = float(np.vdot(w, w).real) / sc.Gamma
        sinrs[i] = gains[0] / (gains[1:].sum() + noise)
    return float(sinrs.mean()), float(sinrs.var()), failures


def _gaussian(rng, m, u, scale):
    return (rng.standard_normal((m, u)) + 1j * rng.standard_normal((m, u))) * scale


def _full_rank_channel(zeta):
    """Rayleigh channel at the scenario's path loss (full rank for M >= U)."""
    return lambda rng, m, u: _gaussian(rng, m, u, math.sqrt(zeta / 2.0))


def _varying_rank_channel(zeta):
    """Channel of rank r, drawn per trial from 1..U, scaled per trial by up to
    1e5 either way around the scenario's path loss: each trial's singular
    values must be cut against its own largest one."""
    def channel(rng, m, u):
        r = int(rng.integers(1, u + 1))
        scale = 10.0 ** rng.uniform(-5.0, 5.0) * math.sqrt(zeta / (4.0 * r))
        return _gaussian(rng, m, r, 1.0) @ _gaussian(rng, r, u, scale)
    return channel


class TestZeroForcingBatch:
    # (channel, M): the LoS default is rank one, so every trial fails and
    # the SINR spread is rounding noise; M=3 < U=5 leaves no full-rank trial
    CASES = [("los", 15), ("full-rank", 8), ("varying-rank", 8), ("full-rank", 3)]

    @pytest.mark.parametrize("channel,M", CASES)
    @pytest.mark.parametrize("stack_trials", [None, 7])
    def test_matches_per_trial_loop(self, table_scenario, monkeypatch, channel, M,
                                    stack_trials):
        sc = table_scenario
        zeta = sc.users.zeta[0]
        channel_fn = {"los": None, "full-rank": _full_rank_channel(zeta),
                      "varying-rank": _varying_rank_channel(zeta)}[channel]
        if stack_trials:  # trials then span many stacks, the last one partial
            monkeypatch.setattr(benchmarks, "_ZF_STACK_ENTRIES", stack_trials * M * sc.users.U)
        trials = 303
        mean, var, failures = _zf_loop_reference(M, sc, trials, 17, channel_fn)
        r = zf_sinr_mc(M, sc, trials, 17, channel_fn)
        assert r.n_trials == trials
        assert r.combiner_failures == failures
        assert r.mean == pytest.approx(mean, rel=1e-12)
        assert r.variance == pytest.approx(var, rel=1e-12, abs=1e-12 * mean ** 2)
        if channel == "varying-rank":
            assert 0 < failures < trials
        elif channel == "full-rank" and M >= sc.users.U:
            assert failures == 0
        else:
            assert failures == trials

    @pytest.mark.parametrize("channel", ["los", "full-rank"])
    def test_stacks_channels_in_trial_draw_order(self, table_scenario, monkeypatch,
                                                 channel):
        # mean and variance cannot tell the trial order apart, so pin the
        # stacked channels themselves against the per-trial draws
        sc, M, trials = table_scenario, 6, 11
        channel_fn = None if channel == "los" else _full_rank_channel(sc.users.zeta[0])
        stacks = []
        zf_sinr = benchmarks._zf_sinr
        monkeypatch.setattr(benchmarks, "_zf_sinr",
                            lambda H, gamma: stacks.append(H) or zf_sinr(H, gamma))
        monkeypatch.setattr(benchmarks, "_ZF_STACK_ENTRIES", 4 * M * sc.users.U)
        zf_sinr_mc(M, sc, trials, 5, channel_fn)
        rng = np.random.Generator(np.random.Philox(key=5))
        want = np.stack([_trial_channel(rng, M, sc, channel_fn) for _ in range(trials)])
        assert [len(h) for h in stacks] == [4, 4, 3]
        assert np.array_equal(np.concatenate(stacks), want)


class TestZeroForcing:
    def test_orthogonal_channels_remove_interference(self, table_scenario):
        # synthetic geometry: orthonormal columns scaled by sqrt(zeta)
        zeta = np.asarray(table_scenario.users.zeta)

        def channel(rng, m, u):
            h = np.zeros((m, u), dtype=complex)
            for j in range(u):
                h[j, j] = math.sqrt(zeta[j]) * math.sqrt(m)
            return h

        r = zf_sinr_mc(15, table_scenario, trials=8, seed=1, channel_fn=channel)
        assert r.combiner_failures == 0
        # per-stream SNR: |h_u|^2 * Gamma
        expected = 15 * zeta[0] * table_scenario.Gamma
        assert r.mean == pytest.approx(expected, rel=1e-9)
        assert r.variance == pytest.approx(0.0, abs=1e-12 * expected ** 2)

    def test_identical_angles_fail_and_track_mrc(self, table_scenario):
        # rank-one geometry: every trial is a combiner failure and the
        # regularized combiner cannot beat maximum-ratio combining
        r = zf_sinr_mc(15, table_scenario, trials=64, seed=2)
        assert r.combiner_failures == 64
        mrc = mrc_sinr(15, list(table_scenario.users.zeta), table_scenario.Gamma)
        assert r.mean <= mrc * (1.0 + 1e-9)
        assert r.mean == pytest.approx(mrc, rel=1e-12)

    def test_single_user_degenerates_to_mrc(self):
        sc = reference_scenario(K=21, W=2, U=1)
        r = zf_sinr_mc(7, sc, trials=16, seed=3)
        assert r.combiner_failures == 0
        assert r.mean == pytest.approx(7 * sc.zeta_u * sc.Gamma, rel=1e-9)

    def test_trial_validation(self, table_scenario):
        with pytest.raises(ValueError):
            zf_sinr_mc(3, table_scenario, trials=0, seed=1)


class TestZeroForcingClosedForm:
    # fig3's sweep states zf_mean_sinr as mrc_sinr: the identical-angle LoS
    # channel is rank one, so the truncated ZF combiner is the matched
    # filter and every trial's SINR is the MRC SINR.  zf_sinr_mc is the
    # oracle that pins it, at fig3's 2000 trials per grid point.
    @pytest.mark.parametrize("seed", [0, 5])
    def test_fig3_sweep_matches_monte_carlo_oracle(self, seed):
        spec = replace(preset_sweeps("fig3", seed=seed, trials=10000)[0],
                       metrics=("zf_mean_sinr",))
        rows = run_sweep([spec])
        assert len(rows) == len(spec.grid)
        for x, row in zip(spec.grid, rows):
            sc = sweep._scenario_at(spec, x)
            mrc = mrc_sinr(spec.mrc_M, list(sc.users.zeta), sc.Gamma)
            r = zf_sinr_mc(spec.mrc_M, sc, 2000, seed)
            assert r.combiner_failures == 2000
            assert r.mean == pytest.approx(mrc, rel=1e-12)
            assert r.variance / r.mean ** 2 <= 1e-28
            assert row["mc_value"] == row["mc_ci_low"] == row["mc_ci_high"]
            assert row["mc_value"] == pytest.approx(r.mean, rel=1e-12)

    def test_analytic_only_sweep_has_no_estimate(self):
        spec = replace(preset_sweeps("fig3")[0], metrics=("zf_mean_sinr",))
        assert all(row["mc_value"] is None for row in run_sweep([spec]))


class TestScalingInvariance:
    def test_winner_unchanged_by_common_path_loss_scale(self):
        # interference-limited regime: scaling every zeta by c scales both
        # SINRs identically, so the CUMA-vs-MRC ordering is preserved
        base = reference_scenario(K=61, W=3, U=5, P_watts=1e8)
        from satcuma.metrics import mean_sinr
        cuma = mean_sinr(base)
        mrc = mrc_sinr(15, list(base.users.zeta), base.Gamma)
        for c in (0.25, 4.0):
            sc = reference_scenario(K=61, W=3, U=5, P_watts=1e8,
                                    distance_m=1.2e6 / math.sqrt(c))
            cuma_c = mean_sinr(sc)
            mrc_c = mrc_sinr(15, list(sc.users.zeta), sc.Gamma)
            assert (cuma > mrc) == (cuma_c > mrc_c)
            assert cuma_c == pytest.approx(cuma, rel=0.02)

    def test_signal_gain_matches_mean_power_ratio_at_high_density(self):
        # (2 Gamma / Kbar) E[alpha] / (Gamma zeta) -> 4(K-1)/pi^2
        sc = reference_scenario(K=401, W=2, U=1)
        ratio = mean_snr(sc) / (sc.Gamma * sc.zeta_u)
        assert ratio == pytest.approx(cuma_signal_gain(sc.antenna.K), rel=0.01)


class TestOrthogonalAccess:
    def test_ignores_user_count(self, table_scenario):
        a = ocuma_rate(table_scenario)
        b = ocuma_rate(reference_scenario(K=21, W=2, U=12))
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_equals_single_user_rate(self, table_scenario):
        direct = ergodic_rate(single_user_scenario(table_scenario), outage="exact")
        assert ocuma_rate(table_scenario).value == pytest.approx(direct.value, rel=1e-12)

    def test_narrow_band_favours_orthogonal_access(self):
        sc = reference_scenario(K=61, W=3, U=5, B_hz=1e6)
        assert ocuma_rate(sc).value > ergodic_rate(sc, outage="exact").value

    def test_wide_band_favours_shared_access(self):
        sc = reference_scenario(K=61, W=3, U=20, B_hz=1e8)
        assert ergodic_rate(sc, outage="exact").value > ocuma_rate(sc).value
