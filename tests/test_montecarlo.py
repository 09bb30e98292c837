import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satcuma.core import (PortSetKind, activated_set,
                          signal_amplitude_bruteforce)
from satcuma import montecarlo
from satcuma.montecarlo import (empirical_cdf, empirical_outage, ks_distance,
                                negative_set_trials, oracle_pass, run_trials,
                                _block_plan, _chunk_rows, _draw_block)

from conftest import reference_scenario


class TestDeterminism:
    def test_bit_identical_reruns(self, table_scenario):
        a = run_trials(table_scenario, 5000, 42)
        b = run_trials(table_scenario, 5000, 42)
        for col in ("alpha", "ys", "beta", "sinr", "kbar"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_block_size_invariance(self, table_scenario):
        a = run_trials(table_scenario, 10000, 7, block_size=10000)
        b = run_trials(table_scenario, 10000, 7, block_size=977)
        assert np.array_equal(a.sinr, b.sinr)

    def test_worker_count_invariance(self, table_scenario):
        a = run_trials(table_scenario, 20000, 7, block_size=4096, workers=1)
        b = run_trials(table_scenario, 20000, 7, block_size=4096, workers=4)
        assert np.array_equal(a.sinr, b.sinr)
        assert np.array_equal(a.ys, b.ys)

    def test_prefix_property(self, table_scenario):
        # a longer run extends a shorter one without changing shared trials
        a = run_trials(table_scenario, 3000, 11)
        b = run_trials(table_scenario, 6000, 11)
        assert np.array_equal(a.alpha, b.alpha[:3000])

    def test_different_seeds_differ(self, table_scenario):
        a = run_trials(table_scenario, 1000, 1)
        b = run_trials(table_scenario, 1000, 2)
        assert not np.array_equal(a.alpha, b.alpha)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(half_mu=st.integers(1, 10), U=st.integers(1, 6), n=st.integers(1, 300),
           block_size=st.integers(1, 64), workers=st.integers(1, 2))
    def test_batch_independent_of_block_size_and_workers(self, half_mu, U, n,
                                                         block_size, workers):
        sc = reference_scenario(K=4 * half_mu + 1, W=2, U=U)
        ref = run_trials(sc, n, 13)
        got = run_trials(sc, n, 13, block_size=block_size, workers=workers)
        for col in ("alpha", "ys", "beta", "sinr", "kbar"):
            assert np.array_equal(getattr(got, col), getattr(ref, col))

    def test_phase_support_open_interval(self):
        psi = _draw_block(5, 0, 100000, 4)
        assert psi.min() > 0.0
        assert psi.max() < 2.0 * math.pi

    def test_golden_stream_pin(self):
        # exact first trials of (scenario K=9 W=2 U=2, seed 7): pins the
        # draw layout (stride, column mapping) against accidental changes;
        # the underlying counter-based generator guarantees stream stability
        sc = reference_scenario(K=9, W=2, U=2)
        batch = run_trials(sc, 4, 7)
        assert [v.hex() for v in batch.alpha] == [
            "0x1.03249d57049f1p-58", "0x1.e2ed764325a06p-59",
            "0x1.30f287cb6031bp-59", "0x1.afc13139a9a62p-59"]
        assert [v.hex() for v in batch.ys[:, 0]] == [
            "0x1.8f230c70ba57dp-59", "0x1.a45661c1afe3ap-59",
            "0x1.1ec95d10c5f58p-60", "0x1.f3bc4b9cc2fadp-59"]


class TestBlockPlan:
    # (n, block_size, workers): one block per worker fits, the workers
    # outnumber ceil(n / block_size), and blocks of n / (2 * workers)
    # trials would exceed block_size
    CASES = [(100000, 65536, 2), (20000, 4096, 4), (100003, 65536, 3),
             (1000, 64, 3), (100000, 4096, 2)]

    @pytest.mark.parametrize("n,block_size,workers", CASES)
    def test_equal_blocks_for_every_worker(self, n, block_size, workers):
        edges, procs = _block_plan(n, block_size, workers, 0)
        sizes = np.diff(edges)
        w = min(workers, math.ceil(n / block_size))
        assert procs == w
        assert edges[0] == 0 and edges[-1] == n
        assert sizes.max() - sizes.min() <= 1
        assert sizes.max() <= block_size
        # two blocks per worker, or the least multiple of that which fits
        assert len(sizes) % (2 * w) == 0
        assert (len(sizes) - 2 * w) * block_size < n
        if n <= 2 * w * block_size:
            assert len(sizes) == 2 * w

    def test_negative_set_edge_is_kept(self):
        edges, procs = _block_plan(100000, 65536, 2, 30000)
        assert procs == 2
        assert edges == [0, 25000, 30000, 50000, 75000, 100000]

    @pytest.mark.parametrize("n,block_size,workers", [(100000, 65536, 1),
                                                      (5000, 65536, 2)])
    def test_one_process_keeps_block_size_plan(self, n, block_size, workers):
        edges, procs = _block_plan(n, block_size, workers, 3000)
        assert procs == 1
        assert edges == sorted(set(range(0, n, block_size)) | {3000, n})

    def test_pool_bounded_by_block_count(self, table_scenario, monkeypatch):
        # a huge worker count starts no more processes than there are
        # block_size blocks; the pool is recorded, and run in process
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(montecarlo.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        got = run_trials(table_scenario, 300, 9, block_size=64, workers=10 ** 6)
        ref = run_trials(table_scenario, 300, 9, block_size=64)
        assert started == [5]
        for col in ("alpha", "ys", "beta", "sinr", "kbar"):
            assert np.array_equal(getattr(got, col), getattr(ref, col))

    def test_validate_pass_bit_identical_across_workers(self):
        sc = reference_scenario(K=61, W=3, U=20)
        args = (sc, 100000, 4)
        kw = dict(k2_trials=100000, k2_sinr=False)
        ref_batch, ref_neg = oracle_pass(*args, workers=1, **kw)
        got_batch, got_neg = oracle_pass(*args, workers=2, **kw)
        for col in ("alpha", "ys", "beta", "sinr", "kbar"):
            assert np.array_equal(getattr(got_batch, col), getattr(ref_batch, col))
        for col in ("amp_pos", "amp_neg"):
            assert np.array_equal(getattr(got_neg, col), getattr(ref_neg, col))
        assert got_neg.sinr_pos is None and got_neg.sinr_neg is None


def _naive_block(sc, psi):
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


def _naive_negative_set(sc, psi):
    """Both activation sets from full cosines, per-set SINR (reference)."""
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


def _assert_columns_equal(obj, ref):
    for name, want in ref.items():
        got = getattr(obj, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


class TestKernelBitIdentity:
    # n straddles two row chunks and ends inside a third; block_size=977
    # puts block edges inside chunks; mu=5 is odd, mu=1 leaves activation
    # sets empty, U=1 has no interferer and K=181 has long activated runs
    CASES = [(21, 2, 5), (11, 2, 5), (3, 2, 2), (9, 2, 1), (181, 3, 3)]

    @staticmethod
    def n_trials(k):
        return 2 * _chunk_rows(k) + 37

    @pytest.mark.parametrize("K,W,U", CASES)
    def test_trials_match_naive_reference(self, K, W, U):
        sc = reference_scenario(K=K, W=W, U=U)
        n = self.n_trials(K)
        ref = _naive_block(sc, _draw_block(71, 0, n, U))
        for kwargs in ({}, {"block_size": 977}, {"block_size": 977, "workers": 2}):
            _assert_columns_equal(run_trials(sc, n, 71, **kwargs), ref)

    @pytest.mark.parametrize("K,W,U", CASES)
    def test_negative_set_matches_naive_reference(self, K, W, U):
        sc = reference_scenario(K=K, W=W, U=U)
        n = self.n_trials(K)
        ref = _naive_negative_set(sc, _draw_block(73, 0, n, U))
        for block_size in (65536, 977):
            _assert_columns_equal(negative_set_trials(sc, n, 73, block_size), ref)

    def test_one_pass_gives_both_batches(self):
        # the negative-set columns of a pass are those of its first trials
        sc = reference_scenario(K=21, W=2, U=5)
        n, n_k2 = self.n_trials(21), _chunk_rows(21) + 5
        psi = _draw_block(79, 0, n, 5)
        batch, neg = oracle_pass(sc, n, 79, block_size=977, workers=2, k2_trials=n_k2)
        _assert_columns_equal(batch, _naive_block(sc, psi))
        assert neg.n_trials == n_k2
        _assert_columns_equal(neg, _naive_negative_set(sc, psi[:n_k2]))
        assert oracle_pass(sc, n, 79)[1] is None

    @pytest.mark.parametrize("K,W,U", CASES)
    def test_amplitude_only_pass_is_bit_identical(self, K, W, U):
        # the amplitudes come from the positive-set pass's desired-user
        # cosines, and that pass's own columns are those of run_trials
        sc = reference_scenario(K=K, W=W, U=U)
        n, n_k2 = self.n_trials(K), _chunk_rows(K) + 5
        full = negative_set_trials(sc, n_k2, 83)
        ref = run_trials(sc, n, 83)
        for kwargs in ({}, {"block_size": 977}, {"block_size": 977, "workers": 2}):
            batch, neg = oracle_pass(sc, n, 83, k2_trials=n_k2, k2_sinr=False, **kwargs)
            assert neg.n_trials == n_k2
            assert neg.sinr_pos is None and neg.sinr_neg is None
            for name in ("amp_pos", "amp_neg"):
                assert np.array_equal(getattr(neg, name), getattr(full, name)), name
            for name in ("alpha", "ys", "beta", "sinr", "kbar"):
                assert np.array_equal(getattr(batch, name), getattr(ref, name)), name


class TestTrialPhysics:
    def test_matches_scalar_bruteforce(self, table_scenario):
        batch = run_trials(table_scenario, 64, 13)
        psi = _draw_block(13, 0, 64, table_scenario.users.U)
        cfg = table_scenario.antenna
        zeta = table_scenario.users.zeta
        for i in range(64):
            pset = activated_set(psi[i, 0], cfg, PortSetKind.POSITIVE_INPHASE)
            amp = signal_amplitude_bruteforce(psi[i, 0], zeta[0], pset, cfg)
            assert batch.alpha[i] == pytest.approx(amp * amp, rel=1e-12)
            y1 = signal_amplitude_bruteforce(psi[i, 1], zeta[1], pset, cfg) ** 2
            assert batch.ys[i, 0] == pytest.approx(y1, rel=1e-12, abs=1e-30)
            assert batch.kbar[i] == len(pset)

    def test_never_uses_compact_form(self, table_scenario, monkeypatch):
        # corrupting the compact forms must not change the oracle
        import satcuma.core as core
        monkeypatch.setattr(core, "signal_power_compact",
                            lambda *a, **k: float("nan"))
        monkeypatch.setattr(core, "interference_power_compact",
                            lambda *a, **k: float("nan"))
        batch = run_trials(table_scenario, 100, 3)
        assert np.isfinite(batch.alpha).all()

    def test_single_user_zero_interference(self):
        sc = reference_scenario(K=21, W=2, U=1)
        batch = run_trials(sc, 500, 5)
        assert batch.ys.shape == (500, 0)
        assert np.all(batch.beta == 0.0)
        expected = batch.alpha / (batch.kbar / (2.0 * sc.Gamma))
        assert np.allclose(batch.sinr, expected, rtol=1e-12)

    def test_activated_count_even_density(self, table_scenario):
        batch = run_trials(table_scenario, 20000, 19)
        assert np.all(batch.kbar == (table_scenario.antenna.K - 1) // 2)

    def test_unit_density_empty_sets_finite(self):
        # at density 1 every port shares one phase; roughly half the trials
        # activate nothing and must yield SINR 0, never 0/0
        sc = reference_scenario(K=3, W=2, U=2)
        batch = run_trials(sc, 4000, 1)
        assert np.isfinite(batch.sinr).all()
        empty = batch.kbar == 0
        assert empty.any()
        assert np.all(batch.sinr[empty] == 0.0)

    def test_compact_form_agreement_even_density(self, table_scenario):
        from satcuma.core import interference_power_compact, signal_power_compact
        batch = run_trials(table_scenario, 2000, 29)
        psi = _draw_block(29, 0, 2000, table_scenario.users.U)
        cfg = table_scenario.antenna
        zeta = table_scenario.users.zeta
        scale = zeta[0] / cfg.V ** 2
        for i in range(2000):
            comp = signal_power_compact(psi[i, 0], zeta[0], cfg)
            assert abs(comp - batch.alpha[i]) <= 1e-9 * max(batch.alpha[i], scale)
            t = 0.75 - psi[i, 0] / (2.0 * math.pi)
            comp_y = interference_power_compact(psi[i, 1], zeta[1], t, cfg)
            assert abs(comp_y - batch.ys[i, 0]) <= 1e-9 * max(batch.ys[i, 0], scale)

    def test_n_validation(self, table_scenario):
        with pytest.raises(ValueError):
            run_trials(table_scenario, 0, 1)


class TestNegativeSet:
    def test_amplitudes_match_scalar_route(self, table_scenario):
        neg = negative_set_trials(table_scenario, 32, 37)
        psi = _draw_block(37, 0, 32, table_scenario.users.U)
        cfg = table_scenario.antenna
        z0 = table_scenario.users.zeta[0]
        for i in range(32):
            pos = activated_set(psi[i, 0], cfg, PortSetKind.POSITIVE_INPHASE)
            ngt = activated_set(psi[i, 0], cfg, PortSetKind.NEGATIVE_INPHASE)
            assert neg.amp_pos[i] == pytest.approx(
                signal_amplitude_bruteforce(psi[i, 0], z0, pos, cfg), rel=1e-12)
            assert neg.amp_neg[i] == pytest.approx(
                abs(signal_amplitude_bruteforce(psi[i, 0], z0, ngt, cfg)), rel=1e-12)

    def test_sets_equivalent_for_integer_aperture(self, table_scenario):
        # the all-port cosine sum spans whole wavelengths and cancels, so the
        # two activation sets collect equal amplitude up to rounding
        neg = negative_set_trials(table_scenario, 5000, 41)
        scale = math.sqrt(table_scenario.zeta_u)
        assert np.max(np.abs(neg.amp_neg - neg.amp_pos)) <= 1e-10 * scale


class TestEmpiricalTools:
    def test_cdf_at_thresholds(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert empirical_cdf(x, [0.5, 1.0, 2.5, 4.0, 9.0]).tolist() == \
            [0.0, 0.25, 0.5, 1.0, 1.0]

    def test_ks_against_own_sample_is_one_over_n(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 1000)
        d = ks_distance(x, lambda t: empirical_cdf(x, t))
        assert d == pytest.approx(1.0 / 1000, abs=1e-12)

    def test_ks_uniform_sample(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 200000)
        d = ks_distance(x, lambda t: np.clip(t, 0.0, 1.0))
        # asymptotic two-sided critical value at significance 0.001
        assert d < math.sqrt(-0.5 * math.log(0.001 / 2.0)) / math.sqrt(200000)

    def test_ks_detects_mismatch(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 10000) ** 2
        d = ks_distance(x, lambda t: np.clip(t, 0.0, 1.0))
        assert d > 0.2

    def test_empirical_outage_wilson_interval(self, table_scenario):
        batch = run_trials(table_scenario, 50000, 47)
        p, lo, hi = empirical_outage(batch, 0.35)
        assert 0.0 <= lo <= p <= hi <= 1.0
        assert hi - lo < 0.01
        assert p == pytest.approx(float((batch.sinr < 0.35).mean()), abs=1e-12)

    def test_outage_below_min_sample(self, table_scenario):
        batch = run_trials(table_scenario, 1000, 53)
        p, lo, hi = empirical_outage(batch, 1e-9)
        assert p == 0.0
        assert lo <= 1e-12
