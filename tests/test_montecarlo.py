import concurrent.futures
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from satcuma.core import (PortSetKind, activated_set,
                          signal_amplitude_bruteforce)
from satcuma import montecarlo
from satcuma.scenario import phase_chunks
from satcuma.montecarlo import (empirical_cdf, empirical_outage, ks_distance,
                                negative_set_trials, run_trials,
                                wilson_interval, _block_plan, _chunk_rows)

from conftest import draw_block as _draw_block
from conftest import naive_block, naive_negative_set, reference_scenario


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


class TestPhaseStream:
    SEEDS = (0, 7, 11, 2 ** 64 + 3, 2 ** 128 - 1)

    @staticmethod
    def one_draw(seed, n, u):
        # the stream's layout written out: one generator, (u padded to 4)
        # draws per trial, an exact 0 mapped to 2^-53, scaled by 2*pi
        stride = -(-u // 4) * 4
        raw = np.random.Generator(np.random.Philox(key=seed)).random((n, stride))[:, :u]
        raw[raw == 0.0] = 0.5 ** 53
        return 2.0 * math.pi * raw

    @pytest.mark.parametrize("U", [1, 4, 5, 20])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scenario_phases_are_trial_zero_of_the_pass(self, U, seed):
        sc = reference_scenario(K=21, W=2, U=U, seed=seed)
        psi = np.array([sc.users.psi])
        assert psi.tobytes() == self.one_draw(seed, 1, U).tobytes()
        _assert_columns_equal(run_trials(sc, 1, seed), naive_block(sc, psi))

    @pytest.mark.parametrize("U", [1, 5, 20])
    def test_bits_do_not_depend_on_chunking_or_start(self, U):
        n, seed = 50, 2 ** 128 - 1
        ref = self.one_draw(seed, n, U)
        for lo in (0, 1, 3, 4, 17, n - 1):
            for rows in (1, 7, n):
                got = [(c, psi.copy()) for c, psi in phase_chunks(seed, lo, n, U, rows)]
                assert [c for c, _ in got] == list(range(lo, n, rows))
                assert np.concatenate([p for _, p in got]).tobytes() == \
                    np.ascontiguousarray(ref[lo:]).tobytes(), (lo, rows)


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

    @pytest.mark.parametrize("n,block_size,workers,edges", [
        (100000, 65536, 1, [0, 3000, 50000, 100000]),
        (5000, 65536, 2, [0, 2500, 3000, 5000]),
        (200000, 65536, 1, [0, 3000, 50000, 100000, 150000, 200000]),
    ], ids=["100000-65536-1", "5000-65536-2", "200000-65536-1"])
    def test_one_process_follows_the_one_rule(self, n, block_size, workers, edges):
        # w = 1: two equal blocks, or the least even count within block_size
        assert _block_plan(n, block_size, workers, 3000) == (edges, 1)

    def test_pool_bounded_by_block_count(self, table_scenario, monkeypatch):
        # a huge worker count starts no more processes than there are
        # block_size blocks; the pool is recorded, and run in process
        started = []

        class InlinePool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        got = run_trials(table_scenario, 300, 9, block_size=64, workers=10 ** 6)
        ref = run_trials(table_scenario, 300, 9, block_size=64)
        assert started == [5]
        for col in ("alpha", "ys", "beta", "sinr", "kbar"):
            assert np.array_equal(getattr(got, col), getattr(ref, col))

    def test_validate_pass_bit_identical_across_workers(self):
        # n = 20001 leaves the int8 kbar column an odd number of bytes long:
        # float64 columns after it in the shared mapping would be misaligned
        sc = reference_scenario(K=61, W=3, U=20)
        for n, block_size in ((100000, 65536), (20001, 4096)):
            assert _block_plan(n, block_size, 2, n)[1] == 2
            ref = run_trials(sc, n, 4, workers=1, k2_trials=n)
            batch = run_trials(sc, n, 4, block_size, workers=2, k2_trials=n)
            for col in ("alpha", "ys", "beta", "sinr", "amp_pos", "amp_neg", "kbar"):
                got = getattr(batch, col)
                assert got.flags.aligned or got.dtype != np.float64, (n, col)
                assert np.array_equal(got, getattr(ref, col)), (n, col)


_AMP_COLUMNS = ("amp_pos", "amp_neg")


def _assert_columns_equal(obj, ref, names=None):
    for name in names or ref:
        got, want = getattr(obj, name), ref[name]
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
        ref = naive_block(sc, _draw_block(71, 0, n, U))
        for kwargs in ({}, {"block_size": 977}, {"block_size": 977, "workers": 2}):
            _assert_columns_equal(run_trials(sc, n, 71, **kwargs), ref)

    @pytest.mark.parametrize("K,W,U", CASES)
    def test_negative_set_matches_naive_reference(self, K, W, U):
        sc = reference_scenario(K=K, W=W, U=U)
        n = self.n_trials(K)
        ref = naive_negative_set(sc, _draw_block(73, 0, n, U))
        for block_size in (65536, 977):
            _assert_columns_equal(negative_set_trials(sc, n, 73, block_size), ref, _AMP_COLUMNS)

    def test_one_pass_gives_both_batches(self):
        # the amplitude columns of a pass are those of its first trials
        sc = reference_scenario(K=21, W=2, U=5)
        n, n_k2 = self.n_trials(21), _chunk_rows(21) + 5
        psi = _draw_block(79, 0, n, 5)
        batch = run_trials(sc, n, 79, block_size=977, workers=2, k2_trials=n_k2)
        _assert_columns_equal(batch, naive_block(sc, psi))
        _assert_columns_equal(batch, naive_negative_set(sc, psi[:n_k2]), _AMP_COLUMNS)
        plain = run_trials(sc, n, 79)
        assert plain.amp_pos.shape == plain.amp_neg.shape == (0,)

    @pytest.mark.parametrize("K,W,U", CASES)
    def test_amplitude_only_pass_is_bit_identical(self, K, W, U):
        # the amplitudes of the first n_k2 trials come from the positive-set
        # pass's desired-user cosines, and that pass's own columns stay exact
        sc = reference_scenario(K=K, W=W, U=U)
        n, n_k2 = self.n_trials(K), _chunk_rows(K) + 5
        psi = _draw_block(83, 0, n, U)
        ref, ref_neg = naive_block(sc, psi), naive_negative_set(sc, psi[:n_k2])
        for kwargs in ({}, {"block_size": 977}, {"block_size": 977, "workers": 2}):
            batch = run_trials(sc, n, 83, k2_trials=n_k2, **kwargs)
            _assert_columns_equal(batch, ref_neg, _AMP_COLUMNS)
            _assert_columns_equal(batch, ref)


def _assert_bits_equal(obj, ref, names=None):
    # byte for byte, so that a zero of the other sign also fails
    for name in names or ref:
        got, want = getattr(obj, name), ref[name]
        assert got.shape == want.shape, name
        assert got.tobytes() == want.astype(got.dtype).tobytes(), name


class TestKernelRandomScenarios:
    # the kernel gathers each chunk's activated slots by per-row counts, so
    # the draws span non-integer densities and up to three row chunks; at
    # mu = 1 (the first and last examples) every port has the desired
    # user's phase, so a row activates all ports or none, and the second
    # example is mu = 7/3
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(K=st.integers(2, 200), W=st.integers(1, 5), U=st.integers(1, 8),
           chunks=st.floats(0.0, 3.0), k2_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(K=2, W=1, U=3, chunks=0.01, k2_share=0.5, seed=1)
    @example(K=8, W=3, U=4, chunks=2.5, k2_share=0.4, seed=2)
    @example(K=3, W=2, U=2, chunks=0.1, k2_share=1.0, seed=3)
    def test_trials_match_naive_reference(self, K, W, U, chunks, k2_share, seed):
        assume(W < K)  # mu >= 1, where V = sin(pi/mu)/W is positive
        sc = reference_scenario(K=K, W=W, U=U)
        n = max(1, int(chunks * _chunk_rows(K)))
        n_k2 = int(k2_share * n)
        psi = _draw_block(seed, 0, n, U)
        ref, ref_neg = naive_block(sc, psi), naive_negative_set(sc, psi[:n_k2])
        # a block smaller than n, so that two workers share the pass
        for kwargs in ({}, {"block_size": max(1, n // 3), "workers": 2}):
            batch = run_trials(sc, n, seed, k2_trials=n_k2, **kwargs)
            _assert_bits_equal(batch, ref)
            _assert_bits_equal(batch, ref_neg, _AMP_COLUMNS)


class TestKernelMemory:
    @pytest.mark.parametrize("K,W,U,n", [(61, 3, 20, 65536), (21, 2, 5, 4 * 65536)])
    def test_scratch_is_chunk_sized(self, K, W, U, n):
        # an in-process pass holds its output columns and one row chunk's
        # scratch, however large U or the block
        sc = reference_scenario(K=K, W=W, U=U)
        tracemalloc.start()
        try:
            batch = run_trials(sc, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(batch, name).nbytes
                      for name in ("alpha", "ys", "beta", "sinr", "kbar"))
        assert peak - columns <= 4 * 2 ** 20

    def test_pooled_pass_sends_no_columns_to_the_parent(self):
        # pool workers write the columns in place in shared memory, so the
        # parent allocates none of the pass's 20 MB of columns itself
        sc = reference_scenario(K=61, W=3, U=20)
        tracemalloc.start()
        try:
            batch = run_trials(sc, 100000, 3, workers=2, k2_trials=100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.amp_neg.shape == (100000,)
        assert peak <= 4 * 2 ** 20


class TestValidationMemory:
    def test_validation_holds_its_batch_and_one_chunk(self):
        # the compact-form check, the KS distances and the outage curve work
        # in chunks beside the batch: no full-size temporary of any of them
        from satcuma.validate import run_validation
        sc = reference_scenario(K=61, W=3, U=20)
        n = 20000
        tracemalloc.start()
        try:
            run_validation(sc, n, 3, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(math.prod(shape) * np.dtype(dtype).itemsize
                      for _, shape, dtype in montecarlo._column_layout(n, 20, 61, n))
        assert peak - columns <= 4 * 2 ** 20


class TestKbarWidth:
    # mu = 128 at K=257 W=2 activates 128 ports, one more than int8 holds;
    # mu = 5 (K=11) and mu = 1 (K=3) vary the count, down to empty sets
    @pytest.mark.parametrize("K,W,dtype", [(257, 2, np.int16), (21, 2, np.int8),
                                           (11, 2, np.int8), (3, 2, np.int8)])
    def test_narrow_kbar_equals_int64_reference(self, K, W, dtype):
        from satcuma.sweep import _mc_snr
        sc = reference_scenario(K=K, W=W, U=2)
        n = 2 * _chunk_rows(K) + 37
        batch = run_trials(sc, n, 89)
        ref = naive_block(sc, _draw_block(89, 0, n, 2))["kbar"]
        assert batch.kbar.dtype == dtype
        assert ref.dtype == np.int64
        assert np.array_equal(batch.kbar, ref)
        if K == 257:
            assert np.all(batch.kbar == 128)
        assert batch.kbar.sum() == ref.sum()
        wide = dataclasses.replace(batch, kbar=batch.kbar.astype(np.int64))
        assert _mc_snr(sc, None, None, batch) == _mc_snr(sc, None, None, wide)

    @pytest.mark.parametrize("K", [21, 11])
    def test_port_count_check_equals_int64_result(self, K, monkeypatch):
        # validate's activated-port-count statistic: a fraction at even
        # density (K=21), a mean count at odd density (K=11)
        from satcuma.validate import run_validation
        sc = reference_scenario(K=K, W=2, U=5)
        narrow = run_validation(sc, 3000, 97)
        orig = montecarlo.run_trials

        def wide_pass(*args, **kwargs):
            batch = orig(*args, **kwargs)
            assert batch.kbar.dtype == np.int8
            return dataclasses.replace(batch, kbar=batch.kbar.astype(np.int64))

        monkeypatch.setattr(montecarlo, "run_trials", wide_pass)
        wide = run_validation(sc, 3000, 97)
        narrow_stat, wide_stat = ({c.name: c.statistic for c in rep.checks}["activated-port-count"]
                                  for rep in (narrow, wide))
        assert narrow_stat == wide_stat
        assert narrow.render() == wide.render()


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

    @pytest.mark.parametrize("block_size", [0, -5])
    def test_block_size_validation(self, table_scenario, block_size):
        with pytest.raises(ValueError, match="block_size"):
            run_trials(table_scenario, 100, 1, block_size=block_size)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_validation(self, table_scenario, workers):
        with pytest.raises(ValueError, match="workers"):
            run_trials(table_scenario, 100, 1, workers=workers)


class TestReducedDensity:
    # at mu = (K-1)/W = p/q in lowest terms, port j's phase steps by
    # 2*pi*q/p, so the K-1 = p*k ports take each of the p phases 2*pi*i/p
    # k times: the same port sums as density p on k wavelengths (ROADMAP
    # item 19's oracle part)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(p=st.integers(3, 12), q=st.sampled_from([2, 3, 4]), k=st.integers(1, 2),
           U=st.integers(2, 5))
    def test_trials_equal_at_the_reduced_density(self, p, q, k, U):
        assume(math.gcd(p, q) == 1)
        got = run_trials(reference_scenario(K=p * k + 1, W=q * k, U=U), 2000, 5)
        ref = run_trials(reference_scenario(K=p * k + 1, W=k, U=U), 2000, 5)
        assert np.array_equal(got.kbar, ref.kbar)
        for col in ("alpha", "ys", "beta", "sinr"):
            a, b = getattr(got, col), getattr(ref, col)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), col


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

    @staticmethod
    def _ks_one_array(x, cdf):
        x = np.sort(x)
        n = x.size
        F = cdf(x)
        i = np.arange(1, n + 1)
        return float(max(np.max(np.abs(F - i / n)), np.max(np.abs(F - (i - 1) / n))))

    @pytest.mark.parametrize("n", [1, montecarlo._KS_CHUNK, montecarlo._KS_CHUNK + 1,
                                   3 * montecarlo._KS_CHUNK + 17])
    def test_ks_across_chunk_edges_equals_one_array_formula(self, n):
        x = np.random.default_rng(n).exponential(1.0, n)
        cdf = lambda t: 1.0 - np.exp(-1.1 * t)  # noqa: E731
        assert ks_distance(x, cdf) == self._ks_one_array(x, cdf)

    @pytest.mark.parametrize("where", [0, montecarlo._KS_CHUNK - 1, -1])
    def test_ks_keeps_a_nan_of_the_cdf(self, where):
        # python's max(0.0, nan) is 0.0; a NaN in any chunk must survive
        x = np.sort(np.random.default_rng(9).uniform(0, 1, 2 * montecarlo._KS_CHUNK + 3))
        bad = x[where]

        def cdf(t):
            return np.where(t == bad, np.nan, t)

        assert math.isnan(ks_distance(x, cdf))
        assert math.isnan(self._ks_one_array(x, cdf))

    def test_empirical_outage_wilson_interval(self, table_scenario):
        batch = run_trials(table_scenario, 50000, 47)
        p, lo, hi = empirical_outage(batch, 0.35)
        assert 0.0 <= lo <= p <= hi <= 1.0
        assert hi - lo < 0.01
        assert p == pytest.approx(float((batch.sinr < 0.35).mean()), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_wilson_interval_ends_at_an_extreme_proportion(self, n):
        # roundoff in centre - half left 1.08e-19 above p = 0 at n = 2000
        assert wilson_interval(0.0, n)[:2] == (0.0, 0.0)
        assert wilson_interval(1.0, n)[0::2] == (1.0, 1.0)

    def test_wilson_interval_contains_every_proportion(self):
        for n in range(1, 201):
            for k in range(n + 1):
                p, lo, hi = wilson_interval(k / n, n)
                assert 0.0 <= lo <= p <= hi <= 1.0, (k, n)

    def test_outage_below_min_sample(self, table_scenario):
        batch = run_trials(table_scenario, 1000, 53)
        p, lo, hi = empirical_outage(batch, 1e-9)
        assert p == 0.0
        assert lo <= 1e-12
