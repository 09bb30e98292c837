"""Brute-force Monte-Carlo oracle for every closed form in the package.

Each trial draws fresh reference-port phases for all users, builds the
activated set from the desired user's phase by the explicit sign rule, and
sums port cosines directly -- the compact forms are never used here, so the
batch is an independent check on them.

Reproducibility contract: the phase stream is a counter-based generator
(Philox) indexed by absolute draw position, with a fixed number of draws
reserved per trial.  A batch is therefore bit-identical for a given
(scenario, master_seed, n_trials) regardless of block size or worker count,
and blocks can run in any order on any executor.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario

DEFAULT_BLOCK = 65536
_WORDS_PER_COUNTER = 4  # Philox advances in 4x64-bit increments


def _stride(u: int) -> int:
    """Draws reserved per trial: U phases padded to the counter granularity."""
    return ((u + _WORDS_PER_COUNTER - 1) // _WORDS_PER_COUNTER) * _WORDS_PER_COUNTER


def _draw_block(master_seed: int, lo: int, hi: int, u: int) -> np.ndarray:
    """Phases for trials [lo, hi), shape (hi-lo, u), uniform on (0, 2*pi)."""
    stride = _stride(u)
    bitgen = np.random.Philox(key=master_seed)
    bitgen.advance(lo * stride // _WORDS_PER_COUNTER)
    raw = np.random.Generator(bitgen).random((hi - lo) * stride)
    raw = raw.reshape(hi - lo, stride)[:, :u]
    raw[raw == 0.0] = 0.5 ** 53  # keep the open-interval support
    return 2.0 * math.pi * raw


# port-sum entries per buffer of a row chunk: a chunk's few buffers then stay
# cache-resident (a measured optimum across K = 21, 61 and 181)
_CHUNK_ENTRIES = 1 << 15


def _chunk_rows(k: int) -> int:
    """Trials per row chunk of the kernel for k ports."""
    return max(1, _CHUNK_ENTRIES // (k - 1))


def _sinr(alpha, beta, kbar, gamma):
    denom = beta + kbar / (2.0 * gamma)
    # an empty activation set collects nothing: SINR is zero, not 0/0
    return np.divide(alpha, denom, out=np.zeros_like(alpha), where=denom > 0.0)


# what a block computes besides the positive-cosine (K1) columns
_K1_ONLY, _K2_AMPLITUDES, _K2_FULL = 0, 1, 2


def _block_sums(args):
    """Brute-force port sums for trials [lo, hi) (picklable worker).

    Returns the columns of the positive-cosine (K1) activation set and, by
    the block's k2 mode, also the negative-cosine (K2) set's amplitudes
    (_K2_AMPLITUDES, from the desired user's cosines of the K1 pass) or all
    of its columns (_K2_FULL, with per-interferer K2 sums).  Rows are
    processed in chunks of _chunk_rows(k) through preallocated buffers.
    Outside _K2_FULL, an interferer's cosines are evaluated only on the
    activated ports; the other slots of the summed buffer keep the signed
    zeros of the signal product, and a zero of either sign leaves a row sum
    unchanged up to the sign of an all-zero sum, which squaring removes.
    """
    (master_seed, lo, hi, u, k, mu, zeta, gamma, k2) = args
    amps, full = k2 != _K1_ONLY, k2 == _K2_FULL
    psi = _draw_block(master_seed, lo, hi, u)
    ports = 2.0 * math.pi * np.arange(1, k) / mu  # k-1 phase offsets, ports 2..K
    m = hi - lo
    amp = np.empty(m)
    kbar = np.empty(m, dtype=np.int64)
    ys = np.empty((m, u - 1))
    if amps:
        amp_n = np.empty(m)
    if full:
        kbar_n = np.empty(m, dtype=np.int64)
        ys_n = np.empty((m, u - 1))
    rows = min(m, _chunk_rows(k))
    phase = np.empty((rows, k - 1))
    cos = np.empty_like(phase)
    part = np.empty_like(phase)
    pos = np.empty(phase.shape, dtype=bool)
    neg = np.empty_like(pos)
    for c in range(0, m, rows):
        r = slice(c, min(c + rows, m))
        nr = r.stop - c
        ph, cs, pt, mp, mn = phase[:nr], cos[:nr], part[:nr], pos[:nr], neg[:nr]
        np.add(psi[r, :1], ports, out=ph)
        np.cos(ph, out=cs)
        np.greater(cs, 0.0, out=mp)
        if amps:
            # before the signal product, which must be the last write to pt:
            # the masked interferer cosines below keep its signed zeros
            np.less(cs, 0.0, out=mn)
            amp_n[r] = np.multiply(cs, mn, out=pt).sum(axis=1)
        if full:
            kbar_n[r] = mn.sum(axis=1)
        amp[r] = np.multiply(cs, mp, out=pt).sum(axis=1)
        kbar[r] = mp.sum(axis=1)
        for j in range(1, u):
            np.add(psi[r, j:j + 1], ports, out=ph)
            if full:
                np.cos(ph, out=cs)
                s = np.multiply(cs, mp, out=pt).sum(axis=1)
                ys_n[r, j - 1] = zeta[j] * np.multiply(cs, mn, out=pt).sum(axis=1) ** 2
            else:
                s = np.cos(ph, out=pt, where=mp).sum(axis=1)
            ys[r, j - 1] = zeta[j] * s ** 2
    alpha = zeta[0] * amp ** 2
    beta = ys.sum(axis=1)
    out = {"alpha": alpha, "ys": ys, "beta": beta,
           "sinr": _sinr(alpha, beta, kbar, gamma), "kbar": kbar}
    if amps:
        out["amp_pos"] = math.sqrt(zeta[0]) * amp
        out["amp_neg"] = math.sqrt(zeta[0]) * np.abs(amp_n)
    if full:
        # per-set interference is summed in interferer order, unlike the
        # pairwise row sum of the beta column, and keeps that rounding
        beta_p = np.zeros(m)
        beta_n = np.zeros(m)
        for j in range(u - 1):
            beta_p += ys[:, j]
            beta_n += ys_n[:, j]
        out["sinr_pos"] = _sinr(alpha, beta_p, kbar, gamma)
        out["sinr_neg"] = _sinr(zeta[0] * amp_n ** 2, beta_n, kbar_n, gamma)
    return lo, out


@dataclass(frozen=True)
class TrialBatch:
    """Columnar record of one Monte-Carlo run; immutable once built."""

    n_trials: int
    master_seed: int
    alpha: np.ndarray
    ys: np.ndarray      # shape (n_trials, U-1)
    beta: np.ndarray
    sinr: np.ndarray
    kbar: np.ndarray


@dataclass(frozen=True)
class NegativeSetBatch:
    """Per-trial comparison of the positive-cosine and negative-cosine sets."""

    n_trials: int
    master_seed: int
    amp_pos: np.ndarray   # sqrt(alpha) over the positive set
    amp_neg: np.ndarray   # |sum| over the negative set
    sinr_pos: np.ndarray | None  # None from an amplitude-only pass
    sinr_neg: np.ndarray | None


_K1_COLUMNS = ("alpha", "ys", "beta", "sinr", "kbar")
_K2_AMP_COLUMNS = ("amp_pos", "amp_neg")
_K2_COLUMNS = _K2_AMP_COLUMNS + ("sinr_pos", "sinr_neg")


def _block_plan(n: int, block_size: int, workers: int, n_k2: int):
    """Block edges over [0, n) and the number of processes that run them.

    With w = min(workers, ceil(n / block_size)) processes, w > 1 gets 2w
    blocks whose sizes differ by at most one trial (or the least multiple
    of 2w that keeps every block within block_size), so no worker idles
    while another finishes a short tail block, and each worker's results
    reach the parent in two halves rather than all at once.  Otherwise
    (w = 1, run in process) the blocks hold block_size trials from trial 0.
    n_k2 is an edge of either plan.
    """
    w = min(workers, -(-n // block_size))
    if w > 1:
        parts = 2 * w * -(-n // (2 * w * block_size))
        cuts = {i * n // parts for i in range(parts)}
    else:
        w, cuts = 1, set(range(0, n, block_size))
    return sorted(cuts | {n_k2, n}), w


def oracle_pass(sc: Scenario, n: int, master_seed: int, block_size: int = DEFAULT_BLOCK,
                workers: int = 1, k2_trials: int = 0, k2_sinr: bool = True):
    """One brute-force pass over n trials: (TrialBatch, NegativeSetBatch).

    The negative-set batch covers the first min(k2_trials, n) trials of the
    same draws (None when k2_trials is 0).  With k2_sinr, its trials also go
    through the full negative-set pass, which sums every interferer over
    the negative-cosine set for sinr_pos and sinr_neg.  Without it, the
    batch holds only amp_pos and amp_neg (sinr_pos and sinr_neg are None),
    and these come from the desired user's cosines that the positive-set
    pass computes anyway: the same operations, so the same bits, at almost
    no extra cost.

    One worker runs blocks of block_size trials in process.  More workers
    share the trials out by _block_plan: min(workers, ceil(n / block_size))
    processes get two blocks each of equal size (to within one trial, and
    at most block_size), with one more cut at trial n_k2.  Every column is
    independent of block_size and workers; blocks are seeded by absolute
    trial index and gathered in index order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u, k = sc.users.U, sc.antenna.K
    n_k2 = min(max(k2_trials, 0), n)
    mode = _K2_FULL if k2_sinr else _K2_AMPLITUDES
    k2_columns = _K2_COLUMNS if k2_sinr else _K2_AMP_COLUMNS
    edges, procs = _block_plan(n, block_size, workers, n_k2)
    blocks = [(master_seed, lo, hi, u, k, sc.mu, tuple(sc.users.zeta), sc.Gamma,
               mode if hi <= n_k2 else _K1_ONLY)
              for lo, hi in zip(edges, edges[1:])]

    cols = {"alpha": np.empty(n), "ys": np.empty((n, u - 1)), "beta": np.empty(n),
            "sinr": np.empty(n), "kbar": np.empty(n, dtype=np.int64)}
    cols.update((name, np.empty(n_k2)) for name in k2_columns)

    def _store(result):
        lo, out = result
        hi = lo + out["alpha"].shape[0]
        for name in _K1_COLUMNS + (k2_columns if hi <= n_k2 else ()):
            cols[name][lo:hi] = out[name]

    if procs == 1:
        for blk in blocks:
            _store(_block_sums(blk))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=procs) as pool:
            for result in pool.map(_block_sums, blocks):
                _store(result)

    batch = TrialBatch(n_trials=n, master_seed=master_seed,
                       **{name: cols[name] for name in _K1_COLUMNS})
    neg = NegativeSetBatch(n_trials=n_k2, master_seed=master_seed,
                           **{name: cols.get(name) for name in _K2_COLUMNS}) if n_k2 else None
    return batch, neg


def run_trials(sc: Scenario, n: int, master_seed: int,
               block_size: int = DEFAULT_BLOCK, workers: int = 1) -> TrialBatch:
    """Run n brute-force trials.

    The result is independent of block_size and workers; blocks are seeded
    by absolute trial index and gathered in index order.
    """
    return oracle_pass(sc, n, master_seed, block_size, workers)[0]


def negative_set_trials(sc: Scenario, n: int, master_seed: int,
                        block_size: int = DEFAULT_BLOCK) -> NegativeSetBatch:
    """Brute-force both activation sets per trial, with per-set SINR."""
    return oracle_pass(sc, n, master_seed, block_size, k2_trials=n)[1]


def empirical_cdf(samples, thresholds) -> np.ndarray:
    """P(X <= t) for each threshold, from the sample."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    xs = np.sort(x)
    return np.searchsorted(xs, np.asarray(thresholds, dtype=float), side="right") / x.size


def ks_distance(samples, analytic_cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against an analytic CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    F = np.asarray(analytic_cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(F - i / n)), np.max(np.abs(F - (i - 1) / n))))


def empirical_outage(batch: TrialBatch, gamma: float):
    """Outage estimate with its Wilson 95% interval: (p, lo, hi)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = batch.n_trials
    p = float((batch.sinr < gamma).mean())
    z = 1.959963984540054
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return p, max(center - half, 0.0), min(center + half, 1.0)
