"""Brute-force Monte-Carlo oracle for every closed form in the package.

Each trial draws fresh reference-port phases for all users, builds the
activated set from the desired user's phase by the explicit sign rule, and
sums port cosines directly -- the compact forms are never used here, so the
batch is an independent check on them.  The phases come from the scenario
module's phase stream (scenario.phase_chunks), indexed by absolute trial, so
a batch is bit-identical for a given (scenario, master_seed, n_trials)
whatever the block plan or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, phase_chunks

DEFAULT_BLOCK = 65536


# port-sum entries per buffer of a row chunk: a chunk's few buffers then stay
# cache-resident (a measured optimum across K = 21, 61 and 181)
_CHUNK_ENTRIES = 1 << 15


def _chunk_rows(k: int) -> int:
    """Trials per row chunk of the kernel for k ports."""
    return max(1, _CHUNK_ENTRIES // (k - 1))


def _block_sums(cols, master_seed, lo, hi, u, k, mu, zeta, gamma, amps):
    """Brute-force port sums for trials [lo, hi), written into rows [lo, hi)
    of cols.

    cols maps each column name to the pass's column: the columns of the
    positive-cosine (K1) activation set and, when amps is set, the signal
    amplitudes over the K1 set and over the negative-cosine (K2) set, both
    from the desired user's cosines of the K1 pass.  Rows are processed in
    chunks of _chunk_rows(k), each with the phases that the phase stream
    draws for it into one reused buffer, so every scratch array holds one
    chunk.  An interferer's cosines are evaluated only on the activated
    ports; the other slots of the summed buffer keep the signed zeros of
    the signal product, and a zero of either sign leaves a row sum
    unchanged up to the sign of an all-zero sum, which squaring removes.
    """
    ports = 2.0 * math.pi * np.arange(1, k) / mu  # k-1 phase offsets, ports 2..K
    rows = min(hi - lo, _chunk_rows(k))
    phase = np.empty((rows, k - 1))
    cos = np.empty_like(phase)
    part = np.empty_like(phase)
    pos = np.empty(phase.shape, dtype=bool)
    neg = np.empty_like(pos)
    for c, psi in phase_chunks(master_seed, lo, hi, u, rows):
        nr = psi.shape[0]
        r = slice(c, c + nr)
        ph, cs, pt, mp, mn = phase[:nr], cos[:nr], part[:nr], pos[:nr], neg[:nr]
        np.add(psi[:, :1], ports, out=ph)
        np.cos(ph, out=cs)
        np.greater(cs, 0.0, out=mp)
        if amps:
            # before the signal product, which must be the last write to pt:
            # the masked interferer cosines below keep its signed zeros
            np.less(cs, 0.0, out=mn)
            amp_n = np.multiply(cs, mn, out=pt).sum(axis=1)
        amp = np.multiply(cs, mp, out=pt).sum(axis=1)
        if amps:
            cols["amp_pos"][r] = math.sqrt(zeta[0]) * amp
            cols["amp_neg"][r] = math.sqrt(zeta[0]) * np.abs(amp_n)
        kbar = cols["kbar"][r] = mp.sum(axis=1)
        ys = cols["ys"][r]
        for j in range(1, u):
            np.add(psi[:, j:j + 1], ports, out=ph)
            s = np.cos(ph, out=pt, where=mp).sum(axis=1)
            ys[:, j - 1] = zeta[j] * s ** 2
        alpha = cols["alpha"][r] = zeta[0] * amp ** 2
        beta = cols["beta"][r] = ys.sum(axis=1)
        denom = beta + kbar / (2.0 * gamma)
        # an empty activation set collects nothing: SINR is zero, not 0/0
        cols["sinr"][r] = np.divide(alpha, denom, out=np.zeros_like(alpha), where=denom > 0.0)


@dataclass(frozen=True)
class TrialBatch:
    """Columnar record of one Monte-Carlo run; immutable once built.

    The float columns are float64.  kbar, the activated-port count, takes
    the narrowest signed integer dtype that holds -K
    (np.min_scalar_type(-K)): int8 for K <= 128, int16 up to K = 32768.
    amp_pos and amp_neg cover the first min(k2_trials, n_trials) trials
    and are empty when no amplitudes were asked for.
    """

    n_trials: int
    alpha: np.ndarray
    ys: np.ndarray      # shape (n_trials, U-1)
    beta: np.ndarray
    sinr: np.ndarray
    amp_pos: np.ndarray   # sqrt(alpha) over the positive-cosine set
    amp_neg: np.ndarray   # |sum| over the negative-cosine set
    kbar: np.ndarray


def _column_layout(n: int, u: int, k: int, n_k2: int):
    """(name, shape, dtype) of each output column for n trials with k ports,
    the first n_k2 of them with amplitudes.  kbar counts at most k - 1
    ports, so it takes the narrowest signed integer dtype that holds -k; it
    comes last, so that the float64 columns packed before it in
    _shared_columns stay 8-byte aligned whatever n."""
    return (("alpha", (n,), np.float64), ("ys", (n, u - 1), np.float64),
            ("beta", (n,), np.float64), ("sinr", (n,), np.float64),
            ("amp_pos", (n_k2,), np.float64), ("amp_neg", (n_k2,), np.float64),
            ("kbar", (n,), np.min_scalar_type(-k)))


def _shared_columns(layout) -> dict:
    """The columns of layout as views of one anonymous shared mapping, so
    that a forked worker's writes into them are the parent's columns."""
    import mmap
    nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for _, shape, dtype in layout]
    buf = mmap.mmap(-1, sum(nbytes))
    cols, offset = {}, 0
    for (name, shape, dtype), size in zip(layout, nbytes):
        cols[name] = np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)
        offset += size
    return cols


_pool_columns = {}  # a pool worker's views of its pass's shared columns


def _fill_shared(block) -> None:
    """Pool worker: one block into the columns its initializer put in
    _pool_columns."""
    _block_sums(_pool_columns, *block)


def _block_plan(n: int, block_size: int, workers: int, n_k2: int):
    """Block edges over [0, n) and the number of processes that run them.

    w = min(workers, ceil(n / block_size)) processes get 2w blocks whose
    sizes differ by at most one trial (or the least multiple of 2w that
    keeps every block within block_size), so no worker idles while another
    finishes a short tail block, and n_k2 is one more edge.  The kernel
    streams by row chunk and writes each block in place, so the split
    decides only which process runs which trials, never an output bit.
    """
    w = min(workers, -(-n // block_size))
    parts = 2 * w * -(-n // (2 * w * block_size))
    return sorted({i * n // parts for i in range(parts)} | {n_k2, n}), w


def run_trials(sc: Scenario, n: int, master_seed: int, block_size: int = DEFAULT_BLOCK,
               workers: int = 1, k2_trials: int = 0) -> TrialBatch:
    """Run n brute-force trials.

    The batch's amp_pos and amp_neg cover the first min(k2_trials, n)
    trials of the same draws.  They come from the desired user's cosines
    that the positive-set pass computes anyway, at almost no extra cost.

    The trials are cut into blocks by _block_plan: min(workers,
    ceil(n / block_size)) processes get two blocks each of equal size (to
    within one trial, and at most block_size), with one more cut at trial
    n_k2.  Each block is written in place into its rows of the output
    columns, so a pass holds those columns and one row chunk's scratch
    (about 1 MB), whatever U or block_size.  With one process the blocks
    run in process; with more, the columns live in one anonymous shared
    mapping that the workers inherit by fork (Linux, macOS), and no column
    passes through a pipe.  Every column is independent of block_size and
    workers, as each trial's phases depend only on its absolute index.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    u, k = sc.users.U, sc.antenna.K
    n_k2 = min(max(k2_trials, 0), n)
    edges, procs = _block_plan(n, block_size, workers, n_k2)
    blocks = [(master_seed, lo, hi, u, k, sc.mu, tuple(sc.users.zeta), sc.Gamma, hi <= n_k2)
              for lo, hi in zip(edges, edges[1:])]

    layout = _column_layout(n, u, k, n_k2)
    if procs == 1:
        cols = {name: np.empty(shape, dtype) for name, shape, dtype in layout}
        for blk in blocks:
            _block_sums(cols, *blk)
    else:
        import concurrent.futures
        import multiprocessing
        cols = _shared_columns(layout)
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=procs, mp_context=multiprocessing.get_context("fork"),
                initializer=_pool_columns.update, initargs=(cols,)) as pool:
            list(pool.map(_fill_shared, blocks))  # re-raises a worker's error

    return TrialBatch(n_trials=n, **cols)


def negative_set_trials(sc: Scenario, n: int, master_seed: int,
                        block_size: int = DEFAULT_BLOCK) -> TrialBatch:
    """Brute-force signal amplitudes over both activation sets per trial."""
    return run_trials(sc, n, master_seed, block_size, k2_trials=n)


def empirical_cdf(samples, thresholds) -> np.ndarray:
    """P(X <= t) for each threshold, from the sample."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    xs = np.sort(x)
    return np.searchsorted(xs, np.asarray(thresholds, dtype=float), side="right") / x.size


# sorted samples per call of ks_distance's analytic CDF
_KS_CHUNK = 8192


def ks_distance(samples, analytic_cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against an analytic CDF callable.

    analytic_cdf is called on row chunks of _KS_CHUNK sorted samples, so
    its temporaries hold one chunk; it must act elementwise.  The result is
    the one-array statistic bit for bit, a NaN of the CDF included."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    d = 0.0
    for c in range(0, n, _KS_CHUNK):
        xc = x[c:c + _KS_CHUNK]
        F = np.asarray(analytic_cdf(xc), dtype=float)
        i = np.arange(c + 1, c + xc.size + 1)
        # np.maximum, unlike max(), keeps a NaN
        d = np.maximum(d, max(np.max(np.abs(F - i / n)), np.max(np.abs(F - (i - 1) / n))))
    return float(d)


def empirical_outage(batch: TrialBatch, gamma: float):
    """Outage estimate with its Wilson 95% interval: (p, lo, hi)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return wilson_interval(float((batch.sinr < gamma).mean()), batch.n_trials)


def wilson_interval(p: float, n: int):
    """A proportion p of n trials with its Wilson 95% interval: (p, lo, hi).

    The bounds are clamped to [0, p] and [p, 1]: at p = 0 or 1 the interval
    ends at p exactly, where roundoff would otherwise leave p just outside."""
    z = 1.959963984540054
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return p, min(max(center - half, 0.0), p), max(min(center + half, 1.0), p)
