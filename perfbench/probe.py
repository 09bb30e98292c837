"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds to minutes (other tenants on shared caches and
hyper-threads), and fixed loops slow about as much as the program does.
So while a child process measures, a profiling timer (``ITIMER_PROF``,
which advances only while the process itself uses CPU) interrupts it every
``INTERVAL_S`` of CPU time and runs fixed loops, each timed in thread CPU
time so that waiting for a core does not count: an adaptive Simpson rule in
pure Python (interpreter calls and float math, like satcuma's quadrature
and scalar paths) and, once the program has imported NumPy, an in-place
sort of a copy of a fixed array (compiled array loops, like the
Monte-Carlo kernel).  A probe's
slowness is the geometric mean of its loops' times over their reference
times (``CALL_REF_S``, ``ARRAY_REF_S``).  Each stretch of measured time between two probes is
divided by the mean slowness of the ``SMOOTH`` probes nearest to it; probe
time itself is excluded.  The result reads in seconds at the speed at which
the loops take their reference times.  The loops run no satcuma code and
import nothing, so a change to the program moves the scaled time as it
moves the raw time, and set-up time still includes every import the
program makes.

Probes run in the measuring process only.  Work done inside pool worker
processes is scaled by the probes the parent takes around it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL_S = 0.04
SMOOTH = 7


def _g(x: float) -> float:
    return math.exp(-x) * math.cos(x) * x ** 1.5


def _simpson(a, b, fa, fm, fb, whole, eps, depth) -> float:
    m = 0.5 * (a + b)
    flm, frm = _g(0.5 * (a + m)), _g(0.5 * (m + b))
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * eps:
        return left + right
    return (_simpson(a, m, fa, flm, fm, left, eps / 2, depth - 1)
            + _simpson(m, b, fm, frm, fb, right, eps / 2, depth - 1))


def _call_loop() -> float:
    """Adaptive Simpson rule on a fixed integrand: calls and float math."""
    fa, fm, fb = _g(0.0), _g(15.0), _g(30.0)
    return _simpson(0.0, 30.0, fa, fm, fb, 5 * (fa + 4 * fm + fb), 1e-9, 40)


# thread CPU time of each loop at the reference speed: the medians on the
# 2-core machine where the benchmark was written
CALL_REF_S = 0.00085
ARRAY_REF_S = 0.00061


class SpeedProbe:
    """Samples host speed while started; ``scaled`` converts intervals."""

    def __init__(self):
        self.start_t: list[float] = []    # perf_counter at probe start
        self.end_t: list[float] = []
        self.slowness: list[float] = []   # 1.0 at the reference speed
        self._old = None
        self._busy = False
        self._array = None

    def use_numpy(self, np) -> None:
        """Add the array loop (an in-place sort of a copy of a fixed
        60000-element array) to every later probe; ``np`` must be fully
        imported.  The loop allocates nothing: the cost of a fresh
        allocation depends on the program's heap, not on the host."""
        array = np.random.default_rng(0).random(60000)
        self._multiply = np.multiply
        self._buf = np.empty_like(array)
        self._array = array  # last: a probe may run between these lines

    def _handler(self, signum=None, frame=None):
        if self._busy:  # a timer tick during a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        c0 = time.thread_time()
        _call_loop()
        c1 = time.thread_time()
        log_slow = math.log(max(c1 - c0, 1e-9) / CALL_REF_S)
        if self._array is not None:
            self._multiply(self._array, 1.0001, out=self._buf)
            self._buf.sort()
            c2 = time.thread_time()
            log_slow = (log_slow + math.log(max(c2 - c1, 1e-9) / ARRAY_REF_S)) / 2
        self.start_t.append(t0)
        self.end_t.append(time.perf_counter())
        self.slowness.append(math.exp(log_slow))
        self._busy = False

    def start(self) -> None:
        self._old = signal.signal(signal.SIGPROF, self._handler)
        self._handler()  # one sample at the start
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        self._handler()  # one sample at the end

    def median_slowness(self) -> float:
        s = sorted(self.slowness)
        return s[len(s) // 2]

    def _smoothed(self) -> list:
        n, half = len(self.slowness), SMOOTH // 2
        out = []
        for i in range(n):
            lo, hi = max(0, i - half), min(n, i + half + 1)
            out.append(sum(self.slowness[lo:hi]) / (hi - lo))
        return out

    def scaled(self, intervals) -> tuple:
        """(raw, scaled) seconds in ``intervals``, a list of (start, end)
        ``perf_counter`` pairs, with probe time excluded from both."""
        slow = self._smoothed()
        raw = scaled = 0.0
        for a, b in intervals:
            # probe i splits [a, b]; the stretch before it (or after the last
            # probe) is divided by the nearest probe's smoothed slowness
            i = bisect.bisect_right(self.end_t, a)
            t = a
            while t < b:
                nxt = self.start_t[i] if i < len(self.start_t) else b
                seg = max(0.0, min(nxt, b) - t)
                raw += seg
                scaled += seg / slow[min(i, len(slow) - 1)]
                if i >= len(self.start_t):
                    break
                t = max(t, self.end_t[i])
                i += 1
        return raw, scaled
