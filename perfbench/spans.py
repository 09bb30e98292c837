"""In-memory span recorder and the wrappers that time calls into satcuma.

Every span has a name, a start and end time (``time.perf_counter``), the
index of its parent span (-1 for a root) and the run id of the pass that
recorded it.  Spans are kept in flat arrays while the pass runs and written
out once, as a compressed ``.npz``, when it ends.

The layers are measured from outside: ``instrument`` replaces the public
functions named in ``TARGETS`` with timing wrappers in every loaded
``satcuma`` module, so names bound by ``from``-imports (for example
``satcuma.metrics.integrate`` or ``satcuma.benchmarks.ergodic_rate``) are
wrapped too.  Work done inside pool worker processes is not recorded there;
it shows up as self time of the span that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter

INTEGRATE = "quadrature.integrate"

# (module, function, span name); a span name of None means a custom namer.
TARGETS = (
    ("scenario", "build_scenario", "scenario.build_scenario"),
    ("core", "signal_power_compact", "core.compact"),
    ("core", "interference_power_compact", "core.compact"),
    ("quadrature", "integrate", INTEGRATE),
    ("distributions", "sinr_pdf_exact", "distributions.sinr_pdf_exact"),
    ("metrics", "outage_exact", "metrics.outage_exact"),
    ("metrics", "outage_exact_curve", "metrics.outage_exact_curve"),
    ("metrics", "mean_sinr", "metrics.mean_sinr"),
    ("metrics", "mean_snr", "metrics.mean_snr"),
    ("metrics", "ergodic_rate", None),
    ("benchmarks", "zf_sinr_mc", "benchmarks.zf_sinr_mc"),
    ("benchmarks", "ocuma_rate", "benchmarks.ocuma_rate"),
    ("montecarlo", "run_trials", "montecarlo.run_trials"),
    ("montecarlo", "negative_set_trials", "montecarlo.negative_set_trials"),
    ("montecarlo", "ks_distance", "montecarlo.ks_distance"),
    ("validate", "run_validation", "validate.run_validation"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("cli", "main", None),
)


class SpanRecorder:
    """Flat, append-only span store for one pass (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    @property
    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name_id[top]]

    def begin(self, name: str) -> int:
        nid = self._name_index.get(name)
        if nid is None:
            nid = self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap, since a pass is
        single-threaded.
        """
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_t = dur - covered
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        selfs = np.bincount(names, weights=self_t, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))


def _timed(rec: SpanRecorder, orig, name):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return orig(*args, **kwargs)
        finally:
            rec.finish(idx)
    return wrapper


def _integrate_wrapper(rec: SpanRecorder, orig):
    """Times top-level integrals and counts their integrand evaluations.

    ``integrate`` calls itself for reversed limits and for the endpoint
    substitution; those inner calls run untimed so each integral is one
    span and each original-coordinate evaluation is counted once.
    """
    import numpy as np

    counters = rec.counters

    @functools.wraps(orig)
    def wrapper(f, a, b, *args, **kwargs):
        if rec.current == INTEGRATE:
            return orig(f, a, b, *args, **kwargs)

        def counted(x):
            counters["quadrature.integrand_evals"] += int(np.size(x))
            return f(x)

        idx = rec.begin(INTEGRATE)
        try:
            res = orig(counted, a, b, *args, **kwargs)
        finally:
            rec.finish(idx)
        counters["quadrature.subdivisions"] += res.subdivisions
        counters["quadrature.unconverged"] += 0 if res.converged else 1
        return res
    return wrapper


def _ergodic_rate_wrapper(rec: SpanRecorder, orig):
    sig = inspect.signature(orig)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        sc = sig.bind(*args, **kwargs).arguments["sc"]
        kind = "u1" if sc.users.U == 1 else "multi"
        idx = rec.begin(f"metrics.ergodic_rate.{kind}")
        try:
            return orig(*args, **kwargs)
        finally:
            rec.finish(idx)
    return wrapper


def _run_trials_wrapper(rec: SpanRecorder, orig):
    sig = inspect.signature(orig)
    timed = _timed(rec, orig, "montecarlo.run_trials")

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n, block = bound.arguments["n"], bound.arguments["block_size"]
        rec.counters["montecarlo.trials"] += n
        rec.counters["montecarlo.blocks"] += -(-n // block)
        return timed(*args, **kwargs)
    return wrapper


def _cli_main_wrapper(rec: SpanRecorder, orig):
    @functools.wraps(orig)
    def wrapper(argv=None):
        verb = (argv or sys.argv[1:] or ["none"])[0]
        idx = rec.begin(f"cli.main.{verb}")
        try:
            return orig(argv)
        finally:
            rec.finish(idx)
    return wrapper


_CUSTOM = {
    ("quadrature", "integrate"): _integrate_wrapper,
    ("metrics", "ergodic_rate"): _ergodic_rate_wrapper,
    ("montecarlo", "run_trials"): _run_trials_wrapper,
    ("cli", "main"): _cli_main_wrapper,
}


def instrument(rec: SpanRecorder) -> int:
    """Wrap every target in every loaded satcuma module; returns the number
    of module attributes replaced."""
    targets = [(importlib.import_module(f"satcuma.{mod_name}"), mod_name, fn_name, span_name)
               for mod_name, fn_name, span_name in TARGETS]
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "satcuma" or name.startswith("satcuma."))]
    replaced = 0
    for module, mod_name, fn_name, span_name in targets:
        orig = getattr(module, fn_name)
        make = _CUSTOM.get((mod_name, fn_name))
        wrapper = make(rec, orig) if make else _timed(rec, orig, span_name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    replaced += 1
    return replaced
