"""One fresh-process pass of a benchmark workload; started by ``run.py``.

usage: python3 perfbench/child.py --workload NAME --seed N
           --mode setup|pass|traced --workdir DIR --result FILE

The clock starts before satcuma is imported, so ``setup_s`` covers the
import and the workload's set-up.  Mode ``setup`` stops there; ``pass`` runs
one measured pass with tracing off; ``traced`` wraps satcuma's layer
functions first (see ``spans.py``) and also writes the spans to
``DIR/spans-<run id>.npz``.  Modes ``setup`` and ``pass`` run the host-speed
probe (``probe.py``) and report ``setup_s`` and ``wall_s`` scaled to its
reference speed, with the unscaled times as ``setup_raw_s`` and
``raw_wall_s``; a traced pass runs no probe and reports unscaled times.
The result is one JSON file.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from probe import SpeedProbe  # noqa: E402
from spans import SpanRecorder, instrument  # noqa: E402
from workloads import CLASSES  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    probe = None
    if args.mode != "traced":
        probe = SpeedProbe()
        probe.start()

    import satcuma
    if probe is not None and "numpy" in sys.modules:
        probe.use_numpy(sys.modules["numpy"])
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(satcuma.__file__), src]) != src:
        raise SystemExit(f"satcuma imported from {satcuma.__file__}, not from {src}")

    rec = None
    if args.mode == "traced":
        rec = SpanRecorder(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
        instrument(rec)

    def span(name):
        return rec.span(name) if rec is not None and name else contextlib.nullcontext()

    workload = CLASSES[args.workload](args.seed, args.workdir)
    with span("bench.setup"):
        workload.setup()
    setup = (T0, time.perf_counter())
    result = {"mode": args.mode, "setup_s": setup[1] - setup[0]}

    if args.mode != "setup":
        with span("bench.pass"):
            clock, outputs, counters = workload.run_pass(span)
        result.update(wall_s=clock.wall, peak_rss_mb=peak_rss_mb(), outputs=outputs,
                      counters=counters)
        if rec is not None:
            result["counters"].update(rec.counters)
            result["spans"] = rec.summary()
            result["span_count"] = len(rec.start)
            rec.dump(os.path.join(args.workdir, f"spans-{rec.run_id}.npz"))
    if probe is not None:
        probe.stop()
        result["setup_raw_s"], result["setup_s"] = probe.scaled([setup])
        if args.mode == "pass":
            result["raw_wall_s"], result["wall_s"] = probe.scaled(clock.intervals)
        result.update(slowness=probe.median_slowness(), probes=len(probe.slowness))

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
