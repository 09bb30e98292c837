"""satcuma benchmark runner.

usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

Workloads (see BENCHMARK.json and perfbench/layers.json):
    figures-analytic  all nine figure presets, analytic only, one worker
    mc-kernel         run_trials on K=21/U=5, K=61/U=20 and K=181/U=20
    oracle-cli        satcuma validate, report and sweep fig3 with trials

Every pass and every set-up sample runs in a fresh ``child.py`` process
with BLAS/OpenMP pinned to one thread and at most two pool workers.  With
``--trace 0`` it runs untraced passes while at least half a pass's time
of ``--seconds`` is left (at least one), then five set-up-only
processes, and reports the end-to-end metrics, with times scaled to a
reference host speed by the probe in ``probe.py``.  With ``--trace 1`` it
runs one untraced pass and then traced passes, and reports the per-layer
metrics (unscaled), including the tracing overhead (traced minus untraced
unscaled pass time).  Outputs of every pass are checked against
``perfbench/reference`` and machine-independent counters must repeat
exactly, across passes and across runs in the same checkout.
The last line of standard output is the JSON result.

``--record`` rewrites the reference files from the current program;
``--self-test`` shows that the checker catches perturbed outputs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import check  # noqa: E402
from workloads import PRESETS, REFERENCE_SEEDS, WORKLOADS, program_seed  # noqa: E402

RUN_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_SAMPLES = 5
POOL_NOTE = ("spans are recorded in the benchmark process only: work done inside "
             "pool worker processes is attributed to the span that started the pool")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

_SPAN_CALLS_S = ("metrics.outage_exact", "metrics.outage_exact_curve", "metrics.mean_sinr",
                 "metrics.mean_snr", "distributions.sinr_pdf_exact", "core.compact",
                 "scenario.build_scenario")
_COUNTERS = ("quadrature.integrand_evals", "quadrature.subdivisions", "quadrature.unconverged",
             "montecarlo.trials", "montecarlo.blocks", "sweep.rows", "sweep.metric_failures",
             "sweep.quad_limit_rows")
MC_LABELS = ("k21u5", "k61u20", "k181u20")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    names = [("quadrature.integrate.calls", "count"), ("quadrature.integrate.self_s", "s")]
    names += [(c, "count") for c in _COUNTERS]
    for span in _SPAN_CALLS_S:
        names += [(f"{span}.calls", "count"), (f"{span}.s", "s")]
    names += [("metrics.ergodic_rate.u1.s", "s"), ("metrics.ergodic_rate.multi.s", "s"),
              ("validate.run_validation.s", "s"), ("validate.run_validation.self_s", "s"),
              ("montecarlo.run_trials.calls", "count"), ("montecarlo.run_trials.s", "s")]
    names += [(f"montecarlo.run_trials.trials_per_s.{label}", "1/s") for label in MC_LABELS]
    names += [("montecarlo.negative_set_trials.s", "s"), ("montecarlo.ks_distance.s", "s")]
    names += [(f"sweep.{p}.s", "s") for p in PRESETS]
    names += [("sweep.run_sweep.self_s", "s")]
    for verb in ("sweep", "validate", "report"):
        names += [(f"cli.main.{verb}.s", "s"), (f"cli.main.{verb}.self_s", "s")]
    names += [("trace.overhead_s", "s"), ("trace.accounted_share", "ratio"),
              ("trace.spans", "count")]
    return names


def per_layer_values(traced: list, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced passes (medians of their times)."""
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def span(r, name, key):
        return r["spans"].get(name, {}).get(key, 0)

    values = {"quadrature.integrate.calls": span(traced[0], "quadrature.integrate", "calls"),
              "quadrature.integrate.self_s": med(lambda r: span(r, "quadrature.integrate", "self_s"))}
    for c in _COUNTERS:
        values[c] = traced[0]["counters"].get(c, 0)
    for name in _SPAN_CALLS_S:
        values[f"{name}.calls"] = span(traced[0], name, "calls")
        values[f"{name}.s"] = med(lambda r: span(r, name, "s"))
    for name, key in (("metrics.ergodic_rate.u1", "s"), ("metrics.ergodic_rate.multi", "s"),
                      ("validate.run_validation", "s"),
                      ("validate.run_validation", "self_s"), ("montecarlo.run_trials", "s"),
                      ("montecarlo.negative_set_trials", "s"), ("montecarlo.ks_distance", "s"),
                      ("sweep.run_sweep", "self_s")):
        values[f"{name}.{key}"] = med(lambda r: span(r, name, key))
    values["montecarlo.run_trials.calls"] = span(traced[0], "montecarlo.run_trials", "calls")
    for label in MC_LABELS:
        values[f"montecarlo.run_trials.trials_per_s.{label}"] = med(
            lambda r: r["outputs"].get("trials_per_s", {}).get(label, 0.0))
    for p in PRESETS:
        values[f"sweep.{p}.s"] = med(lambda r: span(r, f"sweep.{p}", "s"))
    for verb in ("sweep", "validate", "report"):
        for key in ("s", "self_s"):
            values[f"cli.main.{verb}.{key}"] = med(lambda r: span(r, f"cli.main.{verb}", key))
    traced_wall = med(lambda r: r["wall_s"])
    values["trace.overhead_s"] = traced_wall - untraced_wall
    # time inside any span of the pass (all but the pass root's own self time)
    values["trace.accounted_share"] = med(
        lambda r: (span(r, "bench.pass", "s") - span(r, "bench.pass", "self_s")) / r["wall_s"])
    values["trace.spans"] = traced[0]["span_count"]
    return values


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "machine": platform.machine(), "threads_pinned": 1}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def workdir_for(workload: str, seed: int) -> str:
    return os.path.join(OUT, f"{workload}-seed{seed}")


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child process; returns its result with ``elapsed_s`` added,
    or a dict with ``error`` when it failed or ran out of time."""
    workdir = workdir_for(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, f"result-{mode}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", workdir, "--result", result_path]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} child timed out", "elapsed_s": time.monotonic() - t0}
    finally:
        try:  # pool workers left behind by a crashed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = (err or "").strip().splitlines()[-3:]
        return {"error": f"{mode} child exit {proc.returncode}: {' | '.join(tail)}",
                "elapsed_s": elapsed}
    with open(result_path) as fh:
        result = json.load(fh)
    result["elapsed_s"] = elapsed
    return result


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources that counters depend on."""
    h = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "satcuma"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_counter_history(key: str, counters: dict) -> str | None:
    """Compare counters with those of earlier runs of the same sources."""
    path = os.path.join(OUT, "counters.json")
    try:
        with open(path) as fh:
            history = json.load(fh)
    except (OSError, json.JSONDecodeError):
        history = {}
    fp = source_fingerprint()
    if history.get("fingerprint") != fp:
        history = {"fingerprint": fp, "runs": {}}
    previous = history["runs"].get(key)
    if previous is None:
        history["runs"][key] = counters
        with open(path, "w") as fh:
            json.dump(history, fh, indent=1, sort_keys=True)
        return None
    if previous != counters:
        return f"counters differ from an earlier run: {previous} != {counters}"
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    pseed = program_seed(seed)
    ref = check.load_reference(workload, pseed)
    problems = check.self_test(workload, ref)
    for name in glob.glob(os.path.join(workdir_for(workload, seed), "spans-*.npz")):
        os.remove(name)  # keep only this run's spans

    passes, failures = [], []

    def one(mode):
        r = run_child(workload, seed, mode, deadline)
        (failures if "error" in r else passes).append(r)
        return r

    if trace:
        one("pass")
        traced_time = []
        while not traced_time or (time.monotonic() - start + statistics.median(traced_time)
                                  <= seconds and time.monotonic() < deadline - 60):
            traced_time.append(one("traced")["elapsed_s"])
    else:
        durations = []
        # another pass starts while at least half a pass's time is left
        while not durations or (time.monotonic() - start + statistics.median(durations) / 2
                                <= seconds and time.monotonic() < deadline - 60):
            durations.append(one("pass")["elapsed_s"])
        for _ in range(SETUP_SAMPLES):
            one("setup")

    tally = check.Tally()
    for f in failures:
        tally.record(False, f["error"])
    measured = [r for r in passes if r["mode"] != "setup"]
    for r in measured:
        t = check.check_outputs(workload, ref, r["outputs"])
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.messages += t.messages

    # machine-independent counters repeat exactly: across passes of one kind,
    # and across runs of the same sources in this checkout
    for kind in ("pass", "traced"):
        sets = [r["counters"] for r in measured if r["mode"] == kind]
        if not sets:
            continue
        distinct = {json.dumps(c, sort_keys=True) for c in sets}
        tally.record(len(distinct) == 1, f"{kind} counters differ between passes: {distinct}")
        why = check_counter_history(f"{workload}/seed{pseed}/{kind}", sets[0])
        tally.record(why is None, f"{kind} {why}")

    untraced = [r for r in measured if r["mode"] == "pass"]
    traced = [r for r in measured if r["mode"] == "traced"]
    result = {"workload": workload, "seed": seed, "program_seed": pseed, "trace": trace,
              "seconds": seconds, "environment": environment(), "note": POOL_NOTE,
              "passes": [{k: v for k, v in r.items() if k not in ("outputs", "spans")}
                         for r in passes], "errors": [f["error"] for f in failures],
              "mismatches": tally.messages, "self_test_problems": problems}
    ok = bool(untraced) and (traced or not trace)
    metrics = {}
    units = dict(per_layer_names() if trace else END_TO_END)
    if ok and not trace:
        setups = [r["setup_s"] for r in passes if r["mode"] in ("setup", "pass")]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    elif ok:
        untraced_wall = statistics.median(r["raw_wall_s"] for r in untraced)
        metrics = per_layer_values(traced, untraced_wall)
        result["spans"] = traced[0]["spans"]
    result.update(attempted=max(tally.attempted, 1), failed=tally.failed,
                  correct=ok and tally.failed == 0 and not problems)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result


def record() -> int:
    """Rewrite the reference outputs from the current program."""
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS:
        seeds = [0] if workload == "figures-analytic" else range(REFERENCE_SEEDS)
        entries = {}
        for seed in seeds:
            r = run_child(workload, seed, "pass", time.monotonic() + 600)
            if "error" in r:
                print(r["error"], file=sys.stderr)
                return 1
            key = "*" if workload == "figures-analytic" else str(seed)
            entries[key] = r["outputs"]
            entries[key].pop("trials_per_s", None)
            print(f"recorded {workload} seed {seed}: counters {r['counters']}", flush=True)
        doc = {"environment": environment(), "seeds": entries}
        with open(check.reference_path(workload), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def self_test_all() -> int:
    bad = 0
    for workload in WORKLOADS:
        for pseed in ([0] if workload == "figures-analytic" else range(REFERENCE_SEEDS)):
            problems = check.self_test(workload, check.load_reference(workload, pseed))
            print(f"{workload} seed {pseed}: " + ("ok" if not problems else "; ".join(problems)))
            bad += len(problems)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    declared = {m["name"] for m in config["per_layer"]}
    if declared != {n for n, _ in per_layer_names()}:
        print("BENCHMARK.json per_layer differs from run.py's per-layer metrics")
        bad += 1
    if {m["name"] for m in config["end_to_end"]} != {n for n, _ in END_TO_END}:
        print("BENCHMARK.json end_to_end differs from run.py's end-to-end metrics")
        bad += 1
    print("self-test " + ("passed" if not bad else f"found {bad} problems"))
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "satcuma", "__init__.py")):
        print(f"error: no satcuma sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.record:
        return record()
    if args.self_test:
        return self_test_all()
    if args.workload is None:
        parser.error("--workload is required")

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    env = result["environment"]
    print(f"# environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} BLAS/OpenMP threads=1")
    for p in result["passes"]:
        print("# " + p["mode"] + ": " + ", ".join(
            f"{k}={p[k]:.4g}" for k in ("setup_s", "setup_raw_s", "wall_s", "raw_wall_s",
                                        "slowness", "peak_rss_mb", "elapsed_s") if k in p))
    counters = next((p["counters"] for p in reversed(result["passes"]) if "counters" in p), {})
    print(f"# counters: {json.dumps(counters, sort_keys=True)}")
    print(f"# error_rate: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")
    if args.trace:
        print(f"# note: {POOL_NOTE}")
    for line in result["errors"] + result["mismatches"] + result["self_test_problems"]:
        print(f"# problem: {line}")
    print(f"# details: {os.path.relpath(detail, ROOT)}")
    if args.trace:
        spans = os.path.relpath(workdir_for(args.workload, args.seed), ROOT)
        print(f"# spans: {spans}/spans-*.npz")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["metrics"] else 1  # no pass completed: nothing was measured


if __name__ == "__main__":
    sys.exit(main())
