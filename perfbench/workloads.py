"""The three benchmark workloads: set-up and one measured pass each.

A workload is driven entirely through satcuma's public API and CLI, in the
process of ``child.py``.  ``setup`` imports satcuma and builds the
workload's scenarios and specs; ``run_pass`` does the measured work and
returns the outputs that ``check.py`` compares with the recorded reference.
Only ``run_pass``'s calls into satcuma are timed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import random
import time

# References are recorded for these program seeds; a benchmark seed n runs
# the program with seed n % REFERENCE_SEEDS.
REFERENCE_SEEDS = 8

PRESETS = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11")

# (label, K, W, U, trials): trial counts are whole 65536-trial blocks
MC_SCENARIOS = (
    ("k21u5", 21, 2, 5, 8 * 65536),
    ("k61u20", 61, 3, 20, 2 * 65536),
    ("k181u20", 181, 3, 20, 65536),
)

ORACLE_SPEC = {"K": 61, "W": 3, "U": 20}
ORACLE_TRIALS = 100000
ORACLE_SWEEP_TRIALS = 10000

WORKLOADS = ("figures-analytic", "mc-kernel", "oracle-cli")


def program_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def pool_workers() -> int:
    """Two workers, or fewer when fewer cores are available."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def read_csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_counters(rows) -> dict:
    return {
        "sweep.rows": len(rows),
        "sweep.metric_failures": sum(r["warnings"].startswith("metric-failure") for r in rows),
        "sweep.quad_limit_rows": sum("quadrature-limit" in r["warnings"].split(";") for r in rows),
    }


class PassClock:
    """Sums the time a pass spends in its calls into satcuma and keeps each
    call's (start, end), for the speed probe to scale."""

    def __init__(self):
        self.wall = 0.0
        self.last = 0.0
        self.intervals = []

    @contextlib.contextmanager
    def unit(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.intervals.append((t0, t1))
            self.last = t1 - t0
            self.wall += self.last


class Workload:
    """One pass of a workload; subclasses fill in setup and the pass."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = program_seed(seed)
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, span) -> tuple:
        """Returns (PassClock, outputs, output-derived counters).

        ``span(name)`` is a context manager that records a benchmark span
        when tracing is on (and does nothing for ``name=None``)."""
        raise NotImplementedError


class FiguresAnalytic(Workload):
    """All nine figure presets, analytic only, through ``satcuma sweep``."""

    name = "figures-analytic"

    def setup(self):
        from satcuma import cli, sweep  # noqa: F401
        self.cli = cli
        self.order = list(PRESETS)
        random.Random(self.seed).shuffle(self.order)
        for preset in self.order:
            sweep.preset_sweeps(preset, seed=self.seed)

    def run_pass(self, span):
        rcs, clock = {}, PassClock()
        for preset in self.order:
            argv = ["sweep", "--preset", preset, "--workers", "1",
                    "--seed", str(self.seed), "--out", self.path(f"{preset}.csv")]
            with clock.unit(), span(f"sweep.{preset}"):
                rcs[preset] = self.cli.main(argv)
        rows = {p: read_csv_rows(self.path(f"{p}.csv")) for p in PRESETS}
        counters = sweep_counters([r for p in PRESETS for r in rows[p]])
        return clock, {"rc": rcs, "rows": rows}, counters


class McKernel(Workload):
    """``run_trials`` with one worker and the default block on three sizes."""

    name = "mc-kernel"

    def setup(self):
        from satcuma import montecarlo, build_scenario, table_default_config
        self.montecarlo = montecarlo
        self.scenarios = [(label, build_scenario(table_default_config(K=k, W=w, U=u)), n)
                          for label, k, w, u, n in MC_SCENARIOS]

    def run_pass(self, span):
        import numpy as np
        summaries, clock, per_s = {}, PassClock(), {}
        for label, sc, n in self.scenarios:
            with clock.unit(), span(f"mc.{label}"):
                batch = self.montecarlo.run_trials(sc, n, self.seed, workers=1)
            per_s[label] = n / clock.last
            sinr = np.sort(batch.sinr)
            summaries[label] = {
                "n": batch.n_trials,
                "alpha_sum": float(batch.alpha.sum()),
                "beta_sum": float(batch.beta.sum()),
                "ys_sum": float(batch.ys.sum()),
                "sinr_sum": float(batch.sinr.sum()),
                "kbar_sum": int(batch.kbar.sum()),
                "outage_0.35": float((batch.sinr < 0.35).mean()),
                "sinr_q10": float(sinr[n // 10]),
                "sinr_q50": float(sinr[n // 2]),
                "sinr_q90": float(sinr[(9 * n) // 10]),
            }
            del batch, sinr
        counters = {"montecarlo.trials": sum(s["n"] for s in summaries.values())}
        return clock, {"summaries": summaries, "trials_per_s": per_s}, counters


class OracleCli(Workload):
    """``validate``, ``report`` and a fig3 sweep with trials, in process."""

    name = "oracle-cli"

    def setup(self):
        from satcuma import build_scenario, cli, sweep
        self.cli = cli
        self.spec_path = self.path("oracle-scenario.json")
        with open(self.spec_path, "w") as fh:
            json.dump(ORACLE_SPEC, fh)
        build_scenario(self.spec_path)
        build_scenario(dict(cli.DEFAULT_SCENARIO, seed=self.seed))
        sweep.preset_sweeps("fig3", seed=self.seed, trials=ORACLE_SWEEP_TRIALS)

    def commands(self):
        seed, workers = str(self.seed), str(pool_workers())
        return (
            ("validate", ["validate", "--spec", self.spec_path, "--trials", str(ORACLE_TRIALS),
                          "--workers", workers, "--seed", seed,
                          "--out", self.path("validate.txt")]),
            ("report", ["report", "--trials", str(ORACLE_TRIALS), "--seed", seed,
                        "--out", self.path("report.txt")]),
            ("fig3", ["sweep", "--preset", "fig3", "--trials", str(ORACLE_SWEEP_TRIALS),
                      "--workers", workers, "--seed", seed, "--out", self.path("fig3.csv")]),
        )

    def run_pass(self, span):
        rcs, clock = {}, PassClock()
        for key, argv in self.commands():
            with clock.unit(), span("sweep.fig3" if key == "fig3" else None):
                rcs[key] = self.cli.main(argv)
        with open(self.path("validate.txt")) as fh:
            validate = parse_validate(fh.read())
        with open(self.path("report.txt")) as fh:
            report = fh.read().splitlines()
        fig3 = read_csv_rows(self.path("fig3.csv"))
        return (clock, {"rc": rcs, "validate": validate, "report": report, "fig3": fig3},
                sweep_counters(fig3))


def parse_validate(text: str) -> dict:
    """Check name -> PASS/FAIL/info, plus the overall verdict."""
    checks, overall = {}, None
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("overall:"):
            overall = parts[1]
        elif len(parts) >= 2 and parts[1] in ("PASS", "FAIL", "info"):
            checks[parts[0]] = parts[1]
    return {"checks": checks, "overall": overall}


CLASSES = {cls.name: cls for cls in (FiguresAnalytic, McKernel, OracleCli)}
