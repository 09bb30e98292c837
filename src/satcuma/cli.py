"""Command-line front end.

Verbs::

    satcuma sweep    --preset fig3..fig11 | --spec sweeps.json  [options]
    satcuma validate [--spec scenario.json] [options]
    satcuma report   [--spec scenario.json] [options]

Common options: --seed, --trials, --workers, --out, --format csv|json and
repeatable --set key=value overrides.  Exit codes: 0 success, 1 runtime or
check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import distributions as dist
from .benchmarks import (cuma_signal_gain, min_ports_interference_limited,
                         min_ports_noise_limited)
from .scenario import SEED_BOUND, Scenario, ScenarioError, build_scenario, load_config
from .sweep import (METRIC_REGISTRY, SweepSpec, SweepSpecError, load_sweep_file,
                    preset_sweeps, run_sweep, write_csv, write_json)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

DEFAULT_SCENARIO = {"K": 21, "W": 2, "U": 5}  # reference setup, mu = 10


def _parse_set(items):
    """Parse repeated --set key=value pairs; values read as JSON when possible."""
    out = {}
    for item in items or ():
        if "=" not in item:
            raise SweepSpecError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satcuma",
        description="Uplink satellite fluid-antenna network performance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", help="input spec file (JSON)")
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        p.add_argument("--trials", type=int, default=0,
                       help="Monte-Carlo trials (0 = analytic only for sweep)")
        p.add_argument("--workers", type=int, default=1, help="parallel workers")
        p.add_argument("--out", help="output path (default: stdout/destination by verb)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p_sweep = sub.add_parser("sweep", help="evaluate metrics over a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--preset", help="named preset (fig3..fig11)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_val = sub.add_parser("validate", help="run the oracle-vs-analytic suite")
    common(p_val)
    p_val.add_argument("--gamma", type=float, default=0.35,
                       help="outage threshold for the agreement check")

    p_rep = sub.add_parser("report", help="human-readable scenario summary")
    common(p_rep)
    return parser


def _load_scenario(args, overrides) -> Scenario:
    cfg = load_config(args.spec) if args.spec else dict(DEFAULT_SCENARIO)
    cfg.update(overrides)
    cfg.setdefault("seed", args.seed)
    sc = build_scenario(cfg)
    if sc.mu < 2.0:
        # report and validate print closed forms, which need mu >= 2, on every line
        raise ScenarioError(f"K and W: port density must be >= 2 for the closed forms, "
                            f"got mu = (K-1)/W = {sc.antenna.mu} at K={sc.antenna.K}, "
                            f"W={sc.antenna.W}")
    return sc


def _cmd_sweep(args) -> int:
    overrides = _parse_set(args.set)
    if bool(args.preset) == bool(args.spec):
        raise SweepSpecError("sweep requires exactly one of --preset or --spec")
    if args.preset:
        specs = preset_sweeps(args.preset, seed=args.seed, trials=args.trials,
                              overrides=overrides)
    else:
        specs = load_sweep_file(args.spec, seed=args.seed, trials=args.trials,
                                overrides=overrides)
    rows = run_sweep(specs, workers=args.workers)
    out = args.out or f"{args.preset or 'sweep'}.{args.format}"
    (write_csv if args.format == "csv" else write_json)(rows, out)
    failures = sum(1 for r in rows if str(r["warnings"]).startswith("metric-failure"))
    print(f"wrote {len(rows)} rows to {out}" +
          (f" ({failures} metric failures)" if failures else ""))
    return EXIT_OK


def _emit(text, out) -> None:
    """Print text, after writing it to the file out when one is given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_validate(args) -> int:
    from . import validate as val
    overrides = _parse_set(args.set)
    sc = _load_scenario(args, overrides)
    trials = args.trials or 200000
    report = val.run_validation(sc, trials, args.seed, workers=args.workers,
                                gamma=args.gamma)
    _emit(report.render(), args.out)
    return EXIT_OK if report.passed else EXIT_RUNTIME


def _cmd_report(args) -> int:
    sc = _load_scenario(args, _parse_set(args.set))
    # metric lines are metric-table rows of sc, each followed by its flags
    spec = SweepSpec(param="gamma", grid=(0.05, 0.1, 0.2, 0.35, 0.5, 1.0), base={},
                     metrics=("outage_exact", "outage_compact"))

    def row(text, *names, x=None):
        results = [METRIC_REGISTRY[name][0](sc, spec, x) for name in names]
        flags = ";".join(dict.fromkeys(w for r in results for w in r.warnings))
        return text.format(*(r.value for r in results)) + (f"  {flags}" if flags else "")

    lines = [
        "scenario summary",
        "-" * 60,
        f"ports K                  {sc.antenna.K}",
        f"aperture W (wavelengths) {sc.antenna.W}",
        f"port density mu          {sc.antenna.mu} "
        + ("(even integer)" if sc.antenna.mu_is_even_integer else "(NOT an even integer)"),
        f"users U                  {sc.users.U}",
        f"path loss zeta_u         {sc.zeta_u:.6g}",
        f"noise power (W)          {sc.budget.noise_power:.6g}",
        f"nominal SNR Gamma        {sc.Gamma:.6g}",
        f"signal scaling V^2       {sc.V ** 2:.6g}",
        f"activated ports Kbar     {sc.Kbar:g}",
        f"SINR supremum            {dist.sinr_supremum(sc):.6g}",
        "-" * 60,
        f"{'gamma':>8s} {'outage_exact':>14s} {'outage_compact':>15s}",
        *(row(f"{g:8.3f} {{:14.6f}} {{:15.6f}}", *spec.metrics, x=g) for g in spec.grid),
        "-" * 60,
        row("mean SINR                {:.6g}", "mean_sinr"),
        row("mean SNR                 {:.6g}", "mean_snr"),
        row("ergodic rate (bits/s)    {:.6g}", "rate_exact"),
        "-" * 60,
        f"beamforming gain         {cuma_signal_gain(sc.antenna.K):.4g} "
        f"(MRC needs that many antennas)",
        f"ports to beat MRC(M=18)  {min_ports_noise_limited(18, 7.0, sc.antenna.W)}"
        f" (noise-limited), "
        f"{min_ports_interference_limited(7.0, sc.antenna.W)} (interference-limited)",
    ]
    if args.trials:
        from . import montecarlo as mc
        batch = mc.run_trials(sc, args.trials, args.seed, workers=args.workers)
        p, lo, hi = METRIC_REGISTRY["outage_exact"][1](sc, spec, 0.35, batch)
        mean = METRIC_REGISTRY["mean_sinr"][1](sc, spec, None, batch)[0]
        lines += ["-" * 60, f"MC outage(0.35)          {p:.6f}  CI [{lo:.6f}, {hi:.6f}]"
                  f"  ({args.trials} trials)", f"MC mean SINR             {mean:.6g}"]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _bad_option(args):
    """The usage error in an option value that no verb can run with, or None."""
    if args.trials < 0:
        return f"--trials must be >= 0, got {args.trials}"
    if not 0 <= args.seed < SEED_BOUND:
        return f"--seed must be in [0, 2**128), got {args.seed}"
    if args.workers < 1:
        return f"--workers must be >= 1, got {args.workers}"
    # an unwritable --out is found before the run, which would otherwise end
    # in a failed write
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        return f"--out directory does not exist: {os.path.dirname(args.out)!r}"
    if args.out and os.path.isdir(args.out):
        return f"--out names a directory, not a file: {args.out!r}"
    if args.command == "validate" and args.trials == 1:
        # one sample has no spread: its signal-interference correlation is nan
        return ("--trials must be >= 2 for validate, which needs at least 2 trials "
                "(0 runs the default 200000), got 1")
    if args.command == "validate" and not 0.0 < args.gamma < float("inf"):
        return f"--gamma must be finite and positive, got {args.gamma}"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    problem = _bad_option(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_report(args)
    except (SweepSpecError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
