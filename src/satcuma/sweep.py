"""Parameter sweeps and the figure presets.

A sweep evaluates a set of metrics over a grid of one swept parameter
(mu, K, U, B, gamma, W, or an interferer phase) against a fixed base
scenario, optionally adding Monte-Carlo counterparts with confidence
intervals.  Presets are the reference experiment configurations, written as
spec-file sweep documents, so each study is one command.

METRIC_REGISTRY maps each metric to its (analytic, oracle) pair: analytic
returns a metrics.MetricResult, oracle the Monte-Carlo (value, ci_low,
ci_high), and either is None where the metric has no such form.

Output rows are written in deterministic grid order with 12-significant-
digit decimals, so files are byte-identical for identical spec + seed
regardless of worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from dataclasses import dataclass

import numpy as np

from . import benchmarks, distributions as dist, metrics
from .scenario import (SEED_BOUND, ScenarioError, build_scenario, is_integral, is_number,
                       phase_offset, table_default_config)

# each sweep parameter and the scenario key its grid value sets (K = mu*W + 1
# for mu); a gamma or psi_tilde sweep leaves the scenario as it is
_GRID_KEYS = {"mu": "K", "K": "K", "U": "U", "B": "B_hz", "gamma": None, "W": "W",
              "psi_tilde": None}
SWEEP_PARAMS = tuple(_GRID_KEYS)

CSV_COLUMNS = ("series", "param", "value", "metric", "analytic", "est_error",
               "warnings", "mc_value", "mc_ci_low", "mc_ci_high")


class SweepSpecError(ScenarioError):
    """Invalid sweep specification (usage error)."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a parameter grid, a base scenario, and requested metrics."""

    param: str
    grid: tuple
    base: dict                      # scenario config (see scenario module schema)
    metrics: tuple
    series: str = ""
    gamma: float = 0.35             # SINR threshold used by outage metrics
    mrc_M: int = 0                  # antennas of the MRC baseline metrics
    psi_u: float = 0.0              # desired-user phase for gain metrics (0 = use drawn)
    trials: int = 0                 # Monte-Carlo trials per grid point (0 = analytic only)
    seed: int = 0

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise SweepSpecError(f"unknown sweep parameter {self.param!r}; "
                                 f"choose one of {SWEEP_PARAMS}")
        if len(self.grid) == 0:
            raise SweepSpecError("sweep grid must be non-empty")
        g = list(self.grid)
        if any(b <= a for a, b in zip(g, g[1:])):
            raise SweepSpecError("sweep grid must be strictly increasing")
        if self.param in ("K", "U", "W") and not all(float(v).is_integer() for v in g):
            raise SweepSpecError(f"sweep field 'grid' of a {self.param!r} sweep "
                                 f"must hold integers, got {g!r}")
        if not self.metrics:
            raise SweepSpecError("metric list must be non-empty")
        for m in self.metrics:
            if m not in METRIC_REGISTRY:
                raise SweepSpecError(f"unknown metric {m!r}; available: "
                                     f"{sorted(METRIC_REGISTRY)}")
        if self.trials < 0:
            raise SweepSpecError("trials must be >= 0")
        if not 0 <= self.seed < SEED_BOUND:
            raise SweepSpecError(f"sweep field 'seed' must be in [0, 2**128), "
                                 f"got {self.seed}")
        if not (self.psi_u == 0.0 or 0.0 < self.psi_u < 2.0 * math.pi):
            raise SweepSpecError(f"sweep field 'psi_u' must be 0 (the drawn phase) or in "
                                 f"(0, 2*pi), got {self.psi_u}")
        if self.param == "mu":
            if "W" not in self.base:
                raise SweepSpecError("a 'mu' sweep needs the scenario key 'W' (K = mu*W + 1)")
            w = self.base["W"]
            if not is_integral(w):
                raise SweepSpecError(f"a 'mu' sweep needs an integer scenario key 'W', "
                                     f"got {w!r}")
            for v in g:
                k = v * w + 1
                if not (math.isfinite(k) and abs(k - round(k)) <= 1e-9):
                    raise SweepSpecError(f"mu={v} with W={w:g} gives non-integer port count")
        # thresholds: the outage metrics need them positive, the CDFs do not
        outage = [m for m in self.metrics if m in ("outage_exact", "outage_compact")]
        for name, values in (("grid", g), ("gamma", [self.gamma])):
            if not all(math.isfinite(v) for v in values):
                raise SweepSpecError(f"sweep field {name!r} must be finite, got {values!r}")
            if outage and "gamma" in (name, self.param) and not min(values) > 0.0:
                raise SweepSpecError(f"metric {outage[0]!r} needs sweep field {name!r} "
                                     f"> 0, got {values!r}")
        mrc = [m for m in self.metrics if m in _MRC_METRICS]
        if mrc and self.mrc_M < 1:
            raise SweepSpecError(f"metric {mrc[0]!r} needs sweep field 'mrc_M' >= 1, "
                                 f"got {self.mrc_M}")
        if "interferer_gain" in self.metrics and self.param != "psi_tilde":
            raise SweepSpecError("metric 'interferer_gain' needs a 'psi_tilde' sweep, "
                                 f"got a {self.param!r} sweep")


def _config_at(spec: SweepSpec, value) -> dict:
    cfg = dict(spec.base)
    key = _GRID_KEYS[spec.param]
    if key is not None:
        cfg[key] = round(value * cfg["W"] + 1) if spec.param == "mu" else value
    cfg.setdefault("seed", spec.seed)
    return cfg


def _config_key(v):
    """A hashable key of a config value that tells apart, at every level, values of
    different types or reprs, such as True, 1 and 1.0, which compare equal."""
    if isinstance(v, dict):
        return dict, tuple((k, _config_key(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return type(v), tuple(map(_config_key, v))
    return type(v), repr(v)


def _gamma_at(spec: SweepSpec, value) -> float:
    return float(value) if spec.param == "gamma" else spec.gamma


# --- the metric table -------------------------------------------------------
# METRIC_REGISTRY maps a metric name to its (analytic, oracle) pair.
# analytic(sc, spec, x) returns the metrics.MetricResult behind the row's
# analytic, est_error and warnings columns; oracle(sc, spec, x, batch) returns
# (mc_value, mc_ci_low, mc_ci_high) from the grid point's TrialBatch.  Either
# is None where the metric has no such form, and leaves its columns empty.
# Entries look metrics up on their module at call time, so a wrapper
# installed on the module attribute sees every call.  The Monte-Carlo oracle
# is imported where a batch is drawn or read, so an analytic sweep never
# loads it.

def _closed(value, warnings=()) -> metrics.MetricResult:
    """A closed form's value: exact, so its est_error is 0."""
    return metrics.MetricResult(value=value, est_error=0.0, warnings=warnings)


def _mean_ci(samples):
    """A sample mean with its +-1.96 standard-error interval: (m, lo, hi)."""
    m = float(samples.mean())
    half = 1.96 * float(samples.std()) / math.sqrt(samples.size)
    return m, m - half, m + half


def _mc_cdf(samples, spec, x):
    from . import montecarlo as mc
    p = float(mc.empirical_cdf(samples, [_gamma_at(spec, x)])[0])
    return mc.wilson_interval(p, samples.size)


def _mc_outage(sc, spec, x, batch):
    from . import montecarlo as mc
    return mc.empirical_outage(batch, _gamma_at(spec, x))


def _mc_snr(sc, spec, x, batch):
    return _mean_ci(2.0 * sc.Gamma * batch.alpha / np.maximum(batch.kbar, 1))


def _mc_rate(sc, spec, x, batch):
    return _mean_ci(sc.users.U * sc.budget.B * np.log2(1.0 + batch.sinr))


def _mc_zf(sc, spec, x, batch):
    # the identical-angle LoS channel is rank one, so the truncated ZF
    # combiner is the matched filter and every trial's SINR is the MRC SINR;
    # the tests pin this to the Monte-Carlo of benchmarks.zf_sinr_mc
    v = benchmarks.mrc_sinr(spec.mrc_M, sc.users.zeta, sc.Gamma)
    return v, v, v


METRIC_REGISTRY = {
    "outage_exact": (
        lambda sc, spec, x: metrics.outage_exact(_gamma_at(spec, x), sc), _mc_outage),
    "outage_compact": (
        lambda sc, spec, x: metrics.outage_compact(_gamma_at(spec, x), sc), _mc_outage),
    "mean_sinr": (
        lambda sc, spec, x: _closed(metrics.mean_sinr(sc), sc.warnings),
        lambda sc, spec, x, batch: _mean_ci(batch.sinr)),
    "mean_snr": (
        lambda sc, spec, x: _closed(metrics.mean_snr(sc), sc.warnings), _mc_snr),
    "mean_snr_compact": (
        lambda sc, spec, x: _closed(metrics.mean_snr_compact(sc), sc.warnings), _mc_snr),
    "rate_exact": (
        lambda sc, spec, x: metrics.ergodic_rate(sc, outage="exact"), _mc_rate),
    "rate_compact": (
        lambda sc, spec, x: metrics.ergodic_rate(sc, outage="compact"), _mc_rate),
    "rate_ocuma": (lambda sc, spec, x: benchmarks.ocuma_rate(sc), None),
    "mrc_mean_sinr": (
        lambda sc, spec, x: _closed(benchmarks.mrc_sinr(spec.mrc_M, sc.users.zeta, sc.Gamma)),
        None),
    "mrc_mean_snr": (
        lambda sc, spec, x: _closed(benchmarks.mrc_mean_snr(spec.mrc_M, sc.zeta_u, sc.Gamma)),
        None),
    "zf_mean_sinr": (None, _mc_zf),  # Monte-Carlo only
    "cdf_alpha": (
        lambda sc, spec, x: _closed(
            float(dist.signal_cdf(_gamma_at(spec, x), sc.zeta_u, sc.mu, sc.V)), sc.warnings),
        lambda sc, spec, x, batch: _mc_cdf(batch.alpha, spec, x)),
    # the first interferer's power, or the desired user's in a one-user
    # scenario, whose batch has no interferer column: no Monte-Carlo there
    "cdf_y": (
        lambda sc, spec, x: _closed(float(dist.interference_cdf_per_user(
            _gamma_at(spec, x), sc.users.zeta[1] if sc.users.U > 1 else sc.zeta_u,
            sc.V)), sc.warnings),
        lambda sc, spec, x, batch: _mc_cdf(batch.ys[:, 0], spec, x)
        if sc.users.U > 1 else (None, None, None)),
    "signal_gain": (
        lambda sc, spec, x: _closed(benchmarks.cuma_signal_gain(sc.antenna.K)), None),
    "interferer_gain": (
        lambda sc, spec, x: _closed(benchmarks.cuma_beamforming_gains(
            sc.antenna.K, [float(x)], phase_offset(spec.psi_u) if spec.psi_u > 0.0 else sc.t,
            sc.mu)[1][0], sc.warnings),
        None),
}

# the metrics that read the sweep field mrc_M
_MRC_METRICS = ("mrc_mean_sinr", "mrc_mean_snr", "zf_mean_sinr")

# batches are only built when a requested metric can use them; the ZF
# baseline is stated in closed form and reads none
_MC_BATCH_METRICS = {name for name, (_, mc_fn) in METRIC_REGISTRY.items()
                     if mc_fn not in (None, _mc_zf)}


def _eval_point(spec, x, sc):
    """The rows of grid point x, of scenario sc, in metric order (picklable worker)."""
    rows = []
    batch = None
    if spec.trials > 0 and _MC_BATCH_METRICS & set(spec.metrics):
        from . import montecarlo as mc
        batch = mc.run_trials(sc, spec.trials, spec.seed)
    for name in spec.metrics:
        analytic_fn, mc_fn = METRIC_REGISTRY[name]
        row = {"series": spec.series, "param": spec.param, "value": x,
               "metric": name, "analytic": None, "est_error": 0.0,
               "warnings": "", "mc_value": None, "mc_ci_low": None,
               "mc_ci_high": None}
        if analytic_fn is not None:
            try:
                r = analytic_fn(sc, spec, x)
                row["analytic"] = r.value
                row["est_error"] = r.est_error
                row["warnings"] = ";".join(r.warnings)
            except Exception as exc:  # metric failure: warn on the row, keep going
                row["warnings"] = f"metric-failure: {exc}"
        if spec.trials > 0 and mc_fn is not None:
            row["mc_value"], row["mc_ci_low"], row["mc_ci_high"] = mc_fn(sc, spec, x, batch)
        rows.append(row)
    return rows


def run_sweep(specs, workers: int = 1) -> list:
    """Evaluate sweeps; rows come back in (spec, grid, metric) order, as map
    and the pool's map both yield results in input order.  Every grid point
    of every sweep goes through one map, so a call starts at most one pool.
    Each distinct grid-point config is built once, in grid order before any
    metric runs, and the grid points that set it share its Scenario."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    spec_of = [spec for spec in specs for _ in spec.grid]
    points = [x for spec in specs for x in spec.grid]
    built, scenarios = {}, []
    for cfg in map(_config_at, spec_of, points):
        key = _config_key(cfg)
        if key not in built:
            built[key] = build_scenario(cfg)
        scenarios.append(built[key])
    if workers == 1 or len(points) <= 1:
        results = list(map(_eval_point, spec_of, points, scenarios))
    else:
        import concurrent.futures
        # a forked pool starts all max_workers processes at once
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(points))) as pool:
            results = list(pool.map(_eval_point, spec_of, points, scenarios))
    return [row for rows in results for row in rows]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12g" % v


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


def write_json(rows, path) -> None:
    def cell(v):  # a number at the CSV's 12 digits; a non-finite one, not JSON, is null
        x = v if v is None or isinstance(v, (str, int)) else float(_fmt(v))
        return None if isinstance(x, float) and not math.isfinite(x) else x
    payload = [{c: cell(row[c]) for c in CSV_COLUMNS} for row in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


# --- presets ----------------------------------------------------------------
# A preset takes a run's scenario overrides (none by default) and returns
# sweep documents in the spec-file schema (load_sweep_file), so
# {"sweeps": PRESETS[name]()} run with --spec reproduces it.  A document's
# scenario is the preset's own, as the overrides apply to every sweep later;
# only a grid drawn from the scenario (fig6's) reads them.

def _preset_fig3(overrides=None):
    return [{"param": "mu", "grid": list(range(2, 21)),
             "scenario": table_default_config(21, 2, 5),
             "metrics": ["outage_exact", "outage_compact", "mean_sinr", "mrc_mean_sinr",
                         "zf_mean_sinr"],
             "series": "W=2,U=5,gamma=0.35", "gamma": 0.35, "mrc_M": 15}]


def _preset_fig4(overrides=None):
    return [{"param": "K", "grid": list(range(9, 82, 8)),
             "scenario": table_default_config(9, w, u),
             "metrics": ["outage_exact", "mean_sinr"], "series": f"W={w},U={u}", "gamma": 0.35}
            for w, u in [(2, 5), (4, 5), (2, 8)]]


def _preset_fig5(overrides=None):
    return [{"param": "U", "grid": list(range(2, 21, 2)),
             "scenario": table_default_config(m * 2 + 1, 2, 2),
             "metrics": ["outage_exact", "mean_sinr"], "series": f"mu={m}", "gamma": 0.35}
            for m in (5, 10)]


def _preset_fig6(overrides=None):
    # each gamma grid spans 1-99% of the signal support of its sweep's final
    # scenario, so that the grid follows an override of the link budget
    docs = []
    for m in (4, 6):
        cfg = table_default_config(m * 2 + 1, 2, 2)
        sc = build_scenario({**cfg, **(overrides or {})})
        hi = sc.zeta_u / sc.V ** 2
        docs.append({"param": "gamma", "grid": np.linspace(hi * 0.01, hi * 0.99, 50).tolist(),
                     "scenario": cfg, "metrics": ["cdf_alpha", "cdf_y"], "series": f"mu={m}"})
    return docs


def _preset_fig7(overrides=None):
    return [{"param": "B", "grid": np.geomspace(1e6, 1e8, 13).tolist(),
             "scenario": table_default_config(61, 3, u), "metrics": ["rate_exact", "mean_snr"],
             "series": "O-CUMA" if u == 1 else f"N-CUMA,U={u}"}
            for u in (1, 5, 20)]


def _preset_fig8(overrides=None):
    return [{"param": "mu", "grid": list(range(4, 61, 6)),
             "scenario": table_default_config(61, 3, u, B_hz=b),
             "metrics": ["rate_exact", "mean_snr_compact"],
             "series": ("O-CUMA" if u == 1 else f"N-CUMA,U={u}") + f",B={b:g}"}
            for b in (1e7, 2e7) for u in (1, 5, 20)]


def _preset_fig9(overrides=None):
    return [{"param": "U", "grid": list(range(1, 31, 3)),
             "scenario": table_default_config(m * 3 + 1, 3, 1), "metrics": ["rate_exact"],
             "series": f"mu={m}"}
            for m in (10, 50)]


def _preset_fig10(overrides=None):
    grid = [11, 16, 21, 26, 31, 36, 41, 43, 45, 46, 47, 49, 51, 56, 61,
            81, 101, 121, 141, 161, 181, 201]
    return [{"param": "K", "grid": grid, "scenario": table_default_config(11, 3, 1),
             "metrics": ["mean_snr", "mean_snr_compact", "mrc_mean_snr"],
             "series": f"M={m}", "mrc_M": m}
            for m in (18, 3, 1)]


def _preset_fig11(overrides=None):
    return [{"param": "psi_tilde",
             "grid": np.linspace(0.02, 2.0 * math.pi - 0.02, 64).tolist(),
             "scenario": table_default_config(51, 5, 2),
             "metrics": ["interferer_gain", "signal_gain"],
             "series": "psi_u=pi,K=51,W=5", "psi_u": math.pi}]


PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
    "fig9": _preset_fig9,
    "fig10": _preset_fig10,
    "fig11": _preset_fig11,
}


# the optional SweepSpec fields (those with a default) and their types
_SPEC_FIELDS = {f.name: typing.get_type_hints(SweepSpec)[f.name]
                for f in dataclasses.fields(SweepSpec)
                if f.default is not dataclasses.MISSING}
_KIND_NAMES = {str: "a string or a number in the float range",
               float: "a number in the float range", int: "an integer in the float range"}


def _spec_field(name: str, value):
    """value as the optional SweepSpec field name: a string field also takes
    a number as its text, an int field only an integral number.  A value of
    the wrong type, or an int too large for a float, raises SweepSpecError
    naming the field."""
    kind = _SPEC_FIELDS[name]
    ok = (is_number(value) or isinstance(value, str)) if kind is str else \
        is_number(value) if kind is float else is_integral(value)
    if not ok:
        raise SweepSpecError(f"sweep field {name!r} must be {_KIND_NAMES[kind]}, "
                             f"got {value!r}")
    return kind(value)


def _list_field(item: dict, name: str, accept, what: str) -> tuple:
    """A required list-valued sweep field, each element one that accept takes."""
    value = item[name]
    if not (isinstance(value, list) and all(accept(v) for v in value)):
        raise SweepSpecError(f"sweep field {name!r} must be a list of {what}, got {value!r}")
    return tuple(value)


def _sweeps(items, seed: int, trials: int, overrides: dict | None) -> list:
    """The SweepSpecs of sweep documents.  A sweep's seed and trials are the
    command's, unless its document sets them; an override, a sweep field or
    else a scenario key, wins over both.  It may not name a key the grid
    sets, nor one whose value differs between the sweeps, which it would
    make equal."""
    fields = {k: v for k, v in (overrides or {}).items() if k in _SPEC_FIELDS}
    scenario = {k: v for k, v in (overrides or {}).items() if k not in fields}
    required = ("param", "grid", "scenario", "metrics")
    specs = []
    for item in items:
        if not isinstance(item, dict):
            raise SweepSpecError("each sweep must be a JSON object")
        unknown = set(item) - set(required) - set(_SPEC_FIELDS)
        if unknown:
            raise SweepSpecError(f"unknown sweep fields: {sorted(unknown)}")
        for req in required:
            if req not in item:
                raise SweepSpecError(f"missing sweep field: {req}")
        if not isinstance(item["scenario"], dict):
            raise SweepSpecError(f"sweep field 'scenario' must be an object, "
                                 f"got {item['scenario']!r}")
        optional = {"trials": trials, "seed": seed}
        optional.update((k, v) for k, v in item.items() if k in _SPEC_FIELDS)
        optional.update(fields)
        spec = SweepSpec(
            param=item["param"], grid=_list_field(item, "grid", is_number,
                                                  "numbers in the float range"),
            base={**item["scenario"], **scenario},  # scenario keys are checked at build time
            metrics=_list_field(item, "metrics", lambda v: isinstance(v, str),
                                "metric names"),
            **{k: _spec_field(k, v) for k, v in optional.items()})
        swept = "gamma" if spec.param == "gamma" else _GRID_KEYS[spec.param]
        if swept in (overrides or {}):  # the grid would overwrite it
            raise SweepSpecError(f"--set {swept}: a {spec.param!r} sweep sets {swept!r} "
                                 f"at each grid value")
        specs.append(spec)
    for key in overrides or {}:
        values = [item.get(key) if key in fields else item["scenario"].get(key) for item in items]
        if any(v != values[0] for v in values[1:]):
            raise SweepSpecError(f"--set {key}: the sweeps of this run set {key!r} to "
                                 f"different values, which one override would make equal")
    return specs


def _relabel(item: dict, overrides: dict, scenario: dict) -> str:
    """A preset document's series label, whose comma-separated key=value
    parts name scenario keys and sweep fields of the document, or its port
    density mu = (K-1)/W.  Each part whose key an override sets shows the
    override's value, and a mu part, when K or W is overridden, the final
    scenario's mu as the exact ratio that report prints (10/3)."""
    def part(text):
        key, eq, value = text.partition("=")
        if eq and key in overrides:
            v = overrides[key]
            value = f"{v:g}" if is_number(v) else str(v)
        elif key == "mu" and {"K", "W"} & scenario.keys():
            value = str(build_scenario({**item["scenario"], **scenario}).antenna.mu)
        return key + eq + value
    return ",".join(map(part, item["series"].split(",")))


def preset_sweeps(name: str, seed: int = 0, trials: int = 0,
                  overrides: dict | None = None) -> list:
    """A preset's sweeps, built as load_sweep_file builds a file's; their
    labels follow the overrides (a spec file's labels are its own)."""
    if name not in PRESETS:
        raise SweepSpecError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    overrides = overrides or {}
    scenario = {k: v for k, v in overrides.items() if k not in _SPEC_FIELDS}
    items = [dict(item, series=_relabel(item, overrides, scenario))
             for item in PRESETS[name](scenario)]
    return _sweeps(items, seed, trials, overrides)


def load_sweep_file(path, seed: int = 0, trials: int = 0,
                    overrides: dict | None = None) -> list:
    """Load sweeps from a JSON spec document: either a single sweep object or
    {"sweeps": [...]} with no other key, each sweep with fields param, grid,
    scenario, metrics and any of the optional SweepSpec fields.  seed and
    trials fill in where a sweep leaves them out, and config overrides apply
    to every sweep.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SweepSpecError(f"cannot read sweep spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SweepSpecError(f"sweep spec parse failure: {exc}") from exc
    if isinstance(doc, dict) and "sweeps" in doc:
        extra = sorted(set(doc) - {"sweeps"})
        if extra:
            raise SweepSpecError(f"unknown sweeps document fields: {extra} "
                                 f"(sweep fields go inside each sweep)")
        items = doc["sweeps"]
    else:
        items = [doc]
    if not isinstance(items, list) or not items:
        raise SweepSpecError(f"sweep spec field 'sweeps' must be a non-empty list "
                             f"of sweep objects, got {items!r}")
    return _sweeps(items, seed, trials, overrides)
