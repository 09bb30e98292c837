"""Parameter sweeps and the figure presets.

A sweep evaluates a set of metrics over a grid of one swept parameter
(mu, K, U, B, gamma, W, or an interferer phase) against a fixed base
scenario, optionally adding Monte-Carlo counterparts with confidence
intervals.  Presets encode the reference experiment configurations so each
study is one command; every preset parameter can be overridden.

Output rows are written in deterministic grid order with 12-significant-
digit decimals, so files are byte-identical for identical spec + seed
regardless of worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import json
import math
import typing
from dataclasses import dataclass, replace

import numpy as np

from . import benchmarks, distributions as dist, metrics, montecarlo as mc
from .scenario import Scenario, ScenarioError, build_scenario, table_default_config

SWEEP_PARAMS = ("mu", "K", "U", "B", "gamma", "W", "psi_tilde")

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
        if self.param == "mu" and "W" not in self.base:
            raise SweepSpecError("a 'mu' sweep needs the scenario key 'W' (K = mu*W + 1)")


def _scenario_at(spec: SweepSpec, value) -> Scenario:
    cfg = dict(spec.base)
    if spec.param == "mu":
        w = int(cfg["W"])
        k = value * w + 1
        if abs(k - round(k)) > 1e-9:
            raise SweepSpecError(f"mu={value} with W={w} gives non-integer port count")
        cfg["K"] = int(round(k))
    elif spec.param == "K":
        cfg["K"] = int(value)
    elif spec.param == "U":
        cfg["U"] = int(value)
    elif spec.param == "B":
        cfg["B_hz"] = float(value)
    elif spec.param == "W":
        cfg["W"] = int(value)
    # gamma / psi_tilde sweeps leave the scenario untouched
    cfg.setdefault("seed", spec.seed)
    return build_scenario(cfg)


def _gamma_at(spec: SweepSpec, value) -> float:
    return float(value) if spec.param == "gamma" else spec.gamma


def _t_of(spec: SweepSpec, sc: Scenario) -> float:
    if spec.psi_u > 0.0:
        return 0.75 - spec.psi_u / (2.0 * math.pi)
    return sc.derived.t


# --- metric evaluators ------------------------------------------------------
# analytic: fn(sc, spec, x) -> (value | None, est_error, warnings)
# monte-carlo: fn(sc, spec, x, batch) -> (value, ci_low, ci_high) | None

def _m_outage_exact(sc, spec, x):
    r = metrics.outage_exact(_gamma_at(spec, x), sc)
    return r.value, r.est_error, r.warnings


def _m_outage_compact(sc, spec, x):
    r = metrics.outage_compact(_gamma_at(spec, x), sc)
    return r.value, r.est_error, r.warnings


def _m_mean_sinr(sc, spec, x):
    return metrics.mean_sinr(sc), 0.0, sc.warnings


def _m_mean_snr(sc, spec, x):
    return metrics.mean_snr(sc), 0.0, sc.warnings


def _m_mean_snr_compact(sc, spec, x):
    return metrics.mean_snr_compact(sc), 0.0, sc.warnings


def _m_rate_exact(sc, spec, x):
    r = metrics.ergodic_rate(sc, outage="exact")
    return r.value, r.est_error, r.warnings


def _m_rate_compact(sc, spec, x):
    r = metrics.ergodic_rate(sc, outage="compact")
    return r.value, r.est_error, r.warnings


def _m_rate_ocuma(sc, spec, x):
    r = benchmarks.ocuma_rate(sc)
    return r.value, r.est_error, r.warnings


def _m_mrc_mean_sinr(sc, spec, x):
    if spec.mrc_M < 1:
        raise SweepSpecError("mrc metrics require mrc_M >= 1")
    return benchmarks.mrc_sinr(spec.mrc_M, list(sc.users.zeta), sc.Gamma), 0.0, ()


def _m_mrc_mean_snr(sc, spec, x):
    if spec.mrc_M < 1:
        raise SweepSpecError("mrc metrics require mrc_M >= 1")
    return benchmarks.mrc_mean_snr(spec.mrc_M, sc.zeta_u, sc.Gamma), 0.0, ()


def _m_zf_mean_sinr(sc, spec, x):
    return None, 0.0, ()  # Monte-Carlo only


def _m_cdf_alpha(sc, spec, x):
    v = dist.signal_cdf(_gamma_at(spec, x), sc.zeta_u, sc.mu, sc.V)
    return float(v), 0.0, sc.warnings


def _m_cdf_y(sc, spec, x):
    zeta = sc.users.zeta[1] if sc.users.U > 1 else sc.zeta_u
    v = dist.interference_cdf_per_user(_gamma_at(spec, x), zeta, sc.V)
    return float(v), 0.0, sc.warnings


def _m_signal_gain(sc, spec, x):
    return benchmarks.cuma_signal_gain(sc.antenna.K), 0.0, ()


def _m_interferer_gain(sc, spec, x):
    if spec.param != "psi_tilde":
        raise SweepSpecError("interferer_gain metric requires a psi_tilde sweep")
    _, gains = benchmarks.cuma_beamforming_gains(
        sc.antenna.K, [float(x)], _t_of(spec, sc), sc.mu)
    return gains[0], 0.0, sc.warnings


def _mc_outage(sc, spec, x, batch):
    return mc.empirical_outage(batch, _gamma_at(spec, x))


def _mc_mean_sinr(sc, spec, x, batch):
    m = float(batch.sinr.mean())
    half = 1.96 * float(batch.sinr.std()) / math.sqrt(batch.n_trials)
    return m, m - half, m + half


def _mc_mean_snr(sc, spec, x, batch):
    snr = 2.0 * sc.Gamma * batch.alpha / np.maximum(batch.kbar, 1)
    m = float(snr.mean())
    half = 1.96 * float(snr.std()) / math.sqrt(batch.n_trials)
    return m, m - half, m + half


def _mc_rate(sc, spec, x, batch):
    per = sc.users.U * sc.budget.B * np.log2(1.0 + batch.sinr)
    m = float(per.mean())
    half = 1.96 * float(per.std()) / math.sqrt(batch.n_trials)
    return m, m - half, m + half


def _mc_zf(sc, spec, x, batch):
    # the identical-angle LoS channel is rank one, so the truncated ZF
    # combiner is the matched filter and every trial's SINR is the MRC SINR;
    # the tests pin this to the Monte-Carlo of benchmarks.zf_sinr_mc
    if spec.mrc_M < 1:
        raise SweepSpecError("zf_mean_sinr requires mrc_M >= 1")
    if spec.trials == 0:
        return None
    v = benchmarks.mrc_sinr(spec.mrc_M, list(sc.users.zeta), sc.Gamma)
    return v, v, v


def _mc_cdf_alpha(sc, spec, x, batch):
    p = float(mc.empirical_cdf(batch.alpha, [_gamma_at(spec, x)])[0])
    return p, p, p


def _mc_cdf_y(sc, spec, x, batch):
    p = float(mc.empirical_cdf(batch.ys[:, 0], [_gamma_at(spec, x)])[0])
    return p, p, p


METRIC_REGISTRY = {
    "outage_exact": (_m_outage_exact, _mc_outage),
    "outage_compact": (_m_outage_compact, _mc_outage),
    "mean_sinr": (_m_mean_sinr, _mc_mean_sinr),
    "mean_snr": (_m_mean_snr, _mc_mean_snr),
    "mean_snr_compact": (_m_mean_snr_compact, _mc_mean_snr),
    "rate_exact": (_m_rate_exact, _mc_rate),
    "rate_compact": (_m_rate_compact, _mc_rate),
    "rate_ocuma": (_m_rate_ocuma, None),
    "mrc_mean_sinr": (_m_mrc_mean_sinr, None),
    "mrc_mean_snr": (_m_mrc_mean_snr, None),
    "zf_mean_sinr": (_m_zf_mean_sinr, _mc_zf),
    "cdf_alpha": (_m_cdf_alpha, _mc_cdf_alpha),
    "cdf_y": (_m_cdf_y, _mc_cdf_y),
    "signal_gain": (_m_signal_gain, None),
    "interferer_gain": (_m_interferer_gain, None),
}

# batches are only built when a requested metric can use them; the ZF
# baseline is stated in closed form and reads none
_MC_BATCH_METRICS = {name for name, (_, mc_fn) in METRIC_REGISTRY.items()
                     if mc_fn not in (None, _mc_zf)}


def _eval_point(args):
    """Evaluate all metrics of one grid point (picklable worker)."""
    spec, idx = args
    x = spec.grid[idx]
    rows = []
    sc = _scenario_at(spec, x)
    batch = None
    if spec.trials > 0 and _MC_BATCH_METRICS & set(spec.metrics):
        batch = mc.run_trials(sc, spec.trials, spec.seed)
    for name in spec.metrics:
        analytic_fn, mc_fn = METRIC_REGISTRY[name]
        row = {"series": spec.series, "param": spec.param, "value": x,
               "metric": name, "analytic": None, "est_error": 0.0,
               "warnings": "", "mc_value": None, "mc_ci_low": None,
               "mc_ci_high": None}
        try:
            val, err, warns = analytic_fn(sc, spec, x)
            row["analytic"] = val
            row["est_error"] = err
            row["warnings"] = ";".join(warns)
        except SweepSpecError:
            raise
        except Exception as exc:  # metric failure: warn on the row, keep going
            row["warnings"] = f"metric-failure: {exc}"
        if spec.trials > 0 and mc_fn is not None:
            est = mc_fn(sc, spec, x, batch)
            if est is not None:
                row["mc_value"], row["mc_ci_low"], row["mc_ci_high"] = est
        rows.append(row)
    return idx, rows


def run_sweep(specs, workers: int = 1) -> list:
    """Evaluate sweeps; rows come back in (spec, grid, metric) order."""
    all_rows = []
    for spec in specs:
        jobs = [(spec, i) for i in range(len(spec.grid))]
        results = {}
        if workers <= 1 or len(jobs) == 1:
            for job in jobs:
                idx, rows = _eval_point(job)
                results[idx] = rows
        else:
            # a forked pool starts all max_workers processes at once
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(jobs))) as pool:
                for idx, rows in pool.map(_eval_point, jobs):
                    results[idx] = rows
        for i in range(len(spec.grid)):
            all_rows.extend(results[i])
    return all_rows


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
    payload = [{c: (None if row[c] is None else
                    (row[c] if isinstance(row[c], (str, int)) else float(_fmt(row[c]))))
                for c in CSV_COLUMNS} for row in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# --- presets ----------------------------------------------------------------

def _base(K, W, U, **over):
    return table_default_config(K=K, W=W, U=U, **over)


def _preset_fig3(seed, trials):
    grid = tuple(range(2, 21))
    return [SweepSpec(param="mu", grid=grid, base=_base(21, 2, 5),
                      metrics=("outage_exact", "outage_compact", "mean_sinr",
                               "mrc_mean_sinr", "zf_mean_sinr"),
                      series="W=2,U=5,gamma=0.35", gamma=0.35, mrc_M=15,
                      trials=trials, seed=seed)]


def _preset_fig4(seed, trials):
    grid = tuple(range(9, 82, 8))
    combos = [(2, 5), (4, 5), (2, 8)]
    return [SweepSpec(param="K", grid=grid, base=_base(9, w, u),
                      metrics=("outage_exact", "mean_sinr"),
                      series=f"W={w},U={u}", gamma=0.35, trials=trials, seed=seed)
            for w, u in combos]


def _preset_fig5(seed, trials):
    grid = tuple(range(2, 21, 2))
    return [SweepSpec(param="U", grid=grid, base=_base(m * 2 + 1, 2, 2),
                      metrics=("outage_exact", "mean_sinr"),
                      series=f"mu={m}", gamma=0.35, trials=trials, seed=seed)
            for m in (5, 10)]


def _preset_fig6(seed, trials):
    specs = []
    for m in (4, 6):
        cfg = _base(m * 2 + 1, 2, 2)
        sc = build_scenario(cfg)
        hi = sc.zeta_u / sc.V ** 2
        grid = tuple(np.linspace(hi * 0.01, hi * 0.99, 50))
        specs.append(SweepSpec(param="gamma", grid=grid, base=cfg,
                               metrics=("cdf_alpha", "cdf_y"), series=f"mu={m}",
                               trials=trials, seed=seed))
    return specs


def _preset_fig7(seed, trials):
    grid = tuple(float(b) for b in np.geomspace(1e6, 1e8, 13))
    return [SweepSpec(param="B", grid=grid, base=_base(61, 3, u),
                      metrics=("rate_exact", "mean_snr"),
                      series=("O-CUMA" if u == 1 else f"N-CUMA,U={u}"),
                      trials=trials, seed=seed)
            for u in (1, 5, 20)]


def _preset_fig8(seed, trials):
    grid = tuple(range(4, 61, 6))
    specs = []
    for b in (1e7, 2e7):
        for u in (1, 5, 20):
            specs.append(SweepSpec(
                param="mu", grid=grid, base=_base(61, 3, u, B_hz=b),
                metrics=("rate_exact", "mean_snr_compact"),
                series=(("O-CUMA" if u == 1 else f"N-CUMA,U={u}") + f",B={b:g}"),
                trials=trials, seed=seed))
    return specs


def _preset_fig9(seed, trials):
    grid = tuple(range(1, 31, 3))
    return [SweepSpec(param="U", grid=grid, base=_base(m * 3 + 1, 3, 1),
                      metrics=("rate_exact",), series=f"mu={m}",
                      trials=trials, seed=seed)
            for m in (10, 50)]


def _preset_fig10(seed, trials):
    grid = (11, 16, 21, 26, 31, 36, 41, 43, 45, 46, 47, 49, 51, 56, 61,
            81, 101, 121, 141, 161, 181, 201)
    return [SweepSpec(param="K", grid=grid, base=_base(11, 3, 1),
                      metrics=("mean_snr", "mean_snr_compact", "mrc_mean_snr"),
                      series=f"M={m}", mrc_M=m, trials=trials, seed=seed)
            for m in (18, 3, 1)]


def _preset_fig11(seed, trials):
    grid = tuple(np.linspace(0.02, 2.0 * math.pi - 0.02, 64))
    return [SweepSpec(param="psi_tilde", grid=grid, base=_base(51, 5, 2),
                      metrics=("interferer_gain", "signal_gain"),
                      series="psi_u=pi,K=51,W=5", psi_u=math.pi,
                      trials=trials, seed=seed)]


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


def preset_sweeps(name: str, seed: int = 0, trials: int = 0,
                  overrides: dict | None = None) -> list:
    """Instantiate a preset, applying config overrides to every sweep."""
    if name not in PRESETS:
        raise SweepSpecError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    specs = PRESETS[name](seed, trials)
    if overrides:
        specs = [_apply_overrides(s, overrides) for s in specs]
    return specs


# the optional SweepSpec fields (those with a default) and their types
_SPEC_FIELDS = {f.name: typing.get_type_hints(SweepSpec)[f.name]
                for f in dataclasses.fields(SweepSpec)
                if f.default is not dataclasses.MISSING}
_KIND_NAMES = {str: "a string or number", float: "a number", int: "an integer"}


def _spec_field(name: str, value):
    """value as the optional SweepSpec field name: a string field also takes
    a number as its text, an int field only an integral number.  A value of
    the wrong type raises SweepSpecError naming the field."""
    kind = _SPEC_FIELDS[name]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = (number or isinstance(value, str)) if kind is str else \
        number and (kind is float or float(value).is_integer())
    if not ok:
        raise SweepSpecError(f"sweep field {name!r} must be {_KIND_NAMES[kind]}, "
                             f"got {value!r}")
    return kind(value)


def _list_field(item: dict, name: str, element, what: str) -> tuple:
    """A required list-valued sweep field, each element of type element."""
    value = item[name]
    if not (isinstance(value, list) and all(
            isinstance(v, element) and not isinstance(v, bool) for v in value)):
        raise SweepSpecError(f"sweep field {name!r} must be a list of {what}, got {value!r}")
    return tuple(value)


def _apply_overrides(spec: SweepSpec, overrides: dict) -> SweepSpec:
    base = dict(spec.base)
    kwargs = {}
    for key, val in overrides.items():
        if key in _SPEC_FIELDS:
            kwargs[key] = _spec_field(key, val)
        else:
            base[key] = val  # scenario config key; validated at build time
    return replace(spec, base=base, **kwargs)


def load_sweep_file(path, seed: int = 0, trials: int = 0,
                    overrides: dict | None = None) -> list:
    """Load sweeps from a JSON spec document, applying config overrides to
    every sweep as preset_sweeps does.

    Either a single object or {"sweeps": [...]} with fields param, grid,
    scenario, metrics and the optional SweepSpec fields.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SweepSpecError(f"cannot read sweep spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SweepSpecError(f"sweep spec parse failure: {exc}") from exc
    items = doc["sweeps"] if isinstance(doc, dict) and "sweeps" in doc else [doc]
    specs = []
    for item in items:
        if not isinstance(item, dict):
            raise SweepSpecError("each sweep must be a JSON object")
        required = ("param", "grid", "scenario", "metrics")
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
        specs.append(SweepSpec(
            param=item["param"], grid=_list_field(item, "grid", (int, float), "numbers"),
            base=dict(item["scenario"]),
            metrics=_list_field(item, "metrics", str, "metric names"),
            **{k: _spec_field(k, v) for k, v in optional.items()}))
    if overrides:
        specs = [_apply_overrides(s, overrides) for s in specs]
    return specs
