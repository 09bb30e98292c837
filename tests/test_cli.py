import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import satcuma.core
from satcuma import benchmarks, metrics
from satcuma.cli import _build_parser, _load_scenario, main
from satcuma.metrics import WARN_CLAMPED, WARN_QUAD_LIMIT
from satcuma.montecarlo import DEFAULT_BLOCK, _block_plan, run_trials, wilson_interval
from satcuma.scenario import WARN_ODD_MU, build_scenario
from satcuma.sweep import (_GRID_KEYS, METRIC_REGISTRY, PRESETS, SWEEP_PARAMS, SweepSpec,
                           SweepSpecError, _scenario_at, load_sweep_file, preset_sweeps,
                           run_sweep, write_csv)
from satcuma.validate import NEGATIVE_SET_TRIALS, run_validation

from conftest import reference_scenario


HUGE = 10 ** 400  # an integer too large for a float


def run_cli(args):
    return main(list(args))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool run_sweep starts; the pools run
    their map in process."""
    import concurrent.futures
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return started


class TestSweepSpec:
    def test_unknown_param(self):
        with pytest.raises(SweepSpecError, match="parameter"):
            SweepSpec(param="bogus", grid=(1,), base={}, metrics=("mean_snr",))

    def test_empty_grid(self):
        with pytest.raises(SweepSpecError, match="non-empty"):
            SweepSpec(param="mu", grid=(), base={}, metrics=("mean_snr",))

    def test_non_increasing_grid(self):
        with pytest.raises(SweepSpecError, match="increasing"):
            SweepSpec(param="mu", grid=(4, 4), base={}, metrics=("mean_snr",))

    def test_empty_metrics(self):
        with pytest.raises(SweepSpecError, match="metric"):
            SweepSpec(param="mu", grid=(4,), base={}, metrics=())

    def test_unknown_metric(self):
        with pytest.raises(SweepSpecError, match="unknown metric"):
            SweepSpec(param="mu", grid=(4,), base={}, metrics=("bogus",))

    def test_non_integer_port_count(self):
        # mu = 2.5 with W = 3 would need K = 8.5
        with pytest.raises(SweepSpecError, match="non-integer"):
            spec = SweepSpec(param="mu", grid=(2.5,), base={"K": 10, "W": 3, "U": 2},
                             metrics=("mean_snr",))
            run_sweep([spec])

    @pytest.mark.parametrize("param", SWEEP_PARAMS)
    def test_grid_value_sets_its_scenario_key(self, param):
        # each sweep parameter sets the one scenario key that _GRID_KEYS names
        x = {"mu": 4, "K": 13, "U": 3, "B": 2e7, "gamma": 0.2, "W": 4, "psi_tilde": 1.0}[param]
        base = {"K": 21, "W": 2, "U": 5}
        sc = _scenario_at(SweepSpec(param=param, grid=(x,), base=base,
                                    metrics=("mean_snr",)), x)
        key = _GRID_KEYS[param]
        if key is None:
            assert sc == build_scenario(base)
        else:
            # a mu sweep sets K = mu*W + 1
            assert sc == build_scenario({**base, key: x * 2 + 1 if param == "mu" else x})
            assert sc != build_scenario(base)
        # and the scenario reads the grid value back as the swept input
        assert {"mu": sc.mu, "K": sc.antenna.K, "U": sc.users.U, "B": sc.budget.B,
                "W": sc.antenna.W}.get(param, x) == x

    def test_row_count_is_grid_times_metrics(self):
        spec = SweepSpec(param="mu", grid=(4, 6, 8), base={"K": 9, "W": 2, "U": 2},
                         metrics=("outage_exact", "mean_snr"))
        rows = run_sweep([spec])
        assert len(rows) == 3 * 2

    def test_pool_bounded_by_grid_size(self, pool_sizes):
        # a forked pool starts every process up front; a huge --workers must
        # not start more than there are grid points (recorded, run in process)
        spec = SweepSpec(param="mu", grid=(4, 6, 8), base={"K": 9, "W": 2, "U": 2},
                         metrics=("mean_snr",))
        assert run_sweep([spec], workers=10 ** 6) == run_sweep([spec])
        assert pool_sizes == [3]

    def test_one_pool_for_all_sweeps_of_a_call(self, pool_sizes):
        # fig8's six sweeps share one pool, and rows keep (spec, grid, metric) order
        specs = preset_sweeps("fig8")
        rows = run_sweep(specs, workers=4)
        assert pool_sizes == [4]
        assert rows == run_sweep(specs)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_raises_naming_it(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(preset_sweeps("fig11"), workers=workers)

    def test_metric_failure_warns_row_and_continues(self, monkeypatch):
        import satcuma.sweep as sweep_mod

        def boom(sc, spec, x):
            raise RuntimeError("synthetic metric blowup")

        monkeypatch.setitem(sweep_mod.METRIC_REGISTRY, "mean_snr",
                            (boom, None))
        spec = SweepSpec(param="mu", grid=(4, 6), base={"K": 9, "W": 2, "U": 2},
                         metrics=("mean_snr", "outage_exact"))
        rows = run_sweep([spec])
        assert len(rows) == 4
        failed = [r for r in rows if r["metric"] == "mean_snr"]
        assert all(r["analytic"] is None for r in failed)
        assert all(r["warnings"].startswith("metric-failure") for r in failed)
        good = [r for r in rows if r["metric"] == "outage_exact"]
        assert all(r["analytic"] is not None for r in good)

    def test_cdf_rows_carry_wilson_interval(self):
        # an empirical CDF value is a proportion of the trials, so its row
        # carries the same Wilson 95% interval as an empirical outage
        rows = run_sweep(preset_sweeps("fig6", seed=9, trials=2000))
        assert {r["metric"] for r in rows} == {"cdf_alpha", "cdf_y"}
        for row in rows:
            p, lo, hi = row["mc_value"], row["mc_ci_low"], row["mc_ci_high"]
            assert (p, lo, hi) == wilson_interval(p, 2000)
            assert 0.0 <= lo < hi <= 1.0

    def test_presets_instantiate(self):
        for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                     "fig10", "fig11"):
            specs = preset_sweeps(name)
            assert specs
            for s in specs:
                assert s.grid and s.metrics

    def test_unknown_preset(self):
        with pytest.raises(SweepSpecError, match="preset"):
            preset_sweeps("fig99")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_is_a_spec_file(self, tmp_path, name):
        # a preset's sweep documents, written as a spec file, give its CSV byte for byte
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"sweeps": PRESETS[name]()}))
        a, b = tmp_path / "preset.csv", tmp_path / "spec.csv"
        assert run_cli(["sweep", "--preset", name, "--out", str(a)]) == 0
        assert run_cli(["sweep", "--spec", str(path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spec_file_round_trip(self, tmp_path):
        doc = {"param": "U", "grid": [2, 4], "scenario": {"K": 9, "W": 2, "U": 2},
               "metrics": ["outage_exact"], "gamma": 0.3}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        specs = load_sweep_file(str(path))
        assert specs[0].param == "U"
        assert specs[0].gamma == 0.3

    def test_spec_file_overrides(self, tmp_path):
        doc = {"sweeps": [{"param": "U", "grid": [2, 4], "metrics": ["mean_snr"],
                           "scenario": {"K": 9, "W": 2, "U": 2}, "gamma": 0.3}] * 2}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        specs = load_sweep_file(str(path), overrides={"K": 21, "gamma": 0.5})
        assert [(s.base["K"], s.base["W"], s.gamma) for s in specs] == [(21, 2, 0.5)] * 2
        out = tmp_path / "o.csv"
        assert run_cli(["sweep", "--spec", str(path), "--set", "K=21",
                        "--out", str(out)]) == 0
        snr = float(out.read_text().splitlines()[1].split(",")[4])
        assert snr == pytest.approx(
            metrics.mean_snr(reference_scenario(K=21, W=2, U=2)), rel=1e-11)

    def test_spec_file_unknown_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"param": "U", "grid": [2], "scenario": {},
                                    "metrics": ["mean_snr"], "nope": 1}))
        with pytest.raises(SweepSpecError, match="unknown sweep fields"):
            load_sweep_file(str(path))


class TestMetricTable:
    NAMES = {"outage_exact", "outage_compact", "mean_sinr", "mean_snr",
             "mean_snr_compact", "rate_exact", "rate_compact", "rate_ocuma",
             "mrc_mean_sinr", "mrc_mean_snr", "zf_mean_sinr", "cdf_alpha", "cdf_y",
             "signal_gain", "interferer_gain"}
    # the metrics whose analytic value depends on the scenario's port density
    SCENARIO_METRICS = {"outage_exact", "outage_compact", "mean_sinr", "mean_snr",
                        "mean_snr_compact", "rate_exact", "rate_compact", "rate_ocuma",
                        "cdf_alpha", "cdf_y", "interferer_gain"}

    def test_registry_names(self):
        assert set(METRIC_REGISTRY) == self.NAMES

    def test_oracle_columns_recomputed_from_the_batch(self):
        # a gamma sweep whose first threshold is inside the power CDFs'
        # support and whose second is inside the SINR's: the rows of each
        # metric hold its rule applied to the one run_trials batch
        cfg = {"K": 21, "W": 2, "U": 3}
        sc = build_scenario({**cfg, "seed": 6})
        n = 2000
        batch = run_trials(sc, n, 6)
        g_power = 0.95 * sc.zeta_u / sc.V ** 2
        spec = SweepSpec(param="gamma", grid=(g_power, 0.35), base=cfg,
                         metrics=tuple(sorted(self.NAMES - {"interferer_gain"})),
                         mrc_M=3, trials=n, seed=6)

        def mean_rule(samples):
            m = float(samples.mean())
            half = 1.96 * float(samples.std()) / math.sqrt(n)
            return m, m - half, m + half

        def proportion(samples, g, strict):
            hits = samples < g if strict else samples <= g
            return wilson_interval(np.count_nonzero(hits) / n, n)

        snr = 2.0 * sc.Gamma * batch.alpha / np.maximum(batch.kbar, 1)
        rate = sc.users.U * sc.budget.B * np.log2(1.0 + batch.sinr)
        mrc = benchmarks.mrc_sinr(3, sc.users.zeta, sc.Gamma)
        rows = run_sweep([spec])
        assert len(rows) == 2 * len(spec.metrics)
        for row in rows:
            g = row["value"]
            expected = {
                "outage_exact": proportion(batch.sinr, g, True),
                "outage_compact": proportion(batch.sinr, g, True),
                "cdf_alpha": proportion(batch.alpha, g, False),
                "cdf_y": proportion(batch.ys[:, 0], g, False),
                "mean_sinr": mean_rule(batch.sinr),
                "mean_snr": mean_rule(snr),
                "mean_snr_compact": mean_rule(snr),
                "rate_exact": mean_rule(rate),
                "rate_compact": mean_rule(rate),
                "zf_mean_sinr": (mrc, mrc, mrc),
            }.get(row["metric"], (None, None, None))
            assert (row["mc_value"], row["mc_ci_low"], row["mc_ci_high"]) == expected, row
        # each proportion is interior at the threshold chosen for it
        interior = {(r["metric"], r["value"]) for r in rows
                    if r["mc_value"] is not None and 0.0 < r["mc_value"] < 1.0}
        assert {("cdf_alpha", g_power), ("cdf_y", g_power), ("outage_exact", 0.35),
                ("outage_compact", 0.35)} <= interior

    def test_odd_mu_flags_exactly_the_scenario_metrics(self):
        spec = SweepSpec(param="psi_tilde", grid=(1.0,), base={"K": 11, "W": 2, "U": 3},
                         metrics=tuple(sorted(self.NAMES)), mrc_M=3)
        rows = run_sweep([spec])
        assert not any(r["warnings"].startswith("metric-failure") for r in rows)
        flagged = {r["metric"] for r in rows if "odd-mu" in r["warnings"].split(";")}
        assert flagged == self.SCENARIO_METRICS

    def test_monte_carlo_only_metric_leaves_analytic_empty(self, tmp_path):
        spec = SweepSpec(param="mu", grid=(10,), base={"K": 21, "W": 2, "U": 3},
                         metrics=("zf_mean_sinr",), mrc_M=3)
        (row,) = run_sweep([spec])
        assert (row["analytic"], row["est_error"], row["warnings"]) == (None, 0.0, "")
        out = tmp_path / "zf.csv"
        write_csv([row], out)
        assert out.read_text().splitlines()[1].split(",")[4] == ""


_EVERY_VERB_WITH_TRIALS = pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "fig3", "--trials", "2000"],
    ["validate", "--trials", "20000"],
    ["report", "--trials", "20000"],
], ids=["sweep", "validate", "report"])


class TestCliExitCodes:
    def test_sweep_requires_exactly_one_source(self, tmp_path):
        assert run_cli(["sweep", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run_cli(["sweep", "--preset", "fig99",
                        "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_metric_list_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"param": "U", "grid": [2],
                                    "scenario": {"K": 9, "W": 2, "U": 2},
                                    "metrics": []}))
        assert run_cli(["sweep", "--spec", str(spec),
                        "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("field,doc,sets", [
        ("grid", {"grid": 5}, []),
        ("gamma", {"gamma": "abc"}, []),
        ("gamma", {}, ["--set", "gamma=abc"]),
        ("metrics", {"metrics": "outage_exact"}, []),
        ("trials", {}, ["--set", "trials=1.5"]),
        ("mrc_M", {}, ["--set", f"mrc_M={HUGE}"]),
        ("gamma", {}, ["--set", f"gamma={HUGE}"]),
        ("trials", {}, ["--set", f"trials={HUGE}"]),
        ("gamma", {"gamma": HUGE}, []),
        ("grid", {"grid": [2, HUGE]}, []),
    ], ids=["grid-int", "gamma-file", "gamma-set", "metrics-string", "trials-fraction",
            "mrc_M-huge-set", "gamma-huge-set", "trials-huge-set", "gamma-huge-file",
            "grid-huge-entry"])
    def test_bad_sweep_field_is_usage_error_naming_it(self, tmp_path, capsys,
                                                      field, doc, sets):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"param": "U", "grid": [2],
                                    "scenario": {"K": 9, "W": 2, "U": 2},
                                    "metrics": ["outage_exact"], **doc}))
        assert run_cli(["sweep", "--spec", str(spec), *sets,
                        "--out", str(tmp_path / "x.csv")]) == 2
        assert f"sweep field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("param,grid", [
        ("K", [9.5, 11]), ("U", [2.5, 3]), ("W", [1.5, 2]),
    ])
    def test_fractional_count_grid_is_usage_error_naming_it(self, tmp_path, capsys,
                                                           param, grid):
        # int() would build the scenario at the truncated count while the
        # row keeps the fractional label
        spec = tmp_path / "spec.json"
        out = tmp_path / "x.csv"
        doc = {"param": param, "grid": grid, "scenario": {"K": 9, "W": 2, "U": 2},
               "metrics": ["signal_gain"]}
        spec.write_text(json.dumps(doc))
        assert run_cli(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'grid' of a {param!r} sweep" in err and str(grid[0]) in err
        assert not out.exists()
        spec.write_text(json.dumps({**doc, "grid": [float(int(grid[1]))]}))
        assert run_cli(["sweep", "--spec", str(spec), "--out", str(out)]) == 0

    def test_mu_sweep_without_w_is_usage_error_naming_it(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"param": "mu", "grid": [4],
                                    "scenario": {"K": 9, "U": 2},
                                    "metrics": ["outage_exact"]}))
        assert run_cli(["sweep", "--spec", str(spec),
                        "--out", str(tmp_path / "x.csv")]) == 2
        assert "scenario key 'W'" in capsys.readouterr().err

    @pytest.mark.parametrize("preset,key,value", [
        ("fig3", "K", "11"), ("fig5", "U", "3"), ("fig7", "B_hz", "1"), ("fig6", "gamma", "0.5"),
    ], ids=["mu-sets-K", "U", "B-sets-B_hz", "gamma"])
    def test_override_of_swept_key_is_usage_error_naming_it(self, tmp_path, capsys,
                                                            preset, key, value):
        # the grid sets this key at every point, so the override would be lost
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--preset", preset, "--set", f"{key}={value}",
                        "--out", str(out)]) == 2
        assert f"error: --set {key}: a " in capsys.readouterr().err
        assert not out.exists()

    def test_override_of_a_key_the_grid_reads_is_kept(self, tmp_path):
        # a mu sweep reads W (K = mu*W + 1) but does not set it
        a, b = tmp_path / "w2.csv", tmp_path / "w3.csv"
        assert run_cli(["sweep", "--preset", "fig3", "--out", str(a)]) == 0
        assert run_cli(["sweep", "--preset", "fig3", "--set", "W=3", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("preset,key,value", [
        ("fig8", "B_hz", "3e7"), ("fig4", "W", "3"), ("fig4", "series", "x"),
        ("fig10", "mrc_M", "2"), ("fig6", "K", "21"),
    ], ids=["fig8-B_hz", "fig4-W", "fig4-series", "fig10-mrc_M", "fig6-K"])
    def test_override_that_makes_sweeps_equal_is_usage_error(self, tmp_path, capsys,
                                                             preset, key, value):
        # the preset's sweeps differ in this key; one value for all of them
        # would write distinct series with identical rows
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--preset", preset, "--set", f"{key}={value}",
                        "--out", str(out)]) == 2
        assert f"error: --set {key}: the sweeps of this run set {key!r} to different " \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset,override,label", [
        ("fig3", "W=3", "W=3,U=5,gamma=0.35"),
        ("fig3", "gamma=0.5", "W=2,U=5,gamma=0.5"),
        ("fig11", "K=41", "psi_u=pi,K=41,W=5"),
    ], ids=["fig3-W", "fig3-gamma", "fig11-K"])
    def test_preset_label_follows_the_override(self, tmp_path, preset, override, label):
        import csv
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--preset", preset, "--set", override,
                        "--out", str(out)]) == 0
        with open(out) as fh:
            assert {row["series"] for row in csv.DictReader(fh)} == {label}

    def test_spec_file_label_is_its_own(self, tmp_path):
        code, rows = _sweep_rows(tmp_path, {"sweeps": PRESETS["fig11"]()}, "--set", "K=41")
        assert code == 0
        assert {row["series"] for row in rows} == {"psi_u=pi,K=51,W=5"}

    def test_override_of_a_key_every_sweep_shares_is_kept(self, tmp_path):
        a, b = tmp_path / "t207.csv", tmp_path / "t300.csv"
        assert run_cli(["sweep", "--preset", "fig7", "--out", str(a)]) == 0
        assert run_cli(["sweep", "--preset", "fig7", "--set", "T_kelvin=300",
                        "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("argv,option", [
        (["validate", "--trials", "-5"], "--trials"),
        (["report", "--trials", "-3"], "--trials"),
        (["validate", "--trials", "10", "--gamma", "-1"], "--gamma"),
        (["validate", "--trials", "10", "--gamma", "nan"], "--gamma"),
        (["validate", "--trials", "10", "--gamma", "inf"], "--gamma"),
        (["report", "--seed", "-1"], "--seed"),
        (["validate", "--seed", "-1"], "--seed"),
        (["sweep", "--preset", "fig6", "--seed", "-1"], "--seed"),
        (["report", "--seed", str(2 ** 128)], "--seed"),
        (["sweep", "--preset", "fig3", "--trials", "100", "--workers", "0"], "--workers"),
        (["sweep", "--preset", "fig3", "--trials", "100", "--workers", "-2"], "--workers"),
        (["validate", "--trials", "1000", "--workers", "0"], "--workers"),
        (["report", "--trials", "100", "--workers", "-1"], "--workers"),
    ], ids=["validate-trials", "report-trials", "gamma-negative", "gamma-nan", "gamma-inf",
            "report-seed", "validate-seed", "sweep-seed", "seed-2**128",
            "sweep-workers-0", "sweep-workers-negative", "validate-workers-0",
            "report-workers-negative"])
    def test_bad_option_value_is_usage_error_naming_it(self, capsys, argv, option):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {option} must be" in err
        assert "runtime failure" not in err

    @pytest.mark.parametrize("field,value", [
        ("G_dBi", "4000"),
        ("distance_m", "1e-300"),
        ("P_watts", "1e300"),
        ("B_hz", "1e-320"),
        ("T_kelvin", "1e-320"),
        ("f_c_hz", "1e-300"),
    ])
    def test_overflowing_link_budget_is_usage_error_naming_it(self, capsys, field,
                                                              value):
        # each value drives a derived link quantity (linear gain, path-loss
        # coefficient, noise power, nominal SNR) to 0 or inf
        assert run_cli(["report", "--set", f"{field}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"{field}=" in err
        assert "must be finite and positive" in err
        assert "runtime failure" not in err

    @pytest.mark.parametrize("argv", [
        ["report"], ["validate", "--trials", "100"], ["sweep", "--preset", "fig3"]],
        ids=["report", "validate", "sweep-fig3"])
    @pytest.mark.parametrize("distance", ["1e155", "8e96"])
    def test_zero_interference_spread_is_usage_error(self, capsys, monkeypatch, tmp_path,
                                                     argv, distance):
        # zeta^2 underflows for both a subnormal and a normal zeta, and with
        # it the interference spread kappa
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv + ["--set", f"distance_m={distance}"]) == 2
        err = capsys.readouterr().err
        assert "error: interference spread kappa is 0.0" in err
        assert f"distance_m={float(distance)!r}" in err
        assert "runtime failure" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["report"], ["validate", "--trials", "100"], ["sweep", "--preset", "fig3"]],
        ids=["report", "validate", "sweep-fig3"])
    def test_infinite_interference_spread_is_usage_error(self, capsys, monkeypatch, tmp_path,
                                                         argv):
        # zeta ~ 6e153: the sum of zeta^2 overflows, and with it kappa; the
        # metrics would print outages of 1 and a nan mean SINR
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv + ["--set", "distance_m=1e-80"]) == 2
        err = capsys.readouterr().err
        assert "error: interference spread kappa is inf" in err
        assert "f_c_hz=" in err and "distance_m=1e-80" in err
        assert "runtime failure" not in err
        assert list(tmp_path.iterdir()) == []

    def test_small_zeta_with_positive_spread_runs(self):
        assert run_cli(["report", "--set", "distance_m=8e75"]) == 0

    @pytest.mark.parametrize("argv,field", [
        (["report", "--set", "P_watts=abc"], "P_watts"),
        (["report", "--set", "B_hz=null"], "B_hz"),
        (["report", "--set", "G_dBi=[1]"], "G_dBi"),
        (["report", "--set", "U=2", "--set", 'distance_m=[1e6, "far"]'], "distance_m"),
        (["report", "--set", "K=1e400"], "K"),
        (["report", "--set", "seed=-1"], "seed"),
        (["sweep", "--preset", "fig6", "--set", "seed=-1"], "sweep field 'seed'"),
        (["report", "--set", f"K={HUGE}"], "K"),
        (["report", "--set", f"W={HUGE}"], "W"),
        (["report", "--set", f"U={HUGE}"], "U"),
        (["report", "--set", "P_watts=-1"], "P_watts"),
        (["report", "--set", "B_hz=-1"], "B_hz"),
        (["report", "--set", "T_kelvin=0"], "T_kelvin"),
        (["report", "--set", "f_c_hz=-1"], "f_c_hz"),
        (["report", "--set", "distance_m=-5"], "distance_m"),
        (["report", "--set", "U=2", "--set", "distance_m=[1e6, -5]"], "distance_m"),
        (["report", "--set", "K=2"], "K and W: V"),
        (["report", "--set", "W=100"], "K and W: port density"),
        (["validate", "--set", "K=3", "--trials", "100"], "K and W: port density"),
    ], ids=["P-string", "B-null", "G-list", "distance-entry", "K-inf", "seed-key",
            "sweep-seed-field", "K-huge", "W-huge", "U-huge", "P-negative", "B-negative",
            "T-zero", "f_c-negative", "distance-negative", "distance-entry-negative",
            "V-negative", "report-mu-below-2", "validate-mu-below-2"])
    def test_bad_scenario_value_is_usage_error_naming_it(self, capsys, monkeypatch,
                                                         tmp_path, argv, field):
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {field} must" in err
        assert "runtime failure" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("doc,message", [
        ({"param": "mu", "scenario": {"K": 9, "W": "abc", "U": 2}}, "integer scenario key 'W'"),
        ({"param": "mu", "scenario": {"K": 9, "W": "2", "U": 2}}, "integer scenario key 'W'"),
        ({"param": "mu", "scenario": {"K": 9, "W": 2.5, "U": 2}}, "integer scenario key 'W'"),
        ({"param": "mu", "scenario": {"K": 9, "W": True, "U": 2}}, "integer scenario key 'W'"),
        ({"param": "mu", "grid": [4, 4.5], "scenario": {"K": 9, "W": 1, "U": 2}},
         "mu=4.5 with W=1 gives non-integer port count"),
        ({"param": "mu", "grid": [4, float("inf")], "scenario": {"K": 9, "W": 2, "U": 2}},
         "mu=inf with W=2 gives non-integer port count"),
        ({"metrics": ["zf_mean_sinr"]}, "'zf_mean_sinr' needs sweep field 'mrc_M' >= 1"),
        ({"metrics": ["mrc_mean_sinr"]}, "'mrc_mean_sinr' needs sweep field 'mrc_M' >= 1"),
        ({"metrics": ["mrc_mean_snr"], "mrc_M": 0}, "'mrc_mean_snr' needs sweep field"),
        ({"metrics": ["interferer_gain"]}, "'psi_tilde' sweep"),
        ({"seed": -1}, "sweep field 'seed'"),
        ({"seed": 2 ** 128}, "sweep field 'seed'"),
        ({"psi_u": -1}, "sweep field 'psi_u' must be 0"),
        ({"psi_u": math.nan}, "sweep field 'psi_u' must be 0"),
        ({"psi_u": 2.0 * math.pi}, "sweep field 'psi_u' must be 0"),
        ({"psi_u": 7}, "sweep field 'psi_u' must be 0"),
    ], ids=["W-string", "W-numeric-string", "W-fraction", "W-bool", "mu-grid", "mu-inf",
            "zf-mrc_M", "mrc-sinr-mrc_M", "mrc-snr-mrc_M", "interferer-gain",
            "seed-negative", "seed-2**128", "psi_u-negative", "psi_u-nan", "psi_u-2pi",
            "psi_u-7"])
    def test_bad_sweep_spec_is_usage_error_before_any_row(self, tmp_path, capsys,
                                                          monkeypatch, doc, message):
        import satcuma.sweep as sweep_mod
        built = []
        build = sweep_mod.build_scenario
        monkeypatch.setattr(sweep_mod, "build_scenario",
                            lambda cfg: built.append(cfg) or build(cfg))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"param": "U", "grid": [2, 3],
                                    "scenario": {"K": 9, "W": 2, "U": 2},
                                    "metrics": ["outage_exact"], **doc}))
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("sweeps", [
        5, None, [],
        {"param": "U", "grid": [2], "scenario": {"K": 9, "W": 2, "U": 2},
         "metrics": ["outage_exact"]},
    ], ids=["int", "null", "empty-list", "object"])
    def test_sweeps_must_be_a_non_empty_list(self, tmp_path, capsys, sweeps):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sweeps": sweeps}))
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        assert "error: sweep spec field 'sweeps' must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    def test_sweeps_document_other_keys_are_usage_error_naming_them(self, tmp_path,
                                                                     capsys):
        # seed and trials beside "sweeps" were dropped: the sweep ran
        # analytic-only at seed 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sweeps": PRESETS["fig11"](), "seed": 3,
                                    "trials": 100}))
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        assert "error: unknown sweeps document fields: ['seed', 'trials']" in \
            capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _forbid_runs(monkeypatch):
        # every verb's work, analytic or Monte-Carlo, fails the test
        import satcuma.cli as cli
        import satcuma.montecarlo
        import satcuma.validate

        def run(*args, **kwargs):
            raise AssertionError("ran before --out was checked")

        for owner, name in ((cli, "run_sweep"), (cli, "_load_scenario"),
                            (satcuma.validate, "run_validation"),
                            (satcuma.montecarlo, "run_trials")):
            monkeypatch.setattr(owner, name, run)

    @_EVERY_VERB_WITH_TRIALS
    def test_out_in_missing_directory_is_usage_error_before_the_run(
            self, tmp_path, capsys, monkeypatch, argv):
        self._forbid_runs(monkeypatch)
        out = tmp_path / "missing" / "out.txt"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert "error: --out directory does not exist" in capsys.readouterr().err

    @_EVERY_VERB_WITH_TRIALS
    def test_out_naming_a_directory_is_usage_error_before_the_run(
            self, tmp_path, capsys, monkeypatch, argv):
        # a directory passed the existence check and failed on the write,
        # after the whole run
        self._forbid_runs(monkeypatch)
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert "error: --out names a directory" in capsys.readouterr().err

    def test_psi_u_zero_draws_the_phase(self, tmp_path):
        # psi_u = 0 and pi both run: 0 uses the scenario's drawn phase (about
        # 1.91 at seed 1), pi is the preset's own
        drawn, pi = tmp_path / "drawn.csv", tmp_path / "pi.csv"
        assert run_cli(["sweep", "--preset", "fig11", "--seed", "1", "--set", "psi_u=0",
                        "--out", str(drawn)]) == 0
        assert run_cli(["sweep", "--preset", "fig11", "--seed", "1",
                        "--set", f"psi_u={math.pi!r}", "--out", str(pi)]) == 0
        assert drawn.read_bytes() != pi.read_bytes()

    def test_validate_single_trial_is_usage_error(self, capsys):
        # one sample has no spread: the independence check would read nan
        assert run_cli(["validate", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: --trials must be >= 2 for validate" in err
        assert "at least 2 trials" in err
        assert "RuntimeWarning" not in err

    def test_validate_two_trials_runs(self, capsys):
        # the smallest accepted count gets a verdict, not a usage error
        assert run_cli(["validate", "--trials", "2"]) in (0, 1)
        assert "error:" not in capsys.readouterr().err

    def test_bad_scenario_key_is_usage_error(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"K": 9, "W": 2, "U": 2, "bogus": 1}))
        assert run_cli(["validate", "--spec", str(scen), "--trials", "10"]) == 2

    def test_missing_spec_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run_cli(["validate", "--spec", str(missing), "--trials", "10"]) == 2
        err = capsys.readouterr().err
        assert "missing.json" in err
        assert "cannot read" in err

    def test_malformed_spec_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "malformed.json"
        bad.write_text('{"K": 21,')
        assert run_cli(["report", "--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed.json" in err
        assert "parse failure" in err

    def test_spec_file_with_overrides_and_seed(self, tmp_path, capsys):
        # --set overrides the file and --seed fills in the scenario seed
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"K": 21, "W": 2, "U": 5}))
        assert run_cli(["report", "--spec", str(scen), "--set", "U=3",
                        "--seed", "4"]) == 0
        assert "users U                  3" in capsys.readouterr().out
        args = _build_parser().parse_args(["report", "--spec", str(scen), "--seed", "4"])
        sc = _load_scenario(args, {"U": 3})
        assert (sc.users.U, sc.seed) == (3, 4)
        assert sc.users.psi == reference_scenario(K=21, W=2, U=3, seed=4).users.psi

    def test_sweep_success(self, tmp_path):
        out = tmp_path / "fig11.csv"
        assert run_cli(["sweep", "--preset", "fig11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("series,param,value,metric,analytic")
        assert len(lines) == 1 + 64 * 2

    def test_fig11_gain_pattern(self, tmp_path):
        # with the desired phase at pi, the interferer gain peaks near
        # phases 0, pi and 2*pi and collapses in between
        import csv
        out = tmp_path / "fig11.csv"
        assert run_cli(["sweep", "--preset", "fig11", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["metric"] == "interferer_gain"]
        phase = np.array([float(r["value"]) for r in rows])
        gain = np.array([float(r["analytic"]) for r in rows])
        peak = gain.max()
        for target in (0.02, np.pi, 2 * np.pi - 0.02):
            assert gain[np.argmin(np.abs(phase - target))] > 0.95 * peak
        for trough in (np.pi / 2, 3 * np.pi / 2):
            assert gain[np.argmin(np.abs(phase - trough))] < 0.05 * peak

    def test_sweep_json_format(self, tmp_path):
        out = tmp_path / "fig11.json"
        assert run_cli(["sweep", "--preset", "fig11", "--format", "json",
                        "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 128
        assert {"series", "param", "value", "metric", "analytic"} <= set(rows[0])

    def test_set_override(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli(["sweep", "--preset", "fig11", "--set", "K=21",
                        "--out", str(out)]) == 0
        # signal gain rows now reflect K=21: 4*20/pi^2
        import csv
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        gains = {float(r["analytic"]) for r in rows if r["metric"] == "signal_gain"}
        assert len(gains) == 1
        assert gains.pop() == pytest.approx(80.0 / np.pi ** 2, rel=1e-9)


class TestDeterministicOutputs:
    def test_sweep_outputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--preset", "fig6", "--seed", "9", "--trials", "4000"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_workers_byte_identical(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        args = ["sweep", "--preset", "fig6", "--seed", "9", "--trials", "4000"]
        assert run_cli(args + ["--workers", "1", "--out", str(a)]) == 0
        assert run_cli(args + ["--workers", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validate_report_deterministic(self, tmp_path):
        # two default blocks: --workers 4 forks two processes, --workers 1 runs
        # in process
        n = 2 * DEFAULT_BLOCK
        assert _block_plan(n, DEFAULT_BLOCK, 4, min(n, NEGATIVE_SET_TRIALS))[1] == 2
        for verb in ("validate", "report"):
            a, b = tmp_path / f"{verb}-w1.txt", tmp_path / f"{verb}-w4.txt"
            args = [verb, "--trials", str(n), "--seed", "3"]
            rc_a = run_cli(args + ["--workers", "1", "--out", str(a)])
            rc_b = run_cli(args + ["--workers", "4", "--out", str(b)])
            assert rc_a == rc_b == 0
            assert a.read_bytes() == b.read_bytes()

    def test_sweep_json_is_strict_json(self, tmp_path):
        # a non-finite value (the rate at B = 1e300) is written as null, not NaN
        spec, out = tmp_path / "spec.json", tmp_path / "out.json"
        spec.write_text(json.dumps({"param": "B", "grid": [1e7, 1e300],
                                    "scenario": {"K": 21, "W": 2, "U": 5},
                                    "metrics": ["rate_exact", "mean_sinr", "outage_exact"]}))
        assert run_cli(["sweep", "--spec", str(spec), "--format", "json",
                        "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        rows = json.loads(out.read_text(), parse_constant=reject)
        rate = [r for r in rows if r["value"] == 1e300 and r["metric"] == "rate_exact"]
        assert rate[0]["analytic"] is None and rate[0]["est_error"] is None
        assert rate[0]["warnings"] == WARN_QUAD_LIMIT
        assert all(isinstance(r["analytic"], float) for r in rows if r["value"] == 1e7)


class TestValidateCommand:
    def test_green_path(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"K": 41, "W": 2, "U": 20}))
        assert run_cli(["validate", "--spec", str(scen), "--trials", "30000"]) == 0

    def test_default_scenario_passes(self, tmp_path):
        # the reference scenario (K=21 W=2 U=5) with every default: the SINR
        # fit inherits the four-interferer Gaussian-model error and must be
        # judged against it, not against the bare stated 0.01
        out = tmp_path / "val.txt"
        assert run_cli(["validate", "--out", str(out)]) == 0
        # below the massive-access regime the aggregate fit is informational
        # and reads "info" even though it passes; gating rows read PASS
        rows = {}
        for line in out.read_text().splitlines()[3:]:
            parts = line.split()
            if len(parts) >= 2 and not line.startswith(("-", "overall:")):
                rows[parts[0]] = parts[1]
        assert len(rows) == 11
        assert rows.pop("aggregate-interference-fit") == "info"
        assert set(rows.values()) == {"PASS"}

    def test_compact_equivalence_at_massive_access(self):
        # whole-column compact forms against the pass's own brute force
        sc = reference_scenario(K=61, W=3, U=20)
        rep = run_validation(sc, 20000, 5)
        check = {c.name: c for c in rep.checks}["compact-form-equivalence"]
        assert not check.informational
        assert check.passed
        assert check.statistic <= 1e-9

    def test_negative_control(self, monkeypatch, tmp_path):
        # a corrupted compact form must flip the equivalence check and the
        # exit code
        monkeypatch.setattr(satcuma.core, "signal_power_compact",
                            lambda psi, zeta, cfg: 0.5 * zeta / cfg.V ** 2)
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"K": 41, "W": 2, "U": 20}))
        assert run_cli(["validate", "--spec", str(scen), "--trials", "5000"]) == 1

    def test_negative_control_report_names_check(self, monkeypatch):
        monkeypatch.setattr(satcuma.core, "signal_power_compact",
                            lambda psi, zeta, cfg: 0.5 * zeta / cfg.V ** 2)
        sc = reference_scenario(K=41, W=2, U=20)
        rep = run_validation(sc, 5000, 1)
        failed = [c.name for c in rep.checks if not c.passed and not c.informational]
        assert failed == ["compact-form-equivalence"]

    def test_odd_density_checks_informational(self):
        sc = reference_scenario(K=11, W=2, U=5)  # mu = 5
        rep = run_validation(sc, 20000, 3)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["compact-form-equivalence"].informational
        assert by_name["sinr-distribution-fit"].informational
        # analytic outage must not undershoot the empirical one at odd density
        assert by_name["outage-agreement"].passed


class TestReportCommand:
    def test_report_contents(self, capsys, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"K": 21, "W": 2, "U": 5}))
        assert run_cli(["report", "--spec", str(scen)]) == 0
        out = capsys.readouterr().out
        assert "port density mu          10" in out
        assert "outage_exact" in out
        assert "ergodic rate" in out

    def test_report_with_trials(self, capsys):
        assert run_cli(["report", "--trials", "20000"]) == 0
        out = capsys.readouterr().out
        assert "MC outage(0.35)" in out

    def test_report_writes_file(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_cli(["report", "--out", str(out)]) == 0
        assert "nominal SNR Gamma" in out.read_text()

    def test_report_lines_show_their_flags(self, capsys):
        # mu = 5 is odd: every outage, mean and rate line carries odd-mu, and
        # the gamma = 1.0 outages, clamped to 1, carry clamped after it
        assert run_cli(["report", "--set", "K=11"]) == 0
        lines = _report_metric_lines(capsys.readouterr().out)
        assert [line.rsplit("  ", 1)[1] for line in lines] == \
            [WARN_ODD_MU] * 5 + [f"{WARN_ODD_MU};{WARN_CLAMPED}"] + [WARN_ODD_MU] * 3

    def test_default_report_has_no_flags(self, capsys):
        assert run_cli(["report"]) == 0
        out = capsys.readouterr().out
        lines = _report_metric_lines(out)
        assert len(lines) == 9
        assert all(math.isfinite(float(line.split()[-1])) for line in lines)
        assert not any(w in out for w in (WARN_ODD_MU, WARN_CLAMPED, WARN_QUAD_LIMIT))


def _report_metric_lines(text):
    """A report's six outage rows, then its mean SINR, mean SNR and rate lines."""
    lines = text.splitlines()
    start = lines.index(f"{'gamma':>8s} {'outage_exact':>14s} {'outage_compact':>15s}") + 1
    return lines[start:start + 6] + [line for line in lines
                                     if line.startswith(("mean S", "ergodic rate"))]


def _sweep_rows(tmp_path, doc, *args):
    """Exit code and CSV rows of a sweep of the spec document doc."""
    import csv
    spec, out = tmp_path / "spec.json", tmp_path / "rows.csv"
    spec.write_text(json.dumps(doc))
    code = run_cli(["sweep", "--spec", str(spec), *args, "--out", str(out)])
    if not out.exists():
        return code, None
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    out.unlink()
    return code, rows


class TestSweepThresholds:
    GAMMA_SWEEP = {"param": "gamma", "scenario": {"K": 21, "W": 2, "U": 5}}
    U_SWEEP = {"param": "U", "grid": [2], "scenario": {"K": 9, "W": 2, "U": 2},
               "metrics": ["outage_exact"]}

    @pytest.mark.parametrize("doc,args,field", [
        ({**GAMMA_SWEEP, "grid": [0.1, math.nan], "metrics": ["outage_exact"]}, [], "grid"),
        ({**GAMMA_SWEEP, "grid": [0.1, math.nan], "metrics": ["cdf_alpha"]}, [], "grid"),
        ({**U_SWEEP, "gamma": math.inf}, [], "gamma"),
        ({**U_SWEEP, "gamma": math.nan}, [], "gamma"),
        ({**U_SWEEP, "metrics": ["cdf_y"], "gamma": -math.inf}, [], "gamma"),
        ({**U_SWEEP, "metrics": ["outage_compact"]}, ["--set", "gamma=0"], "gamma"),
        ({**GAMMA_SWEEP, "grid": [-0.1, 0.2], "metrics": ["outage_exact"]},
         ["--trials", "100"], "grid"),
        ({**GAMMA_SWEEP, "grid": [0.0, 0.2], "metrics": ["cdf_y", "outage_compact"]},
         [], "grid"),
    ], ids=["grid-nan-outage", "grid-nan-cdf", "gamma-inf", "gamma-nan", "gamma-minus-inf",
            "gamma-zero-set", "grid-negative-trials", "grid-zero"])
    def test_bad_threshold_is_usage_error_naming_it(self, tmp_path, capsys, doc, args,
                                                    field):
        assert _sweep_rows(tmp_path, doc, *args) == (2, None)
        assert f"sweep field {field!r}" in capsys.readouterr().err

    def test_preset_with_zero_gamma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert run_cli(["sweep", "--preset", "fig3", "--set", "gamma=0",
                        "--out", str(out)]) == 2
        assert "sweep field 'gamma'" in capsys.readouterr().err
        assert not out.exists()

    def test_power_cdfs_accept_thresholds_at_or_below_zero(self, tmp_path):
        doc = {**self.GAMMA_SWEEP, "grid": [-0.1, 0.0, 0.2], "gamma": -1.0,
               "metrics": ["cdf_alpha", "cdf_y"]}
        code, rows = _sweep_rows(tmp_path, doc, "--trials", "100")
        assert code == 0
        low = [r for r in rows if float(r["value"]) <= 0.0]
        assert len(low) == 4
        assert all((r["analytic"], r["mc_value"], r["warnings"]) == ("0", "0", "")
                   for r in low)


class TestCdfYOneUser:
    @pytest.mark.parametrize("doc", [
        {"param": "mu", "grid": [10], "scenario": {"K": 21, "W": 2, "U": 1},
         "metrics": ["cdf_y"]},
        {"param": "U", "grid": [1, 2], "scenario": {"K": 21, "W": 2, "U": 5},
         "metrics": ["cdf_y"]},
    ], ids=["mu-sweep-U1", "U-sweep-1-2"])
    def test_one_user_row_keeps_analytic_value_only(self, tmp_path, doc):
        code, rows = _sweep_rows(tmp_path, doc, "--trials", "100")
        assert code == 0 and len(rows) == len(doc["grid"])
        _, analytic_rows = _sweep_rows(tmp_path, doc)
        one, *more = rows
        assert one["analytic"] == analytic_rows[0]["analytic"] != ""
        assert (one["mc_value"], one["mc_ci_low"], one["mc_ci_high"]) == ("", "", "")
        for row in more:
            # the rows with interferers are those of a sweep over them alone
            _, alone = _sweep_rows(tmp_path, {**doc, "grid": [int(row["value"])]},
                                   "--trials", "100")
            assert [row] == alone and row["mc_value"] != ""


class TestWarningPropagation:
    def test_odd_density_rows_flagged(self, tmp_path):
        import csv
        out = tmp_path / "fig3.csv"
        assert run_cli(["sweep", "--preset", "fig3", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        odd = [r for r in rows if float(r["value"]) in (3.0, 5.0, 7.0)
               and r["metric"] == "outage_exact"]
        assert odd and all("odd-mu" in r["warnings"] for r in odd)
        even = [r for r in rows if float(r["value"]) in (4.0, 10.0)
                and r["metric"] == "outage_exact"]
        assert even and all("odd-mu" not in r["warnings"] for r in even)

    def test_clamped_rows_flagged(self, tmp_path):
        import csv, json
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "param": "gamma", "grid": [0.1, 100.0],
            "scenario": {"K": 21, "W": 2, "U": 5},
            "metrics": ["outage_exact"]}))
        out = tmp_path / "o.csv"
        assert run_cli(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = {float(r["value"]): r for r in csv.DictReader(fh)}
        assert "clamped" in rows[100.0]["warnings"]
        assert "clamped" not in rows[0.1]["warnings"]


def _env_with_src():
    """The environment with the imported satcuma's source on PYTHONPATH, so
    a child interpreter runs the same code (pytest's own pythonpath setting
    reaches only this process)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(satcuma.core.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "satcuma", "sweep", "--preset", "fig11",
             "--out", str(out)], capture_output=True, text=True, env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_report_out_of_float_range_finishes(self):
        # B = 1e300 Hz puts the SINR supremum near 1e-293, where the SINR
        # integrands leave the float range: report shows NaN for the mean
        # SINR and the rate, flags the rate quadrature-limit, and finishes
        # at once
        proc = subprocess.run(
            [sys.executable, "-m", "satcuma", "report", "--set", "B_hz=1e300"],
            capture_output=True, text=True, env=_env_with_src(), timeout=30)
        assert proc.returncode == 0, proc.stderr
        # a line is its 25-column label, its value, then any flags
        rows = {line[:25].rstrip(): line[25:].split()
                for line in proc.stdout.splitlines() if line.startswith(("mean SINR", "ergodic"))}
        assert {label: cells[0] for label, cells in rows.items()} == \
            {"mean SINR": "nan", "ergodic rate (bits/s)": "nan"}
        assert rows["ergodic rate (bits/s)"][1:] == [WARN_QUAD_LIMIT]

    def test_report_out_of_float_range_warns_nothing(self):
        # the integrands that leave the float range at B = 1e300 Hz give
        # their NaN values without a NumPy RuntimeWarning
        argv = ["-m", "satcuma", "report", "--set", "B_hz=1e300"]
        runs = [subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                               text=True, env=_env_with_src(), timeout=30)
                for flags in (["-W", "error::RuntimeWarning"], [])]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
        assert runs[0].stdout == runs[1].stdout

    def test_runs_without_scipy(self, tmp_path):
        # SciPy is a test-only dependency; this process has imported it, so
        # the check runs in a fresh interpreter
        out = tmp_path / "fig6.csv"
        code = ("import sys, satcuma, satcuma.cli\n"
                f"rc = satcuma.cli.main(['sweep', '--preset', 'fig6', '--out', {str(out)!r}])\n"
                "assert rc == 0, rc\n"
                "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


# every public name of the package before its names resolved on first use
PUBLIC_NAMES = (
    "AntennaConfig", "LinkBudget", "MetricResult", "PortSet", "PortSetKind", "QuadratureSpec",
    "Scenario", "ScenarioError", "SupportInterval", "TrialBatch", "UserField",
    "activated_set", "benchmarks", "build_scenario", "cdf_difference", "core",
    "cuma_beamforming_gains", "distributions", "empirical_cdf", "empirical_outage",
    "ergodic_rate", "instant_sinr", "interference_cdf_per_user", "interference_pdf_per_user",
    "interference_power_compact", "k2_residual_bound", "ks_distance", "mean_sinr", "mean_snr",
    "metrics", "min_ports_vs_mrc", "montecarlo", "mrc_sinr", "nominal_snr", "ocuma_rate",
    "outage_compact", "outage_exact", "path_loss_coeff", "pdf_ratio", "quadrature",
    "run_trials", "scenario", "signal_amplitude_bruteforce", "signal_cdf", "signal_pdf",
    "signal_power_compact", "sinr_law", "sinr_pdf_compact", "sinr_pdf_exact",
    "table_default_config", "total_interference_pdf", "window_bounds", "zf_sinr_mc",
)


class TestImportFootprint:
    def test_analytic_sweep_loads_only_the_analytic_stack(self, tmp_path):
        # a fresh interpreter: this one has loaded every submodule
        unused = ["satcuma.montecarlo", "satcuma.validate", "concurrent.futures", "fractions",
                  "numpy.polynomial"]
        code = ("import json, sys\n"
                "from satcuma import cli\n"
                "assert cli.main(['sweep', '--preset', 'fig6', '--out', sys.argv[1]]) == 0\n"
                f"print(json.dumps([m for m in {unused!r} if m in sys.modules]))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "fig6.csv")],
                              capture_output=True, text=True, env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_monte_carlo_caller_loads_only_the_oracle(self):
        # a fresh interpreter: this one has loaded every submodule
        code = ("import json, sys\n"
                "from satcuma import montecarlo, build_scenario, table_default_config\n"
                "print(json.dumps(['numpy' in sys.modules,\n"
                "                  sorted(m for m in sys.modules if m.startswith('satcuma'))]))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        numpy_loaded, loaded = json.loads(proc.stdout)
        assert numpy_loaded
        assert loaded == ["satcuma", "satcuma.montecarlo", "satcuma.scenario"]

    def test_public_names_resolve(self):
        assert set(PUBLIC_NAMES) <= set(satcuma.__all__)
        for name in satcuma.__all__:
            assert name in dir(satcuma)
            value = getattr(satcuma, name)
            if not isinstance(value, type(satcuma)):
                assert value is getattr(sys.modules[value.__module__], name)
        with pytest.raises(AttributeError, match="no_such_name"):
            satcuma.no_such_name

    def test_names_follow_their_submodule(self, monkeypatch):
        # nothing is cached in the package: a wrapper on a submodule
        # attribute sees every call made through the package name
        sentinel = object()
        monkeypatch.setattr(satcuma.montecarlo, "run_trials", sentinel)
        assert satcuma.run_trials is sentinel
        assert "run_trials" not in vars(satcuma)
