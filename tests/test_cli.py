import json
import subprocess
import sys

import numpy as np
import pytest

import satcuma.core
from satcuma import metrics
from satcuma.cli import _build_parser, _load_scenario, main
from satcuma.sweep import (SweepSpec, SweepSpecError, load_sweep_file,
                           preset_sweeps, run_sweep)
from satcuma.validate import run_validation

from conftest import reference_scenario


def run_cli(args):
    return main(list(args))


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
        spec = SweepSpec(param="mu", grid=(2.5,), base={"K": 10, "W": 3, "U": 2},
                         metrics=("mean_snr",))
        with pytest.raises(SweepSpecError, match="non-integer"):
            run_sweep([spec])

    def test_row_count_is_grid_times_metrics(self):
        spec = SweepSpec(param="mu", grid=(4, 6, 8), base={"K": 9, "W": 2, "U": 2},
                         metrics=("outage_exact", "mean_snr"))
        rows = run_sweep([spec])
        assert len(rows) == 3 * 2

    def test_pool_bounded_by_grid_size(self, monkeypatch):
        # a forked pool starts every process up front; a huge --workers must
        # not start more than there are grid points (recorded, run in process)
        import satcuma.sweep as sweep_mod
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(sweep_mod.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        spec = SweepSpec(param="mu", grid=(4, 6, 8), base={"K": 9, "W": 2, "U": 2},
                         metrics=("mean_snr",))
        assert run_sweep([spec], workers=10 ** 6) == run_sweep([spec])
        assert started == [3]

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
    ], ids=["grid-int", "gamma-file", "gamma-set", "metrics-string", "trials-fraction"])
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

    @pytest.mark.parametrize("argv,option", [
        (["validate", "--trials", "-5"], "--trials"),
        (["report", "--trials", "-3"], "--trials"),
        (["validate", "--trials", "10", "--gamma", "-1"], "--gamma"),
        (["validate", "--trials", "10", "--gamma", "nan"], "--gamma"),
    ], ids=["validate-trials", "report-trials", "gamma-negative", "gamma-nan"])
    def test_bad_option_value_is_usage_error_naming_it(self, capsys, argv, option):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {option} must be" in err
        assert "runtime failure" not in err

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
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"K": 41, "W": 2, "U": 20}))
        a, b = tmp_path / "r1.txt", tmp_path / "r2.txt"
        args = ["validate", "--spec", str(scen), "--trials", "20000", "--seed", "3"]
        rc_a = run_cli(args + ["--workers", "1", "--out", str(a)])
        rc_b = run_cli(args + ["--workers", "4", "--out", str(b)])
        assert rc_a == rc_b == 0
        assert a.read_bytes() == b.read_bytes()


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


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "satcuma", "sweep", "--preset", "fig11",
             "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
