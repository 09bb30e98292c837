"""The benchmark under perfbench/ times satcuma from outside: it wraps the
public functions named in perfbench/spans.py's TARGETS and binds some of
their arguments by name, and it checks each pass's outputs against the
references recorded under perfbench/reference/.  These checks keep a change
to satcuma from silently breaking traced benchmark runs or moving a
recorded output; the files under perfbench/ are only read."""

import contextlib
import importlib
import importlib.util
import pathlib

import numpy as np

from satcuma import metrics, montecarlo, quadrature

from conftest import reference_scenario

PERFBENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _perfbench("spans")


def test_every_target_resolves():
    for mod_name, fn_name, _ in _spans().TARGETS:
        module = importlib.import_module(f"satcuma.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"satcuma.{mod_name}.{fn_name}"


def test_run_trials_binds_n_and_block_size():
    spans = _spans()
    rec = spans.SpanRecorder("contract")
    wrapped = spans._run_trials_wrapper(rec, montecarlo.run_trials)
    sc = reference_scenario(K=9, W=2, U=2)
    wrapped(sc, 10, 0, workers=1)
    wrapped(sc, 10, 0, block_size=4)
    assert rec.counters["montecarlo.trials"] == 20
    assert rec.counters["montecarlo.blocks"] == 1 + 3


def test_validation_pass_counts_as_run_trials(monkeypatch):
    # validate's one brute-force pass, negative-set amplitudes included, is
    # a run_trials call, so a traced validate counts its trials
    from satcuma import validate
    spans = _spans()
    rec = spans.SpanRecorder("contract")
    monkeypatch.setattr(montecarlo, "run_trials",
                        spans._run_trials_wrapper(rec, montecarlo.run_trials))
    validate.run_validation(reference_scenario(K=9, W=2, U=2), 3000, 0)
    assert rec.counters["montecarlo.trials"] == 3000
    assert rec.summary().keys() == {"montecarlo.run_trials"}


def test_ergodic_rate_binds_sc():
    spans = _spans()
    rec = spans.SpanRecorder("contract")
    wrapped = spans._ergodic_rate_wrapper(rec, metrics.ergodic_rate)
    wrapped(reference_scenario(K=9, W=2, U=1), outage="exact")
    wrapped(sc=reference_scenario(K=9, W=2, U=2), outage="compact",
            spec=metrics.METRIC_SPEC)
    assert rec.summary().keys() == {"metrics.ergodic_rate.u1", "metrics.ergodic_rate.multi"}


def test_integrate_wrapper_reads_the_result():
    spans = _spans()
    rec = spans.SpanRecorder("contract")
    wrapped = spans._integrate_wrapper(rec, quadrature.integrate)
    res = wrapped(np.sin, 0.0, np.pi, quadrature.DEFAULT_SPEC, breakpoints=(1.0,))
    assert res.value == quadrature.integrate(np.sin, 0.0, np.pi, breakpoints=(1.0,)).value
    assert rec.counters["quadrature.integrand_evals"] > 0


def test_integrand_evals_count_each_panel_once():
    # the counter stays machine-independent under batched rounds: every
    # panel costs its 15 + 7 nodes exactly once
    spans = _spans()
    rec = spans.SpanRecorder("contract")
    wrapped = spans._integrate_wrapper(rec, quadrature.integrate)
    res = wrapped(lambda x: np.sin(13.0 * x) * np.exp(-x), 0.0, 8.0, breakpoints=(1.0, 2.0))
    assert res.subdivisions > 0
    assert rec.counters["quadrature.subdivisions"] == res.subdivisions
    assert rec.counters["quadrature.integrand_evals"] == 22 * (3 + 2 * res.subdivisions)


def _assert_pass_matches_reference(workload):
    # one untraced pass, judged by the benchmark's own checker against
    # program seed 0's reference
    check = _perfbench("check")
    workload.setup()
    _, outputs, _ = workload.run_pass(lambda name: contextlib.nullcontext())
    tally = check.check_outputs(workload.name, check.load_reference(workload.name, 0), outputs)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages


def test_figures_analytic_matches_reference(tmp_path):
    # all nine presets, analytic only
    _assert_pass_matches_reference(_perfbench("workloads").FiguresAnalytic(0, str(tmp_path)))


def test_oracle_cli_matches_reference(tmp_path):
    # validate, report and a fig3 sweep with trials
    _assert_pass_matches_reference(_perfbench("workloads").OracleCli(0, str(tmp_path)))


def test_mc_kernel_matches_reference(tmp_path):
    # run_trials in process on the three kernel sizes, each a whole number
    # of default blocks
    _assert_pass_matches_reference(_perfbench("workloads").McKernel(0, str(tmp_path)))
