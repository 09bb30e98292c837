import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr

from satcuma import distributions as dist, metrics, run_trials
from satcuma.benchmarks import single_user_scenario
from satcuma.distributions import sinr_law, signal_cdf, sinr_pdf_exact
from satcuma.metrics import (METRIC_SPEC, MetricResult, WARN_CLAMPED,
                             WARN_QUAD_LIMIT, _z_breakpoints,
                             ergodic_rate, mean_signal_power_closed, mean_sinr,
                             mean_snr, mean_snr_compact, outage_compact,
                             outage_exact, outage_exact_curve, sinr_supremum)
from satcuma.quadrature import QuadratureSpec, integrate
from satcuma.scenario import WARN_ODD_MU, build_scenario
from satcuma.sweep import _config_at, preset_sweeps

from conftest import outage_exact_double_integral, reference_scenario, unit_scenario


class TestOutageExact:
    def test_threshold_below_minimum_sinr(self, table_scenario):
        r = outage_exact(1e-6, table_scenario)
        assert r.value == pytest.approx(0.0, abs=1e-9)

    def test_threshold_above_maximum_sinr(self, table_scenario):
        r = outage_exact(100.0, table_scenario)
        assert r.value == 1.0
        assert WARN_CLAMPED in r.warnings

    def test_monotone_in_threshold(self, table_scenario):
        gammas = np.geomspace(0.05, 5.0, 25)
        vals = [outage_exact(g, table_scenario).value for g in gammas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_agrees_with_montecarlo(self, table_scenario):
        batch = run_trials(table_scenario, 400000, 17)
        emp = float((batch.sinr < 0.35).mean())
        assert outage_exact(0.35, table_scenario).value == pytest.approx(emp, abs=0.01)

    def test_matches_double_integral_route(self, table_scenario):
        for g in (0.1, 0.35, 0.8, 1.2):
            single = outage_exact(g, table_scenario).value
            double = outage_exact_double_integral(g, table_scenario).value
            assert single == pytest.approx(double, abs=1e-4)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_double_integral_on_either_side_of_supremum(self, table_scenario, side):
        # below sup*cos^2(pi/mu) the two routes describe one law; above the
        # supremum the density route runs to its endpoint, where the angle
        # domain removes the square-root decay of the density
        sc = table_scenario
        sup = sinr_supremum(sc)
        gamma = 0.9 * sup * math.cos(math.pi / sc.mu) ** 2 if side == "below" else 1.5 * sup
        single = outage_exact(gamma, sc)
        double = outage_exact_double_integral(gamma, sc)
        assert WARN_QUAD_LIMIT not in double.warnings
        assert abs(single.value - double.value) <= \
            single.est_error + double.est_error + 1e-12
        if side == "above":
            assert single.value == 1.0

    def test_interference_parameters_built_once_per_scenario(self):
        dist.sinr_law.cache_clear()
        sc = reference_scenario(K=21, W=2, U=5)
        outage_exact(0.35, sc)
        outage_exact(0.8, sc)
        assert dist.sinr_law.cache_info().misses == 1
        assert sinr_law(sc) is sinr_law(sc)

    def test_vectorized_curve_matches_scalar(self, table_scenario):
        gammas = np.geomspace(0.05, 2.0, 40)
        curve = outage_exact_curve(gammas, table_scenario)
        for g, v in zip(gammas[::7], curve[::7]):
            assert v == pytest.approx(outage_exact(float(g), table_scenario).value,
                                      abs=1e-9)

    def test_single_user_bypass(self):
        sc = reference_scenario(K=21, W=2, U=1)
        g = 0.8
        expected = signal_cdf(g * sc.noise_term, sc.zeta_u, sc.mu, sc.V)
        assert outage_exact(g, sc).value == pytest.approx(float(expected), rel=1e-12)

    def test_heterogeneous_path_loss_agreement(self):
        # per-user distances exercise the unequal-weight aggregate; the
        # Gaussian fit degrades when one interferer dominates (exact
        # convolution oracle puts its KS error at 0.036 for this spread),
        # so the outage agreement bound is wider than in the equal case
        sc = reference_scenario(K=21, W=2, U=5,
                                distance_m=[1.2e6, 1.0e6, 1.4e6, 1.7e6, 2.0e6])
        batch = run_trials(sc, 400000, 77)
        for g in (0.35, 0.6):
            emp = float((batch.sinr < g).mean())
            assert outage_exact(g, sc).value == pytest.approx(emp, abs=0.04)

    def test_odd_density_warning(self):
        sc = reference_scenario(K=11, W=2, U=5)  # mu = 5
        assert WARN_ODD_MU in outage_exact(0.35, sc).warnings

    def test_gamma_validation(self, table_scenario):
        with pytest.raises(ValueError):
            outage_exact(0.0, table_scenario)

    def test_quadrature_budget_warning(self, table_scenario):
        tight = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=1)
        r = outage_exact(0.35, table_scenario, spec=tight)
        assert WARN_QUAD_LIMIT in r.warnings


class TestOutageCompact:
    def test_frozen_closed_form_value(self):
        # zeta=1, V^2=1/8, 4 equal interferers (omega=16, kappa=sqrt(32)),
        # noise negligible, gamma=0.35; value computed at 40-digit precision
        sc = unit_scenario(K=9, W=2, U=5)
        r = outage_compact(0.35, sc)
        assert r.value == pytest.approx(0.11298541641461193, rel=1e-9)

    def test_vanishes_at_low_threshold(self, table_scenario):
        assert outage_compact(1e-4, table_scenario).value == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_exact_with_density(self):
        # the band gap to the exact form decays like 1/mu^2 (measured 0.054
        # at mu=10, 0.012 at mu=20, 0.003 at mu=40)
        sups = []
        for mu in (10, 20, 40):
            sc = reference_scenario(K=2 * mu + 1, W=2, U=5)
            sups.append(max(abs(outage_compact(float(g), sc).value
                                - outage_exact(float(g), sc).value)
                            for g in np.geomspace(0.05, 5.0, 21)))
        assert sups[0] > sups[1] > sups[2]
        assert sups[1] == pytest.approx(0.012, abs=0.004)
        assert sups[2] <= 0.01

    def test_single_user_step(self):
        sc = reference_scenario(K=21, W=2, U=1)
        sup = sinr_supremum(sc)
        assert outage_compact(sup * 0.9, sc).value == 0.0
        assert outage_compact(sup * 1.1, sc).value == 1.0


class TestErgodicRate:
    def test_degenerate_single_user_compact_limit(self):
        # large density: the signal power is a near-constant zeta/V^2 and the
        # rate collapses to a single log
        sc = reference_scenario(K=201, W=1, U=1)
        r = ergodic_rate(sc, outage="exact")
        expected = sc.budget.B * math.log2(1.0 + sinr_supremum(sc))
        assert r.value == pytest.approx(expected, rel=1e-3)

    def test_exact_and_compact_agree_at_high_density(self):
        sc = reference_scenario(K=61, W=3, U=5)
        a = ergodic_rate(sc, outage="exact").value
        b = ergodic_rate(sc, outage="compact").value
        assert b == pytest.approx(a, rel=0.05)

    def test_agrees_with_montecarlo(self, table_scenario):
        batch = run_trials(table_scenario, 300000, 23)
        mc_rate = table_scenario.users.U * table_scenario.budget.B * float(
            np.mean(np.log2(1.0 + batch.sinr)))
        assert ergodic_rate(table_scenario, outage="exact").value == pytest.approx(
            mc_rate, rel=0.02)

    def test_non_negative_and_monotone_in_snr(self):
        vals = []
        for p in (0.25, 1.0, 4.0):
            sc = reference_scenario(K=21, W=2, U=5, P_watts=p)
            vals.append(ergodic_rate(sc, outage="compact").value)
        assert all(v >= 0 for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_rate_increases_with_bandwidth(self):
        for u in (1, 5):
            r1 = ergodic_rate(reference_scenario(K=61, W=3, U=u, B_hz=1e7)).value
            r2 = ergodic_rate(reference_scenario(K=61, W=3, U=u, B_hz=2e7)).value
            assert r2 > r1

    def test_single_user_requires_analytic_density(self):
        sc = reference_scenario(K=3, W=2, U=1)  # mu = 1
        with pytest.raises(ValueError, match="density"):
            ergodic_rate(sc)
        with pytest.raises(ValueError, match="density"):
            mean_snr(sc)

    @pytest.mark.parametrize("U", [1, 5])
    def test_compact_forms_require_analytic_density(self, U):
        # the compact forms refuse mu < 2 as the exact ones do; the compact
        # mean SNR, a function of the port count alone, needs no density
        sc = reference_scenario(K=3, W=2, U=U)  # mu = 1
        with pytest.raises(ValueError, match="density"):
            outage_compact(0.35, sc)
        with pytest.raises(ValueError, match="density"):
            ergodic_rate(sc, outage="compact")
        with pytest.raises(ValueError, match="density"):
            dist.sinr_cdf_compact(0.35, sc)
        if U > 1:
            with pytest.raises(ValueError, match="density"):
                dist.sinr_pdf_compact(0.35, sc)
        assert mean_snr_compact(sc) > 0.0

    def test_outage_kind_validation(self, table_scenario):
        with pytest.raises(ValueError):
            ergodic_rate(table_scenario, outage="other")


class TestMoments:
    def test_mean_snr_matches_closed_form(self, table_scenario):
        # against a 30-digit integral of alpha * f_alpha over the support
        for sc in (table_scenario, reference_scenario(K=11, W=2, U=1),
                   reference_scenario(K=61, W=3, U=1), reference_scenario(K=201, W=3, U=1)):
            with mp.workdps(30):
                lo, hi, mu = _mp_signal_support(sc)
                mean_alpha = mp.quad(lambda a: a * _mp_signal_pdf(a, hi, mu), [lo, hi])
                expected = 2 * mp.mpf(sc.Gamma) / mp.mpf(sc.Kbar) * mean_alpha
            assert mean_snr(sc) == pytest.approx(float(expected), rel=1e-14)

    def test_mean_signal_power_closed_form_value(self):
        # (zeta/(2 V^2)) * (1 + mu*sin(2*pi/mu)/(2*pi)) at mu=4, W=2, zeta=1
        sc = unit_scenario(K=9, W=2, U=1)
        assert mean_signal_power_closed(sc) == pytest.approx(6.546479089470325, rel=1e-12)

    def test_compact_mean_snr_at_high_density(self):
        sc = reference_scenario(K=201, W=2, U=1)
        assert mean_snr_compact(sc) == pytest.approx(mean_snr(sc), rel=0.01)

    def test_mean_snr_linear_in_ports(self):
        snrs = []
        ks = range(41, 202, 8)
        for k in ks:
            snrs.append(mean_snr(reference_scenario(K=k, W=3, U=1)))
        slope = np.polyfit(list(ks), snrs, 1)[0]
        sc = reference_scenario(K=41, W=3, U=1)
        target = 4.0 * sc.Gamma * sc.zeta_u / math.pi ** 2
        assert slope == pytest.approx(target, rel=0.02)

    def test_noise_only_sinr_equals_snr(self):
        sc = reference_scenario(K=21, W=2, U=1)
        assert mean_sinr(sc) == pytest.approx(mean_snr(sc), rel=1e-12)

    @pytest.mark.parametrize("mu", [6, 10, 14])
    def test_mean_sinr_agrees_with_montecarlo(self, mu):
        sc = reference_scenario(K=2 * mu + 1, W=2, U=5)
        batch = run_trials(sc, 400000, 31)
        assert mean_sinr(sc) == pytest.approx(float(batch.sinr.mean()), rel=0.02)

    def test_mean_snr_halves_when_bandwidth_doubles(self):
        a = mean_snr(reference_scenario(K=61, W=3, U=1, B_hz=1e7))
        b = mean_snr(reference_scenario(K=61, W=3, U=1, B_hz=2e7))
        assert b == pytest.approx(a / 2.0, rel=1e-9)


def _preset_points(*names):
    """(label, scenario) at every grid point of the named presets with U > 1."""
    points = []
    for name in names:
        for spec in preset_sweeps(name):
            for v in spec.grid:
                sc = build_scenario(_config_at(spec, v))
                if sc.users.U > 1:
                    points.append((f"{name} {spec.series} {spec.param}={v}", sc))
    return points


class TestSinrDensityIntegral:
    """mean_sinr integrates against the SINR density in the angle domain
    z = sup*cos^2(phi); the z-domain rule it replaced is the reference."""

    @pytest.fixture(scope="class")
    def points(self):
        return _preset_points("fig3", "fig4", "fig5")

    def test_mean_sinr_matches_z_domain_route(self, points):
        assert len(points) == 69
        for label, sc in points:
            ref = integrate(lambda z: z * sinr_pdf_exact(z, sc, METRIC_SPEC), 0.0,
                            sinr_supremum(sc), METRIC_SPEC,
                            breakpoints=_z_breakpoints(sc)).value
            assert abs(mean_sinr(sc) - ref) <= 1e-11 * abs(ref), label

    def test_outer_subdivision_budget(self, points, monkeypatch):
        # the z-domain rule bisected its last panel ~35 levels deep (up to
        # 331 subdivisions); the angle domain needs at most 17 here
        outer = []

        def counted(*args, **kwargs):
            res = integrate(*args, **kwargs)
            outer.append(res.subdivisions)
            return res

        monkeypatch.setattr(metrics, "integrate", counted)
        for label, sc in points:
            outer.clear()
            mean_sinr(sc)
            assert len(outer) == 1 and outer[0] <= 40, (label, outer)


def _mp_signal_support(sc):
    """Signal-power support [lo, hi] and density mu, at mpmath precision."""
    hi = mp.mpf(sc.zeta_u) / mp.mpf(sc.V) ** 2
    mu = mp.mpf(sc.mu)
    return hi * mp.cos(mp.pi / mu) ** 2, hi, mu


def _mp_signal_pdf(a, hi, mu):
    """Signal-power density (mu/2pi)/sqrt(alpha*(hi - alpha)) on (lo, hi)."""
    return mu / (2 * mp.pi) / mp.sqrt(a * (hi - a))


class TestHighPrecisionReference:
    """est_error is a checked claim: each value lies within its own error
    estimate (plus roundoff) of a 30-digit mpmath evaluation that integrates
    over the signal power itself, without the theta substitution."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mp.workdps(30):
            yield

    @pytest.mark.parametrize("K", [61, 157, 181])
    def test_single_user_rate(self, K):
        # the paper's form (B/ln 2) * integral of (1 - F_alpha(y n))/(1+y)
        # up to the SINR supremum; the survival is 1 below the support
        sc = reference_scenario(K=K, W=3, U=1)
        lo, hi, mu = _mp_signal_support(sc)
        n = mp.mpf(sc.noise_term)

        def survival(y):
            return mu / (2 * mp.pi) * mp.acos(2 * y * n / hi - 1)

        body = mp.quad(lambda y: survival(y) / (1 + y), [lo / n, hi / n])
        ref = mp.mpf(sc.budget.B) / mp.log(2) * (mp.log1p(lo / n) + body)
        r = ergodic_rate(sc, outage="exact")
        assert WARN_QUAD_LIMIT not in r.warnings
        assert abs(r.value - ref) <= r.est_error + 1e-12 * abs(ref)

    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.35, 0.5, 0.8])
    def test_outage_exact(self, table_scenario, gamma):
        # E_alpha[(1 - Phi((alpha/gamma - n - omega)/kappa))] / Phi(omega/kappa)
        sc = table_scenario
        lo, hi, mu = _mp_signal_support(sc)
        law = sinr_law(sc)
        m = mp.mpf(law.omega) + mp.mpf(sc.noise_term)
        kappa, g = mp.mpf(law.kappa), mp.mpf(gamma)
        tail = mp.quad(lambda a: _mp_signal_pdf(a, hi, mu)
                       * (1 - mp.ncdf((a / g - m) / kappa)), [lo, hi])
        ref = tail / mp.ncdf(mp.mpf(law.omega) / kappa)
        r = outage_exact(gamma, table_scenario)
        assert r.warnings == ()
        assert abs(r.value - ref) <= r.est_error + 1e-12 * abs(ref)


def _scipy_exact_rate(sc):
    """The U > 1 exact rate evaluated independently: the unclamped outage F
    over theta by quad, its root y_c by brentq, then the paper's integral of
    (1 - F)/(1 + y) over [0, y_c], beyond which the clamped survival is 0."""
    law = sinr_law(sc)
    m, kappa, tm = law.omega + sc.noise_term, law.kappa, law.tm
    peak, mu = sc.zeta_u / sc.V ** 2, sc.mu

    def outage(y):
        body = quad(lambda th: ndtr((peak * math.cos(th) ** 2 / y - m) / kappa),
                    0.0, math.pi / mu, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return (1.0 - mu / math.pi * body) / tm

    sup = sinr_supremum(sc)
    y_c = brentq(lambda y: outage(y) - 1.0, 1e-12 * sup, sup, xtol=1e-15 * sup, rtol=1e-15)
    points = [b for b in _z_breakpoints(sc) if b < y_c]
    body = quad(lambda y: (1.0 - outage(y)) / (1.0 + y), 0.0, y_c, points=points or None,
                epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return sc.users.U * sc.budget.B / math.log(2.0) * body


class TestExactRate:
    """The U > 1 exact rate: one smooth double integral after the root of
    F = 1, checked against an independent SciPy evaluation of the same law."""

    @pytest.mark.parametrize("K,W,U", [(31, 3, 10), (9, 2, 5), (21, 2, 5), (61, 3, 20)])
    def test_matches_scipy_reference(self, K, W, U):
        # (31, 3, 10) is fig9's mu=10 U=10 point, where the y-domain rule
        # this form replaced was 7.5e-11 off while claiming 1.6e-12
        sc = reference_scenario(K=K, W=W, U=U)
        ref = _scipy_exact_rate(sc)
        r = ergodic_rate(sc, outage="exact")
        assert WARN_QUAD_LIMIT not in r.warnings
        assert abs(r.value - ref) <= r.est_error + 1e-12 * abs(ref)

    def test_exhausted_budget_flagged(self, table_scenario):
        tight = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=1)
        assert WARN_QUAD_LIMIT in ergodic_rate(table_scenario, spec=tight).warnings

    def test_cdf_work_over_the_figure_rates(self, monkeypatch):
        # the rate evaluates the Gaussian CDF only to find the root of F = 1:
        # 26 616 erfc elements over fig7/8/9's U > 1 rates, against
        # 1 309 304 when every outer node ran a full outage integral
        elements = []
        erfc = dist.erfc
        monkeypatch.setattr(dist, "erfc", lambda x: elements.append(np.size(x)) or erfc(x))
        points = _preset_points("fig7", "fig8", "fig9")
        assert len(points) == 84
        for label, sc in points:
            assert WARN_QUAD_LIMIT not in ergodic_rate(sc, outage="exact").warnings, label
        assert sum(elements) <= 35000


class TestOutageProperties:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(half_mu=st.integers(1, 15), U=st.integers(2, 12),
           gammas=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8))
    def test_bounded_monotone_and_vector_matches_scalar(self, half_mu, U, gammas):
        sc = reference_scenario(K=4 * half_mu + 1, W=2, U=U)  # even mu = 2*half_mu
        gammas = np.sort(gammas)
        curve = outage_exact_curve(gammas, sc)
        assert np.all((curve >= 0.0) & (curve <= 1.0))
        assert np.all(np.diff(curve) >= -1e-15)
        for g, v in zip(gammas, curve):
            assert abs(outage_exact(float(g), sc).value - v) <= 1e-15


class TestRandomScenarioBounds:
    """Bounds that hold for any law with the signal independent of the
    interference, drawn over the whole link budget: from noise-limited
    (large B_hz) to interference-limited (small B_hz) scenarios."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mu=st.sampled_from((2, 4, 6, 10, 20, 40)), W=st.integers(2, 4),
           U=st.integers(2, 11), log_b=st.floats(5.0, 17.0))
    def test_per_user_rate_at_most_single_user_rate(self, mu, W, U, log_b):
        # interference only lowers the desired user's SINR, so its rate is at
        # most the rate it has alone, within both quadrature error estimates
        sc = reference_scenario(K=mu * W + 1, W=W, U=U, B_hz=10.0 ** log_b)
        multi = ergodic_rate(sc, outage="exact")
        single = ergodic_rate(single_user_scenario(sc), outage="exact")
        assert multi.value / U <= single.value + multi.est_error / U + single.est_error \
            + 1e-12 * single.value

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the outage integral is not seeded at "
                              "its Gaussian window")
    def test_outage_at_least_snr_outage_when_noise_dwarfs_interference(self):
        # n/kappa is about 8.6e8, so the Gaussian window is a sliver of the
        # angle range that every panel node misses: outage_exact returns
        # 0.590334317 with est_error 4.5e-15 and no flag, below the SNR
        # outage 0.590334471; a SciPy quad of the same integral seeded at the
        # window gives 0.590336766
        sc = reference_scenario(K=9, W=2, U=11, B_hz=5.917405040255188e15)
        gamma = 0.9 * sinr_supremum(sc)
        r = outage_exact(gamma, sc)
        snr_outage = float(signal_cdf(gamma * sc.noise_term, sc.zeta_u, sc.mu, sc.V))
        assert r.value + r.est_error >= snr_outage


def _scaled_pair(K, W, U, distance_m, B_hz, c):
    """A scenario, and the same one with distance_m scaled by 1/sqrt(c) and
    B_hz by c: every power and the noise term scale by c, so n/kappa, and
    with it the SINR law, stay the same."""
    return (reference_scenario(K=K, W=W, U=U, distance_m=distance_m, B_hz=B_hz),
            reference_scenario(K=K, W=W, U=U, distance_m=distance_m / math.sqrt(c),
                               B_hz=B_hz * c))


class TestScaleEquivariance:
    """Every metric reaches the link budget only through ratios of powers
    (ROADMAP items 11 (e) and 18): outage is unchanged by a common scale of
    the powers, and the rate scales with the bandwidth."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mu=st.sampled_from((2, 4, 6, 10, 20)), W=st.integers(1, 3), U=st.integers(2, 8),
           log_d=st.floats(5.0, 8.0), log_b=st.floats(5.0, 9.0), k=st.floats(-60.0, 60.0))
    def test_outage_and_rate(self, mu, W, U, log_d, log_b, k):
        c = 10.0 ** k
        sc, scaled = _scaled_pair(mu * W + 1, W, U, 10.0 ** log_d, 10.0 ** log_b, c)
        a, b = outage_exact(0.35, sc), outage_exact(0.35, scaled)
        assert abs(a.value - b.value) <= a.est_error + b.est_error \
            + 4 * np.spacing(max(a.value, b.value))
        a, b = ergodic_rate(sc), ergodic_rate(scaled)
        x, y = a.value, b.value / c
        assert abs(x - y) <= a.est_error + b.est_error / c + 8 * np.spacing(max(x, y))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: sinr_pdf_exact's inner integrand is in "
                              "absolute power units, against an absolute tolerance")
    def test_mean_sinr(self):
        # 6.91389e-07 unscaled and 8.10354e-06 scaled; the factorised
        # E[alpha]*E[1/(beta + n)] is 8.10354e-06 at both scales
        sc, scaled = _scaled_pair(3, 1, 3, 2.37e7, 4.86e8, 5.32e36)
        assert mean_sinr(scaled) == pytest.approx(mean_sinr(sc), rel=1e-9)


class TestTrendSuite:
    def test_outage_non_increasing_in_density(self):
        vals = [outage_exact(0.35, reference_scenario(K=2 * m + 1, W=2, U=5)).value
                for m in range(2, 21, 2)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_outage_non_increasing_in_ports(self):
        vals = [outage_exact(0.35, reference_scenario(K=k, W=2, U=5)).value
                for k in range(9, 82, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_outage_non_decreasing_in_users(self):
        vals = [outage_exact(0.35, reference_scenario(K=21, W=2, U=u)).value
                for u in range(2, 13)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestMetricResult:
    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            MetricResult(value=1.0, est_error=-1e-3)

    def test_supremum_consistency(self, table_scenario):
        sc = table_scenario
        assert sinr_supremum(sc) == pytest.approx(
            2.0 * sc.Gamma * sc.zeta_u / (sc.Kbar * sc.V ** 2), rel=1e-12)
