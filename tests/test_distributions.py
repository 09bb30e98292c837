import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc

from satcuma import run_trials
from satcuma.distributions import (_MAXLOG, _Z_CHUNK, SupportInterval,
                                   cdf_difference, erfc,
                                   interference_cdf_per_user,
                                   interference_pdf_per_user,
                                   interference_support, pdf_ratio,
                                   signal_cdf,
                                   signal_pdf, signal_support, sinr_cdf_compact,
                                   sinr_pdf_compact, sinr_pdf_exact,
                                   sinr_law, std_normal_cdf,
                                   total_interference_cdf,
                                   total_interference_pdf, trunc_gauss_params)
from satcuma.metrics import _z_breakpoints, sinr_supremum
from satcuma.quadrature import integrate

from conftest import reference_scenario

V_MU4 = math.sin(math.pi / 4) / 2  # V for K=9, W=2; V^2 = 1/8


class TestStdNormal:
    def test_reference_points(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert std_normal_cdf(2.0) == pytest.approx(0.9772498680518208, rel=1e-12)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2, 9.0):
            assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-15)

    def test_far_tail_stability(self):
        # the erfc form resolves tail mass that the naive 1 - Phi(x) loses
        assert std_normal_cdf(-26.0) > 0.0
        assert 1.0 - std_normal_cdf(26.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0


class TestErfc:
    """The NumPy port of Cephes' erfc against SciPy's build of the same code
    (they differ only where np.exp and libm's exp round differently)."""

    @staticmethod
    def _edges():
        # either side of each branch edge, and of Cephes' underflow threshold
        root = math.sqrt(_MAXLOG)
        pts = [1.0, 8.0, root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)]
        for p in pts[:2]:
            pts += [math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        pts = np.array(pts)
        return np.concatenate([pts, -pts])

    def test_matches_scipy_on_every_branch(self):
        x = np.concatenate([np.linspace(-28.0, 28.0, 200_001), self._edges()])
        np.testing.assert_allclose(erfc(x), scipy_erfc(x), rtol=1e-15, atol=1e-320)

    def test_underflow_edge_matches_scipy_exactly(self):
        # the underflow test is Cephes' x^2 > MAXLOG, element for element
        x = self._edges()
        far = x[np.abs(x) > 26.0]
        assert np.array_equal(erfc(far), scipy_erfc(far))

    def test_special_inputs(self):
        x = np.array([np.inf, -np.inf, np.nan, 1e291, -1e291, 0.0, -0.0])
        out = erfc(x)
        assert np.array_equal(out, [0.0, 2.0, np.nan, 0.0, 2.0, 1.0, 1.0], equal_nan=True)

    def test_no_runtime_warning_escapes(self):
        x = np.array([1e291, -1e291, 1e300, np.inf, -np.inf, np.nan, 26.0, 0.5, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            erfc(x)
            for v in x:
                erfc(np.array([v]))

    def test_shapes(self):
        assert erfc(np.array(0.5)) == math.erfc(0.5)
        assert isinstance(erfc(0.5), float)
        assert erfc(np.array([])).shape == (0,)
        assert erfc(np.empty((3, 0))).shape == (3, 0)
        grid = np.array([[-30.0, -3.0, -0.5], [0.5, 3.0, 30.0]])
        out = erfc(grid)
        assert out.shape == (2, 3)
        assert np.array_equal(out.ravel(), erfc(grid.ravel()))

    def test_one_branch_array_equals_mixed_array(self):
        # an array needing one branch is evaluated whole, a mixed one split
        for v in (-20.0, -4.0, -0.5, 0.5, 4.0, 20.0, 30.0):
            mixed = erfc(np.array([v, 0.1, 3.0, 10.0, 30.0]))[0]
            assert np.array_equal(erfc(np.full(4, v)), np.full(4, mixed))

    def test_scalar_path_matches_array_path(self):
        # a float runs the array path, not math.erfc, which differs from
        # Cephes by up to ~500 ulp near x = 24; the array path is elementwise
        # (test_one_branch_array_equals_mixed_array)
        x = np.concatenate([np.linspace(-30.0, 30.0, 200_001), self._edges()])
        scalar = np.array([erfc(np.float64(v)) for v in x])
        assert all(isinstance(erfc(np.float64(v)), float) for v in x[::20_000])
        assert np.array_equal(scalar, erfc(x))
        special = np.array([np.inf, -np.inf, np.nan, 1e291, -1e291, 0.0, -0.0])
        assert np.array_equal([erfc(v) for v in special], erfc(special), equal_nan=True)

    @pytest.mark.parametrize("x", [-6.0, -2.5, -1.0, -0.25, 0.0, 1e-8, 0.5, 0.75,
                                   1.0, 1.5, 3.0, 5.0, 7.5, 8.0, 10.0, 16.0, 25.0])
    def test_against_mpmath(self, x):
        # points whose square is exact, so exp(-x^2) is the only rounding
        # of the argument; erfc is computed at 30 digits
        with mpmath.workdps(30):
            ref = mpmath.erfc(mpmath.mpf(x))
            got = erfc(np.array([x]))[0]
            assert abs((mpmath.mpf(got) - ref) / ref) < 1e-15


class TestSignalDistribution:
    def test_support(self):
        sup = signal_support(1.0, 4.0, V_MU4)
        assert sup.lo == pytest.approx(4.0, rel=1e-12)
        assert sup.hi == pytest.approx(8.0, rel=1e-12)

    def test_frozen_density_value(self):
        # direct formula evaluation, cross-checked at 40 digits
        assert signal_pdf(6.0, 1.0, 4.0, V_MU4) == pytest.approx(
            0.18377629847393068, rel=1e-12)

    def test_outside_support_and_endpoints(self):
        sup = signal_support(1.0, 4.0, V_MU4)
        assert signal_pdf(3.9, 1.0, 4.0, V_MU4) == 0.0
        assert signal_pdf(8.1, 1.0, 4.0, V_MU4) == 0.0
        assert math.isinf(signal_pdf(sup.lo, 1.0, 4.0, V_MU4))
        assert math.isinf(signal_pdf(sup.hi, 1.0, 4.0, V_MU4))

    def test_normalization_against_scipy(self):
        val, _ = quad(lambda a: float(signal_pdf(a, 1.0, 4.0, V_MU4)),
                      4.0, 8.0, points=[4.0, 8.0], limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_pdf_integral(self):
        for a in (4.5, 5.5, 6.7, 7.9):
            val, _ = quad(lambda x: float(signal_pdf(x, 1.0, 4.0, V_MU4)), 4.0, a, limit=200)
            assert signal_cdf(a, 1.0, 4.0, V_MU4) == pytest.approx(val, abs=1e-10)

    def test_cdf_endpoints(self):
        # arccos near +/-1 has square-root sensitivity, so float noise in the
        # argument surfaces as ~1e-8 at the support endpoints
        assert signal_cdf(3.0, 1.0, 4.0, V_MU4) == 0.0
        assert signal_cdf(4.0, 1.0, 4.0, V_MU4) == pytest.approx(0.0, abs=1e-7)
        assert signal_cdf(8.0, 1.0, 4.0, V_MU4) == pytest.approx(1.0, abs=1e-7)
        assert signal_cdf(9.0, 1.0, 4.0, V_MU4) == 1.0

    def test_support_collapses_at_large_mu(self):
        sup = signal_support(1.0, 2000.0, math.sin(math.pi / 2000.0) / 2)
        assert sup.lo / sup.hi > 1 - 1e-5

    def test_histogram_cross_check(self):
        # density at 6.0 against a brute-force histogram around it
        sc = reference_scenario(K=9, W=2, U=1)
        batch = run_trials(sc, 200000, 21)
        scale = sc.zeta_u / V_MU4 ** 2 / 8.0  # map unit-zeta value 6.0 to this scenario
        lo, hi = 5.9 * scale, 6.1 * scale
        frac = ((batch.alpha >= lo) & (batch.alpha < hi)).mean()
        dens_unit = frac / 0.2  # back in unit-zeta coordinates
        assert dens_unit == pytest.approx(0.18377629847393068, rel=0.05)


class TestInterferenceDistribution:
    def test_cdf_midpoint(self):
        assert interference_cdf_per_user(4.0, 1.0, V_MU4) == pytest.approx(0.5, rel=1e-12)

    def test_cdf_endpoints(self):
        assert interference_cdf_per_user(0.0, 1.0, V_MU4) == pytest.approx(0.0, abs=1e-7)
        assert interference_cdf_per_user(8.0, 1.0, V_MU4) == pytest.approx(1.0, abs=1e-7)
        assert interference_cdf_per_user(-1.0, 1.0, V_MU4) == 0.0
        assert interference_cdf_per_user(9.0, 1.0, V_MU4) == 1.0

    def test_moments_closed_form(self):
        # one interferer: the aggregate parameters are its own mean and variance
        p = trunc_gauss_params([1.0], V_MU4)
        assert p.omega == pytest.approx(4.0, rel=1e-12)
        assert p.kappa ** 2 == pytest.approx(8.0, rel=1e-12)

    def test_moments_against_quadrature(self):
        m1, _ = quad(lambda y: y * float(interference_pdf_per_user(y, 1.0, V_MU4)),
                     0.0, 8.0, limit=200)
        m2, _ = quad(lambda y: y * y * float(interference_pdf_per_user(y, 1.0, V_MU4)),
                     0.0, 8.0, limit=200)
        assert m1 == pytest.approx(4.0, abs=1e-8)
        assert m2 - m1 ** 2 == pytest.approx(8.0, abs=1e-7)

    def test_moments_against_samples(self):
        sc = reference_scenario(K=9, W=2, U=2)
        batch = run_trials(sc, 500000, 3)
        scale = sc.users.zeta[1] / V_MU4 ** 2 / 8.0
        y = batch.ys[:, 0] / scale
        assert y.mean() == pytest.approx(4.0, rel=0.01)
        assert y.var() == pytest.approx(8.0, rel=0.01)

    def test_normalization(self):
        val, _ = quad(lambda y: float(interference_pdf_per_user(y, 1.0, V_MU4)),
                      0.0, 8.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_signal_density_is_half_mu_times_interference(self):
        for y in (4.5, 5.0, 6.0, 7.5):
            assert signal_pdf(y, 1.0, 4.0, V_MU4) == pytest.approx(
                2.0 * interference_pdf_per_user(y, 1.0, V_MU4), rel=1e-12)

    def test_density_singular_at_both_ends_and_zero_outside(self):
        hi = 1.0 / V_MU4 ** 2
        assert interference_support(1.0, V_MU4).hi == hi
        assert interference_pdf_per_user(0.0, 1.0, V_MU4) == math.inf
        assert interference_pdf_per_user(hi, 1.0, V_MU4) == math.inf
        outside = np.array([-1.0, -1e-300, math.nextafter(hi, math.inf), 2.0 * hi, math.inf])
        assert np.all(interference_pdf_per_user(outside, 1.0, V_MU4) == 0.0)
        inside = np.array([1e-300, 0.5 * hi, math.nextafter(hi, 0.0)])
        dens = interference_pdf_per_user(inside, 1.0, V_MU4)
        assert np.all(np.isfinite(dens) & (dens > 0.0))

    @pytest.mark.parametrize("y", [5e-324, 1e-300])
    def test_density_at_tiny_arguments_is_finite_without_warning(self, y):
        # y*(zeta - V^2*y) underflows to 0 at a subnormal y, so the root is
        # taken as sqrt(y)*sqrt(zeta - V^2*y); there zeta - V^2*y rounds to zeta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = interference_pdf_per_user(y, 1.0, 0.5)
            assert interference_pdf_per_user(-y, 1.0, 0.5) == 0.0
        assert dens == pytest.approx(0.5 / (math.pi * math.sqrt(y)), rel=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(frac=st.floats(1e-12, 1.0 - 1e-12), zeta=st.floats(1e-20, 1e3),
           W=st.integers(1, 8))
    def test_mu2_interferer_law_is_the_signal_law(self, frac, zeta, W):
        # at mu = 2 the signal angle is uniform on [0, pi/2], as an
        # interferer's is: strictly inside the support the two laws agree
        V = math.sin(math.pi / 2.0) / W
        sup = signal_support(zeta, 2.0, V)
        y = sup.lo + frac * (sup.hi - sup.lo)
        assume(sup.lo < y < sup.hi)
        assert interference_pdf_per_user(y, zeta, V) == signal_pdf(y, zeta, 2.0, V)
        f_sig = signal_cdf(y, zeta, 2.0, V)
        assert abs(interference_cdf_per_user(y, zeta, V) - f_sig) <= 2.0 * math.ulp(f_sig)


class TestTruncGauss:
    def test_equal_zeta_params(self):
        p = trunc_gauss_params([1.0] * 4, V_MU4)
        assert p.omega == pytest.approx(16.0, rel=1e-12)
        assert p.kappa == pytest.approx(math.sqrt(32.0), rel=1e-12)
        assert p.omega / p.kappa == pytest.approx(math.sqrt(2 * 4), rel=1e-12)

    def test_single_interferer_matches_per_user_mean(self):
        zeta = 2.5
        p = trunc_gauss_params([zeta], V_MU4)
        m1, _ = quad(lambda y: y * float(interference_pdf_per_user(y, zeta, V_MU4)),
                     0.0, zeta / V_MU4 ** 2, limit=200)
        assert p.omega == pytest.approx(m1, rel=1e-8)

    def test_truncation_mass_grows_with_users(self):
        masses = [trunc_gauss_params([1.0] * m, V_MU4).truncation_mass
                  for m in (1, 4, 9, 19)]
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert masses[-1] > 1 - 1e-8

    def test_empty_interferers_rejected(self):
        with pytest.raises(ValueError, match="interferer"):
            trunc_gauss_params([], V_MU4)

    def test_peak_density(self):
        p = trunc_gauss_params([1.0] * 4, V_MU4)
        peak = 1.0 / (p.truncation_mass * math.sqrt(2 * math.pi) * p.kappa)
        assert total_interference_pdf(p.omega, p) == pytest.approx(peak, rel=1e-12)

    def test_normalization(self):
        p = trunc_gauss_params([1.0] * 4, V_MU4)
        res = integrate(lambda b: total_interference_pdf(b, p),
                        0.0, p.omega + 12 * p.kappa,
                        breakpoints=(p.omega - 2 * p.kappa, p.omega + 2 * p.kappa))
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_negative_support_is_zero(self):
        p = trunc_gauss_params([1.0] * 4, V_MU4)
        assert total_interference_pdf(-0.5, p) == 0.0
        assert total_interference_cdf(-0.5, p) == 0.0


class TestSinrDensity:
    def test_exact_normalizes(self, table_scenario):
        sc = table_scenario
        res = integrate(lambda z: sinr_pdf_exact(z, sc), 0.0, sinr_supremum(sc),
                        breakpoints=_z_breakpoints(sc))
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_exact_vanishes_outside(self, table_scenario):
        assert sinr_pdf_exact(-1.0, table_scenario) == 0.0
        assert sinr_pdf_exact(sinr_supremum(table_scenario) * 1.01, table_scenario) == 0.0

    @pytest.mark.parametrize("U", [5, 1])
    def test_array_matches_scalar_calls(self, U):
        # one call shares a panel tree among up to _Z_CHUNK values of z;
        # each must still be its own scalar value.  The noise-floor cut
        # shortens the theta range above sup*cos^2(pi/mu)
        sc = reference_scenario(K=21, W=2, U=U)
        sup = sinr_supremum(sc)
        cut = sup * math.cos(math.pi / sc.mu) ** 2
        edges = [-1.0, 0.0, cut * (1.0 - 1e-6), cut * (1.0 + 1e-6), sup * 1.01]
        zs = np.concatenate([edges, np.linspace(1e-3 * sup, sup, 2 * _Z_CHUNK + 37)])
        scalar = [sinr_pdf_exact(z, sc) for z in zs]
        assert all(type(v) is float for v in scalar)
        arr = sinr_pdf_exact(zs, sc)
        assert arr.shape == zs.shape
        np.testing.assert_allclose(arr, scalar, rtol=1e-15, atol=0.0)
        assert arr[0] == arr[1] == arr[4] == 0.0
        assert np.all(arr[3:] >= 0.0) and arr[3] > 0.0

    def test_compact_normalizes_on_support(self, table_scenario):
        # the closed form is the exact transform of the interference-plus-noise
        # density, whose support maps to (0, supremum]
        sc = table_scenario
        res = integrate(lambda z: sinr_pdf_compact(z, sc), 0.0, sinr_supremum(sc),
                        breakpoints=_z_breakpoints(sc))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_compact_tail_vanishes(self, table_scenario):
        # the closed form decays like 1/z^2 beyond the support
        peak = sinr_pdf_compact(0.4, table_scenario)
        assert sinr_pdf_compact(1e3, table_scenario) < 1e-9 * peak
        assert sinr_pdf_compact(1e5, table_scenario) < 1e-3 * sinr_pdf_compact(
            1e3, table_scenario)

    def test_compact_close_to_exact_at_high_density_only(self):
        # measured sup-norm gap between the two forms, relative to the peak:
        # ~0.13 at mu=10 and ~0.71 at mu=4 (the compact form ignores the
        # signal-power spread, which only collapses at high density)
        ratios = {}
        for mu in (10, 4):
            sc = reference_scenario(K=2 * mu + 1, W=2, U=5)
            zs = np.linspace(0.005, sinr_supremum(sc) * 1.02, 800)
            fe = sinr_pdf_exact(zs, sc)
            fc = sinr_pdf_compact(zs, sc)
            ratios[mu] = np.max(np.abs(fe - fc)) / fe.max()
        assert 0.10 <= ratios[10] <= 0.16
        assert ratios[4] >= 0.5

    def test_exact_matches_histogram(self, table_scenario):
        # bin-averaged analytic density against brute-force bin masses; the
        # residual is the finite-interferer Gaussian-model error (~2.5%)
        from satcuma.metrics import outage_exact_curve
        sc = table_scenario
        batch = run_trials(sc, 300000, 9)
        edges = np.linspace(0.05, 1.25, 13)
        counts, _ = np.histogram(batch.sinr, bins=edges)
        emp = counts / batch.n_trials / np.diff(edges)
        ana = np.diff(outage_exact_curve(edges, sc)) / np.diff(edges)
        assert np.max(np.abs(emp - ana)) <= 0.05 * ana.max()

    def test_single_user_bypass(self):
        sc = reference_scenario(K=9, W=2, U=1)
        noise = sc.noise_term
        z = 6.0 * sc.zeta_u / V_MU4 ** 2 / 8.0 / noise
        expected = signal_pdf(z * noise, sc.zeta_u, 4.0, V_MU4) * noise
        assert sinr_pdf_exact(z, sc) == pytest.approx(expected, rel=1e-12)

    def test_compact_finite_at_denormal_argument(self, table_scenario):
        # exp underflow must win over the 1/z^2 overflow, never produce nan
        vals = sinr_pdf_compact(np.array([1e-300, 1e-30, 1e-5]), table_scenario)
        assert np.all(vals == 0.0)

    def test_compact_requires_interferers(self):
        sc = reference_scenario(K=9, W=2, U=1)
        with pytest.raises(ValueError, match="interferer"):
            sinr_pdf_compact(1.0, sc)

    def test_compact_cdf_matches_density(self, table_scenario):
        # derivative of the closed-form CDF equals the closed-form density
        sc = table_scenario
        for z in (0.2, 0.4, 0.8):
            h = 1e-6
            num = (sinr_cdf_compact(z + h, sc) - sinr_cdf_compact(z - h, sc)) / (2 * h)
            assert num == pytest.approx(sinr_pdf_compact(z, sc), rel=1e-4)


class TestDominanceDiagnostics:
    def test_mu2_identical_distributions(self):
        v = math.sin(math.pi / 2)  # W=1, mu=2
        for y in np.linspace(0.01, 0.99, 17):
            assert cdf_difference(y, 1.0, 2.0, v) == pytest.approx(0.0, abs=1e-12)
            assert pdf_ratio(y, 1.0, 2.0, v) in (0.0, 1.0)

    def test_mu6_ratio(self):
        v = math.sin(math.pi / 6) / 2  # W=2, mu=6
        sup = signal_support(1.0, 6.0, v)
        y = 0.5 * (sup.lo + sup.hi)
        assert pdf_ratio(y, 1.0, 6.0, v) == 3.0
        assert pdf_ratio(sup.lo * 0.5, 1.0, 6.0, v) == 0.0

    def test_difference_non_negative(self):
        rng = np.random.default_rng(30)
        for mu, w in ((2, 1), (4, 2), (6, 2), (10, 2), (20, 3)):
            v = math.sin(math.pi / mu) / w
            hi = 1.0 / v ** 2
            for y in rng.uniform(0, hi, 200):
                assert cdf_difference(y, 1.0, float(mu), v) >= -1e-15

    def test_difference_continuous_at_support_edge(self):
        v = V_MU4
        sup = signal_support(1.0, 4.0, v)
        below = cdf_difference(sup.lo - 1e-9, 1.0, 4.0, v)
        above = cdf_difference(sup.lo + 1e-9, 1.0, 4.0, v)
        assert below == pytest.approx(above, abs=1e-6)

    def test_difference_vanishes_at_top(self):
        v = V_MU4
        assert cdf_difference(8.0 - 1e-12, 1.0, 4.0, v) == pytest.approx(0.0, abs=1e-5)

    def test_matches_cdf_subtraction(self):
        v = V_MU4
        for y in np.linspace(0.1, 7.9, 29):
            direct = interference_cdf_per_user(y, 1.0, v) - signal_cdf(y, 1.0, 4.0, v)
            assert cdf_difference(y, 1.0, 4.0, v) == pytest.approx(direct, abs=1e-12)

    def test_matches_empirical_difference(self):
        sc = reference_scenario(K=13, W=2, U=2)  # mu = 6
        batch = run_trials(sc, 400000, 4)
        hi = sc.zeta_u / sc.V ** 2
        n = batch.n_trials
        for y in np.linspace(0.05 * hi, 0.95 * hi, 15):
            emp = ((batch.ys[:, 0] <= y).mean() - (batch.alpha <= y).mean())
            ana = cdf_difference(y, sc.zeta_u, 6.0, sc.V)
            assert abs(emp - ana) <= 4.0 * math.sqrt(0.5 / n) + 1e-3


class TestSupportInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupportInterval(lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            SupportInterval(lo=-1.0, hi=1.0)

    def test_analytic_forms_need_density_two(self):
        # below density 2 the activation window degenerates; the analytic
        # machinery refuses while the brute-force oracle keeps working
        with pytest.raises(ValueError, match="density"):
            signal_support(1.0, 1.0, 0.5)
        sc = reference_scenario(K=3, W=2, U=2)  # mu = 1
        with pytest.raises(ValueError, match="density"):
            sinr_pdf_exact(0.5, sc)

    def test_contains(self):
        sup = interference_support(1.0, V_MU4)
        assert sup.lo == 0.0 and sup.hi == pytest.approx(8.0, rel=1e-12)


class TestCdfProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(half_mu=st.integers(1, 20), W=st.integers(1, 4), U=st.integers(1, 12),
           seed=st.integers(0, 10_000),
           xs=st.lists(st.floats(-0.1, 1.5), min_size=2, max_size=40))
    def test_analytic_cdfs_monotone_in_unit_interval(self, half_mu, W, U, seed, xs):
        # xs are fractions of each variable's natural scale, sorted, so every
        # CDF is probed below, across and beyond its support
        sc = reference_scenario(K=2 * half_mu * W + 1, W=W, U=U, seed=seed)
        xs = np.sort(xs)
        zeta, V = sc.zeta_u, sc.V
        curves = [signal_cdf(xs * zeta / V ** 2, zeta, sc.mu, V),
                  interference_cdf_per_user(xs * zeta / V ** 2, zeta, V),
                  sinr_cdf_compact(xs * sinr_supremum(sc), sc)]
        if U > 1:
            p = sinr_law(sc).params
            curves.append(total_interference_cdf(xs * (p.omega + 8 * p.kappa), p))
        for cdf in curves:
            assert np.all((cdf >= 0.0) & (cdf <= 1.0))
            assert np.all(np.diff(cdf) >= 0.0)
