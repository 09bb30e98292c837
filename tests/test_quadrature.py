import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from satcuma import quadrature
from satcuma.quadrature import DEFAULT_SPEC, QuadratureResult, QuadratureSpec, integrate

_GL15 = np.polynomial.legendre.leggauss(15)
_GL7 = np.polynomial.legendre.leggauss(7)
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _depth_first(f, a, b, spec=DEFAULT_SPEC, breakpoints=()):
    """The engine as it was before level-synchronous refinement: one panel
    at a time from a stack, left half first, two integrand calls a panel.
    The reference for TestEngineEquivalence; it also returns the depth of
    its panel tree."""
    if b < a:
        res, depth = _depth_first(f, b, a, spec, breakpoints)
        return QuadratureResult(-res.value, res.est_error, res.subdivisions,
                                res.converged), depth
    width = b - a
    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    stack = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)][::-1]
    total = err_total = 0.0
    nsub, depth, converged = 0, 0, True
    while stack:
        x, y, d = stack.pop()
        depth = max(depth, d)
        half, mid = 0.5 * (y - x), 0.5 * (x + y)
        vals = []
        for nodes, weights in (_GL15, _GL7):
            fx = np.asarray(f(mid + half * nodes))
            vals.append(half * (float(np.dot(weights, fx)) if fx.ndim == 1 else fx @ weights))
        val, coarse = vals
        err = np.maximum(np.abs(val - coarse), _ROUNDOFF * np.abs(val))
        meets = np.all(err <= np.maximum(spec.abs_tol * (y - x) / width,
                                         spec.rel_tol * np.abs(val)))
        if meets or (y - x) < 1e-15 * width or nsub >= spec.max_subdivisions:
            total += val
            err_total += err
            converged = converged and bool(meets or (y - x) < 1e-15 * width)
        else:
            nsub += 1
            stack += [(0.5 * (x + y), y, d + 1), (x, 0.5 * (x + y), d + 1)]
    return QuadratureResult(total, err_total, nsub, converged), depth


class TestRules:
    @pytest.mark.parametrize("n,nodes,weights", [
        (15, quadrature._FINE_NODES, quadrature._FINE_WEIGHTS),
        (7, quadrature._COARSE_NODES, quadrature._COARSE_WEIGHTS),
    ], ids=["GL15", "GL7"])
    def test_literal_tables_are_leggauss_bit_for_bit(self, n, nodes, weights):
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert nodes.dtype == weights.dtype == np.float64
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()


class TestSmoothIntegrals:
    @pytest.mark.parametrize("f,a,b", [
        (lambda x: np.sin(x), 0.0, math.pi),
        (lambda x: np.exp(-x * x), -3.0, 5.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0),
        (lambda x: x ** 7 - 3 * x ** 2, -1.0, 2.0),
    ])
    def test_against_scipy(self, f, a, b):
        mine = integrate(f, a, b)
        ref, _ = quad(lambda x: float(f(np.array([x]))[0]) if hasattr(f(np.array([x])), "__len__") else f(x), a, b)
        assert mine.value == pytest.approx(ref, rel=1e-10, abs=1e-12)
        assert mine.converged

    def test_zero_width(self):
        res = integrate(np.sin, 2.0, 2.0)
        assert res.value == 0.0

    def test_reversed_limits(self):
        fwd = integrate(np.sin, 0.0, 1.0)
        rev = integrate(np.sin, 1.0, 0.0)
        assert rev.value == -fwd.value


class TestEndpointSingularity:
    def test_without_substitution_struggles(self):
        # the arcsine weight 1/(pi*sqrt(x(1-x))), integrated in x rather than
        # in the theta domain of x = cos^2(theta), either misses its integral
        # of 1 or exhausts the subdivision budget: the engine has no
        # singularity handling, so callers integrate in theta
        spec = QuadratureSpec(max_subdivisions=50)

        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (math.pi * np.sqrt(np.maximum(x * (1.0 - x), 1e-300)))

        res = integrate(f, 0.0, 1.0, spec)
        assert (not res.converged) or abs(res.value - 1.0) > 1e-6


class TestAdaptivity:
    def test_narrow_peak_with_breakpoint_seed(self):
        # a peak of width 1e-4 in a length-10 interval is invisible to the
        # initial panel; a breakpoint at the peak lets refinement find it
        def f(x):
            return np.exp(-((x - 0.37) / 1e-4) ** 2)

        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-10)
        res = integrate(f, 0.0, 10.0, spec, breakpoints=(0.36, 0.38))
        assert res.value == pytest.approx(1e-4 * math.sqrt(math.pi), rel=1e-8)

    def test_breakpoints_preserve_value_on_smooth_integrand(self):
        plain = integrate(np.sin, 0.0, math.pi)
        seeded = integrate(np.sin, 0.0, math.pi, breakpoints=(0.3, 1.1, 2.9))
        assert seeded.value == pytest.approx(plain.value, rel=1e-12)

    def test_subdivision_budget_flag(self):
        def f(x):
            return np.abs(np.sin(50.0 * x)) ** 0.3

        res = integrate(f, 0.0, 10.0, QuadratureSpec(
            abs_tol=1e-15, rel_tol=1e-14, max_subdivisions=3))
        assert not res.converged

    @pytest.mark.parametrize("breakpoints", [(), (0.25,)], ids=["nan", "finite-and-nan"])
    def test_non_finite_panel_is_neither_accepted_nor_bisected(self, breakpoints):
        # NaN fails every tolerance test; bisecting it would spend the whole
        # budget on halves that are just as NaN
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x < 0.25, 1.0, np.nan)

        res = integrate(f, 0.0, 1.0, breakpoints=breakpoints)
        assert len(calls) == 1
        assert res.subdivisions == 0
        assert res.converged is False
        assert math.isnan(res.value)

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x ** 7 - 3 * x ** 2, -1.0, 2.0),
        # GL7 and GL15 agree bit for bit here, on the panel and both halves
        (lambda x: x * x + 1.0, 0.0, 2.0),
    ], ids=["x7-3x2", "x2+1"])
    def test_error_floor_on_exactly_integrated_polynomial(self, f, a, b):
        # GL7 and GL15 both integrate these polynomials exactly, so their
        # difference is roundoff or exactly 0; the estimate must still be
        # floored at roundoff, so an unreachable tolerance exhausts the
        # budget instead of "converging"
        res = integrate(f, a, b)
        assert res.est_error > 0.0
        tight = integrate(f, a, b, QuadratureSpec(
            abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=1))
        assert tight.est_error > 0.0
        assert tight.converged is False

    def test_deterministic(self):
        def f(x):
            return np.sin(13.0 * x) * np.exp(-x)

        a = integrate(f, 0.0, 8.0)
        b = integrate(f, 0.0, 8.0)
        assert a.value == b.value
        assert a.est_error == b.est_error


class TestVectorIntegrand:
    @staticmethod
    def _components():
        return (lambda x: np.sin(13.0 * x) * np.exp(-x),
                lambda x: 1.0 / (1.0 + x * x),
                lambda x: np.sqrt(x + 0.01))

    def test_single_component_is_bit_identical(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
        for f in self._components():
            scalar = integrate(f, 0.0, 8.0, spec)
            vector = integrate(lambda x: f(x)[None, :], 0.0, 8.0, spec)
            assert vector.value.shape == (1,)
            assert vector.value[0] == scalar.value
            assert vector.est_error[0] == scalar.est_error
            assert vector.subdivisions == scalar.subdivisions
            assert vector.converged is scalar.converged is True

    def test_components_match_scalar_calls(self):
        fs = self._components()
        res = integrate(lambda x: np.stack([f(x) for f in fs]), 0.0, 8.0)
        assert res.value.shape == res.est_error.shape == (3,)
        assert res.converged
        # the shared panel tree is at least as fine as each component's own
        # and at least as many bisections as the hardest one needs
        for f, v in zip(fs, res.value):
            own = integrate(f, 0.0, 8.0)
            assert v == pytest.approx(own.value, rel=1e-13, abs=1e-15)
            assert res.subdivisions >= own.subdivisions

    def test_substitution_and_reversed_limits(self):
        # the arcsine weight and its first moment over (0, 1), integrated in
        # the theta domain of x = cos^2(theta), where both are smooth
        def f(theta):
            x = np.cos(theta) ** 2
            return np.stack([np.full_like(x, 2.0 / math.pi), x * 2.0 / math.pi])

        fwd = integrate(f, 0.0, math.pi / 2.0)
        assert fwd.value == pytest.approx([1.0, 0.5], abs=1e-10)
        rev = integrate(f, math.pi / 2.0, 0.0)
        assert np.array_equal(rev.value, -fwd.value)

    def test_one_unconverged_component_flags_the_result(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=3)
        assert integrate(np.sin, 0.0, 1.0, spec).converged

        def f(x):
            return np.stack([np.sin(x), np.abs(np.sin(50.0 * x)) ** 0.3])

        res = integrate(f, 0.0, 1.0, spec)
        assert res.converged is False
        assert res.subdivisions == 3
        assert res.value[0] == pytest.approx(1.0 - math.cos(1.0), rel=1e-14)


class TestEngineEquivalence:
    # level-synchronous rounds against the depth-first reference: the same
    # panel tree, and the same leaves summed in the same order; only the
    # rounding of each panel's node sum (a batched matrix product in place
    # of one dot product a panel) may differ, by a few ulps
    CASES = {
        "oscillating": (lambda x: np.sin(13.0 * x) * np.exp(-x), 0.0, 8.0, ()),
        "narrow-peak": (lambda x: np.exp(-((x - 0.37) / 1e-4) ** 2), 0.0, 10.0,
                        (0.36, 0.38)),
        "reversed": (lambda x: np.sqrt(x + 0.01), 8.0, 0.0, (0.5, 3.0)),
        "vector": (lambda x: np.stack([np.sin(13.0 * x) * np.exp(-x),
                                       1.0 / (1.0 + x * x), np.sqrt(x + 0.01)]),
                   0.0, 8.0, (2.5,)),
        "vector-reversed": (lambda x: np.stack([np.cos(x) ** 2, np.exp(-x * x)]),
                            2.0, -1.0, ()),
    }
    SPECS = [QuadratureSpec(), QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12)]

    @pytest.mark.parametrize("spec", SPECS, ids=["default", "tight"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_depth_first_reference(self, case, spec):
        f, a, b, bp = self.CASES[case]
        res = integrate(f, a, b, spec, bp)
        ref, _ = _depth_first(f, a, b, spec, bp)
        assert np.shape(res.value) == np.shape(ref.value)
        assert isinstance(res.value, float) == isinstance(ref.value, float)
        assert np.all(np.abs(res.value - ref.value) <= 1e-15 * np.abs(ref.value))
        assert res.subdivisions == ref.subdivisions
        assert res.converged is ref.converged is True

    def test_exhausted_budget_still_flagged(self):
        spec = QuadratureSpec(max_subdivisions=5)
        f, a, b, bp = self.CASES["narrow-peak"]
        res = integrate(f, a, b, spec, bp)
        ref, _ = _depth_first(f, a, b, spec, bp)
        assert res.subdivisions == ref.subdivisions == 5
        assert res.converged is ref.converged is False

    @pytest.mark.parametrize("case", ["oscillating", "narrow-peak", "reversed", "vector"])
    def test_one_integrand_call_per_level(self, case):
        f, a, b, bp = self.CASES[case]
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        res = integrate(counted, a, b, breakpoints=bp)
        _, depth = _depth_first(f, a, b, breakpoints=bp)
        assert depth >= 3
        assert len(calls) == depth + 1
        # every panel is evaluated once, on its 15 + 7 nodes
        assert sum(calls) == 22 * (len(bp) + 1 + 2 * res.subdivisions)


# positive shapes, so the sum of the panels has no cancellation for the
# few-ulp differences of each panel's node sum to be relative to
_SHAPES = {
    "bump": lambda x, w: np.exp(-(w * x) ** 2),
    "lorentz": lambda x, w: 1.0 / (1.0 + (w * x) ** 2),
    "root": lambda x, w: np.sqrt(np.abs(x) + 1e-3 * w),
    "rough": lambda x, w: np.abs(np.sin(w * x)) ** 0.3 + 0.1,
}


@st.composite
def _problems(draw):
    """(f, a, b, spec, breakpoints): integer or float limits in either
    order, a scalar or 2-3 component integrand, and a budget of 1 to 40."""
    if draw(st.booleans()):
        a = draw(st.integers(-5, 5))
        b = draw(st.integers(-5, 5).filter(lambda v: v != a))
    else:
        a = draw(st.floats(-5.0, 5.0))
        b = draw(st.floats(-5.0, 5.0).filter(lambda v: abs(v - a) > 1e-3))
    m = draw(st.sampled_from([1, 2, 3]))
    terms = draw(st.lists(st.tuples(st.sampled_from(sorted(_SHAPES)), st.floats(0.5, 20.0)),
                          min_size=m, max_size=m))
    if m == 1 and draw(st.booleans()):
        (name, w), = terms

        def f(x):
            return _SHAPES[name](x, w)
    else:
        def f(x):
            return np.stack([_SHAPES[name](x, w) for name, w in terms])
    abs_tol, rel_tol = draw(st.sampled_from([(1e-10, 1e-9), (1e-13, 1e-12)]))
    spec = QuadratureSpec(abs_tol, rel_tol, draw(st.integers(1, 40)))
    breakpoints = tuple(draw(st.lists(st.floats(-6.0, 6.0), max_size=4)))
    return f, a, b, spec, breakpoints


class TestEngineProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_problems())
    def test_matches_depth_first_reference(self, problem):
        f, a, b, spec, bp = problem
        res = integrate(f, a, b, spec, bp)
        ref, _ = _depth_first(f, a, b, spec, bp)
        if ref.converged:
            assert res.subdivisions == ref.subdivisions
            assert res.converged is True
            assert np.all(np.abs(res.value - ref.value) <= 1e-15 * np.abs(ref.value))
        else:  # the budget is spent before every panel is accepted
            assert res.converged is False
            assert res.subdivisions == spec.max_subdivisions

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_problems())
    def test_integer_limits_match_float_limits(self, problem):
        f, a, b, spec, bp = problem
        a, b = round(a), round(b)
        if a == b:
            b = a + 1
        res = integrate(f, a, b, spec, bp)
        ref = integrate(f, float(a), float(b), spec, bp)
        assert np.array_equal(res.value, ref.value)
        assert np.array_equal(res.est_error, ref.est_error)
        assert type(res.value) is type(ref.value)
        assert (res.subdivisions, res.converged) == (ref.subdivisions, ref.converged)

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                     (0.0, math.nan)])
    def test_non_finite_limit_is_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            integrate(np.sin, a, b)


class TestSpecValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)

    def test_bad_subdivisions(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
