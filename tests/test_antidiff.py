"""Tests for the finite-sum antidifference core.

Oracles throughout are independent direct loops, telescoping closed forms,
and the special-function layer (itself checked against mpmath elsewhere).
"""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiff import antidiff as antidiff_module
from adiff.antidiff import (
    AntidiffValue,
    antidifference,
    backward_antidifference,
    definite_sum,
    definite_sum_calls,
    lattice_plan,
    nonfinite_summand,
    resolvent_sum,
)
from adiff.errors import (
    BoundsError,
    CrossCheckError,
    DomainError,
    NoConvergence,
    NonFiniteInput,
    NonPositiveShift,
    PeriodicityViolation,
    ZeroLambda,
)
from adiff.exprlang import as_function
from adiff.numkit import digamma, floor_mod, ln_gamma
from adiff.verify import (
    cos_antidifference,
    exp_antidifference,
    gamma_ratio_product,
    mueller_sum,
    mueller_sums,
    offset_residual,
    periodic_antidifference,
    poly_antidifference,
    sin_antidifference,
)


def close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(b))


def loop_sum(f, t, n):
    acc = 0.0
    for s in range(1, n + 1):
        acc += f(t - s)
    return acc


class TestAntidifference:
    def test_constant_gives_floor_multiple(self):
        a = 2.5
        res = antidifference(lambda u: a, 3.7)
        assert res.value == 3 * a
        assert res.terms_used == 3

    def test_empty_sum_below_one(self):
        for t in [0.5, 0.0, -3.2]:
            res = antidifference(lambda u: 1e9, t)
            assert res.value == 0.0
            assert res.terms_used == 0

    def test_identity_function_example(self):
        # direct loop: 3.5 + 2.5 + 1.5 + 0.5 = 8; closed form
        # t(t-1)/2 - {t}({t}-1)/2 must agree.
        t = 4.5
        res = antidifference(lambda u: u, t)
        assert res.value == 8.0
        frac = t - math.floor(t)
        closed = t * (t - 1) / 2 - frac * (frac - 1) / 2
        assert res.value == pytest.approx(closed, rel=1e-14)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            antidifference(lambda u: u, math.inf)

    def test_right_inverse_law(self, corpus):
        rng = random.Random(314)
        for _ in range(200):
            src, f = corpus[rng.randrange(len(corpus))]
            t = rng.uniform(1.0, 15.0)
            lhs = antidifference(f, t + 1.0).value - antidifference(f, t).value
            assert close(lhs, f(t), 1e-9), (src, t)

    def test_left_inverse_defect_is_periodic(self, corpus):
        rng = random.Random(42)
        for _ in range(100):
            src, f = corpus[rng.randrange(len(corpus))]
            df = lambda u: f(u + 1.0) - f(u)
            t = rng.uniform(1.0, 10.0)
            d = lambda x: antidifference(df, x).value - f(x)
            assert close(d(t + 1.0), d(t), 1e-9), (src, t)

    def test_linearity(self, corpus):
        rng = random.Random(77)
        for _ in range(100):
            _, f = corpus[rng.randrange(len(corpus))]
            _, g = corpus[rng.randrange(len(corpus))]
            alpha, beta = rng.uniform(-3, 3), rng.uniform(-3, 3)
            t = rng.uniform(0.0, 12.0)
            combo = lambda u: alpha * f(u) + beta * g(u)
            lhs = antidifference(combo, t).value
            rhs = alpha * antidifference(f, t).value + beta * antidifference(g, t).value
            assert close(lhs, rhs, 1e-10)

    def test_shift_property_integer_offsets(self, corpus):
        # For integer c the shifted antidifference equals the antidifference
        # at t+c minus the terms the larger floor adds (signed range). Only
        # literally true away from the empty-sum clamp, so negative c keeps
        # t + c >= 1.
        rng = random.Random(2718)
        for _ in range(100):
            _, f = corpus[rng.randrange(len(corpus))]
            t = rng.uniform(0.5, 8.0)
            c = rng.choice([c for c in (-3, -1, 0, 1, 2, 4) if c >= 0 or t + c >= 1.0])
            shifted = antidifference(lambda u: f(u + c), t).value
            full = antidifference(f, t + c).value
            lo, hi = math.floor(t) + 1, math.floor(t) + c
            extra = 0.0
            for s in range(min(lo, hi + 1), max(lo, hi + 1)):
                extra += f(t + c - s)
            if c < 0:
                extra = -extra
            assert abs(shifted - (full - extra)) <= 1e-10 * (1.0 + abs(full) + abs(extra)), (t, c)

    def test_summation_by_parts_defect_is_periodic(self):
        cases = [
            (lambda u: u * u, lambda u: 2.0**u),
            (lambda u: u, lambda u: 0.5**u),
            (lambda u: 3.0**u, lambda u: u * u * u),
        ]
        rng = random.Random(161803)
        for u_fn, v_fn in cases:
            dv = lambda x: v_fn(x + 1.0) - v_fn(x)
            du = lambda x: u_fn(x + 1.0) - u_fn(x)
            lhs_fn = lambda x: u_fn(x) * dv(x)
            rhs_fn = lambda x: v_fn(x + 1.0) * du(x)

            def defect(x):
                lhs = antidifference(lhs_fn, x).value
                rhs = u_fn(x) * v_fn(x) - antidifference(rhs_fn, x).value
                return lhs - rhs

            for _ in range(25):
                t = rng.uniform(0.5, 9.0)
                assert close(defect(t + 1.0), defect(t), 1e-8)


class TestResolventSum:
    def test_geometric_example_with_residual(self):
        one = lambda u: 1.0
        res = resolvent_sum(one, 3.2, 2.0)
        assert res.value == 7.0  # 1 + 2 + 4
        assert res.terms_used == 3
        ahead = resolvent_sum(one, 4.2, 2.0)
        assert ahead.value == 15.0
        assert ahead.value - 2.0 * res.value == 1.0

    def test_step_two_example(self):
        one = lambda u: 1.0
        res = resolvent_sum(one, 5.0, 4.0, h=2.0)
        assert res.value == 5.0  # two terms: 1 + 4
        assert res.terms_used == 2
        ahead = resolvent_sum(one, 7.0, 4.0, h=2.0)
        assert ahead.value == 21.0
        assert ahead.value - 4.0 * res.value == 1.0

    def test_reduces_to_antidifference(self, corpus):
        for _, f in corpus:
            for t in [0.3, 1.7, 4.5, 9.2]:
                assert resolvent_sum(f, t, 1.0).value == antidifference(f, t).value

    def test_residual_law_random(self, corpus):
        # The residual y(t+h) - lam*y(t) - f(t) is exactly zero in real
        # arithmetic; in binary64 its noise scales with the magnitude of the
        # sums themselves (weights reach |lam|^24 here), so "relative" means
        # relative to the evaluated equation's terms.
        rng = random.Random(5)
        for _ in range(300):
            _, f = corpus[rng.randrange(len(corpus))]
            lam = 0.0
            while lam == 0.0:
                lam = rng.uniform(-4.0, 4.0)
            h = rng.choice([0.5, 1.0, 2.0])
            t = rng.uniform(0.1, 12.0)
            y_t = resolvent_sum(f, t, lam, h).value
            y_th = resolvent_sum(f, t + h, lam, h).value
            scale = 1.0 + abs(f(t)) + abs(lam) * abs(y_t) + abs(y_th)
            assert abs(y_th - lam * y_t - f(t)) <= 1e-9 * scale, (lam, h, t)

    def test_complex_lambda_accumulates_complex(self):
        res = resolvent_sum(lambda u: 1.0, 4.5, 1j)
        # 1 + i + i^2 + i^3 = 0
        assert isinstance(res.value, complex)
        assert res.value == 0j
        assert res.terms_used == 4

    def test_errors(self):
        with pytest.raises(ZeroLambda):
            resolvent_sum(lambda u: 1.0, 2.0, 0.0)
        with pytest.raises(NonFiniteInput):
            resolvent_sum(lambda u: 1.0, math.nan, 1.0)


class TestBackward:
    def test_constant(self):
        assert backward_antidifference(lambda u: 1.0, 2.5).value == 2.0

    def test_reduction_to_forward(self, corpus):
        for _, f in corpus:
            for t in [0.4, 2.5, 6.8]:
                shifted = lambda u: f(u + 1.0)
                assert (
                    backward_antidifference(f, t).value
                    == antidifference(shifted, t).value
                )

    def test_identity_function(self):
        assert backward_antidifference(lambda u: u, 3.5).value == 3.5 + 2.5 + 1.5

    @pytest.mark.parametrize("t", [1.9999999999999998, 3.9999999999999996, 7.999999999999999])
    def test_sums_at_t_below_an_integer(self, t):
        # t + 1.0 rounds up to the next integer here; the terms are f at
        # r + k, k = floor(t)..1, and the first is f(t) itself.
        f = lambda u: u
        r = t - math.floor(t)
        expected = 0.0
        for k in range(math.floor(t), 0, -1):
            expected += f(r + k)
        result = backward_antidifference(f, t)
        assert result.value == expected
        assert result.terms_used == math.floor(t)

    def test_backward_difference_residual(self):
        f = lambda u: math.sin(u) + 0.25 * u
        for t in [1.5, 4.8, 9.1]:
            y = lambda x: backward_antidifference(f, x).value
            assert close(y(t) - y(t - 1.0), f(t), 1e-10)


# 1/(1 + |k|) is 1/(1 + k) on k >= 0 and stays defined at k = -1.
_DEFINITE_SUMMANDS = {
    "square": lambda k: k * k,
    "sin": math.sin,
    "reciprocal": lambda k: 1.0 / (1.0 + abs(k)),
    "geometric": lambda k: 0.9**k,
}


class TestDefiniteSum:
    def test_square_pyramid(self):
        val = definite_sum(lambda k: k * k, 1, 5)
        assert val == 55.0

    def test_single_term(self):
        f = lambda k: 3.0 * k - 1.0
        assert definite_sum(f, 3, 3) == f(3.0)

    def test_geometric(self):
        assert definite_sum(lambda k: 2.0**k, 0, 10) == 2047.0

    def test_negative_lower_bound_direct_loop(self):
        f = lambda k: k
        assert definite_sum(f, -3, 3) == 0.0
        assert definite_sum(f, -5, -2) == -14.0

    def test_bounds_error(self):
        with pytest.raises(BoundsError):
            definite_sum(lambda k: k, 4, 3)
        with pytest.raises(BoundsError):
            definite_sum_calls(4, 3)

    def test_cancellation_fails_the_cross_check(self):
        # F(4) - F(1) = (3 + 1e20) - 1e20 loses the three unit terms.
        with pytest.raises(CrossCheckError):
            definite_sum(lambda k: 1e20 if k < 1 else 1.0, 1, 3)

    def test_highest_failing_point_surfaces_first(self):
        def f(k):
            if k <= 3.0:
                raise ValueError(k)
            return k

        with pytest.raises(ValueError) as info:
            definite_sum(f, 0, 10)
        assert info.value.args == (3.0,)

    @pytest.mark.parametrize("m", [-100_000, 0, 100_000])
    def test_constant_memory(self, m):
        # A list of 200 000 stored values would take over 1.6 MB.
        tracemalloc.start()
        try:
            definite_sum(lambda k: 1.0, m, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(_DEFINITE_SUMMANDS)),
        m=st.integers(-20, 50),
        length=st.integers(0, 80),
    )
    def test_one_call_per_point_and_the_two_antidifferences(self, name, m, length):
        f = _DEFINITE_SUMMANDS[name]
        n = m + length
        calls = []
        value = definite_sum(lambda k: calls.append(k) or f(k), m, n)
        if m >= 0:
            route = antidifference(f, float(n + 1)).value - antidifference(f, float(m)).value
        else:
            route = 0.0
            for k in range(m, n + 1):
                route += f(float(k))
        assert value == route
        assert len(calls) == n - min(m, 0) + 1 == definite_sum_calls(m, n)
        assert sorted(calls) == [float(k) for k in range(min(m, 0), n + 1)]

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(-30, 40), length=st.integers(0, 60))
    def test_points_in_call_order(self, m, length):
        # Descending from n to 0 for m >= 0, ascending from m for m < 0;
        # each point is the float of its integer (repr tells 3 from 3.0).
        n = m + length
        calls = []
        definite_sum(lambda k: calls.append(k) or 1.0, m, n)
        ks = range(n, -1, -1) if m >= 0 else range(m, n + 1)
        assert [repr(k) for k in calls] == [repr(float(k)) for k in ks]

    @pytest.mark.parametrize("m, n", [(2**53 - 3, 2**53 - 1), (-(2**53) + 1, -(2**53) + 3)])
    def test_points_near_two_to_the_53(self, m, n):
        # Every integer below 2^53 in magnitude is a float, so the points
        # are exact up there too; f stops the sum after three calls.
        calls = []

        def f(k):
            calls.append(k)
            if len(calls) == 3:
                raise ValueError(k)
            return 0.0

        with pytest.raises(ValueError):
            definite_sum(f, m, n)
        ks = (n, n - 1, n - 2) if m >= 0 else (m, m + 1, m + 2)
        assert calls == [float(k) for k in ks]

    @pytest.mark.parametrize("m,n", [(0.5, 3), (1, 3.0), (math.nan, 3)])
    def test_non_integer_bounds_refused_before_any_call(self, m, n):
        # range() raised TypeError on a float bound.
        calls = []
        with pytest.raises(DomainError, match="bounds must be integers"):
            definite_sum(lambda k: calls.append(k) or 1.0, m, n)
        with pytest.raises(DomainError, match="bounds must be integers"):
            definite_sum_calls(m, n)
        assert calls == []


class TestPolyAntidifference:
    def test_square_closed_form(self):
        # x(x-1)(2x-1)/6 at x = 3 is 5
        assert poly_antidifference([0.0, 0.0, 1.0], 3.0) == pytest.approx(5.0, abs=1e-12)

    def test_constant(self):
        for t in [0.0, 2.5, -1.75]:
            assert poly_antidifference([4.25], t) == pytest.approx(4.25 * t, abs=1e-12)

    def test_cube_defect_is_periodic(self):
        rng = random.Random(9)
        f = lambda u: u**3
        for _ in range(50):
            t = rng.uniform(0.5, 10.0)
            d = lambda x: poly_antidifference([0, 0, 0, 1.0], x) - antidifference(f, x).value
            assert close(d(t + 1.0), d(t), 1e-9)

    def test_difference_recovers_polynomial(self):
        rng = random.Random(10)
        coeffs = [1.0, -2.0, 0.5, 1.25]
        p = lambda u: coeffs[0] + coeffs[1] * u + coeffs[2] * u**2 + coeffs[3] * u**3
        for _ in range(50):
            t = rng.uniform(-5.0, 5.0)
            lhs = poly_antidifference(coeffs, t + 1.0) - poly_antidifference(coeffs, t)
            assert close(lhs, p(t), 1e-10)


class TestClosedForms:
    def test_exponential_witness(self):
        # finite sum at a=2, t=3.5: sqrt2*(4+2+1) = 7*sqrt(2)
        finite = antidifference(lambda u: 2.0**u, 3.5).value
        assert finite == pytest.approx(9.8994949366116653416, rel=1e-14)
        frac_term = 2.0**0.5 / (2.0 - 1.0)
        assert exp_antidifference(2.0, 3.5) - frac_term == pytest.approx(finite, rel=1e-14)

    def test_exponential_difference_identity(self):
        rng = random.Random(12)
        for a in [0.5, 2.0, 3.0]:
            for _ in range(50):
                t = rng.uniform(-4.0, 10.0)
                lhs = exp_antidifference(a, t + 1.0) - exp_antidifference(a, t)
                assert close(lhs, a**t, 1e-12)

    def test_exponential_half_power(self):
        assert exp_antidifference(0.5, 5.0) == (0.5**5) / (0.5 - 1.0)  # -1/16

    def test_exponential_domain(self):
        for a in [-2.0, 0.0, 1.0]:
            with pytest.raises(DomainError):
                exp_antidifference(a, 1.0)

    def test_sin_cos_difference_identity(self):
        rng = random.Random(13)
        for _ in range(100):
            t = rng.uniform(-10.0, 10.0)
            assert close(sin_antidifference(t + 1.0) - sin_antidifference(t), math.sin(t), 1e-12)
            assert close(cos_antidifference(t + 1.0) - cos_antidifference(t), math.cos(t), 1e-12)

    def test_sin_at_zero(self):
        expected = -math.sin(1.0) / (2.0 - 2.0 * math.cos(1.0))
        assert sin_antidifference(0.0) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("t", [2.5, -2.5])
    def test_exponential_refuses_an_infinite_base(self, t):
        # inf^t / (inf - 1) read nan at t = 2.5 and 0.0 at t = -2.5.
        with pytest.raises(DomainError, match="finite"):
            exp_antidifference(math.inf, t)

    @pytest.mark.parametrize("a,t,expected", [(1e308, 2.0, math.inf), (0.5, -5000.0, -math.inf)])
    def test_exponential_saturates_where_the_power_overflows(self, a, t, expected):
        # a^t past the float range is inf, as exprlang's ^ reads it; it raised
        # a bare OverflowError, which is no AdiffError.
        assert exp_antidifference(a, t) == expected


def _flag_loop_mueller_sums(f, x, y, tail_tol, max_terms):
    """mueller_sums' loop as first written, with a run flag per point (oracle)."""
    acc_x = acc_y = 0.0
    sum_x = sum_y = None
    run_x, run_y = True, y is not None
    u = 0.0
    for n in range(1, max_terms + 1):
        fn = f(u)
        if run_x:
            fnx = f(u + x)
            acc_x += fn - fnx
            if abs(fn) + abs(fnx) < tail_tol:
                sum_x, run_x = AntidiffValue(acc_x, n), False
                if not run_y:
                    return sum_x, sum_y
        if run_y:
            fny = f(u + y)
            acc_y += fn - fny
            if abs(fn) + abs(fny) < tail_tol:
                sum_y, run_y = AntidiffValue(acc_y, n), False
                if not run_x:
                    return sum_x, sum_y
        u += 1.0
    raise NoConvergence(
        f"tail criterion {tail_tol!r} not met within {max_terms} terms"
    )


@st.composite
def _mueller_summands(draw):
    """A decaying or growing power of a, its sign flipped on some points, and
    a window of points where it returns one special value or raises."""
    a = draw(st.sampled_from([0.3, 0.5, 0.9, 1.0, 1.5]))
    flip = draw(st.sampled_from(["none", "all", "odd", "above"]))
    cut = draw(st.floats(-30.0, 80.0))
    special = draw(st.sampled_from([None, 0.0, -0.0, math.nan, math.inf, -math.inf, "raise"]))
    lo = draw(st.floats(-30.0, 80.0))
    width = draw(st.floats(0.0, 20.0))

    def f(u):
        if special is not None and lo <= u < lo + width:
            if special == "raise":
                raise ValueError(u)
            return special
        v = a**u
        if flip == "all" or flip == "odd" and math.floor(u) % 2 or flip == "above" and u > cut:
            v = -v
        return v

    return f


def _mueller_outcome(sums, f, x, y, tail_tol, max_terms):
    """(result or failure, the points f saw) of sums(f, x, y, ...), by repr."""
    calls = []

    def g(u):
        calls.append(repr(u))
        return f(u)

    try:
        res = sums(g, x, y, tail_tol, max_terms)
    except (NoConvergence, ValueError) as exc:
        return type(exc), exc.args, calls
    return [None if s is None else (repr(s.value), s.terms_used) for s in res], calls


class TestMueller:
    def test_geometric_closed_form(self):
        # sum_n (a^n - a^(n+x)) = (1 - a^x)/(1 - a); at a=1/2, x=3: 1.75
        res = mueller_sum(lambda u: 0.5**u, 3.0)
        assert res.value == pytest.approx(1.75, rel=1e-12)

    def test_zero_function(self):
        res = mueller_sum(lambda u: 0.0, 4.2)
        assert res.value == 0.0
        assert res.terms_used == 1

    def test_no_convergence_for_constant(self):
        with pytest.raises(NoConvergence):
            mueller_sum(lambda u: 1.0, 2.0, tail_tol=1e-9, max_terms=50)

    def test_difference_identity(self):
        f = lambda u: 0.7**u
        for x in [0.6, 2.3, 5.9]:
            F = lambda u: mueller_sum(f, u).value
            assert close(F(x + 1.0) - F(x), f(x), 1e-10)

    def test_defect_vs_resolvent_is_periodic(self):
        rng = random.Random(21)
        for a in [0.3, 0.5, 0.9]:
            f = lambda u: a**u
            d = lambda x: mueller_sum(f, x).value - resolvent_sum(f, x, 1.0).value
            for _ in range(30):
                x = rng.uniform(0.1, 8.0)
                assert abs(d(x + 1.0) - d(x)) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(a=st.sampled_from([0.3, 0.5, 0.9]), x=st.floats(-20.0, 60.0))
    def test_equals_an_integer_counter_loop(self, a, x):
        def written_out(f):
            acc = 0.0
            for n in range(1_000_000):
                fn = f(float(n))
                fnx = f(n + x)
                acc += fn - fnx
                if abs(fn) + abs(fnx) < 1e-12:
                    return acc, n + 1

        seen, expected_seen = [], []
        res = mueller_sum(lambda u: seen.append(u) or a**u, x)
        expected = written_out(lambda u: expected_seen.append(u) or a**u)
        assert (res.value, res.terms_used) == expected
        assert seen == expected_seen

    @settings(max_examples=200, deadline=None)
    @given(a=st.sampled_from([0.3, 0.5, 0.9]), x=st.floats(-20.0, 60.0), y=st.floats(-20.0, 60.0))
    def test_two_points_in_one_pass(self, a, x, y):
        # Each sum is the one-point sum; f(n) is called once for both.
        calls = []
        at_x, at_y = mueller_sums(lambda u: calls.append(u) or a**u, x, y)
        alone = [mueller_sum(lambda u: a**u, point) for point in (x, y)]
        assert [(s.value, s.terms_used) for s in (at_x, at_y)] == [(s.value, s.terms_used) for s in alone]
        assert len(calls) == max(at_x.terms_used, at_y.terms_used) + at_x.terms_used + at_y.terms_used

    @settings(max_examples=600, deadline=None)
    @given(
        f=_mueller_summands(),
        x=st.floats(-30.0, 60.0),
        y=st.one_of(st.none(), st.just("x"), st.floats(-30.0, 60.0)),
        tail_tol=st.one_of(
            st.sampled_from([1e-12, 1e-3, 0.5, 2.0, math.inf]),
            st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
        ),
        max_terms=st.one_of(st.integers(1, 8), st.integers(1, 400)),
    )
    def test_equals_the_flag_loop(self, f, x, y, tail_tol, max_terms):
        # Same values, term counts, calls, and the same failure at the same
        # call, for summands that change sign, hit +-0.0, give NaN or +-inf,
        # or raise, at one or two points (y == x and y < x included).
        y = x if y == "x" else y
        assert _mueller_outcome(mueller_sums, f, x, y, tail_tol, max_terms) == _mueller_outcome(
            _flag_loop_mueller_sums, f, x, y, tail_tol, max_terms
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            mueller_sum(lambda u: 0.0, 1.0, tail_tol=0.0)
        with pytest.raises(NonFiniteInput):
            mueller_sums(lambda u: 0.0, 1.0, math.inf)
        with pytest.raises(DomainError):
            mueller_sum(lambda u: 0.0, 1.0, max_terms=0)

    def test_max_terms_must_be_an_integer(self):
        # range() raised TypeError on a float max_terms.
        calls = []
        f = lambda u: calls.append(u) or 0.5**u
        with pytest.raises(DomainError, match="must be a positive integer, got 2.5"):
            mueller_sum(f, 2.0, max_terms=2.5)
        with pytest.raises(DomainError, match="must be a positive integer, got 2.5"):
            mueller_sums(f, 2.0, 3.0, max_terms=2.5)
        assert calls == []


class TestOffsetResidual:
    def test_digamma_identity(self):
        # 1/1.5 + 1/0.5 = 8/3 = psi(2.5) - psi(0.5)
        r = offset_residual(digamma, lambda u: 1.0 / u, 2.5)
        assert abs(r) < 1e-12

    def test_lngamma_identity(self):
        r = offset_residual(ln_gamma, math.log, 2.5)
        assert abs(r) < 1e-12

    def test_trivial_below_one(self):
        r = offset_residual(digamma, lambda u: 1.0 / u, 0.62)
        assert r == 0.0

    def test_random_points(self):
        rng = random.Random(23)
        for _ in range(100):
            x = rng.uniform(0.0, 20.0)
            if abs(x - round(x)) < 1e-6:
                continue
            assert abs(offset_residual(digamma, lambda u: 1.0 / u, x)) < 1e-8
            assert abs(offset_residual(ln_gamma, math.log, x)) < 1e-8


class TestGammaRatioProduct:
    def test_half_integer(self):
        assert gamma_ratio_product(2.5) == 1.5 * 0.5

    def test_unit_interval_empty_product(self):
        assert gamma_ratio_product(0.37) == 1.0

    def test_longer_product_vs_ln_gamma(self):
        t = 4.25
        direct = 3.25 * 2.25 * 1.25 * 0.25
        assert gamma_ratio_product(t) == direct
        via_gamma = math.exp(ln_gamma(t) - ln_gamma(0.25))
        assert close(gamma_ratio_product(t), via_gamma, 1e-12)

    def test_domain(self):
        for t in [3.0, 0.0, -1.5]:
            with pytest.raises(DomainError):
                gamma_ratio_product(t)


class TestPeriodicAntidifference:
    def test_sine_example(self):
        f = lambda x: math.sin(2.0 * math.pi * x)
        t = 3.5
        closed = periodic_antidifference(f, 1.0, t)
        assert closed == 3 * f(1.0 * t)
        direct = antidifference(lambda u: f(1.0 * u), t).value
        assert abs(closed - direct) < 1e-12

    def test_constant_is_periodic(self):
        assert periodic_antidifference(lambda x: 4.0, 2.5, 6.8) == 6 * 4.0

    def test_defect_is_periodic(self):
        f = lambda x: math.cos(math.pi * x)  # period 2
        d = lambda t: t * f(2.0 * t) - periodic_antidifference(f, 2.0, t)
        for t in [0.3, 1.7, 4.2]:
            assert close(d(t + 1.0), d(t), 1e-9)

    def test_violation_detected(self):
        with pytest.raises(PeriodicityViolation):
            periodic_antidifference(lambda x: x, 1.0, 3.5)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_period_must_be_positive_and_finite(self, T):
        with pytest.raises(PeriodicityViolation, match="period must be a positive finite real"):
            periodic_antidifference(math.sin, T, 1.0)


_LATTICE_CORPUS = (
    lambda u: 1.0,
    math.sin,
    lambda u: u * u - 3.0 * u,
    lambda u: 0.5**u,
    lambda u: 1.0 / (1.0 + u * u),
)


# Summands of every kind a one-point row reads: floats, ints, fractions,
# complex values (one with an infinite imaginary part, which a multiply by
# complex(1, 0) would turn into a NaN real part), NaN and values that overflow.
_ONE_POINT_SUMMANDS = _LATTICE_CORPUS + (
    lambda u: 3,
    lambda u: math.floor(u),
    lambda u: Fraction(u),
    lambda u: complex(math.cos(u), 0.25),
    lambda u: complex(u, math.inf if u > 3.0 else 1.0),
    lambda u: math.nan if 2.0 < u < 4.0 else u,
    lambda u: 1e300 * u * u,
)


def float_shift_sum(f, t, n, lam, h, first=1):
    """sum_{s=first..n+first-1} lam^(s-first) f(t - h*s), written out in ascending s."""
    acc = 0j if isinstance(lam, complex) else 0.0
    w = 1.0 + 0j if isinstance(lam, complex) else 1.0
    for s in range(first, n + first):
        acc += w * f(t - h * s)
        w *= lam
    return acc


def lattice_sums(f, ts, lam, h):
    return list(zip(*lattice_plan(ts, h, [1], [lam], ahead=True)[2](f)))


def engine_classes(ts, h):
    """(cells, tops) of the engine's plan on one factor, residuals read: the
    points split as lattice_plan splits them, and per remainder class the
    indices at which its rows read y, its top layer or each pass's top index
    and the one above."""
    cells = [antidiff_module._floor_mod(t, h) for t in ts]
    plan, _, _ = antidiff_module._plan([1], cells, [0, 1], math.inf)
    return cells, {r: set(sets[-1]) if len(sets) > 1 else {i for top in sets[0] for i in (top, top + 1)}
                   for r, sets in plan.items()}


def running_product_fold(values, lam):
    """sum_i lam^i values[i] in order, the weight a running product of lam.

    Accumulates in complex exactly when lam is complex; at lam = 1.0 it adds
    the values with no multiply.
    """
    if isinstance(lam, complex):
        acc, w = 0j, 1.0 + 0j
    elif lam == 1.0:
        acc = 0.0
        for v in values:
            acc += v
        return acc
    else:
        acc, w = 0.0, 1.0
    for v in values:
        acc += w * v
        w *= lam
    return acc


class TestLatticeSums:
    """The lattice kernel: t = n*h + r, summands at r + k*h, one value list per class."""

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.25, 2.0])
    def test_power_of_two_steps_equal_float_shifts(self, h):
        # r + k*h is t - h*s exactly at these steps, so values, shifted values
        # and term counts are those of the written-out float-shift loop.
        rng = random.Random(int(h * 100))
        for _ in range(3000):
            f = _LATTICE_CORPUS[rng.randrange(len(_LATTICE_CORPUS))]
            lam = rng.choice([1.0, -0.9, 1.7, complex(0.3, -0.8)])
            if rng.random() < 0.5:
                t = rng.uniform(-2.0, 40.0)
            else:
                t = rng.randint(0, 80) * h
            n = max(floor_mod(t, h).n, 0)
            [(terms, value, ahead)] = lattice_sums(f, [t], lam, h)
            assert terms == n
            assert value == float_shift_sum(f, t, n, lam, h), (h, lam, t)
            assert resolvent_sum(f, t, lam, h).value == value
            if floor_mod(t, h).n >= 0:
                # y(t+h) sums f(t), f(t-h), ..., f(t-n*h): n+1 terms.
                assert ahead == float_shift_sum(f, t, n + 1, lam, h, first=0), (h, lam, t)

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 0.3, 0.7, 1.0 / 3.0, 2.0, 1.5])
    def test_many_points_equal_each_point_alone(self, h):
        # Shared value lists and memoized folds change no bit: every entry of
        # one call over many points equals its point computed alone.
        rng = random.Random(7)
        for _ in range(30):
            f = _LATTICE_CORPUS[rng.randrange(len(_LATTICE_CORPUS))]
            lam = rng.choice([1.0, -0.9, 2.0, complex(0.6, 0.6)])
            step = rng.choice([h, 2.0 * h, 0.37, 0.5])
            lo = rng.uniform(-1.0, 3.0)
            ts = [lo + i * step for i in range(rng.randint(1, 40))]
            ts += rng.sample(ts, min(3, len(ts)))  # repeated points
            got = lattice_sums(f, ts, lam, h)
            for t, (n, value, ahead) in zip(ts, got):
                [alone] = lattice_sums(f, [t], lam, h)
                assert (n, value, ahead) == alone, (h, lam, t)
                assert (resolvent_sum(f, t, lam, h).terms_used, resolvent_sum(f, t, lam, h).value) == (n, value)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.7, 1.0 / 3.0, 1.1])
    def test_shifted_value_obeys_the_law(self, h):
        # y(n+1, r) - lam*y(n, r) = f(r + n*h) up to rounding, at any step;
        # y at the float t + h can sum n or n+2 terms instead.
        rng = random.Random(11)
        for _ in range(500):
            lam = rng.choice([1.0, -0.5, 1.3])
            t = rng.randint(1, 60) * h if rng.random() < 0.7 else rng.uniform(0.0, 20.0)
            [(n, y, ahead)] = lattice_sums(lambda u: 1.0, [t], lam, h)
            assert abs(ahead - lam * y - 1.0) <= 1e-12 * (1.0 + abs(y) * (1.0 + abs(lam))), (h, t)

    def test_antidifference_is_the_unit_lattice_sum(self):
        rng = random.Random(13)
        for _ in range(500):
            f = _LATTICE_CORPUS[rng.randrange(len(_LATTICE_CORPUS))]
            t = rng.choice([rng.uniform(-2.0, 60.0), float(rng.randint(0, 60))])
            [(n, value, _)] = lattice_sums(f, [t], 1.0, 1.0)
            assert (antidifference(f, t).terms_used, antidifference(f, t).value) == (n, value), t

    def test_one_point_call_order(self):
        # The summand indices of y(t) and y(t+h), highest first.
        seen = []
        lattice_sums(lambda u: seen.append(u) or 0.0, [3.5], 1.0, 1.0)
        assert seen == [3.5, 2.5, 1.5, 0.5]
        seen.clear()
        resolvent_sum(lambda u: seen.append(u) or 0.0, 3.5, 2.0)
        assert seen == [2.5, 1.5, 0.5]

    def test_each_value_computed_once_per_class(self):
        calls = []
        f = lambda u: calls.append(u) or u
        ts = [i * 0.5 for i in range(40)]  # one class per remainder 0, 0.5 at h = 1
        lattice_sums(f, ts, -0.7, 1.0)
        assert len(calls) == len(set(calls)) == 40  # r + k*h for k = 0..19, two classes

    def test_negative_points_sum_nothing(self):
        assert lattice_sums(lambda u: 1 / 0, [-3.2, -0.5], 2.0, 0.5) == [
            (0, 0.0, 0.0),
            (0, 0.0, 0.0),
        ]

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.3])
    def test_classes_above_the_value_cap_store_nothing(self, h, monkeypatch):
        # Past the cap each point of a class is summed alone, highest index
        # first: the same bits, and one point costs n + 1 calls, one per
        # index n, ..., 0 (the residual's f(t) is the caller's).
        rng = random.Random(17)
        cases = []
        for _ in range(40):
            f = _LATTICE_CORPUS[rng.randrange(len(_LATTICE_CORPUS))]
            lam = rng.choice([1.0, -0.9, complex(0.6, 0.6)])
            ts = [rng.uniform(-1.0, 12.0) for _ in range(rng.randint(1, 6))]
            cases.append((f, lam, ts, lattice_sums(f, ts, lam, h)))
        monkeypatch.setattr(antidiff_module, "_CLASS_VALUES_MAX", 3)
        for f, lam, ts, stored in cases:
            assert lattice_sums(f, ts, lam, h) == stored, (h, lam, ts)
        seen = []
        cell = floor_mod(9.5 * h, h)
        [(n, _, _)] = lattice_sums(lambda u: seen.append(u) or 0.0, [9.5 * h], 2.0, h)
        assert n == cell.n > 3 and len(seen) == n + 1
        assert seen == [cell.r + k * h for k in range(n, -1, -1)]

    @pytest.mark.parametrize("h", [1.0, 0.3, 0.1, 4.758454107848294e285])
    def test_classes_agree_with_floor_mod_per_point(self, h):
        # The engine splits each point as floor_mod does and groups it by
        # its remainder (0.0 and -0.0 are one class); the top layer of a
        # class holds n and n + 1 for each of its points.
        rng = random.Random(19)
        ts = [-0.0, 0.0, -1e-300, -1.175494351e-38, -3.5 * h, -h, h, 0.7 * h]
        ts += [(antidiff_module._CLASS_VALUES_MAX + k + 0.5) * h for k in (-1, 0, 7)]
        ts += [rng.uniform(-40.0, 40.0) * h for _ in range(40)] + ts[:4]
        cells, tops = engine_classes(ts, h)
        members = {}
        for t, (n, r) in zip(ts, cells):
            cell = floor_mod(t, h)
            assert (n, r) == (cell.n, cell.r) and r in tops, t
            members.setdefault(r, set()).update((n, n + 1))
        assert tops == members
        assert max(max(y) for y in tops.values()) > antidiff_module._CLASS_VALUES_MAX
        # The rows read y at each of them.
        counts, _, _ = lattice_plan(ts, h, [1], [2.0], ahead=True)[2](lambda u: 0.0)
        assert counts == [max(n, 0) for n, _ in cells]

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.lists(st.floats() | st.sampled_from([0.0, -0.0, 5e-324]), min_size=1, max_size=30),
        st.sampled_from([1.0, -0.9, 1.7, 1e-3, -1.0, complex(0.3, -0.8), complex(1.0, 0.0), -1j]),
        st.data(),
    )
    def test_class_fold_is_the_running_product_fold(self, values, lam, data):
        # One weight row per layer multiplies the same operands, in the same
        # order, as a running product w *= lam kept per term: same bits. A
        # lam with imaginary part 0 folds these float values in floats.
        counts = sorted(set(data.draw(st.lists(st.integers(0, len(values)), min_size=1, max_size=6))))
        field_lam = lam if lam.imag else lam.real
        # Each point twice, so that even one count is a class, not a pass.
        ts = [float(m) for m in counts] * 2
        got, sums, _ = lattice_plan(ts, 1.0, [1], [lam], residuals=False)[2](lambda u: values[int(u)])
        assert got == counts * 2
        for m, y in zip(counts, sums):
            assert repr(y) == repr(running_product_fold(values[m - 1 :: -1] if m else [], field_lam))

    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("which", range(len(_ONE_POINT_SUMMANDS)))
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.floats(-3.0, 120.0),
        st.sampled_from([1.0, 0.5, 0.3, 0.1]),
        st.sampled_from([1.0, -0.9, 1.7, complex(0.6, 0.6), -1j, complex(1.0, 0.0)]),
        st.sampled_from([(True, False), (True, True), (False, False), (False, True)]),
    )
    def test_one_point_rows_are_the_class_rows(self, which, cap, t, h, lam, mode):
        # One point of one factor skips the class planner; a plan of the
        # point twice takes it, and reads the same work and the same bits,
        # below the value cap (a class fold) and past it (a pass per point).
        # The residual's f(t) is read from the summand values where t is its
        # lattice point rho + n*h, n >= 0, in a class on either side of the
        # cap as in one point's pass; elsewhere each row calls it.
        residuals, ahead = mode
        reads = residuals and not ahead
        f = _ONE_POINT_SUMMANDS[which]
        n, rho = antidiff_module._floor_mod(t, h)
        point = rho + n * h
        on = n >= 0 and t == point and math.copysign(1.0, t) == math.copysign(1.0, point)
        seen = []
        counted = lambda u: seen.append(u) or f(u)
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(antidiff_module, "_CLASS_VALUES_MAX", cap)
            shifted = residuals or ahead
            call = reads and not on
            terms, calls, rows = lattice_plan([t], h, [1], [lam], residuals, ahead=ahead)
            class_terms, class_calls, class_rows = lattice_plan([t, t], h, [1], [lam], residuals, ahead=ahead)
            assert calls == max(n + shifted, 0) + call
            assert (terms, calls + call) == (class_terms, class_calls)
            got = rows(counted)
            assert len(seen) == calls
            seen.clear()
            expected = [column if column is None else column[:1] for column in class_rows(counted)]
            assert len(seen) == class_calls
        assert (got[2] is None) == (not shifted)
        assert repr(list(got)) == repr(expected), (t, h, lam, which, mode)

    def test_the_residual_reads_f_at_minus_zero_itself(self):
        # t = -0.0 is index 0 of its class, whose summand point is 0.0: a
        # summand that tells the zeros apart is called at -0.0 once more,
        # alone and in a class, and its residual is |f(0.0) - f(-0.0)|.
        f = lambda u: math.copysign(1.0, u)
        for ts in ([-0.0], [-0.0, 0.0, 1.0]):
            terms, calls, rows = lattice_plan(ts, 1.0, [1], [0.5])
            seen = []
            counts, values, resids = rows(lambda u: seen.append(u) or f(u))
            minus_zeros = [u for u in seen if u == 0.0 and math.copysign(1.0, u) < 0.0]
            assert (len(seen), len(minus_zeros), resids[0]) == (calls, 1, 2.0), ts
            assert resids[1:] == [0.0] * (len(ts) - 1)

    @pytest.mark.parametrize("ts", [[3.5], [3.5, 4.5], [-1.5, 2.0]])
    def test_ahead_plans_the_shifted_point_without_residuals(self, ts):
        # With ahead the third column is y(t + h) whatever residuals says:
        # the same work and the same rows.
        bare = lattice_plan(ts, 1.0, [1], [0.5], residuals=False, ahead=True)
        plain = lattice_plan(ts, 1.0, [1], [0.5], ahead=True)
        assert bare[:2] == plain[:2]
        assert repr(bare[2](math.cos)) == repr(plain[2](math.cos))

    @pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    @pytest.mark.parametrize("lam", [1.0, 0.999, complex(0.6, 0.7)])
    def test_one_point_calls_are_the_plan_on_both_sides_of_the_cap(self, n, lam):
        # One pass on both sides of the cap, its values held in one list or
        # in stretches: either way one call per index n, ..., 0, as planned,
        # and the bits of resolvent_sum at t and t + h.
        t = n + 0.5
        terms, calls, rows = lattice_plan([t], 1.0, [1], [lam], ahead=True)
        assert (terms, calls) == (2 * n + 1, n + 1)
        seen = []
        [count], [y], [ahead] = rows(lambda u: seen.append(u) or math.cos(u))
        assert count == n and len(seen) == calls
        assert seen == [0.5 + k for k in range(n, -1, -1)]
        assert repr(y) == repr(resolvent_sum(math.cos, t, lam).value)
        assert repr(ahead) == repr(resolvent_sum(math.cos, t + 1.0, lam).value)
        # The residual's f(t) is the value at k = n: no call more.
        assert lattice_plan([t], 1.0, [1], [lam])[:2] == (terms, calls)
        seen.clear()
        [_], [_], [resid] = lattice_plan([t], 1.0, [1], [lam])[2](lambda u: seen.append(u) or math.cos(u))
        assert len(seen) == calls
        assert repr(resid) == repr(abs(ahead - (lam if lam.imag else lam.real) * y - math.cos(t)))

    @pytest.mark.parametrize("lam", [1.0, -0.9, complex(0.6, 0.6)])
    def test_a_class_past_the_cap_is_summed_a_point_at_a_time(self, lam, monkeypatch):
        # Points of one class, some repeated or negative: past the cap each
        # point is summed alone, the highest point first and each highest
        # index first, with the stored fold's bits, and the calls made are
        # the calls planned.
        ts = [2.25, 9.25, 5.25, 9.25, -1.75, 0.25, 6.25]
        f = lambda u: math.sin(u) + u
        stored = lattice_sums(f, ts, lam, 1.0)
        monkeypatch.setattr(antidiff_module, "_CLASS_VALUES_MAX", 3)
        seen = []
        summed = lattice_sums(lambda u: seen.append(u) or f(u), ts, lam, 1.0)
        assert repr(summed) == repr(stored)
        assert seen == [0.25 + k for n in (9, 6, 5, 2, 0) for k in range(n, -1, -1)]
        assert lattice_plan(ts, 1.0, [1], [lam], ahead=True)[1] == len(seen)
        # A row's f(t) is the value at its pass's top index n: only the row
        # below 0 calls f(t), last, and the residuals are the stored fold's.
        calls = len(seen) + 1
        assert lattice_plan(ts, 1.0, [1], [lam])[1] == calls
        seen.clear()
        resids = lattice_plan(ts, 1.0, [1], [lam])[2](lambda u: seen.append(u) or f(u))[2]
        assert len(seen) == calls and seen[-1] == -1.75
        monkeypatch.undo()
        assert repr(resids) == repr(lattice_plan(ts, 1.0, [1], [lam])[2](f)[2])

    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("mode", [(True, False), (True, True), (False, False), (False, True)])
    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
    def test_calls_made_are_the_calls_charged_and_f_t_has_one_rule(self, cap, mode, h, monkeypatch):
        # One point at a time, then all of them: classes below the cap and,
        # under a cap of 3 values, past it. Rows below 0, at -0.0, and on and
        # off their lattice points (7.3 at h = 0.1 is off): the calls made are
        # the calls charged, and a row with a residual calls f(t), after every
        # summand call, exactly where t is not rho + n*h with n >= 0.
        residuals, ahead = mode
        if cap is not None:
            monkeypatch.setattr(antidiff_module, "_CLASS_VALUES_MAX", cap)
        points = [-2.5 * h, -0.0, 0.3 * h, 2.0 * h, 7.3, 9.5 * h, 9.5 * h, 2.75, 0.0]

        def on(t):
            cell = floor_mod(t, h)
            point = cell.r + cell.n * h
            return cell.n >= 0 and t == point and math.copysign(1.0, t) == math.copysign(1.0, point)

        for ts in [[t] for t in points] + [points]:
            terms, calls, rows = lattice_plan(ts, h, [1], [0.7], residuals, ahead=ahead)
            summand_calls = lattice_plan(ts, h, [1], [0.7], residuals=False, ahead=residuals or ahead)[1]
            off = [t for t in ts if not on(t)] if residuals and not ahead else []
            assert calls == summand_calls + len(off), ts
            seen = []
            rows(lambda u: seen.append(u) or math.cos(u))
            assert len(seen) == calls and seen[summand_calls:] == off, ts

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                        reason="the bound counts CPython 3.11's bytecode")
    def test_one_point_costs_a_bounded_number_of_opcodes(self):
        # The fixed cost of one eval: plan one point of one factor and read its
        # row, counted in opcode events, which do not drift with the machine
        # as timings do. The bound is this engine's count, 1 221, plus 2%, so
        # that plumbing added to the one-point path fails here, not only in
        # benchmark pairs.
        f = as_function("3.8")

        def one_point():
            counted = [0]

            def opcode(frame, event, arg):
                counted[0] += event == "opcode"
                return opcode

            def call(frame, event, arg):
                frame.f_trace_opcodes = True
                return opcode

            previous = sys.gettrace()
            sys.settrace(call)
            try:
                rows = lattice_plan([9.7], 0.5, [1], [0.46 + 0.66j])[2]
                rows(f)
            finally:
                sys.settrace(previous)
            return counted[0]

        counts = [one_point() for _ in range(3)]
        assert counts[0] == counts[1] == counts[2] <= 1245, counts

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    @pytest.mark.parametrize("lam", [1.0, -0.9, complex(0.6, 0.6)])
    def test_one_point_past_the_cap_folds_in_stretches(self, n, lam, monkeypatch):
        # Under a cap of 3 values: one list (n = 2 reads 3 values), the first
        # n past it, and several stretches; each is resolvent_sum's bits.
        monkeypatch.setattr(antidiff_module, "_CLASS_VALUES_MAX", 3)
        f = lambda u: math.cos(u) + 0.25 * u
        t = n + 0.5
        [(count, y, ahead)] = lattice_sums(f, [t], lam, 1.0)
        assert count == n
        assert repr(y) == repr(resolvent_sum(f, t, lam).value)
        assert repr(ahead) == repr(resolvent_sum(f, t + 1.0, lam).value)

    def test_validation(self):
        with pytest.raises(NonFiniteInput):
            lattice_sums(math.sin, [1.0, math.inf], 2.0, 1.0)
        with pytest.raises(ZeroLambda):
            lattice_sums(math.sin, [1.0], 0.0, 1.0)
        with pytest.raises(NonPositiveShift):
            lattice_sums(math.sin, [1.0], 2.0, -1.0)


class TestNonfiniteTerm:
    """The engine's non-finite walker on one factor (g = h, m = [1]), as eval reads it."""

    def test_first_in_evaluation_order(self):
        # Highest index first: y(t+h)'s top point comes before the rest.
        f = lambda u: math.inf if u in (1.5, 3.5) else 1.0
        assert nonfinite_summand(f, 3.5, 1.0, [1]) == (3, 3.5, math.inf)

    def test_extra_point_is_visited_last(self):
        # The residual's f(t) comes after every lattice point. At h = 0.1 the
        # point of index 72 of t = 7.3 is 7.299999999999999, not t.
        f = lambda u: math.nan if u == 7.3 else 1.0
        index, point, value = nonfinite_summand(f, 7.3, 0.1, [1])
        assert (index, point) == (None, 7.3) and math.isnan(value)
        g = lambda u: math.nan if u in (7.3, 0.09999999999999912) else 1.0
        index, point, value = nonfinite_summand(g, 7.3, 0.1, [1])
        assert (index, point) == (0, 0.09999999999999912) and math.isnan(value)

    def test_past_the_cap_index_n_comes_first(self):
        # One factor walks k = n, ..., 0 at any n, as its one pass reads them.
        t = 70000.5
        assert t > antidiff_module._CLASS_VALUES_MAX
        seen = []
        f = lambda u: seen.append(u) or (math.inf if u > 1.0 else 1.0)
        assert nonfinite_summand(f, t, 1.0, [1]) == (70000, t, math.inf)
        assert seen == [t]

    def test_all_finite(self):
        assert nonfinite_summand(math.sin, 7.3, 0.3, [1]) is None
        # Below 0 both sums are empty: f(t) is the one point read.
        assert nonfinite_summand(lambda u: 1.0 if u == -1.0 else 1 / 0, -1.0, 1.0, [1]) is None
