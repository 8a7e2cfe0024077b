"""Tests for the special-function / combinatorics layer.

Oracles: mpmath (digamma, loggamma), brute-force set-partition counting
(stirling2), exhaustive candidate search (floor_mod), and direct products
(factorial polynomials).
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adiff.errors import CapExceeded, DomainError, NonFiniteInput, NonPositiveShift, PoleError
from adiff.numkit import digamma, floor_mod, frac_mod, ln_gamma
from adiff.verify import STIRLING_CAP, falling_factorial, rising_factorial, stirling2

mpmath.mp.dps = 30


def close(a, b, tol):
    """Mixed absolute/relative closeness: |a-b| <= tol*(1+|b|)."""
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------- floor_mod


def count_partitions_brute(n, k):
    """Number of ways to split {0,..,n-1} into k nonempty blocks, by recursion.

    Element n-1 either forms its own block or joins one of the blocks of a
    partition of the remaining n-1 elements.
    """
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return count_partitions_brute(n - 1, k - 1) + k * count_partitions_brute(n - 1, k)


def enumerate_partitions_count(n, k):
    """Literal enumeration of k-block set partitions of {0..n-1} (small n)."""
    items = list(range(n))

    def gen(rest, blocks):
        if not rest:
            yield blocks
            return
        x = rest[0]
        tail = rest[1:]
        for i in range(len(blocks)):
            yield from gen(tail, blocks[:i] + [blocks[i] + [x]] + blocks[i + 1 :])
        yield from gen(tail, blocks + [[x]])

    if n == 0:
        return 1 if k == 0 else 0
    return sum(1 for blocks in gen(items[1:], [[items[0]]]) if len(blocks) == k)


class TestFloorMod:
    def test_definition_examples(self):
        res = floor_mod(7.3, 2)
        assert res.n == 3
        assert res.r == pytest.approx(1.3, abs=1e-15)

        res = floor_mod(-0.5, 1)
        assert res.n == -1
        assert res.r == pytest.approx(0.5, abs=1e-15)

    def test_exhaustive_candidate_oracle(self):
        # (5, 2): check every candidate quotient in a window; exactly one
        # yields a remainder in [0, h).
        t, h = 5.0, 2.0
        valid = [n for n in range(-10, 11) if 0.0 <= t - n * h < h]
        assert valid == [2]
        res = floor_mod(t, h)
        assert (res.n, res.r) == (2, 1.0)

    def test_reconstruction_and_range(self):
        rng = random.Random(1234)
        for _ in range(2000):
            t = rng.uniform(-50, 50)
            h = 10.0 ** rng.uniform(-3, 2)
            res = floor_mod(t, h)
            assert 0.0 <= res.r < h
            recon = res.n * h + res.r
            assert abs(recon - t) <= math.ulp(max(abs(t), abs(res.n * h)))

    def test_matches_standard_floor_for_unit_shift(self):
        for t in [-3.25, -1.0, -0.5, 0.0, 0.25, 2.0, 7.99]:
            res = floor_mod(t, 1.0)
            assert res.n == math.floor(t)
            assert res.r == pytest.approx(t - math.floor(t), abs=1e-15)
        assert frac_mod(7.25) == pytest.approx(0.25)

    def test_small_shift_limits(self):
        # h*floor_mod(t,h).n -> t and remainder -> 0 as h -> 0+.
        for t in [0.37, 5.0, -2.6, 11.718281828]:
            for h in [10.0 ** -e for e in range(1, 9)]:
                res = floor_mod(t, h)
                assert abs(h * res.n - t) <= h
                assert res.r < h

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.floats(0.0, 1e300), st.floats(1e-300, 1e300))
    def test_remainder_below_h_from_the_float_spacing_up(self, t, h):
        assume(h >= math.ulp(t))
        res = floor_mod(t, h)
        assert 0.0 <= res.r < h

    def test_shift_below_the_float_spacing(self):
        # ulp(3.7) is 4.4e-16: the floats t - n*h step by about 8.9e-16, so
        # none is in [0, 1e-16) and one correction step leaves r above h.
        res = floor_mod(3.7, 1e-16)
        assert (res.n, res.r) == (37000000000000001, 3.440892098500626e-16)
        assert res.r >= 1e-16

    def test_quotient_below_the_float_spacing(self):
        # Below ulp(t) floor_mod promises only an integer n and a finite
        # r >= 0; here n is about 6e96 above the exact floor, so nothing
        # more is held.
        t, h = 2.0269111924121726e307, 8.229472148797057e193
        assert h < math.ulp(t)
        res = floor_mod(t, h)
        assert isinstance(res.n, int)
        assert math.isfinite(res.r) and res.r >= 0.0

    def test_errors(self):
        with pytest.raises(NonPositiveShift):
            floor_mod(1.0, 0.0)
        with pytest.raises(NonPositiveShift):
            floor_mod(1.0, -2.0)
        with pytest.raises(NonPositiveShift):
            floor_mod(1.0, math.nan)
        with pytest.raises(NonFiniteInput):
            floor_mod(math.inf, 1.0)
        with pytest.raises(NonFiniteInput):
            floor_mod(math.nan, 1.0)

    @pytest.mark.parametrize(
        "t, h, n, r",
        [
            # n*h overflows to -inf, so t - n*h was inf.
            (-1.7976931348623145e308, 1.84128489289954e293, -976325359424104, 1.6100666465071097e293),
            # t/h underflows to -0.0 and t + h rounds to h: t is 0*h + 0 to
            # within half an ulp of h.
            (-1.175494351e-38, 4.758454107848294e285, 0, 0.0),
            # n*h overflows to +inf, which the correction step clamped to r = 0.
            (1.7976931348623157e308, 4.19684446507457e294, 42834399745389, 4.1865974105945817e294),
        ],
    )
    def test_ends_of_the_float_range(self, t, h, n, r):
        res = floor_mod(t, h)
        assert (res.n, res.r) == (n, r)
        assert 0.0 <= res.r < h

    @settings(max_examples=3000, deadline=None, database=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_full_float_range(self, t, h):
        # r is finite and never negative everywhere, and in [0, h) whenever
        # h >= ulp(t). Where the quotient-and-correct route did not overflow
        # and gave such an r, or h is below ulp(t), (n, r) are that route's,
        # bit for bit.
        try:
            res = floor_mod(t, h)
        except DomainError:
            assert math.isinf(t / h)
            return
        assert math.isfinite(res.r) and res.r >= 0.0
        if h >= math.ulp(t):
            assert res.r < h
        n = math.floor(t / h)
        if math.isfinite(n * h):
            old_n, old_r = _corrected_quotient(t, h)
            if 0.0 <= old_r < h or h < math.ulp(t):
                assert (res.n, repr(res.r)) == (old_n, repr(old_r))
                return
        # The exact route: n is the floor of the exact t/h, r the remainder
        # rounded once (0 with n one higher where it rounds to h).
        exact_n = math.floor(Fraction(t) / Fraction(h))
        exact_r = Fraction(t) - exact_n * Fraction(h)
        if float(exact_r) == h:
            exact_n, exact_r = exact_n + 1, Fraction(0)
        assert (res.n, res.r) == (exact_n, float(exact_r))

    @pytest.mark.parametrize("t,h", [(1e300, 1e-300), (-1e300, 1e-300), (1e10, 1e-300)])
    def test_quotient_overflow_names_t_and_h(self, t, h):
        with pytest.raises(DomainError) as info:
            floor_mod(t, h)
        assert repr(t) in str(info.value) and repr(h) in str(info.value)


def _corrected_quotient(t, h):
    """floor_mod's float route: the quotient's floor, corrected by one step."""
    n = math.floor(t / h)
    r = t - n * h
    if r < 0.0:
        n -= 1
        r += h
    elif r >= h:
        n += 1
        r -= h
    return n, max(r, 0.0)


# ------------------------------------------------------ factorial polynomials


class TestFactorials:
    def test_falling_examples(self):
        assert falling_factorial(5, 3) == 60.0
        assert falling_factorial(123.456, 0) == 1.0
        assert falling_factorial(2.5, 2) == 2.5 * 1.5  # 3.75

    def test_rising_examples(self):
        assert rising_factorial(3, 2) == 12.0
        assert rising_factorial(7.5, 1) == 7.5
        assert rising_factorial(0.5, 3) == 0.5 * 1.5 * 2.5  # 1.875

    def test_difference_rule(self):
        # (t+1)_n - (t)_n = n * (t)_{n-1}
        rng = random.Random(99)
        for _ in range(200):
            t = rng.uniform(-8, 8)
            n = rng.randint(1, 8)
            lhs = falling_factorial(t + 1, n) - falling_factorial(t, n)
            rhs = n * falling_factorial(t, n - 1)
            assert close(lhs, rhs, 1e-10)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            falling_factorial(1.0, -1)
        with pytest.raises(DomainError):
            rising_factorial(1.0, -2)


# ----------------------------------------------------------------- stirling2


class TestStirling2:
    def test_base_cases(self):
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(0, 3) == 0
        assert stirling2(4, 7) == 0

    @pytest.mark.parametrize("n,k,expected", [(3, 2, 3), (4, 2, 7)])
    def test_known_small_values_vs_enumeration(self, n, k, expected):
        assert enumerate_partitions_count(n, k) == expected
        assert stirling2(n, k) == expected

    def test_brute_force_oracle_small(self):
        for n in range(0, 9):
            for k in range(0, n + 2):
                assert stirling2(n, k) == count_partitions_brute(n, k)

    def test_exact_power_expansion_integer_oracle(self):
        # sum_k S(n,k) * m*(m-1)*...*(m-k+1) == m**n, all in exact ints.
        for n in range(0, 21):
            for m in range(0, 12):
                total = 0
                for k in range(0, n + 1):
                    ff = 1
                    for j in range(k):
                        ff *= m - j
                    total += stirling2(n, k) * ff
                assert total == m**n

    def test_float_expansions(self):
        rng = random.Random(7)
        for _ in range(200):
            t = rng.uniform(-3, 3)
            n = rng.randint(0, 10)
            falling_sum = sum(
                stirling2(n, k) * falling_factorial(t, k) for k in range(n + 1)
            )
            rising_sum = sum(
                (-1) ** (n - k) * stirling2(n, k) * rising_factorial(t, k)
                for k in range(n + 1)
            )
            assert close(falling_sum, t**n, 1e-9)
            assert close(rising_sum, t**n, 1e-9)

    def test_float_expansion_wide_range_conditioned(self):
        # Past |t| ~ 3 the expansion cancels catastrophically, so measure
        # the error against the natural scale (the sum of term magnitudes):
        # there it is machine-precision small.
        rng = random.Random(11)
        for _ in range(200):
            t = rng.uniform(-8, 8)
            n = rng.randint(0, 10)
            terms = [stirling2(n, k) * falling_factorial(t, k) for k in range(n + 1)]
            scale = sum(abs(x) for x in terms)
            assert abs(sum(terms) - t**n) <= 1e-13 * (1.0 + scale)

    def test_cap(self):
        stirling2(STIRLING_CAP, 10)  # at the cap: fine
        with pytest.raises(CapExceeded):
            stirling2(STIRLING_CAP + 1, 3)
        with pytest.raises(DomainError):
            stirling2(-1, 0)


# ------------------------------------------------------- digamma / ln_gamma


class TestDigamma:
    def test_euler_mascheroni(self):
        # Frozen from the 30-digit mpmath value of psi(1).
        assert digamma(1.0) == pytest.approx(-0.57721566490153286061, abs=1e-13)

    def test_telescoping_example(self):
        # psi(2.5) - psi(0.5) = 1/0.5 + 1/1.5 = 8/3
        assert digamma(2.5) - digamma(0.5) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_recurrence_identity(self):
        rng = random.Random(5150)
        for _ in range(400):
            x = rng.uniform(1e-3, 50.0)
            lhs = digamma(x + 1.0) - digamma(x)
            assert close(lhs, 1.0 / x, 1e-11)

    def test_against_mpmath_positive(self):
        rng = random.Random(42)
        xs = [rng.uniform(1e-4, 100.0) for _ in range(300)] + [1e-4, 0.5, 1.0, 8.0, 100.0]
        for x in xs:
            ref = float(mpmath.digamma(x))
            assert close(digamma(x), ref, 1e-12), x

    def test_against_mpmath_negative_nonintegers(self):
        for x in [-0.5, -2.5, -7.25, -15.75]:
            ref = float(mpmath.digamma(x))
            assert close(digamma(x), ref, 1e-11), x

    def test_large_negative_arguments(self):
        # Reflected instead of walked up one step at a time, which took
        # longer than a second per million of |x|.
        for x in [-123456.789, -1e9 - 0.5]:
            ref = float(mpmath.digamma(x))
            assert close(digamma(x), ref, 1e-13), x

    def test_against_mpmath_negative_random(self):
        rng = random.Random(77)
        xs = [rng.uniform(-200.0, 0.0) for _ in range(300)] + [-1e-9, -0.25, -0.75]
        for x in xs:
            ref = float(mpmath.digamma(x))
            assert close(digamma(x), ref, 1e-11), x

    def test_poles(self):
        for x in [0.0, -1.0, -2.0, -37.0]:
            with pytest.raises(PoleError):
                digamma(x)
        with pytest.raises(NonFiniteInput):
            digamma(math.inf)


class TestLnGamma:
    def test_unit_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-13)

    def test_recurrence_identity(self):
        rng = random.Random(31)
        for _ in range(400):
            x = rng.uniform(1e-3, 50.0)
            lhs = ln_gamma(x + 1.0) - ln_gamma(x)
            assert close(lhs, math.log(x), 1e-11)

    def test_gamma_ratio_example(self):
        # ln Gamma(2.5) - ln Gamma(0.5) = ln(1.5 * 0.5)
        got = ln_gamma(2.5) - ln_gamma(0.5)
        assert got == pytest.approx(math.log(0.75), rel=1e-12)

    def test_against_mpmath(self):
        rng = random.Random(77)
        xs = [rng.uniform(1e-4, 100.0) for _ in range(300)] + [1e-3, 0.5, 1.0, 2.0, 99.5]
        for x in xs:
            ref = float(mpmath.loggamma(x))
            assert close(ln_gamma(x), ref, 1e-12), x

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-3.5)
        with pytest.raises(NonFiniteInput):
            ln_gamma(math.nan)
