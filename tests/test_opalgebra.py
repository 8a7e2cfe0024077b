"""Tests for factored-operator application and nested-sum solutions.

The reference oracle for two-factor solutions is a literal double loop over
the nested-sum formula, written independently of the resolvent composition;
:func:`fresh_chain` writes the whole solution chain out again as index loops.
"""

import cmath
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiff import antidiff as antidiff_module
from adiff.antidiff import _combine, _subset_sums, nonfinite_summand, resolvent_sum
from adiff.errors import (
    DomainError,
    NonFiniteInput,
    NonPositiveShift,
    TermBudgetExceeded,
    ZeroLambda,
)
from adiff.numkit import floor_mod
from adiff.opalgebra import (
    FactoredOperator,
    LinearFactor,
    TermBudget,
    apply_operator,
    common_lattice,
    estimate_terms,
    factorization_identity_check,
    particular_solution,
    repeated_factor_solution,
    solve_rows,
    verify_particular,
)

OMEGA = cmath.exp(2j * math.pi / 3)


def nested_double_loop(lam1, lam2, f, t):
    """Literal two-factor nested sum: outer s2 with lam2, inner s1 with lam1.

    Weights are running products and terms are added in ascending order,
    mirroring the documented accumulation contract.
    """
    acc = 0j
    w2 = 1.0 + 0j
    for s2 in range(1, max(math.floor(t), 0) + 1):
        inner = 0j
        w1 = 1.0 + 0j
        for s1 in range(1, max(math.floor(t - s2), 0) + 1):
            inner += w1 * complex(f(t - 1.0 * s2 - 1.0 * s1))
            w1 *= lam1
        acc += w2 * inner
        w2 *= lam2
    return acc


BOUNDED_CORPUS = [
    lambda u: 1.0,
    math.sin,
    math.cos,
    lambda u: 0.5**u,
    lambda u: 1.0 / (1.0 + u * u),
]


class TestTypes:
    def test_factor_validation(self):
        with pytest.raises(NonPositiveShift):
            LinearFactor(0.0, 2.0)
        with pytest.raises(NonPositiveShift):
            LinearFactor(-1.0, 2.0)
        with pytest.raises(ZeroLambda):
            LinearFactor(1.0, 0.0)

    def test_operator_needs_factors(self):
        with pytest.raises(DomainError):
            FactoredOperator(())

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            TermBudget(0)

    def test_from_pairs(self):
        op = FactoredOperator.from_pairs([(1, 2), (1, -2)])
        assert [f.lam for f in op.factors] == [2 + 0j, -2 + 0j]


class TestApplyOperator:
    def test_annihilates_homogeneous_solution(self):
        # (E-2I)(E+2I) = E^2 - 4I kills 2^t: 2^(t+2) = 4*2^t exactly.
        op = FactoredOperator.from_pairs([(1, 2), (1, -2)])
        for t in [0.0, 1.0, 2.7, 5.5]:
            assert apply_operator(op, lambda u: 2.0**u, t) == 0j

    def test_single_factor_on_constant(self):
        op = FactoredOperator.from_pairs([(1, 3.5)])
        c = 2.25
        assert apply_operator(op, lambda u: c, 1.3) == c * (1 - 3.5)

    def test_second_difference_of_square(self):
        op = FactoredOperator.from_pairs([(1, 1), (1, 1)])
        for t in [0.0, 2.5, -4.0]:
            got = apply_operator(op, lambda u: u * u, t)
            direct = (t + 2) ** 2 - 2 * (t + 1) ** 2 + t**2
            assert got == pytest.approx(direct, abs=1e-12)
            assert got == pytest.approx(2.0, abs=1e-10)

    def test_matches_expanded_form(self):
        # (E^0.5 - 3I)(E^2 + I) y = y(t+2.5) - 3y(t+2) + y(t+0.5) - 3y(t)
        op = FactoredOperator.from_pairs([(0.5, 3.0), (2.0, -1.0)])
        y = lambda u: math.sin(u) + u * u
        for t in [0.3, 1.9]:
            got = apply_operator(op, y, t)
            direct = y(t + 2.5) - 3 * y(t + 2.0) + y(t + 0.5) - 3 * y(t)
            assert got == pytest.approx(direct, rel=1e-13)


class TestEstimateTerms:
    def test_examples(self):
        one = FactoredOperator.from_pairs([(1, 2)])
        assert estimate_terms(one, 7.3) == 7
        two = FactoredOperator.from_pairs([(1, 2), (1, 3)])
        assert estimate_terms(two, 10.0) == 100
        three = FactoredOperator.from_pairs([(1, 1), (1, 1), (1, 1)])
        assert estimate_terms(three, 20.0) == 8000

    def test_clamps_below_one(self):
        op = FactoredOperator.from_pairs([(1, 2), (2, 3)])
        assert estimate_terms(op, 0.2) == 1


class TestParticularSolution:
    def test_single_factor_equals_resolvent_exactly(self):
        # Both sum at the lattice points r + k*h of t, so they agree bit for
        # bit at any step, with real and complex lam alike.
        rng = random.Random(64)
        for h in [0.5, 1.0, 2.0, 0.1, 0.3, 1 / 3, 0.7, 1.5]:
            for _ in range(300):
                lam = rng.choice([complex(rng.uniform(-3, 3), rng.uniform(-1, 1)), rng.uniform(-3, 3), 1.0])
                t = rng.uniform(-0.5, 30.0)
                f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
                op = FactoredOperator.from_pairs([(h, lam)])
                assert particular_solution(op, f, t) == resolvent_sum(f, t, lam, h).value, (h, lam, t)

    def test_two_factor_hand_value(self):
        # (E-2I)(E+2I), f = 1, t = 4.5: inner resolvent values 7, 3, 1, 0
        # weighted by (-2)^(s-1) give 7 - 6 + 4 - 0 = 5, matching the
        # single-factor route with h = 2, lam = 4 (terms 1 + 4).
        op = FactoredOperator.from_pairs([(1, 2), (1, -2)])
        y = particular_solution(op, lambda u: 1.0, 4.5)
        assert y == 5 + 0j
        single = resolvent_sum(lambda u: 1.0, 4.5, 4.0, h=2.0)
        assert single.value == 5.0
        assert verify_particular(op, lambda u: 1.0, 4.5) < 1e-12

    def test_matches_nested_loop_oracle(self):
        rng = random.Random(1001)
        for _ in range(100):
            lam1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lam2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if lam1 == 0 or lam2 == 0:
                continue
            t = rng.uniform(0.0, 12.0)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            op = FactoredOperator.from_pairs([(1, lam1), (1, lam2)])
            assert particular_solution(op, f, t) == nested_double_loop(lam1, lam2, f, t)

    def test_factor_commutativity(self):
        rng = random.Random(55)
        for _ in range(50):
            pairs = [(1.0, rng.uniform(0.5, 2.5)), (1.0, -rng.uniform(0.5, 2.5))]
            t = rng.uniform(0.0, 10.0)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            a = particular_solution(FactoredOperator.from_pairs(pairs), f, t)
            b = particular_solution(FactoredOperator.from_pairs(pairs[::-1]), f, t)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(b))

    def test_conjugate_pair_real_output(self):
        op = FactoredOperator.from_pairs([(1, 1j), (1, -1j)])
        rng = random.Random(66)
        for _ in range(50):
            t = rng.uniform(0.0, 12.0)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            y = particular_solution(op, f, t)
            assert abs(y.imag) <= 1e-10 * (1.0 + abs(y))

    def test_budget_enforced(self):
        # At 10.5 the outer layer sums 10 terms, the inner one 0 + 1 + ... + 9
        # = 45 at its indices 0..9, and f is called at 0.5, ..., 8.5: 64.
        op = FactoredOperator.from_pairs([(1, 2), (1, 3)])
        calls = []
        f = lambda u: calls.append(u) or 1.0
        with pytest.raises(TermBudgetExceeded, match="needs 64 evaluations, budget is 63"):
            particular_solution(op, f, 10.5, TermBudget(63))
        assert calls == []
        # 64 fit exactly
        particular_solution(op, f, 10.5, TermBudget(64))
        assert len(calls) == 9


class TestRepeatedFactor:
    def test_m_one_reduces_to_resolvent(self):
        f = math.sin
        for t in [0.8, 3.3, 7.9]:
            got = repeated_factor_solution(2.0, 1, f, t)
            assert got == resolvent_sum(f, t, complex(2.0), 1.0).value

    def test_double_difference_of_solution_is_f(self):
        f = lambda u: 1.0
        t = 4.5
        y = lambda u: repeated_factor_solution(1.0, 2, f, u)
        got = y(t + 2.0) - 2.0 * y(t + 1.0) + y(t)
        assert abs(got - 1.0) < 1e-12

    def test_matches_nested_loop(self):
        rng = random.Random(88)
        for _ in range(50):
            t = rng.uniform(0.0, 12.0)
            lam = rng.uniform(0.2, 2.0)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            got = repeated_factor_solution(lam, 2, f, t)
            assert got == nested_double_loop(complex(lam), complex(lam), f, t)

    def test_multiplicity_validated(self):
        with pytest.raises(DomainError):
            repeated_factor_solution(1.0, 0, lambda u: 1.0, 2.0)


class TestVerifyParticular:
    def test_residual_small_across_operators(self):
        operators = [
            FactoredOperator.from_pairs([(1, 2), (1, -2)]),
            FactoredOperator.from_pairs([(1, 1j), (1, -1j)]),
            FactoredOperator.from_pairs([(1, OMEGA), (1, OMEGA.conjugate())]),
            FactoredOperator.from_pairs([(1, 1), (1, 1)]),
            FactoredOperator.from_pairs([(2, 4)]),
            FactoredOperator.from_pairs([(0.5, 1.5)]),
            FactoredOperator.from_pairs([(1, 2), (2, -1)]),  # mixed shifts
            FactoredOperator.from_pairs([(0.5, 1.5), (1, -0.75)]),
        ]
        rng = random.Random(2023)
        for op in operators:
            for _ in range(30):
                t = rng.uniform(0.1, 10.0)
                f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
                assert verify_particular(op, f, t) <= 1e-9 * (1.0 + abs(f(t)))

    def test_zero_forcing_gives_zero_solution(self):
        op = FactoredOperator.from_pairs([(1, 1)])
        assert particular_solution(op, lambda u: 0.0, 6.5) == 0j
        assert verify_particular(op, lambda u: 0.0, 6.5) == 0.0

    def test_omega_pair_solves_sum_equation(self):
        # (E - wI)(E - conj(w)I) with w = exp(2*pi*i/3) expands to
        # E^2 + E + I; check y(t+2) + y(t+1) + y(t) = f(t) directly.
        op = FactoredOperator.from_pairs([(1, OMEGA), (1, OMEGA.conjugate())])
        f = math.cos
        y = lambda u: particular_solution(op, f, u)
        for t in [0.6, 2.2, 5.9]:
            got = y(t + 2.0) + y(t + 1.0) + y(t)
            assert abs(got - f(t)) < 1e-10


class TestSharedChain:
    """verify_particular evaluates one memoized solution at all 2^k points."""

    def test_matches_pointwise_solutions(self):
        # Oracle: every shifted point computed alone, by a fresh written-out
        # chain at lattice index N + (sum of a subset of the m_i).
        rng = random.Random(4242)
        for _ in range(60):
            pairs = [
                (rng.choice([0.1, 0.3, 0.7, 1 / 3, 0.5, 1.0]),
                 complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
                for _ in range(rng.choice([2, 3]))
            ]
            op = FactoredOperator.from_pairs(pairs)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            t = rng.uniform(0.0, 3.0)
            g, ms = decimal_lattice(op)
            n, rho = split(t, g)
            y = lambda index: fresh_chain(op, f).value(rho, index)
            oracle = abs(expand(ms, [x.lam for x in op.factors], y, n) - f(t))
            assert verify_particular(op, f, t, TermBudget(10**6)) == oracle

    def test_budget_checked_at_shifted_points(self):
        # The value at 9.5 costs 9 + 36 + 8 = 53. Its residual reads the
        # outer layer at indices 9..11 (30 terms), the inner at 0..10 (55),
        # f at 0.5..9.5 (10 calls) and f(9.5) once more: 96.
        op = FactoredOperator.from_pairs([(1, 2), (1, 3)])
        particular_solution(op, lambda u: 1.0, 9.5, TermBudget(53))
        calls = []
        f = lambda u: calls.append(u) or 1.0
        with pytest.raises(TermBudgetExceeded, match="needs 96 evaluations, budget is 95"):
            verify_particular(op, f, 9.5, TermBudget(95))
        assert calls == []
        assert verify_particular(op, f, 9.5, TermBudget(96)) == 0.0
        assert len(calls) == 11

    @pytest.mark.parametrize(
        "pairs, t",
        [([(1, 0.9), (1, 0.9), (1, 0.9)], 12.5), ([(1, 0.8), (0.5, -0.7)], 20.3)],
    )
    def test_verify_reuses_summand_values(self, pairs, t):
        calls = [0]

        def f(u):
            calls[0] += 1
            return math.cos(u)

        op = FactoredOperator.from_pairs(pairs)
        particular_solution(op, f, t)
        solve_calls, calls[0] = calls[0], 0
        verify_particular(op, f, t)
        assert calls[0] <= 2 * solve_calls


def decimal_lattice(op):
    """(g, [m_i]): the steps as exact decimal fractions, g their gcd."""
    steps = [Fraction(repr(factor.h)) for factor in op.factors]
    den = math.lcm(*(x.denominator for x in steps))
    unit = Fraction(math.gcd(*(x.numerator * (den // x.denominator) for x in steps)), den)
    ms = [int(x / unit) for x in steps]
    return float(unit), ms


def split(t, h):
    """t = n*h + r with 0 <= r < h, written out: floor of the quotient, corrected once."""
    n = math.floor(t / h)
    r = t - n * h
    if r < 0.0:
        n, r = n - 1, r + h
    elif r >= h:
        n, r = n + 1, r - h
    return n, max(r, 0.0)


def expand(shifts, lams, y, u):
    """op y at u, written out: y(u + shift) - lam*y(u), the last factor first."""
    if not shifts:
        return complex(y(u))
    rest, lam = shifts[:-1], lams[-1]
    return expand(rest, lams[:-1], y, u + shifts[-1]) - lam * expand(rest, lams[:-1], y, u)


class fresh_chain:
    """The solution chain written out again as loops, calling no library code.

    On the decimal lattice (g, m_i) a layer at index N = n*m + q sums
    lam^(s-1) inner(q + (n-s)*m) in ascending s, the summand is f(rho + I*g)
    and the residual reads the top layer at N + (sum of a subset of the m_i).
    Values are memoized per layer by (rho, index), and the memo keys and the
    terms and summand calls are kept for the tests of the budget. The
    residual's f(t) counts as a call unless one factor's summand values
    already hold it: t is the lattice point rho + N*g, N >= 0 (below the
    engine's value cap).
    """

    def __init__(self, op, f):
        self.f = f
        self.lams = [factor.lam for factor in op.factors]
        self.g, self.steps = decimal_lattice(op)
        self.memos = {}
        self.terms = self.calls = 0

    def value(self, rho, u, layer=None):
        """The layer's value (the top layer by default) at index u."""
        layer = len(self.steps) if layer is None else layer
        memo = self.memos.setdefault(rho, [{} for _ in range(len(self.steps) + 1)])[layer]
        if u not in memo:
            if layer == 0:
                self.calls += 1
                memo[u] = complex(self.f(rho + u * self.g))
            else:
                step, lam = self.steps[layer - 1], self.lams[layer - 1]
                n, r = divmod(u, step)
                acc, w = 0j, 1.0 + 0j
                for s in range(1, n + 1):
                    self.terms += 1
                    acc += w * self.value(rho, r + (n - s) * step, layer - 1)
                    w *= lam
                memo[u] = acc
        return memo[u]

    def row(self, t, residuals=True):
        """(n, y(t), |op y - f|(t)) as solve_rows gives them."""
        u, rho = split(t, self.g)
        n = max(u // self.steps[-1], 0)
        value = self.value(rho, u)
        if not residuals:
            return n, value, None
        point = rho + u * self.g
        held = len(self.steps) == 1 and u >= 0 and t == point and math.copysign(1.0, t) == math.copysign(1.0, point)
        self.calls += not held
        y = lambda v: self.value(rho, v)
        return n, value, abs(expand(self.steps, self.lams, y, u) - self.f(t))


def random_operator(rng):
    return FactoredOperator.from_pairs([
        (rng.choice([0.1, 0.3, 1 / 3, 0.25, 0.5, 1.0, 2.0]),
         complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        for _ in range(rng.choice([1, 2, 3]))
    ])


class TestSolutionChain:
    """One chain per command: every point read from it equals that point alone."""

    def test_entry_points_equal_the_chain_formulas(self):
        rng = random.Random(606)
        for _ in range(80):
            op = random_operator(rng)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            t = rng.uniform(-0.5, 4.0)
            n, value, resid = fresh_chain(op, f).row(t)
            assert particular_solution(op, f, t) == value
            assert verify_particular(op, f, t) == resid
            assert solve_rows(op, f, [t]) == [(n, value, resid)]

    def test_shared_chain_equals_points_computed_alone(self):
        # One chain asked for many points in random order, as a table does.
        rng = random.Random(607)
        for _ in range(30):
            op = random_operator(rng)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            ts = [rng.choice([rng.uniform(-0.5, 4.0), rng.randrange(0, 9) * 0.5]) for _ in range(12)]
            rows = solve_rows(op, f, ts)
            for t, (n, value, resid) in zip(ts, rows):
                assert value == particular_solution(op, f, t)
                assert resid == verify_particular(op, f, t)
                assert (n, value, resid) == solve_rows(op, f, [t])[0]

    def test_budget_checked_at_every_point_asked_for(self):
        # The budget is charged once for all rows and their shifted points,
        # before the first summand call: rows 9.5 and 10.5 cost 121 together,
        # and a third row at 11.5 raises the charge to 148. The residual's
        # points alone take row 9.5 from 53 to 96.
        op = FactoredOperator.from_pairs([(1, 2), (1, 3)])
        calls = []
        f = lambda u: calls.append(u) or 1.0
        assert lattice_plan(op, [9.5, 10.5, 11.5])[1] == 148
        solve_rows(op, f, [9.5, 10.5], TermBudget(121))
        calls.clear()
        # The walk stops once the layers above it are over budget.
        with pytest.raises(TermBudgetExceeded, match="needs at least 136 evaluations, budget is 121"):
            solve_rows(op, f, [9.5, 10.5, 11.5], TermBudget(121))
        with pytest.raises(TermBudgetExceeded, match="needs 96 evaluations, budget is 95"):
            solve_rows(op, f, [9.5], TermBudget(95))
        assert calls == []

    def test_no_value_outlives_its_chain(self):
        # A summand closing over state that changes between calls is
        # re-read by every new chain.
        op = FactoredOperator.from_pairs([(1, 0.5), (0.5, -2)])
        scale = [1.0]
        f = lambda u: scale[0] * math.cos(u)
        before = particular_solution(op, f, 5.25)
        scale[0] = 2.0
        assert particular_solution(op, f, 5.25) == 2.0 * before
        assert verify_particular(op, f, 5.25) <= 1e-9 * (1.0 + abs(before))

    @pytest.mark.parametrize(
        "pairs, t",
        [([(1, 0.72), (1, 0.72)], 20.0), ([(1, 0.9)] * 3, 12.5), ([(0.5, 0.9), (1, -0.7)], 10.25)],
    )
    def test_summand_called_once_per_argument(self, pairs, t):
        # The innermost layer is cached per chain like the others: a residual's
        # 2^k points call f once per distinct argument, and once more at t
        # (uncached, the first case makes 232 calls for 21 arguments).
        op = FactoredOperator.from_pairs(pairs)
        seen = []
        f = lambda u: seen.append(u) or math.cos(u)
        [(_, _, value)] = solve_rows(op, f, [t])
        assert len(seen) == len(set(seen)) + 1
        assert seen.count(t) == 2
        assert value == verify_particular(op, math.cos, t)


class TestLayerFolds:
    """Each layer is built as folds of the layer below's stored values, and
    every value and residual equals the written-out chain's bit for bit."""

    STEPS = [0.1, 0.2, 0.3, 0.5, 1.0]  # m_i in {1, 2, 3, 5, 10} on g = 0.1

    @staticmethod
    def coefficient(rng):
        kind = rng.choice(["real", "complex", "unit"])
        if kind == "real":
            return rng.choice([1.0, -1.0, rng.uniform(-1.5, 1.5)])
        if kind == "complex":
            return complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        return rng.choice([1j, -1j, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))])

    def test_rows_equal_the_written_out_chain(self):
        rng = random.Random(1616)
        for _ in range(60):
            op = FactoredOperator.from_pairs(
                [(rng.choice(self.STEPS), self.coefficient(rng)) for _ in range(rng.choice([2, 3]))]
            )
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            # A table's rows from below 0: on g = 0.1 most share their
            # remainder class, and the last row is a shifted copy of a row.
            lo, step = rng.uniform(-1.5, 0.0), rng.choice(self.STEPS)
            ts = [lo + k * step for k in range(rng.randrange(2, 30))]
            ts.append(ts[rng.randrange(len(ts))] + rng.choice(self.STEPS))
            residuals = rng.random() < 0.8
            oracle = fresh_chain(op, f)
            assert solve_rows(op, f, ts, residuals=residuals) == [oracle.row(t, residuals) for t in ts]

    def test_summand_is_called_highest_index_first(self):
        op = FactoredOperator.from_pairs([(0.5, 0.9), (1.0, -0.7)])
        seen = []
        solve_rows(op, lambda u: seen.append(u) or math.cos(u), [2.25, -1.0, 4.75], residuals=False)
        assert seen == sorted(set(seen), reverse=True)


REAL_STEPS = [0.1, 0.2, 0.25, 0.3, 0.5, 1.0, 2.0, 1 / 3]


@st.composite
def real_solves(draw):
    """(op, f, ts): 1-3 real factors, a summand of the corpus, rows from below 0."""
    lam = st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.5, 1.5).filter(bool))
    op = FactoredOperator.from_pairs(
        [(draw(st.sampled_from(REAL_STEPS)), draw(lam)) for _ in range(draw(st.integers(1, 3)))]
    )
    f = draw(st.sampled_from(BOUNDED_CORPUS))
    lo, step = draw(st.floats(-1.5, -0.01)), draw(st.sampled_from(REAL_STEPS))
    ts = [lo + k * step for k in range(draw(st.integers(1, 12)))]
    return op, f, [t for t in ts if t < 5.0]


def _bits(rows):
    """Each row's n and the repr of its real part and residual: -0.0 and
    nan compare as themselves."""
    return [(n, repr(value.real), repr(resid)) for n, value, resid in rows]


_NON_FLOAT_SUMMANDS = [
    (lambda u: 3, True),
    (lambda u: math.floor(u), True),
    (lambda u: complex(math.cos(u), 0.25), True),
    (lambda u: complex(math.sin(u)), True),
    # int values at some points only.
    (lambda u: 2 if u < 0.45 else math.cos(u), True),
    (lambda u: Fraction(u), True),
    # complex() reads a Decimal, which does not multiply a float; the
    # residual's complex - Decimal fails as before, so values only.
    (lambda u: Decimal(repr(u)), False),
]


class TestRealField:
    """A real operator with float summand values is folded in floats; its
    rows equal the complex written-out chain, real parts bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(real_solves(), st.booleans())
    def test_rows_equal_the_complex_chain(self, case, residuals):
        op, f, ts = case
        oracle = fresh_chain(op, f)
        expected = [oracle.row(t, residuals) for t in ts]
        rows = solve_rows(op, f, ts, residuals=residuals)
        assert rows == expected
        assert _bits(rows) == _bits(expected)
        assert all(type(value) is complex for _, value, _ in rows)

    @pytest.mark.parametrize("lam", [complex(0.8, -0.0), -1e-200, 5e-324, -1e-160])
    def test_signed_zeros_and_underflowing_weights(self, lam):
        # An imaginary part of -0.0 is real; weights that underflow to +-0
        # and summands of -0.0 give the complex fold's zeros.
        op = FactoredOperator.from_pairs([(0.5, lam), (1.0, -0.7), (0.3, lam)])
        ts = [-0.4 + 0.35 * k for k in range(14)]
        for f in (lambda u: -0.0, lambda u: 0.0 * math.sin(u), math.cos):
            oracle = fresh_chain(op, f)
            expected = [oracle.row(t) for t in ts]
            assert _bits(solve_rows(op, f, ts)) == _bits(expected)

    @pytest.mark.parametrize("f, residuals", _NON_FLOAT_SUMMANDS)
    def test_non_float_summands_take_the_complex_fold(self, f, residuals):
        # Under a real operator a complex, Decimal or other number is taken
        # as complex, as every value was before the float fold; ints and
        # fractions add up to a float and fold in floats, which read them
        # exactly as the complex fold does. Either way: the complex chain.
        op = FactoredOperator.from_pairs([(0.3, 0.9), (0.5, -1.1)])
        ts = [-0.7 + 0.25 * k for k in range(20)]
        oracle = fresh_chain(op, f)
        expected = [oracle.row(t, residuals) for t in ts]
        rows = solve_rows(op, f, ts, residuals=residuals)
        assert rows == expected
        assert [(repr(v), repr(r)) for _, v, r in rows] == [(repr(v), repr(r)) for _, v, r in expected]

    def test_one_field_per_class(self):
        # Complex values in some remainder classes only: each class chooses
        # its field, and every row has the complex chain's bits.
        op = FactoredOperator.from_pairs([(0.3, 0.9), (0.5, -1.1)])
        f = lambda u: complex(math.cos(u), 0.25) if round(u * 100) % 10 == 5 else math.cos(u)
        ts = [-0.7 + 0.25 * k for k in range(20)]
        assert len(lattice_plan(op, ts)[0]) > 1
        oracle = fresh_chain(op, f)
        assert _bits(solve_rows(op, f, ts)) == _bits([oracle.row(t) for t in ts])

    def test_an_overflow_reads_as_the_one_factor_sum(self):
        # The float fold gives inf with imaginary part 0 where the complex
        # fold gave nan for both, as resolvent_sum does.
        op = FactoredOperator.from_pairs([(1.0, 0.9)])
        f = lambda u: math.inf if u > 7 else 1.0
        [(_, value, resid)] = solve_rows(op, f, [10.0])
        assert (repr(value.real), repr(value.imag), repr(resid)) == ("inf", "0.0", "nan")
        assert value == resolvent_sum(f, 10.0, 0.9).value


class TestNonFiniteResiduals:
    def test_complex_residual_with_a_nan_part(self):
        # A summand that catches math.exp's OverflowError leaves errno at
        # ERANGE, and CPython's complex abs() of a value with a NaN part then
        # raises OverflowError; the residual is nan.
        def f(u):
            try:
                math.exp(1000.0)
            except OverflowError:
                pass
            return math.nan if u > 3.0 else 1.0

        op = FactoredOperator.from_pairs([(1.0, 1j), (1.0, -1j)])
        assert math.isnan(verify_particular(op, f, 5.0))
        assert math.isnan(solve_rows(op, f, [5.0, 6.0])[1][2])

    def test_complex_residual_past_the_float_range(self):
        # Below 0 both sums are empty and the residual is |f(t)|, whose
        # complex abs() overflows with finite parts.
        op = FactoredOperator.from_pairs([(1.0, 1j)])
        [(_, _, resid)] = solve_rows(op, lambda u: complex(1.7e308, 1.7e308), [-0.5])
        assert resid == math.inf


class TestNonFiniteSummand:
    def test_none_when_every_value_is_finite(self):
        op = FactoredOperator.from_pairs([(1.0, 0.9), (0.5, -1j)])
        assert nonfinite_summand(math.cos, 6.25, *common_lattice(op)) is None

    def test_highest_index_first_then_the_residual(self):
        op = FactoredOperator.from_pairs([(0.5, 0.9), (1.0, -0.7)])
        seen = []
        solve_rows(op, lambda u: seen.append(u) or 1.0, [4.25])
        bad = set(seen[1:-1:3])
        f = lambda u: math.inf if u in bad else 1.0
        index, point, value = nonfinite_summand(f, 4.25, *common_lattice(op))
        assert (point, value) == (max(bad), math.inf)
        assert index == round((point - 0.25) / 0.5)
        # At -0.75 every sum is empty: f(t) of the residual is the one call.
        assert nonfinite_summand(lambda u: -math.inf, -0.75, *common_lattice(op)) == (None, -0.75, -math.inf)

    def test_fine_lattice_point(self):
        op = FactoredOperator.from_pairs([(1.0, 0.9), (1 / 3, 0.5)])
        g, ms = common_lattice(op)
        index, point, value = nonfinite_summand(lambda u: math.nan if u > 1.0 else 0.0, 2.5, g, ms)
        assert math.isnan(value) and point > 1.0
        assert point == floor_mod(2.5, g).r + index * g


def lattice_plan(op, ts, residuals=True):
    """({rho: sets}, work) of solve_rows: the plan of each remainder class on
    the common lattice, and the work charged for it."""
    g, ms = common_lattice(op)
    cells = [antidiff_module._floor_mod(t, g) for t in ts]
    plan = antidiff_module._plan(ms, cells, _subset_sums(ms) if residuals else [0], math.inf)[0]
    lams = [factor.lam for factor in op.factors]
    return plan, sum(antidiff_module.lattice_plan(ts, g, ms, lams, residuals)[:2])


def lattice_operators(rng, count):
    """count random operators, each with a summand and points."""
    cases = []
    for _ in range(count):
        op = random_operator(rng)
        f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
        ts = [rng.uniform(-1.0, 4.0) for _ in range(rng.randrange(1, 4))]
        cases.append((op, f, ts + [rng.randrange(0, 40) * 0.1]))
    return cases


class TestCommonLattice:
    """Steps read as decimal ratios share one integer lattice, whatever their ratio."""

    @pytest.mark.parametrize(
        "steps, lattice",
        [
            ([0.1], (0.1, [1])),
            ([0.1, 0.3], (0.1, [1, 3])),
            ([0.25, 0.1], (0.05, [5, 2])),
            ([2.0, 0.5, 1.0], (0.5, [4, 1, 2])),
            ([1 / 3, 1 / 3], (1 / 3, [1, 1])),
            ([1e-300], (1e-300, [1])),
            ([1e-6, 1.0], (1e-6, [1, 10**6])),
            ([1e-7, 1.0], (1e-7, [1, 10**7])),
            ([1.0, 1 / 3], (1e-16, [10**16, 3333333333333333])),
            ([1.0, 1.4142135623730951], (1e-16, [10**16, 14142135623730951])),
        ],
    )
    def test_lattice(self, steps, lattice):
        op = FactoredOperator.from_pairs([(h, 1) for h in steps])
        assert common_lattice(op) == lattice
        assert decimal_lattice(op) == lattice

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.floats(min_value=5e-324, max_value=1.8e308, allow_infinity=False))
    def test_one_factor_lattice_is_its_step(self, h):
        # One factor is the engine's g = h, m = [1] case: repr(h) reads back as h.
        assert common_lattice(FactoredOperator.from_pairs([(h, 1.0)])) == (h, [1])

    def test_residual_law_at_non_dyadic_grid_points(self):
        # At h = 0.1 the float 1.7 + 0.1 sums as 18 terms, not 17 + 1.
        op = FactoredOperator.from_pairs([(0.1, 1)])
        ts = [i * 0.1 for i in range(51)]
        rows = solve_rows(op, lambda u: 1.0, ts)
        assert [resid for _, _, resid in rows] == [0.0] * 51
        assert solve_rows(op, lambda u: 1.0, [1.7]) == [(16, 16 + 0j, 0.0)]

    @pytest.mark.parametrize("tiny", [1e-6, 1e-7])
    def test_both_sides_of_the_bound(self, tiny):
        # m = 10^6 and 10^7 for the unit step: the size of m_i changes
        # neither the chain nor the charge, which is the exact work of the
        # written-out chain, where a product bound counts 2e7 terms at 1e-7.
        op = FactoredOperator.from_pairs([(tiny, 0.5), (1.0, -0.75)])
        for u in (5 * tiny, 37 * tiny):
            oracle = fresh_chain(op, math.cos)
            row = oracle.row(u)
            work = oracle.terms + oracle.calls
            assert solve_rows(op, math.cos, [u], TermBudget(work)) == [row]
            with pytest.raises(TermBudgetExceeded) as raised:
                solve_rows(op, math.cos, [u], TermBudget(work - 1))
            assert str(raised.value) == f"nested sum needs {work} evaluations, budget is {work - 1}"

    def test_charge_equals_the_work_done(self):
        # The planned index sets are the memo keys of the written-out chain,
        # the planned work is its terms plus its summand calls, and the
        # library calls f exactly as often as the plan says.
        rng = random.Random(909)
        for op, f, ts in lattice_operators(rng, 60):
            residuals = rng.random() < 0.7
            oracle = fresh_chain(op, f)
            rows = [oracle.row(t, residuals) for t in ts]
            plan, work = lattice_plan(op, ts, residuals)
            assert set(plan) == set(oracle.memos)
            for rho, sets in plan.items():
                # The top layer is its list of indices, each layer below a list of ranges.
                planned = [{index for r in ranges for index in r} for ranges in sets[:-1]] + [set(sets[-1])]
                assert planned == [set(memo) for memo in oracle.memos[rho]]
            assert work == oracle.terms + oracle.calls
            calls = [0]
            counting = lambda u: calls.__setitem__(0, calls[0] + 1) or f(u)
            assert solve_rows(op, counting, ts, TermBudget(max(work, 1)), residuals) == rows
            assert calls[0] == oracle.calls
            if work > 1:
                with pytest.raises(TermBudgetExceeded):
                    solve_rows(op, counting, ts, TermBudget(work - 1), residuals)
                assert calls[0] == oracle.calls

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.25, 0.1, 0.3])
    @pytest.mark.parametrize("cap", [None, 3])
    def test_charge_equals_the_calls_made_at_every_step(self, h, cap, monkeypatch):
        # One and two factors, points from a negative start, in [0, h), on
        # and off their lattice points (7.3 at h = 0.1 is off), and past a
        # class cap of 3 values: the calls of f made are the calls charged,
        # and the charge is refused one below.
        if cap is not None:
            monkeypatch.setattr(antidiff_module, "_CLASS_VALUES_MAX", cap)
        ts = [-2.5 * h, -h, -0.0, 0.0, 0.4 * h, 0.99 * h, 7.3, 7.8] + [-1.0 + i * 0.3 for i in range(25)]
        operators = [[(h, 0.9)], [(h, complex(-0.7, 0.2))], [(h, 0.9), (2 * h, -0.5)], [(h, 1.0), (0.1, 0.5)]]
        for pairs in operators:
            op = FactoredOperator.from_pairs(pairs)
            g, ms = common_lattice(op)
            lams = [factor.lam for factor in op.factors]
            for residuals in (True, False):
                for points in (ts, ts[4:5], ts[6:7], ts[:1]):  # one point takes the one-point pass
                    terms, calls, _ = antidiff_module.lattice_plan(points, g, ms, lams, residuals)
                    made = [0]
                    counting = lambda u: made.__setitem__(0, made[0] + 1) or math.cos(u)
                    solve_rows(op, counting, points, TermBudget(max(terms + calls, 1)), residuals)
                    assert made[0] == calls, (pairs, residuals, points)
                    if terms + calls > 1:
                        with pytest.raises(TermBudgetExceeded):
                            solve_rows(op, counting, points, TermBudget(terms + calls - 1), residuals)
                        assert made[0] == calls

    def test_charge_of_a_huge_point_is_found_without_the_sum(self):
        op = FactoredOperator.from_pairs([(1, 0.9)] * 3)
        calls = []
        with pytest.raises(TermBudgetExceeded, match="budget is 10000000"):
            solve_rows(op, calls.append, [1e12])
        assert calls == []


def recursive_expand(shifts, lams, y, u):
    """op y at u, written out as the recursion the residual once ran: one
    factor gives y(u + shift) - lam*y(u), and the rest of the product acts
    on both pieces."""

    def expand(i, u):
        if i < 0:
            return y(u)
        return expand(i - 1, u + shifts[i]) - lams[i] * expand(i - 1, u)

    return expand(len(shifts) - 1, u)


_FACTOR_LAMS = st.sampled_from([0.9, -1.1, 1.0, 2.0, 2j, complex(0.3, -0.8), complex(-1.0, 0.0)])


class TestResidualLoop:
    """The residual reads the 2^k shifted values once and combines them one
    level per factor; that is the recursion's arithmetic, bit for bit."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.lists(st.tuples(st.integers(1, 7), _FACTOR_LAMS), min_size=1, max_size=4),
        st.integers(-5, 30),
        st.data(),
    )
    def test_level_loop_is_the_recursion(self, factors, n, data):
        ms, lams = [m for m, _ in factors], [lam for _, lam in factors]
        value = st.floats() | st.complex_numbers() | st.sampled_from([0.0, -0.0, math.inf, math.nan])
        y = {index: data.draw(value) for index in {n + s for s in _subset_sums(ms)}}
        got = _combine([y[n + s] for s in _subset_sums(ms)], lams)
        assert repr(got) == repr(recursive_expand(ms, lams, y.__getitem__, n))

    @settings(max_examples=500, deadline=None, database=None)
    @given(
        st.floats() | st.complex_numbers() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.floats() | st.complex_numbers() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.sampled_from([1.0]) | st.floats(allow_nan=False, allow_infinity=False).filter(bool)
        | st.complex_numbers(allow_nan=False, allow_infinity=False).filter(bool),
    )
    def test_one_factor_residual_is_the_level_loop(self, y0, y1, lam):
        # lattice_plan's rows write a one-factor row's op y as y(t + h) - lam*y(t).
        assert repr(y1 - lam * y0) == repr(_combine([y0, y1], [lam]))

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.3]),
        st.sampled_from([1.0, 0.9, -0.73, 2j, complex(0.35, 0.6), complex(-1.0, 0.0)]),
        st.integers(-12, 160).map(lambda k: k / 4) | st.floats(-3.0, 40.0),
        st.integers(2, 12),
    )
    def test_one_factor_rows_read_their_own_values(self, h, lam, start, count):
        # Each row's residual is |op y - f(t)| with y at N and N + 1 taken from
        # the value column of the same call, wherever both are rows of it: at
        # every row but the last where the points are exact (dyadic h and start).
        f = lambda u: math.sin(u) + u * u
        ts = [start + k * h for k in range(count)]
        _, values, resids = antidiff_module.lattice_plan(ts, h, [1], [lam])[2](f)
        field_lam = lam if isinstance(lam, complex) and lam.imag else complex(lam).real
        row = {antidiff_module._floor_mod(t, h): i for i, t in enumerate(ts)}
        checked = 0
        for (n, rho), i in row.items():
            j = row.get((n + 1, rho))
            if j is not None:
                checked += 1
                expected = abs(_combine([values[i], values[j]], [field_lam]) - f(ts[i]))
                assert repr(resids[i]) == repr(expected), (ts[i], lam)
        assert checked == count - 1 or h not in (1.0, 0.5, 0.25) or not (4 * start).is_integer()

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(st.tuples(st.sampled_from([1.0, 0.5, 0.1, 0.3, 2.0, 1 / 3]), _FACTOR_LAMS), min_size=1, max_size=4),
        st.floats(-20.0, 20.0),
    )
    def test_apply_operator_is_the_recursion(self, pairs, t):
        # Each shifted point adds the steps from the last factor's down.
        op = FactoredOperator.from_pairs(pairs)
        y = lambda u: math.sin(u) + u * u
        expected = recursive_expand([f.h for f in op.factors], [f.lam for f in op.factors], lambda u: complex(y(u)), t)
        assert repr(apply_operator(op, y, t)) == repr(expected)


class TestOnePointPlan:
    """One point of a one-factor operator skips the class planner: its row is
    the written-out chain's and the class path's, bit for bit."""

    @pytest.mark.parametrize("f, residuals", _NON_FLOAT_SUMMANDS)
    @pytest.mark.parametrize("h, lam", [(0.3, 0.9), (1.0, -1.1), (0.5, complex(1.0, 0.0)), (0.1, 0.6 + 0.6j)])
    def test_non_float_summands_take_the_complex_fold(self, h, lam, f, residuals):
        # The fields of test_non_float_summands_take_the_complex_fold in
        # TestRealField, at one point of one factor; the point planned twice
        # takes the class path.
        op = FactoredOperator.from_pairs([(h, lam)])
        for t in (-0.7, 0.05, 3.35, 7.0):
            oracle = fresh_chain(op, f)
            rows = solve_rows(op, f, [t], residuals=residuals)
            assert rows == [oracle.row(t, residuals)]
            assert _bits(rows) == _bits([oracle.row(t, residuals)])
            assert repr(rows) == repr(solve_rows(op, f, [t, t], residuals=residuals)[:1])


class TestOneFactorCap:
    """A one-factor solve is the engine's one-layer class: past the value cap
    it sums each point alone, in one pass, as eval does."""

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.3])
    def test_classes_above_the_value_cap_store_nothing(self, h, monkeypatch):
        rng = random.Random(29)
        cases = []
        for _ in range(30):
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            op = FactoredOperator.from_pairs([(h, rng.choice([1.0, -0.9, complex(0.6, 0.6)]))])
            ts = [rng.uniform(-1.0, 12.0) for _ in range(rng.randint(1, 6))]
            cases.append((op, f, ts, solve_rows(op, f, ts)))
        monkeypatch.setattr(antidiff_module, "_CLASS_VALUES_MAX", 3)
        for op, f, ts, stored in cases:
            assert repr(solve_rows(op, f, ts)) == repr(stored), (op, ts)
        # One point: one pass reads each index once, highest first, for
        # y at n + 1 and n, then the residual reads f(t), a call of its own
        # unless t is the point of index n; the charge is the 2n + 1 terms,
        # the n + 1 summand calls and that call.
        op = FactoredOperator.from_pairs([(h, 2.0)])
        t = 9.5 * h
        cell = floor_mod(t, h)
        n = cell.n
        extra = [] if cell.r + n * h == t else [t]
        work = (2 * n + 1) + (n + 1) + len(extra)
        assert lattice_plan(op, [t])[1] == work
        seen = []
        [(terms, _, _)] = solve_rows(op, lambda u: seen.append(u) or 1.0, [t], TermBudget(work))
        assert terms == n > 3
        assert seen == [cell.r + k * h for k in range(n, -1, -1)] + extra
        seen.clear()
        with pytest.raises(TermBudgetExceeded, match=f"nested sum needs {work} evaluations, budget is {work - 1}"):
            solve_rows(op, lambda u: seen.append(u) or 1.0, [t], TermBudget(work - 1))
        assert seen == []


class TestFactorizationIdentity:
    def test_e2minus4_hand_expansion(self):
        # f = 1, t = 4.5: LHS contributions 12 - 8 + 16 = 20; RHS 4 + 16 = 20.
        one = lambda u: 1.0
        rhs = sum(4.0**s for s in range(1, max(floor_mod(4.5, 2.0).n, 0) + 1))
        assert rhs == 20.0
        assert factorization_identity_check("E2minus4", one, 4.5) < 1e-12

    def test_e2minus4_small_point(self):
        one = lambda u: 1.0
        rhs = sum(4.0**s for s in range(1, max(floor_mod(2.5, 2.0).n, 0) + 1))
        assert rhs == 4.0
        assert factorization_identity_check("E2minus4", one, 2.5) < 1e-12

    def test_e2plus1_hand_expansion(self):
        one = lambda u: 1.0
        assert factorization_identity_check("E2plus1", one, 4.5) < 1e-12

    def test_empty_below_one(self):
        for name in ["E2minus4", "E2plus1"]:
            assert factorization_identity_check(name, lambda u: 1.0, 0.7) == 0.0

    def test_random_functions(self):
        rng = random.Random(2024)
        for _ in range(60):
            t = rng.uniform(0.0, 12.0)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            for name in ["E2minus4", "E2plus1"]:
                gap = factorization_identity_check(name, f, t)
                assert gap <= 1e-9 * (1.0 + 4.0 ** math.floor(t / 2))

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            factorization_identity_check("E2plus7", lambda u: 1.0, 2.0)

    def test_equals_the_written_out_formulas(self):
        # Oracle: the two sides as separate written-out loops, the left with
        # sign and power weights, the right with the step-2 float shifts.
        def ipow(k):
            return (1.0 + 0j, 1j, -1.0 + 0j, -1j)[k % 4]

        def written_out(name, f, t):
            n1 = max(math.floor(t), 0)
            n2 = max(floor_mod(t, 2.0).n, 0)
            lhs = rhs = 0j
            for s2 in range(1, n1 + 1):
                for s1 in range(1, n1 - s2 + 1):
                    if name == "E2minus4":
                        sign = -1.0 if (s1 - 1) % 2 else 1.0
                        lhs += sign * 2.0 ** (s1 + s2) * f(t - s1 - s2)
                    else:
                        sign = -1.0 if s1 % 2 else 1.0
                        lhs += sign * ipow(s1 + s2) * f(t - s1 - s2)
            for s in range(1, n2 + 1):
                if name == "E2minus4":
                    rhs += 4.0**s * f(t - 2.0 * s)
                else:
                    rhs += (-1.0 if (s - 1) % 2 else 1.0) * f(t - 2.0 * s)
            return abs(lhs - rhs)

        rng = random.Random(808)
        for _ in range(2400):
            name = rng.choice(["E2minus4", "E2plus1"])
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            t = rng.uniform(-1.0, 1.0) if rng.random() < 0.2 else rng.uniform(0.0, 14.0)
            assert factorization_identity_check(name, f, t) == written_out(name, f, t), (name, t)

    def test_checks_the_point_before_the_name(self):
        with pytest.raises(NonFiniteInput):
            factorization_identity_check("E2plus7", lambda u: 1.0, math.nan)
