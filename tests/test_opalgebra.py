"""Tests for factored-operator application and nested-sum solutions.

The reference oracle for two-factor solutions is a literal double loop over
the nested-sum formula, written independently of the resolvent composition.
"""

import cmath
import functools
import math
import random

import pytest

from adiff.antidiff import resolvent_sum
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
    estimate_terms,
    factorization_identity_check,
    particular_solution,
    repeated_factor_solution,
    residual,
    solution,
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
        op = FactoredOperator.from_pairs([(1, 2), (1, 3)])
        with pytest.raises(TermBudgetExceeded):
            particular_solution(op, lambda u: 1.0, 10.5, TermBudget(99))
        # 100 evaluations fit exactly
        particular_solution(op, lambda u: 1.0, 10.5, TermBudget(100))


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
        # Oracle: a fresh particular_solution at every shifted point.
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
            budget = TermBudget(10**6)
            oracle = abs(
                apply_operator(op, lambda u: particular_solution(op, f, u, budget), t) - f(t)
            )
            assert verify_particular(op, f, t, budget) == oracle

    def test_budget_checked_at_shifted_points(self):
        # 9 * 9 = 81 terms at t fit in 100; 11 * 11 = 121 at t + 2 do not.
        op = FactoredOperator.from_pairs([(1, 2), (1, 3)])
        particular_solution(op, lambda u: 1.0, 9.5, TermBudget(100))
        with pytest.raises(TermBudgetExceeded, match="up to 121 evaluations"):
            verify_particular(op, lambda u: 1.0, 9.5, TermBudget(100))

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


def fresh_chain(op, f):
    """The layer chain written out again: one cached lattice resolvent per factor.

    A layer at u = n*h + r sums lam^(s-1) g(r + (n-s)*h) in ascending s.
    """
    g = lambda u: complex(f(u))
    for factor in op.factors:

        def layer(u, g=g, lam=factor.lam, h=factor.h):
            cell = floor_mod(u, h)
            n = max(cell.n, 0)
            acc, w = 0j, 1.0 + 0j
            for s in range(1, n + 1):
                acc += w * g(cell.r + (n - s) * h)
                w *= lam
            return acc

        g = functools.cache(layer)
    return g


def random_operator(rng):
    return FactoredOperator.from_pairs([
        (rng.choice([0.1, 0.3, 1 / 3, 0.25, 0.5, 1.0, 2.0]),
         complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        for _ in range(rng.choice([1, 2, 3]))
    ])


class TestSolutionChain:
    """One public chain: every point read from it equals that point alone."""

    def test_entry_points_equal_the_chain_formulas(self):
        rng = random.Random(606)
        for _ in range(80):
            op = random_operator(rng)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            t = rng.uniform(-0.5, 4.0)
            assert particular_solution(op, f, t) == fresh_chain(op, f)(t)
            assert verify_particular(op, f, t) == abs(
                apply_operator(op, fresh_chain(op, f), t) - f(t)
            )

    def test_shared_chain_equals_points_computed_alone(self):
        # One chain asked for many points in random order, as a table does.
        rng = random.Random(607)
        for _ in range(30):
            op = random_operator(rng)
            f = BOUNDED_CORPUS[rng.randrange(len(BOUNDED_CORPUS))]
            y = solution(op, f)
            for _ in range(12):
                t = rng.choice([rng.uniform(-0.5, 4.0), rng.randrange(0, 9) * 0.5])
                assert y(t) == particular_solution(op, f, t)
                assert residual(op, y, f, t) == verify_particular(op, f, t)

    def test_budget_checked_at_every_point_asked_for(self):
        # 9 * 9 = 81 terms at 9.5 fit in 100; 11 * 11 = 121 at 11.5 do not,
        # even after the chain has computed every layer value 11.5 needs.
        op = FactoredOperator.from_pairs([(1, 2), (1, 3)])
        y = solution(op, lambda u: 1.0, TermBudget(100))
        y(9.5)
        y(10.5)
        with pytest.raises(TermBudgetExceeded, match="up to 121 evaluations, budget is 100"):
            y(11.5)
        with pytest.raises(TermBudgetExceeded, match="up to 121 evaluations"):
            residual(op, y, lambda u: 1.0, 9.5)

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
        # 2^k points call f once per distinct argument (uncached, the first
        # case makes 232 calls for 21 arguments).
        op = FactoredOperator.from_pairs(pairs)
        seen = []
        f = lambda u: seen.append(u) or math.cos(u)
        y = solution(op, f)
        value = residual(op, y, math.cos, t)
        assert len(seen) == len(set(seen))
        assert value == verify_particular(op, math.cos, t)


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
