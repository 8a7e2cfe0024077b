"""One rule each for a step, a coefficient and a sampled (anti)period.

Every public entry that takes a step h refuses 0, negative, NaN and infinite
h with the same exception and words; every entry that takes a coefficient
lam refuses 0 and non-finite lam the same way; and the sampled
(anti)periodicity check fails a NaN or infinite value wherever it is read.
A number past the float range (an int such as 10**400) is read as the
infinity of its sign by each rule, and a count must be a finite integer:
none of them lets a bare OverflowError or ValueError out.
"""

import math

import pytest

from adiff.antidiff import lattice_plan, resolvent_sum
from adiff.convkernel import convolve, kernel_weights
from adiff.errors import DomainError, NonFiniteInput, NonPositiveShift, PeriodicityViolation, ZeroLambda
from adiff.inequality import Direction, InequalitySpec, Periodicity, build_solution, check_membership
from adiff.numkit import _require_finite, floor_mod
from adiff.opalgebra import LinearFactor
from adiff.verify import exp_antidifference, falling_factorial, periodic_antidifference, rising_factorial, stirling2

ONE = lambda t: 1.0

STEP_ENTRIES = {
    "resolvent_sum": lambda h: resolvent_sum(ONE, 2.5, 1.0, h),
    "lattice_plan": lambda h: lattice_plan([2.5], h, [1], [1.0]),
    "floor_mod": lambda h: floor_mod(2.5, h),
    "LinearFactor": lambda h: LinearFactor(h, 1.0),
    "InequalitySpec": lambda h: InequalitySpec(h, 1.0, Direction.GEQ),
    "check_membership": lambda h: check_membership(math.sin, h, Periodicity.PERIODIC, [0.0]),
}

COEFFICIENT_ENTRIES = {
    "resolvent_sum": lambda lam: resolvent_sum(ONE, 2.5, lam),
    "lattice_plan": lambda lam: lattice_plan([2.5], 1.0, [1], [lam]),
    "kernel_weights": lambda lam: kernel_weights(lam, 2.5),
    "convolve": lambda lam: convolve(lam, ONE, 2.5),
    "LinearFactor": lambda lam: LinearFactor(1.0, lam),
    "InequalitySpec": lambda lam: InequalitySpec(1.0, lam, Direction.GEQ),
}

POINT_ENTRIES = {
    "_require_finite": _require_finite,
    "resolvent_sum": lambda t: resolvent_sum(ONE, t, 0.5),
    "lattice_plan": lambda t: lattice_plan([t], 1.0, [1], [1.0]),
    "floor_mod": lambda t: floor_mod(t, 1.0),
    "exp_antidifference": lambda t: exp_antidifference(2.0, t),
}

COUNT_ENTRIES = {
    "falling_factorial": lambda n: falling_factorial(2.5, n),
    "rising_factorial": lambda n: rising_factorial(2.5, n),
    "stirling2 n": lambda n: stirling2(n, 2),
    "stirling2 k": lambda k: stirling2(5, k),
}

# Past the float range, where float() raises OverflowError; each reads as
# the infinity of its sign.
HUGE = [10**400, -(10**400)]
AS_FLOAT = {10**400: "inf", -(10**400): "-inf"}

REAL_COEFFICIENTS = [0.0, math.nan, math.inf, -math.inf, *HUGE]
COMPLEX_COEFFICIENTS = [0j, complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf, 1.0), complex(1.0, -math.inf)]


@pytest.mark.parametrize(
    "h", [0.0, -1.0, math.nan, math.inf, -math.inf, *HUGE], ids=["0", "-1", "nan", "inf", "-inf", "+huge", "-huge"]
)
@pytest.mark.parametrize("entry", STEP_ENTRIES)
def test_a_step_must_be_positive_and_finite(entry, h):
    with pytest.raises(NonPositiveShift) as info:
        STEP_ENTRIES[entry](h)
    assert str(info.value) == f"shift must be a positive finite real, got {AS_FLOAT.get(h, repr(h))}"


@pytest.mark.parametrize("t", HUGE, ids=["+huge", "-huge"])
@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_a_point_past_the_float_range_is_not_finite(entry, t):
    with pytest.raises(NonFiniteInput) as info:
        POINT_ENTRIES[entry](t)
    assert str(info.value) == f"t must be finite, got {AS_FLOAT[t]}"


@pytest.mark.parametrize("a", HUGE, ids=["+huge", "-huge"])
def test_an_exponential_base_past_the_float_range_is_refused(a):
    with pytest.raises(DomainError) as info:
        exp_antidifference(a, 1.0)
    assert str(info.value) == f"base must be positive, finite and != 1, got {AS_FLOAT[a]}"


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5, -1], ids=["nan", "inf", "-inf", "2.5", "-1"])
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_a_count_must_be_a_nonnegative_integer(entry, n):
    with pytest.raises(DomainError) as info:
        COUNT_ENTRIES[entry](n)
    assert str(info.value) == f"order must be a nonnegative integer, got {n!r}"


@pytest.mark.parametrize(
    "entry, lam",
    [(entry, lam) for entry in COEFFICIENT_ENTRIES for lam in REAL_COEFFICIENTS]
    # InequalitySpec takes a real lambda: float() refuses a complex one.
    + [(entry, lam) for entry in COEFFICIENT_ENTRIES if entry != "InequalitySpec" for lam in COMPLEX_COEFFICIENTS],
)
def test_a_coefficient_must_be_nonzero_and_finite(entry, lam):
    error = ZeroLambda if lam == 0 else NonFiniteInput
    with pytest.raises(error) as info:
        COEFFICIENT_ENTRIES[entry](lam)
    words = "lambda must be nonzero" if lam == 0 else f"lambda must be finite, got {AS_FLOAT.get(lam, repr(lam))}"
    assert str(info.value) == words


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", Periodicity)
def test_a_mu_that_is_not_finite_is_not_in_the_class(kind, value):
    result = check_membership(lambda t: value, 1.0, kind, [0.0, 0.5])
    assert not result
    assert result.witness == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("lam, kind", [(1.0, "periodic"), (-1.0, "antiperiodic")])
def test_build_solution_refuses_a_mu_that_is_not_finite(lam, kind, value):
    spec = InequalitySpec(1.0, lam, Direction.GEQ)
    with pytest.raises(PeriodicityViolation) as info:
        build_solution(spec, lambda t: value, ONE, t_range=(0.0, 5.0), samples=4)
    assert str(info.value) == f"mu is not {kind} with period 1.0 (fails at t = 0.0)"
    assert info.value.witness == 0.0


def test_a_mu_finite_at_t_but_not_at_t_plus_h_fails():
    mu = lambda t: math.nan if t >= 1.0 else 0.0
    assert check_membership(mu, 1.0, Periodicity.PERIODIC, [0.0]).witness == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_periodic_antidifference_refuses_a_value_that_is_not_finite(value):
    with pytest.raises(PeriodicityViolation) as info:
        periodic_antidifference(lambda x: value, 1.0, 3.5)
    assert str(info.value) == f"f(-2.5) = {value!r} != f(-3.5) = {value!r}"
    assert info.value.witness == -3.5


def test_the_periodic_check_calls_f_at_x_then_at_x_plus_the_period():
    seen = []
    check_membership(lambda t: seen.append(t) or 0.0, 1.0, Periodicity.PERIODIC, [0.0, 0.5])
    assert seen == [0.0, 1.0, 0.5, 1.5]
    seen.clear()
    periodic_antidifference(lambda x: seen.append(x) or 0.0, 1.0, 0.5)
    assert seen[:4] == [-1.0, 0.0, -0.875, 0.125]
