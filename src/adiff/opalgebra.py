"""Factored shift-operator algebra and nested-sum particular solutions.

An operator is an ordered product of linear factors (E^h - lam*I), where
E^h shifts the argument by h: (E^h y)(t) = y(t + h). Applying one factor
to y gives y(t+h) - lam*y(t); a product applies them in sequence (they
commute, which the test suite checks).

A particular solution of  product_i (E^{h_i} - lam_i I) y = f  is built by
composing single-factor resolvent sums: factors[0] integrates f, the next
factor integrates that result, and so on. Unfolding the composition yields
exactly the nested sum

    y(t) = sum_{s_n} ... sum_{s_1} (prod_i lam_i^(s_i - 1)) f(t - sum_i s_i h_i)

with bound floor_{h_i}(t - sum of the outer offsets) on each level.

One integer lattice per operator. Each step is read as the exact ratio of
its shortest decimal form, repr(h), so 0.1 is 1/10 and 0.3 is 3/10. The
lattice unit g is the gcd of these ratios and every step is an integer
multiple m_i = h_i/g of it (steps 0.1 and 0.3: g = 1/10, m = 1 and 3; one
step h: g = h, m = [1]). :func:`solve_rows` hands this lattice to the
package's lattice engine, :func:`adiff.antidiff.lattice_plan`, which works
on integer indices: a point splits once as t = N*g + rho, the layer of
factor i at index N takes (n, q) = divmod(N, m_i) and sums its inner layer
at q + k*m_i in ascending s, and the summand is read at rho + I*g, once
per planned index, highest first. The residual op y - f reads the top
layer at the 2^k indices N + (sum of a subset of the m_i): y(t + h_i) is
index N + m_i whatever the float t + h_i rounds to, so the residual law
holds at non-dyadic steps. A one-factor solution equals ``eval`` and
:func:`adiff.antidiff.resolvent_sum` bit for bit.

The engine plans before it sums: per remainder rho, each layer's index
set, top down, a union of ranges whose loop lengths are floor sums.
:func:`solve_rows` charges the budget once, between the plan and the
first summand call, with the exact work (the terms every layer adds, one
summand call per summand index, and one f(t) per residual that its class
does not hold), and the walk stops once the layers above are over
budget. No value outlives the call, since f may close over state that
changes between calls. A remainder class whose lams are all real and
whose summand values add up to a float runs in float arithmetic, any
other in complex: the same real parts, bit for bit, for finite values;
where a value overflows, inf where the complex fold reads nan. Either way
the values come back as complex numbers.

Every operator has this lattice. Indices are Python integers and the index
sets are ranges, so a large m_i adds no work: steps with no short common
decimal unit, such as 1 and 1/3 = 0.3333333333333333, give g = 1e-16 with
m = 10^16 and 3333333333333333. At so fine a g each point of a command
mostly has a remainder of its own, so the rows share no layer values.
The factorization identities, which check a factor pair's nested sum
against one sum at step 2, live in :mod:`adiff.verify`, which runs them.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .antidiff import RealFunction, Scalar, TermBudget, _charge, _coefficient, _combine, lattice_plan
from .errors import DomainError
from .numkit import _Frozen, _require_positive_shift, _set, floor_mod


class LinearFactor(_Frozen):
    """One factor (E^h - lam*I) with positive shift h and nonzero lam."""

    __slots__ = _fields = ("h", "lam")

    def __init__(self, h: float, lam: complex):
        _set(self, "h", _require_positive_shift(h))
        _set(self, "lam", complex(_coefficient(lam)))


class FactoredOperator(_Frozen):
    """Ordered product of linear factors; order never changes the result."""

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: Sequence[LinearFactor]):
        factors = tuple(factors)
        if not factors:
            raise DomainError("operator needs at least one factor")
        _set(self, "factors", factors)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, Scalar]]) -> "FactoredOperator":
        """Build from (h, lam) pairs, e.g. [(1, 2), (1, -2)]."""
        return cls(tuple(LinearFactor(h, lam) for h, lam in pairs))


def apply_operator(op: FactoredOperator, y: Callable[[float], Scalar], t: float) -> complex:
    """Apply the factored difference operator to y at t.

    y is evaluated once at every shifted point t + sum of a subset of the
    h_i, each sum added from the last factor's step down to the first, and
    each value is taken as complex; the values combine one level per factor
    as the residual of :func:`adiff.antidiff.lattice_plan`'s rows does. No
    command reads it: a float t + h can round across a lattice point, so
    :func:`solve_rows` shifts lattice indices instead.
    """
    points = [t]
    for factor in reversed(op.factors):
        points = [q for p in points for q in (p, p + factor.h)]
    return _combine([complex(y(p)) for p in points], [factor.lam for factor in op.factors])


def estimate_terms(op: FactoredOperator, t: float) -> int:
    """Product over factors of max(floor_h(t), 1): a bound on summand count.

    No command charges it: :func:`solve_rows` charges the exact work that
    :func:`adiff.antidiff.lattice_plan` finds, which for k factors is about
    k*n^2/2 terms where this bound reads n^k.
    """
    total = 1
    for f in op.factors:
        total *= max(floor_mod(t, f.h).n, 1)
    return total


def _decimal(h: float) -> tuple[int, int]:
    """h as the ratio (numerator, power of ten) of its shortest decimal form."""
    mantissa, _, exponent = repr(h).partition("e")
    whole, _, fraction = mantissa.partition(".")
    shift = int(exponent or 0) - len(fraction)
    digits = int(whole + fraction)
    return (digits * 10**shift, 1) if shift >= 0 else (digits, 10**-shift)


def common_lattice(op: FactoredOperator) -> tuple[float, list[int]]:
    """(g, [m_i]) with h_i = m_i * g on the decimal lattice of the steps.

    g is the gcd of the steps read as decimal ratios, rounded once to a
    float; the m_i are exact integers of any size (steps 1 and 1/3 give
    g = 1e-16).
    """
    ratios = [_decimal(f.h) for f in op.factors]
    den = max(d for _, d in ratios)  # powers of ten: the largest is their lcm
    nums = [n * (den // d) for n, d in ratios]
    unit = math.gcd(*nums)
    return unit / den, [n // unit for n in nums]


def solve_rows(
    op: FactoredOperator,
    f: RealFunction,
    ts: Sequence[float],
    budget: TermBudget | None = None,
    residuals: bool = True,
) -> list[tuple[int, complex, float | None]]:
    """(n, y(t), |op y - f|(t)) for each t, y the particular solution of op y = f.

    :func:`adiff.antidiff.lattice_plan` on the :func:`common_lattice`: n is
    the outermost factor's floor at t, clamped at 0, and y(t) comes back
    complex. Raises :class:`TermBudgetExceeded` before any summand call if
    the work (layer terms and the plan's calls of f: one per summand index,
    and the residual's f(t) of each row that does not read it from its
    class) is above the budget. Without ``residuals`` the third field is
    None and neither the shifted points nor f(t) are computed or charged.
    """
    max_terms = (budget or TermBudget()).max_terms
    g, ms = common_lattice(op)
    terms, calls, rows = lattice_plan(ts, g, ms, [factor.lam for factor in op.factors], residuals, max_terms)
    # A plan stopped early counts only the layers above.
    _charge("nested sum", terms + calls, max_terms, "" if rows else "at least ", None)
    counts, values, resids = rows(f)
    return list(zip(counts, map(complex, values), resids or itertools.repeat(None)))


def particular_solution(
    op: FactoredOperator, f: RealFunction, t: float, budget: TermBudget | None = None
) -> complex:
    """Particular solution of op y = f at t by composed resolvent sums.

    The value equals the literal nested sum of the multi-factor solution
    formula term for term. Raises :class:`TermBudgetExceeded` before any
    evaluation if the work at t is above the budget.
    """
    return solve_rows(op, f, [t], budget, residuals=False)[0][1]


def repeated_factor_solution(
    lam: Scalar, m: int, f: RealFunction, t: float, budget: TermBudget | None = None
) -> complex:
    """Particular solution of (E - lam*I)^m y = f: m identical unit-shift factors."""
    if m < 1 or m != int(m):
        raise DomainError(f"multiplicity must be a positive integer, got {m!r}")
    op = FactoredOperator(tuple(LinearFactor(1.0, lam) for _ in range(int(m))))
    return particular_solution(op, f, t, budget)


def verify_particular(
    op: FactoredOperator, f: RealFunction, t: float, budget: TermBudget | None = None
) -> float:
    """|op y_p - f| at t for the constructed particular solution y_p.

    This is the universal residual: zero (to rounding) for every operator,
    summand, and point within budget. One set of layers serves all 2^k
    points; the budget is charged once for all of them.
    """
    return solve_rows(op, f, [t], budget)[0][2]
