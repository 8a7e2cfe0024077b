"""Factored shift-operator algebra and nested-sum particular solutions.

An operator is an ordered product of linear factors (E^h - lam*I), where
E^h shifts the argument by h: (E^h y)(t) = y(t + h). Applying one factor
to y gives y(t+h) - lam*y(t); a product applies them in sequence (they
commute, which the test suite checks).

A particular solution of  product_i (E^{h_i} - lam_i I) y = f  is built by
composing single-factor resolvent sums: the innermost resolvent integrates
f, the next integrates that result, and so on. Unfolding the composition
yields exactly the nested sum

    y(t) = sum_{s_n} ... sum_{s_1} (prod_i lam_i^(s_i - 1)) f(t - sum_i s_i h_i)

with bound floor_{h_i}(t - sum of the outer offsets) on each level.

:func:`solution` builds that composition once as a chain of layers, each
memoizing its values by exact argument for the life of the chain, the
summand f included (so each distinct argument calls f once). This
collapses the multiplicative term count with no floating-point change: a
value read from a chain equals the same point computed alone, bit for bit.
One chain serves every point a caller asks for. :func:`residual` evaluates
it at all 2^k shifted points of ``op y - f``, and a caller with many
points (the CLI's ``solve`` and ``table --mode solve``) builds one chain
and drops it when done. No chain outlives its caller: f may close over
state that changes between calls.

Each layer sums at the lattice points of its own argument and step: it
splits u as n*h + r (:func:`adiff.numkit.floor_mod`) and reads its inner
layer at r + k*h, as :func:`adiff.antidiff.resolvent_sum` does, so a
one-factor chain equals that sum bit for bit. No common lattice of the
factors' steps is needed; the memo keys are the exact float arguments.
:func:`apply_operator` still shifts its points as floats, t + h. The one
summing loop here is the left side of :func:`factorization_identity_check`,
kept apart as the independent route that the identity compares with the
library's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .antidiff import RealFunction, Scalar, _point_sum, resolvent_sum
from .errors import DomainError, NonFiniteInput, NonPositiveShift, TermBudgetExceeded, ZeroLambda
from .numkit import _require_finite, floor_mod

_DEFAULT_MAX_TERMS = 10_000_000


@dataclass(frozen=True)
class LinearFactor:
    """One factor (E^h - lam*I) with positive shift h and nonzero lam."""

    h: float
    lam: complex

    def __post_init__(self):
        h = float(self.h)
        if not math.isfinite(h) or h <= 0.0:
            raise NonPositiveShift(f"factor shift must be positive and finite, got {self.h!r}")
        lam = complex(self.lam)
        if lam == 0:
            raise ZeroLambda("factor coefficient must be nonzero")
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            raise NonFiniteInput(f"factor coefficient must be finite, got {self.lam!r}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class FactoredOperator:
    """Ordered product of linear factors; order never changes the result."""

    factors: tuple[LinearFactor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise DomainError("operator needs at least one factor")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, Scalar]]) -> "FactoredOperator":
        """Build from (h, lam) pairs, e.g. [(1, 2), (1, -2)]."""
        return cls(tuple(LinearFactor(h, lam) for h, lam in pairs))


@dataclass(frozen=True)
class TermBudget:
    """Upper bound on summand evaluations a nested sum may require."""

    max_terms: int = _DEFAULT_MAX_TERMS

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError(f"budget must be positive, got {self.max_terms!r}")


def apply_operator(op: FactoredOperator, y: Callable[[float], Scalar], t: float) -> complex:
    """Apply the factored difference operator to y at t.

    Expands recursively: one factor contributes y(t+h) - lam*y(t); the rest
    of the product acts on both pieces. y is evaluated at every shifted
    point t + sum of a subset of the h_i.
    """
    factors = op.factors

    def expand(i: int, u: float) -> complex:
        if i < 0:
            return complex(y(u))
        f = factors[i]
        return expand(i - 1, u + f.h) - f.lam * expand(i - 1, u)

    return expand(len(factors) - 1, t)


def estimate_terms(op: FactoredOperator, t: float) -> int:
    """Product over factors of max(floor_h(t), 1): a bound on summand count."""
    total = 1
    for f in op.factors:
        total *= max(floor_mod(t, f.h).n, 1)
    return total


def _resolvent_layer(g: Callable[[float], complex], lam: complex, h: float):
    """Single-factor resolvent over an inner layer, memoized by exact argument.

    Calls the summand loop directly: :func:`resolvent_sum`'s validation and
    result record would add 1-2 us to every layer value.
    """

    def layer(u: float) -> complex:
        cell = floor_mod(u, h)
        return _point_sum(g, cell.r, max(cell.n, 0), h, lam)

    return functools.cache(layer)


def solution(op: FactoredOperator, f: RealFunction, budget: TermBudget | None = None):
    """The particular solution y of op y = f as one callable sharing its layer memos.

    Folds the factors once: factors[0] integrates f, factors[1] that, and so
    on. Each layer, and the summand below the first, caches its values by
    exact argument for as long as y is referenced, so asking y for many
    points (all 2^k points of a residual, every row of a table) computes
    each layer value, and calls f at each argument, once. y(u) raises
    :class:`TermBudgetExceeded` before any evaluation if
    :func:`estimate_terms` at u is above the budget.
    """
    max_terms = (budget or TermBudget()).max_terms
    g: Callable[[float], complex] = functools.cache(lambda u: complex(f(u)))
    for factor in op.factors:
        g = _resolvent_layer(g, factor.lam, factor.h)

    def y(u: float) -> complex:
        estimate = estimate_terms(op, u)
        if estimate > max_terms:
            msg = f"nested sum needs up to {estimate} evaluations, budget is {max_terms}"
            raise TermBudgetExceeded(msg)
        return g(u)

    return y


def residual(
    op: FactoredOperator, y: Callable[[float], Scalar], f: RealFunction, t: float
) -> float:
    """|op y - f| at t: y is evaluated at all 2^k points t + sum of a subset of the h_i."""
    return abs(apply_operator(op, y, t) - f(t))


def particular_solution(
    op: FactoredOperator, f: RealFunction, t: float, budget: TermBudget | None = None
) -> complex:
    """Particular solution of op y = f at t by composed resolvent sums.

    The value equals the literal nested sum of the multi-factor solution
    formula term for term. Raises :class:`TermBudgetExceeded` before any
    evaluation if :func:`estimate_terms` at t is above the budget.
    """
    return solution(op, f, budget)(t)


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
    summand, and point within budget. One memoized chain serves all 2^k
    points t + sum of a subset of the h_i; the budget is checked at each.
    """
    return residual(op, solution(op, f, budget), f, t)


# Per identity: the factor pair's inner and outer lam (unit steps), the lam
# of the step-2 factor, and the power-of-two scale both sides carry.
_FACTORIZATIONS = {"E2minus4": (-2.0, 2.0, 4.0, 4.0), "E2plus1": (-1j, 1j, -1.0, 1.0)}


def _factorization_sides(name: str, f: RealFunction, t: float) -> tuple[Scalar, Scalar]:
    """(LHS, RHS) of a factorization identity at t, each times the identity's scale.

    LHS is the factor pair's nested sum, one double loop with running-product
    weights; RHS is :func:`adiff.antidiff.resolvent_sum` at h = 2, whose
    lattice points are the float shifts t - 2*s. A power-of-two scale
    changes no rounding, so both equal the written-out sums bit for bit.
    """
    t = _require_finite(t)
    if name not in _FACTORIZATIONS:
        raise DomainError(f"unknown identity {name!r}; use 'E2minus4' or 'E2plus1'")
    inner, outer, lam, scale = _FACTORIZATIONS[name]
    n = max(math.floor(t), 0)
    lhs: Scalar = 0.0
    w2: Scalar = 1.0
    for s2 in range(1, n + 1):
        w1: Scalar = 1.0
        for s1 in range(1, n - s2 + 1):
            lhs += w2 * w1 * f(t - s1 - s2)
            w1 *= inner
        w2 *= outer
    return scale * lhs, scale * resolvent_sum(f, t, lam, 2.0).value


def factorization_identity_check(name: str, f: RealFunction, t: float) -> float:
    """|LHS - RHS| of a two-route summation identity for E^2 - 4I or E^2 + I.

    Both routes compute (a scaled version of) the same particular solution:
    the left side runs the double sum from the conjugate/opposite factor
    pair, the right side the single sum with shift 2. ``name`` selects
    ``"E2minus4"``  (pair (E-2I)(E+2I), weights (-1)^(s1-1) 2^(s1+s2) vs
    4^s) or ``"E2plus1"`` (pair (E-iI)(E+iI), weights (-1)^s1 i^(s1+s2) vs
    (-1)^(s-1)).
    """
    lhs, rhs = _factorization_sides(name, f, t)
    return abs(lhs - rhs)
