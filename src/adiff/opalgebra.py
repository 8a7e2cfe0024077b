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
multiple m_i = h_i/g of it (steps 0.1 and 0.3: g = 1/10, m = 1 and 3). A
point splits once as t = N*g + rho (:func:`adiff.numkit.floor_mod` at the
float g), and everything below works on integer indices: the layer of
factor i at index N takes (n, q) = divmod(N, m_i) and sums its inner layer
at q + k*m_i in ascending s, and the summand is read at rho + I*g. The
residual op y - f reads the top layer at the 2^k indices N + (sum of a
subset of the m_i): y(t + h_i) is index N + m_i whatever the float t + h_i
rounds to, so the residual law holds at non-dyadic steps. A one-factor solution has g = h and equals
:func:`adiff.antidiff.resolvent_sum` bit for bit.

:func:`solve_rows` plans before it sums. Per remainder rho it finds each
layer's index set, top down: layer i at index N reads every index below
N - m_i + 1 in N's class mod m_i, so per class only the largest index
matters and each set is a union of ranges whose loop lengths are floor
sums. It charges the budget once, before any summand call, with the exact
work: the terms every layer adds plus one summand call per summand index
plus one f(t) per residual. The walk stops once the layers above are over
budget, so a command far over budget is refused without enumerating its
sum. The sets then are the schedule: the summand is called once per index
of the lowest set and each layer is built over its set by folding the
stored values of the layer below (:func:`_top_layer`). No value outlives
the call, since f may close over state that changes between calls.
:func:`lattice_plan` returns the sets and the work.

The field is chosen once per remainder class. Where every lam has
imaginary part 0 and every summand value of the class is a float, the
layers and the residual run in float arithmetic on the real parts of the
lams; otherwise every summand value is taken as complex. A real operator's
complex fold keeps every imaginary part at +-0 and starts every sum at
+0.0, so for finite values both fields give the same real parts, bit for
bit; where a value overflows, the float fold gives what a one-factor sum
gives (inf where the complex fold reads nan). Either way the values come
back as complex numbers.

Every operator has this lattice. Indices are Python integers and the index
sets are ranges, so a large m_i adds no work: steps with no short common
decimal unit, such as 1 and 1/3 = 0.3333333333333333, give g = 1e-16 with
m = 10^16 and 3333333333333333. At so fine a g each point of a command
mostly has a remainder of its own, so the rows share no layer values. The
one summing loop here besides the layers is the left side of
:func:`factorization_identity_check`, kept apart as the independent route
that the identity compares with the library's.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import Callable, Sequence

from .antidiff import RealFunction, Scalar, TermBudget, resolvent_sum
from .errors import DomainError, NonFiniteInput, NonPositiveShift, TermBudgetExceeded, ZeroLambda
from .numkit import _Frozen, _require_finite, _set, floor_mod


class LinearFactor(_Frozen):
    """One factor (E^h - lam*I) with positive shift h and nonzero lam."""

    __slots__ = _fields = ("h", "lam")

    def __init__(self, h: float, lam: complex):
        shift = float(h)
        if not math.isfinite(shift) or shift <= 0.0:
            raise NonPositiveShift(f"factor shift must be positive and finite, got {h!r}")
        coefficient = complex(lam)
        if coefficient == 0:
            raise ZeroLambda("factor coefficient must be nonzero")
        if not (math.isfinite(coefficient.real) and math.isfinite(coefficient.imag)):
            raise NonFiniteInput(f"factor coefficient must be finite, got {lam!r}")
        _set(self, "h", shift)
        _set(self, "lam", coefficient)


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


def _expand(shifts: Sequence, lams: Sequence[Scalar], y: Callable, u) -> Scalar:
    """op y at u for the factors (shift, lam): y at every u + sum of a subset of shifts.

    One factor contributes y(u + shift) - lam*y(u); the rest of the product
    acts on both pieces, in the field of the lams and of y's values. The
    shifts are floats for :func:`apply_operator` and lattice indices for the
    residual of :func:`solve_rows`.
    """

    def expand(i: int, u) -> Scalar:
        if i < 0:
            return y(u)
        return expand(i - 1, u + shifts[i]) - lams[i] * expand(i - 1, u)

    return expand(len(shifts) - 1, u)


def apply_operator(op: FactoredOperator, y: Callable[[float], Scalar], t: float) -> complex:
    """Apply the factored difference operator to y at t, as :func:`_expand` does.

    y is evaluated at every shifted point t + sum of a subset of the h_i,
    summed as floats, and each value is taken as complex. No command reads
    it: a float t + h can round across a lattice point, so
    :func:`solve_rows` shifts lattice indices instead.
    """
    return _expand([f.h for f in op.factors], [f.lam for f in op.factors], lambda u: complex(y(u)), t)


def estimate_terms(op: FactoredOperator, t: float) -> int:
    """Product over factors of max(floor_h(t), 1): a bound on summand count.

    No command charges it: :func:`solve_rows` charges the exact work that
    :func:`lattice_plan` finds, which for k factors is about k*n^2/2 terms
    where this bound reads n^k.
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


def _top_layer(f: RealFunction, rho: float, g: float, sets: list, ms: Sequence[int], lams) -> tuple[dict, list]:
    """({index: value} of rho's top layer, the lams it was folded with),
    built bottom up over the plan ``sets``.

    f(rho + I*g) is called once per index I of sets[0], highest first, so a
    failing summand names the highest failing point. Then the field is
    chosen, once: where every lam has imaginary part 0 and every value is a
    float, the layers fold floats against the real parts of the lams;
    otherwise each value is taken as complex. At index N the layer of step
    m folds the stored values of class q below it, for (n, q) =
    divmod(N, m), with one weight row (the running product of lam) in the
    order :func:`adiff.antidiff._point_sum` adds a point. Each layer is
    dropped once the next one is built.
    """
    indices = sorted(itertools.chain.from_iterable(sets[0]), reverse=True)
    values = {i: f(rho + i * g) for i in indices}
    if any(lam.imag for lam in lams) or not {*map(type, values.values())} <= {float}:
        zero, values = 0j, {i: complex(v) for i, v in values.items()}
    else:
        zero, lams = 0.0, [lam.real for lam in lams]
    layer = {r.start: list(map(values.__getitem__, r)) for r in sets[0]}
    for m, lam, ranges in zip(ms, lams, sets[1:]):
        longest = max((r[-1] // m for r in ranges), default=1)
        weights = [*itertools.accumulate([lam] * (longest - 1), operator.mul, initial=zero + 1.0)]
        inner, layer = layer, {}
        for r in ranges:
            xs = layer[r.start] = []
            for index in r:
                n, q = divmod(index, m)
                acc = zero
                if n > 0:
                    for p in map(operator.mul, weights, inner[q][n - 1 :: -1]):
                        acc += p
                xs.append(acc)
    return {index: xs[0] for index, xs in layer.items()}, lams


def _floor_sum(count: int, m: int, a: int, b: int) -> int:
    """sum_{i < count} floor((a*i + b) / m) for nonnegative a, b and positive m."""
    total = 0
    while True:
        if a >= m:
            total += count * (count - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += count * (b // m)
            b %= m
        top = a * count + b
        if top < m:
            return total
        count, b, m, a = top // m, top % m, a, m


def _index_sets(ms: Sequence[int], top: Sequence[int], allowance: float) -> tuple[list, int]:
    """The index ranges each layer of one remainder class computes, and their work.

    ``top`` holds the top layer's indices. Walks the layers top down: layer
    i at index N reads N's class mod m_i below N - m_i + 1, so only the
    largest index per class matters, and the top ``m_i / gcd(step, m_i)``
    indices of a range meet every class the range meets. Returns
    (sets, work) with sets[0] the summand indices and sets[-1] the top
    layer, each a list of disjoint ranges (below the top, one per class mod
    the step above, starting at the class), and work the terms of every
    layer loop plus one per summand index. Stops early, with sets None, once the
    work is above ``allowance``; the ranges walked so far are read by the
    terms already counted, so the walk costs no more than the work.
    """
    layer = [range(index, index + 1) for index in sorted(set(top))]
    sets = [layer]
    work = 0
    for m in reversed(ms):
        for r in layer:
            if r.start < 0:  # below the origin a layer sums nothing
                r = r[-(r.start // r.step):]
            work += _floor_sum(len(r), m, r.step, r.start)
        if work > allowance:
            return None, work
        highest: dict[int, int] = {}
        for r in layer:
            for index in r[-(m // math.gcd(r.step, m)):]:
                c = index % m
                if index > highest.get(c, -1):
                    highest[c] = index
        layer = [range(c, c + index // m * m, m) for c, index in highest.items() if index >= m]
        sets.append(layer)
    work += sum(map(len, layer))
    return sets[::-1], work


def lattice_plan(
    op: FactoredOperator, ts: Sequence[float], residuals: bool = True, allowance: float = math.inf
) -> tuple[dict[float, list] | None, int]:
    """Index sets per remainder class and the exact work of :func:`solve_rows`.

    Returns ({rho: sets}, work), sets as in :func:`_index_sets`: the
    indices at which :func:`solve_rows` computes each layer of rho, and
    work the terms, summand calls and (with ``residuals``) f(t) calls the
    rows make. The sets are None when the work is above ``allowance``.
    """
    g, ms = common_lattice(op)
    return _plan(ms, [floor_mod(t, g) for t in ts], residuals, allowance)


def _plan(ms: Sequence[int], cells: Sequence, residuals: bool, allowance: float):
    shifts = _subset_sums(ms) if residuals else [0]
    tops: dict[float, list[int]] = {}
    for cell in cells:
        tops.setdefault(cell.r, []).extend(cell.n + s for s in shifts)
    work = len(cells) if residuals else 0
    plan: dict[float, list] | None = {}
    for rho, top in tops.items():
        sets, cost = _index_sets(ms, top, allowance - work)
        work += cost
        if sets is None:
            return None, work
        plan[rho] = sets
    return plan, work


def _subset_sums(shifts: Sequence[int]) -> list[int]:
    sums = [0]
    for s in shifts:
        sums += [x + s for x in sums]
    return sums


def solve_rows(
    op: FactoredOperator,
    f: RealFunction,
    ts: Sequence[float],
    budget: TermBudget | None = None,
    residuals: bool = True,
) -> list[tuple[int, complex, float | None]]:
    """(n, y(t), |op y - f|(t)) for each t, y the particular solution of op y = f.

    n is the top layer's term count (the outermost factor's floor at t,
    clamped at 0). The layers of each remainder class are built once, bottom
    up over the plan's index sets, and serve all rows and their residuals,
    so each layer value and each summand value is computed once per call.
    A class whose lams are all real and whose summand values are all floats
    is folded in float arithmetic, any other in complex (see the module
    docstring); y(t) comes back complex either way. Raises
    :class:`TermBudgetExceeded` before any summand call if the work is above
    the budget. Without ``residuals`` the third field is None and neither
    the shifted points nor f(t) are computed or charged.
    """
    max_terms = (budget or TermBudget()).max_terms
    ts = [_require_finite(t) for t in ts]
    g, ms = common_lattice(op)
    cells = [floor_mod(t, g) for t in ts]
    plan, work = _plan(ms, cells, residuals, max_terms)
    if work > max_terms:
        # A plan stopped early has counted only the layers above the budget.
        least = "at least " if plan is None else ""
        raise TermBudgetExceeded(f"nested sum needs {least}{work} evaluations, budget is {max_terms}")
    lams = [factor.lam for factor in op.factors]
    tops = {rho: _top_layer(f, rho, g, sets, ms, lams) for rho, sets in plan.items()}
    rows = []
    for t, cell in zip(ts, cells):
        y, field = tops[cell.r]
        resid = None
        if residuals:
            defect = _expand(ms, field, y.__getitem__, cell.n) - f(t)
            try:
                resid = abs(defect)
            except OverflowError:
                # Complex abs() raises past the float range, and also on a
                # NaN part while errno still holds an ERANGE that a summand
                # caught (exp of a large number): hypot reads both.
                resid = math.hypot(defect.real, defect.imag)
        rows.append((max(cell.n // ms[-1], 0), complex(y[cell.n]), resid))
    return rows


def nonfinite_summand(op: FactoredOperator, f: RealFunction, t: float) -> tuple[int | None, float, Scalar] | None:
    """The first summand value of a one-point :func:`solve_rows` at t that is
    not finite, as (index, point, value), or None.

    Visits the points in the order that call makes them: the lattice
    indices I of t's remainder class at the points rho + I*g, highest
    first, then the residual's f(t), whose index is None. It calls f again,
    so it belongs on a failure path.
    """
    g, _ = common_lattice(op)
    plan, _ = lattice_plan(op, [t])
    [(rho, sets)] = plan.items()
    for index in sorted(itertools.chain.from_iterable(sets[0]), reverse=True):
        point = rho + index * g
        value = f(point)
        if not cmath.isfinite(value):
            return index, point, value
    value = f(t)
    return None if cmath.isfinite(value) else (None, t, value)


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
