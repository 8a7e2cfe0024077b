"""Finite floor-bounded indefinite sums and their closed-form companions.

The central object is the antidifference computed as a finite sum whose
term count at the point t is floor(t):

    F(t) = sum_{s=1..floor(t)} f(t - s),        F(t+1) - F(t) = f(t),

with the convention that an empty sum is 0, so F vanishes on (-inf, 1).
The resolvent generalization inserts a geometric weight and a step h:

    y(t) = sum_{s=1..floor_h(t)} lam^(s-1) f(t - h*s),
    y(t+h) - lam*y(t) = f(t),

which is a particular solution of the first-order linear difference
equation.

Lattice coordinates. Each finite sum above decomposes its point once as
t = n*h + r (:func:`adiff.numkit.floor_mod`, 0 <= r < h) and evaluates the
summand at r + k*h, so the sum at t is

    y(n, r) = sum_{s=1..n} lam^(s-1) f(r + (n-s)*h)

and the shifted point t + h is (n+1, r), whatever the float t + h rounds
to. Weights are a running product of lam and every sum is accumulated in
ascending s; this fixed order is part of the contract (the kernel
convolution in :mod:`adiff.convkernel` reproduces it bit for bit). At a
power-of-two h (1, 0.5, 0.25, 2, ...) r + k*h equals t - h*s exactly; at
other h it may differ from that float shift in the last place, and so may
the printed value, but never the term count.

:func:`_point_sum` is the one-point summand loop: :func:`resolvent_sum`,
:func:`antidifference` and :func:`backward_antidifference` call it.
:func:`definite_sum` writes out its lam = h = 1 case once for the two
antidifferences F(n+1) and F(m) together, in the same order, so that
each f(k) is computed once.

Many points go through the package's one lattice engine (section "the
engine" below). Its one entry, :func:`lattice_plan`, splits each point
with :func:`adiff.numkit.floor_mod`, plans each remainder class and
returns the plan's work with ``rows``, which calls the summand once per
planned index, highest first, folds each layer against one weight row
(the running product of lam, none at lam = 1.0) and reads |op y - f(t)|,
or y(t+h), taking f(t) from the summand values where t is its own
lattice point, in one row reader for every plan; one point of one factor,
and each point of a one-factor class past the value cap, is summed alone
in one pass. ``eval``, the sum tables, :mod:`adiff.inequality` (the
one-factor case g = h, m = [1]) and :func:`adiff.opalgebra.solve_rows`
use it: each charges the work against its :class:`TermBudget` with
:func:`_charge`, the one place a budget is refused, then sums.

A coefficient is read by :func:`_coefficient` and a sampled (anti)period
by :func:`_period_break`, here and in :mod:`adiff.inequality` alike.

Closed forms (polynomial, exponential, sin/cos) return the classical
tabulated expressions; they differ from the finite sum by a 1-periodic
function of t, which :func:`offset_residual` exposes via the identity
sum_{s=1..floor(x)} f(x-s) = F(x) - F({x}).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from typing import Callable, Sequence, Union

from .errors import (
    BoundsError,
    CrossCheckError,
    DomainError,
    NoConvergence,
    NonFiniteInput,
    PeriodicityViolation,
    TermBudgetExceeded,
    ZeroLambda,
)
from .numkit import (
    _floor_mod,
    _Frozen,
    _require_finite,
    _require_positive_shift,
    _set,
    falling_factorial,
    floor_mod,
    stirling2,
)

#: Anything callable real -> real works as the summand.
RealFunction = Callable[[float], float]

Scalar = Union[float, complex]

# Sin/cos closed forms share this constant denominator, |e^i - 1|^2.
_TWO_MINUS_2COS1 = 2.0 - 2.0 * math.cos(1.0)

# Tolerance of the fundamental-theorem cross-check in definite_sum.
_CROSSCHECK_TOL = 1e-9

# Sample count for the periodicity spot-check in periodic_antidifference.
_PERIOD_SAMPLES = 16
_PERIOD_TOL = 1e-9


class AntidiffValue(_Frozen):
    """A summation result plus the number of terms the sum used."""

    __slots__ = _fields = ("value", "terms_used")

    def __init__(self, value: Scalar, terms_used: int):
        _set(self, "value", value)
        _set(self, "terms_used", terms_used)


_DEFAULT_MAX_TERMS = 10_000_000


class TermBudget(_Frozen):
    """Upper bound on the work, in summand calls and layer terms, one command may do."""

    __slots__ = _fields = ("max_terms",)

    def __init__(self, max_terms: int = _DEFAULT_MAX_TERMS):
        if max_terms < 1:
            raise DomainError(f"budget must be positive, got {max_terms!r}")
        _set(self, "max_terms", max_terms)


def _charge(command: str, work: int, max_terms: int, least: str = "", knob: str | None = "--budget") -> None:
    """Refuse, before the first summand call, a command whose work is over budget.

    ``least`` is "at least " when ``work`` is a lower bound of the count;
    ``knob`` names the setting of the budget, None for no hint.
    """
    if work > max_terms:
        hint = f" (set it with {knob})" if knob else ""
        raise TermBudgetExceeded(f"{command} needs {least}{work} evaluations, budget is {max_terms}{hint}")


def _term_count(t: float) -> int:
    return max(math.floor(t), 0)


def _point_sum(g: Callable[[float], Scalar], r: float, n: int, h: float, lam: Scalar) -> Scalar:
    """sum_{s=1..n} lam^(s-1) g(r + (n-s)*h), accumulated in ascending s.

    The one-point lattice sum, folded as the summand values arrive with the
    weight kept as a running product; feeding a fold a generator of summand
    values cost 10-25% per term, 7% of the benchmark's ``battery`` and
    ``solve`` throughput (2-vCPU Xeon). Accumulation is complex exactly
    when ``lam`` is complex; at lam = 1.0 the multiplies are left out. A
    negative n sums nothing.
    """
    ks = range(n - 1, -1, -1)
    if isinstance(lam, complex):
        acc: Scalar = 0j
        w: Scalar = 1.0 + 0j
    elif lam == 1.0:
        acc = 0.0
        for k in ks:
            acc += g(r + k * h)
        return acc
    else:
        acc = 0.0
        w = 1.0
    for k in ks:
        acc += w * g(r + k * h)
        w *= lam
    return acc


def _coefficient(lam: Scalar) -> Scalar:
    lam = lam if isinstance(lam, complex) else float(lam)
    if lam == 0:
        raise ZeroLambda("lambda must be nonzero")
    if lam - lam != 0:  # NaN or infinite, in either part
        raise NonFiniteInput(f"lambda must be finite, got {lam!r}")
    return lam


def _period_break(f: RealFunction, T: float, sign: float, xs: Sequence[float], tol: float) -> tuple | None:
    """The first x of xs where f(x + T) is not sign*f(x) within tol*(1 + |f(x)|),
    as (x, f(x), f(x + T)), or None; f(x) is called first. A NaN or infinite
    value fails (an infinite f(x) would make the tolerance infinite)."""
    for x in xs:
        base = f(x)
        shifted = f(x + T)
        if abs(base) == math.inf or not abs(shifted - sign * base) <= tol * (1.0 + abs(base)):
            return x, base, shifted
    return None


# ---------------------------------------------------------------- the engine
#
# The points of an operator with steps h_i = m_i * g split once as
# t = N*g + rho. Each remainder rho is a class: its index sets are planned
# and charged, its summand values computed once and its layers folded once
# for every row of the class. One factor of step h is g = h, m = [1].

# The most summand values the engine holds at once. Past it a one-layer class
# sums each point alone in a pass that reads its values in stretches: one large
# eval or one-factor solve runs in constant memory and makes n + 1 calls.
_CLASS_VALUES_MAX = 1 << 16


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


def _subset_sums(shifts: Sequence[int]) -> list[int]:
    """The sums of the subsets of ``shifts``; bit i of a position says whether shifts[i] is in."""
    sums = [0]
    for s in shifts:
        sums += [x + s for x in sums]
    return sums


def _ranges(highest: dict[int, int], m: int) -> list[range]:
    """The indices below each class's highest index that a layer of step m reads."""
    return [range(c, c + index // m * m, m) for c, index in highest.items() if index >= m]


def _index_sets(ms: Sequence[int], top: list[int], allowance: float) -> tuple[list | None, int, int]:
    """The indices each layer of one remainder class computes, and their terms and calls.

    ``top`` holds the top layer's distinct indices in ascending order. Walks
    the layers top down: the layer of step m at index N folds the n = N // m
    values of N's class mod m below it, so per class only the largest index
    matters, and the top ``m / gcd(step, m)`` indices of a range meet every
    class the range meets. Returns (sets, terms, calls): sets[0] the summand
    indices, sets[-1] ``top`` and every set between a list of disjoint
    ranges, one per class mod the step above, starting at the class; terms
    the values every layer folds; calls one per summand index (:func:`_plan`
    counts one-layer classes). Stops early, with sets None, once the terms
    pass ``allowance``: the walk costs no more than the work.
    """
    m = ms[-1]
    # A negative index folds nothing.
    terms = sum(map(operator.floordiv, top, itertools.repeat(m))) if top[0] >= 0 else sum([i // m for i in top if i > 0])
    # Ascending, so the last index of a class is its largest.
    highest = {index % m: index for index in top}
    sets = [top]
    for step in ms[-2::-1]:
        if terms > allowance:
            return None, terms, 0
        layer = _ranges(highest, m)
        sets.append(layer)
        for r in layer:
            terms += _floor_sum(len(r), step, m, r.start)
        if terms > allowance:
            return None, terms, 0
        highest = {}
        for r in layer:
            for index in r[-(step // math.gcd(m, step)) :]:
                c = index % step
                if index > highest.get(c, -1):
                    highest[c] = index
        m = step
    sets.append(_ranges(highest, m))
    sets.reverse()
    return sets, terms, sum(map(len, sets[0]))


def _plan(ms: Sequence[int], cells: list, offsets: Sequence[int], allowance: float) -> tuple[dict | None, int, int]:
    """({rho: index sets}, terms, calls) of :func:`_index_sets` for the points
    ``cells`` = [(N, rho)], rho's top layer at N + s for each offset s
    (offsets[0] is 0); the plan is None once terms + calls pass ``allowance``.
    A one-layer class past the cap plans a pass per point, :func:`_pass_plan`."""
    members: dict[float, list[int]] = {}
    for n, rho in cells:
        members.setdefault(rho, []).append(n)
    plan: dict[float, list] = {}
    terms = calls = 0
    one = len(ms) == 1  # one layer, m = 1, whose offsets [0] or [0, 1] ascend
    for rho, ns in members.items():
        top = [ns[0] + s for s in offsets] if one and len(ns) == 1 else sorted({n + s for n in ns for s in offsets})
        if not one:
            sets, more_terms, more_calls = _index_sets(ms, top, allowance - terms - calls)
            if sets is None:
                return None, terms + more_terms, calls
        elif top[-1] > _CLASS_VALUES_MAX:  # a pass per point, the highest first
            tops, more_terms, more_calls = zip(*[_pass_plan(n, offsets[-1]) for n in sorted(set(ns), reverse=True)])
            sets, more_terms, more_calls = [list(tops)], sum(more_terms), sum(more_calls)
        else:  # the summand indices are 0 .. top[-1] - 1
            n = top[-1]
            more_terms = sum(top) if top[0] >= 0 else sum([i for i in top if i > 0])
            sets, more_calls = [[range(n)] if n > 0 else [], top], max(n, 0)
        terms += more_terms
        calls += more_calls
        plan[rho] = sets
    return plan, terms, calls


def _pass_plan(n: int, shift: int) -> tuple[int, int, int]:
    """(top index, terms, calls) of one factor's point N = n summed alone to
    N + shift - 1 by :func:`_rows`' pass, shift 1 where its rows read y at
    N + 1, else 0: the terms of y at N (and N + 1), and a call per index."""
    calls = max(n + shift, 0)
    return n + shift - 1, max(n, 0) + shift * calls, calls


def _descending(ranges: list[range]):
    """The indices of ``ranges``, highest first."""
    if len(ranges) == 1:
        return ranges[0][::-1]
    return sorted(itertools.chain.from_iterable(ranges), reverse=True)


def _fold(indices, m: int, weights: list | None, inner: dict, zero: Scalar) -> list:
    """The layer of step m at each index N: for (n, q) = divmod(N, m), the
    first n values of class q of the layer below, ``inner[q]`` (held in
    ascending index order), folded in ascending s against ``weights``."""
    out = []
    for index in indices:
        n, q = divmod(index, m)
        acc = zero
        if n > 0:
            terms = inner[q][n - 1 :: -1]
            for p in terms if weights is None else map(operator.mul, weights, terms):
                acc += p
        out.append(acc)
    return out


def _weights(lam: Scalar, count: int, zero: Scalar) -> list | None:
    """1, lam, lam^2, ... (``count`` + 1 entries) as a running product; None for a
    float lam of 1.0, whose fold adds the values with no multiply (exactly)."""
    if lam == 1.0 and isinstance(lam, float):
        return None
    return [*itertools.accumulate([lam] * count, operator.mul, initial=zero + 1.0)]


def _field(values: list, reals: list | None, lams: list) -> tuple[list, Scalar, list]:
    """(values, zero, lams) in a class's field: floats where every lam is real
    (``reals``, else None) and the values add up to a float (floats, ints and
    fractions, which a float fold reads as the complex one does), else complex,
    with any values that do not add up to a float read through complex()."""
    try:
        floats = type(sum(values, 0.0)) is float
    except TypeError:  # a value that does not add to a float (Decimal)
        floats = False
    if floats and reals:
        return values, 0.0, reals
    return values if floats else list(map(complex, values)), 0j, list(map(complex, lams))


def _combine(v: list, lams: Sequence[Scalar]) -> Scalar:
    """op y from y at the 2^k shifted points, v[j] being y shifted by the steps
    of the factors whose bits are set in j: each factor i, first to last,
    makes v[S] = v[S + {i}] - lam_i * v[S] in place, which is the arithmetic
    of expanding op y one factor at a time."""
    step = 1
    for lam in lams:
        for j in range(0, len(v), 2 * step):
            v[j] = v[j + step] - lam * v[j]
        step *= 2
    return v[0]


def lattice_plan(ts: Sequence[float], g: float, ms: Sequence[int], lams: Sequence[Scalar], residuals: bool = True,
                 allowance: float = math.inf, ahead: bool = False) -> tuple[int, int, Callable | None]:
    """(terms, calls, rows) for the points ts of y, the particular solution of
    prod_i (E^(m_i g) - lam_i) y = f: the engine's one entry.

    It splits each point once and plans each remainder class once, or one
    point of one factor as a pass (:func:`_pass_plan`). ``terms`` and
    ``calls`` are the plan's layer terms and the calls of f its rows make,
    for the caller to charge before any summand call: one per summand
    index, and the residual's f(t) of every row that does not read it from
    its class (:func:`_rows`). Past ``allowance`` the plan stops, they
    count only the layers walked, and ``rows`` is None. ``rows(f)`` sums
    the plan and returns the columns of :func:`_rows`. With ``ahead`` (one
    factor) the third column is y(t + h) and f(t) is not read; else
    without ``residuals`` the plan reads no shifted point.
    """
    ts = list(map(_require_finite, ts))
    lams, g = list(map(_coefficient, lams)), _require_positive_shift(g)
    cells = list(map(_floor_mod, ts, itertools.repeat(g)))
    reads = residuals and not ahead  # the rows subtract f(t)
    shift = 1 if residuals or ahead else 0  # the rows read y at N + 1 (and the other shifted points)
    checks, known = 0, None  # the rows that call f(t), and where a row reads it from its class
    if reads and len(ms) == 1:  # one rule, and for one point one call, not a map
        known = [_on_lattice(ts[0], cells[0], g)] if len(ts) == 1 else list(map(_on_lattice, ts, cells, itertools.repeat(g)))
        checks = known.count(False)
    elif reads:  # a class of several layers keeps no summand value: each of its rows calls f(t)
        checks = len(ts)
    if len(ms) == len(cells) == 1:  # one point of one factor: a pass, no class to plan
        [(n, rho)] = cells
        top, terms, calls = _pass_plan(n, shift)
        plan = {rho: [[top]]}
    else:
        plan, terms, calls = _plan(ms, cells, _subset_sums(ms) if shift else [0], allowance - checks)
        if plan is None:
            return terms, calls + checks, None
    return terms, calls + checks, functools.partial(_rows, ts, g, ms, lams, cells, plan, shift, ahead, known)


def _on_lattice(t: float, cell: tuple[int, float], g: float) -> bool:
    """Whether the float t is the point rho + n*g, n >= 0, of its ``cell``
    (n, rho), the sign of a zero included: the point at which the summand is
    read, so that f(t) is the summand value at index n."""
    n, rho = cell
    point = rho + n * g
    return n >= 0 and t == point and (t != 0.0 or math.copysign(1.0, t) == math.copysign(1.0, point))


def _rows(ts: list[float], g: float, ms: Sequence[int], lams: list, cells: list, plan: dict, shift: int,
          ahead: bool, known: list[bool] | None, f: RealFunction) -> tuple[list[int], list[Scalar], list | None]:
    """The columns n, y(t) and |op y - f|(t) of a plan of :func:`lattice_plan`
    that the caller has charged.

    First each class of the plan in turn calls its summand once per index,
    highest first. A class planned as passes (:func:`_pass_plan`) is summed
    a point at a time, the highest first: a pass reads the values at
    rho + k*g, k = top, ..., 0, with two accumulators and one running
    weight, in :func:`_fold`'s order, for y at its top index and the one
    above, and keeps the value at the top. Up to the cap they are one list
    in a class's :func:`_field`; past it, stretches of the cap in lam's
    field, the class's field when its highest pass is past the cap. Any
    other class picks its :func:`_field` and builds its layers bottom up
    with :func:`_fold`, each dropped once the next is built, and keeps its
    top layer and, with one layer, its summand values in ascending index
    order.

    Then each row reads its class. n is N // m_k clamped at 0. The residual
    reads y(t + h) - lam*y(t) at one factor, else combines the top layer at
    the 2^k indices N + (sum of a subset of the m_i) by :func:`_combine`
    (the same arithmetic at k = 1), with the lams of the row's field, and
    subtracts f(t) at the float t: the class's summand value at N where
    ``known`` says that t is its lattice point, else one call of f. With
    ``ahead`` the third column is y(t + h) of a one-factor plan instead;
    without ``shift`` (neither residuals nor ``ahead``) it is None.
    """
    m = ms[-1]
    tops = {}  # rho: (top layer, lams of its field, summand values or None)
    for rho, sets in plan.items():
        if len(sets) == 1:  # a pass per point
            y, stored, field = {}, {}, None
            reals = None if lams[0].imag else [lams[0].real]
            for top in sets[0]:
                if top < _CLASS_VALUES_MAX:
                    values, zero, (lam,) = _field([f(rho + k * g) for k in range(top, -1, -1)], reals, lams)
                    values = iter(values)
                else:
                    lam, zero = (reals[0], 0.0) if reals else (lams[0], 0j)
                    values = itertools.chain.from_iterable([f(rho + k * g) for k in range(i, max(i - _CLASS_VALUES_MAX, -1), -1)]
                                                           for i in range(top, -1, -_CLASS_VALUES_MAX))
                acc = acc_next = zero
                if top >= 0:
                    stored[top] = v = next(values)  # k = top: y(top + 1)'s alone
                    if lam == 1.0 and isinstance(lam, float):
                        acc_next += v
                        for v in values:
                            acc += v
                            acc_next += v
                    else:
                        w = zero + 1.0
                        acc_next += w * v
                        for v in values:
                            acc += w * v
                            w *= lam
                            acc_next += w * v
                y[top], y[top + 1] = acc, acc_next
                field = field or [lam]
            tops[rho] = y, field, stored
            continue
        top, ranges = sets[-1], sets[0]
        # The float field's lams, where every lam has imaginary part 0.
        reals = None if any(map(operator.attrgetter("imag"), lams)) else list(map(operator.attrgetter("real"), lams))
        values, zero, field = _field([f(rho + index * g) for index in _descending(ranges)], reals, lams)
        if len(ranges) == 1:
            values.reverse()
            layer = {ranges[0].start: values}
        else:
            at = dict(zip(_descending(ranges), values))
            layer = {r.start: list(map(at.__getitem__, r)) for r in ranges}
        if len(sets) > 2:  # the layers below the top
            for step, lam, indices in zip(ms, field, sets[1:-1]):
                row = _weights(lam, max((r[-1] for r in indices), default=0) // step, zero)
                layer = {r.start: _fold(r, step, row, layer, zero) for r in indices}
        y = dict(zip(top, _fold(top, m, _weights(field[-1], top[-1] // m, zero), layer, zero)))
        tops[rho] = y, field, layer.get(0) if len(sets) == 2 else None
    offsets = _subset_sums(ms) if len(ms) > 1 else None
    counts, ys, thirds = [], [], []
    for t, (n, rho), on in zip(ts, cells, known or itertools.repeat(False)):
        y, field, stored = tops[rho]
        counts.append(n // m if n > 0 else 0)
        ys.append(y[n])
        if ahead:
            thirds.append(y[n + 1])
        elif shift:
            d = _combine([y[n + s] for s in offsets], field) if offsets else y[n + 1] - field[0] * y[n]
            thirds.append(_magnitude(d - (stored[n] if on else f(t))))
    return counts, ys, thirds if shift else None


def _magnitude(d: Scalar) -> float:
    """abs(d). Complex abs() raises past the float range, and on a NaN part while
    errno holds an ERANGE a summand caught (exp overflow); hypot reads both."""
    try:
        return abs(d)
    except OverflowError:
        return math.hypot(d.real, d.imag)


def nonfinite_summand(f: RealFunction, t: float, g: float, ms: Sequence[int]) -> tuple[int | None, float, Scalar] | None:
    """The first value that the rows of a one-point :func:`lattice_plan` at t
    read and that is not finite, as (index, point, value), or None: the
    summand at rho + I*g, highest index I first (n, ..., 0 for one factor),
    then the residual's f(t), whose index is None. It calls f again, so it
    belongs on a failure path."""
    n, rho = _floor_mod(t, g)
    plan = None if len(ms) == 1 else _plan(ms, [(n, rho)], _subset_sums(ms), math.inf)[0]
    for index in range(n, -1, -1) if plan is None else _descending(plan[rho][0]):
        point = rho + index * g
        value = f(point)
        if not cmath.isfinite(value):
            return index, point, value
    value = f(t)
    return None if cmath.isfinite(value) else (None, t, value)


def antidifference(f: RealFunction, t: float) -> AntidiffValue:
    """Indefinite sum of f at t: sum_{s=1..floor(t)} f(t-s), 0 below t = 1.

    The one-point lattice sum with lam = h = 1.0, where r = t - floor(t).
    """
    t = _require_finite(t)
    n = _term_count(t)
    return AntidiffValue(_point_sum(f, t - math.floor(t), n, 1.0, 1.0), n)


def resolvent_sum(f: RealFunction, t: float, lam: Scalar, h: float = 1.0) -> AntidiffValue:
    """Particular solution of y(t+h) - lam*y(t) = f(t) as a finite sum.

    The one-point case of the rows of :func:`lattice_plan`: for
    t = n*h + r, the sum sum_{s=1..n} lam^(s-1) f(r + (n-s)*h) in ascending
    s, with the weight kept as a running product. Accumulation is complex
    exactly when ``lam`` is passed as a complex number.
    """
    t = _require_finite(t)
    lam = _coefficient(lam)
    h = _require_positive_shift(h)
    cell = floor_mod(t, h)
    n = max(cell.n, 0)
    return AntidiffValue(_point_sum(f, cell.r, n, h, lam), n)


def backward_antidifference(f: RealFunction, t: float) -> AntidiffValue:
    """Backward indefinite sum: sum_{s=1..floor(t)} f(t+1-s).

    Satisfies y(t) - y(t-1) = f(t) and equals the forward antidifference of
    u -> f(u+1). With r = t - floor(t) the points t+1-s are r + k for
    k = floor(t)..1; the base r + 1.0 is exact whenever a term is summed
    (t >= 1 puts r on a grid no finer than 2^-52).
    """
    t = _require_finite(t)
    n = _term_count(t)
    return AntidiffValue(_point_sum(f, t - math.floor(t) + 1.0, n, 1.0, 1.0), n)


def definite_sum_calls(m: int, n: int) -> int:
    """The number of summand calls definite_sum(f, m, n) makes: n - min(m, 0) + 1.

    Raises :class:`BoundsError` if m > n, so a caller can check the bounds
    and the cost of a sum before it calls f.
    """
    if m > n:
        raise BoundsError(f"lower bound {m} exceeds upper bound {n}")
    return n - min(m, 0) + 1


def definite_sum(f: RealFunction, m: int, n: int) -> float:
    """Sum of f(k) for k = m..n inclusive.

    For m >= 0 the value is F(n+1) - F(m) with F the finite-sum
    antidifference, cross-checked against the direct sum f(n) + ... + f(m);
    disagreement beyond 1e-9 relative raises :class:`CrossCheckError`. One
    pass over k = n..0 calls f once per point: the running total is the
    direct sum after k = m and F(n+1) after k = 0, and the values below m
    also add up to F(m), each in the order :func:`antidifference` adds them,
    so the result is bit for bit F(n+1) - F(m). f is first called at n, so
    when several points fail the highest one is named. Negative m falls
    back to the direct ascending loop (F vanishes below 1), whose first
    call is at m. Either way f is called n - min(m, 0) + 1 times, in O(1)
    memory. f's argument is a float counter, u -= 1.0 down from n (u += 1.0
    up from m < 0); each step is exact while |k| < 2^53, so f gets float(k),
    and a sum that reaches further makes more than 2^53 calls.
    """
    definite_sum_calls(m, n)
    if m < 0:
        direct = 0.0
        u = float(m)
        for _ in range(n - m + 1):
            direct += f(u)
            u += 1.0
        return direct
    acc = 0.0
    u = float(n)
    for _ in range(n - m + 1):
        acc += f(u)
        u -= 1.0
    direct = acc
    low = 0.0
    for _ in range(m):
        v = f(u)
        acc += v
        low += v
        u -= 1.0
    via_theorem = acc - low
    if abs(via_theorem - direct) > _CROSSCHECK_TOL * (1.0 + abs(direct)):
        raise CrossCheckError(
            f"fundamental-theorem path {via_theorem!r} disagrees with direct loop {direct!r}"
        )
    return via_theorem


def poly_antidifference(coeffs: list[float], t: float) -> float:
    """Closed-form antidifference of the polynomial sum_n coeffs[n] * t^n.

    Expands each power into falling factorials with Stirling numbers of the
    second kind and lifts every factorial by one order:

        sum_n sum_k a_n S(n,k) (t)_{k+1} / (k+1).

    Exact integer Stirling coefficients; degree is capped by stirling2.
    """
    t = _require_finite(t)
    acc = 0.0
    for order, a in enumerate(coeffs):
        for k in range(order + 1):
            s = stirling2(order, k)
            if s:
                acc += a * s * falling_factorial(t, k + 1) / (k + 1)
    return acc


def exp_antidifference(a: float, t: float) -> float:
    """Closed-form antidifference of a^t, namely a^t / (a - 1)."""
    if not (a > 0.0) or a == 1.0:
        raise DomainError(f"base must be positive and != 1, got {a!r}")
    t = _require_finite(t)
    return a**t / (a - 1.0)


def sin_antidifference(t: float) -> float:
    """Closed-form antidifference of sin: (sin(t-1) - sin t) / (2 - 2 cos 1)."""
    t = _require_finite(t)
    return (math.sin(t - 1.0) - math.sin(t)) / _TWO_MINUS_2COS1


def cos_antidifference(t: float) -> float:
    """Closed-form antidifference of cos: (cos(t-1) - cos t) / (2 - 2 cos 1)."""
    t = _require_finite(t)
    return (math.cos(t - 1.0) - math.cos(t)) / _TWO_MINUS_2COS1


def mueller_sum(
    f: RealFunction, x: float, tail_tol: float = 1e-12, max_terms: int = 1_000_000
) -> AntidiffValue:
    """Telescoping-series antidifference for decaying f.

    Accumulates sum_{n=0..N} (f(n) - f(n+x)), stopping at the first N with
    |f(N)| + |f(N+x)| < tail_tol. Valid when f tends to zero at +infinity;
    raises :class:`NoConvergence` if max_terms is hit first. The result
    differs from the floor-bounded antidifference by a 1-periodic function
    of x. It is the sum at x of :func:`mueller_sums`.
    """
    return mueller_sums(f, x, None, tail_tol, max_terms)[0]


def mueller_sums(
    f: RealFunction,
    x: float,
    y: float | None,
    tail_tol: float = 1e-12,
    max_terms: int = 1_000_000,
) -> tuple[AntidiffValue, AntidiffValue | None]:
    """:func:`mueller_sum` at x and at y (None: at x only), from one pass.

    One pass over n = 0, 1, ... calls f(n) once for both sums and f(n + x),
    f(n + y) for each sum not yet stopped: 3 calls per term for two points,
    not 4, in that order. Each sum adds its terms and stops exactly as it
    would alone; once one stops, the other runs on alone. The counter n is
    kept as a float (u += 1.0), which is exact below 2^53, so f sees the
    same arguments as with float(n) and n + x; f is first called at 0, so a
    failure names the lowest failing term.

    The tail criterion |f(n)| + |f(n + x)| < tail_tol is read only where
    a = |f(n)| < tail_tol. That gate keeps every stop: a + b >= a for
    b = |f(n + x)| >= 0 in IEEE arithmetic, since rounding is monotone and a
    is a float, and a NaN in either term fails both comparisons. So a sum
    stops at the same n, for NaN, +-inf and summands of either sign.
    """
    x = _require_finite(x, "x")
    if y is not None:
        y = _require_finite(y, "y")
    if not tail_tol > 0.0:
        raise DomainError(f"tail_tol must be positive, got {tail_tol!r}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be a positive integer, got {max_terms!r}")
    if y is None:
        return _mueller_run(f, x, 0.0, 0, tail_tol, max_terms), None
    acc_x = acc_y = u = 0.0
    for n in range(1, max_terms + 1):
        fn = f(u)
        fnx = f(u + x)
        acc_x += fn - fnx
        fny = f(u + y)
        acc_y += fn - fny
        a = abs(fn)
        if a < tail_tol and (a + abs(fnx) < tail_tol or a + abs(fny) < tail_tol):
            break
        u += 1.0
    else:
        raise _no_convergence(tail_tol, max_terms)
    # One sum or both stopped at term n; a sum that did not runs on alone.
    stop_x = a + abs(fnx) < tail_tol
    stop_y = a + abs(fny) < tail_tol
    sum_x = AntidiffValue(acc_x, n) if stop_x else _mueller_run(f, x, acc_x, n, tail_tol, max_terms)
    sum_y = AntidiffValue(acc_y, n) if stop_y else _mueller_run(f, y, acc_y, n, tail_tol, max_terms)
    return sum_x, sum_y


def _mueller_run(
    f: RealFunction, x: float, acc: float, done: int, tail_tol: float, max_terms: int
) -> AntidiffValue:
    """The one-point Mueller loop, from acc after ``done`` terms."""
    u = float(done)
    for n in range(done + 1, max_terms + 1):
        fn = f(u)
        fnx = f(u + x)
        acc += fn - fnx
        a = abs(fn)
        if a < tail_tol and a + abs(fnx) < tail_tol:
            return AntidiffValue(acc, n)
        u += 1.0
    raise _no_convergence(tail_tol, max_terms)


def _no_convergence(tail_tol: float, max_terms: int) -> NoConvergence:
    return NoConvergence(f"tail criterion {tail_tol!r} not met within {max_terms} terms")


def offset_residual(F: RealFunction, f: RealFunction, x: float) -> float:
    """Residual of the tabulated-vs-finite-sum identity.

    Returns sum_{s=1..floor(x)} f(x-s) - (F(x) - F({x})). Near zero iff F
    really is an antidifference of f: the finite sum reproduces F up to the
    value F carries at the fractional part of x.
    """
    x = _require_finite(x, "x")
    frac = x - math.floor(x)
    return antidifference(f, x).value - (F(x) - F(frac))


def gamma_ratio_product(t: float) -> float:
    """Product (t-1)(t-2)...(t-floor(t)) for non-integer t > 0.

    Equals Gamma(t) / Gamma({t}); the empty product for t in (0,1) is 1.
    """
    t = _require_finite(t)
    if t <= 0.0 or t == math.floor(t):
        raise DomainError(f"t must be positive and non-integer, got {t!r}")
    acc = 1.0
    for s in range(1, _term_count(t) + 1):
        acc *= t - s
    return acc


def periodic_antidifference(f: RealFunction, T: float, t: float) -> float:
    """Antidifference of t -> f(T*t) for f with period T: floor(t) * f(T*t).

    The periodicity claim is spot-checked on a fixed sample grid by
    :func:`_period_break`; a failure beyond 1e-9 (mixed absolute/relative),
    or a NaN or infinite value, raises :class:`PeriodicityViolation`. The result differs from
    t*f(T*t) by a 1-periodic function of t.
    """
    t = _require_finite(t)
    if not (math.isfinite(T) and T > 0.0):
        raise PeriodicityViolation(f"period must be a positive finite real, got {T!r}")
    span = max(abs(t), 1.0)
    xs = [-span + (2.0 * span) * j / _PERIOD_SAMPLES for j in range(_PERIOD_SAMPLES)]
    miss = _period_break(f, T, 1.0, xs, _PERIOD_TOL)
    if miss is not None:
        x, base, shifted = miss
        raise PeriodicityViolation(f"f({x + T!r}) = {shifted!r} != f({x!r}) = {base!r}", witness=x)
    return _term_count(t) * f(T * t)
