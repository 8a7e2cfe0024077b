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

:func:`_point_sum` is the one summand loop: :func:`resolvent_sum`,
:func:`antidifference` and :func:`backward_antidifference` call it for one
point. :func:`definite_sum` writes out its lam = h = 1 case once for the two
antidifferences F(n+1) and F(m) together, in the same order, so that
each f(k) is computed once. :func:`lattice_sums` serves many points:
those with the same remainder share their summand values, so a table of
rows computes each f(r + k*h) once and :func:`_class_sums` folds the
stored values of each class against one weight row, the running product
of lam, as :func:`adiff.opalgebra._top_layer` folds a solve layer
(folding stored values through a callable cost 2-3x per term). It hands
its exact summand call count to the caller's charge before the first
call, and :func:`lattice_sums_calls` gives the same count without making
the calls. The particular part of :mod:`adiff.inequality` reads these
sums. A :class:`TermBudget` bounds the work one command may do; the
callers of these sums charge it.

Closed forms (polynomial, exponential, sin/cos) return the classical
tabulated expressions; they differ from the finite sum by a 1-periodic
function of t, which :func:`offset_residual` exposes via the identity
sum_{s=1..floor(x)} f(x-s) = F(x) - F({x}).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import Callable, Sequence, Union

from .errors import (
    BoundsError,
    CrossCheckError,
    DomainError,
    NoConvergence,
    PeriodicityViolation,
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
    if lam == 0:
        raise ZeroLambda("lambda must be nonzero")
    return lam if isinstance(lam, complex) else float(lam)


# A remainder class keeps at most this many summand values. Above it each
# term count of the class refolds from fresh summand calls, so one large
# eval runs in constant memory at the cost of 2n + 1 calls.
_CLASS_VALUES_MAX = 1 << 16


def lattice_sums(
    f: RealFunction,
    ts: Sequence[float],
    lam: Scalar,
    h: float,
    charge: Callable[[int], None] | None = None,
) -> list[tuple[int, Scalar, Scalar]]:
    """Resolvent sums of f at the points ts, each summand value computed once.

    Returns (n, y(t), y(t+h)) for each t = n*h + r, with n clamped at 0,
    y(t) = y(n, r) and y(t+h) = y(n+1, r) in the lattice coordinates of the
    module docstring. Points are grouped by their remainder r (equal floats;
    0.0 and -0.0 give the same points r + k*h), one class at a time, so
    memory stays O(len(ts) + min(max n, _CLASS_VALUES_MAX)). One point calls
    f at s = 1..n in turn, then at the one extra point r + n*h. Accumulation
    is complex exactly when ``lam`` is complex. ``charge``, if given, is
    called with the number of summand calls the sums make (that of
    :func:`lattice_sums_calls`) before the first of them, and may raise to
    refuse them.
    """
    classes, lam, h = _classes(ts, lam, h)
    if charge is not None:
        charge(_calls(classes))
    out: list = [None] * len(ts)
    for r, (members, counts) in classes.items():
        sums = _class_sums(f, r, h, counts, lam)
        for i, n, up in members:
            out[i] = (n, sums[n], sums[up])
    return out


def lattice_sums_calls(ts: Sequence[float], lam: Scalar, h: float) -> int:
    """The number of summand calls lattice_sums(f, ts, lam, h) makes.

    A class calls f once per k below its top count, or, above
    _CLASS_VALUES_MAX, m times for each of its counts m. Validates its
    arguments as lattice_sums does, so a caller can check the cost of the
    sums before it calls f.
    """
    return _calls(_classes(ts, lam, h)[0])


def _calls(classes: dict) -> int:
    calls = 0
    for _, counts in classes.values():
        calls += sum(counts) if counts[-1] > _CLASS_VALUES_MAX else counts[-1]
    return calls


def _classes(ts: Sequence[float], lam: Scalar, h: float):
    """({r: ([(i, n, n + 1)], counts)}, lam, h): the points grouped by remainder.

    Counts are clamped at 0; ``counts`` holds a class's distinct ones in
    ascending order.
    """
    ts = [_require_finite(t) for t in ts]
    lam = _coefficient(lam)
    h = _require_positive_shift(h)
    members: dict[float, list[tuple[int, int, int]]] = {}
    for i, t in enumerate(ts):
        n, r = _floor_mod(t, h)
        members.setdefault(r, []).append((i, n, n + 1) if n >= 0 else (i, 0, 0))
    counts = lambda ms: sorted({m for _, n, up in ms for m in (n, up)})
    return {r: (ms, counts(ms)) for r, ms in members.items()}, lam, h


def _class_sums(f: RealFunction, r: float, h: float, counts: list[int], lam: Scalar) -> dict:
    """{m: y(m, r)} for the ascending term counts of one remainder class.

    Each count folds the class's stored values in ascending s against one
    weight row, the running product of lam (none at lam = 1.0), as
    :func:`_point_sum` adds them. A class whose top count exceeds
    _CLASS_VALUES_MAX stores none and calls f per count.
    """
    lo, top = counts[0], counts[-1]
    if top > _CLASS_VALUES_MAX:
        return {m: _point_sum(f, r, m, h, lam) for m in counts}
    # Below the lowest count in the one-point order (k descending), then up.
    values = [f(r + k * h) for k in range(lo - 1, -1, -1)]
    values.reverse()
    values += [f(r + k * h) for k in range(lo, top)]
    zero: Scalar = 0j if isinstance(lam, complex) else 0.0
    weights = None
    if lam != 1.0 or isinstance(lam, complex):
        weights = [*itertools.accumulate([lam] * (top - 1), operator.mul, initial=zero + 1.0)]
    sums = {}
    for m in counts:
        terms = values[m - 1 :: -1] if m else []
        acc = zero
        for p in terms if weights is None else map(operator.mul, weights, terms):
            acc += p
        sums[m] = acc
    return sums


def nonfinite_term(f: RealFunction, t: float, h: float) -> tuple[int, float, Scalar] | None:
    """The first summand value of y(t) and y(t+h) that is not finite.

    Visits the lattice points r + k*h of t = n*h + r in the order a one-point
    :func:`lattice_sums` call evaluates them and returns (k, point, value)
    for the first non-finite value, or None. It calls f again, so it belongs
    on a failure path.
    """
    cell = floor_mod(t, h)
    n = max(cell.n, 0)
    order = [*range(n - 1, -1, -1), n] if cell.n >= 0 else []
    for k in order:
        x = cell.r + k * h
        v = f(x)
        if not cmath.isfinite(v):
            return k, x, v
    return None


def antidifference(f: RealFunction, t: float) -> AntidiffValue:
    """Indefinite sum of f at t: sum_{s=1..floor(t)} f(t-s), 0 below t = 1.

    The one-point lattice sum with lam = h = 1.0, where r = t - floor(t).
    """
    t = _require_finite(t)
    n = _term_count(t)
    return AntidiffValue(_point_sum(f, t - math.floor(t), n, 1.0, 1.0), n)


def resolvent_sum(f: RealFunction, t: float, lam: Scalar, h: float = 1.0) -> AntidiffValue:
    """Particular solution of y(t+h) - lam*y(t) = f(t) as a finite sum.

    The one-point case of :func:`lattice_sums`: for t = n*h + r, the sum
    sum_{s=1..n} lam^(s-1) f(r + (n-s)*h) in ascending s, with the weight
    kept as a running product. Accumulation is complex exactly when ``lam``
    is passed as a complex number.
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

    The periodicity claim is spot-checked on a fixed sample grid; a failure
    beyond 1e-9 (mixed absolute/relative) raises
    :class:`PeriodicityViolation`. The result differs from t*f(T*t) by a
    1-periodic function of t.
    """
    t = _require_finite(t)
    if not (math.isfinite(T) and T > 0.0):
        raise PeriodicityViolation(f"period must be a positive finite real, got {T!r}")
    span = max(abs(t), 1.0)
    for j in range(_PERIOD_SAMPLES):
        x = -span + (2.0 * span) * j / _PERIOD_SAMPLES
        base = f(x)
        shifted = f(x + T)
        if abs(shifted - base) > _PERIOD_TOL * (1.0 + abs(base)):
            raise PeriodicityViolation(
                f"f({x + T!r}) = {shifted!r} != f({x!r}) = {base!r}", witness=x
            )
    return _term_count(t) * f(T * t)
