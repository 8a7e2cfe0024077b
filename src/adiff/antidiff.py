"""Finite floor-bounded indefinite sums and their closed-form companions.

The central object is the antidifference computed as a finite sum whose
term count at the point t is floor(t):

    F(t) = sum_{s=1..floor(t)} f(t - s),        F(t+1) - F(t) = f(t),

with the convention that an empty sum is 0, so F vanishes on (-inf, 1).
The resolvent generalization inserts a geometric weight and a step h:

    y(t) = sum_{s=1..floor_h(t)} lam^(s-1) f(t - h*s),
    y(t+h) - lam*y(t) = f(t),

which is a particular solution of the first-order linear difference
equation. :func:`weighted_sum` is the one loop behind every sum of this
shape: the antidifference (lam = 1, h = 1), its backward variant, the
resolvent, each factor layer of :mod:`adiff.opalgebra` and the particular
part of :mod:`adiff.inequality`. It accumulates weights by iterated
multiplication in ascending s; this fixed order is part of the contract
(the kernel convolution in :mod:`adiff.convkernel` reproduces it bit for
bit).

Closed forms (polynomial, exponential, sin/cos) return the classical
tabulated expressions; they differ from the finite sum by a 1-periodic
function of t, which :func:`offset_residual` exposes via the identity
sum_{s=1..floor(x)} f(x-s) = F(x) - F({x}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import (
    BoundsError,
    CrossCheckError,
    DomainError,
    NoConvergence,
    PeriodicityViolation,
    ZeroLambda,
)
from .numkit import _require_finite, falling_factorial, floor_mod, stirling2

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


@dataclass(frozen=True)
class AntidiffValue:
    """A summation result plus the number of terms the sum used."""

    value: Scalar
    terms_used: int


def _term_count(t: float) -> int:
    return max(math.floor(t), 0)


def weighted_sum(g: Callable[[float], Scalar], t: float, n: int, lam: Scalar, h: float) -> Scalar:
    """sum_{s=1..n} lam^(s-1) g(t - h*s), accumulated in ascending s.

    The weight is a running product of lam. Accumulation is complex exactly
    when ``lam`` is a complex number. With lam = 1.0 and h = 1.0 the weight
    and the shift are exact, so the result equals the plain sum of
    g(t - s) bit for bit.
    """
    if isinstance(lam, complex):
        acc: Scalar = 0j
        w: Scalar = 1.0 + 0j
    else:
        acc = 0.0
        w = 1.0
    for s in range(1, n + 1):
        acc += w * g(t - h * s)
        w *= lam
    return acc


def antidifference(f: RealFunction, t: float) -> AntidiffValue:
    """Indefinite sum of f at t: sum_{s=1..floor(t)} f(t-s), 0 below t = 1."""
    t = _require_finite(t)
    n = _term_count(t)
    return AntidiffValue(weighted_sum(f, t, n, 1.0, 1.0), n)


def resolvent_sum(f: RealFunction, t: float, lam: Scalar, h: float = 1.0) -> AntidiffValue:
    """Particular solution of y(t+h) - lam*y(t) = f(t) as a finite sum.

    Accumulates sum_{s=1..floor_h(t)} lam^(s-1) f(t-h*s) in ascending s,
    with the weight kept as a running product. Accumulation is complex
    exactly when ``lam`` is passed as a complex number.
    """
    t = _require_finite(t)
    if lam == 0:
        raise ZeroLambda("lambda must be nonzero")
    n = max(floor_mod(t, h).n, 0)  # validates h > 0
    if not isinstance(lam, complex):
        lam = float(lam)
    return AntidiffValue(weighted_sum(f, t, n, lam, h), n)


def backward_antidifference(f: RealFunction, t: float) -> AntidiffValue:
    """Backward indefinite sum: sum_{s=1..floor(t)} f(t+1-s).

    Satisfies y(t) - y(t-1) = f(t) and equals the forward antidifference of
    u -> f(u+1).
    """
    t = _require_finite(t)
    n = _term_count(t)
    return AntidiffValue(weighted_sum(f, t + 1.0, n, 1.0, 1.0), n)


def definite_sum(f: RealFunction, m: int, n: int) -> float:
    """Sum of f(k) for k = m..n inclusive.

    For m >= 0 the value is computed as F(n+1) - F(m) with F the finite-sum
    antidifference and cross-checked against a direct loop; disagreement
    beyond 1e-9 relative raises :class:`CrossCheckError`. Negative m falls
    back to the direct loop (F vanishes below 1).
    """
    if m > n:
        raise BoundsError(f"lower bound {m} exceeds upper bound {n}")
    direct = 0.0
    for k in range(m, n + 1):
        direct += f(float(k))
    if m < 0:
        return direct
    via_theorem = antidifference(f, float(n + 1)).value - antidifference(f, float(m)).value
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
    of x.
    """
    x = _require_finite(x, "x")
    if not tail_tol > 0.0:
        raise DomainError(f"tail_tol must be positive, got {tail_tol!r}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be a positive integer, got {max_terms!r}")
    acc = 0.0
    for n in range(max_terms):
        fn = f(float(n))
        fnx = f(n + x)
        acc += fn - fnx
        if abs(fn) + abs(fnx) < tail_tol:
            return AntidiffValue(acc, n + 1)
    raise NoConvergence(
        f"tail criterion {tail_tol!r} not met within {max_terms} terms"
    )


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
