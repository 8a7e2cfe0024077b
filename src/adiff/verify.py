"""Closed forms, and the numerical battery that checks the finite sums against them.

Closed forms (polynomial, exponential, sin/cos) return the classical
tabulated expressions; they differ from the finite sum by a 1-periodic
function of t, which :func:`offset_residual` exposes via the identity
sum_{s=1..floor(x)} f(x-s) = F(x) - F({x}). Only ``verify`` runs them.

The left side of :func:`factorization_identity_check` is one double loop,
kept apart from the lattice engine as the independent route that the
identity compares with the library's.

Each identity draws seeded random sample points, measures a residual that
is zero in exact arithmetic, and grades it against a tolerance. Residuals
of identities whose sides grow with t are scaled by 1/(1+|reference|), so
one tolerance works across identities; the rest are absolute.

Seeding is per identity (a string mix of the seed and the identity name),
so a single identity produces the same report whether it runs alone or as
part of the full battery.
"""

from __future__ import annotations

import math
import random

from .antidiff import AntidiffValue, RealFunction, Scalar, _term_count, antidifference, definite_sum, resolvent_sum
from .errors import CapExceeded, DomainError, NoConvergence, PeriodicityViolation
from .numkit import _float, _period_break, _Record, _require_finite, digamma, fmt17, ln_gamma
from .numkit import floor_mod  # noqa: F401  (bench/tracing.py patches this name)

#: Largest n accepted by :func:`stirling2`. The recurrence is exact for any n
#: (Python integers are unbounded) but the table is quadratic in n, so the
#: cap keeps accidental huge arguments from eating memory.
STIRLING_CAP = 64

# Sin/cos closed forms share this constant denominator, |e^i - 1|^2.
_TWO_MINUS_2COS1 = 2.0 - 2.0 * math.cos(1.0)

# Sample count for the periodicity spot-check in periodic_antidifference.
_PERIOD_SAMPLES = 16
_PERIOD_TOL = 1e-9


def falling_factorial(t: float, n: int) -> float:
    """Product t*(t-1)*...*(t-n+1); the empty product for n = 0 is 1."""
    n = _require_count(n)
    t = _require_finite(t, "t")
    acc = 1.0
    for k in range(n):
        acc *= t - k
    return acc


def rising_factorial(t: float, n: int) -> float:
    """Product t*(t+1)*...*(t+n-1); the empty product for n = 0 is 1."""
    n = _require_count(n)
    t = _require_finite(t, "t")
    acc = 1.0
    for k in range(n):
        acc *= t + k
    return acc


def _require_count(n: int) -> int:
    # n - n is 0 for a finite n; NaN and inf have no int().
    if n - n != 0 or n < 0 or n != int(n):
        raise DomainError(f"order must be a nonnegative integer, got {n!r}")
    return int(n)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact.

    Computed with the recurrence S(n, k) = k*S(n-1, k) + S(n-1, k-1) in
    arbitrary-precision integer arithmetic. Supported up to n = STIRLING_CAP.
    """
    n = _require_count(n)
    k = _require_count(k)
    if n > STIRLING_CAP:
        raise CapExceeded(f"stirling2 supports n <= {STIRLING_CAP}, got n = {n}")
    if k > n:
        return 0
    # Row-by-row table; row m holds S(m, 0..m).
    row = [1]
    for m in range(1, n + 1):
        prev = row
        row = [0] * (m + 1)
        for j in range(1, m):
            row[j] = j * prev[j] + prev[j - 1]
        row[m] = 1
    return row[k]


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
    a = _float(a)
    if not (0.0 < a < math.inf) or a == 1.0:
        raise DomainError(f"base must be positive, finite and != 1, got {a!r}")
    t = _require_finite(t)
    try:
        return a**t / (a - 1.0)
    except OverflowError:  # a^t is past the float range: inf, as exprlang's ^ reads it
        return math.inf / (a - 1.0)


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
    if not isinstance(max_terms, int) or max_terms < 1:
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


_INTEGER_MARGIN = 1e-6


class VerifyReport(_Record):
    """Residual summary for one identity; passed iff max residual <= tol."""

    __slots__ = _fields = ("name", "samples", "max_abs_residual", "passed", "witnesses")

    def __init__(
        self,
        name: str,
        samples: int,
        max_abs_residual: float,
        passed: bool,
        witnesses: list[float] | None = None,
    ):
        self.name = name
        self.samples = samples
        self.max_abs_residual = max_abs_residual
        self.passed = passed
        self.witnesses = [] if witnesses is None else witnesses

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.name}: samples={self.samples} "
            f"max_abs_residual={fmt17(self.max_abs_residual)} {status}"
        )
        if self.witnesses:
            shown = ",".join(fmt17(w) for w in self.witnesses[:5])
            line += f" witnesses=[{shown}]"
        return line


def _draw_noninteger(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        t = rng.uniform(lo, hi)
        if abs(t - round(t)) > _INTEGER_MARGIN:
            return t


def _digamma_residual(rng, i):
    t = _draw_noninteger(rng, 0.0, 20.0)
    return t, abs(offset_residual(digamma, lambda u: 1.0 / u, t))


def _lngamma_residual(rng, i):
    t = _draw_noninteger(rng, 0.0, 20.0)
    return t, abs(offset_residual(ln_gamma, math.log, t))


def _gammaratio_residual(rng, i):
    t = _draw_noninteger(rng, 0.0, 20.0)
    frac = t - math.floor(t)
    ref = math.exp(ln_gamma(t) - ln_gamma(frac))
    return t, abs(gamma_ratio_product(t) - ref) / (1.0 + abs(ref))


_EXP_BASES = (0.5, 2.0, 3.0)


def _exponential_residual(rng, i):
    a = _EXP_BASES[i % len(_EXP_BASES)]
    t = rng.uniform(1.0, 12.0)
    frac = t - math.floor(t)
    defect = antidifference(lambda u: a**u, t).value - exp_antidifference(a, t)
    expected = -(a**frac) / (a - 1.0)
    return t, abs(defect - expected) / (1.0 + abs(expected))


def _sincos_residual(rng, i):
    t = rng.uniform(0.0, 20.0)
    rs = abs(sin_antidifference(t + 1.0) - sin_antidifference(t) - math.sin(t))
    rc = abs(cos_antidifference(t + 1.0) - cos_antidifference(t) - math.cos(t))
    return t, max(rs, rc)


_MUELLER_BASES = (0.3, 0.5, 0.9)


def _mueller_residual(rng, i):
    a = _MUELLER_BASES[i % len(_MUELLER_BASES)]
    f = lambda u: a**u
    x = rng.uniform(0.1, 10.0)

    # One pass gives both Mueller sums; each adds and stops as it would alone.
    ahead, here = mueller_sums(f, x + 1.0, x)

    def defect(u, mueller):
        return mueller.value - resolvent_sum(f, u, 1.0).value

    return x, abs(defect(x + 1.0, ahead) - defect(x, here))


def _offset_residual_max(rng, i):
    x = _draw_noninteger(rng, 0.0, 20.0)
    r1 = offset_residual(digamma, lambda u: 1.0 / u, x)
    r2 = offset_residual(ln_gamma, math.log, x)
    return x, max(abs(r1), abs(r2))


_FACTOR_CORPUS = (
    lambda u: 1.0,
    math.sin,
    math.cos,
    lambda u: 0.5**u,
    lambda u: 1.0 / (1.0 + u * u),
)


def _factor_residual(rng, name):
    t = rng.uniform(0.0, 12.0)
    f = _FACTOR_CORPUS[rng.randrange(len(_FACTOR_CORPUS))]
    lhs, rhs = _factorization_sides(name, f, t)
    return t, abs(lhs - rhs) / (1.0 + abs(rhs))


_PERIODIC_CASES = (
    (lambda x: math.sin(2.0 * math.pi * x), 1.0),
    (lambda x: math.cos(math.pi * x), 2.0),
    (lambda x: 0.5 + math.cos(2.0 * math.pi * x / 3.0), 3.0),
)


def _periodic_residual(rng, i):
    f, T = _PERIODIC_CASES[i % len(_PERIODIC_CASES)]
    t = rng.uniform(0.0, 12.0)
    closed = periodic_antidifference(f, T, t)
    direct = antidifference(lambda u: f(T * u), t).value
    return t, abs(closed - direct) / (1.0 + abs(direct))


def _fundamental_residual(rng, i):
    n = rng.randint(1, 1000)
    via = definite_sum(lambda k: k * k, 1, n)
    closed = n * (n + 1) * (2 * n + 1) / 6.0
    return float(n), abs(via - closed)


#: Residual of each identity for sample i, as fn(rng, i) -> (point, residual).
#: Declaration order is the battery's order.
_RESIDUALS = {
    "digamma": _digamma_residual,
    "lngamma": _lngamma_residual,
    "gammaratio": _gammaratio_residual,
    "exponential": _exponential_residual,
    "sincos": _sincos_residual,
    "mueller": _mueller_residual,
    "offset": _offset_residual_max,
    "factor-e2minus4": lambda rng, i: _factor_residual(rng, "E2minus4"),
    "factor-e2plus1": lambda rng, i: _factor_residual(rng, "E2plus1"),
    "periodic": _periodic_residual,
    "fundamental": _fundamental_residual,
}

IDENTITY_NAMES = tuple(_RESIDUALS)


def run_identity(name: str, samples: int = 200, tol: float = 1e-8, seed: int = 42) -> VerifyReport:
    """Run one identity battery and return its report."""
    if name not in IDENTITY_NAMES:
        raise DomainError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples!r}")
    if not tol >= 0.0:
        raise DomainError(f"tolerance must be nonnegative, got {tol!r}")
    residual = _RESIDUALS[name]
    rng = random.Random(f"{seed}:{name}")
    max_resid = 0.0
    witnesses: list[float] = []
    for i in range(samples):
        t, r = residual(rng, i)
        max_resid = max(max_resid, r)
        if r > tol:
            witnesses.append(t)
    return VerifyReport(name, samples, max_resid, not witnesses, witnesses)


def run_battery(
    identity: str = "all", samples: int = 200, tol: float = 1e-8, seed: int = 42
) -> list[VerifyReport]:
    """Run one named identity, or all of them in declaration order."""
    names = IDENTITY_NAMES if identity == "all" else (identity,)
    return [run_identity(name, samples=samples, tol=tol, seed=seed) for name in names]
