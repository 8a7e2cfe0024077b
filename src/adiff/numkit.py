"""Special functions and combinatorial primitives.

Scalar binary64 implementations of the floor/fractional-part pair modulo a
positive step h, factorial polynomials, Stirling numbers of the second kind
(exact integers), and the digamma / log-gamma pair, plus the package's
17-digit number rendering. Everything here is pure and safe for concurrent
use.

The package's value types derive from :class:`_Record` or :class:`_Frozen`
here, which give them a dataclass's equality, hashing and repr without
importing :mod:`dataclasses` (whose import and per-class code generation
are a large share of a command's start-up).
"""

from __future__ import annotations

import math

from .errors import CapExceeded, DomainError, NonFiniteInput, NonPositiveShift, PoleError

#: Largest n accepted by :func:`stirling2`. The recurrence is exact for any n
#: (Python integers are unbounded) but the table is quadratic in n, so the
#: cap keeps accidental huge arguments from eating memory.
STIRLING_CAP = 64

#: Euler-Mascheroni constant, for reference and tests.
EULER_GAMMA = 0.5772156649015329

_LN_SQRT_2PI = 0.9189385332046727  # log(2*pi)/2

# Argument above which the asymptotic series below meet 1e-12 relative error.
_ASYMPTOTIC_MIN = 8.0


class _Record:
    """A value type: == and repr over the attributes named in ``_fields``.

    Instances compare equal only to instances of the same class, field by
    field, and are unhashable; the repr is ``Name(field=value, ...)``. These
    are a dataclass's ``__eq__``, ``__hash__`` and ``__repr__``. A subclass
    sets ``_fields`` and writes its own ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """A :class:`_Record` that is hashable and whose attributes cannot be
    assigned or deleted: its ``__init__`` sets them with :data:`_set`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        """Fill a copied or unpickled instance, which assignment would refuse."""
        if isinstance(state, tuple):  # (instance dict or None, slot values)
            state = {**(state[0] or {}), **state[1]}
        for name, value in state.items():
            _set(self, name, value)


#: How a frozen value type's ``__init__`` sets an attribute.
_set = object.__setattr__


class FloorModResult(_Frozen):
    """Quotient/remainder pair for the floor decomposition t = n*h + r.

    ``n`` is an integer and ``r`` lies in [0, h). For h = 1 this is the
    ordinary floor and fractional part of t.
    """

    __slots__ = _fields = ("n", "r")

    def __init__(self, n: int, r: float):
        _set(self, "n", n)
        _set(self, "r", r)


def fmt17(x: float) -> str:
    """Shortest-field rendering at 17 significant digits (binary64-exact)."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # fold -0.0 so renderings stay sign-stable
    return format(x, ".17g")


def _require_finite(x: float, name: str = "t") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteInput(f"{name} must be finite, got {x!r}")
    return x


def _require_positive_shift(h: float) -> float:
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise NonPositiveShift(f"shift must be a positive finite real, got {h!r}")
    return h


def floor_mod(t: float, h: float) -> FloorModResult:
    """Decompose t as n*h + r with integer n and remainder r in [0, h).

    The quotient equals floor(t/h); negative t follows the flooring
    convention, so the remainder is never negative. A correction step keeps
    the remainder inside [0, h) when the division rounds across an integer.
    Raises :class:`DomainError` when t/h overflows to infinity.
    """
    t = _require_finite(t, "t")
    h = _require_positive_shift(h)
    try:
        n = math.floor(t / h)
    except OverflowError:
        raise DomainError(f"t/h overflows for t = {t!r} and h = {h!r}") from None
    r = t - n * h
    if r < 0.0:
        n -= 1
        r += h
    elif r >= h:
        n += 1
        r -= h
    if r < 0.0:  # residual rounding from the correction itself
        r = 0.0
    return FloorModResult(n, r)


def frac_mod(t: float, h: float = 1.0) -> float:
    """Fractional part of t modulo h: the r of :func:`floor_mod`."""
    return floor_mod(t, h).r


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
    if n != int(n) or n < 0:
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


def digamma(x: float) -> float:
    """Digamma (psi) function, the logarithmic derivative of gamma.

    Uses the one-step recurrence psi(x) = psi(x+1) - 1/x to shift the
    argument up to the asymptotic region, then a fixed de Moivre series.
    Below -1/2 the reflection psi(x) = psi(1-x) - pi/tan(pi*(x - floor(x)))
    replaces the walk up, whose length grows with |x|. Accurate to about
    1e-13 relative on (0, 100]; defined for all reals except the poles at
    0, -1, -2, ...
    """
    x = _require_finite(x, "x")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"digamma has a pole at {x!r}")
    if x < -0.5:
        # x - floor(x) is exact here (Sterbenz); nearer 0 it would round.
        return _digamma_walk(1.0 - x) - math.pi / math.tan(math.pi * (x - math.floor(x)))
    return _digamma_walk(x)


def _digamma_walk(x: float) -> float:
    acc = 0.0
    while x < _ASYMPTOTIC_MIN:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    series = u * (
        1.0 / 12.0
        - u * (
            1.0 / 120.0
            - u * (
                1.0 / 252.0
                - u * (
                    1.0 / 240.0
                    - u * (1.0 / 132.0 - u * (691.0 / 32760.0 - u * (1.0 / 12.0)))
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - series


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Same scheme as :func:`digamma`: shift up with
    ln Gamma(x) = ln Gamma(x+1) - ln x, then a Stirling series.
    """
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    log_shift = 0.0
    while x < _ASYMPTOTIC_MIN:
        log_shift += math.log(x)
        x += 1.0
    u = 1.0 / (x * x)
    series = (
        1.0 / 12.0
        - u * (
            1.0 / 360.0
            - u * (
                1.0 / 1260.0
                - u * (1.0 / 1680.0 - u * (1.0 / 1188.0 - u * (691.0 / 360360.0)))
            )
        )
    ) / x
    return (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI + series - log_shift
