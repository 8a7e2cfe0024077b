"""Numerical verification battery for the identities the library satisfies.

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

from .antidiff import (
    antidifference,
    cos_antidifference,
    definite_sum,
    exp_antidifference,
    gamma_ratio_product,
    mueller_sums,
    offset_residual,
    periodic_antidifference,
    resolvent_sum,
    sin_antidifference,
)
from .errors import DomainError
from .numkit import _Record, digamma, fmt17, ln_gamma
from .numkit import floor_mod  # noqa: F401  (bench/tracing.py patches this name)
from .opalgebra import _factorization_sides

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


def _digamma_residual(rng):
    t = _draw_noninteger(rng, 0.0, 20.0)
    return t, abs(offset_residual(digamma, lambda u: 1.0 / u, t))


def _lngamma_residual(rng):
    t = _draw_noninteger(rng, 0.0, 20.0)
    return t, abs(offset_residual(ln_gamma, math.log, t))


def _gammaratio_residual(rng):
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


def _sincos_residual(rng):
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


def _offset_residual_max(rng):
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


def _fundamental_residual(rng):
    n = rng.randint(1, 1000)
    via = definite_sum(lambda k: k * k, 1, n)
    closed = n * (n + 1) * (2 * n + 1) / 6.0
    return float(n), abs(via - closed)


#: Residual of each identity for sample i, as fn(rng, i) -> (point, residual).
#: Declaration order is the battery's order.
_RESIDUALS = {
    "digamma": lambda rng, i: _digamma_residual(rng),
    "lngamma": lambda rng, i: _lngamma_residual(rng),
    "gammaratio": lambda rng, i: _gammaratio_residual(rng),
    "exponential": _exponential_residual,
    "sincos": lambda rng, i: _sincos_residual(rng),
    "mueller": _mueller_residual,
    "offset": lambda rng, i: _offset_residual_max(rng),
    "factor-e2minus4": lambda rng, i: _factor_residual(rng, "E2minus4"),
    "factor-e2plus1": lambda rng, i: _factor_residual(rng, "E2plus1"),
    "periodic": _periodic_residual,
    "fundamental": lambda rng, i: _fundamental_residual(rng),
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
