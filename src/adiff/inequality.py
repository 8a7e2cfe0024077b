"""General solutions of first-order linear difference inequalities.

For y(t+h) - lam*y(t) >= 0 (or <= 0) with h > 0 and real lam != 0, the
general solution combines a homogeneous part and a sign-constrained
particular part:

    y(t) = |lam|^(t/h) * mu(t) + sum_{s=1..floor_h(t)} lam^(s-1) slack(t - s*h)

where mu is h-periodic when lam > 0 and h-antiperiodic when lam < 0 (so the
homogeneous part reproduces lam*y under the shift either way), and slack is
>= 0 for the >= inequality, <= 0 for <=. The shift then gives
y(t+h) - lam*y(t) = slack(t), which has the required sign.

Constraints are enforced by sampling, not proof: construction checks the
slack sign on the caller's range and mu's (anti)periodicity on [0, 4h],
64 points each by default. A NaN slack and a NaN or infinite mu fail.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Sequence

from .antidiff import RealFunction, _coefficient, lattice_plan, resolvent_sum
from .errors import DomainError, PeriodicityViolation, SignViolation
from .numkit import _float, _Frozen, _period_break, _Record, _require_positive_shift, _set
from .numkit import floor_mod  # noqa: F401  (bench/tracing.py patches this name)

MEMBERSHIP_TOL = 1e-10
SIGN_TOL = 1e-10
#: check_inequality flags direction violations below -1e-10 (GEQ), relative
#: to the residual's scale, so that boundary solutions with slack
#: identically zero still pass.
BOUNDARY_TOL = 1e-10
SLACK_MATCH_TOL = 1e-9
DEFAULT_SAMPLES = 64


class Direction(enum.Enum):
    GEQ = "geq"
    LEQ = "leq"


class Periodicity(enum.Enum):
    PERIODIC = "periodic"
    ANTIPERIODIC = "antiperiodic"


class InequalitySpec(_Frozen):
    """Parameters of y(t+h) - lam*y(t) {>=, <=} 0."""

    __slots__ = _fields = ("h", "lam", "direction")

    def __init__(self, h: float, lam: float, direction: Direction):
        _set(self, "h", _require_positive_shift(h))
        _set(self, "lam", _coefficient(_float(lam)))
        _set(self, "direction", direction if isinstance(direction, Direction) else Direction(direction))


class MembershipResult(_Frozen):
    """Outcome of an (anti)periodicity sampling check; falsy when it failed."""

    __slots__ = _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: float | None = None):
        _set(self, "ok", ok)
        _set(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def check_membership(
    mu: RealFunction,
    h: float,
    kind: Periodicity,
    t_samples: Sequence[float],
    tol: float = MEMBERSHIP_TOL,
) -> MembershipResult:
    """Sample mu(t+h) = mu(t) (PERIODIC) or = -mu(t) (ANTIPERIODIC).

    Tolerance is mixed: |difference| <= tol * (1 + |mu(t)|); a NaN or infinite
    mu fails. Returns the first failing sample as witness instead of raising.
    """
    sign = 1.0 if kind is Periodicity.PERIODIC else -1.0
    miss = _period_break(mu, _require_positive_shift(h), sign, t_samples, tol)
    return MembershipResult(True) if miss is None else MembershipResult(False, witness=miss[0])


def _grid(lo: float, hi: float, count: int) -> list[float]:
    if count < 2:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class SolutionFunction(_Record):
    """Constructed general solution; call it like a function of t."""

    __slots__ = _fields = ("spec", "mu", "slack")

    def __init__(self, spec: InequalitySpec, mu: RealFunction, slack: RealFunction):
        self.spec = spec
        self.mu = mu
        self.slack = slack

    def homogeneous(self, t: float) -> float:
        lam, h = self.spec.lam, self.spec.h
        try:
            growth = abs(lam) ** (t / h)
        except OverflowError:
            msg = f"|lambda|^(t/h) overflows at t={t!r} (lambda={lam!r}, h={h!r})"
            raise DomainError(msg) from None
        return growth * self.mu(t)

    def particular(self, t: float) -> float:
        return resolvent_sum(self.slack, t, self.spec.lam, self.spec.h).value

    def __call__(self, t: float) -> float:
        return self.homogeneous(t) + self.particular(t)

    def pairs(self, ts: Sequence[float], rows: Callable | None = None) -> list[tuple[float, float]]:
        """(y(t), y(t+h)) at each t.

        The particular part is read at the lattice points (n, r) and (n+1, r)
        of t = n*h + r by ``rows(slack)``, the rows of
        lattice_plan(ts, spec.h, [1], [spec.lam], ahead=True) in :mod:`adiff.antidiff`
        (``rows``, if the caller planned them), so y(t+h) sums n+1 slack
        terms whatever the float t + h rounds to; the homogeneous part is
        read at t and t + h.
        A subclass that replaces :meth:`particular` gives no lattice form, so
        its particular part is read at t and t + h. Raises
        :class:`DomainError` when ``rows`` holds a row count other than len(ts).
        """
        lam, h = self.spec.lam, self.spec.h
        # The homogeneous part first, so an overflow names its sample at once.
        homogeneous = [(self.homogeneous(t + h), self.homogeneous(t)) for t in ts]
        if type(self).particular is SolutionFunction.particular:
            rows = rows or lattice_plan(ts, h, [1], [lam], ahead=True)[2]
            _, at, ahead = rows(self.slack)
            if len(at) != len(ts):
                raise DomainError(f"the rows hold {len(at)} points, not the {len(ts)} asked for")
            parts = zip(at, ahead)
        else:
            parts = [(self.particular(t), self.particular(t + h)) for t in ts]
        return [(at + p, ahead + q) for (ahead, at), (p, q) in zip(homogeneous, parts)]


class InequalityReport(_Record):
    """check_inequality outcome over a sample set."""

    __slots__ = _fields = (
        "direction",
        "samples",
        "min_residual",
        "max_residual",
        "violations",
        "max_slack_mismatch",
        "passed",
    )

    def __init__(
        self,
        direction: Direction,
        samples: int,
        min_residual: float,
        max_residual: float,
        violations: list[float] | None = None,
        max_slack_mismatch: float = 0.0,
        passed: bool = True,
    ):
        self.direction = direction
        self.samples = samples
        self.min_residual = min_residual
        self.max_residual = max_residual
        self.violations = [] if violations is None else violations
        self.max_slack_mismatch = max_slack_mismatch
        self.passed = passed


def build_solution(
    spec: InequalitySpec,
    mu: RealFunction,
    slack: RealFunction,
    t_range: tuple[float, float] = (0.0, 10.0),
    samples: int = DEFAULT_SAMPLES,
) -> SolutionFunction:
    """Validate the ingredients by sampling, then assemble the solution.

    slack must be >= 0 (direction GEQ) or <= 0 (LEQ), and a number, across
    t_range; mu must be finite, h-periodic for lam > 0 and h-antiperiodic for
    lam < 0, checked on [0, 4h]. Violations raise with the failing sample as witness.
    """
    sign, wrong, symbol = (1.0, "negative", ">=") if spec.direction is Direction.GEQ else (-1.0, "positive", "<=")
    lo, hi = t_range
    for t in _grid(lo, hi, samples):
        v = slack(t)
        if not sign * v >= -SIGN_TOL:
            what = wrong if v == v else "not a number"
            raise SignViolation(f"slack({t!r}) = {v!r} is {what} but the inequality direction is {symbol}", witness=t)
    kind = Periodicity.PERIODIC if spec.lam > 0 else Periodicity.ANTIPERIODIC
    membership = check_membership(mu, spec.h, kind, _grid(0.0, 4.0 * spec.h, samples))
    if not membership:
        raise PeriodicityViolation(
            f"mu is not {kind.value} with period {spec.h} (fails at t = {membership.witness!r})",
            witness=membership.witness,
        )
    return SolutionFunction(spec, mu, slack)


def check_inequality(
    y: SolutionFunction, t_samples: Sequence[float], rows: Callable | None = None
) -> InequalityReport:
    """Evaluate r(t) = y(t+h) - lam*y(t) at each sample and grade it.

    y(t) and y(t+h) come from :meth:`SolutionFunction.pairs`, which reads the
    particular part at the lattice points (n, r) and (n+1, r) of t; ``rows``,
    if given, is the rows of lattice_plan(t_samples, spec.h, [1], [spec.lam],
    ahead=True) in :mod:`adiff.antidiff`, which pairs then sums instead of
    planning again.

    Records the residual range, NaN once any residual is, any sample where
    the residual crosses the direction boundary beyond BOUNDARY_TOL or is
    NaN, and how far it drifts from slack(t), NaN if any drift is. r is
    exact up to the rounding of a difference, so both are read against the
    scale 1 + |y(t+h)| + |lam*y(t)|: where y grows like |lam|^(t/h), r
    loses the low digits of both terms.
    """
    spec = y.spec
    sign = 1.0 if spec.direction is Direction.GEQ else -1.0
    report = InequalityReport(
        direction=spec.direction,
        samples=len(t_samples),
        min_residual=math.inf,
        max_residual=-math.inf,
    )
    for t, (y_t, ahead) in zip(t_samples, y.pairs(t_samples, rows)):
        behind = spec.lam * y_t
        r = ahead - behind
        scale = 1.0 + abs(ahead) + abs(behind)
        # min and max keep their first argument against a NaN: once r is NaN, so is the range.
        report.min_residual = min(report.min_residual, r) if r == r else r
        report.max_residual = max(report.max_residual, r) if r == r else r
        if not sign * r >= -BOUNDARY_TOL * scale:
            report.violations.append(t)
        mismatch = abs(r - y.slack(t)) / scale
        if mismatch > report.max_slack_mismatch or mismatch != mismatch:  # a NaN stays, and fails
            report.max_slack_mismatch = mismatch
    report.passed = not report.violations and report.max_slack_mismatch <= SLACK_MATCH_TOL
    return report
