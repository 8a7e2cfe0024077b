"""Difference-inequality construction and checking tests."""

import math
import random

import pytest

from adiff.antidiff import resolvent_sum
from adiff.errors import DomainError, NonPositiveShift, PeriodicityViolation, SignViolation, ZeroLambda
from adiff.inequality import (
    Direction,
    InequalitySpec,
    SLACK_MATCH_TOL,
    Periodicity,
    build_solution,
    check_inequality,
    check_membership,
)

ZERO = lambda t: 0.0
ONE = lambda t: 1.0


def grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


class TestMembership:
    def test_periodic_sine(self):
        mu = lambda t: math.sin(2.0 * math.pi * t)
        assert check_membership(mu, 1.0, Periodicity.PERIODIC, grid(0, 4, 64))

    def test_antiperiodic_sine(self):
        mu = lambda t: math.sin(math.pi * t)
        assert check_membership(mu, 1.0, Periodicity.ANTIPERIODIC, grid(0, 4, 64))

    def test_square_fails_with_witness(self):
        res = check_membership(lambda t: t * t, 1.0, Periodicity.PERIODIC, grid(0, 4, 64))
        assert not res
        assert res.witness is not None

    def test_antiperiodic_implies_periodic_doubled(self):
        rng = random.Random(3)
        candidates = [
            lambda t: math.sin(math.pi * t),
            lambda t: math.cos(math.pi * t) * 3.0,
            lambda t: math.sin(math.pi * t) + 0.5 * math.sin(3.0 * math.pi * t),
        ]
        samples = [rng.uniform(0, 8) for _ in range(64)]
        for mu in candidates:
            assert check_membership(mu, 1.0, Periodicity.ANTIPERIODIC, samples)
            assert check_membership(mu, 2.0, Periodicity.PERIODIC, samples)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_shift_must_be_positive_and_finite(self, h):
        with pytest.raises(NonPositiveShift, match="shift must be a positive finite real"):
            check_membership(math.sin, h, Periodicity.PERIODIC, [0.0])


class TestBuildSolution:
    def test_unit_slack_staircase(self):
        spec = InequalitySpec(1.0, 1.0, Direction.GEQ)
        y = build_solution(spec, ZERO, ONE, t_range=(0.0, 10.0))
        for t in [0.5, 3.7, 9.2]:
            assert y(t) == math.floor(t)
            assert y(t + 1.0) - y(t) == 1.0

    def test_antiperiodic_boundary_solution(self):
        spec = InequalitySpec(1.0, -1.0, Direction.GEQ)
        mu = lambda t: math.sin(math.pi * t)
        y = build_solution(spec, mu, ZERO, t_range=(0.0, 10.0))
        for t in [0.3, 2.8, 7.1]:
            assert y(t) == pytest.approx(mu(t), abs=1e-12)
            assert y(t + 1.0) + y(t) == pytest.approx(0.0, abs=1e-12)

    def test_leq_with_negative_slack(self):
        spec = InequalitySpec(2.0, 3.0, Direction.LEQ)
        y = build_solution(spec, ZERO, lambda t: -1.0, t_range=(0.0, 10.0))
        for t in [0.4, 4.6, 8.3]:
            assert y(t + 2.0) - 3.0 * y(t) == pytest.approx(-1.0, abs=1e-10)

    def test_sign_violation(self):
        spec = InequalitySpec(1.0, 1.0, Direction.GEQ)
        with pytest.raises(SignViolation) as exc:
            build_solution(spec, ZERO, lambda t: -1.0, t_range=(0.0, 10.0))
        assert exc.value.witness is not None
        with pytest.raises(SignViolation):
            build_solution(
                InequalitySpec(1.0, 1.0, Direction.LEQ), ZERO, ONE, t_range=(0.0, 10.0)
            )

    @pytest.mark.parametrize("direction, slack, message", [
        (Direction.GEQ, -1.0, "is negative but the inequality direction is >="),
        (Direction.LEQ, 1.0, "is positive but the inequality direction is <="),
        (Direction.GEQ, math.nan, "is not a number but the inequality direction is >="),
        (Direction.LEQ, math.nan, "is not a number but the inequality direction is <="),
    ], ids=["geq", "leq", "geq-nan", "leq-nan"])
    def test_slack_without_the_sign_is_refused(self, direction, slack, message):
        # NaN has no sign, so it fails the sign check in either direction.
        spec = InequalitySpec(1.0, 1.0, direction)
        with pytest.raises(SignViolation) as exc:
            build_solution(spec, ZERO, lambda t: slack, t_range=(0.0, 5.0), samples=4)
        assert str(exc.value) == f"slack(0.0) = {slack!r} {message}"
        assert exc.value.witness == 0.0

    def test_periodicity_violation(self):
        spec = InequalitySpec(1.0, 2.0, Direction.GEQ)
        with pytest.raises(PeriodicityViolation):
            build_solution(spec, lambda t: t, ONE, t_range=(0.0, 10.0))
        # antiperiodic seed required for negative lambda
        spec_neg = InequalitySpec(1.0, -2.0, Direction.GEQ)
        with pytest.raises(PeriodicityViolation):
            build_solution(spec_neg, lambda t: math.sin(2.0 * math.pi * t), ONE)

    def test_spec_validation(self):
        with pytest.raises(ZeroLambda):
            InequalitySpec(1.0, 0.0, Direction.GEQ)


class TestCheckInequality:
    def test_homogeneous_overflow_names_point(self):
        spec = InequalitySpec(1.0, 2.0, Direction.GEQ)
        y = build_solution(spec, ONE, ONE, t_range=(0.0, 10.0))
        with pytest.raises(DomainError, match=r"t=1100\.0 \(lambda=2\.0, h=1\.0\)"):
            y.homogeneous(1100.0)

    def test_staircase_report(self):
        spec = InequalitySpec(1.0, 1.0, Direction.GEQ)
        y = build_solution(spec, ZERO, ONE, t_range=(0.0, 10.0))
        report = check_inequality(y, grid(0.0, 10.0, 64))
        assert report.passed
        assert not report.violations
        assert report.min_residual == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_only_residual_zero(self):
        spec = InequalitySpec(1.0, -1.0, Direction.GEQ)
        mu = lambda t: math.sin(math.pi * t)
        y = build_solution(spec, mu, ZERO, t_range=(0.0, 10.0))
        report = check_inequality(y, grid(0.0, 10.0, 64))
        assert report.passed
        assert abs(report.min_residual) <= 1e-10
        assert abs(report.max_residual) <= 1e-10

    def test_homogeneous_cancellation_general(self):
        rng = random.Random(17)
        cases = [
            (2.0, lambda t: math.cos(2.0 * math.pi * t), 1.0),
            (0.5, lambda t: math.sin(4.0 * math.pi * t), 1.0),
            (-3.0, lambda t: math.sin(math.pi * t), 1.0),
        ]
        for lam, mu, h in cases:
            spec = InequalitySpec(h, lam, Direction.GEQ)
            y = build_solution(spec, mu, ZERO, t_range=(0.0, 8.0))
            for _ in range(40):
                t = rng.uniform(0.0, 8.0)
                r = y(t + h) - lam * y(t)
                assert abs(r) <= 1e-10 * (1.0 + abs(y(t)))

    def test_residual_matches_slack(self):
        spec = InequalitySpec(1.0, 2.0, Direction.GEQ)
        slack = lambda t: 0.25 + 0.25 * math.cos(t)
        mu = lambda t: math.sin(2.0 * math.pi * t)
        y = build_solution(spec, mu, slack, t_range=(0.0, 8.0))
        report = check_inequality(y, grid(0.0, 8.0, 64))
        assert report.passed
        assert report.max_slack_mismatch <= 1e-9

    def test_particular_part_is_resolvent_sum(self):
        # The particular part is the resolvent sum of slack, bit for bit,
        # at dyadic and non-dyadic steps alike.
        from adiff.inequality import SolutionFunction

        rng = random.Random(23)
        slack = lambda t: 0.25 + 0.25 * math.cos(t)
        for h in (1.0, 0.5, 0.1, 0.3, 0.7, 1.0 / 3.0, 2.0):
            for lam in (1.0, -1.0, 0.5, 2.0, -3.0):
                y = SolutionFunction(InequalitySpec(h, lam, Direction.GEQ), ZERO, slack)
                for _ in range(20):
                    t = rng.uniform(-1.0, 6.0)
                    assert y.particular(t) == resolvent_sum(slack, t, lam, h).value, (h, lam, t)

    def test_large_valid_solution_passes(self):
        # y ~ 2^t reaches 1e301; y(t+1) - 2*y(t) loses every digit of the
        # slack there, which is rounding, not a failed check.
        spec = InequalitySpec(1.0, 2.0, Direction.GEQ)
        y = build_solution(spec, ONE, ONE, t_range=(0.0, 1000.0))
        report = check_inequality(y, grid(0.0, 1000.0, 64))
        assert report.min_residual == 0.0
        assert report.passed
        assert report.max_slack_mismatch <= 1e-15

    @pytest.mark.parametrize("error", [1e-3, 1e-6])
    def test_wrong_solution_at_moderate_scale_fails(self, error):
        # The particular part is built with lambda 2 + error while the check
        # reads lambda 2: the residual drifts from the slack by about a
        # quarter of the error relative to y, far beyond rounding.
        from adiff.inequality import SolutionFunction

        spec = InequalitySpec(1.0, 2.0, Direction.GEQ)

        class WrongLambda(SolutionFunction):
            def particular(self, t):
                return resolvent_sum(self.slack, t, 2.0 + error, 1.0).value

        report = check_inequality(WrongLambda(spec, ZERO, ONE), grid(0.0, 10.0, 64))
        assert not report.passed
        assert not report.violations
        assert report.max_slack_mismatch > 100 * SLACK_MATCH_TOL

    @pytest.mark.parametrize("direction, slack", [(Direction.GEQ, -0.5), (Direction.LEQ, 0.5)], ids=["geq", "leq"])
    def test_direction_violation_reported(self, direction, slack):
        # Bypass build-time checks to exercise the reporting path.
        from adiff.inequality import SolutionFunction

        spec = InequalitySpec(1.0, 1.0, direction)
        bad = SolutionFunction(spec, ZERO, lambda t: slack)
        report = check_inequality(bad, grid(0.0, 6.0, 32))
        assert not report.passed
        assert report.violations


    @pytest.mark.parametrize("direction", [Direction.GEQ, Direction.LEQ], ids=["geq", "leq"])
    def test_nan_residual_is_a_violation(self, direction):
        # build_solution refuses a NaN mu; built without it, the solution
        # has a NaN residual at every sample, and each is a violation.
        from adiff.inequality import SolutionFunction

        spec = InequalitySpec(1.0, 1.0, direction)
        ts = grid(0.0, 5.0, 4)
        report = check_inequality(SolutionFunction(spec, lambda t: math.nan, ZERO), ts)
        assert not report.passed
        assert report.violations == ts


class TestLatticePairs:
    """check_inequality reads y(t) and y(t+h) from one lattice pair."""

    def test_grid_point_samples_pass(self):
        # Read at the float t + h, y sums n+2 slack terms for the samples just
        # below a multiple of h, which reports max_residual 2 and FAILs.
        spec = InequalitySpec(0.5, 1.0, Direction.GEQ)
        y = build_solution(spec, ONE, ONE, t_range=(0.0, 3.0), samples=148)
        report = check_inequality(y, grid(0.0, 3.0, 148))
        assert report.passed
        assert report.min_residual == report.max_residual == 1.0

    def test_pairs_read_the_solution_at_t(self):
        # The first of each pair is y(t) itself, bit for bit, at every step;
        # the second is lam*y(t) + slack(t) up to rounding, grid points included.
        from adiff.inequality import SolutionFunction

        rng = random.Random(29)
        slack = lambda t: 0.25 + 0.25 * math.cos(t)
        for h in (1.0, 0.5, 0.1, 0.3, 0.7, 1.0 / 3.0, 2.0):
            for lam in (1.0, -1.0, 0.5, 2.0):
                y = SolutionFunction(InequalitySpec(h, lam, Direction.GEQ), ZERO, slack)
                ts = [rng.randint(0, 40) * h for _ in range(10)] + [rng.uniform(0.0, 8.0) for _ in range(10)]
                for t, (y_t, ahead) in zip(ts, y.pairs(ts)):
                    assert y_t == y(t), (h, lam, t)
                    assert abs(ahead - lam * y_t - slack(t)) <= 1e-9 * (1.0 + abs(ahead)), (h, lam, t)

    def test_rows_for_other_points_are_refused(self):
        # Rows planned for the first 3 samples would check only those 3.
        from adiff.antidiff import lattice_plan

        spec = InequalitySpec(1.0, 2.0, Direction.GEQ)
        y = build_solution(spec, ZERO, ONE, t_range=(0.0, 7.0), samples=8)
        ts = grid(0.0, 7.0, 8)
        rows = lattice_plan(ts[:3], 1.0, [1], [2.0], ahead=True)[2]
        with pytest.raises(DomainError, match="the rows hold 3 points, not the 8 asked for"):
            check_inequality(y, ts, rows)
        with pytest.raises(DomainError, match="the rows hold 3 points, not the 8 asked for"):
            y.pairs(ts, rows)
