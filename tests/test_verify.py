"""Tests for the identity-verification battery."""

import math
import pathlib
import random

import pytest

from adiff.cli import main
from adiff.errors import DomainError
from adiff.numkit import floor_mod
from adiff.verify import _FACTOR_CORPUS, IDENTITY_NAMES, factorization_identity_check, fmt17, run_battery, run_identity

DATA = pathlib.Path(__file__).resolve().parent / "data"


class TestRunIdentity:
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_each_identity_passes_at_default_tolerance(self, name):
        report = run_identity(name, samples=100, tol=1e-8, seed=42)
        assert report.passed, report.format_line()
        assert report.samples == 100
        assert not report.witnesses

    def test_deterministic_given_seed(self):
        a = run_identity("digamma", samples=50, tol=1e-8, seed=7)
        b = run_identity("digamma", samples=50, tol=1e-8, seed=7)
        assert a == b
        c = run_identity("digamma", samples=50, tol=1e-8, seed=8)
        assert c.max_abs_residual != a.max_abs_residual

    def test_same_report_alone_or_in_battery(self):
        alone = run_identity("mueller", samples=30, tol=1e-8, seed=42)
        batch = run_battery("all", samples=30, tol=1e-8, seed=42)
        in_batch = next(r for r in batch if r.name == "mueller")
        assert alone == in_batch

    def test_float_noise_identities_fail_at_zero_tolerance(self):
        # Identities evaluated through genuinely different floating-point
        # routes have nonzero residuals; the all-integer fundamental-theorem
        # check is exact in binary64 and is legitimately zero.
        for name in ["digamma", "exponential", "mueller"]:
            report = run_identity(name, samples=50, tol=0.0, seed=42)
            assert not report.passed
            assert report.witnesses
        exact = run_identity("fundamental", samples=50, tol=0.0, seed=42)
        assert exact.max_abs_residual == 0.0

    def test_unknown_identity(self):
        with pytest.raises(DomainError):
            run_identity("nope")

    def test_validation(self):
        with pytest.raises(DomainError):
            run_identity("digamma", samples=0)
        with pytest.raises(DomainError):
            run_identity("digamma", tol=-1.0)

    def test_report_line_format(self):
        report = run_identity("sincos", samples=20, tol=1e-8, seed=42)
        line = report.format_line()
        assert line.startswith("sincos: samples=20 max_abs_residual=")
        assert line.endswith("PASS")


class TestBattery:
    def test_all_runs_in_declared_order(self):
        reports = run_battery("all", samples=20, tol=1e-8, seed=42)
        assert [r.name for r in reports] == list(IDENTITY_NAMES)

    def test_single_name(self):
        reports = run_battery("gammaratio", samples=20)
        assert len(reports) == 1 and reports[0].name == "gammaratio"


class TestRecordedBattery:
    @pytest.mark.parametrize("seed", [1, 777, 12345])
    def test_all_identities_keep_their_recorded_bytes(self, capsys, seed):
        # Recorded before the Mueller and definite-sum loops were rewritten
        # with fewer operations per term; the printed residuals are the
        # identities' contract, so every digit must stay.
        code = main(["verify", "--identity", "all", "--samples", "300", "--seed", str(seed)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, (DATA / f"verify_all_seed{seed}.txt").read_text(), "")


class TestFmt17:
    def test_roundtrip_exact(self):
        for x in [0.1, 1.0 / 3.0, 9.899494936611665, 2.0**-40, 12345.678]:
            assert float(fmt17(x)) == x

    def test_compact_integers(self):
        assert fmt17(3.0) == "3"
        assert fmt17(-0.0) == "0"


class TestNanTolerance:
    def test_nan_tolerance_rejected(self):
        # NaN compares false both ways, so it would grade every residual PASS.
        with pytest.raises(DomainError, match="tolerance must be nonnegative"):
            run_identity("digamma", tol=math.nan)
        with pytest.raises(DomainError):
            run_battery("all", tol=math.nan)


class TestFactorIdentityScale:
    @pytest.mark.parametrize("name", ["E2minus4", "E2plus1"])
    @pytest.mark.parametrize("seed", [1, 3, 777])
    def test_residual_scale_is_the_left_to_right_sum(self, name, seed):
        # The scale is the step-2 sum added in ascending s with plain float
        # adds; builtin sum() compensates on Python >= 3.12 and would make
        # the printed residual depend on the interpreter.
        lam, scale = {"E2minus4": (4.0, 4.0), "E2plus1": (-1.0, 1.0)}[name]
        rng = random.Random(f"{seed}:factor-{name.lower()}")
        worst = 0.0
        for _ in range(200):
            t = rng.uniform(0.0, 12.0)
            f = _FACTOR_CORPUS[rng.randrange(len(_FACTOR_CORPUS))]
            rhs, w = 0.0, scale
            for s in range(1, max(floor_mod(t, 2.0).n, 0) + 1):
                rhs += w * f(t - 2.0 * s)
                w *= lam
            worst = max(worst, factorization_identity_check(name, f, t) / (1.0 + abs(rhs)))
        report = run_identity(f"factor-{name.lower()}", samples=200, seed=seed)
        assert report.max_abs_residual == worst
