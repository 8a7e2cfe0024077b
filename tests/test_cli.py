"""CLI contract tests: values, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiff import cli
from adiff.cli import (
    EXIT_BUDGET,
    EXIT_CROSSCHECK,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
    parse_complex,
    parse_factors,
)
from adiff.antidiff import lattice_sums_calls
from adiff.errors import DomainError
from adiff.exprlang import as_function
from adiff.opalgebra import FactoredOperator, lattice_plan, particular_solution, verify_particular


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_fields(line):
    return dict(part.split("=", 1) for part in line.strip().split())


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2.0),
            ("-3.5", -3.5),
            ("1i", 1j),
            ("-1i", -1j),
            ("i", 1j),
            ("0.5-0.5i", 0.5 - 0.5j),
            ("2+0i", 2.0),
        ],
    )
    def test_accepted(self, text, expected):
        got = parse_complex(text)
        assert got == expected
        assert isinstance(got, complex) == isinstance(expected, complex)

    @pytest.mark.parametrize("text", ["", "pi", "1+", "2x", "1 + 2i"])
    def test_rejected(self, text):
        with pytest.raises(DomainError):
            parse_complex(text)


class TestParseFactors:
    def test_two_factors(self):
        op = parse_factors("1:2;1:-2")
        assert [(f.h, f.lam) for f in op.factors] == [(1.0, 2 + 0j), (1.0, -2 + 0j)]

    def test_complex_factor(self):
        op = parse_factors("1:1i;1:-1i")
        assert [f.lam for f in op.factors] == [1j, -1j]

    @pytest.mark.parametrize("text", ["", "1", "1:2;;", "x:2", "1:0"])
    def test_rejected(self, text):
        with pytest.raises(Exception):
            parse_factors(text)

    def test_empty_factor_list_exit_2(self, capsys):
        code, out, err = run_main(capsys, "solve", "--factors", "", "--expr", "1", "--t", "2")
        assert code == EXIT_INPUT
        assert out == ""
        assert "factor '' must look like h:lambda" in err


class TestEval:
    def test_constant(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--expr", "1", "--t", "3.7")
        assert code == EXIT_OK
        fields = record_fields(out)
        assert fields["value"] == "3"
        assert fields["terms_used"] == "3"
        assert fields["residual"] == "0"

    def test_identity_function(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--expr", "t", "--t", "4.5")
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "8"

    def test_empty_sum(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--expr", "2^t", "--t", "0.5")
        assert code == EXIT_OK
        fields = record_fields(out)
        assert fields["value"] == "0"
        assert fields["terms_used"] == "0"

    def test_resolvent_flags(self, capsys):
        code, out, _ = run_main(
            capsys, "eval", "--expr", "1", "--t", "5", "--lambda", "4", "--h", "2"
        )
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "5"

    def test_complex_lambda(self, capsys):
        # sum of i^(s-1) over s=1..3 is 1 + i - 1 = i
        code, out, _ = run_main(
            capsys, "eval", "--expr", "1", "--t", "3.5", "--lambda", "1i"
        )
        assert code == EXIT_OK
        fields = record_fields(out)
        assert fields["value"] == "0"
        assert fields["imag"] == "1"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_main(capsys, "eval", "--expr", "2 +", "--t", "1")
        assert code == EXIT_INPUT
        assert "position" in err

    @pytest.mark.parametrize(
        "expr,t,message",
        [
            ("+".join(["t"] * 3000), "3", "nests too deeply"),
            ("^".join(["t"] * 3000), "3", "nests too deeply"),
            ("(1e-200*t)^-2", "3", "division-by-zero"),
            ("sin(exp(t))", "1000", "domain: sin of an infinite value (at position 0)"),
        ],
        ids=["sum-chain", "power-chain", "negative-power-underflow", "sin-of-infinity"],
    )
    def test_former_crashes_exit_2(self, capsys, expr, t, message):
        code, out, err = run_main(capsys, "eval", "--expr", expr, "--t", t)
        assert code == EXIT_INPUT
        assert out == ""
        assert message in err and "position" in err

    def test_quotient_overflow_exit_2(self, capsys):
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "1e300", "--h", "1e-300")
        assert code == EXIT_INPUT
        assert out == ""
        assert "t/h overflows for t = 1e+300 and h = 1e-300" in err

    def test_digamma_far_below_zero(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--expr", "digamma(t-1e9)", "--t", "0.5")
        assert code == EXIT_OK
        assert record_fields(out)["terms_used"] == "0"


class TestSolve:
    def test_factor_pair_value(self, capsys):
        code, out, _ = run_main(
            capsys, "solve", "--factors", "1:2;1:-2", "--expr", "1", "--t", "4.5"
        )
        assert code == EXIT_OK
        fields = record_fields(out)
        assert fields["value"] == "5"
        assert float(fields["residual"]) < 1e-9

    def test_single_mod2_factor_matches(self, capsys):
        code, out, _ = run_main(
            capsys, "solve", "--factors", "2:4", "--expr", "1", "--t", "4.5"
        )
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "5"

    def test_conjugate_pair_real_output(self, capsys):
        code, out, _ = run_main(
            capsys, "solve", "--factors", "1:1i;1:-1i", "--expr", "t", "--t", "6.5"
        )
        assert code == EXIT_OK
        fields = record_fields(out)
        assert abs(float(fields["imag"])) < 1e-10
        assert float(fields["residual"]) < 1e-9

    def test_budget_exit_3(self, capsys):
        code, _, err = run_main(
            capsys,
            "solve", "--factors", "1:2;1:2", "--expr", "1", "--t", "50.5",
            "--budget", "100",
        )
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("ADIFF_TERM_BUDGET", "100")
        code, _, _ = run_main(
            capsys, "solve", "--factors", "1:2;1:2", "--expr", "1", "--t", "50.5"
        )
        assert code == EXIT_BUDGET
        # explicit flag wins over the environment
        code, out, _ = run_main(
            capsys,
            "solve", "--factors", "1:2;1:2", "--expr", "1", "--t", "50.5",
            "--budget", "10000000",
        )
        assert code == EXIT_OK

    def test_quotient_overflow_exit_2(self, capsys):
        code, out, err = run_main(capsys, "solve", "--factors", "1e-300:1", "--expr", "1", "--t", "1e10")
        assert code == EXIT_INPUT
        assert out == ""
        assert "t/h overflows for t = 10000000000.0 and h = 1e-300" in err

    @pytest.mark.parametrize("h", ["0.1", "0.3", "0.3333333333333333", "0.7", "1.5"])
    @pytest.mark.parametrize("lam", ["0.9", "-1.3", "0.3-0.8i"])
    def test_one_factor_equals_eval(self, capsys, h, lam):
        # terms_used is the top layer's n, so it is 0 for an empty sum.
        for t in ["7.3", "2.9", "11.05", "0.05", "-2.5", h]:
            _, solved, _ = run_main(capsys, "solve", "--factors", f"{h}:{lam}", "--expr", "cos(t)", "--t", t)
            _, evaluated, _ = run_main(capsys, "eval", "--h", h, "--lambda", lam, "--expr", "cos(t)", "--t", t)
            solved, evaluated = record_fields(solved), record_fields(evaluated)
            assert (solved["value"], solved["imag"]) == (evaluated["value"], evaluated["imag"]), (h, lam, t)
            assert solved["terms_used"] == evaluated["terms_used"]


class TestSum:
    def test_square_pyramid(self, capsys):
        code, out, _ = run_main(capsys, "sum", "--expr", "t^2", "--from", "1", "--to", "5")
        assert code == EXIT_OK
        assert out.strip() == "55"

    def test_single_point(self, capsys):
        code, out, _ = run_main(capsys, "sum", "--expr", "t^3 - t", "--from", "3", "--to", "3")
        assert code == EXIT_OK
        assert out.strip() == "24"

    def test_geometric(self, capsys):
        code, out, _ = run_main(capsys, "sum", "--expr", "2^t", "--from", "0", "--to", "10")
        assert code == EXIT_OK
        assert out.strip() == "2047"

    def test_bad_bounds_exit_2(self, capsys):
        code, _, _ = run_main(capsys, "sum", "--expr", "t", "--from", "5", "--to", "4")
        assert code == EXIT_INPUT

    def test_bad_bounds_checked_before_the_budget(self, capsys, summand_calls):
        code, _, err = run_main(capsys, "sum", "--expr", "1", "--from", "2000000000", "--to", "0")
        assert (code, summand_calls[0]) == (EXIT_INPUT, 0)
        assert err == "adiff: lower bound 2000000000 exceeds upper bound 0\n"

    def test_over_default_budget_exits_3_before_any_call(self, capsys, summand_calls):
        code, out, err = run_main(capsys, "sum", "--expr", "1", "--from", "0", "--to", "1000000000")
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert "--budget" in err

    @pytest.mark.parametrize(
        "lo, hi, calls", [("0", "99", 100), ("7", "99", 100), ("-5", "5", 11), ("-99", "-1", 99)]
    )
    def test_budget_is_the_exact_call_count(self, capsys, summand_calls, lo, hi, calls):
        argv = ("sum", "--expr", "t", "--from", lo, "--to", hi)
        code, _, _ = run_main(capsys, *argv, "--budget", str(calls - 1))
        assert (code, summand_calls[0]) == (EXIT_BUDGET, 0)
        code, _, _ = run_main(capsys, *argv, "--budget", str(calls))
        assert (code, summand_calls[0]) == (EXIT_OK, calls)

    def test_budget_from_the_environment(self, capsys, monkeypatch, summand_calls):
        monkeypatch.setenv(cli.BUDGET_ENV_VAR, "99")
        argv = ("sum", "--expr", "t", "--from", "0", "--to", "99")
        assert run_main(capsys, *argv)[0] == EXIT_BUDGET
        assert run_main(capsys, *argv, "--budget", "100")[0] == EXIT_OK
        assert summand_calls[0] == 100

    @pytest.mark.parametrize("lo", ["0", "-3"])
    def test_non_finite_sum_exit_2(self, capsys, lo):
        code, out, err = run_main(capsys, "sum", "--expr", "exp(t*1000)", "--from", lo, "--to", "5")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"adiff: the sum over [{lo}, 5] is inf, not a finite number\n"

    def test_cross_check_mismatch_exit_4(self, capsys):
        code, out, err = run_main(capsys, "sum", "--expr", "1e20^(1-t)", "--from", "1", "--to", "3")
        assert (code, out) == (EXIT_CROSSCHECK, "")
        assert err == "adiff: fundamental-theorem path 0.0 disagrees with direct loop 1.0\n"

    def test_highest_failing_point_is_named(self, capsys):
        # The summand is first called at --to: ln(t-3) fails at 3 before 0.
        code, out, err = run_main(capsys, "sum", "--expr", "ln(t-3)", "--from", "0", "--to", "10")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "adiff: domain: ln of non-positive value 0.0 (at position 0)\n"


class TestTable:
    def test_csv_staircase(self, capsys):
        code, out, _ = run_main(
            capsys,
            "table", "--expr", "1", "--from", "0", "--to", "3", "--step", "0.5",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,value,imag,terms_used,residual"
        values = [line.split(",")[1] for line in lines[1:]]
        assert values == ["0", "0", "1", "1", "2", "2", "3"]

    def test_json_parity_with_csv(self, capsys):
        args = ["table", "--expr", "t^2", "--from", "0.25", "--to", "4.25", "--step", "0.5"]
        code, csv_out, _ = run_main(capsys, *args)
        assert code == EXIT_OK
        code, json_out, _ = run_main(capsys, *args, "--format", "json")
        assert code == EXIT_OK
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        json_rows = [json.loads(line) for line in json_out.strip().splitlines()]
        assert len(csv_rows) == len(json_rows) == 9
        for cells, obj in zip(csv_rows, json_rows):
            assert set(obj) == {"t", "value", "imag", "terms_used", "residual"}
            for cell, key in zip(cells, ["t", "value", "imag", "terms_used", "residual"]):
                assert float(cell) == float(obj[key])

    def test_resolvent_mode(self, capsys):
        code, out, _ = run_main(
            capsys,
            "table", "--expr", "1", "--from", "0.2", "--to", "3.2", "--step", "1",
            "--mode", "resolvent", "--lambda", "2",
        )
        assert code == EXIT_OK
        values = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert values == ["0", "1", "3", "7"]  # geometric partial sums

    def test_solve_mode(self, capsys):
        code, out, _ = run_main(
            capsys,
            "table", "--expr", "1", "--from", "4.5", "--to", "5.6", "--step", "1",
            "--mode", "solve", "--factors", "1:2;1:-2",
        )
        assert code == EXIT_OK
        first = out.strip().splitlines()[1].split(",")
        assert first[1] == "5"

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run_main(
            capsys, "table", "--expr", "1", "--from", "3", "--to", "3", "--step", "0.5"
        )
        assert code == EXIT_INPUT
        code, _, _ = run_main(
            capsys, "table", "--expr", "1", "--from", "0", "--to", "3", "--step", "0"
        )
        assert code == EXIT_INPUT

    def test_row_count_overflow_names_step(self, capsys):
        code, out, err = run_main(
            capsys, "table", "--expr", "1", "--from", "0", "--to", "1e300", "--step", "1e-300"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("adiff: --step 1e-300 ")
        assert "infinity" not in err

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (("--to", "1e15"), "10000000"),
            (("--to", "200000", "--mode", "resolvent", "--lambda", "0.5", "--budget", "1000"), "1000"),
            (("--to", "200000", "--mode", "solve", "--factors", "1:0.5", "--budget", "1000"), "1000"),
        ],
        ids=["default-budget", "resolvent", "solve"],
    )
    def test_row_count_over_budget_exits_3(self, capsys, summand_calls, argv, budget):
        # Every row calls f at least once, so the row count is charged
        # before the points are built.
        code, out, err = run_main(capsys, "table", "--expr", "1", "--from", "0", "--step", "1", *argv)
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        rows = int(float(argv[1])) + 1
        assert err == f"adiff: table needs at least {rows} evaluations, budget is {budget} (set it with --budget)\n"

    @pytest.mark.parametrize(
        "mode, h, hi, step",
        [("antidiff", "1", "12", "0.5"), ("resolvent", "0.3", "9.1", "0.7"), ("resolvent", "1", "70000", "35000")],
    )
    def test_sum_modes_charge_the_exact_call_count(self, capsys, summand_calls, mode, h, hi, step):
        # The calls of lattice_sums plus each row's f(t); the last case is
        # over the class cap, where each count refolds.
        ts = [i * float(step) for i in range(round(float(hi) / float(step)) + 1)]
        calls = lattice_sums_calls(ts, 1.0, float(h) if mode == "resolvent" else 1.0) + len(ts)
        argv = ("table", "--expr", "cos(t)", "--from", "0", "--to", hi, "--step", step,
                "--mode", mode, "--h", h, "--lambda", "0.5", "--budget")
        code, out, err = run_main(capsys, *argv, str(calls - 1))
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err == f"adiff: table needs {calls} evaluations, budget is {calls - 1} (set it with --budget)\n"
        code, out, _ = run_main(capsys, *argv, str(calls))
        assert (code, summand_calls[0], len(out.splitlines())) == (EXIT_OK, calls, len(ts) + 1)

    @pytest.mark.parametrize(
        "lo, hi, flag",
        [("0", "inf", "--to"), ("-inf", "3", "--from"), ("nan", "3", "--from")],
    )
    def test_non_finite_range_names_the_flag(self, capsys, lo, hi, flag):
        code, out, err = run_main(
            capsys, "table", "--expr", "1", f"--from={lo}", f"--to={hi}", "--step", "1"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert f"{flag} must be finite" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "expr, lo, hi, step",
        [
            ("t^2", "0.25", "6.25", "0.5"),
            ("sin(t) + 1/(1 + t)", "-1.5", "9.3", "0.7"),
            ("2^t - 3", "0", "12", "1"),
        ],
    )
    def test_antidiff_mode_is_unit_resolvent(self, capsys, fmt, expr, lo, hi, step):
        grid = ["table", "--expr", expr, "--from", lo, "--to", hi, "--step", step, "--format", fmt]
        code, antidiff_out, _ = run_main(capsys, *grid, "--mode", "antidiff")
        assert code == EXIT_OK
        code, resolvent_out, _ = run_main(
            capsys, *grid, "--mode", "resolvent", "--lambda", "1", "--h", "1"
        )
        assert code == EXIT_OK
        assert antidiff_out == resolvent_out

    @pytest.mark.parametrize(
        "expr, lam, h",
        [
            ("t^2", "1", "1"),
            ("cos(t)", "-0.5", "0.3"),
            ("1 + t", "0.5+1i", "0.7"),
            ("0.5^t", "-0.9", "0.5"),  # step == h: rows share cached points
        ],
    )
    def test_eval_matches_table_rows(self, capsys, expr, lam, h):
        code, out, _ = run_main(
            capsys,
            "table", "--expr", expr, "--from", "0.25", "--to", "5.25", "--step", "0.5",
            "--mode", "resolvent", "--lambda", lam, "--h", h,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            code, eval_out, _ = run_main(
                capsys, "eval", "--expr", expr, "--t", row["t"], "--lambda", lam, "--h", h
            )
            assert code == EXIT_OK
            assert record_fields(eval_out) == row

    def test_json_non_finite_exit_2(self, capsys):
        code, out, err = run_main(
            capsys,
            "table", "--expr", "exp(t*100)", "--from", "0", "--to", "10", "--step", "5",
            "--format", "json",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("adiff: ")
        assert "t=" in err

    def test_json_non_finite_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "grid.json"
        code, out, _ = run_main(
            capsys,
            "table", "--expr", "exp(t*100)", "--from", "0", "--to", "10", "--step", "5",
            "--format", "json", "--out", str(target),
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert not target.exists()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_main(
            capsys,
            "table", "--expr", "1", "--from", "0", "--to", "2", "--step", "1",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        content = target.read_text().splitlines()
        assert content[0] == "t,value,imag,terms_used,residual"
        assert len(content) == 4

    def test_unwritable_out_exit_5(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys,
            "table", "--expr", "1", "--from", "0", "--to", "2", "--step", "1",
            "--out", str(tmp_path / "missing_dir" / "grid.csv"),
        )
        assert code == EXIT_IO


class TestVerifyCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--samples", "40")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 11
        assert all(line.endswith("PASS") for line in lines)

    def test_single_identity(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--identity", "digamma", "--samples", "40")
        assert code == EXIT_OK
        assert out.startswith("digamma:")

    def test_impossible_tolerance_exit_1(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--identity", "digamma", "--samples", "40", "--tol", "1e-30"
        )
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out
        assert "witnesses" in out

    def test_unknown_identity_exit_2(self, capsys):
        code, _, _ = run_main(capsys, "verify", "--identity", "bogus")
        assert code == EXIT_INPUT

    def test_nan_tolerance_exit_2(self, capsys):
        code, out, err = run_main(capsys, "verify", "--identity", "digamma", "--tol", "nan")
        assert code == EXIT_INPUT
        assert out == ""
        assert "tolerance must be nonnegative, got nan" in err

    @pytest.mark.parametrize("identity, count", [("all", 11_000_000_000), ("sincos", 1_000_000_000)])
    def test_over_default_budget_exits_3_before_any_sample(self, capsys, monkeypatch, identity, count):
        monkeypatch.setattr(cli, "run_battery", lambda *a, **k: pytest.fail("battery ran"))
        code, out, err = run_main(capsys, "verify", "--identity", identity, "--samples", "1000000000")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == (
            f"adiff: verify needs at least {count} evaluations, budget is 10000000 "
            "(set it with ADIFF_TERM_BUDGET)\n"
        )

    @pytest.mark.parametrize("identity, charge", [("all", 33), ("digamma", 3)])
    def test_charge_is_samples_per_identity(self, capsys, monkeypatch, identity, charge):
        argv = ("verify", "--identity", identity, "--samples", "3")
        monkeypatch.setenv("ADIFF_TERM_BUDGET", str(charge - 1))
        assert run_main(capsys, *argv)[0] == EXIT_BUDGET
        monkeypatch.setenv("ADIFF_TERM_BUDGET", str(charge))
        assert run_main(capsys, *argv)[0] == EXIT_OK


@pytest.fixture
def summand_calls(monkeypatch):
    """Count every call of the summands the CLI builds from --expr."""
    calls = [0]

    def counting(source):
        f = as_function(source)

        def g(u):
            calls[0] += 1
            return f(u)

        return g

    monkeypatch.setattr(cli, "as_function", counting)
    return calls


_SOLVE_STEPS = ["1", "0.5", "0.25", "2", "0.3"]
_SOLVE_EXPRS = ["1", "t", "cos(t)", "0.5^t", "1/(1 + t^2)"]
_coefficient = st.integers(-15, 15).map(lambda k: k / 10)


@st.composite
def solve_tables(draw):
    """A 1-3 factor operator with a complex coefficient per factor, and a grid."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        re, im = draw(st.tuples(_coefficient, _coefficient).filter(lambda z: z != (0, 0)))
        factors.append(f"{draw(st.sampled_from(_SOLVE_STEPS))}:{re}{im:+}i")
    lo = draw(st.integers(-10, 30)) / 10
    step = draw(st.sampled_from(["1", "0.5", "0.25", "0.3", "0.7"]))
    span = draw(st.integers(1, 40)) / 10
    return ";".join(factors), draw(st.sampled_from(_SOLVE_EXPRS)), str(lo), str(lo + span), step


class TestSolveChain:
    """solve and table --mode solve read one solution chain per command."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(solve_tables())
    def test_table_rows_equal_solve_at_each_point(self, case):
        factors, expr, lo, hi, step = case
        code, out = self._run(
            "table", "--expr", expr, f"--from={lo}", "--to", hi, "--step", step,
            "--mode", "solve", "--factors", factors,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            code, solve_out = self._run(
                "solve", "--factors", factors, "--expr", expr, f"--t={row['t']}"
            )
            assert code == EXIT_OK
            assert record_fields(solve_out) == row, (factors, expr, row["t"])

    @staticmethod
    def _run(*argv):
        # hypothesis does not mix with function-scoped fixtures such as capsys.
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        return code, buffer.getvalue()

    @pytest.mark.parametrize(
        "grid, factors, charges",
        [
            # Rows 0..11 of two unit factors: outer layer at indices 0..13
            # (91 terms), inner at 0..12 (78), f at 0..11 and once per row
            # (12 + 12) is 193; row 12 adds 29.
            (("0", "12", "1"), "1:2;1:3", (193, 222)),
            (("0.5", "12.5", "0.5"), "1:0.5;0.5:2", (596, 639)),
        ],
    )
    def test_later_row_charged_before_any_call(self, capsys, summand_calls, grid, factors, charges):
        lo, hi, step = grid
        op = parse_factors(factors)
        ts = [float(lo) + i * float(step) for i in range(round((float(hi) - float(lo)) / float(step)) + 1)]
        assert (lattice_plan(op, ts[:-1])[1], lattice_plan(op, ts)[1]) == charges
        table = ("table", "--expr", "1", "--from", lo, "--step", step, "--mode", "solve", "--factors", factors)
        budget = str(charges[0])
        # The last row alone takes the table over budget: exit 3, no row, no call.
        code, out, err = run_main(capsys, *table, "--to", hi, "--budget", budget)
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err.startswith("adiff: nested sum needs ") and err.endswith(f"budget is {budget}\n")
        # Without it the table fits exactly, and calls f as often as charged
        # less the terms of the layers.
        code, out, _ = run_main(capsys, *table, "--to", repr(ts[-2]), "--budget", budget)
        assert code == EXIT_OK
        assert len(out.splitlines()) == len(ts)
        code, _, _ = run_main(capsys, *table, "--to", repr(ts[-2]), "--budget", str(charges[0] - 1))
        assert code == EXIT_BUDGET

    @pytest.mark.parametrize(
        "factors, lo, hi, step",
        [
            ("1:0.72;1:0.72", "0", "20", "1"),
            ("0.5:0.9;1:-0.7", "0.25", "10.25", "1"),
            ("0.5:0.9;0.5:-0.8;1:1.1", "0", "8", "0.5"),
        ],
    )
    def test_table_costs_its_last_row_plus_one_per_row(
        self, capsys, summand_calls, factors, lo, hi, step
    ):
        code, out, _ = run_main(
            capsys,
            "table", "--expr", "cos(t)", "--from", lo, "--to", hi, "--step", step,
            "--mode", "solve", "--factors", factors,
        )
        assert code == EXIT_OK
        table_calls, summand_calls[0] = summand_calls[0], 0
        rows = out.strip().splitlines()[1:]
        assert rows[-1].split(",")[0] == hi
        code, _, _ = run_main(capsys, "solve", "--factors", factors, "--expr", "cos(t)", "--t", hi)
        assert code == EXIT_OK
        assert table_calls <= summand_calls[0] + len(rows)

    @pytest.mark.parametrize(
        "factors, t",
        [("1:0.72;1:0.72", "20"), ("1:0.9;1:0.9;1:0.9", "12.5"), ("1:0.8;0.5:-0.7", "20.3")],
    )
    def test_solve_costs_no_more_than_its_residual(self, capsys, summand_calls, factors, t):
        code, _, _ = run_main(capsys, "solve", "--factors", factors, "--expr", "cos(t)", "--t", t)
        assert code == EXIT_OK
        solve_calls, summand_calls[0] = summand_calls[0], 0
        # cli.as_function is the counting one here.
        verify_particular(parse_factors(factors), cli.as_function("cos(t)"), float(t))
        assert 0 < solve_calls <= summand_calls[0]


_LAW_STEPS = ["0.1", "0.3", "0.25", "0.3333333333333333", "0.5", "1", "2"]
_LAW_LAMBDAS = ["1", "-1", "0.5", "-0.9", "1i", "-1i", "0.6+0.8i", "0.5-0.5i"]


@st.composite
def law_operators(draw):
    """1-3 factors at steps from _LAW_STEPS, each |lambda| <= 1, as --factors text.

    1/3 with another step puts the operator on the lattice g = 1e-16.
    """
    count = draw(st.integers(1, 3))
    return ";".join(
        f"{draw(st.sampled_from(_LAW_STEPS))}:{draw(st.sampled_from(_LAW_LAMBDAS))}"
        for _ in range(count)
    )


def _solve_law_bound(factors, expr, t):
    """1e-8 times the scale bench/reference.py reads a solve residual against.

    The scale is |f(t)| plus, over the 2^k shifted points t + d of op y, the
    point's |weight| times the sum of the |terms| of y there: the solution
    with every lambda and f replaced by their absolute values. With
    |lambda| <= 1 a term summed twice or left out is far above it.
    """
    op = parse_factors(factors)
    f = as_function(expr)
    magnitudes = FactoredOperator.from_pairs([(x.h, abs(x.lam)) for x in op.factors])
    scale = abs(f(t))
    shifts = [(0.0, 1.0)]
    for factor in op.factors:
        shifts = [(d + factor.h, w) for d, w in shifts] + [(d, w * abs(factor.lam)) for d, w in shifts]
    for d, w in shifts:
        scale += w * abs(particular_solution(magnitudes, lambda u: abs(f(u)), t + d))
    return 1e-8 * scale + 1e-300


class TestSolveResidualLaw:
    """op y - f vanishes to rounding at every point solve and its table print."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        law_operators(),
        st.sampled_from(_SOLVE_EXPRS),
        st.one_of(st.integers(0, 40).map(lambda k: repr(k * 0.1)), st.floats(0.0, 4.0).map(repr)),
    )
    def test_solve(self, factors, expr, t):
        code, out = _main_quiet("solve", "--factors", factors, f"--expr={expr}", f"--t={t}")
        assert code == EXIT_OK
        row = record_fields(out)
        assert float(row["residual"]) <= _solve_law_bound(factors, expr, float(t)), (factors, expr, row)

    @settings(max_examples=15, deadline=None, database=None)
    @given(
        law_operators(),
        st.sampled_from(_SOLVE_EXPRS),
        st.sampled_from(["0.1", "0.3", "0.25", "0.5", "0.7"]),
        st.integers(0, 10).map(lambda k: k / 10),
    )
    def test_table(self, factors, expr, step, lo):
        code, out = _main_quiet(
            "table", "--mode", "solve", "--factors", factors, f"--expr={expr}",
            "--from", repr(lo), "--to", repr(lo + 3.0), "--step", step,
        )
        assert code == EXIT_OK
        for line in out.splitlines()[1:]:
            t, _, _, _, resid = line.split(",")
            assert float(resid) <= _solve_law_bound(factors, expr, float(t)), (factors, expr, line)

    def test_non_dyadic_table_has_no_residual(self, capsys):
        # Rows k*0.1 of a 0.1-step solve: 6 of these 51 rows printed a
        # nonzero residual when the residual shifted its points as floats.
        code, out, _ = run_main(
            capsys, "table", "--mode", "solve", "--factors", "0.1:1", "--expr", "1",
            "--from", "0", "--to", "5", "--step", "0.1",
        )
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert len(rows) == 51
        assert [row.split(",")[4] for row in rows] == ["0"] * 51
        code, out, _ = run_main(capsys, "solve", "--factors", "0.1:1", "--expr", "1", "--t", "1.7")
        assert out == "t=1.7 value=16 imag=0 terms_used=16 residual=0\n"

    def test_steps_without_a_short_common_unit_have_no_residual(self, capsys):
        # Steps 0.1 and 1/3 share g = 1e-16. Rows 0.2 and 0.8 read |f(t)| = 1
        # when the residual shifted its points as floats.
        code, out, _ = run_main(
            capsys, "table", "--mode", "solve", "--factors", "0.1:1;0.3333333333333333:1",
            "--expr", "1", "--from", "0", "--to", "1", "--step", "0.1",
        )
        assert code == EXIT_OK
        assert [row.split(",")[4] for row in out.splitlines()[1:]] == ["0"] * 11

    def test_three_unit_factors_far_out_fit_the_default_budget(self, capsys):
        # About 92 000 terms and 302 summand calls, where the product bound
        # read 300^3 = 27 000 000.
        code, out, _ = run_main(
            capsys, "solve", "--factors", "1:0.9;1:0.9;1:0.9", "--expr", "1", "--t", "300.5"
        )
        assert code == EXIT_OK
        assert record_fields(out)["terms_used"] == "300"


class TestInequalityCommand:
    def test_staircase_passes(self, capsys):
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1", "--direction", "geq",
            "--mu", "0", "--slack", "1", "--from", "0", "--to", "10",
        )
        assert code == EXIT_OK
        assert "PASS" in out
        assert "min_residual=1" in out

    def test_boundary_antiperiodic_passes(self, capsys):
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "-1", "--direction", "geq",
            "--mu", "sin(pi*t)", "--slack", "0", "--from", "0", "--to", "10",
        )
        assert code == EXIT_OK
        assert "PASS" in out

    def test_leq_construction_passes(self, capsys):
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "2", "--lambda", "3", "--direction", "leq",
            "--mu", "0", "--slack", "-1", "--from", "0", "--to", "10",
        )
        assert code == EXIT_OK
        assert "PASS" in out

    def test_sign_violation_exit_2(self, capsys):
        code, _, err = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1", "--direction", "geq",
            "--mu", "0", "--slack", "-1", "--from", "0", "--to", "10",
        )
        assert code == EXIT_INPUT
        assert "negative" in err

    def test_overflow_exit_2(self, capsys):
        code, out, err = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1e300", "--direction", "geq",
            "--mu", "1", "--slack", "1", "--from", "0", "--to", "6",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("adiff: ")

    @pytest.mark.parametrize("lam, to", [("1e300", "6"), ("2", "1100")])
    def test_overflow_names_the_point(self, capsys, lam, to):
        code, out, err = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", lam, "--direction", "geq",
            "--mu", "1", "--slack", "1", "--from", "0", "--to", to,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "t=" in err and f"lambda={float(lam)!r}" in err and "h=1.0" in err
        assert "Numerical result out of range" not in err

    def run_staircase(self, capsys, *extra):
        return run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1", "--direction", "geq",
            "--mu", "0", "--slack", "1", *extra,
        )

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        code, out, err = self.run_staircase(
            capsys, "--from", "0", "--to", "10", "--samples", samples
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "--samples must be at least 1" in err

    def test_one_sample_is_reported_as_one(self, capsys):
        code, out, _ = self.run_staircase(capsys, "--from", "0", "--to", "10", "--samples", "1")
        assert code == EXIT_OK
        assert "samples=1 " in out

    @pytest.mark.parametrize("lo, hi", [("5", "0"), ("3", "3")])
    def test_reversed_range_exit_2(self, capsys, lo, hi):
        code, out, err = self.run_staircase(capsys, "--from", lo, "--to", hi)
        assert code == EXIT_INPUT
        assert out == ""
        assert "--from must be less than --to" in err

    @pytest.mark.parametrize(
        "lam, mu, to", [("2", "1", "1000"), ("3", "1", "600"), ("-3", "cos(pi*t)", "600")]
    )
    def test_valid_growing_solution_passes(self, capsys, lam, mu, to):
        # y grows like |lambda|^t, so y(t+1) - lambda*y(t) = 1 is read against
        # the size of its two terms, whose low digits the difference loses.
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", lam, "--direction", "geq",
            "--mu", mu, "--slack", "1", "--from", "0", "--to", to,
        )
        assert code == EXIT_OK
        assert out.endswith(" violations=0 PASS\n")

    @pytest.mark.parametrize("lo, hi, flag", [("0", "inf", "--to"), ("nan", "10", "--from")])
    def test_non_finite_range_exit_2(self, capsys, lo, hi, flag):
        code, out, err = self.run_staircase(capsys, "--from", lo, "--to", hi)
        assert code == EXIT_INPUT
        assert out == ""
        assert f"{flag} must be finite" in err

    @pytest.mark.parametrize("argv", [("--to", "1e300", "--samples", "3"), ("--to", "10", "--samples", "100000000")])
    def test_over_default_budget_exits_3_before_any_call(self, capsys, summand_calls, argv):
        code, out, err = self.run_staircase(capsys, "--from", "0", *argv)
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err.endswith("budget is 10000000 (set it with ADIFF_TERM_BUDGET)\n")

    @pytest.mark.parametrize("h, lam, to, samples", [("1", "1", "10", "64"), ("0.5", "-0.5", "3", "148")])
    def test_budget_is_the_exact_slack_call_count(self, capsys, monkeypatch, h, lam, to, samples):
        # slack is called by the sign check and the slack match once per
        # sample, and by the sums of the check grid.
        seen = []

        def recording(source):
            f = as_function(source)
            return (lambda u: seen.append(u) or f(u)) if source == "1" else f

        monkeypatch.setattr(cli, "as_function", recording)
        grid = cli._grid(0.0, float(to), int(samples))
        calls = 2 * int(samples) + lattice_sums_calls(grid, float(lam), float(h))
        argv = ("inequality", "--h", h, "--lambda", lam, "--direction", "geq", "--mu", "0",
                "--slack", "1", "--from", "0", "--to", to, "--samples", samples)
        monkeypatch.setenv("ADIFF_TERM_BUDGET", str(calls - 1))
        code, out, _ = run_main(capsys, *argv)
        assert (code, out, len(seen)) == (EXIT_BUDGET, "", 0)
        monkeypatch.setenv("ADIFF_TERM_BUDGET", str(calls))
        code, out, _ = run_main(capsys, *argv)
        assert (code, len(seen)) == (EXIT_OK, calls)


class TestArgparseContract:
    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_INPUT

    def test_unknown_flag(self, capsys):
        assert main(["eval", "--expr", "1", "--t", "1", "--bogus"]) == EXIT_INPUT

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestDispatch:
    """main hands the words after a subcommand name to that subcommand's
    parser; what it prints, returns and parses is what the full parser
    would have."""

    ARGVS = [
        [],
        ["--help"],
        ["-h"],
        ["--bogus"],
        ["--"],
        ["--", "eval", "--expr", "1", "--t", "1"],
        ["frobnicate"],
        ["eval", "-h"],
        ["table", "--help"],
        ["eval", "--expr", "1"],
        ["eval", "--expr", "1", "--t", "abc"],
        ["eval", "--expr", "1", "--t", "1", "--bogus"],
        ["eval", "--expr", "1", "--t", "1", "extra"],
        ["eval", "--expr", "1", "--t", "1", "extra", "--bogus", "-x"],
        ["eval", "--expr", "1", "--t", "1", "--lambda", "-0.5+0.2i"],
        ["eval", "--expr", "1", "--t", "1", "--lambda=-0.5+0.2i"],
        ["eval", "--ex", "t", "--t=2", "--h", "0.5", "--budget", "9"],
        ["eval", "--t", "1", "--expr"],
        ["eval", "--expr", "1", "--t", "1", "--", "--t", "2"],
        ["solve", "--factors", "1:2;1:-2", "--expr", "t", "--t", "3.5"],
        ["sum", "--expr", "t", "--from", "1", "--to", "4", "--budget", "10"],
        ["sum", "--expr", "t", "--from", "1", "--to", "x"],
        ["table", "--expr", "1", "--from", "0", "--to", "2", "--step", "1", "--mode", "solve",
         "--factors", "1:2", "--format", "json", "--lambda", "2", "--h", "0.5", "--budget", "50"],
        ["table", "--expr", "1", "--from", "0", "--to", "2", "--step", "1", "--mode", "bad"],
        ["verify", "--identity", "digamma", "--samples", "5", "--tol", "1e-6", "--seed", "3"],
        ["inequality", "--h", "1", "--lambda", "2", "--direction", "geq", "--mu", "1",
         "--slack", "1", "--from", "0", "--to", "10", "--samples", "8"],
        ["inequality", "--h", "1", "--lambda", "2", "--direction", "up"],
    ]

    @staticmethod
    def full_parse(argv):
        """build_parser().parse_args(argv): (code, stdout, stderr, namespace)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = cli.build_parser().parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0), out.getvalue(), err.getvalue(), None
        return None, out.getvalue(), err.getvalue(), args

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_as_the_full_parser(self, capsys, monkeypatch, argv):
        # Usage lines are wrapped to the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err, args = self.full_parse(argv)
        if args is None:
            assert run_main(capsys, *argv) == (code, out, err)
        else:
            assert (out, err) == ("", "")
            assert vars(cli._parse(argv)) == vars(args)

    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv in self.ARGVS if argv} >= set(cli._parser().subcommands)


class TestSharedParser:
    """``main`` builds one parser per process and reuses it."""

    @pytest.fixture
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_across_commands(self, capsys, monkeypatch, fresh_parser):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        commands = [
            ["eval", "--expr", "t", "--t", "3"],
            ["eval", "--t", "1"],
            ["sum", "--expr", "t", "--from", "1", "--to", "4"],
            ["--help"],
            ["table", "--expr", "1", "--from", "0", "--to", "2", "--step", "1"],
        ]
        for argv in commands * 3:
            main(argv)
        capsys.readouterr()
        assert len(calls) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_interleaved_commands_match_fresh_processes(self, capsys, monkeypatch, fresh_parser):
        # Help and usage are wrapped to the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, COLUMNS="80")
        commands = [
            ["eval", "--t", "1"],
            ["--help"],
            ["eval", "--expr", "t^2", "--t", "4.5", "--lambda", "0.5"],
            ["table", "--help"],
            ["eval", "--expr", "1", "--t", "1", "--bogus"],
        ]
        expected = {}
        for argv in commands:
            fresh = subprocess.run(
                [sys.executable, "-m", "adiff", *argv], capture_output=True, env=env
            )
            expected[tuple(argv)] = (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
        assert [expected[tuple(a)][0] for a in commands] == [EXIT_INPUT, 0, 0, 0, EXIT_INPUT]
        assert "usage: adiff eval" in expected[("eval", "--t", "1")][2]
        for argv in commands + commands[::-1]:
            assert run_main(capsys, *argv) == expected[tuple(argv)], argv

    def test_no_flag_carries_over(self, capsys):
        table = ["table", "--expr", "1", "--from", "4.5", "--to", "5.6", "--step", "1", "--mode", "solve"]
        code, _, _ = run_main(capsys, *table, "--factors", "1:2;1:-2")
        assert code == EXIT_OK
        code, out, err = run_main(capsys, *table)
        assert code == EXIT_INPUT
        assert out == ""
        assert "needs --factors" in err


class TestSubprocessDeterminism:
    def test_verify_byte_identical(self):
        cmd = [sys.executable, "-m", "adiff", "verify", "--seed", "42", "--samples", "30"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "adiff", "eval", "--expr", "1", "--t", "3.7"],
            capture_output=True,
        )
        assert result.returncode == 0
        assert b"value=3" in result.stdout


def _main_quiet(*argv):
    """main with stdout captured; hypothesis does not mix with capsys."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buffer.getvalue()


_LATTICE_EXPRS = ["1", "t", "2.5*t^2 + 1.5*t + 3", "2*sin(0.7*t) + cos(t)", "3*0.5^t"]
_steps = st.one_of(
    st.sampled_from(["1", "0.5", "0.25", "2", "0.1", "0.3", "0.7", "0.3333333333333333"]),
    st.floats(0.05, 3.0).map(repr),
)
_lambdas = st.sampled_from(["1", "-0.9", "0.5", "1.3", "0.3+0.4i", "-1i"])


def _law_bound(f, t, lam, value):
    # Criterion 2's scale, 1 + |f(t)| + |lam*y(t)| + |y(t+h)|, with y(t+h)
    # taken as lam*y(t) + f(t), the value the law gives it.
    ft = f(t)
    return 1e-9 * (1.0 + abs(ft) + abs(lam * value) + abs(lam * value + ft))


class TestLatticeRows:
    """eval and table rows read y(t) and y(t+h) at the lattice points (n, r), (n+1, r)."""

    def test_non_dyadic_grid_point_residual_is_zero(self, capsys):
        # t + h = 1.8 in floats sums 17 terms, not 18, on float shifts.
        code, out, _ = run_main(capsys, "eval", "--expr", "1", "--h", "0.1", "--t", "1.7")
        assert code == EXIT_OK
        assert out == "t=1.7 value=16 imag=0 terms_used=16 residual=0\n"

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.sampled_from(_LATTICE_EXPRS), _steps, _lambdas, st.integers(0, 60), st.floats(0.0, 30.0)
    )
    def test_eval_residual_law(self, expr, h, lam, k, x):
        f = as_function(expr)
        for t in (repr(k * float(h)), repr(x)):  # a grid point and an arbitrary one
            code, out = _main_quiet("eval", f"--expr={expr}", "--t", t, "--h", h, f"--lambda={lam}")
            assert code == EXIT_OK
            row = record_fields(out)
            value = complex(float(row["value"]), float(row["imag"]))
            bound = _law_bound(f, float(t), parse_complex(lam), value)
            assert float(row["residual"]) <= bound, (expr, h, lam, t, row)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.sampled_from(_LATTICE_EXPRS),
        _steps,
        _lambdas,
        st.integers(0, 20),
        st.one_of(st.just(None), st.sampled_from(["0.5", "0.37", "0.25", "1"])),
        st.integers(1, 40),
    )
    def test_table_rows_obey_the_law_and_equal_eval(self, expr, h, lam, lo, step, rows):
        # step None is step = h (grid points); other steps put rows in many
        # remainder classes. Each row equals eval at its t, field for field.
        step = step or h
        lo = repr(lo * float(h))
        hi = repr(float(lo) + rows * float(step))
        code, out = _main_quiet(
            "table", f"--expr={expr}", f"--from={lo}", "--to", hi, "--step", step,
            "--mode", "resolvent", "--h", h, f"--lambda={lam}",
        )
        assert code == EXIT_OK
        f = as_function(expr)
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            value = complex(float(row["value"]), float(row["imag"]))
            bound = _law_bound(f, float(row["t"]), parse_complex(lam), value)
            assert float(row["residual"]) <= bound, (expr, h, lam, row)
            code, eval_out = _main_quiet(
                "eval", f"--expr={expr}", f"--t={row['t']}", "--h", h, f"--lambda={lam}"
            )
            assert record_fields(eval_out) == row, (expr, h, lam, step)

    @pytest.mark.parametrize(
        "mode, h, step, hi",
        [
            ("resolvent", "1", "1", "70"),
            ("resolvent", "0.5", "0.5", "35"),
            ("resolvent", "0.25", "0.25", "17.5"),
            ("antidiff", "1", "1", "69"),
        ],
    )
    def test_step_h_table_calls_each_value_once(self, capsys, summand_calls, mode, h, step, hi):
        code, out, _ = run_main(
            capsys,
            "table", "--expr", "cos(t)", "--from", "0", "--to", hi, "--step", step,
            "--mode", mode, "--h", h, "--lambda", "-0.9",
        )
        assert code == EXIT_OK
        rows = [dict(zip(cli.CSV_HEADER.split(","), r.split(","))) for r in out.splitlines()[1:]]
        max_n = max(int(r["terms_used"]) for r in rows)
        # f(r + k*h) for k = 0..max n, then f(t) once per row for the residual.
        assert summand_calls[0] <= max_n + 1 + len(rows)

    def test_eval_calls_n_plus_two(self, capsys, summand_calls):
        code, _, _ = run_main(capsys, "eval", "--expr", "cos(t)", "--t", "20.5", "--h", "0.5")
        assert code == EXIT_OK
        assert summand_calls[0] == 41 + 1 + 1

    @pytest.mark.parametrize(
        "t, h, calls",
        [
            ("20.5", "0.5", 41 + 1 + 1),
            ("0.3", "0.5", 1 + 1),  # y(t) empty, y(t+h) one term
            ("70000.5", "1", 70000 + 70001 + 1),  # over the class cap: each count refolds
        ],
    )
    def test_eval_budget_is_the_exact_call_count(self, capsys, summand_calls, t, h, calls):
        argv = ("eval", "--expr", "cos(t)", "--t", t, "--h", h, "--budget")
        code, out, err = run_main(capsys, *argv, str(calls - 1))
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err == f"adiff: eval needs {calls} evaluations, budget is {calls - 1} (set it with --budget)\n"
        code, _, _ = run_main(capsys, *argv, str(calls))
        assert (code, summand_calls[0]) == (EXIT_OK, calls)

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.floats(-5.0, 300.0), st.sampled_from(["1", "0.5", "0.1", "0.3", "2", "7"]), st.integers(1, 400))
    def test_eval_refused_exactly_when_over_budget(self, t, h, budget):
        calls = lattice_sums_calls([t], 1.0, float(h)) + 1
        code, _ = _main_quiet("eval", "--expr", "1", f"--t={t!r}", "--h", h, "--budget", str(budget))
        assert code == (EXIT_BUDGET if calls > budget else EXIT_OK), (t, h, budget, calls)

    def test_eval_over_default_budget_exits_3_before_any_call(self, capsys, monkeypatch, summand_calls):
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "1e9")
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert "eval needs 2000000002 evaluations, budget is 10000000" in err
        monkeypatch.setenv("ADIFF_TERM_BUDGET", "43")
        code, _, _ = run_main(capsys, "eval", "--expr", "1", "--t", "20.5", "--h", "0.5")
        assert code == EXIT_OK
        code, _, _ = run_main(capsys, "eval", "--expr", "1", "--t", "21", "--h", "0.5")
        assert code == EXIT_BUDGET

    def test_non_finite_summand_exit_2(self, capsys):
        code, out, err = run_main(capsys, "eval", "--expr", "exp(t*1000)", "--t", "2.5")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "adiff: summand is inf at 1.5 (lattice point k=1 of t=2.5, h=1)\n"

    def test_non_finite_sum_exit_2(self, capsys):
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "5", "--lambda", "1e300")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("adiff: the sum overflows: t=5 value=inf")

    @pytest.mark.parametrize("h", ["1", "0.3"])
    def test_non_finite_summand_at_t_exit_2(self, capsys, h):
        # Both sums are empty below t = 0; only the residual's f(t) is inf.
        code, out, err = run_main(capsys, "eval", "--expr", "exp(-1000*t)", "--t", "-1", "--h", h)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "adiff: summand is inf at -1 (the residual's f(t))\n"

    def test_csv_table_keeps_non_finite_fields(self, capsys):
        code, out, _ = run_main(
            capsys, "table", "--expr", "exp(t*1000)", "--from", "0", "--to", "3", "--step", "1"
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "3,inf,0,3,nan"

    def test_inequality_grid_point_passes(self, capsys):
        # The last samples sit just below multiples of h, where t + h rounds
        # up a lattice point and y(t+h) summed n+2 slack terms.
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "0.5", "--lambda", "1", "--direction", "geq", "--mu", "1",
            "--slack", "1", "--from", "0", "--to", "3", "--samples", "148",
        )
        assert code == EXIT_OK
        assert "min_residual=1 max_residual=1 max_slack_mismatch=0 violations=0 PASS" in out

    def test_solve_calls_summand_once_per_argument(self, capsys, monkeypatch):
        seen = []

        def recording(source):
            f = as_function(source)
            return lambda u: seen.append(u) or f(u)

        monkeypatch.setattr(cli, "as_function", recording)
        code, _, _ = run_main(
            capsys, "solve", "--factors", "1:0.72;1:0.72", "--expr", "cos(t)", "--t", "20"
        )
        assert code == EXIT_OK
        # One call per distinct argument of the chain, and f(t) for the residual.
        assert len(seen) == len(set(seen)) + 1 == 22


class TestNegativeNumberValues:
    """A value starting "-" then a digit is read as the option's argument,
    as ``--lambda=-1i`` is, on every supported Python."""

    _COMMANDS = {
        "eval": ["eval", "--expr", "t + 1", "--t", "3.5"],
        "table": ["table", "--mode", "resolvent", "--expr", "t", "--from", "0", "--to", "2", "--step", "0.5"],
    }

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("lam", ["-1i", "-0.5+0.2i", "-0.5-0.2i", "-2", "-.5i", "-1e-1"])
    def test_complex_lambda(self, capsys, command, lam):
        argv = self._COMMANDS[command]
        joined = run_main(capsys, *argv, f"--lambda={lam}")
        assert joined[0] == EXIT_OK and joined[2] == ""
        assert run_main(capsys, *argv, "--lambda", lam) == joined

    def test_complex_lambda_value(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--expr", "1", "--t", "3", "--lambda", "-1i")
        assert code == EXIT_OK
        assert out == "t=3 value=0 imag=-1 terms_used=3 residual=0\n"

    @pytest.mark.parametrize("lam", ["-1", "-1e0", "-0.5"])
    def test_inequality_lambda(self, capsys, lam):
        argv = ["inequality", "--h", "1", "--direction", "geq", "--mu", "0", "--slack", "1",
                "--from", "0", "--to", "4", "--samples", "3"]
        joined = run_main(capsys, *argv, f"--lambda={lam}")
        assert joined[0] == EXIT_OK
        assert run_main(capsys, *argv, "--lambda", lam) == joined

    def test_solve_factor_lambda(self, capsys):
        code, out, _ = run_main(capsys, "solve", "--factors", "1:-1i", "--expr", "1", "--t", "3")
        assert (code, out) == run_main(capsys, "eval", "--expr", "1", "--t", "3", "--lambda", "-1i")[:2]

    def test_scientific_point(self, capsys):
        assert run_main(capsys, "eval", "--expr", "1", "--t", "-1e3") == run_main(
            capsys, "eval", "--expr", "1", "--t=-1e3"
        )

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--lambda", "--h", "1"], "argument --lambda: expected one argument"),
            (["--lambda", "-i"], "argument --lambda: expected one argument"),
            (["--lambda", "2", "-5x"], "unrecognized arguments: -5x"),
            (["--lambda", "2", "--bogus"], "unrecognized arguments: --bogus"),
            (["-x"], "unrecognized arguments: -x"),
        ],
    )
    def test_option_errors_unchanged(self, capsys, extra, message):
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "3", *extra)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.splitlines()[-1].endswith(message)

    def test_unparseable_value_is_a_number_error(self, capsys):
        code, _, err = run_main(capsys, "eval", "--expr", "1", "--t", "3", "--lambda", "-1x")
        assert code == EXIT_INPUT
        assert err == "adiff: cannot parse number '-1x'\n"
