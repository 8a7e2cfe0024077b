"""CLI contract tests: values, formats, exit codes, determinism."""

import contextlib
import functools
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from adiff import cli
from adiff.cli import (
    EXIT_BUDGET,
    EXIT_CROSSCHECK,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    OutputRecord,
    main,
    parse_complex,
    parse_factors,
)
from adiff import antidiff as antidiff_module
from adiff.antidiff import lattice_plan
from adiff.errors import DomainError
from adiff.exprlang import as_function
from adiff.inequality import _grid
from adiff.numkit import floor_mod, fmt17
from adiff.opalgebra import FactoredOperator, common_lattice, particular_solution, verify_particular
from conftest import CORPUS_EXPRS


DATA = pathlib.Path(__file__).resolve().parent / "data"


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

    @pytest.mark.parametrize("text", ["", "pi", "1+", "2x", "1 + 2i", "nan", "1e400"])
    def test_rejected(self, capsys, text):
        # parse_complex reads nan and 1e400 as the numbers nan and inf; the
        # coefficient rule refuses them, in eval as in every other command.
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "1", f"--lambda={text}")
        assert (code, out) == (EXIT_INPUT, "")
        if text in ("nan", "1e400"):
            assert err == f"adiff: lambda must be finite, got {float(text)!r}\n"
        else:
            with pytest.raises(DomainError) as info:
                parse_complex(text)
            assert err == f"adiff: {info.value}\n"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("inf", math.inf),
            ("-inf", -math.inf),
            ("Infinity", math.inf),
            ("1e400", math.inf),
            ("nan", math.nan),
            ("infi", complex(0.0, math.inf)),
            ("1-infi", complex(1.0, -math.inf)),
            ("2+Infinityi", complex(2.0, math.inf)),
        ],
    )
    def test_non_finite_text_is_a_number(self, text, expected):
        # The i of "inf" is no imaginary unit.
        assert repr(parse_complex(text)) == repr(expected)

    @pytest.mark.parametrize("lam", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--expr", "1", "--t", "3", "--lambda={}"),
            ("table", "--mode", "resolvent", "--expr", "1", "--from", "0", "--to", "3", "--step", "1", "--lambda={}"),
            ("inequality", "--h", "1", "--lambda={}", "--direction", "geq", "--mu", "1", "--slack", "1",
             "--from", "0", "--to", "3"),
            ("solve", "--factors", "1:{}", "--expr", "1", "--t", "3"),
            ("table", "--mode", "solve", "--factors", "1:0.5;1:{}", "--expr", "1", "--from", "0", "--to", "3",
             "--step", "1"),
        ],
        ids=["eval", "table-resolvent", "inequality", "solve", "table-solve"],
    )
    def test_non_finite_lambda_has_one_message(self, capsys, argv, lam):
        # One rule: every command refuses with the coefficient rule's words
        # and exit 2.
        code, out, err = run_main(capsys, *(word.format(lam) for word in argv))
        assert (code, out, err) == (EXIT_INPUT, "", f"adiff: lambda must be finite, got {float(lam)!r}\n")


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

    def test_grid_scale_residuals_keep_their_recorded_bytes(self, capsys):
        # About a thousand terms per eval, one summand of each grid family,
        # on a lattice point (shift 0) and off it, recorded before the
        # one-factor residual was written out as y(t+h) - lam*y(t).
        lines = []
        for h in ("1", "0.5", "0.25", "0.1", "0.3"):
            for lam, shift in (("1", 0.0), ("-0.73", 0.1), ("0.35+0.6i", -0.07)):
                t = repr(round(1000 * float(h) + shift, 6))
                for expr in ("0.5*t^2 + 2.8*t + 4.1", "2.7*sin(1.4*t) + cos(t)", "1.5*0.5^t"):
                    code, out, err = run_main(capsys, "eval", "--expr", expr, "--t", t, "--h", h, f"--lambda={lam}")
                    assert (code, err) == (EXIT_OK, "")
                    lines.append(out)
        assert "".join(lines) == (DATA / "eval_grid_residuals.txt").read_text()


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--mode", "solve", "--factors", "1:0.5;1:0.5", "--expr", "ln(t-30)",
             "--from", "0", "--to", "40", "--step", "1"],
            ["solve", "--factors", "1:0.5;1:0.5", "--expr", "ln(t-30)", "--t", "40"],
        ],
    )
    def test_highest_failing_point_is_named(self, capsys, argv):
        # The summand is called at its highest index first: ln(t-30) fails
        # at 30 before it fails at 0, in a table as at one point.
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "adiff: domain: ln of non-positive value 0.0 (at position 0)\n"

    @pytest.mark.parametrize(
        "factors, expr, to, name",
        [
            ("0.1:1;0.3333333333333333:1", "1", "1", "solve_table_fine_unit.csv"),
            ("1:0.9;0.3333333333333333:0.5", "cos(t)", "3", "solve_table_fine_cos.csv"),
        ],
    )
    def test_fine_lattice_tables(self, capsys, factors, expr, to, name):
        # CI's two tables on g = 1e-16, whose bytes its determinism job
        # compares across Python versions.
        argv = ["table", "--mode", "solve", "--factors", factors, "--expr", expr,
                "--from", "0", "--to", to, "--step", "0.1"]
        assert run_main(capsys, *argv) == (EXIT_OK, (DATA / name).read_text(), "")


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
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--mode", "resolvent", "--lambda", "0.5+0.5i", "--h", "0.3", "--expr", "cos(t)",
              "--from", "-1", "--to", "6", "--step", "0.1", "--format", "csv"],
             "resolvent_table_h03_complex.csv"),
            (["--mode", "resolvent", "--lambda", "0.5+0.5i", "--h", "0.3", "--expr", "cos(t)",
              "--from", "-1", "--to", "6", "--step", "0.1", "--format", "json"],
             "resolvent_table_h03_complex.jsonl"),
            (["--mode", "resolvent", "--lambda", "0.9", "--h", "0.1", "--expr", "exp(-t/4)*sin(3*t)",
              "--from", "-0.5", "--to", "8", "--step", "0.05"],
             "resolvent_table_h01.csv"),
            (["--mode", "antidiff", "--expr", "sin(t)/(t*t+1)", "--from", "-2", "--to", "30",
              "--step", "0.25"],
             "antidiff_table_step025.csv"),
        ],
    )
    def test_sum_tables_keep_their_recorded_bytes(self, capsys, argv, name):
        # Recorded before rows were rendered from one template per format,
        # classed without a result object and folded against a weight row.
        assert run_main(capsys, "table", *argv) == (EXIT_OK, (DATA / name).read_text(), "")

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

    @pytest.mark.parametrize("step", ["inf", "-inf", "nan", "0", "-1"])
    def test_step_must_be_positive_and_finite(self, capsys, summand_calls, step):
        # Unrefused, an infinite step would build the row 0 + 0*inf = nan.
        code, out, err = run_main(capsys, "table", "--expr", "1", "--from", "0", "--to", "5", f"--step={step}")
        assert (code, out, summand_calls[0]) == (EXIT_INPUT, "", 0)
        assert err == f"adiff: --step must be a positive finite real, got {float(step)!r}\n"

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
        # Every row reads at least one value (a term of y(t + h), or f(t)
        # below 0), so the row count is charged before the points are built.
        code, out, err = run_main(capsys, "table", "--expr", "1", "--from", "0", "--step", "1", *argv)
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        rows = int(float(argv[1])) + 1
        assert err == f"adiff: table needs at least {rows} evaluations, budget is {budget} (set it with --budget)\n"

    @pytest.mark.parametrize(
        "mode, h, lo, hi, step",
        [
            ("antidiff", "1", "0", "12", "0.5"),
            ("resolvent", "0.3", "0", "9.1", "0.7"),
            ("resolvent", "1", "0", "70000", "35000"),
            ("resolvent", "1", "-3", "4", "0.5"),
            ("resolvent", "0.5", "-1.25", "3", "0.25"),
            ("resolvent", "0.25", "0", "0.2", "0.05"),
            ("resolvent", "0.1", "-0.35", "2", "0.1"),
            ("resolvent", "0.1", "0", "0.09", "0.03"),
            ("resolvent", "0.3", "-1", "4", "0.3"),
        ],
    )
    @pytest.mark.parametrize("cap", [None, 3])
    def test_sum_modes_charge_the_exact_call_count(self, capsys, monkeypatch, summand_calls, mode, h, lo, hi, step,
                                                   cap):
        # The fold terms and the calls of f: one per summand index and each
        # row's f(t) that its class does not hold. The third case is past
        # the class cap, where each point is summed alone (105 003 calls);
        # a cap of 3 values takes every other case past it too.
        if cap is not None:
            monkeypatch.setattr(antidiff_module, "_CLASS_VALUES_MAX", cap)
        count = math.floor((float(hi) - float(lo)) / float(step) + 1e-9) + 1
        ts = [float(lo) + i * float(step) for i in range(count)]
        terms, calls, _ = lattice_plan(ts, float(h) if mode == "resolvent" else 1.0, [1], [1.0])
        charge = terms + calls
        argv = ("table", "--expr", "cos(t)", "--from", lo, "--to", hi, "--step", step,
                "--mode", mode, "--h", h, "--lambda", "0.5", "--budget")
        code, out, err = run_main(capsys, *argv, str(charge - 1))
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err == f"adiff: table needs {charge} evaluations, budget is {charge - 1} (set it with --budget)\n"
        code, out, _ = run_main(capsys, *argv, str(charge))
        assert (code, summand_calls[0], len(out.splitlines())) == (EXIT_OK, calls, len(ts) + 1)

    def test_a_fold_over_budget_exits_3_before_any_call(self, capsys, summand_calls):
        # 16 001 summand calls, but 128 024 001 fold terms: refused at once.
        argv = ("table", "--mode", "resolvent", "--lambda", "0.5", "--expr", "1", "--from", "0", "--to", "16000",
                "--step", "1", "--budget", "70000")
        code, out, err = run_main(capsys, *argv)
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err == "adiff: table needs 128040002 evaluations, budget is 70000 (set it with --budget)\n"

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


_INEQUALITY = ("inequality", "--h", "1", "--lambda", "1", "--direction", "geq", "--mu", "0", "--slack", "1",
               "--from", "0", "--to", "5", "--samples", "4")
_TABLE = ("table", "--expr", "1", "--from", "0", "--to", "3", "--step", "1", "--budget", "5")


@pytest.mark.parametrize(
    "argv, env, refusal",
    [
        (("eval", "--expr", "1", "--t", "5", "--budget", "3"), None, "eval needs 17 evaluations, budget is 3"),
        (("solve", "--factors", "1:0.9;1:0.9", "--expr", "1", "--t", "50", "--budget", "100"), None,
         "solve needs at least 154 evaluations, budget is 100"),
        (("solve", "--factors", "1:0.9", "--expr", "1", "--t", "5", "--budget", "3"), None,
         "solve needs 17 evaluations, budget is 3"),
        (("sum", "--expr", "1", "--from", "0", "--to", "10", "--budget", "5"), None,
         "sum needs 11 evaluations, budget is 5"),
        ((*_TABLE, "--to", "10"), None, "table needs at least 11 evaluations, budget is 5"),
        ((*_TABLE, "--mode", "antidiff"), None, "table needs 14 evaluations, budget is 5"),
        ((*_TABLE, "--mode", "resolvent"), None, "table needs 14 evaluations, budget is 5"),
        ((*_TABLE, "--mode", "solve", "--factors", "1:0.9;1:0.9"), None,
         "table needs at least 19 evaluations, budget is 5"),
        ((*_TABLE, "--mode", "solve", "--factors", "1:0.9"), None, "table needs 14 evaluations, budget is 5"),
        (_INEQUALITY, "10", "inequality needs at least 24 evaluations, budget is 10"),
        (_INEQUALITY, "30", "inequality needs 58 evaluations, budget is 30"),
        (("verify", "--samples", "5"), "10", "verify needs at least 55 evaluations, budget is 10"),
    ],
)
def test_every_budget_refusal_names_its_command_and_knob(capsys, monkeypatch, summand_calls, argv, env, refusal):
    # One form for every command: the knob is --budget where the command has
    # one, else the environment variable.
    knob = "ADIFF_TERM_BUDGET" if env else "--budget"
    if env:
        monkeypatch.setenv("ADIFF_TERM_BUDGET", env)
    expected = (EXIT_BUDGET, "", f"adiff: {refusal} (set it with {knob})\n")
    assert (*run_main(capsys, *argv), summand_calls[0]) == (*expected, 0)


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
        lams = [factor.lam for factor in op.factors]
        work = lambda ts: sum(lattice_plan(ts, *common_lattice(op), lams)[:2])
        assert (work(ts[:-1]), work(ts)) == charges
        table = ("table", "--expr", "1", "--from", lo, "--step", step, "--mode", "solve", "--factors", factors)
        budget = str(charges[0])
        # The last row alone takes the table over budget: exit 3, no row, no call.
        code, out, err = run_main(capsys, *table, "--to", hi, "--budget", budget)
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err.startswith("adiff: table needs ") and err.endswith(f"budget is {budget} (set it with --budget)\n")
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

    @pytest.mark.parametrize("h, lam, to", [("1", "1", "10"), ("0.5", "-0.5", "3"), ("0.3", "2", "7")])
    def test_sums_are_planned_once(self, capsys, monkeypatch, h, lam, to):
        # The plan charged before build_solution's first slack call is the one
        # check_inequality sums on: one plan, and the bytes of the command.
        from adiff import antidiff

        argv = ("inequality", "--h", h, "--lambda", lam, "--direction", "geq", "--mu", "0",
                "--slack", "1 + t*t", "--from", "0", "--to", to)
        unpatched = run_main(capsys, *argv)
        original, plans = antidiff._plan, []
        monkeypatch.setattr(antidiff, "_plan", lambda *args: plans.append(args) or original(*args))
        assert run_main(capsys, *argv) == unpatched and unpatched[0] == EXIT_OK
        assert len(plans) == 1

    def test_violations_are_reported(self, capsys):
        # mu passes the periodicity check on [0, 4h] but jumps at 10 and 20,
        # so y(t+h) - y(t) is 1 at the samples just below each jump.
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1", "--direction", "leq", "--mu", "floor(t/10)",
            "--slack", "0", "--from", "0", "--to", "20", "--samples", "41",
        )
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines() == [
            "direction=leq samples=41 min_residual=0 max_residual=1 max_slack_mismatch=0.5 violations=4 FAIL",
            *(f"violation at t={t}" for t in ("9", "9.5", "19", "19.5")),
        ]

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

    @pytest.mark.parametrize("direction", ["geq", "leq"])
    def test_nan_slack_exit_2(self, capsys, direction):
        code, out, err = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1", "--direction", direction, "--mu", "0",
            "--slack", "exp(1000) - exp(1000)", "--from", "0", "--to", "5", "--samples", "4",
        )
        assert code == EXIT_INPUT
        assert out == ""
        symbol = ">=" if direction == "geq" else "<="
        assert err == f"adiff: slack(0.0) = nan is not a number but the inequality direction is {symbol}\n"

    def test_nan_residual_fails(self, capsys):
        # The slack sum overflows: y(t+1) is inf from t = 1 on, and inf - inf
        # is a NaN residual from t = 2 on; each NaN residual is a violation,
        # and the residual range is NaN once one residual is.
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1", "--direction", "geq", "--mu", "0",
            "--slack", "1e308", "--from", "0", "--to", "5", "--samples", "4",
        )
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines() == [
            "direction=geq samples=4 min_residual=nan max_residual=nan max_slack_mismatch=nan violations=2 FAIL",
            "violation at t=3.3333333333333335",
            "violation at t=5",
        ]

    def test_nan_slack_mismatch_fails(self, capsys):
        # Every residual is inf, which has the sign, but each mismatch
        # inf/inf is NaN: the report prints it and fails.
        code, out, _ = run_main(
            capsys,
            "inequality", "--h", "1", "--lambda", "1", "--direction", "geq", "--mu", "0",
            "--slack", "1e308", "--from", "1.5", "--to", "1.9", "--samples", "2",
        )
        assert code == EXIT_VERIFY_FAILED
        assert out == "direction=geq samples=2 min_residual=inf max_residual=inf max_slack_mismatch=nan violations=0 FAIL\n"

    @pytest.mark.parametrize("lam, kind", [("1", "periodic"), ("-1", "antiperiodic")])
    def test_nan_mu_exit_2(self, capsys, lam, kind):
        # A NaN mu is neither periodic nor antiperiodic.
        code, out, err = run_main(
            capsys,
            "inequality", "--h", "1", f"--lambda={lam}", "--direction", "leq", "--mu", "exp(1000) - exp(1000)",
            "--slack", "0", "--from", "0", "--to", "5", "--samples", "4",
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"adiff: mu is not {kind} with period 1.0 (fails at t = 0.0)\n"

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
        # sample, and by the sums of the check grid as planned; mu twice per
        # sample by the membership check and twice by the homogeneous part.
        # The charge is every one of those calls and the sums' fold terms.
        seen = {"0": [], "1": []}

        def recording(source):
            f = as_function(source)
            return lambda u: seen[source].append(u) or f(u)

        monkeypatch.setattr(cli, "as_function", recording)
        n = int(samples)
        terms, calls, _ = lattice_plan(_grid(0.0, float(to), n), float(h), [1], [float(lam)], ahead=True)
        work = 6 * n + terms + calls
        argv = ("inequality", "--h", h, "--lambda", lam, "--direction", "geq", "--mu", "0",
                "--slack", "1", "--from", "0", "--to", to, "--samples", samples)
        monkeypatch.setenv("ADIFF_TERM_BUDGET", str(work - 1))
        code, out, _ = run_main(capsys, *argv)
        assert (code, out, seen) == (EXIT_BUDGET, "", {"0": [], "1": []})
        monkeypatch.setenv("ADIFF_TERM_BUDGET", str(work))
        code, out, _ = run_main(capsys, *argv)
        assert (code, len(seen["1"]), len(seen["0"])) == (EXIT_OK, 2 * n + calls, 4 * n)
        assert work == len(seen["1"]) + len(seen["0"]) + terms

    def test_a_fold_over_budget_exits_3_before_any_slack_call(self, capsys, summand_calls):
        # 6 001 samples make 18 003 slack calls but fold 18 009 001 terms.
        code, out, err = run_main(
            capsys, "inequality", "--h", "1", "--lambda", "0.5", "--direction", "geq", "--mu", "1",
            "--slack", "1", "--from", "0", "--to", "6000", "--samples", "6001",
        )
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert err == ("adiff: inequality needs 18051008 evaluations, budget is 10000000"
                       " (set it with ADIFF_TERM_BUDGET)\n")


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
        ["eval", "--expr", "1", "--lam", "0.5", "--t", "1"],
        ["eval", "--expr", "1", "--lam=-1i", "--t", "1"],
        ["eval", "--expr", "1", "--t", "1", "--t=2", "--expr", "t"],
        ["eval", "--expr=", "--t", "1"],
        ["eval", "--expr", "", "--t", "1", "--lambda="],
        ["eval", "--expr", "1", "--t="],
        ["eval", "--expr=--", "--t", "1"],
        ["sum", "--expr", "t", "--from", "1", "--to", "4", "--from=2"],
        ["sum", "--expr", "t", "--from", "1.5", "--to", "4"],
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


def _namespace_reprs(args):
    """vars(args) with each value as its repr, so that nan equals nan and
    0 differs from 0.0."""
    return {key: repr(value) for key, value in vars(args).items()}


@functools.cache
def _full_parser():
    return cli.build_parser()


def _full_read(argv):
    """What the full parser makes of argv: its namespace, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _full_parser().parse_args(argv)
        except SystemExit:
            return None


def _good_values(kwargs):
    """Values an option's type and choices accept, as they appear in argv."""
    kind, choices = kwargs.get("type"), kwargs.get("choices")
    if choices:
        return choices
    if kind is float:
        return ["1", "0.5", "2.5e3", " 3 ", "nan", "1_0.5", "-1e3"]
    if kind is int:
        return ["1", "42", "007", "1_000", "-3"]
    return ["t", "1", "t^2 + 1", "1:2;1:0.5", "a=b", "", "-1i"]


def _bad_values(kwargs):
    """Values argparse rejects or reads otherwise than as they are: ones
    the type or choices refuse, ones that start with "-", and "--", which
    argparse drops."""
    kind, choices = kwargs.get("type"), kwargs.get("choices")
    if choices:
        return ["bogus", "--"]
    if kind is float:
        return ["abc", "", "--", "-x"]
    if kind is int:
        return ["1.5", "", "--", "-x"]
    return ["--", "-x", "--t", "- 1"]

#: Words that are no flag of any subcommand.
_STRAY = ["--", "-h", "--help", "extra", "-x", "--bogus", "", "-1"]


class TestReader:
    """``_read`` either declines argv or returns exactly the namespace of
    ``build_parser().parse_args(argv)``."""

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_agrees_with_the_full_parser(self, data):
        # A well-formed argv with at most one fault: a bad value, an
        # abbreviated flag, a flag without its value, a missing option or a
        # stray word. Flags repeat, and each value is in either form.
        name = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
        fault = data.draw(st.sampled_from([None, "value", "abbrev", "bare", "missing", "stray"]))
        options = cli.COMMANDS[name][2]
        at = data.draw(st.integers(0, len(options) - 1))
        occurrences = []
        for k, (flag, kwargs) in enumerate(options):
            counts = [1, 1, 2] if kwargs.get("required") else [0, 1, 2]
            count = 0 if fault == "missing" and k == at else data.draw(st.sampled_from(counts))
            occurrences += [(k, flag, kwargs)] * count
        words = []
        for k, flag, kwargs in data.draw(st.permutations(occurrences)):
            value = data.draw(st.sampled_from(_good_values(kwargs)))
            if k == at and fault == "value":
                value = data.draw(st.sampled_from(_bad_values(kwargs)))
            elif k == at and fault == "abbrev":
                flag = flag[: data.draw(st.integers(3, len(flag)))]
            elif k == at and fault == "bare":
                words.append(flag)
                continue
            words += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
        if fault == "stray":
            words.insert(data.draw(st.integers(0, len(words))), data.draw(st.sampled_from(_STRAY)))
        argv = [name, *words]
        read = cli._read(argv)
        event("read" if read is not None else "declined")
        if read is not None:
            full = _full_read(argv)
            assert full is not None, argv
            assert _namespace_reprs(read) == _namespace_reprs(full), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--expr=t", "--t", "3"],
            ["eval", "--t=-1e3", "--expr", "1", "--lambda=-0.5+0.2i", "--h", "0.5", "--budget", "9"],
            ["eval", "--expr", "", "--t", "1", "--t", "2"],
            ["table", "--expr", "t", "--from", "0", "--to", "2", "--step", "1", "--mode=solve", "--format", "json"],
            ["inequality", "--h", "1", "--lambda", "2", "--direction=leq", "--mu", "1", "--slack", "1",
             "--from", "0", "--to", "9"],
            ["verify"],
            ["eval", "--expr", "1", "--t", "-1"],
            ["eval", "--expr", "1", "--t", "3", "--lambda", "-0.5+0.2i"],
            ["eval", "--expr", "1", "--t", "3", "--budget", "-5"],
        ],
    )
    def test_reads_well_formed_argv(self, argv):
        read = cli._read(argv)
        assert read is not None
        assert _namespace_reprs(read) == _namespace_reprs(_full_read(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["ev", "--expr", "1", "--t", "1"],
            ["eval", "--expr", "1", "--lam", "0.5", "--t", "1"],
            ["eval", "--expr", "1", "--t", "1", "-h"],
            ["eval", "--expr", "1", "--t", "1", "--"],
            ["verify", "--identity=--"],
            ["eval", "--expr", "1", "--t"],
            ["eval", "--expr", "1", "--t", "x"],
            ["eval", "--t", "1"],
            ["table", "--expr", "1", "--from", "0", "--to", "2", "--step", "1", "--mode", "bad"],
            ["sum", "--expr", "t", "--from", "1.5", "--to", "4"],
        ],
    )
    def test_declines_what_argparse_must_read(self, argv):
        assert cli._read(argv) is None

    def test_workload_argv(self, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        argvs = [list(cmd.argv) for seed in (1, 2, 3) for w in workloads.WORKLOADS for cmd in workloads.generate(w, seed)]
        accepted = [(argv, args) for argv in argvs if (args := cli._read(argv)) is not None]
        assert [argv for argv, args in accepted if _namespace_reprs(args) != _namespace_reprs(_full_read(argv))] == []
        # Only malformed commands go to argparse.
        assert len(accepted) > 0.9 * len(argvs)


class TestLazyParser:
    """``main`` builds the parser only for argv that ``_read`` declines."""

    @pytest.fixture
    def builds(self, monkeypatch):
        cli._parser.cache_clear()
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        yield calls
        cli._parser.cache_clear()

    def test_read_argv_builds_no_parser(self, capsys, builds):
        for argv in (["eval", "--expr", "t", "--t", "3"], ["sum", "--expr=t", "--from=1", "--to=4"]):
            assert run_main(capsys, *argv)[0] == EXIT_OK
        assert builds == []

    def test_declined_argv_builds_the_parser_once(self, capsys, builds):
        for _ in range(3):
            assert run_main(capsys, "eval", "--expr", "1", "--lam", "0.5", "--t", "1")[0] == EXIT_OK
            assert run_main(capsys, "eval", "--t", "1")[0] == EXIT_INPUT
        assert builds == [1]


class TestForwarders:
    """``cli.particular_solution`` and ``cli.verify_particular`` import
    ``opalgebra`` and forward to the functions of their names there."""

    @pytest.mark.parametrize("t", [0.5, 7.3, 12.0])
    def test_forwarders_return_the_opalgebra_results(self, t):
        op = parse_factors("1:2;0.5:-0.7")
        f = as_function("cos(t) + t^2")
        assert repr(cli.particular_solution(op, f, t)) == repr(particular_solution(op, f, t))
        assert repr(cli.verify_particular(op, f, t)) == repr(verify_particular(op, f, t))


class TestHelpText:
    """Help at 80 columns is the bytes recorded in tests/data before the
    options moved into ``cli.COMMANDS`` (``verify --help`` is checked in a
    fresh process in test_cold_start)."""

    @pytest.mark.parametrize("command", ["", "eval", "solve", "sum", "table", "inequality"])
    def test_help_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        expected = (DATA / f"{command or 'adiff'}_help.txt").read_text()
        assert run_main(capsys, *argv) == (EXIT_OK, expected, "")


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

    def test_summand_reads_the_binary64_lattice_point(self, capsys):
        # f sees r + k*h in binary64. At h = 0.1 some of those points fall on
        # the far side of an integer from their decimal: frac summed over the
        # decimal points 0.1 ... 3.2 gives 13.8, over these points 15.8.
        code, out, _ = run_main(capsys, "eval", "--expr", "frac(t)", "--t", "3.3", "--h", "0.1")
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "15.799999999999992"
        assert record_fields(out)["terms_used"] == "32"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--mode", "resolvent", "--h", "1", "--lambda", "-0.9", "--from", "-3", "--to", "70", "--step", "1"),
            ("--mode", "resolvent", "--h", "0.5", "--lambda", "0.5+0.5i", "--from", "-2", "--to", "35", "--step", "0.25"),
            ("--mode", "resolvent", "--h", "0.25", "--lambda", "1", "--from", "0", "--to", "17.5", "--step", "0.75"),
            ("--mode", "antidiff", "--from", "-2.5", "--to", "69", "--step", "0.5"),
            ("--mode", "solve", "--factors", "0.5:-0.9", "--from", "-1", "--to", "20", "--step", "0.125"),
        ],
    )
    def test_a_dyadic_table_calls_each_point_once(self, capsys, monkeypatch, argv):
        # At a power-of-two step every row t >= 0 is its lattice point, so
        # its f(t) is a summand value the class already holds; a row below 0
        # sums nothing and calls f(t) alone.
        seen = []
        f = as_function("cos(t)")
        monkeypatch.setattr(cli, "as_function", lambda source: lambda u: seen.append(u) or f(u))
        code, out, _ = run_main(capsys, "table", "--expr", "cos(t)", *argv)
        assert code == EXIT_OK
        assert len(seen) == len(set(seen))
        ts = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert {t for t in ts if t < 0} <= set(seen)
        assert len(seen) == len(set(seen) | set(ts))

    @pytest.mark.parametrize(
        "argv, off",
        [
            (("--mode", "resolvent", "--h", "0.1", "--lambda", "0.5", "--from", "0", "--to", "8.7", "--step", "0.3"),
             1),
            (("--mode", "resolvent", "--h", "0.1", "--lambda", "-0.7", "--from", "-1", "--to", "7", "--step", "0.3"),
             5),
            (("--mode", "solve", "--factors", "0.1:0.9;0.3:-0.5", "--from", "0", "--to", "3", "--step", "0.1"), 31),
        ],
    )
    def test_a_row_off_its_lattice_point_calls_f_at_t(self, capsys, monkeypatch, argv, off):
        # A non-dyadic step: a row whose float t is not rho + N*g (t = 7.8
        # at h = 0.1 is N = 77 from 7.799999999999999), or lies below 0, calls f(t)
        # after the class's summand calls, in row order; so does every row
        # of two factors, whose classes keep no summand value.
        seen = []
        f = as_function("cos(t)")
        monkeypatch.setattr(cli, "as_function", lambda source: lambda u: seen.append(u) or f(u))
        code, out, _ = run_main(capsys, "table", "--expr", "cos(t)", *argv)
        assert code == EXIT_OK
        ts = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        g = 0.1
        calls = [t for t in ts if t < 0 or floor_mod(t, g).r + floor_mod(t, g).n * g != t or "--factors" in argv]
        assert len(calls) == off
        assert seen[-off:] == calls

    @pytest.mark.parametrize("t, h, calls", [("20.5", "0.5", 41 + 1), ("7.3", "0.1", 72 + 1 + 1)])
    def test_eval_calls_each_index_once(self, capsys, summand_calls, t, h, calls):
        # Indices n, ..., 0; f(t) is the value at index n where t is that
        # lattice point. At h = 0.1 the point of index 72 of t = 7.3 is
        # 7.299999999999999, so the residual calls f(7.3) once more.
        code, _, _ = run_main(capsys, "eval", "--expr", "cos(t)", "--t", t, "--h", h)
        assert code == EXIT_OK
        assert summand_calls[0] == calls

    @pytest.mark.parametrize(
        "t, h, calls, terms",
        [
            ("20.5", "0.5", 41 + 1, 41 + 42),
            ("0.3", "0.5", 1, 0 + 1),  # y(t) empty, y(t+h) one term
            ("70000.5", "1", 70001, 70000 + 70001),  # past the class cap: one pass, one call per index
            # Either side of the cap of 2^16 values: n = 2^16 - 1, 2^16 and 2^16 + 1.
            ("65535.5", "1", 65536, 65535 + 65536),
            ("65536.5", "1", 65537, 65536 + 65537),
            ("65537.5", "1", 65538, 65537 + 65538),
            ("5", "1", 6, 5 + 6),
            ("-0.5", "1", 1, 0),  # both sums empty: f(t) alone
            ("-2.5", "0.25", 1, 0),
            ("0.2", "0.25", 1, 1),
            ("0.05", "0.1", 1, 1),
            ("7.3", "0.1", 72 + 1 + 1, 72 + 73),  # t is not its lattice point
            ("2.9", "0.3", 10, 9 + 10),
            ("0.2", "0.3", 1, 1),
        ],
    )
    def test_eval_budget_is_the_exact_call_count(self, capsys, summand_calls, t, h, calls, terms):
        # The charge is the fold terms of y(t) and y(t + h) plus the calls of f.
        charge = terms + calls
        argv = ("eval", "--expr", "cos(t)", "--t", t, "--h", h, "--budget")
        if charge > 1:  # a budget must be positive
            code, out, err = run_main(capsys, *argv, str(charge - 1))
            assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
            assert err == f"adiff: eval needs {charge} evaluations, budget is {charge - 1} (set it with --budget)\n"
        code, _, _ = run_main(capsys, *argv, str(charge))
        assert (code, summand_calls[0]) == (EXIT_OK, calls)

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.floats(-5.0, 300.0), st.sampled_from(["1", "0.5", "0.25", "0.1", "0.3", "2", "7"]), st.integers(1, 1200))
    def test_eval_refused_exactly_when_over_budget(self, t, h, budget):
        charge = sum(lattice_plan([t], float(h), [1], [1.0])[:2])
        code, _ = _main_quiet("eval", "--expr", "1", f"--t={t!r}", "--h", h, "--budget", str(budget))
        assert code == (EXIT_BUDGET if charge > budget else EXIT_OK), (t, h, budget, charge)

    def test_eval_over_default_budget_exits_3_before_any_call(self, capsys, monkeypatch, summand_calls):
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "1e9")
        assert (code, out, summand_calls[0]) == (EXIT_BUDGET, "", 0)
        assert "eval needs 3000000002 evaluations, budget is 10000000" in err
        # 41 + 42 terms and 42 calls at 20.5; 42 + 43 and 43 at 21.
        monkeypatch.setenv("ADIFF_TERM_BUDGET", "125")
        code, _, _ = run_main(capsys, "eval", "--expr", "1", "--t", "20.5", "--h", "0.5")
        assert code == EXIT_OK
        code, _, _ = run_main(capsys, "eval", "--expr", "1", "--t", "21", "--h", "0.5")
        assert code == EXIT_BUDGET

    def test_non_integer_env_budget_exits_2(self, capsys, monkeypatch, summand_calls):
        monkeypatch.setenv("ADIFF_TERM_BUDGET", "abc")
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "1")
        assert (code, out, summand_calls[0]) == (EXIT_INPUT, "", 0)
        assert err == "adiff: ADIFF_TERM_BUDGET must be an integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--h", "-1"), "shift must be a positive finite real, got -1.0"),
            (("--h", "0"), "shift must be a positive finite real, got 0.0"),
            (("--lambda", "0"), "lambda must be nonzero"),
            (("--lambda", "0+0i"), "lambda must be nonzero"),
        ],
    )
    def test_bad_step_or_lambda_exit_2(self, capsys, summand_calls, argv, message):
        for command in (("eval", "--t", "4.1"), ("table", "--mode", "resolvent", "--from", "0", "--to", "2", "--step", "1")):
            code, out, err = run_main(capsys, *command, "--expr", "t", *argv)
            assert (code, out, err, summand_calls[0]) == (EXIT_INPUT, "", f"adiff: {message}\n", 0)

    def test_non_finite_summand_exit_2(self, capsys):
        code, out, err = run_main(capsys, "eval", "--expr", "exp(t*1000)", "--t", "2.5")
        assert code == EXIT_INPUT
        assert out == ""
        # The summand is called highest index first, as solve calls it.
        assert err == "adiff: summand is inf at 2.5 (lattice index 2 of t=2.5)\n"

    def test_non_finite_sum_exit_2(self, capsys):
        code, out, err = run_main(capsys, "eval", "--expr", "1", "--t", "5", "--lambda", "1e300")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("adiff: the solution overflows: t=5 value=inf")

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


class TestDashDashValue:
    """``--flag=--`` gives the flag the value "--" on every Python version,
    as argparse 3.13 reads it; argparse before 3.13 stored [] there."""

    def test_expr(self, capsys):
        code, out, err = run_main(capsys, "eval", "--expr=--", "--t", "1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "adiff: unexpected end of input (at position 2), expected primary\n"

    def test_factors(self, capsys):
        code, out, err = run_main(capsys, "solve", "--factors=--", "--expr", "1", "--t", "1")
        assert (code, out, err) == (EXIT_INPUT, "", "adiff: factor '--' must look like h:lambda\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--expr", "1", "--t=--"], "argument --t: invalid float value: '--'"),
            (["sum", "--expr", "1", "--from=--", "--to", "3"], "argument --from: invalid int value: '--'"),
            (["sum", "--expr", "1", "--from", "0", "--to=--"], "argument --to: invalid int value: '--'"),
            (["table", "--expr", "1", "--from=--", "--to", "1", "--step", "1"],
             "argument --from: invalid float value: '--'"),
            (["table", "--expr", "1", "--from", "0", "--to=--", "--step", "1"],
             "argument --to: invalid float value: '--'"),
        ],
    )
    def test_numbers(self, capsys, argv, message):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.splitlines()[-1] == f"adiff {argv[0]}: error: {message}"

    def test_out(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["table", "--expr", "1", "--from", "0", "--to", "1", "--step", "1"]
        assert run_main(capsys, *argv, "--out=--") == (EXIT_OK, "", "")
        assert (tmp_path / "--").read_text() == run_main(capsys, *argv)[1]


#: Values that no option expects, for the argv fuzz test. The integers are
#: so large that, with any budget drawn here, every sum or table that takes
#: one as a bound is refused before its first summand call.
_HOSTILE = ["", "--", "-1i", "nan", "inf", "-inf", "1e400", str(10**30), str(-(10**30)),
            "π", "t²", "１", "stray", "1 2"]

#: A plain value per option kind, so that commands also get past their parser.
_PLAIN = {"--expr": "t", "--mu": "1", "--slack": "1", "--factors": "1:0.5;0.5:2", "--identity": "mueller",
          "--lambda": "0.5", "--h": "0.5", "--samples": "3", "--from": "0", "--to": "3", "--step": "0.5",
          "--t": "2.5", "--budget": "1000", "--tol": "1e-8", "--seed": "7", "--out": "table.csv"}


class TestArgvFuzz:
    """No argv ends in a traceback, an undocumented exit code, output on
    stdout with an error, or JSON that is not strict."""

    @settings(max_examples=250, deadline=None, database=None)
    @given(st.data())
    def test_every_argv_ends_in_a_documented_way(self, data):
        name = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
        argv = [name]
        for flag, kwargs in cli.COMMANDS[name][2]:
            # Mostly plain values, so that most commands get past their parser.
            kind = data.draw(st.sampled_from(["plain", "plain", "plain", "hostile", "omit"]))
            if kind == "omit":
                continue
            choices = kwargs.get("choices")
            plain = data.draw(st.sampled_from(choices)) if choices else _PLAIN[flag]
            value = plain if kind == "plain" else data.draw(st.sampled_from(_HOSTILE))
            argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        # --out writes into the current directory.
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                os.chdir(cwd)
        out, err = out.getvalue(), err.getvalue()
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INPUT, EXIT_BUDGET, EXIT_CROSSCHECK, EXIT_IO), argv
        assert code != EXIT_VERIFY_FAILED or name in ("verify", "inequality"), argv
        assert "Traceback" not in err, argv
        if code not in (EXIT_OK, EXIT_VERIFY_FAILED):
            assert out == "", argv
        json_format = "--format=json" in argv or ("--format", "json") in zip(argv, argv[1:])
        if code == EXIT_OK and json_format:
            for line in out.splitlines():
                json.loads(line, parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# ------------------------------------------------------------ row rendering


def _fields_oracle(record):
    """Each field of a row as fmt17 (the count as str) renders it, "" for no residual."""
    resid = "" if record.residual is None else fmt17(record.residual)
    return [("t", fmt17(record.t)), ("value", fmt17(record.value)), ("imag", fmt17(record.imag)),
            ("terms_used", str(record.terms_used)), ("residual", resid)]


def _json_oracle(record):
    parts = []
    for key, text in _fields_oracle(record):
        if text in ("inf", "-inf", "nan"):
            raise DomainError(f"{key}={text} at t={fmt17(record.t)} has no JSON form; use --format csv")
        parts.append(f'"{key}": {text or "null"}')
    return "{" + ", ".join(parts) + "}"


_row_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, 0.1, 1e16, 1e-7]),
)


class TestRowRendering:
    """text_line, csv_row and json_line give the bytes of fmt17 per field, joined."""

    @settings(max_examples=1500, deadline=None, database=None)
    @given(_row_floats, _row_floats, _row_floats, st.integers(0, 10**30), _row_floats)
    def test_renderers_match_the_per_field_oracle(self, t, value, imag, terms_used, residual):
        row = OutputRecord(t, value, imag, terms_used, residual)
        fields = _fields_oracle(row)
        assert row.text_line() == " ".join(f"{k}={v}" for k, v in fields if v != "")
        assert row.csv_row() == ",".join(v for _, v in fields)
        try:
            expected = _json_oracle(row)
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                row.json_line()
            assert str(info.value) == str(exc)
        else:
            assert row.json_line() == expected
            json.loads(expected, parse_constant=_refuse_constant)

    @pytest.mark.parametrize("field", ["t", "value", "imag", "residual"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_json_names_the_first_non_finite_field(self, field, bad):
        values = dict(t=2.5, value=-0.0, imag=1e-300, terms_used=7, residual=0.25)
        values[field] = bad
        row = OutputRecord(**values)
        with pytest.raises(DomainError) as info:
            row.json_line()
        text = fmt17(bad)
        assert str(info.value) == f"{field}={text} at t={fmt17(values['t'])} has no JSON form; use --format csv"
        with pytest.raises(DomainError) as oracle:
            _json_oracle(row)
        assert str(info.value) == str(oracle.value)


    @settings(max_examples=600, deadline=None, database=None)
    @given(st.lists(st.tuples(_row_floats, st.integers(0, 10**30), _row_floats, _row_floats | st.none(), _row_floats),
                    min_size=1, max_size=6))
    def test_engine_rows_render_as_their_records(self, rows):
        # A table renders the engine's rows (t, n, y, residual) without a
        # record per row: y is a complex where an imaginary part is drawn,
        # else a float, as the sum and solve rows hold it.
        ts = [t for t, _, _, _, _ in rows]
        counts = [n for _, n, _, _, _ in rows]
        values = [value if imag is None else complex(value, imag) for _, _, value, imag, _ in rows]
        resids = [r for _, _, _, _, r in rows]
        records = [OutputRecord(t, y.real, y.imag, n, r) for t, n, y, r in zip(ts, counts, values, resids)]
        rendered = list(zip(ts, counts, values, resids))
        csv = cli._render(OutputRecord._CSV, rendered)
        assert csv == "\n".join(record.csv_row() for record in records)
        assert csv == "\n".join(",".join(text for _, text in _fields_oracle(record)) for record in records)
        try:
            expected = "\n".join(map(_json_oracle, records))
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                cli._json_lines(rendered)
            assert str(info.value) == str(exc)
        else:
            assert cli._json_lines(rendered) == expected
            assert expected == "\n".join(record.json_line() for record in records)

    def test_json_rows_refuse_at_the_first_non_finite_row(self):
        rows = [(1.0, 1, complex(-0.0, 2.0), 0.0), (-0.0, 0, -0.0, -0.0), (2.5, 2, complex(0.5, -math.inf), 1e-300),
                (3.0, 3, math.nan, math.nan)]
        with pytest.raises(DomainError) as info:
            cli._json_lines(rows)
        assert str(info.value) == "imag=-inf at t=2.5 has no JSON form; use --format csv"
        lines = cli._json_lines(rows[:2]).splitlines()
        assert lines == ['{"t": 1, "value": 0, "imag": 2, "terms_used": 1, "residual": 0}',
                         '{"t": 0, "value": 0, "imag": 0, "terms_used": 0, "residual": 0}']


def _fresh_adiff(*argv):
    """(exit code, stdout, stderr) of one command in a new interpreter, where
    errno holds whatever the command's own caught overflows leave in it."""
    result = subprocess.run([sys.executable, "-m", "adiff", *argv], capture_output=True, text=True)
    return result.returncode, result.stdout, result.stderr


class TestRealSolveTables:
    """Real operators fold floats; these tables, written by the complex fold
    before the float one existed, keep their bytes."""

    @pytest.mark.parametrize(
        "factors, expr, lo, hi, step, name",
        [
            ("1:0.72;1:0.72", "1.5*t^2 + 2.25*t + 4.5", "0", "20", "1", "solve_real_repeated_poly.csv"),
            ("0.5:0.54;1:-0.6;1:0.81", "1.25*sin(0.7*t) + cos(t)", "0", "12", "0.5", "solve_real_mixed_trig.csv"),
            ("0.1:1;0.3:-0.5", "cos(t)", "-1", "3", "0.1", "solve_real_lattice_cos.csv"),
        ],
    )
    def test_recorded_tables(self, capsys, factors, expr, lo, hi, step, name):
        argv = ["table", "--mode", "solve", "--factors", factors, "--expr", expr,
                "--from", lo, "--to", hi, "--step", step]
        assert run_main(capsys, *argv) == (EXIT_OK, (DATA / name).read_text(), "")


class TestNonFiniteSolve:
    """solve exits 2 on a value or residual that is not finite, as eval does;
    CSV solve tables print inf and nan for real and complex operators."""

    @pytest.mark.parametrize(
        "factors, expr, t, message",
        [
            # Every point from 2 on is inf; the highest index comes first.
            ("1:0.9;1:0.9", "(t*1e307)*100", "10", "summand is inf at 10 (lattice index 10 of t=10)"),
            # math.exp overflows, which leaves errno at ERANGE.
            ("1:0.9", "exp(t*100)", "10", "summand is inf at 10 (lattice index 10 of t=10)"),
            ("1:1i;1:-1i", "exp(t*100)", "10", "summand is inf at 10 (lattice index 10 of t=10)"),
            ("0.1:0.9;0.3:1i", "exp(t*100)", "10", "summand is inf at 10 (lattice index 100 of t=10)"),
            # Below 0 every sum is empty and only the residual's f(t) is read.
            ("0.25:0.9", "(t*1e307)*100", "-1", "summand is -inf at -1 (the residual's f(t))"),
            ("1:1i;1:-1i", "(t*1e307)*100", "-1", "summand is -inf at -1 (the residual's f(t))"),
            # Finite summand values, a sum past the float range.
            ("1:2", "1e300", "30",
             "the solution overflows: t=30 value=inf imag=0 terms_used=30 residual=nan"),
        ],
    )
    def test_solve_names_the_first_non_finite_summand(self, capsys, factors, expr, t, message):
        argv = ["solve", "--factors", factors, "--expr", expr, "--t", t]
        expected = (EXIT_INPUT, "", f"adiff: {message}\n")
        assert run_main(capsys, *argv) == expected
        assert _fresh_adiff(*argv) == expected

    def test_complex_csv_table_keeps_inf_and_nan(self, capsys):
        argv = ["table", "--mode", "solve", "--factors", "1:1i;1:-1i", "--expr", "exp(t*100)",
                "--from", "0", "--to", "10", "--step", "5"]
        expected = (EXIT_OK, "t,value,imag,terms_used,residual\n0,0,0,0,0\n"
                    "5,1.9424263952412558e+130,0,5,0\n10,nan,nan,10,nan\n", "")
        assert _fresh_adiff(*argv) == expected
        assert run_main(capsys, *argv) == expected

    @pytest.mark.parametrize("expr", ["exp(t*100)", "(t*1e307)*100", "cos(t)"])
    def test_real_one_factor_csv_table_equals_the_resolvent_table(self, capsys, expr):
        span = ["--expr", expr, "--from", "0", "--to", "10", "--step", "5"]
        solved = _fresh_adiff("table", "--mode", "solve", "--factors", "1:0.9", *span)
        summed = _fresh_adiff("table", "--mode", "resolvent", "--lambda", "0.9", *span)
        assert solved == summed and solved[0] == EXIT_OK
        if expr == "exp(t*100)":
            assert solved[1].splitlines()[-1] == "10,inf,0,10,nan"
        assert run_main(capsys, "table", "--mode", "solve", "--factors", "1:0.9", *span) == solved

    @pytest.mark.parametrize("factors, field", [("1:0.9", "value=inf"), ("1:1i;1:-1i", "value=nan")])
    def test_json_table_refuses_non_finite_fields(self, capsys, factors, field):
        argv = ["table", "--mode", "solve", "--factors", factors, "--expr", "exp(t*100)",
                "--from", "0", "--to", "10", "--step", "5", "--format", "json"]
        expected = (EXIT_INPUT, "", f"adiff: {field} at t=10 has no JSON form; use --format csv\n")
        assert run_main(capsys, *argv) == expected


def _main_all(*argv):
    """(exit code, stdout, stderr) of main; hypothesis does not mix with capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestOneEngine:
    """eval and the sum tables are the one-factor case of solve: one route
    into the engine, the same bytes on stdout and stderr and the same exit
    code, whatever the step, lambda, point or summand, valid or not. (A
    budget refusal names its command, so only the tables draw budgets.)"""

    _H = ["1", "0.5", "0.25", "0.1", "0.3", repr(1 / 3)]
    _BAD_H = ["0", "-0.5", "nan", "inf"]
    _LAMBDA = ["1", "-0.9", "0.5", "1.7", "0.3+0.4i", "-1i", "1i"]
    _BAD_LAMBDA = ["0", "inf", "nan", "abc"]
    # Malformed expressions, and ones that fail or overflow at some points.
    _BAD_EXPRS = ["t +", "(t", "foo(t)", "1/(t-3)", "sqrt(t - 50)", "gamma(-t)", "exp(t*100)"]
    _EXPRS = st.sampled_from(CORPUS_EXPRS + ["exp(t*100)"])

    @settings(max_examples=250, deadline=None, database=None)
    @given(
        st.sampled_from(CORPUS_EXPRS + _BAD_EXPRS),
        st.sampled_from(_H + _BAD_H),
        st.sampled_from(_LAMBDA + _BAD_LAMBDA),
        st.floats(-2.0, 80.0) | st.integers(-2, 80).map(float) | st.sampled_from([math.inf, math.nan]),
    )
    def test_eval_is_the_one_factor_solve(self, expr, h, lam, t):
        summed = _main_all("eval", f"--expr={expr}", f"--t={t!r}", f"--h={h}", f"--lambda={lam}")
        solved = _main_all("solve", f"--factors={h}:{lam}", f"--expr={expr}", f"--t={t!r}")
        assert summed == solved, (expr, h, lam, t)
        event(f"exit {summed[0]}")

    @settings(max_examples=80, deadline=None, database=None)
    @given(_EXPRS, st.sampled_from(_H), st.sampled_from(_LAMBDA), st.integers(-20, 40),
           st.sampled_from(["h", "0.5", "0.37"]), st.integers(1, 50), st.none() | st.integers(1, 4000))
    def test_resolvent_table_is_the_one_factor_solve_table(self, expr, h, lam, lo, step, rows, budget):
        step = h if step == "h" else step
        lo = repr(lo * float(h) / 4)
        hi = repr(float(lo) + rows * float(step))
        span = (f"--expr={expr}", f"--from={lo}", "--to", hi, "--step", step)
        span += () if budget is None else ("--budget", str(budget))
        summed = _main_all("table", *span, "--mode", "resolvent", "--h", h, f"--lambda={lam}")
        solved = _main_all("table", *span, "--mode", "solve", f"--factors={h}:{lam}")
        exits = (EXIT_OK,) if budget is None else (EXIT_OK, EXIT_BUDGET)
        assert summed == solved and summed[0] in exits, (expr, h, lam, lo, step, budget)
        event(f"exit {summed[0]}")

    @pytest.mark.parametrize("h, lam", [("0", "0"), ("nan", "abc"), ("-0.5", "inf"), ("1", "nan")])
    def test_bad_resolvent_table_is_the_bad_solve_table(self, capsys, h, lam):
        span = ("--expr", "t", "--from", "0", "--to", "4", "--step", "1")
        summed = run_main(capsys, "table", *span, "--mode", "resolvent", f"--h={h}", f"--lambda={lam}")
        assert summed == run_main(capsys, "table", *span, "--mode", "solve", f"--factors={h}:{lam}")
        assert summed[0] == EXIT_INPUT

    def test_complex_eval_past_the_float_range_names_the_summand(self, capsys):
        # The residual's complex abs() used to raise "absolute value too large".
        argv = ["eval", "--lambda", "1i", "--expr", "exp(t*100)", "--t", "10"]
        expected = (EXIT_INPUT, "", "adiff: summand is inf at 10 (lattice index 10 of t=10)\n")
        assert run_main(capsys, *argv) == expected
        assert _fresh_adiff(*argv) == expected

    def test_complex_eval_past_the_class_cap_names_index_n(self, capsys):
        # Past the cap of 2^16 values the one pass still reads k = n first.
        argv = ["eval", "--lambda", "1i", "--expr", "exp(t*100)", "--t", "70000.5"]
        expected = (EXIT_INPUT, "", "adiff: summand is inf at 70000.5 (lattice index 70000 of t=70000.5)\n")
        assert run_main(capsys, *argv) == expected

    def test_complex_resolvent_csv_table_keeps_inf_and_nan(self, capsys):
        span = ["--expr", "exp(t*100)", "--from", "0", "--to", "10", "--step", "5"]
        expected = (EXIT_OK, "t,value,imag,terms_used,residual\n0,0,0,0,0\n"
                    "5,5.2214696897641443e+173,1.9424263952412558e+130,5,0\n10,nan,nan,10,nan\n", "")
        argv = ["table", "--mode", "resolvent", "--lambda", "1i", *span]
        assert run_main(capsys, *argv) == expected
        assert _fresh_adiff(*argv) == expected
        assert _fresh_adiff("table", "--mode", "solve", "--factors", "1:1i", *span) == expected
