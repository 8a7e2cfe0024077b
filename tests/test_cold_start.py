"""Cold start: what importing the package and running one command loads.

``adiff/__init__`` exports its names lazily, and ``adiff.cli`` imports
opalgebra, inequality and verify only for the subcommands that run them.
Each check that depends on what is already imported runs in a fresh
interpreter, since this test process has imported every module.
"""

import contextlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import adiff
from adiff import cli

DATA = pathlib.Path(__file__).resolve().parent / "data"

#: Every name the package exported when its __init__ imported all modules,
#: by the module it came from.
EXPORTS = {
    "antidiff": [
        "AntidiffValue", "RealFunction", "antidifference", "backward_antidifference",
        "cos_antidifference", "definite_sum", "exp_antidifference", "gamma_ratio_product",
        "mueller_sum", "offset_residual", "periodic_antidifference", "poly_antidifference",
        "resolvent_sum", "sin_antidifference",
    ],
    "convkernel": ["GreenKernel", "convolve", "kernel_weights"],
    "errors": [
        "AdiffError", "BoundsError", "CapExceeded", "CrossCheckError", "DomainError",
        "EvalError", "NoConvergence", "NonFiniteInput", "NonPositiveShift", "ParseError",
        "PeriodicityViolation", "PoleError", "SignViolation", "TermBudgetExceeded", "ZeroLambda",
    ],
    "exprlang": ["as_function", "evaluate", "parse", "unparse"],
    "inequality": [
        "Direction", "InequalityReport", "InequalitySpec", "Periodicity", "SolutionFunction",
        "build_solution", "check_inequality", "check_membership",
    ],
    "numkit": [
        "FloorModResult", "digamma", "falling_factorial", "floor_mod", "frac_mod", "ln_gamma",
        "rising_factorial", "stirling2",
    ],
    "opalgebra": [
        "FactoredOperator", "LinearFactor", "TermBudget", "apply_operator", "estimate_terms",
        "factorization_identity_check", "particular_solution", "repeated_factor_solution",
        "solve_rows", "verify_particular",
    ],
}

DEFERRED = ["adiff.convkernel", "adiff.inequality", "adiff.opalgebra", "adiff.verify", "dataclasses"]


def _fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON value last."""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=dict(os.environ, COLUMNS="80")
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _loaded_by(statements: str) -> list:
    """The modules of interest that ``statements`` add to sys.modules."""
    return _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps(sorted(m for m in added if m.startswith('adiff') or m == 'dataclasses')))\n"
    )


class TestLazyExports:
    @pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_name_is_its_modules_object(self, module, name):
        assert getattr(adiff, name) is getattr(importlib.import_module(f"adiff.{module}"), name)
        assert name in dir(adiff)

    def test_all_lists_every_export(self):
        assert sorted(adiff.__all__) == sorted(n for names in EXPORTS.values() for n in names)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            adiff.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from adiff import no_such_name", {})

    def test_readme_import(self):
        namespace = {}
        exec("from adiff import antidifference, resolvent_sum, as_function", namespace)
        assert namespace["antidifference"](namespace["as_function"]("t"), 4.5).value == 8.0  # 3.5+2.5+1.5+0.5

    def test_import_loads_no_module(self):
        assert _loaded_by("import adiff") == ["adiff"]

    def test_a_name_loads_its_module_only(self):
        loaded = _loaded_by("from adiff import antidifference, resolvent_sum, as_function")
        assert loaded == ["adiff", "adiff.antidiff", "adiff.errors", "adiff.exprlang", "adiff.numkit"]

    def test_submodules_resolve_after_import_adiff(self):
        assert _fresh("import adiff, json\nprint(json.dumps(adiff.opalgebra.__name__))") == "adiff.opalgebra"


class TestColdCommands:
    def test_import_cli_defers_the_other_layers(self):
        assert _loaded_by("import adiff.cli") == [
            "adiff", "adiff.antidiff", "adiff.cli", "adiff.errors", "adiff.exprlang", "adiff.numkit",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--expr", "t^2 + 1", "--t", "4.5", "--lambda", "0.5"],
            ["sum", "--expr", "t", "--from", "1", "--to", "9"],
            ["table", "--expr", "t", "--from", "0", "--to", "2", "--step", "0.5", "--mode", "resolvent"],
            ["verify", "--help"],
        ],
    )
    def test_sum_commands_load_no_deferred_module(self, argv):
        loaded = _loaded_by(
            "import contextlib, io\nimport adiff.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    try:\n        adiff.cli.main({argv!r})\n    except SystemExit:\n        pass"
        )
        assert [m for m in DEFERRED if m in loaded] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--expr", "1", "--t", "0.5"],
            ["solve", "--factors", "1:0.5;0.5:-0.7", "--expr", "cos(t)", "--t", "6.3"],
            ["table", "--expr", "t", "--from", "0", "--to", "2", "--step", "0.5", "--mode", "resolvent"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_well_formed_commands_load_no_argparse(self, argv):
        # _read reads well-formed argv into a SimpleNamespace; argparse, and
        # gettext through it, load only where the parser is built.
        loaded = _fresh(
            "import contextlib, io, json, sys\nimport adiff.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = adiff.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in ('argparse', 'gettext') if m in sys.modules)]))"
        )
        assert loaded == [0, []]
        assert _fresh(
            "import contextlib, io, json, sys\nimport adiff.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = adiff.cli.main({argv[:1] + ['--help']!r})\n"
            "print(json.dumps('argparse' in sys.modules))"
        ) is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--expr", "t^2 + 1", "--t", "4.5", "--lambda", "-0.5+0.2i"],
            ["solve", "--factors", "1:0.5;0.5:-0.7", "--expr", "cos(t)", "--t", "6.3"],
            ["sum", "--expr", "t", "--from", "1", "--to", "9"],
            ["table", "--mode", "solve", "--factors", "1:2;1:-2", "--expr", "t", "--from", "0", "--to", "2", "--step", "1"],
            ["verify", "--identity", "digamma", "--samples", "5"],
            ["inequality", "--h", "1", "--lambda", "1", "--direction", "geq", "--mu", "0", "--slack", "1",
             "--from", "0", "--to", "5", "--samples", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_subcommand_runs_cold(self, argv):
        fresh = subprocess.run([sys.executable, "-m", "adiff", *argv], capture_output=True, text=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out.getvalue(), "")
        assert code == 0 and fresh.stdout

    def test_verify_help_is_unchanged(self):
        fresh = subprocess.run(
            [sys.executable, "-m", "adiff", "verify", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, COLUMNS="80"),
        )
        assert fresh.returncode == 0
        assert fresh.stdout == (DATA / "verify_help.txt").read_text()

    def test_verify_help_lists_the_battery(self, monkeypatch):
        from adiff import verify

        assert cli.IDENTITY_NAMES == verify.IDENTITY_NAMES
        monkeypatch.setenv("COLUMNS", "1000")  # no line break inside a name
        help_text = cli.build_parser().subcommands["verify"].format_help()
        listed = " ".join(help_text.split()).partition("identity name or 'all' (")[2].partition(")")[0]
        assert listed.split(", ") == list(verify.IDENTITY_NAMES)
