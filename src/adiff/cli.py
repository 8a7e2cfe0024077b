"""Command-line interface.

Subcommands::

    adiff eval        resolvent/antidifference value at one point
    adiff solve       particular solution for a factored operator
    adiff sum         definite sum via the discrete fundamental theorem
    adiff table       grid of values as CSV or JSON lines
    adiff verify      run the numerical identity battery
    adiff inequality  build and check a difference-inequality solution

Exit codes: 0 success / all checks pass, 1 verification failure, 2 input
error (parse, domain, sign/periodicity, bad flags, numbers out of
floating-point range, non-finite values asked for as JSON), 3 term budget
exceeded, 4 cross-check mismatch, 5 I/O error. Diagnostics go to standard
error; results to standard output. Every command takes a term budget:
--budget, else the environment variable ADIFF_TERM_BUDGET, else
10,000,000 (``inequality`` and ``verify`` have no --budget). Each charges
its work once, before the first summand call, and exits 3 above the
budget. ``sum`` charges its exact summand call count; ``eval`` and ``table
--mode antidiff|resolvent`` that of ``antidiff.lattice_sums`` plus one f(t)
per row for the residual; ``solve`` and its table the exact work of
``opalgebra.solve_rows``; ``inequality`` the slack calls of its sign
check, its sums and its slack match; ``verify`` at least one call per
sample of each identity it runs. A table first charges one call per row,
before it builds its points, and ``inequality`` first two per sample, so a
huge row or sample count is refused before its list is built. ``sum``
exits 2 on a result that is not finite.

``eval`` and ``table --mode antidiff|resolvent`` read every value and its
shifted value y(t+h) from one ``antidiff.lattice_sums`` call, which puts
each point t = n*h + r on its lattice and computes each summand value
f(r + k*h) once per command; y(t+h) is the lattice point (n+1, r), so the
residual sums n+1 terms whatever the float t + h rounds to. ``eval``
refuses (exit 2) a value or residual that is not finite and names the
first non-finite summand value. ``solve`` and ``table --mode solve`` make
one ``opalgebra.solve_rows`` call, which puts the operator's steps on one
integer lattice and reads every value and residual from one chain per
remainder class, so points shared between rows and residuals are computed
once per command; ``terms_used`` is the outermost factor's term count.

What loads when: importing this module loads ``errors``, ``numkit``,
``antidiff`` and ``exprlang``, all that ``eval``, ``sum`` and ``table
--mode antidiff|resolvent`` run. ``solve`` and ``table --mode solve``
import ``opalgebra`` on their first call, ``inequality`` imports
``inequality`` and ``verify`` imports ``verify`` (and through it
``opalgebra``); nothing imports ``convkernel``. The help of ``verify
--identity`` lists :data:`IDENTITY_NAMES`, a copy of the battery's names,
so that it needs no import either.

``main`` builds its argument parser on first use and reuses it for every
later call in the process, so a program that calls ``main`` many times
pays for the parser once; ``build_parser()`` returns a new one each call.
When the first word names a subcommand, ``main`` hands the other words
straight to that subcommand's parser, the one the full parser would hand
them to, and reports words it leaves over through the full parser, so the
output and exit code are the full parser's. Any other argv (none, -h, an
unknown name) goes through the full parser, which then only prints help
and errors.

Numbers are printed at 17 significant digits, which round-trips binary64
exactly; CSV rows and JSON lines are generated from the same rendered
strings so the two formats always agree. JSON has no inf or nan, so a
JSON table with a non-finite field is refused as a whole (exit 2); CSV
prints such fields as ``inf``/``nan``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from .antidiff import (
    TermBudget,
    definite_sum,
    definite_sum_calls,
    lattice_sums,
    lattice_sums_calls,
    nonfinite_term,
)
from .errors import (
    AdiffError,
    CrossCheckError,
    DomainError,
    TermBudgetExceeded,
)
from .exprlang import as_function
from .numkit import _Record, fmt17

# No command calls these; bench/tracing.py looks them up here by name.
from .antidiff import antidifference, resolvent_sum  # noqa: F401

if TYPE_CHECKING:
    from .opalgebra import FactoredOperator

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CROSSCHECK = 4
EXIT_IO = 5

BUDGET_ENV_VAR = "ADIFF_TERM_BUDGET"

CSV_HEADER = "t,value,imag,terms_used,residual"

#: The names ``verify --identity`` accepts, in battery order, for its help
#: and its charge; they are the keys of ``adiff.verify``'s identity table,
#: which ``verify.IDENTITY_NAMES`` exposes and a test holds equal to this.
IDENTITY_NAMES = (
    "digamma",
    "lngamma",
    "gammaratio",
    "exponential",
    "sincos",
    "mueller",
    "offset",
    "factor-e2minus4",
    "factor-e2plus1",
    "periodic",
    "fundamental",
)


# ------------------------------------------------------- deferred layers
#
# opalgebra, inequality and verify load on the first call that needs them,
# so eval, sum and the sum tables never import them. Each function below
# imports its layer when called and forwards to the function of its name
# there. Commands call those layers through these module globals, which
# bench/tracing.py wraps by name (it alone looks up particular_solution and
# verify_particular); a test reads _grid here.


def particular_solution(*args, **kwargs):
    from .opalgebra import particular_solution

    return particular_solution(*args, **kwargs)


def verify_particular(*args, **kwargs):
    from .opalgebra import verify_particular

    return verify_particular(*args, **kwargs)


def build_solution(*args, **kwargs):
    from .inequality import build_solution

    return build_solution(*args, **kwargs)


def check_inequality(*args, **kwargs):
    from .inequality import check_inequality

    return check_inequality(*args, **kwargs)


def _grid(*args, **kwargs):
    from .inequality import _grid

    return _grid(*args, **kwargs)


def run_battery(*args, **kwargs):
    from .verify import run_battery

    return run_battery(*args, **kwargs)


class OutputRecord(_Record):
    """One evaluated grid point, ready for text/CSV/JSON rendering."""

    __slots__ = _fields = ("t", "value", "imag", "terms_used", "residual")

    def __init__(
        self, t: float, value: float, imag: float, terms_used: int, residual: float | None = None
    ):
        self.t = t
        self.value = value
        self.imag = imag
        self.terms_used = terms_used
        self.residual = residual

    def _fields_text(self) -> list[tuple[str, str]]:
        resid = "" if self.residual is None else fmt17(self.residual)
        return [
            ("t", fmt17(self.t)),
            ("value", fmt17(self.value)),
            ("imag", fmt17(self.imag)),
            ("terms_used", str(self.terms_used)),
            ("residual", resid),
        ]

    def text_line(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self._fields_text() if v != "")

    def csv_row(self) -> str:
        return ",".join(v for _, v in self._fields_text())

    def json_line(self) -> str:
        parts = []
        for key, value in self._fields_text():
            if value in ("inf", "-inf", "nan"):
                raise DomainError(
                    f"{key}={value} at t={fmt17(self.t)} has no JSON form; use --format csv"
                )
            if key == "terms_used":
                parts.append(f'"{key}": {value}')
            else:
                parts.append(f'"{key}": {value if value != "" else "null"}')
        return "{" + ", ".join(parts) + "}"


def parse_complex(text: str) -> float | complex:
    """Parse 'a+bi' style numbers: '2', '1i', '-1i', '0.5-0.5i', 'i'.

    Returns a float when the imaginary part is zero, so purely real
    coefficients take the real accumulation path downstream.
    """
    s = str(text).strip()
    if not s:
        raise DomainError("empty number")
    try:
        z = complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise DomainError(f"cannot parse number {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"number {text!r} is not finite")
    return z.real if z.imag == 0.0 else z


def parse_factors(text: str) -> FactoredOperator:
    """Parse a factor list 'h:lambda;h:lambda;...' into an operator."""
    from .opalgebra import FactoredOperator

    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        head, sep, tail = chunk.partition(":")
        if not sep:
            raise DomainError(f"factor {chunk!r} must look like h:lambda")
        try:
            h = float(head)
        except ValueError:
            raise DomainError(f"bad shift {head!r} in factor {chunk!r}") from None
        pairs.append((h, parse_complex(tail)))
    return FactoredOperator.from_pairs(pairs)


def _resolve_budget(flag_value: int | None) -> TermBudget:
    if flag_value is not None:
        return TermBudget(flag_value)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None and env.strip():
        try:
            return TermBudget(int(env))
        except ValueError:
            raise DomainError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    return TermBudget()


def _charge(
    command: str, calls: int, max_terms: int, least: str = "", knob: str = "--budget"
) -> None:
    """Refuse, before the first summand call, a command whose call count is over budget.

    ``least`` is "at least " when ``calls`` is a lower bound of the count.
    """
    if calls > max_terms:
        raise TermBudgetExceeded(
            f"{command} needs {least}{calls} evaluations, budget is {max_terms} "
            f"(set it with {knob})"
        )


def _split(value: float | complex) -> tuple[float, float]:
    if isinstance(value, complex):
        return value.real, value.imag
    return float(value), 0.0


def _sum_rows(
    f, ts: list[float], lam: float | complex, h: float, command: str, max_terms: int
) -> list[OutputRecord]:
    """Points ts of the resolvent sum y of f, each with |y(t+h) - lam*y(t) - f(t)|.

    One :func:`lattice_sums` call gives y(t) and y(t+h) at every point, the
    antidifference being lam = h = 1.0. It charges its summand calls plus
    one f(t) per row before the first call.
    """
    charge = lambda calls: _charge(command, calls + len(ts), max_terms)
    rows = []
    for t, (n, value, ahead) in zip(ts, lattice_sums(f, ts, lam, h, charge)):
        real, imag = _split(value)
        rows.append(OutputRecord(t, real, imag, n, abs(ahead - lam * value - f(t))))
    return rows


def _solve_rows(op: FactoredOperator, f, ts: list[float], budget: TermBudget) -> list[OutputRecord]:
    """Points ts of the particular solution y of op y = f, each with |op y - f|.

    One :func:`solve_rows` call charges the budget once and reads every
    value and residual from one chain per remainder class.
    """
    from .opalgebra import solve_rows

    rows = solve_rows(op, f, ts, budget)
    return [
        OutputRecord(t, value.real, value.imag, n, resid)
        for t, (n, value, resid) in zip(ts, rows)
    ]


# ---------------------------------------------------------------- commands


def cmd_eval(args) -> int:
    f = as_function(args.expr)
    lam = parse_complex(args.lam)
    max_terms = _resolve_budget(args.budget).max_terms
    record = _sum_rows(f, [args.t], lam, args.h, "eval", max_terms)[0]
    if not all(map(math.isfinite, (record.value, record.imag, record.residual))):
        term = nonfinite_term(f, args.t, args.h)
        if term is not None:
            k, point, value = term
            raise DomainError(
                f"summand is {fmt17(value)} at {fmt17(point)} "
                f"(lattice point k={k} of t={fmt17(args.t)}, h={fmt17(args.h)})"
            )
        # The residual's own f(t), at the float t, is the last summand value read.
        value = f(args.t)
        if not math.isfinite(value):
            raise DomainError(f"summand is {fmt17(value)} at {fmt17(args.t)} (the residual's f(t))")
        raise DomainError(f"the sum overflows: {record.text_line()}")
    print(record.text_line())
    return EXIT_OK


def cmd_solve(args) -> int:
    op = parse_factors(args.factors)
    f = as_function(args.expr)
    print(_solve_rows(op, f, [args.t], _resolve_budget(args.budget))[0].text_line())
    return EXIT_OK


def cmd_sum(args) -> int:
    f = as_function(args.expr)
    _charge("sum", definite_sum_calls(args.from_, args.to), _resolve_budget(args.budget).max_terms)
    value = definite_sum(f, args.from_, args.to)
    if not math.isfinite(value):
        bounds = f"[{args.from_}, {args.to}]"
        raise DomainError(f"the sum over {bounds} is {fmt17(value)}, not a finite number")
    print(fmt17(value))
    return EXIT_OK


def _table_rows(args) -> list[OutputRecord]:
    f = as_function(args.expr)
    budget = _resolve_budget(args.budget)
    if args.mode == "solve":
        if not args.factors:
            raise DomainError("mode 'solve' needs --factors")
        op = parse_factors(args.factors)
        rows = lambda ts: _solve_rows(op, f, ts, budget)
    else:
        lam, h = (1.0, 1.0) if args.mode == "antidiff" else (parse_complex(args.lam), args.h)
        rows = lambda ts: _sum_rows(f, ts, lam, h, "table", budget.max_terms)
    span = (args.to - args.from_) / args.step
    if not math.isfinite(span):
        bounds = f"[{args.from_!r}, {args.to!r}]"
        raise DomainError(f"--step {args.step!r} is too small for {bounds}: row count overflows")
    count = math.floor(span + 1e-9) + 1
    # Every row calls f at least once, for its residual's f(t).
    _charge("table", count, budget.max_terms, "at least ")
    return rows([args.from_ + i * args.step for i in range(count)])


def _check_range(from_: float, to: float) -> None:
    """Reject a --from/--to pair that is not a finite, increasing range."""
    for flag, value in (("--from", from_), ("--to", to)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value!r}")
    if not from_ < to:
        raise DomainError(f"--from must be less than --to, got [{from_!r}, {to!r}]")


def cmd_table(args) -> int:
    _check_range(args.from_, args.to)
    if not (args.step > 0.0):
        raise DomainError(f"--step must be positive, got {args.step!r}")
    rows = _table_rows(args)
    if args.format == "csv":
        lines = [CSV_HEADER] + [r.csv_row() for r in rows]
    else:
        lines = [r.json_line() for r in rows]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    # Every identity calls its functions at least once per sample.
    identities = len(IDENTITY_NAMES) if args.identity == "all" else 1
    max_terms = _resolve_budget(None).max_terms
    _charge("verify", identities * args.samples, max_terms, "at least ", BUDGET_ENV_VAR)
    reports = run_battery(args.identity, samples=args.samples, tol=args.tol, seed=args.seed)
    for report in reports:
        print(report.format_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_inequality(args) -> int:
    from .inequality import Direction, InequalitySpec

    _check_range(args.from_, args.to)
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    spec = InequalitySpec(args.h, args.lam, Direction(args.direction))
    mu = as_function(args.mu)
    slack = as_function(args.slack)
    # The sign check and the slack match each call slack once per sample.
    max_terms = _resolve_budget(None).max_terms
    _charge("inequality", 2 * args.samples, max_terms, "at least ", BUDGET_ENV_VAR)
    grid = _grid(args.from_, args.to, args.samples)
    calls = 2 * args.samples + lattice_sums_calls(grid, spec.lam, spec.h)
    _charge("inequality", calls, max_terms, knob=BUDGET_ENV_VAR)
    solution = build_solution(spec, mu, slack, t_range=(args.from_, args.to), samples=args.samples)
    report = check_inequality(solution, grid)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"direction={spec.direction.value} samples={report.samples} "
        f"min_residual={fmt17(report.min_residual)} max_residual={fmt17(report.max_residual)} "
        f"max_slack_mismatch={fmt17(report.max_slack_mismatch)} "
        f"violations={len(report.violations)} {status}"
    )
    for witness in report.violations[:5]:
        print(f"violation at t={fmt17(witness)}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ------------------------------------------------------------------ parser


_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _ArgumentParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads every word starting "-" then a digit,
    or "-." then a digit, as a value: ``--lambda -1i``, ``--lambda
    -0.5+0.2i`` and ``--t -1e3`` parse as with ``=``.

    argparse (through 3.13.0 at least) takes only plain negative decimals
    such as -2 or -0.5 for values, and any other word starting "-" for an
    option, so the option before it is left without its argument. The
    pattern replaces its private ``_negative_number_matcher`` on every
    version; no option of ours looks like a number, so no option is lost.
    Subparsers are made of the parent parser's class, so they read the same.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the six subcommands on every call (``main`` keeps one)."""
    parser = _ArgumentParser(
        prog="adiff",
        description="Discrete-calculus toolkit: finite indefinite sums, "
        "difference equations and inequalities, identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # main hands argv[1:] straight to the parser of the subcommand argv[0].
    parser.subcommands = sub.choices

    p = sub.add_parser("eval", help="resolvent sum of an expression at a point")
    p.add_argument("--expr", required=True, help="expression in t, e.g. 't^2 + 1'")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambda", dest="lam", default="1", help="coefficient, 'a+bi' syntax")
    p.add_argument("--h", type=float, default=1.0, help="shift step (default 1)")
    p.add_argument("--budget", type=int, default=None, help="max summand evaluations")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="particular solution for factored operator")
    p.add_argument("--factors", required=True, help="'h:lambda;h:lambda;...', e.g. '1:2;1:-2'")
    p.add_argument("--expr", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--budget", type=int, default=None, help="max summand evaluations")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sum", help="definite sum over integer bounds")
    p.add_argument("--expr", required=True)
    p.add_argument("--from", dest="from_", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="max summand evaluations")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("table", help="emit a value table as CSV or JSON lines")
    p.add_argument("--expr", required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--mode", choices=["antidiff", "resolvent", "solve"], default="antidiff")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--factors", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the numerical identity battery")
    p.add_argument(
        "--identity",
        default="all",
        help=f"identity name or 'all' ({', '.join(IDENTITY_NAMES)})",
    )
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inequality", help="build and check a difference-inequality solution")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--direction", choices=["geq", "leq"], required=True)
    p.add_argument("--mu", required=True, help="homogeneous seed expression")
    p.add_argument("--slack", required=True, help="sign-constrained slack expression")
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_inequality)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with: built on first use and
    reused for the rest of the process. It depends on no input, and each
    parse returns a fresh namespace, so nothing carries over between
    commands."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with the subcommand's own parser
    reading the words after a subcommand name.

    The top parser would hand those words to the same parser after
    classifying each of them once more; it still reads every other argv
    (no words, -h, an unknown name) and reports unrecognized arguments.
    """
    parser = _parser()
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args, extra = subparser.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TermBudgetExceeded as exc:
        print(f"adiff: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CrossCheckError as exc:
        print(f"adiff: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except OSError as exc:
        print(f"adiff: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AdiffError, ValueError, OverflowError) as exc:
        print(f"adiff: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
