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
error; results to standard output. Every command reads its term budget
once, with :func:`_budget` (--budget, else the environment variable
ADIFF_TERM_BUDGET, else 10,000,000), and charges its work before the
first summand call through :func:`_spend`, which exits 3 above it with
one refusal, "<command> needs [at least ]N evaluations, budget is B (set
it with <knob>)": the knob is --budget, or ADIFF_TERM_BUDGET for
``inequality`` and ``verify``, which have no --budget. ``sum`` charges
its exact summand call count; ``eval``, ``solve`` and the tables the
exact work of the lattice engine's plan (fold terms, and every call of f
its rows make, the residuals' f(t) included); ``inequality`` the slack
calls of its sign check and its slack match, the four mu calls per
sample and its sums' plan; ``verify`` at least one call per sample of
each identity it runs. A table first charges one unit per row, and
``inequality`` six per sample, so a huge row or sample count is refused
before its list is built. ``sum`` exits 2 on a result that is not finite.

``eval``, ``solve`` and the tables take one route into the lattice
engine. :func:`_operator` reads the command's operator as a lattice
(g, [m_i], [lam_i]): ``eval`` and the resolvent table as the one-factor
case (h, [1], [lambda]), the antidifference table as (1, [1], [1]).
:func:`_lattice_rows` plans the points with ``antidiff.lattice_plan``,
charges the work it returns and reads every value and residual from its
rows. ``eval`` and ``solve`` are one function, :func:`cmd_solve`, which
refuses (exit 2) a value or residual that is not finite, naming the
first non-finite summand value its row read (``lattice index I of
t=T``), else saying that the solution overflows; ``terms_used`` is the
outermost factor's term count. A table renders its rows straight from
those columns.

What loads when: importing this module loads ``errors``, ``numkit``,
``antidiff`` and ``exprlang``, all that ``eval``, ``sum`` and ``table
--mode antidiff|resolvent`` run. ``solve`` and ``table --mode solve``
import ``opalgebra`` on their first call, ``inequality`` imports
``inequality`` and ``verify`` imports ``verify``; nothing imports
``convkernel``. The help of ``verify
--identity`` lists :data:`IDENTITY_NAMES`, a copy of the battery's names,
so that it needs no import either.

Each subcommand's options are declared once, in :data:`COMMANDS`. ``main``
first reads argv with :func:`_read`, a short reader built from that table,
and builds the argparse parser (once per process) only for argv the reader
declines, so help, error messages and exit codes are always argparse's and
a process whose commands are all well formed never builds the parser or
imports argparse. Both read ``--t -1`` and ``--lambda -0.5+0.2i`` as
values. The parser reads the value of ``--flag=--`` as "--" on every
Python version, as argparse 3.13 does.

Numbers are printed at 17 significant digits, which round-trips binary64
exactly; CSV rows and JSON lines are generated from the same rendered
strings so the two formats always agree. JSON has no inf or nan, so a
JSON table with a non-finite field is refused as a whole (exit 2); CSV
prints such fields as ``inf``/``nan``.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
import types
from typing import TYPE_CHECKING

from .antidiff import (
    TermBudget,
    _charge,
    _coefficient,
    definite_sum,
    definite_sum_calls,
    lattice_plan,
    nonfinite_summand,
)
from .errors import (
    AdiffError,
    CrossCheckError,
    DomainError,
    TermBudgetExceeded,
)
from .exprlang import as_function
from .numkit import _Record, _require_positive_shift, fmt17

# No command calls these; bench/tracing.py looks them up here by name.
from .antidiff import antidifference, resolvent_sum  # noqa: F401

if TYPE_CHECKING:
    import argparse

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
# verify_particular).


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


def run_battery(*args, **kwargs):
    from .verify import run_battery

    return run_battery(*args, **kwargs)


class OutputRecord(_Record):
    """One evaluated grid point, ready for text/CSV/JSON rendering."""

    __slots__ = _fields = ("t", "value", "imag", "terms_used", "residual")

    def __init__(self, t: float, value: float, imag: float, terms_used: int, residual: float):
        self.t = t
        self.value = value
        self.imag = imag
        self.terms_used = terms_used
        self.residual = residual

    # Each format's template, for one row (t, value, imag, terms_used, residual).
    _TEXT = "t=%.17g value=%.17g imag=%.17g terms_used=%d residual=%.17g"
    _CSV = "%.17g,%.17g,%.17g,%d,%.17g"
    _JSON = '{"t": %.17g, "value": %.17g, "imag": %.17g, "terms_used": %d, "residual": %.17g}'

    def text_line(self) -> str:
        return _line(self._TEXT, self.t, self.value, self.imag, self.terms_used, self.residual)

    def csv_row(self) -> str:
        return _line(self._CSV, self.t, self.value, self.imag, self.terms_used, self.residual)

    def json_line(self) -> str:
        return _json_lines([(self.t, self.terms_used, complex(self.value, self.imag), self.residual)])


def _line(template: str, t: float, value: float, imag: float, n: int, r: float) -> str:
    """One row in ``template``. x + 0.0 folds -0.0, and '%.17g' % x gives
    the bytes of fmt17(x)."""
    return template % (t + 0.0, value + 0.0, imag + 0.0, n, r + 0.0)


def _render(template: str, rows) -> str:
    """The engine's rows (t, n, y, residual) in ``template``, one line each."""
    return "\n".join([_line(template, t, y.real, y.imag, n, r) for t, n, y, r in rows])


def _json_lines(rows: list[tuple]) -> str:
    """:func:`_render` in JSON, which has no inf or nan: the first row with a
    field that is not finite refuses them all, naming that field."""
    text = _render(OutputRecord._JSON, rows)
    # '%.17g' writes inf and nan with an "n"; a finite float, an int and the
    # keys have none, so the first "n" is in the first row to refuse.
    at = text.find("n")
    if at < 0:
        return text
    t, _, y, r = rows[text.count("\n", 0, at)]
    fields = {"t": t, "value": y.real, "imag": y.imag, "residual": r}
    key = next(k for k, x in fields.items() if not math.isfinite(x))
    raise DomainError(f"{key}={fmt17(fields[key])} at t={fmt17(t)} has no JSON form; use --format csv")


_IMAGINARY_UNIT = re.compile(r"inf(?:inity)?|i", re.IGNORECASE)


def parse_complex(text: str) -> float | complex:
    """Parse 'a+bi' style numbers: '2', '1i', '-1i', '0.5-0.5i', 'i'.

    Returns a float when the imaginary part is zero, so purely real
    coefficients take the real accumulation path downstream. 'inf' and
    'nan' are numbers here (the i of 'inf' is no imaginary unit); the
    coefficient rule, ``antidiff._coefficient``, refuses them.
    """
    s = str(text).strip()
    if not s:
        raise DomainError("empty number")
    try:
        z = complex(_IMAGINARY_UNIT.sub(lambda m: "j" if len(m[0]) == 1 else m[0], s))
    except ValueError:
        raise DomainError(f"cannot parse number {text!r}") from None
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


def _budget(args) -> int:
    """The command's term budget, read once per command: --budget, else the
    environment variable ADIFF_TERM_BUDGET, else 10,000,000."""
    flag = getattr(args, "budget", None)
    if flag is not None:
        return TermBudget(flag).max_terms
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None and env.strip():
        try:
            return TermBudget(int(env)).max_terms
        except ValueError:
            raise DomainError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    return TermBudget().max_terms


def _spend(args, work: int, max_terms: int, least: str = "") -> None:
    """Refuse (exit 3) the command's ``work`` above ``max_terms``, naming the
    command and its knob: --budget where it has one, else ADIFF_TERM_BUDGET."""
    _charge(args.command, work, max_terms, least, "--budget" if hasattr(args, "budget") else BUDGET_ENV_VAR)


def _operator(args) -> tuple[float, list[int], list]:
    """The command's operator prod_i (E^(m_i g) - lam_i) as (g, [m_i], [lam_i]),
    --factors read on their common lattice; h and lambda pass the rules of a
    factor, h first."""
    mode = args.mode if args.command == "table" else args.command
    if mode == "antidiff":
        return 1.0, [1], [1.0]
    if mode == "solve":
        from .opalgebra import common_lattice

        if not args.factors and args.command == "table":
            raise DomainError("mode 'solve' needs --factors")
        op = parse_factors(args.factors)
        return (*common_lattice(op), [factor.lam for factor in op.factors])
    lam = parse_complex(args.lam)
    return _require_positive_shift(args.h), [1], [_coefficient(lam)]


def _lattice_rows(args, operator: tuple, f, ts: list[float], max_terms: int) -> list[tuple]:
    """The rows (t, n, y(t), |op y - f|(t)) at ts of the particular solution y
    of op y = f: the engine's plan, charged before the first call of f."""
    g, ms, lams = operator
    terms, calls, rows = lattice_plan(ts, g, ms, lams, allowance=max_terms)
    # A plan stopped early counts only the layers above.
    _spend(args, terms + calls, max_terms, "" if rows else "at least ")
    return list(zip(ts, *rows(f)))


# ---------------------------------------------------------------- commands


def cmd_solve(args) -> int:
    """``solve``, and ``eval`` as its one-factor case."""
    operator = _operator(args)
    f = as_function(args.expr)
    [(t, n, y, r)] = _lattice_rows(args, operator, f, [args.t], _budget(args))
    record = OutputRecord(t, y.real, y.imag, n, r)
    if not all(map(math.isfinite, (record.value, record.imag, record.residual))):
        term = nonfinite_summand(f, t, *operator[:2])
        if term is None:
            raise DomainError(f"the solution overflows: {record.text_line()}")
        index, point, value = term
        where = "the residual's f(t)" if index is None else f"lattice index {index} of t={fmt17(t)}"
        raise DomainError(f"summand is {fmt17(value)} at {fmt17(point)} ({where})")
    print(record.text_line())
    return EXIT_OK


def cmd_sum(args) -> int:
    f = as_function(args.expr)
    _spend(args, definite_sum_calls(args.from_, args.to), _budget(args))
    value = definite_sum(f, args.from_, args.to)
    if not math.isfinite(value):
        bounds = f"[{args.from_}, {args.to}]"
        raise DomainError(f"the sum over {bounds} is {fmt17(value)}, not a finite number")
    print(fmt17(value))
    return EXIT_OK


def _check_range(from_: float, to: float) -> None:
    """Reject a --from/--to pair that is not a finite, increasing range."""
    for flag, value in (("--from", from_), ("--to", to)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value!r}")
    if not from_ < to:
        raise DomainError(f"--from must be less than --to, got [{from_!r}, {to!r}]")


def cmd_table(args) -> int:
    _check_range(args.from_, args.to)
    if not 0.0 < args.step < math.inf:
        raise DomainError(f"--step must be a positive finite real, got {args.step!r}")
    f = as_function(args.expr)
    max_terms = _budget(args)
    operator = _operator(args)
    span = (args.to - args.from_) / args.step
    if not math.isfinite(span):
        bounds = f"[{args.from_!r}, {args.to!r}]"
        raise DomainError(f"--step {args.step!r} is too small for {bounds}: row count overflows")
    count = math.floor(span + 1e-9) + 1
    # Every row reads at least one value: a term of y(t+h), or f(t) below 0.
    _spend(args, count, max_terms, "at least ")
    rows = _lattice_rows(args, operator, f, [args.from_ + i * args.step for i in range(count)], max_terms)
    if args.format == "csv":
        text = CSV_HEADER + "\n" + _render(OutputRecord._CSV, rows)
    else:
        text = _json_lines(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    # Every identity calls its functions at least once per sample.
    identities = len(IDENTITY_NAMES) if args.identity == "all" else 1
    _spend(args, identities * args.samples, _budget(args), "at least ")
    reports = run_battery(args.identity, samples=args.samples, tol=args.tol, seed=args.seed)
    for report in reports:
        print(report.format_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_inequality(args) -> int:
    from .inequality import Direction, InequalitySpec, _grid

    _check_range(args.from_, args.to)
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    spec = InequalitySpec(args.h, args.lam, Direction(args.direction))
    mu = as_function(args.mu)
    slack = as_function(args.slack)
    # Per sample, slack is called by the sign check and the slack match, and
    # mu twice by the membership check and twice by the homogeneous part; the
    # sums are planned once, here, and their terms and calls charged with
    # those before build_solution samples.
    max_terms = _budget(args)
    _spend(args, 6 * args.samples, max_terms, "at least ")
    grid = _grid(args.from_, args.to, args.samples)
    terms, calls, rows = lattice_plan(grid, spec.h, [1], [spec.lam], ahead=True)
    _spend(args, 6 * args.samples + terms + calls, max_terms)
    solution = build_solution(spec, mu, slack, t_range=(args.from_, args.to), samples=args.samples)
    report = check_inequality(solution, grid, rows)
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


#: Each subcommand: its function, its help and its options in help order,
#: each option a flag and the keyword arguments of ``add_argument`` for it
#: (dest, type, default, required, choices, help). ``build_parser`` builds
#: the argparse tree from this table and ``_read`` reads argv with it.
COMMANDS = {
    "eval": (cmd_solve, "resolvent sum of an expression at a point", [
        ("--expr", dict(required=True, help="expression in t, e.g. 't^2 + 1'")),
        ("--t", dict(type=float, required=True)),
        ("--lambda", dict(dest="lam", default="1", help="coefficient, 'a+bi' syntax")),
        ("--h", dict(type=float, default=1.0, help="shift step (default 1)")),
        ("--budget", dict(type=int, default=None, help="max summand evaluations")),
    ]),
    "solve": (cmd_solve, "particular solution for factored operator", [
        ("--factors", dict(required=True, help="'h:lambda;h:lambda;...', e.g. '1:2;1:-2'")),
        ("--expr", dict(required=True)),
        ("--t", dict(type=float, required=True)),
        ("--budget", dict(type=int, default=None, help="max summand evaluations")),
    ]),
    "sum": (cmd_sum, "definite sum over integer bounds", [
        ("--expr", dict(required=True)),
        ("--from", dict(dest="from_", type=int, required=True)),
        ("--to", dict(type=int, required=True)),
        ("--budget", dict(type=int, default=None, help="max summand evaluations")),
    ]),
    "table": (cmd_table, "emit a value table as CSV or JSON lines", [
        ("--expr", dict(required=True)),
        ("--from", dict(dest="from_", type=float, required=True)),
        ("--to", dict(type=float, required=True)),
        ("--step", dict(type=float, required=True)),
        ("--mode", dict(choices=["antidiff", "resolvent", "solve"], default="antidiff")),
        ("--format", dict(choices=["csv", "json"], default="csv")),
        ("--out", dict(default=None, help="output path (default: stdout)")),
        ("--lambda", dict(dest="lam", default="1")),
        ("--h", dict(type=float, default=1.0)),
        ("--factors", dict(default=None)),
        ("--budget", dict(type=int, default=None)),
    ]),
    "verify": (cmd_verify, "run the numerical identity battery", [
        ("--identity", dict(default="all", help=f"identity name or 'all' ({', '.join(IDENTITY_NAMES)})")),
        ("--samples", dict(type=int, default=200)),
        ("--tol", dict(type=float, default=1e-8)),
        ("--seed", dict(type=int, default=42)),
    ]),
    "inequality": (cmd_inequality, "build and check a difference-inequality solution", [
        ("--h", dict(type=float, required=True)),
        ("--lambda", dict(dest="lam", type=float, required=True)),
        ("--direction", dict(choices=["geq", "leq"], required=True)),
        ("--mu", dict(required=True, help="homogeneous seed expression")),
        ("--slack", dict(required=True, help="sign-constrained slack expression")),
        ("--from", dict(dest="from_", type=float, required=True)),
        ("--to", dict(type=float, required=True)),
        ("--samples", dict(type=int, default=64)),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the six subcommands on every call (``main`` keeps one).

    argparse is imported here, so a process that never builds the parser
    never loads it (nor gettext, which it imports).
    """
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """An ``ArgumentParser`` that reads every word starting "-" then a
        digit, or "-." then a digit, as a value: ``--lambda -1i``,
        ``--lambda -0.5+0.2i`` and ``--t -1e3`` parse as with ``=``. It also
        reads the value of ``--flag=--`` as the string "--", as argparse
        3.13 does (older versions store []).

        argparse (through 3.13.0 at least) takes only plain negative
        decimals such as -2 or -0.5 for values, and any other word starting
        "-" for an option, so the option before it is left without its
        argument. The pattern replaces its private
        ``_negative_number_matcher`` on every version; no option of ours
        looks like a number, so no option is lost. Subparsers are made of
        the parent parser's class, so they read the same.
        """

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

        def _get_values(self, action, arg_strings):
            # Before 3.13 argparse drops this "--" as if it ended the options.
            if arg_strings == ["--"] and action.option_strings and action.nargs is None:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    parser = _ArgumentParser(
        prog="adiff",
        description="Discrete-calculus toolkit: finite indefinite sums, "
        "difference equations and inequalities, identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # _parse hands argv[1:] straight to the parser of the subcommand argv[0].
    parser.subcommands = sub.choices
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _reader(func, options) -> tuple[dict, dict, frozenset]:
    """One subcommand's flags (flag -> (dest, type, choices)), its namespace
    before any flag is read (each default, a string one converted by the
    option's type as argparse converts it, and ``func``) and its required
    dests."""
    flags, defaults, required = {}, {"func": func}, set()
    for flag, kwargs in options:
        dest, kind = kwargs.get("dest", flag[2:]), kwargs.get("type")
        flags[flag] = (dest, kind, kwargs.get("choices"))
        default = kwargs.get("default")
        defaults[dest] = kind(default) if kind and isinstance(default, str) else default
        if kwargs.get("required"):
            required.add(dest)
    return flags, defaults, frozenset(required)


_READERS = {name: _reader(func, options) for name, (func, _, options) in COMMANDS.items()}


def _read(argv: list[str]) -> types.SimpleNamespace | None:
    """The attributes of the namespace ``build_parser().parse_args(argv)``
    returns, as a ``types.SimpleNamespace``, for argv that argparse is sure
    to read that way; None for any other argv.

    It reads a subcommand name, then exact flags of that subcommand, each
    as ``--flag=value`` or ``--flag value``, converting each value with the
    option's type and checking its choices; a repeated flag keeps its last
    value. It declines (returns None) an unknown or abbreviated word, -h,
    --, a flag without its value, a second word starting "-" as a value
    unless :data:`_NEGATIVE_NUMBER` matches it, as argparse does, the value
    ``--`` (which argparse drops), a value its type rejects, a value outside
    the choices and a missing required flag, so the parser reads those and
    prints its own help and errors.
    """
    reader = _READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    flags, defaults, required = reader
    values = {}
    i, end = 1, len(argv)
    while i < end:
        flag, eq, value = argv[i].partition("=")
        option = flags.get(flag)
        if option is None:
            return None
        if not eq:
            i += 1
            if i == end or argv[i][:1] == "-" and not _NEGATIVE_NUMBER.match(argv[i]):
                return None
            value = argv[i]
        elif value == "--":
            return None  # argparse drops a "--" even after "="
        dest, kind, choices = option
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 1
    if not required <= values.keys():
        return None
    args = types.SimpleNamespace(**defaults)
    args.__dict__.update(values)
    args.command = argv[0]
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with: built on first use and
    reused for the rest of the process. It depends on no input, and each
    parse returns a fresh namespace, so nothing carries over between
    commands."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace | types.SimpleNamespace:
    """``_parser().parse_args(argv)``: :func:`_read`'s namespace when it
    reads argv, else the subcommand's own parser reading the words after a
    subcommand name.

    The top parser would hand those words to the same parser after
    classifying each of them once more; it still reads every other argv
    (no words, -h, an unknown name) and reports unrecognized arguments.
    """
    args = _read(argv)
    if args is not None:
        return args
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
