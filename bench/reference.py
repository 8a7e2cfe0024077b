"""Independent references and the output checker for the adiff benchmark.

Nothing here imports adiff. Summands are evaluated with mpmath at 30
digits from the same expression trees the generator rendered, and term
counts come from exact rational arithmetic. Alongside each value the
evaluator carries a magnitude: a bound on how large the rounding error of
a binary64 evaluation of the same tree can be, in units of the unit
roundoff (first order, except that powers and products keep their
higher-order terms). Values are accepted within ``RTOL`` times the summed
magnitudes, so cancellation inside an expression cannot cause a false
failure, while a missing or extra term still fails.

Term counts at points within 1e-9 (relative) of a lattice point n*h are a
convention: binary64 cannot say whether 0.5 is five steps of 0.1 or four.
There the checker accepts either count, provided value and terms_used agree
with each other. The residual law y(t+h) - lam*y(t) = f(t) has no such
freedom, so the printed residual is held to its bound everywhere.

A command fails on a wrong exit code, an exception raised out of
``adiff.cli.main``, output that does not parse (strict JSON for
``--format json``), a value outside its bound, or a residual outside its
bound. Failures that match a defect documented in ROADMAP item 1 carry a
``known`` tag; they are still failures.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from workloads import IDENTITY_NAMES

mp.dps = 30

#: binary64 unit roundoff; magnitudes are error bounds in units of it.
UNIT = 2.0**-53

#: Accepted error, as a multiple of the error magnitude.
RTOL = 1e-8
#: Largest max_abs_residual a passing identity may report (adiff's default --tol).
VERIFY_TOL = 1e-8
#: adiff's documented slack-match bound for a passing inequality check.
SLACK_MATCH_TOL = 1e-9
#: Points closer than this (relative) to a lattice point n*h are "on" it.
LATTICE_SNAP = Fraction(1, 10**9)

CSV_HEADER = "t,value,imag,terms_used,residual"
RECORD_KEYS = ["t", "value", "imag", "terms_used", "residual"]

KNOWN_RESIDUAL = "residual-law"
KNOWN_JSON = "json-nonfinite"
KNOWN_OVERFLOW = "overflow-escape"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known: str | None = None


OK = Verdict(True)


class Bad(Exception):
    """Raised inside a check; becomes a failing Verdict."""

    def __init__(self, reason: str, known: str | None = None):
        super().__init__(reason)
        self.known = known


# ------------------------------------------------------------ summands


def _compile(node):
    """x -> (mp value, float error magnitude) for one expression tree."""
    kind = node[0]
    if kind == "num":
        v = mpf(float(node[1]))
        m = abs(float(node[1]))
        return lambda x: (v, m)
    if kind == "t":
        return lambda x: (x, abs(float(x)))
    if kind in ("pi", "e"):
        v = mp.pi if kind == "pi" else mp.e
        return lambda x: (+v, float(v))
    if kind == "neg":
        inner = _compile(node[1])

        def neg(x):
            v, m = inner(x)
            return -v, m

        return neg
    if kind == "call":
        return _compile_call(node[1], _compile(node[2]))
    op, left, right = node
    a = _compile(left)
    if op == "^" and right[0] == "num" and float(right[1]).is_integer():
        k = int(float(right[1]))

        def ipow(x):
            # (|a| + d)^k - |a|^k with d = UNIT*ma, kept to all orders so that
            # a base that is itself at rounding level (sin(pi)) is bounded.
            va, ma = a(x)
            v = va**k
            fa = abs(float(va))
            spread = sum(math.comb(k, j) * fa ** (k - j) * UNIT ** (j - 1) * ma**j for j in range(1, k + 1))
            return v, k * abs(float(v)) + spread

        return ipow
    b = _compile(right)

    def binary(x):
        va, ma = a(x)
        vb, mb = b(x)
        if op == "+":
            v = va + vb
            return v, ma + mb + abs(float(v))
        if op == "-":
            v = va - vb
            return v, ma + mb + abs(float(v))
        if op == "*":
            v = va * vb
            return v, ma * abs(float(vb)) + abs(float(va)) * mb + UNIT * ma * mb + abs(float(v))
        if op == "/":
            v = va / vb
            fv = abs(float(v))
            return v, (ma + fv * mb) / abs(float(vb)) + fv
        # general power, computed by adiff as exp(y * ln x)
        v = va**vb
        fv, lna = abs(float(v)), abs(float(mpmath.log(va)))
        return v, fv * (1.0 + abs(float(vb)) * lna + lna * mb + abs(float(vb / va)) * ma)

    return binary


def _compile_call(name, arg):
    def call(x):
        va, ma = arg(x)
        if name == "sin":
            v = mpmath.sin(va)
            return v, abs(float(v)) + ma
        if name == "cos":
            v = mpmath.cos(va)
            return v, abs(float(v)) + ma
        if name == "exp":
            v = mpmath.exp(va)
            return v, abs(float(v)) * (1.0 + ma)
        if name == "ln":
            v = mpmath.log(va)
            return v, abs(float(v)) + ma / abs(float(va))
        if name == "sqrt":
            v = mpmath.sqrt(va)
            return v, abs(float(v)) + ma / (2.0 * abs(float(v)))
        if name == "abs":
            return abs(va), ma
        if name == "floor":
            return mpmath.floor(va), abs(float(va))
        if name == "frac":
            return va - mpmath.floor(va), abs(float(va)) + ma
        if name == "gamma":
            v = mpmath.gamma(va)
            fv = abs(float(v))
            return v, fv * (1.0 + abs(float(mpmath.loggamma(va))) + abs(float(mpmath.digamma(va))) * ma)
        if name == "digamma":
            v = mpmath.digamma(va)
            fa = abs(float(va))
            return v, abs(float(v)) + 1.0 + (1.0 / fa + 1.0 / (fa * fa)) * ma
        raise ValueError(name)

    return call


class Summand:
    """A memoized reference evaluator for one expression tree."""

    def __init__(self, node):
        self._fn = _compile(node)
        self._memo: dict[float, tuple] = {}

    def __call__(self, x: float) -> tuple:
        hit = self._memo.get(x)
        if hit is None:
            hit = self._memo[x] = self._fn(mpf(x))
        return hit


class References:
    """Summand evaluators and operator series shared across commands."""

    def __init__(self):
        self._fns: dict = {}
        self._series: dict = {}

    def fn(self, node) -> Summand:
        s = self._fns.get(node)
        if s is None:
            s = self._fns[node] = Summand(node)
        return s

    def series(self, factors) -> "_Series":
        key = tuple(factors)
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _Series(factors)
        return s


# ------------------------------------------------------------ arithmetic


def lattice_counts(t: float, h: float) -> tuple[int, ...]:
    """Accepted values of floor_h(t), clamped at 0 as adiff's sums are."""
    q = Fraction(t) / Fraction(h)
    k = round(q)
    if k >= 1 and abs(q - k) <= LATTICE_SNAP * max(1, abs(q)):
        return (k - 1, k)
    return (max(math.floor(q), 0),)


def near_lattice(t: float, h: float) -> bool:
    """True when t or t + h (in binary64) sits on a lattice point n*h, n >= 1.

    At such points the float sum t + h can round across the lattice point,
    which is the residual-law defect of ROADMAP item 1.
    """
    return len(lattice_counts(t, h)) == 2 or len(lattice_counts(t + h, h)) == 2


def parse_lambda(text: str):
    z = complex(text.replace("i", "j"))
    return mpc(z.real, z.imag) if "i" in text else mpf(z.real)


def _resolvent(f: Summand, t: float, h: float, lam, n: int):
    """sum_{s=1..n} lam^(s-1) f(t - h s) and its error magnitude."""
    acc = mpf(0) if isinstance(lam, mpf) else mpc(0)
    scale = 0.0
    w = mpf(1) if isinstance(lam, mpf) else mpc(1)
    aw = 1.0
    alam = abs(complex(lam))
    for s in range(1, n + 1):
        v, m = f(t - h * s)
        acc += w * v
        scale += aw * m
        w *= lam
        aw *= alam
    return acc, scale


def _close(got: complex, want, scale: float) -> bool:
    return abs(got - complex(want)) <= RTOL * scale + 1e-300


# ------------------------------------------------------------ parsing


def _float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise Bad(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise Bad(f"non-finite number {text!r}")
    return x


def _text_record(line: str) -> dict:
    parts = [p.split("=", 1) for p in line.split(" ")]
    if any(len(p) != 2 for p in parts) or [p[0] for p in parts] != RECORD_KEYS:
        raise Bad(f"bad record line {line!r}")
    return {k: v for k, v in parts}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _json_record(line: str) -> dict:
    try:
        obj = json.loads(line, parse_constant=_reject_constant)
    except ValueError:
        known = KNOWN_JSON if re.search(r"\b-?(inf|nan)\b", line) else None
        raise Bad(f"invalid JSON {line[:80]!r}", known) from None
    if not isinstance(obj, dict) or list(obj) != RECORD_KEYS:
        raise Bad(f"bad JSON record {line[:80]!r}")
    return {k: ("" if v is None else json.dumps(v)) for k, v in obj.items()}


def _table_records(spec, out: str) -> list[dict]:
    lines = out.splitlines()
    if spec["format"] == "csv":
        if not lines or lines[0] != CSV_HEADER:
            raise Bad("missing CSV header")
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(RECORD_KEYS):
                raise Bad(f"bad CSV row {line!r}")
            rows.append(dict(zip(RECORD_KEYS, cells)))
        return rows
    return [_json_record(line) for line in lines]


# ------------------------------------------------------------ checks


def _check_point(refs: References, spec, rec: dict, t: float, h: float, lam) -> None:
    """One eval record or resolvent/antidiff table row at point t."""
    if _float(rec["t"]) != t:
        raise Bad(f"row t={rec['t']} expected {t!r}")
    got = complex(_float(rec["value"]), _float(rec["imag"]))
    terms = int(rec["terms_used"]) if rec["terms_used"].isdigit() else -1
    f = refs.fn(spec["expr"])
    counts = lattice_counts(t, h)
    if terms not in counts:
        raise Bad(f"terms_used={rec['terms_used']} at t={t!r}, expected one of {counts}")
    want, scale = _resolvent(f, t, h, lam, terms)
    if not _close(got, want, scale):
        raise Bad(f"value {got} at t={t!r}, reference {complex(want)} (scale {scale:.3g})")
    if rec["residual"] == "":
        raise Bad("missing residual")
    residual = _float(rec["residual"])
    bound = RTOL * 2.0 * (f(t)[1] + abs(complex(lam)) * scale) + 1e-300
    if not 0.0 <= residual <= bound:
        known = KNOWN_RESIDUAL if near_lattice(t, h) else None
        raise Bad(f"residual {residual!r} at t={t!r} above bound {bound:.3g}", known)


def _check_eval(refs, spec, out: str, rc: int) -> None:
    lines = out.splitlines()
    if len(lines) != 1:
        raise Bad(f"expected one line, got {len(lines)}")
    t, h = float(spec["t"]), float(spec["h"])
    _check_point(refs, spec, _text_record(lines[0]), t, h, parse_lambda(spec["lam"]))


def table_rows(lo: str, hi: str, step: str) -> list[float]:
    """The documented table grid: t_i = from + i*step up to 'to' (1e-9 slack)."""
    a, b, s = float(lo), float(hi), float(step)
    q = (Fraction(b) - Fraction(a)) / Fraction(s)
    count = math.floor(q + LATTICE_SNAP) + 1
    return [a + i * s for i in range(count)]


def _check_table(refs, spec, out: str, rc: int) -> None:
    records = _table_records(spec, out)
    grid = table_rows(spec["from"], spec["to"], spec["step"])
    if len(records) != len(grid):
        raise Bad(f"{len(records)} rows, expected {len(grid)}")
    known_failures = []
    for rec, t in zip(records, grid):
        try:
            if spec["mode"] == "solve":
                _check_solve_point(refs, spec, rec, t)
            elif spec["mode"] == "antidiff":
                _check_point(refs, spec, rec, t, 1.0, mpf(1))
            else:
                _check_point(refs, spec, rec, t, float(spec["h"]), parse_lambda(spec["lam"]))
        except Bad as exc:
            if exc.known is None:
                raise
            known_failures.append(exc)
    if known_failures:
        first = known_failures[0]
        raise Bad(f"{len(known_failures)} rows: {first}", first.known)


def _check_sum(refs, spec, out: str, rc: int) -> None:
    lines = out.splitlines()
    if len(lines) != 1:
        raise Bad(f"expected one line, got {len(lines)}")
    got = _float(lines[0])
    f = refs.fn(spec["expr"])
    want = mpf(0)
    for k in range(spec["from"], spec["to"] + 1):
        want += f(float(k))[0]
    scale = sum(f(float(k))[1] for k in range(0, spec["to"] + 1))
    if not _close(got, want, scale):
        raise Bad(f"sum {got!r}, reference {float(want)!r}")


# ---- factored operators


class _Series:
    """Coefficients C_m of prod_i x^{a_i} / (1 - lam_i x^{a_i}) on the lattice g.

    The nested sum of a factored operator groups into y(t) = sum_m C_m
    f(t - g m) over m <= floor(t/g), because every level's bound reduces to
    the innermost argument staying >= 0. Each factor is one linear
    recurrence P_m = Q_{m-a} + lam P_{m-a}, so the series costs O(k M).
    """

    def __init__(self, factors):
        hs = [Fraction(float(h)) for h, _ in factors]
        den = math.lcm(*(x.denominator for x in hs))
        self.g = Fraction(math.gcd(*(x.numerator * (den // x.denominator) for x in hs)), den)
        self.steps = [int(x / self.g) for x in hs]
        self.lams = [parse_lambda(lam) for _, lam in factors]
        self.coef: list = []

    def upto(self, m_max: int) -> list:
        if len(self.coef) <= m_max:
            size = m_max + 1
            c = [mpc(1)] + [mpc(0)] * (size - 1)
            for a, lam in zip(self.steps, self.lams):
                p = [mpc(0)] * size
                for m in range(a, size):
                    p[m] = c[m - a] + lam * p[m - a]
                c = p
            self.coef = c
        return self.coef


def _solve_sum(refs, spec, series: _Series, u: float):
    f = refs.fn(spec["expr"])
    g = float(series.g)
    top = math.floor(Fraction(u) / series.g)
    coef = series.upto(top)
    acc, scale = mpc(0), 0.0
    for m in range(top + 1):
        c = coef[m]
        if c != 0:
            v, mag = f(u - g * m)
            acc += c * v
            scale += abs(complex(c)) * mag
    return acc, scale


def _check_solve_point(refs, spec, rec: dict, t: float) -> None:
    if _float(rec["t"]) != t:
        raise Bad(f"row t={rec['t']} expected {t!r}")
    got = complex(_float(rec["value"]), _float(rec["imag"]))
    _float(rec["terms_used"])  # printed, but it is an estimate and not checked
    series = refs.series(spec["factors"])
    want, scale = _solve_sum(refs, spec, series, t)
    if not _close(got, want, scale):
        raise Bad(f"value {got} at t={t!r}, reference {complex(want)} (scale {scale:.3g})")
    # op y - f expands into 2^k shifted values of y; bound each by its scale.
    bound = refs.fn(spec["expr"])(t)[1]
    shifts = [(0.0, 1.0)]
    for (h, _), lam in zip(spec["factors"], series.lams):
        alam = abs(complex(lam))
        shifts = [(d + float(h), w) for d, w in shifts] + [(d, w * alam) for d, w in shifts]
    for d, w in shifts:
        bound += w * _solve_sum(refs, spec, series, t + d)[1]
    residual = _float(rec["residual"])
    if not 0.0 <= residual <= RTOL * bound + 1e-300:
        raise Bad(f"residual {residual!r} at t={t!r} above bound {RTOL * bound:.3g}")


def _check_solve(refs, spec, out: str, rc: int) -> None:
    lines = out.splitlines()
    if len(lines) != 1:
        raise Bad(f"expected one line, got {len(lines)}")
    _check_solve_point(refs, spec, _text_record(lines[0]), float(spec["t"]))


# ---- verify and inequality

_VERIFY_LINE = re.compile(r"^(\S+): samples=(\d+) max_abs_residual=(\S+) (PASS|FAIL)( witnesses=\[.*\])?$")


def _check_verify(refs, spec, out: str, rc: int) -> None:
    """Each identity holds exactly, so each must PASS within adiff's tolerance."""
    lines = out.splitlines()
    if len(lines) != len(IDENTITY_NAMES):
        raise Bad(f"{len(lines)} identity lines, expected {len(IDENTITY_NAMES)}")
    for name, line in zip(IDENTITY_NAMES, lines):
        m = _VERIFY_LINE.match(line)
        if not m or m.group(1) != name or int(m.group(2)) != spec["samples"]:
            raise Bad(f"bad identity line {line!r}")
        if not 0.0 <= _float(m.group(3)) <= VERIFY_TOL or m.group(4) != "PASS":
            raise Bad(f"identity failed: {line!r}")
    if rc != 0:
        raise Bad(f"exit {rc} although every identity passed")


_INEQ_LINE = re.compile(
    r"^direction=(geq|leq) samples=(\d+) min_residual=(\S+) max_residual=(\S+) "
    r"max_slack_mismatch=(\S+) violations=(\d+) (PASS|FAIL)$"
)


def _check_inequality(refs, spec, out: str, rc: int) -> None:
    """y(t+h) - lam*y(t) equals slack(t) exactly, so the check must PASS."""
    lines = out.splitlines()
    m = _INEQ_LINE.match(lines[0]) if len(lines) == 1 else None
    if not m or m.group(1) != spec["direction"] or int(m.group(2)) != spec["samples"]:
        raise Bad(f"bad inequality output {out[:120]!r}")
    h, lam = float(spec["h"]), float(spec["lam"])
    lo, hi, n = float(spec["from"]), float(spec["to"]), spec["samples"]
    step = (hi - lo) / (n - 1)
    grid = [lo + i * step for i in range(n)]
    slack, mu = refs.fn(spec["slack"]), refs.fn(spec["mu"])
    values = [slack(t)[0] for t in grid]
    # Error scale of y near the top of the range: homogeneous part plus the
    # at most floor((to+h)/h) weighted slack terms.
    growth = max(1.0, abs(lam)) ** ((hi + h) / h + 1)
    mags = [mu(t)[1] for t in grid] + [slack(t)[1] for t in grid] + [slack(hi + h)[1]]
    scale = (1.0 + abs(lam)) * growth * (1.0 + (hi + h) / h) * max(mags)
    try:
        for got, want in ((m.group(3), min(values)), (m.group(4), max(values))):
            if not abs(_float(got) - float(want)) <= RTOL * (1.0 + scale):
                raise Bad(f"residual range {got} vs reference {float(want)!r}")
        if _float(m.group(5)) > SLACK_MATCH_TOL or m.group(6) != "0" or m.group(7) != "PASS":
            raise Bad(f"inequality check failed: {lines[0]!r}")
        if rc != 0:
            raise Bad(f"exit {rc} although the check passed")
    except Bad as exc:
        if any(near_lattice(t, h) for t in grid):
            raise Bad(str(exc), KNOWN_RESIDUAL) from None
        raise


def _check_error(spec, rc: int, out: str) -> None:
    if rc in spec["codes"]:
        if out:
            raise Bad(f"exit {rc} but stdout is not empty")
        return
    if spec["json_ok"] and rc == 0:
        for line in out.splitlines():
            _json_record(line)
        return
    raise Bad(f"exit {rc}, expected {sorted(spec['codes'])}")


_CHECKS = {
    "eval": _check_eval,
    "table": _check_table,
    "sum": _check_sum,
    "solve": _check_solve,
    "verify": _check_verify,
    "inequality": _check_inequality,
}


class Checker:
    def __init__(self):
        self.refs = References()

    def check(self, argv, spec, rc, out: str, err: str, exc: str | None) -> Verdict:
        """Judge one command's outcome against its spec."""
        try:
            if exc is not None:
                known = KNOWN_OVERFLOW if exc == "OverflowError" and argv[0] == "inequality" else None
                raise Bad(f"uncaught {exc}", known)
            if spec["kind"] == "error":
                _check_error(spec, rc, out)
                if rc != 0 and not err.strip():
                    raise Bad(f"exit {rc} without a diagnostic on stderr")
                return OK
            # Exit 1 reports a failed check; the verify and inequality
            # checks read the report to judge it.
            if rc != 0 and not (rc == 1 and spec["kind"] in ("verify", "inequality")):
                raise Bad(f"exit {rc}, expected 0: {err.strip()[:120]}")
            _CHECKS[spec["kind"]](self.refs, spec, out, rc)
            return OK
        except Bad as exc_bad:
            return Verdict(False, str(exc_bad), exc_bad.known)


# ------------------------------------------------------------ self-test


def self_test() -> None:
    """The checker must pass good output and count each planted fault once."""
    from workloads import T, num

    checker = Checker()
    eval_spec = {"kind": "eval", "expr": num("1"), "t": "3.5", "h": "1", "lam": "1"}
    eval_argv = ("eval",)
    good_eval = "t=3.5 value=3 imag=0 terms_used=3 residual=0\n"
    table_spec = {"kind": "table", "expr": T, "from": "0", "to": "2", "step": "1", "mode": "antidiff",
                  "format": "csv", "h": "1", "lam": "1", "factors": None}
    good_csv = "t,value,imag,terms_used,residual\n0,0,0,0,0\n1,0,0,1,0\n2,1,0,2,0\n"
    json_spec = dict(table_spec, format="json")
    good_json = "".join(
        f'{{"t": {t}, "value": {v}, "imag": 0, "terms_used": {t}, "residual": 0}}\n'
        for t, v in ((0, 0), (1, 0), (2, 1))
    )
    cases = [
        (eval_argv, eval_spec, 0, good_eval, None, True),
        (("table",), table_spec, 0, good_csv, None, True),
        (("table",), json_spec, 0, good_json, None, True),
        (("table",), table_spec, 0, good_csv.replace("2,1,0,2,0", "2,5,0,2,0"), None, False),
        (eval_argv, eval_spec, 2, good_eval, None, False),
        (("table",), json_spec, 0, good_json.replace('"value": 1', '"value": inf'), None, False),
        (eval_argv, eval_spec, None, "", "ZeroDivisionError", False),
    ]
    failures = 0
    for argv, spec, rc, out, exc, should_pass in cases:
        verdict = checker.check(argv, spec, rc, out, "", exc)
        if verdict.ok != should_pass:
            raise AssertionError(f"checker self-test: {argv} {spec['kind']} -> {verdict}")
        failures += not verdict.ok
    if failures != 4:
        raise AssertionError(f"checker self-test counted {failures} failures, expected 4")
