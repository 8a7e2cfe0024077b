"""Seeded workload generators for the adiff CLI benchmark.

Each generator turns a seed into a list of ``Cmd``: the argv the program
receives, plus a ``spec`` that tells the checker what the output must be.
The program sees only the argv. The mix of each workload is stratified:
the number of commands of each shape is fixed, and the seed draws the
coefficients, points, step sizes and identity seeds inside each stratum.
That keeps the work per pass nearly the same across seeds, so timings from
different seeds can be compared, while every seed still gives a different
set of inputs.

Expressions are built as small trees so that the same tree can be rendered
as adiff source text here and evaluated independently in ``reference``.
Tree nodes are tuples: ``("num", text)``, ``("t",)``, ``("pi",)``,
``("e",)``, ``("neg", x)``, ``(op, a, b)`` for op in ``+ - * / ^``, and
``("call", name, x)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

T = ("t",)

#: Identity names that ``adiff verify --identity all`` reports, in order.
#: Written out here, not imported, so the checker does not take them from
#: the program it checks.
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


@dataclass(frozen=True)
class Cmd:
    argv: tuple[str, ...]
    spec: dict


# ------------------------------------------------------------ expressions


def num(text: str) -> tuple:
    return ("num", text)


def dec(x: float, places: int) -> str:
    """Render x with at most ``places`` decimals and no trailing zeros."""
    text = f"{x:.{places}f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def rnum(rng: random.Random, lo: float, hi: float, places: int = 1) -> tuple:
    return num(dec(rng.uniform(lo, hi), places))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: tuple) -> int:
    return _PREC.get(node[0], 5)


def render(node: tuple) -> str:
    """adiff source text whose parse tree has exactly the shape of ``node``."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind in ("t", "pi", "e"):
        return kind
    if kind == "call":
        return f"{node[1]}({render(node[2])})"
    if kind == "neg":
        inner = render(node[1])
        return "-" + (inner if _prec(node[1]) >= 5 else f"({inner})")
    op, left, right = node
    ltext, rtext = render(left), render(right)
    if op == "^":
        # The base of '^' is a unary production in adiff, so '-t^2' means
        # (-t)^2; parenthesise everything but atoms on both sides.
        if _prec(left) < 5:
            ltext = f"({ltext})"
        if _prec(right) < 5:
            rtext = f"({rtext})"
        return f"{ltext}^{rtext}"
    if _prec(left) < _PREC[op]:
        ltext = f"({ltext})"
    if _prec(right) <= _PREC[op]:
        rtext = f"({rtext})"
    sep = " " if op in "+-" else ""
    return f"{ltext}{sep}{op}{sep}{rtext}"


def _family(rng: random.Random, name: str) -> tuple:
    """The grid/solve corpus: polynomial, trigonometric and 0.5^t summands."""
    if name == "poly":
        return (
            "+",
            ("+", ("*", rnum(rng, 0.5, 3.0), ("^", T, num("2"))), ("*", rnum(rng, 0.5, 5.0), T)),
            rnum(rng, 0.5, 9.0),
        )
    if name == "trig":
        return (
            "+",
            ("*", rnum(rng, 0.5, 3.0), ("call", "sin", ("*", rnum(rng, 0.3, 2.0), T))),
            ("call", "cos", T),
        )
    if name == "decay":
        return ("*", rnum(rng, 0.5, 4.0), ("^", num("0.5"), T))
    raise ValueError(name)


FAMILIES = ("poly", "trig", "decay")


def _random_tree(rng: random.Random, depth: int) -> tuple:
    """A random expression defined and finite for every t >= 0.

    Logarithms, square roots, divisions and special functions only see
    arguments bounded away from their poles for t >= 0, and exponents are
    small integers, so the value stays finite on the points a command
    evaluates. Cancellation can still happen; the reference tracks it.
    """
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.55:
            return T
        if r < 0.92:
            return rnum(rng, 0.5, 9.5)
        return ("pi",) if r < 0.96 else ("e",)
    r = rng.random()
    if r < 0.45:
        op = rng.choice("+-*")
        return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if r < 0.55:
        shifted = ("+", T, rnum(rng, 0.5, 4.0))
        return ("/", _random_tree(rng, depth - 1), shifted if rng.random() < 0.7 else rnum(rng, 1.0, 9.0))
    if r < 0.63:
        return ("^", _random_tree(rng, depth - 1), num(rng.choice(("2", "3"))))
    if r < 0.67:
        return ("neg", _random_tree(rng, depth - 1))
    fn = rng.choice(("sin", "cos", "exp", "ln", "sqrt", "abs", "floor", "frac", "gamma", "digamma"))
    if fn in ("sin", "cos", "abs"):
        return ("call", fn, _random_tree(rng, depth - 1))
    if fn in ("floor", "frac"):
        return ("call", fn, T)
    if fn == "exp":
        return ("call", fn, ("/", T, rnum(rng, 3.0, 8.0)))
    if fn == "gamma":
        return ("call", fn, ("+", ("/", T, rnum(rng, 4.0, 8.0)), rnum(rng, 0.5, 3.0)))
    return ("call", fn, ("+", T, rnum(rng, 0.5, 4.0)))


def _lam(rng: random.Random, kind: str) -> str:
    """A coefficient of modulus at most 1: '1', a real, or an 'a+bi' complex."""
    if kind == "one":
        return "1"
    if kind == "real":
        return dec(rng.choice((1, -1)) * rng.uniform(0.5, 1.0), 2)
    radius, angle = rng.uniform(0.5, 0.98), rng.uniform(0.2, math.pi - 0.2)
    re, im = dec(radius * math.cos(angle), 2), dec(radius * math.sin(angle), 2)
    return f"{re}{'' if im.startswith('-') else '+'}{im}i"


_LAM_KINDS = ("one", "real", "complex")


# ---------------------------------------------------------------- grid

GRID_H = ("1", "0.5", "0.25", "0.1", "0.3")


def gen_grid(rng: random.Random) -> list[Cmd]:
    """eval at large t and antidiff/resolvent tables over many terms.

    Every h in GRID_H meets every corpus family three times: one eval with
    about a thousand terms and two tables whose step equals h, so the rows
    sit on grid points t = n*h (where non-dyadic h breaks the residual law
    today). Six antidifference tables add the default h = 1 path.

    The eval points come from a stream of their own that every seed shares.
    Whether an eval at h = 0.1 breaks the residual law depends on its point
    alone, so a shared stream keeps the number of failing commands the same
    for every seed, while the seed still draws the summands, the lambdas and
    the table ends.
    """
    cmds = []
    slot = 0
    points = random.Random("adiff-bench:grid:points")
    for h in GRID_H:
        hv = float(h)
        for fam in FAMILIES:
            lam = _lam(rng, _LAM_KINDS[slot % 3])
            slot += 1
            expr = _family(rng, fam)
            t = dec(points.randint(round(9500 * hv), round(10500 * hv)) / 10, 1)
            cmds.append(_eval_cmd(expr, t, h, lam))
            for fmt in ("csv", "json"):
                lam = _lam(rng, _LAM_KINDS[slot % 3])
                slot += 1
                to = dec(hv * rng.randint(68, 72), 6)
                cmds.append(_table_cmd(expr, "0", to, h, fmt, mode="resolvent", h=h, lam=lam))
    for fam in FAMILIES:
        for step, fmt in (("0.5", "csv"), ("0.25", "json")):
            expr = _family(rng, fam)
            to = dec(float(step) * rng.randint(68, 72), 6)
            cmds.append(_table_cmd(expr, "0", to, step, fmt, mode="antidiff"))
    return cmds


# '--flag=value' keeps argparse from reading a value such as '-0.5+0.2i' or
# '-t' as a flag of its own.
def _eval_cmd(expr, t: str, h: str, lam: str) -> Cmd:
    argv = ("eval", "--expr=" + render(expr), "--t", t, "--h", h, "--lambda=" + lam)
    return Cmd(argv, {"kind": "eval", "expr": expr, "t": t, "h": h, "lam": lam})


def _table_cmd(expr, lo: str, hi: str, step: str, fmt: str, mode: str, h="1", lam="1", factors=None) -> Cmd:
    argv = ["table", "--expr=" + render(expr), "--from", lo, "--to", hi, "--step", step, "--mode", mode, "--format", fmt]
    if mode == "resolvent":
        argv += ["--h", h, "--lambda=" + lam]
    if mode == "solve":
        argv += ["--factors", _factor_text(factors)]
    spec = {"kind": "table", "expr": expr, "from": lo, "to": hi, "step": step, "mode": mode,
            "format": fmt, "h": h, "lam": lam, "factors": factors}
    return Cmd(tuple(argv), spec)


# ---------------------------------------------------------------- solve


def _factor_text(factors) -> str:
    return ";".join(f"{h}:{lam}" for h, lam in factors)


def _operators(rng: random.Random) -> list[tuple[list, float, int]]:
    """(factors, typical t, table end): 2-3 factors, repeated, conjugate, mixed h.

    A k-factor solve costs about t^k and a table up to T about T^(k+1), so
    the typical t and the table end shrink with k: every solve of one
    operator costs about the same, and every table about 40 ms. Equal-cost
    tables form one dense group at the top of the mix, which keeps the 90th
    percentile inside the group instead of between two sparse outliers.
    """
    a = lambda: dec(rng.uniform(0.5, 0.95), 2)
    neg = lambda: dec(-rng.uniform(0.5, 0.95), 2)
    rep, rep3 = a(), a()
    return [
        ([("1", rep), ("1", rep)], 55.0, 20),
        ([("1", rep3), ("1", rep3), ("1", rep3)], 19.0, 16),
        ([("1", "1i"), ("1", "-1i")], 55.0, 20),
        ([("1", a()), ("0.5", neg())], 34.0, 16),
        ([("0.5", a()), ("1", neg()), ("1", a())], 13.0, 12),
        ([("1", "1i"), ("1", "-1i"), ("0.5", a())], 13.0, 11),
        ([("1", a()), ("1", neg())], 55.0, 20),
    ]


def gen_solve(rng: random.Random) -> list[Cmd]:
    """solve and table --mode solve over seven 2-3 factor operators.

    Each operator gets three solves, over three of the four summands
    (corpus families and the constant 1, one left out in turn), and a CSV
    and a JSON table, so every pass runs the memoized nested layers and
    verify_particular's 2^k shifted re-solves. The seed moves t by at most
    0.5% and never the table ranges, keeping the work per pass steady across
    seeds. The 35 commands put the pooled median and 90th percentile in the
    middle of one command's samples rather than between two commands.
    """
    cmds = []
    summands = FAMILIES + ("one",)
    for i, (factors, center, table_end) in enumerate(_operators(rng)):
        for fam in summands[:i % 4] + summands[i % 4 + 1:]:
            expr = num("1") if fam == "one" else _family(rng, fam)
            t = dec(center * rng.randint(1000, 1005) / 1000, 2)
            argv = ("solve", "--factors", _factor_text(factors), "--expr=" + render(expr), "--t", t)
            cmds.append(Cmd(argv, {"kind": "solve", "expr": expr, "t": t, "factors": factors}))
        for fmt, fam in (("csv", "poly"), ("json", "trig")):
            cmds.append(_table_cmd(_family(rng, fam), "0", str(table_end), "1", fmt, mode="solve", factors=factors))
    return cmds


# ---------------------------------------------------------------- oneshot


def _error_cases(rng: random.Random, k: int) -> Cmd:
    """Malformed or out-of-range inputs with their documented exit codes.

    Cases 6 and 7 are known defects today: the huge lambda escapes as an
    OverflowError traceback and the overflowing table writes 'inf' into
    JSON. They stay in the mix so the defects keep showing.
    """
    e = render(_random_tree(rng, 2))
    t = dec(rng.uniform(1.0, 15.0), 1)
    cases = [
        (("eval", "--expr=" + rng.choice((f"({e}", f"{e} +", f"{e} $ 2", "t 2", "sinh(t)")), "--t", t), {2}),
        (("eval", "--expr=" + e), {2}),
        (("eval", "--expr=" + e, "--t", "abc"), {2}),
        (("eval", "--expr=" + e, "--t", t, "--h", rng.choice(("0", "-1", "-0.5"))), {2}),
        (("eval", "--expr=" + e, "--t", t, "--lambda", rng.choice(("0", "2x", "0+0i"))), {2}),
        (("eval", "--expr=" + rng.choice(("ln(t - 100)", "1/(t - t)", "sqrt(t - 50)")), "--t", t), {2}),
        (("inequality", "--h", "1", "--lambda", "1e300", "--direction", "geq", "--mu", "1",
          "--slack", "1", "--from", "0", "--to", dec(rng.randint(4, 12), 0)), {2}),
        (("table", "--expr", "exp(t*100)", "--from", "0", "--to", "10", "--step", "5", "--format", "json"), {2}),
        (("sum", "--expr=" + e, "--from", str(rng.randint(8, 15)), "--to", str(rng.randint(0, 6))), {2}),
        (("solve", "--factors", "1:0.9;1:0.9", "--expr", "1", "--t", dec(rng.uniform(40, 60), 1),
          "--budget", "100"), {3}),
        (("inequality", "--h", "1", "--lambda", "2", "--direction", "geq", "--mu", "1",
          "--slack", "t - 5", "--from", "0", "--to", "10"), {2}),
        (("inequality", "--h", "1", "--lambda", "2", "--direction", "geq", "--mu", "t",
          "--slack", "1", "--from", "0", "--to", "10"), {2}),
    ]
    argv, codes = cases[k % len(cases)]
    spec = {"kind": "error", "codes": codes, "json_ok": argv[0] == "table"}
    return Cmd(tuple(argv), spec)


ONESHOT_COMMANDS = 240
ONESHOT_ERROR_EVERY = 8  # one command in eight is malformed or out of range


def gen_oneshot(rng: random.Random) -> list[Cmd]:
    """Distinct random expressions, each run once as a small eval or sum."""
    cmds = []
    for i in range(ONESHOT_COMMANDS):
        if i % ONESHOT_ERROR_EVERY == ONESHOT_ERROR_EVERY - 1:
            cmds.append(_error_cases(rng, i // ONESHOT_ERROR_EVERY))
            continue
        expr = _random_tree(rng, 3)
        if i % 3 == 2:
            lo = rng.randint(0, 5)
            hi = lo + rng.randint(0, 15)
            argv = ("sum", "--expr=" + render(expr), "--from", str(lo), "--to", str(hi))
            cmds.append(Cmd(argv, {"kind": "sum", "expr": expr, "from": lo, "to": hi}))
        else:
            h = rng.choice(("1", "0.5"))
            t = dec(rng.uniform(0.5, 20.0 * float(h)), 1)
            lam = _lam(rng, rng.choice(_LAM_KINDS))
            cmds.append(_eval_cmd(expr, t, h, lam))
    return cmds


# ---------------------------------------------------------------- battery

BATTERY_VERIFY = 21  # 31 commands: an odd count keeps the median inside one command
BATTERY_INEQUALITY = 10
#: An inequality sample grid (h, end, samples) whose last sample lands just
#: below a multiple of h, where the residual law breaks today. One inequality
#: per pass uses it, so the defect shows on every seed.
BATTERY_DEFECT_GRID = ("0.5", "3", 148)


def gen_battery(rng: random.Random) -> list[Cmd]:
    """verify --identity all at derived seeds, plus inequality builds/checks.

    Each inequality's sample grid (h, end point, sample count) comes from a
    stream of its own that every seed shares, except that the first uses
    BATTERY_DEFECT_GRID. Whether the last sample lands just below a multiple
    of h, which breaks the residual law today, depends on the grid alone, so
    the number of failing commands is the same for every seed; the seed
    draws lambda, mu and the slack.
    """
    cmds = []
    stream = random.Random("adiff-bench:battery:grids")
    grids = [BATTERY_DEFECT_GRID] + [
        (h, dec(float(h) * stream.randint(6, 7), 1), stream.randint(120, 160))
        for h in (stream.choice(("1", "0.5", "2")) for _ in range(BATTERY_INEQUALITY - 1))
    ]
    for _ in range(BATTERY_VERIFY):
        samples = rng.randint(290, 310)
        seed = rng.randrange(10**9)
        argv = ("verify", "--identity", "all", "--samples", str(samples), "--seed", str(seed))
        cmds.append(Cmd(argv, {"kind": "verify", "samples": samples}))
    for i, (h, to, samples) in enumerate(grids):
        direction = ("geq", "leq")[i % 2]
        positive = (i // 2) % 2 == 0
        lam = dec((1 if positive else -1) * rng.uniform(0.5, 1.5), 2)
        if positive:  # period h: mu(t + h) = mu(t)
            wave = ("call", "sin", ("*", ("/", ("*", num("2"), ("pi",)), num(h)), T))
            mu = ("+", rnum(rng, 0.5, 2.0), ("*", rnum(rng, 0.1, 0.4), wave))
        else:  # antiperiod h: mu(t + h) = -mu(t)
            mu = ("*", rnum(rng, 0.5, 2.0), ("call", "cos", ("*", ("/", ("pi",), num(h)), T)))
        slack = ("+", ("*", rnum(rng, 0.1, 2.0), ("^", T, num("2"))), rnum(rng, 0.5, 3.0))
        if direction == "leq":
            slack = ("neg", slack)
        argv = ("inequality", "--h", h, "--lambda", lam, "--direction", direction, "--mu=" + render(mu),
                "--slack=" + render(slack), "--from", "0", "--to", to, "--samples", str(samples))
        cmds.append(Cmd(argv, {"kind": "inequality", "h": h, "lam": lam, "mu": mu, "slack": slack,
                               "from": "0", "to": to, "samples": samples, "direction": direction}))
    return cmds


_GENERATORS = {"grid": gen_grid, "solve": gen_solve, "oneshot": gen_oneshot, "battery": gen_battery}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> list[Cmd]:
    """The workload's command list for ``seed``; the order is shuffled by seed."""
    rng = random.Random(f"adiff-bench:{workload}:{seed}")
    cmds = _GENERATORS[workload](rng)
    rng.shuffle(cmds)
    return cmds
