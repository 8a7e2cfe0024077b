"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Tolerances are pinned here; "relative" residuals of telescoping
identities are measured against the evaluated terms' own scale (see the
inline notes), since the exact value of those residuals is zero.
"""

import cmath
import functools
import math
import random
import subprocess
import sys

import pytest

from adiff.antidiff import antidifference, definite_sum, resolvent_sum
from adiff.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAILED, main
from adiff.errors import ParseError, SignViolation
from adiff.exprlang import parse, unparse
from adiff.inequality import Direction, InequalitySpec, build_solution
from adiff.numkit import digamma, floor_mod, ln_gamma
from adiff.opalgebra import FactoredOperator, particular_solution, verify_particular
from adiff.convkernel import convolve
from adiff.verify import exp_antidifference, gamma_ratio_product, mueller_sum

from test_exprlang import gen_ast

OMEGA = cmath.exp(2j * math.pi / 3)

BOUNDED_FUNCS = [
    lambda u: 1.0,
    math.sin,
    math.cos,
    lambda u: 0.5**u,
    lambda u: 1.0 / (1.0 + u * u),
]


def criterion(num, label):
    """Print one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE-{num:02d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE-{num:02d} {label}: PASS")

        return run

    return wrap


@criterion(1, "right-inverse law")
def test_right_inverse_law(corpus):
    rng = random.Random(1)
    for _ in range(500):
        src, f = corpus[rng.randrange(len(corpus))]
        t = rng.uniform(1.0, 15.0)
        delta = antidifference(f, t + 1.0).value - antidifference(f, t).value
        assert abs(delta - f(t)) <= 1e-9 * (1.0 + abs(f(t))), (src, t)


@criterion(2, "resolvent residual")
def test_resolvent_residual(corpus):
    # Residual is exactly zero in real arithmetic; binary64 noise scales
    # with the summed terms (weights reach |lam|^24 at h=0.5, t=12), so the
    # 1e-9 bound is taken relative to the evaluated equation's magnitude.
    rng = random.Random(2)
    for _ in range(500):
        src, f = corpus[rng.randrange(len(corpus))]
        lam = 0.0
        while lam == 0.0:
            lam = rng.uniform(-4.0, 4.0)
        h = rng.choice([0.5, 1.0, 2.0])
        t = rng.uniform(0.1, 12.0)
        y_t = resolvent_sum(f, t, lam, h).value
        y_th = resolvent_sum(f, t + h, lam, h).value
        scale = 1.0 + abs(f(t)) + abs(lam) * abs(y_t) + abs(y_th)
        assert abs(y_th - lam * y_t - f(t)) <= 1e-9 * scale, (src, lam, h, t)


def draw_noninteger(rng, lo, hi):
    while True:
        t = rng.uniform(lo, hi)
        if abs(t - round(t)) > 1e-6:
            return t


@criterion(3, "digamma identity")
def test_digamma_identity():
    rng = random.Random(3)
    for _ in range(200):
        t = draw_noninteger(rng, 0.0, 20.0)
        frac = t - math.floor(t)
        tail = sum(1.0 / (t - s) for s in range(1, math.floor(t) + 1))
        assert abs(digamma(t) - digamma(frac) - tail) <= 1e-8, t


@criterion(4, "gamma-ratio identity")
def test_gamma_ratio_identity():
    rng = random.Random(4)
    for _ in range(200):
        t = draw_noninteger(rng, 0.0, 20.0)
        frac = t - math.floor(t)
        ref = math.exp(ln_gamma(t) - ln_gamma(frac))
        assert abs(gamma_ratio_product(t) - ref) <= 1e-8 * (1.0 + abs(ref)), t


@criterion(5, "exponential periodic defect")
def test_exponential_periodic_defect():
    witness = antidifference(lambda u: 2.0**u, 3.5).value
    assert abs(witness - 9.899494936611665) <= 1e-9 * witness  # 7*sqrt(2)
    rng = random.Random(5)
    for a in (0.5, 2.0, 3.0):
        f = lambda u: a**u
        for _ in range(150):
            t = rng.uniform(1.0, 12.0)
            frac = t - math.floor(t)
            defect = antidifference(f, t).value - exp_antidifference(a, t)
            expected = -(a**frac) / (a - 1.0)
            assert abs(defect - expected) <= 1e-9 * (1.0 + abs(expected)), (a, t)


@criterion(6, "factorization identities")
def test_factorization_identities():
    from adiff.verify import factorization_identity_check

    one = lambda u: 1.0
    # Hand-derived fixed witness: both printed sides equal 20 at f=1, t=4.5.
    rhs_fixed = sum(4.0**s for s in range(1, max(floor_mod(4.5, 2.0).n, 0) + 1))
    assert rhs_fixed == 20.0
    assert factorization_identity_check("E2minus4", one, 4.5) <= 1e-9 * 21.0

    rng = random.Random(6)
    for name in ("E2minus4", "E2plus1"):
        for _ in range(100):
            t = rng.uniform(0.0, 12.0)
            f = BOUNDED_FUNCS[rng.randrange(len(BOUNDED_FUNCS))]
            n2 = max(floor_mod(t, 2.0).n, 0)
            if name == "E2minus4":
                ref = sum(4.0**s * f(t - 2.0 * s) for s in range(1, n2 + 1))
            else:
                ref = sum((-1.0) ** (s - 1) * f(t - 2.0 * s) for s in range(1, n2 + 1))
            gap = factorization_identity_check(name, f, t)
            assert gap <= 1e-9 * (1.0 + abs(ref)), (name, t)


@criterion(7, "operator residuals")
def test_operator_residuals():
    operators = [
        FactoredOperator.from_pairs([(1, 2), (1, -2)]),
        FactoredOperator.from_pairs([(1, 1j), (1, -1j)]),
        FactoredOperator.from_pairs([(1, OMEGA), (1, OMEGA.conjugate())]),
        FactoredOperator.from_pairs([(1, 1), (1, 1)]),
    ]
    rng = random.Random(7)
    for op in operators:
        conjugate_closed = sorted(
            (f.lam.real, f.lam.imag) for f in op.factors
        ) == sorted((f.lam.real, -f.lam.imag) for f in op.factors)
        for _ in range(100):
            t = rng.uniform(0.1, 10.0)
            f = BOUNDED_FUNCS[rng.randrange(len(BOUNDED_FUNCS))]
            assert verify_particular(op, f, t) <= 1e-9 * (1.0 + abs(f(t)))
            if conjugate_closed:
                y = particular_solution(op, f, t)
                assert abs(y.imag) <= 1e-10 * (1.0 + abs(y))


@criterion(8, "fundamental theorem cross-check")
def test_fundamental_theorem_exact():
    square = lambda k: k * k
    for n in range(1, 1001):
        via = definite_sum(square, 1, n)
        closed = n * (n + 1) * (2 * n + 1) / 6.0
        assert abs(via - closed) <= math.ulp(closed), n


@criterion(9, "mueller oracle periodicity")
def test_mueller_defect_periodic():
    rng = random.Random(9)
    for a in (0.3, 0.5, 0.9):
        f = lambda u: a**u

        def defect(x):
            return mueller_sum(f, x).value - resolvent_sum(f, x, 1.0).value

        for _ in range(100):
            x = rng.uniform(0.1, 10.0)
            assert abs(defect(x) - defect(x + 1.0)) <= 1e-8, (a, x)


@criterion(10, "inequality suite")
def test_inequality_suite(capsys):
    passing = [
        ["--h", "1", "--lambda", "1", "--direction", "geq", "--mu", "0", "--slack", "1"],
        ["--h", "1", "--lambda", "-1", "--direction", "geq", "--mu", "sin(pi*t)", "--slack", "0"],
        ["--h", "2", "--lambda", "3", "--direction", "leq", "--mu", "0", "--slack", "-1"],
    ]
    for extra in passing:
        code = main(["inequality", *extra, "--from", "0", "--to", "10"])
        assert code == EXIT_OK, extra
    capsys.readouterr()

    with pytest.raises(SignViolation):
        build_solution(
            InequalitySpec(1.0, 1.0, Direction.GEQ),
            lambda t: 0.0,
            lambda t: -1.0,
            t_range=(0.0, 10.0),
        )
    code = main(
        ["inequality", "--h", "1", "--lambda", "1", "--direction", "geq",
         "--mu", "0", "--slack", "-1", "--from", "0", "--to", "10"]
    )
    capsys.readouterr()
    assert code == EXIT_INPUT


@criterion(11, "convolution bitwise equality")
def test_convolution_bitwise(corpus):
    rng = random.Random(11)
    for _ in range(1000):
        _, f = corpus[rng.randrange(len(corpus))]
        t = rng.uniform(-1.0, 12.0)
        if rng.random() < 0.5:
            lam = rng.uniform(-4.0, 4.0) or 1.0
        else:
            lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) or 1j
        assert convolve(lam, f, t) == resolvent_sum(f, t, lam, 1.0).value


def nested_double_loop(lam1, lam2, f, t):
    acc = 0j
    w2 = 1.0 + 0j
    for s2 in range(1, max(math.floor(t), 0) + 1):
        inner = 0j
        w1 = 1.0 + 0j
        for s1 in range(1, max(math.floor(t - s2), 0) + 1):
            inner += w1 * complex(f(t - 1.0 * s2 - 1.0 * s1))
            w1 *= lam1
        acc += w2 * inner
        w2 *= lam2
    return acc


@criterion(12, "nested-sum oracle equality")
def test_nested_sum_oracle():
    rng = random.Random(12)
    cases = 0
    while cases < 100:
        lam1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if lam1 == 0 or lam2 == 0:
            continue
        t = rng.uniform(0.0, 12.999)
        f = BOUNDED_FUNCS[rng.randrange(len(BOUNDED_FUNCS))]
        op = FactoredOperator.from_pairs([(1, lam1), (1, lam2)])
        assert particular_solution(op, f, t) == nested_double_loop(lam1, lam2, f, t)
        cases += 1


@criterion(13, "parser round-trip and totality")
def test_parser_roundtrip_and_totality():
    rng = random.Random(13)
    for _ in range(1000):
        ast = gen_ast(rng, rng.randint(0, 6))
        assert parse(unparse(ast)) == ast
    for _ in range(10_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
        try:
            parse(raw)
        except ParseError:
            pass


@criterion(14, "CLI determinism and exit codes")
def test_cli_determinism_and_exit_codes(tmp_path, capsys):
    cmd = [sys.executable, "-m", "adiff", "verify", "--seed", "42", "--samples", "60"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and first.stdout

    matrix = [
        (["eval", "--expr", "1", "--t", "3.7"], EXIT_OK),
        (["verify", "--identity", "digamma", "--samples", "30", "--tol", "1e-30"], EXIT_VERIFY_FAILED),
        (["eval", "--expr", "2 +", "--t", "1"], EXIT_INPUT),
        (["sum", "--expr", "t", "--from", "5", "--to", "4"], EXIT_INPUT),
        (["solve", "--factors", "1:2;1:2", "--expr", "1", "--t", "60.5", "--budget", "10"], EXIT_BUDGET),
        (["table", "--expr", "1", "--from", "0", "--to", "2", "--step", "1",
          "--out", str(tmp_path / "no_dir" / "x.csv")], EXIT_IO),
    ]
    for argv, expected in matrix:
        code = main(argv)
        capsys.readouterr()
        assert code == expected, argv
