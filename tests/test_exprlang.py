"""Parser / evaluator / unparser tests, including round-trip properties."""

import json
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parse_corpus import CORPUS_PATH, outcome as parse_outcome

from adiff import numkit
from adiff.errors import EvalError, NonFiniteInput, ParseError, PoleError
from adiff.exprlang import (
    Binary,
    Call,
    Constant,
    Number,
    Unary,
    Variable,
    _TOKEN_RE,
    _gamma,
    _power,
    as_function,
    evaluate,
    parse,
    unparse,
)


def gen_ast(rng, depth):
    """Random well-formed tree (nonnegative finite literals, depth-limited)."""
    if depth <= 0:
        return rng.choice(
            [
                Number(round(rng.uniform(0, 10), 3)),
                Number(float(rng.randint(0, 5))),
                Variable(),
                Constant(rng.choice(["pi", "e"])),
            ]
        )
    pick = rng.random()
    if pick < 0.15:
        return Unary("-", gen_ast(rng, depth - 1))
    if pick < 0.35:
        return Call(
            rng.choice(["sin", "cos", "exp", "ln", "sqrt", "abs", "floor", "frac", "gamma", "digamma"]),
            gen_ast(rng, depth - 1),
        )
    op = rng.choice(["+", "-", "*", "/", "^", "+", "-", "*"])
    return Binary(op, gen_ast(rng, depth - 1), gen_ast(rng, depth - 1))


# The reference evaluator: a plain recursive walk over the tree, which the
# closures that as_function builds must match value for value and error for
# error. It shares _power and _gamma with the package; the closures unroll
# x^2 and x^3 instead of calling _power.


def oracle_eval(node, t):
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return t
    if isinstance(node, Constant):
        return {"pi": math.pi, "e": math.e}[node.name]
    if isinstance(node, Unary):
        return -oracle_eval(node.operand, t)
    if isinstance(node, Binary):
        left = oracle_eval(node.left, t)
        right = oracle_eval(node.right, t)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0.0:
                raise EvalError(EvalError.DIVISION_BY_ZERO, "division by zero", node)
            return left / right
        return _power(left, right, node)
    if isinstance(node, Call):
        return _oracle_call(node, oracle_eval(node.arg, t))
    raise TypeError(f"not an expression node: {node!r}")


def _oracle_call(node, v):
    name = node.func
    if name in ("sin", "cos"):
        if math.isinf(v):
            raise EvalError(EvalError.DOMAIN, f"{name} of an infinite value", node)
        return math.sin(v) if name == "sin" else math.cos(v)
    if name == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf
    if name == "ln":
        if not v > 0.0:
            raise EvalError(EvalError.DOMAIN, f"ln of non-positive value {v!r}", node)
        return math.log(v)
    if name == "sqrt":
        if v < 0.0:
            raise EvalError(EvalError.DOMAIN, f"sqrt of negative value {v!r}", node)
        return math.sqrt(v)
    if name == "abs":
        return abs(v)
    if name == "floor":
        if not math.isfinite(v):
            raise EvalError(EvalError.DOMAIN, f"floor of non-finite value {v!r}", node)
        return float(math.floor(v))
    if name == "frac":
        if not math.isfinite(v):
            raise EvalError(EvalError.DOMAIN, f"frac of non-finite value {v!r}", node)
        return v - math.floor(v)
    if name == "gamma":
        return _gamma(v, node)
    if name == "digamma":
        try:
            return numkit.digamma(v)
        except PoleError as exc:
            raise EvalError(EvalError.POLE, str(exc), node) from None
        except NonFiniteInput as exc:
            raise EvalError(EvalError.DOMAIN, str(exc), node) from None
    raise TypeError(f"unknown function node: {name!r}")


def outcome(fn, t):
    """What a call returns or raises, comparable with ==.

    Values compare by their bytes, so -0.0 differs from 0.0. A NaN compares
    only as NaN: CPython 3.11's specialised float multiply and its generic
    one return different operands' NaNs, so the sign of a NaN made from two
    NaNs depends on how warm the bytecode is, not on the evaluator.
    """
    try:
        v = fn(t)
    except EvalError as exc:
        return ("error", exc.kind, str(exc), exc.position)
    except (ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))
    return ("nan",) if math.isnan(v) else (type(v), struct.pack("<d", v))


def own_token(node):
    """The token a parsed node is made from, a literal's as its value."""
    if isinstance(node, Binary):
        return node.op
    if isinstance(node, Unary):
        return "-"
    if isinstance(node, Call):
        return node.func
    if isinstance(node, Constant):
        return node.name
    return "t" if isinstance(node, Variable) else node.value


def check_positions(source):
    """Assert that each node's ``pos`` starts its own token; count the nodes."""
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    stack, count = [parse(source)], 0
    while stack:
        node = stack.pop()
        m = _TOKEN_RE.match(text, node.pos)
        got = float(m[0]) if m.lastgroup == "num" else m[0]
        assert got == own_token(node), (source, node)
        stack += [v for k, v in vars(node).items() if k in ("operand", "left", "right", "arg")]
        count += 1
    return count


class TestParse:
    def test_precedence_shape(self):
        assert parse("t^2 + 3*t") == Binary(
            "+",
            Binary("^", Variable(), Number(2.0)),
            Binary("*", Number(3.0), Variable()),
        )

    def test_call_shape(self):
        assert parse("sin(pi*t)") == Call("sin", Binary("*", Constant("pi"), Variable()))

    def test_incomplete_input_position(self):
        with pytest.raises(ParseError) as exc:
            parse("2 +")
        assert exc.value.position == 3
        assert exc.value.expected == "primary"

    def test_nodes_are_what_their_constructors_make(self):
        # The parser fills node dicts directly; each must match __init__'s,
        # position included.
        def walk(node):
            yield type(node), vars(node)
            for child in ("operand", "left", "right", "arg"):
                if hasattr(node, child):
                    yield from walk(getattr(node, child))

        expected = Binary(
            "+",
            Unary("-", Call("sin", Variable(pos=5), pos=1), pos=0),
            Binary("^", Constant("pi", pos=10), Number(2.5, pos=13), pos=12),
            pos=8,
        )
        assert list(walk(parse("-sin(t) + pi^2.5"))) == list(walk(expected))

    def test_power_right_associative(self):
        assert parse("2^3^2") == Binary(
            "^", Number(2.0), Binary("^", Number(3.0), Number(2.0))
        )

    def test_unary_minus_binds_to_power_base(self):
        # Per the grammar, the '-' is part of the base: -t^2 == (-t)^2.
        assert parse("-t^2") == Binary("^", Unary("-", Variable()), Number(2.0))
        # ... while a '-' after '^' negates the exponent only.
        assert parse("t^-2") == Binary("^", Variable(), Unary("-", Number(2.0)))

    def test_exponent_notation_vs_euler(self):
        assert parse("2e3") == Number(2000.0)
        assert parse("2*e") == Binary("*", Number(2.0), Constant("e"))
        with pytest.raises(ParseError):
            parse("2e")  # dangling 'e' is a trailing unknown token

    def test_unknown_names_rejected(self):
        with pytest.raises(ParseError):
            parse("foo(t)")
        with pytest.raises(ParseError):
            parse("x + 1")
        with pytest.raises(ParseError):
            parse("sin t")  # function call needs parentheses

    def test_position_bounds(self):
        for src in ["", "()", "1 + * 2", "sin(", ")", "1..2"]:
            with pytest.raises(ParseError) as exc:
                parse(src)
            assert 0 <= exc.value.position <= len(src)

    def test_bytes_input(self):
        assert parse(b"t + 1") == Binary("+", Variable(), Number(1.0))
        with pytest.raises(ParseError):
            parse(b"\xff\xfe t")

    def test_totality_on_random_bytes(self):
        rng = random.Random(2024)
        for _ in range(2000):
            raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
            try:
                parse(raw)
            except ParseError:
                pass  # the only acceptable failure mode

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("(" * 500 + "t" + ")" * 500)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
    def test_long_operator_chain_is_a_parse_error(self, op):
        # Chains build trees as deep as they are long; they count against
        # the nesting bound instead of overflowing the stack later.
        with pytest.raises(ParseError) as exc:
            parse(op.join(["t"] * 3000))
        assert "nests too deeply" in str(exc.value)
        assert 0 < exc.value.position < 6000

    def test_power_chain_depth_boundary(self):
        # Each '^' adds one to the depth that unary then checks: 199 operands
        # parse, and the 200th operand is the first token too deep.
        parse("^".join(["t"] * 199))
        with pytest.raises(ParseError) as exc:
            parse("^".join(["t"] * 200))
        assert "nests too deeply" in str(exc.value)
        assert exc.value.position == 398

    def test_chain_within_the_bound_evaluates(self):
        assert as_function("+".join(["t"] * 199))(1.0) == 199.0
        assert as_function("^".join(["1"] * 150))(0.0) == 1.0


class TestGoldenCorpus:
    """Outcomes recorded by tests/parse_corpus.py before the one-regex scan
    and, for its mixed-level inputs, before the precedence-climbing loop."""

    def test_every_outcome_matches_the_record(self):
        cases = json.loads(CORPUS_PATH.read_text(encoding="ascii"))
        assert len(cases) > 400
        mismatches = []
        for case in cases:
            source = bytes.fromhex(case["hex"]) if "hex" in case else case["text"]
            got = parse_outcome(source)
            if got != case["outcome"]:
                mismatches.append((source, got, case["outcome"]))
        assert mismatches == []

    def test_every_node_pos_is_its_own_token(self):
        # EvalError prints node positions, which the record does not hold.
        cases = json.loads(CORPUS_PATH.read_text(encoding="ascii"))
        nodes = sum(
            check_positions(bytes.fromhex(case["hex"]) if "hex" in case else case["text"])
            for case in cases
            if case["outcome"][0] == "ok"
        )
        assert nodes > 8000
        rng = random.Random(31)
        for _ in range(500):
            check_positions(unparse(gen_ast(rng, rng.randint(0, 6))))

    def test_whitespace_is_str_isspace(self):
        # Every whitespace character lies below U+3001; any other character
        # between the two 't's is a token or a parse error.
        chars = [chr(i) for i in range(0x3001)]
        parsed = []
        for c in chars:
            try:
                parsed.append(parse(f"t{c}+{c}1") == Binary("+", Variable(), Number(1.0)))
            except ParseError:
                parsed.append(False)
        assert [c for c, ok in zip(chars, parsed) if ok] == [c for c in chars if c.isspace()]

    def test_digits_are_ascii_only(self):
        digits = [chr(i) for i in range(0x110000) if chr(i).isdigit() and i > 0x7F]
        assert len(digits) > 100
        for c in digits:
            with pytest.raises(ParseError, match="unexpected character"):
                parse(c)


class TestEvaluate:
    def test_polynomial(self):
        assert evaluate(parse("t^2+3*t"), 2.0) == 10.0

    def test_ln_domain(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("ln(t)"), -1.0)
        assert exc.value.kind == EvalError.DOMAIN

    def test_frac_matches_floor_oracle(self):
        x = 7.25
        assert evaluate(parse("frac(t)"), x) == x - math.floor(x)
        assert evaluate(parse("frac(t)"), -0.25) == pytest.approx(0.75)

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("1/(t-1)"), 1.0)
        assert exc.value.kind == EvalError.DIVISION_BY_ZERO

    def test_integer_power_exact(self):
        assert evaluate(parse("(-2)^3"), 0.0) == -8.0
        assert evaluate(parse("t^0"), 0.0) == 1.0
        assert evaluate(parse("2^-3"), 0.0) == 0.125

    def test_negative_base_fractional_power_domain(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("t^0.5"), -4.0)
        assert exc.value.kind == EvalError.DOMAIN

    def test_gamma_against_stdlib(self):
        g = parse("gamma(t)")
        for x in [0.5, 1.0, 2.5, 7.25, -0.5, -2.5]:
            assert evaluate(g, x) == pytest.approx(math.gamma(x), rel=1e-12)
        with pytest.raises(EvalError) as exc:
            evaluate(g, -3.0)
        assert exc.value.kind == EvalError.POLE

    def test_gamma_reflection_underflows_to_zero(self):
        # At -200.5 the reflection's Gamma(1 - v) overflows, and the value
        # reads 0.0 (math.gamma gives -0.0 there).
        assert repr(evaluate(parse("gamma(t)"), -200.5)) == "0.0"

    def test_digamma_pole_carries_position(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("1 + digamma(t)"), 0.0)
        assert exc.value.kind == EvalError.POLE
        assert exc.value.position == 4

    def test_determinism(self):
        ast = parse("sin(t)^2 + exp(t/3) - gamma(t/7 + 2)")
        vals = {evaluate(ast, 2.34) for _ in range(20)}
        assert len(vals) == 1

    def test_constants(self):
        assert evaluate(parse("pi"), 0.0) == math.pi
        assert evaluate(parse("e"), 0.0) == math.e

    def test_negative_power_underflow_is_division_by_zero(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("(1e-200*t)^-2"), 3.0)
        assert exc.value.kind == EvalError.DIVISION_BY_ZERO
        assert exc.value.position == 10  # the '^'
        assert "underflows" in str(exc.value)

    def test_unrolled_power_matches_repeated_multiplication(self):
        # x^2 and x^3 are written out; the leading 1.0* keeps them equal to
        # _power even for an integer t.
        rng = random.Random(3)
        ts = [3, 3.0, -0.0, 1e200, math.inf, 123456789] + [rng.uniform(-9, 9) for _ in range(200)]
        for src in ["t^2", "t^3", "(t+1)^2", "(t+1)^3", "2^2"]:
            f = as_function(src)
            for t in ts:
                assert outcome(f, t) == outcome(lambda u: oracle_eval(f.ast, u), t), (src, t)


class TestUnparse:
    def test_canonical_spacing(self):
        assert unparse(parse("t + 2*t")) == "t + 2.0 * t"
        assert unparse(parse("t^2+3*t")) == "t^2.0 + 3.0 * t"

    def test_negation_of_power_keeps_semantics(self):
        neg_pow = Unary("-", Binary("^", Variable(), Number(2.0)))
        text = unparse(neg_pow)
        assert parse(text) == neg_pow
        assert evaluate(parse(text), 3.0) == -9.0

    def test_examples_round_trip(self):
        for src in [
            "t + 2*t",
            "-t^2",
            "t^-2",
            "2^3^2",
            "sin(cos(exp(t)))",
            "1 - (2 - 3)",
            "t/(2/t)",
            "-(t + 1)^2",
            "--t",
            "(t + 1) * (t - 1)",
            "1e400",
            "2^-1e400",
            "1e400*0",
        ]:
            ast = parse(src)
            assert parse(unparse(ast)) == ast

    def test_random_round_trip(self):
        rng = random.Random(8)
        for _ in range(500):
            ast = gen_ast(rng, rng.randint(0, 6))
            text = unparse(ast)
            assert parse(text) == ast


class TestAsFunction:
    def test_callable(self):
        f = as_function("t^2 - 1")
        assert f(3.0) == 8.0
        assert f.ast == parse("t^2 - 1")

    def test_each_build_is_a_new_function(self):
        f, g = as_function("t"), as_function("t")
        assert f is not g and f.ast == g.ast

    @pytest.mark.parametrize("call, message", [
        (lambda: evaluate(object(), 1.0), "not an expression node: <object object at "),
        (lambda: unparse(object()), "not an expression node: <object object at "),
        (lambda: as_function(Call("sinh", Variable())), "unknown function node: 'sinh'"),
    ], ids=["evaluate", "unparse", "as_function"])
    def test_a_node_the_parser_never_makes_is_a_type_error(self, call, message):
        with pytest.raises(TypeError) as raised:
            call()
        assert str(raised.value).startswith(message)


SPECIAL_T = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan]
SMALL_T = [-2.5, -1.0, 1.0, 2.0, 3.0, math.pi]

# One operand of each kind the builder reads differently: the variable, a
# literal, a zero literal, a named constant, and an inner node.
OPERANDS = ["t", "2", "0", "pi", "(t-1)", "(-t)"]


def assert_matches_oracle(ast, ts):
    f = as_function(ast)
    for t in ts:
        assert outcome(f, t) == outcome(lambda u: oracle_eval(ast, u), t), (unparse(ast), t)


class TestTrigOfInfinity:
    @pytest.mark.parametrize(
        "source, t",
        [("1 + sin(t)", math.inf), ("1 + sin(t)", -math.inf), ("1 + cos(2*t)", math.inf),
         ("1 + sin(1e999)", 0.0)],
    )
    def test_domain_error_names_the_call(self, source, t):
        with pytest.raises(EvalError) as info:
            evaluate(parse(source), t)
        assert info.value.kind == EvalError.DOMAIN
        assert info.value.position == 4
        name = source[4:7]
        assert str(info.value) == f"domain: {name} of an infinite value (at position 4)"

    def test_argument_error_is_not_renamed(self):
        # cos(inf) fails first; the outer sin never sees a value.
        with pytest.raises(EvalError) as info:
            evaluate(parse("sin(cos(t))"), math.inf)
        assert info.value.position == 4


class TestBuilderMatchesOracle:
    @settings(max_examples=400, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(0, 6),
        ts=st.lists(
            st.one_of(st.sampled_from(SPECIAL_T + SMALL_T), st.floats()), min_size=1, max_size=6
        ),
    )
    def test_random_trees(self, seed, depth, ts):
        # Parsed back from text so that every node carries its position.
        assert_matches_oracle(parse(unparse(gen_ast(random.Random(seed), depth))), ts)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
    def test_every_operand_kind_pair(self, op):
        for left in OPERANDS:
            for right in OPERANDS + ["3", "(-2)"]:
                assert_matches_oracle(parse(f"{left}{op}{right}"), SPECIAL_T + SMALL_T)

    def test_every_function_and_operand_kind(self):
        for name in ["sin", "cos", "exp", "ln", "sqrt", "abs", "floor", "frac", "gamma", "digamma"]:
            for arg in OPERANDS:
                assert_matches_oracle(parse(f"1 + {name}({arg})"), SPECIAL_T + SMALL_T)

    def test_corpus_at_grid_points(self, corpus):
        for _, f in corpus:
            for n in range(-40, 41):
                t = n * 0.3
                assert outcome(f, t) == outcome(lambda u: oracle_eval(f.ast, u), t)
