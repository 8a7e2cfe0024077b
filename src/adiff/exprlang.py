"""A small arithmetic expression language in one free variable t.

Grammar (whitespace insignificant, '^' right-associative)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := number | 't' | 'pi' | 'e' | ident '(' expr ')' | '(' expr ')'

Because the base of '^' is a full ``unary`` production, a leading minus
binds tighter than the exponent: ``-t^2`` parses as ``(-t)^2`` while a
minus on the right, as in ``t^-2``, negates only the exponent. ``2e3`` is
one numeric literal (exponent notation); ``2*e`` is needed to multiply by
Euler's number.

Functions: sin, cos, exp, ln, sqrt, abs, floor, frac, gamma, digamma.
``frac(x)`` is x - floor(x). Unknown names are rejected at parse time.

Whitespace is any character for which ``str.isspace`` holds; numbers use
the ASCII digits only. One regular-expression scan cuts the text into
(kind, text, position) tuples, and a recursive descent over them builds
the tree; a character that starts no token is reported first, wherever it
is.

Trees are immutable nodes with structural equality (plain classes with a
dataclass's ``==``, hash and repr); source offsets are carried in ``pos``
and ignored by comparisons, hashing and repr, so
``parse(unparse(tree)) == tree`` for any tree built by the parser or with
nonnegative finite literals. The parser rejects trees deeper than 200
nodes, whether the depth comes from nesting or from a long chain such as
``t+t+...+t``.

Evaluation builds a tree once into nested closures, one per node
(:func:`as_function`); a call then runs only the arithmetic, in the order
and with the checks of a recursive walk over the tree, so values are the
same bits and each :class:`EvalError` names the node that failed.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Union

from . import numkit
from .numkit import _Frozen
from .errors import EvalError, NonFiniteInput, ParseError, PoleError

__all__ = [
    "ExprAst",
    "Number",
    "Variable",
    "Constant",
    "Unary",
    "Binary",
    "Call",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "unparse",
    "as_function",
]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs", "floor", "frac", "gamma", "digamma")

_CONSTANTS = {"pi": math.pi, "e": math.e}

# Exponents with |k| <= this are evaluated by repeated multiplication; larger
# or fractional exponents go through exp(y*ln x), which needs x > 0.
_MAX_INT_POW = 32

# Nesting bound so arbitrarily hostile input cannot overflow the Python stack.
_MAX_DEPTH = 200


# Tree nodes are immutable and compared, hashed and shown by their
# ``_fields``; ``pos``, the node's offset in the source, is kept beside them.
# A node keeps its attributes in its ``__dict__``, which ``__init__`` fills
# with one ``update``: the parser makes a node per token, and that costs
# less than setting each attribute through ``object.__setattr__``. Storing
# the items one at a time builds faster still but leaves a dict whose
# attribute reads, which building the closures does, run ~2.5x slower.


class Number(_Frozen):
    """A numeric literal."""

    _fields = ("value",)

    def __init__(self, value: float, pos: int | None = None):
        self.__dict__.update(value=value, pos=pos)


class Variable(_Frozen):
    """The free variable t."""

    def __init__(self, pos: int | None = None):
        self.__dict__.update(pos=pos)


class Constant(_Frozen):
    """A named constant: ``name`` is "pi" or "e"."""

    _fields = ("name",)

    def __init__(self, name: str, pos: int | None = None):
        self.__dict__.update(name=name, pos=pos)


class Unary(_Frozen):
    """A negation: ``op`` is "-"."""

    _fields = ("op", "operand")

    def __init__(self, op: str, operand: "ExprAst", pos: int | None = None):
        self.__dict__.update(op=op, operand=operand, pos=pos)


class Binary(_Frozen):
    """A binary operation: ``op`` is one of + - * / ^."""

    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: "ExprAst", right: "ExprAst", pos: int | None = None):
        self.__dict__.update(op=op, left=left, right=right, pos=pos)


class Call(_Frozen):
    """A call of one of :data:`FUNCTIONS` on ``arg``."""

    _fields = ("func", "arg")

    def __init__(self, func: str, arg: "ExprAst", pos: int | None = None):
        self.__dict__.update(func=func, arg=arg, pos=pos)


ExprAst = Union[Number, Variable, Constant, Unary, Binary, Call]


# ------------------------------------------------------------------ parsing

# One scan makes every token: an operator, a number (ASCII digits, optional
# fraction and exponent) or a name. finditer's search skips whitespace, which
# is str.isspace since the pattern is not ASCII-only; any other character is
# a "bad" token of its own, so a token starts wherever a match does.
_TOKEN_RE = re.compile(
    r"(?P<op>[-+*/^()])"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<bad>\S)"
)

# A token is (kind, text, pos): kind "op" | "num" | "ident" | "bad" | "end".
# An operator is the only token whose text is one of "+-*/^()", so the
# parser tests operators by text alone.
_Token = tuple[str, str, int]


def _tokenize(source: str) -> list[_Token]:
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(source)]
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Each production is passed the nesting count of its caller. ``expr`` and
    ``unary`` add one each, as does every '^' of a chain, and the count is
    checked against _MAX_DEPTH at the token where it grows.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.k = 0

    def expect_op(self, text: str) -> None:
        tok = self.tokens[self.k]
        if tok[1] != text:
            raise ParseError(tok[2], f"unexpected {_describe(tok)}", expected=f"'{text}'")
        self.k += 1

    def expr(self, depth: int) -> ExprAst:
        depth += 1
        if depth > _MAX_DEPTH:
            raise _too_deep(self.tokens[self.k])
        node = self.term(depth)
        tokens = self.tokens
        while True:
            _, op, pos = tokens[self.k]
            if op != "+" and op != "-":
                return node
            self.k += 1
            node = Binary(op, node, self.term(depth), pos)

    def term(self, depth: int) -> ExprAst:
        node = self.factor(depth)
        tokens = self.tokens
        while True:
            _, op, pos = tokens[self.k]
            if op != "*" and op != "/":
                return node
            self.k += 1
            node = Binary(op, node, self.factor(depth), pos)

    def factor(self, depth: int) -> ExprAst:
        base = self.unary(depth)
        _, op, pos = self.tokens[self.k]
        if op != "^":
            return base
        self.k += 1
        depth += 1  # a chain of '^' recurses here, once per operator
        if depth > _MAX_DEPTH:
            raise _too_deep(self.tokens[self.k])
        return Binary("^", base, self.factor(depth), pos)

    def unary(self, depth: int) -> ExprAst:
        """unary := '-' unary | primary, the primary read in place."""
        depth += 1
        tok = kind, text, pos = self.tokens[self.k]
        if depth > _MAX_DEPTH:
            raise _too_deep(tok)
        if kind == "num":
            self.k += 1
            return Number(float(text), pos)
        if kind == "ident":
            self.k += 1
            if text == "t":
                return Variable(pos)
            if text in _CONSTANTS:
                return Constant(text, pos)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr(depth)
                self.expect_op(")")
                return Call(text, arg, pos)
            raise ParseError(
                pos,
                f"unknown name {text!r}",
                expected="'t', 'pi', 'e', or one of " + ", ".join(FUNCTIONS),
            )
        if text == "-":
            self.k += 1
            return Unary("-", self.unary(depth), pos)
        if text == "(":
            self.k += 1
            node = self.expr(depth)
            self.expect_op(")")
            return node
        raise ParseError(pos, f"unexpected {_describe(tok)}", expected="primary")


def _too_deep(tok: _Token) -> ParseError:
    return ParseError(tok[2], "expression nests too deeply")


def _describe(tok: _Token) -> str:
    kind, text, _ = tok
    return "end of input" if kind == "end" else f"{kind} {text!r}"


def parse(source: str | bytes) -> ExprAst:
    """Parse expression text into an AST; raises :class:`ParseError` only.

    Byte input is decoded as UTF-8 first; invalid bytes are a parse error at
    the offending offset, so the function is total over arbitrary inputs.
    A character that starts no token is reported before any other error.
    """
    if isinstance(source, (bytes, bytearray)):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(exc.start, "input is not valid UTF-8") from None
    tokens = _tokenize(source)
    parser = _Parser(tokens)
    try:
        node = parser.expr(0)
        tok = tokens[parser.k]
        if tok[0] != "end":
            raise ParseError(tok[2], f"unexpected trailing {_describe(tok)}", expected="end of input")
    except ParseError:
        # No production accepts a bad token, so a parse that succeeds met
        # none; one that fails reports the first, if any, in its place.
        for kind, text, pos in tokens:
            if kind == "bad":
                raise ParseError(pos, f"unexpected character {text!r}") from None
        raise
    if len(tokens) - 1 > _MAX_DEPTH:
        # A tree has at most one node per token (the end token aside), so
        # only a longer input can be deeper than the bound.
        _check_depth(node)
    return node


def _check_depth(root: ExprAst) -> None:
    """Reject a tree deeper than _MAX_DEPTH at its first node too deep.

    The parser's nesting count misses chains such as ``t+t+...+t``, which
    it builds iteratively into a left-deep tree; everything that walks a
    tree recursively (evaluation, unparsing) needs the tree's own depth
    bounded.
    """
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ParseError(node.pos, "expression nests too deeply")
        if isinstance(node, Binary):
            stack += ((node.right, depth + 1), (node.left, depth + 1))
        elif isinstance(node, Unary):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, depth + 1))


# --------------------------------------------------------------- evaluation
#
# A tree is built once into nested closures, one per node, and each call of
# the result runs only the arithmetic. A closure does its node's operation in
# the order of a plain recursive walk (left operand, right operand, then the
# operation and its checks), so values are bit-identical to that walk and an
# EvalError names the same node. Two shortcuts keep the per-call work low:
# literal, constant and variable operands are read inline by their parent,
# and x^2, x^3 are unrolled into the multiplications _power would do.


def evaluate(ast: ExprAst, t: float) -> float:
    """Evaluate the tree at the given value of t.

    Builds the tree's closures (see :func:`as_function`) and calls them
    once. Follows binary64 arithmetic; overflow saturates to infinity.
    Raises :class:`EvalError` (division-by-zero, domain, pole) pinned to the
    offending node.
    """
    return _build(ast)(t)


def _operand(node: ExprAst) -> tuple[str, object]:
    """How a parent reads a child: ``("t", None)`` the variable itself,
    ``("c", value)`` a literal or named constant, ``("f", closure)`` else."""
    if isinstance(node, Variable):
        return "t", None
    if isinstance(node, Number):
        return "c", node.value
    if isinstance(node, Constant):
        return "c", _CONSTANTS[node.name]
    return "f", _build(node)


def _closure(kind: str, x) -> Callable[[float], float]:
    if kind == "f":
        return x
    if kind == "t":
        return lambda t: t
    return lambda t: x


# Closure factories by operator and operand kinds (left then right, see
# _operand). A pair missing from a table reads its right operand through a
# closure. '/' appears only for a nonzero constant divisor; every other
# division is checked by _divide.
_BINARY = {
    "+": {
        "ff": lambda a, b, node: lambda t: a(t) + b(t),
        "fc": lambda a, b, node: lambda t: a(t) + b,
        "cf": lambda a, b, node: lambda t: a + b(t),
        "ft": lambda a, b, node: lambda t: a(t) + t,
        "tf": lambda a, b, node: lambda t: t + b(t),
        "tc": lambda a, b, node: lambda t: t + b,
        "ct": lambda a, b, node: lambda t: a + t,
    },
    "-": {
        "ff": lambda a, b, node: lambda t: a(t) - b(t),
        "fc": lambda a, b, node: lambda t: a(t) - b,
        "cf": lambda a, b, node: lambda t: a - b(t),
        "ft": lambda a, b, node: lambda t: a(t) - t,
        "tf": lambda a, b, node: lambda t: t - b(t),
        "tc": lambda a, b, node: lambda t: t - b,
        "ct": lambda a, b, node: lambda t: a - t,
    },
    "*": {
        "ff": lambda a, b, node: lambda t: a(t) * b(t),
        "fc": lambda a, b, node: lambda t: a(t) * b,
        "cf": lambda a, b, node: lambda t: a * b(t),
        "ft": lambda a, b, node: lambda t: a(t) * t,
        "tf": lambda a, b, node: lambda t: t * b(t),
        "tc": lambda a, b, node: lambda t: t * b,
        "ct": lambda a, b, node: lambda t: a * t,
    },
    "/": {
        "fc": lambda a, b, node: lambda t: a(t) / b,
        "tc": lambda a, b, node: lambda t: t / b,
        "cc": lambda a, b, node: lambda t: a / b,
    },
    "^": {
        "ff": lambda a, b, node: lambda t: _power(a(t), b(t), node),
        "fc": lambda a, b, node: lambda t: _power(a(t), b, node),
        "cf": lambda a, b, node: lambda t: _power(a, b(t), node),
        "ft": lambda a, b, node: lambda t: _power(a(t), t, node),
        "tf": lambda a, b, node: lambda t: _power(t, b(t), node),
        "tc": lambda a, b, node: lambda t: _power(t, b, node),
        "ct": lambda a, b, node: lambda t: _power(a, t, node),
    },
}


def _build(node: ExprAst) -> Callable[[float], float]:
    """A new closure computing ``node`` at t; see the section comment."""
    if isinstance(node, (Number, Variable, Constant)):
        return _closure(*_operand(node))
    if isinstance(node, Unary):
        kind, a = _operand(node.operand)
        if kind == "t":
            return lambda t: -t
        if kind == "c":
            return lambda t: -a
        return lambda t: -a(t)
    if isinstance(node, Binary) and node.op in _BINARY:
        op = node.op
        if op == "^" and isinstance(node.right, Number) and node.right.value in (2, 3):
            return _unrolled_power(*_operand(node.left), node.right.value)
        (lk, a), (rk, b) = _operand(node.left), _operand(node.right)
        if op == "/" and (rk != "c" or b == 0.0):
            return _divide(_closure(lk, a), _closure(rk, b), node)
        make = _BINARY[op].get(lk + rk)
        if make is None:
            make, b = _BINARY[op][lk + "f"], _closure(rk, b)
        return make(a, b, node)
    if isinstance(node, Call):
        return _call(node)
    raise TypeError(f"not an expression node: {node!r}")


def _unrolled_power(kind: str, a, k: int) -> Callable[[float], float]:
    # _power's acc = 1.0; acc *= x, k times, written out.
    if kind == "t":
        return (lambda t: 1.0 * t * t) if k == 2 else (lambda t: 1.0 * t * t * t)
    a = _closure(kind, a)
    if k == 2:
        def square(t):
            x = a(t)
            return 1.0 * x * x
        return square

    def cube(t):
        x = a(t)
        return 1.0 * x * x * x
    return cube


def _divide(a, b, node: Binary) -> Callable[[float], float]:
    def divide(t):
        x = a(t)
        y = b(t)
        if y == 0.0:
            raise EvalError(EvalError.DIVISION_BY_ZERO, "division by zero", node)
        return x / y
    return divide


def _power(x: float, y: float, node: Binary) -> float:
    if math.isfinite(y) and y == math.floor(y) and abs(y) <= _MAX_INT_POW:
        k = int(y)
        if k < 0 and x == 0.0:
            raise EvalError(EvalError.DIVISION_BY_ZERO, "zero to a negative power", node)
        acc = 1.0
        for _ in range(abs(k)):
            acc *= x
        if k >= 0:
            return acc
        if acc == 0.0:
            raise EvalError(
                EvalError.DIVISION_BY_ZERO, f"{x!r} to the power {k} underflows to zero", node
            )
        return 1.0 / acc
    if x < 0.0:
        raise EvalError(
            EvalError.DOMAIN, f"negative base {x!r} with non-integer exponent", node
        )
    if x == 0.0:
        if y > 0.0:
            return 0.0
        raise EvalError(EvalError.DIVISION_BY_ZERO, "zero to a non-positive power", node)
    try:
        return math.exp(y * math.log(x))
    except OverflowError:
        return math.inf


def _call(node: Call) -> Callable[[float], float]:
    # math.sin and math.cos raise ValueError for an infinite argument. The
    # try costs nothing while nothing raises (Python 3.11+), where storing
    # the argument first would cost ~10 ns a call. Every call node renames
    # its own ValueError, so none comes out of the argument's closure.
    fn = _function(node)
    kind, a = _operand(node.arg)
    if kind == "t":
        def call(t):
            try:
                return fn(t)
            except ValueError:
                raise _infinite(node) from None
    elif kind == "c":
        def call(t):
            try:
                return fn(a)
            except ValueError:
                raise _infinite(node) from None
    else:
        def call(t):
            try:
                return fn(a(t))
            except ValueError:
                raise _infinite(node) from None
    return call


def _infinite(node: Call) -> EvalError:
    return EvalError(EvalError.DOMAIN, f"{node.func} of an infinite value", node)


def _function(node: Call) -> Callable[[float], float]:
    """The function a call node applies to its argument's value, with its
    checks; errors name ``node``."""
    name = node.func
    if name == "sin":
        return math.sin
    if name == "cos":
        return math.cos
    if name == "abs":
        return abs
    if name == "exp":
        def exp(v):
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf
        return exp
    if name == "ln":
        def ln(v):
            if not v > 0.0:
                raise EvalError(EvalError.DOMAIN, f"ln of non-positive value {v!r}", node)
            return math.log(v)
        return ln
    if name == "sqrt":
        def sqrt(v):
            if v < 0.0:
                raise EvalError(EvalError.DOMAIN, f"sqrt of negative value {v!r}", node)
            return math.sqrt(v)
        return sqrt
    if name == "floor":
        def floor(v):
            if not math.isfinite(v):
                raise EvalError(EvalError.DOMAIN, f"floor of non-finite value {v!r}", node)
            return float(math.floor(v))
        return floor
    if name == "frac":
        def frac(v):
            if not math.isfinite(v):
                raise EvalError(EvalError.DOMAIN, f"frac of non-finite value {v!r}", node)
            return v - math.floor(v)
        return frac
    if name == "gamma":
        return lambda v: _gamma(v, node)
    if name == "digamma":
        def digamma(v):
            try:
                return numkit.digamma(v)  # looked up per call, so it can be wrapped
            except PoleError as exc:
                raise EvalError(EvalError.POLE, str(exc), node) from None
            except NonFiniteInput as exc:
                raise EvalError(EvalError.DOMAIN, str(exc), node) from None
        return digamma
    raise TypeError(f"unknown function node: {name!r}")


def _gamma(v: float, node: Call) -> float:
    if not math.isfinite(v):
        raise EvalError(EvalError.DOMAIN, f"gamma of non-finite value {v!r}", node)
    if v > 0.0:
        try:
            return math.exp(numkit.ln_gamma(v))
        except OverflowError:
            return math.inf
    if v == math.floor(v):
        raise EvalError(EvalError.POLE, f"gamma has a pole at {v!r}", node)
    # Reflection for negative non-integers: Gamma(v) = pi / (sin(pi v) Gamma(1-v)).
    try:
        denom = math.sin(math.pi * v) * math.exp(numkit.ln_gamma(1.0 - v))
    except OverflowError:
        return 0.0
    return math.pi / denom


# ---------------------------------------------------------------- unparsing

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: ExprAst) -> int:
    if isinstance(node, Binary):
        if node.op == "^":
            return _LEVEL_POW
        return _LEVEL_MUL if node.op in "*/" else _LEVEL_ADD
    if isinstance(node, Unary) or (isinstance(node, Number) and node.value < 0):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def unparse(ast: ExprAst) -> str:
    """Render a tree back to canonical source text.

    Binary operators get single surrounding spaces except '^', which binds
    tightly; numeric literals render via ``repr`` (so ``2.0``, not ``2``);
    parentheses are inserted exactly where the grammar needs them, so
    ``parse(unparse(tree))`` is structurally equal to ``tree``. Negative or
    non-finite literals are not produced by the parser; a negative literal
    renders with a leading '-', which reparses as negation of the positive
    literal (same value, canonicalized shape).
    """
    return _emit(ast)


def _paren(node: ExprAst, needed: bool) -> str:
    text = _emit(node)
    return f"({text})" if needed else text


def _emit(node: ExprAst) -> str:
    if isinstance(node, Number):
        return repr(node.value)
    if isinstance(node, Variable):
        return "t"
    if isinstance(node, Constant):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_emit(node.arg)})"
    if isinstance(node, Unary):
        # The operand must be a unary production: a '-' chain over an atom.
        inner = node.operand
        needs = _level(inner) not in (_LEVEL_UNARY, _LEVEL_ATOM)
        return "-" + _paren(inner, needs)
    if isinstance(node, Binary):
        op = node.op
        if op == "^":
            # Base must be a unary production; exponent is a factor, so a
            # nested '^' on the right stays bare (right associativity).
            left = _paren(node.left, _level(node.left) not in (_LEVEL_UNARY, _LEVEL_ATOM))
            right = _paren(node.right, _level(node.right) < _LEVEL_UNARY)
            return f"{left}^{right}"
        if op in "*/":
            left = _paren(node.left, _level(node.left) < _LEVEL_MUL)
            right = _paren(node.right, _level(node.right) <= _LEVEL_MUL)
            return f"{left} {op} {right}"
        left = _paren(node.left, False)
        right = _paren(node.right, _level(node.right) <= _LEVEL_ADD)
        return f"{left} {op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def as_function(source: str | bytes | ExprAst) -> Callable[[float], float]:
    """Build expression text (or an already-parsed tree) into a callable.

    The tree is turned into nested closures, one per node, once; each call
    runs only the arithmetic, with the values and the :class:`EvalError`
    of :func:`evaluate`. The callable carries the tree as ``.ast``.
    """
    ast = parse(source) if isinstance(source, (str, bytes, bytearray)) else source
    fn = _build(ast)
    fn.ast = ast  # type: ignore[attr-defined]
    return fn
