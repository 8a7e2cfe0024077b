"""The value types' contract: equality, hashing, repr, frozenness and validation.

The expected values were recorded from the dataclass versions of these
classes; the plain classes that replaced them keep every one.
"""

import copy
import math
import pickle

import pytest

from adiff.antidiff import AntidiffValue
from adiff.cli import OutputRecord
from adiff.convkernel import GreenKernel
from adiff.errors import DomainError, NonFiniteInput, NonPositiveShift, ZeroLambda
from adiff.exprlang import Binary, Call, Constant, Number, Unary, Variable, parse
from adiff.inequality import (
    Direction,
    InequalityReport,
    InequalitySpec,
    MembershipResult,
    SolutionFunction,
)
from adiff.numkit import FloorModResult
from adiff.opalgebra import FactoredOperator, LinearFactor, TermBudget
from adiff.verify import VerifyReport

SPEC = InequalitySpec(1, 1, "geq")

# (make, fields, repr): make(*fields) builds one instance; every call builds
# a new one equal to the last. The repr is the dataclass text.
FROZEN = {
    "FloorModResult": (FloorModResult, (3, 0.25), "FloorModResult(n=3, r=0.25)"),
    "AntidiffValue": (AntidiffValue, (1 + 2j, 2), "AntidiffValue(value=(1+2j), terms_used=2)"),
    "GreenKernel": (GreenKernel, (0.5, 3.0), "GreenKernel(lam=0.5, t=3.0)"),
    "Number": (Number, (2.0,), "Number(value=2.0)"),
    "Variable": (Variable, (), "Variable()"),
    "Constant": (Constant, ("pi",), "Constant(name='pi')"),
    "Unary": (Unary, ("-", Variable()), "Unary(op='-', operand=Variable())"),
    "Binary": (
        Binary,
        ("+", Number(1.0), Variable()),
        "Binary(op='+', left=Number(value=1.0), right=Variable())",
    ),
    "Call": (Call, ("sin", Variable()), "Call(func='sin', arg=Variable())"),
    "InequalitySpec": (
        InequalitySpec,
        (0.5, -1.0, Direction.LEQ),
        "InequalitySpec(h=0.5, lam=-1.0, direction=<Direction.LEQ: 'leq'>)",
    ),
    "MembershipResult": (MembershipResult, (False, 0.5), "MembershipResult(ok=False, witness=0.5)"),
    "LinearFactor": (LinearFactor, (0.5, 1j), "LinearFactor(h=0.5, lam=1j)"),
    "FactoredOperator": (
        FactoredOperator,
        ((LinearFactor(1.0, 2 + 0j),),),
        "FactoredOperator(factors=(LinearFactor(h=1.0, lam=(2+0j)),))",
    ),
    "TermBudget": (TermBudget, (5,), "TermBudget(max_terms=5)"),
}

MUTABLE = {
    "OutputRecord": (
        OutputRecord,
        (0.5, 1.0, 0.0, 3, 1e-17),
        "OutputRecord(t=0.5, value=1.0, imag=0.0, terms_used=3, residual=1e-17)",
    ),
    "SolutionFunction": (
        SolutionFunction,
        (SPEC, math.sin, math.cos),
        "SolutionFunction(spec=InequalitySpec(h=1.0, lam=1.0, direction=<Direction.GEQ: 'geq'>), "
        "mu=<built-in function sin>, slack=<built-in function cos>)",
    ),
    "InequalityReport": (
        InequalityReport,
        (Direction.LEQ, 3, -1.0, 2.0, [0.5], 0.1, False),
        "InequalityReport(direction=<Direction.LEQ: 'leq'>, samples=3, min_residual=-1.0, "
        "max_residual=2.0, violations=[0.5], max_slack_mismatch=0.1, passed=False)",
    ),
    "VerifyReport": (
        VerifyReport,
        ("x", 2, 1.0, False, [0.5]),
        "VerifyReport(name='x', samples=2, max_abs_residual=1.0, passed=False, witnesses=[0.5])",
    ),
}

ALL = dict(FROZEN, **MUTABLE)


def _first_field(text):
    """The first field name in a dataclass repr, "" when it shows none."""
    return text.partition("(")[2].partition("=")[0].rstrip(")")


class _Other:
    """A foreign type whose == answers NotImplemented, as most types do."""


@pytest.mark.parametrize("name", sorted(ALL))
class TestEveryType:
    def test_equality(self, name):
        make, fields, _ = ALL[name]
        a, b = make(*fields), make(*fields)
        assert a == b and not (a != b)
        assert a != fields and not (a == fields)
        assert a != tuple(fields) and a != list(fields)
        assert a != _Other() and a != None  # noqa: E711
        assert a.__eq__(fields) is NotImplemented

    def test_repr(self, name):
        make, fields, text = ALL[name]
        assert repr(make(*fields)) == text

    def test_copy_and_pickle(self, name):
        make, fields, text = ALL[name]
        obj = make(*fields)
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == text


@pytest.mark.parametrize("name", sorted(FROZEN))
class TestFrozen:
    def test_hash_follows_equality(self, name):
        make, fields, _ = FROZEN[name]
        a, b = make(*fields), make(*fields)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        make, fields, text = FROZEN[name]
        obj = make(*fields)
        field = _first_field(text) or "pos"
        with pytest.raises(AttributeError):
            setattr(obj, field, fields[0] if fields else 7)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.new_attribute = 1
        assert repr(obj) == text


@pytest.mark.parametrize("name", sorted(MUTABLE))
class TestMutable:
    def test_unhashable(self, name):
        make, fields, _ = MUTABLE[name]
        with pytest.raises(TypeError):
            hash(make(*fields))

    def test_fields_can_be_assigned(self, name):
        make, fields, _ = MUTABLE[name]
        a, b = make(*fields), make(*fields)
        field = _first_field(ALL[name][2])
        setattr(a, field, "changed")
        assert getattr(a, field) == "changed"
        assert a != b


class TestDefaultsAndKeywords:
    def test_keyword_construction(self):
        assert FloorModResult(n=3, r=0.25) == FloorModResult(3, 0.25)
        assert AntidiffValue(value=1.0, terms_used=2) == AntidiffValue(1.0, 2)
        assert MembershipResult(False, witness=0.5) == MembershipResult(False, 0.5)
        assert Binary(op="+", left=Variable(), right=Variable(), pos=3) == Binary("+", Variable(), Variable())
        report = InequalityReport(direction=Direction.GEQ, samples=3, min_residual=-1.0, max_residual=2.0)
        assert report == InequalityReport(Direction.GEQ, 3, -1.0, 2.0, [], 0.0, True)

    def test_defaults(self):
        assert repr(MembershipResult(True)) == "MembershipResult(ok=True, witness=None)"
        assert TermBudget() == TermBudget(10_000_000)
        assert repr(TermBudget()) == "TermBudget(max_terms=10000000)"
        assert Number(1.0).pos is None and Variable().pos is None

    def test_list_defaults_are_not_shared(self):
        a = InequalityReport(Direction.GEQ, 3, -1.0, 2.0)
        b = InequalityReport(Direction.GEQ, 3, -1.0, 2.0)
        assert a.violations == [] and a.violations is not b.violations
        assert repr(a) == (
            "InequalityReport(direction=<Direction.GEQ: 'geq'>, samples=3, min_residual=-1.0, "
            "max_residual=2.0, violations=[], max_slack_mismatch=0.0, passed=True)"
        )
        c, d = VerifyReport("digamma", 5, 0.0, True), VerifyReport("digamma", 5, 0.0, True)
        assert c.witnesses == [] and c.witnesses is not d.witnesses
        assert repr(c) == "VerifyReport(name='digamma', samples=5, max_abs_residual=0.0, passed=True, witnesses=[])"

    def test_membership_truth(self):
        assert MembershipResult(True) and not MembershipResult(False, 0.5)


class TestExpressionNodes:
    """The source offset ``pos`` is carried but ignored by ==, hash and repr."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda pos: Number(2.0, pos),
            lambda pos: Variable(pos),
            lambda pos: Constant("e", pos),
            lambda pos: Unary("-", Variable(pos), pos),
            lambda pos: Binary("^", Variable(pos), Number(2.0, pos), pos),
            lambda pos: Call("sin", Variable(pos), pos),
        ],
    )
    def test_pos_is_ignored(self, make):
        a, b = make(0), make(9)
        assert a.pos == 0 and b.pos == 9
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "pos" not in repr(a)

    def test_copies_keep_pos(self):
        tree = parse("-t^2 + sin(pi*t)/3")
        for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert twin == tree and (twin.pos, twin.right.left.arg.pos) == (5, 13)

    def test_parsed_tree(self):
        tree = parse("-t^2 + sin(pi*t)/3")
        assert repr(tree) == (
            "Binary(op='+', left=Binary(op='^', left=Unary(op='-', operand=Variable()), "
            "right=Number(value=2.0)), right=Binary(op='/', left=Call(func='sin', "
            "arg=Binary(op='*', left=Constant(name='pi'), right=Variable())), right=Number(value=3.0)))"
        )
        assert tree == parse("  -t ^ 2+sin( pi * t ) / 3")
        assert (tree.pos, tree.left.pos, tree.right.left.pos, tree.right.left.arg.pos) == (5, 2, 7, 13)
        assert tree != parse("-t^2 + sin(pi*t)/4")

    def test_node_kinds_differ(self):
        assert Number(1.0) != Constant("pi") and Variable() != Number(0.0)
        assert Unary("-", Variable()) != Call("sin", Variable())


class TestValidation:
    @pytest.mark.parametrize(
        "make,error,message",
        [
            pytest.param(
                lambda: LinearFactor(0, 1), NonPositiveShift, "shift must be a positive finite real, got 0.0",
                id="LinearFactor-h=0",
            ),
            pytest.param(
                lambda: LinearFactor(math.inf, 1), NonPositiveShift, "shift must be a positive finite real, got inf",
                id="LinearFactor-h=inf",
            ),
            (lambda: LinearFactor(1, 0), ZeroLambda, "lambda must be nonzero"),
            (lambda: LinearFactor(1, complex("nan")), NonFiniteInput, "lambda must be finite, got (nan+0j)"),
            (lambda: LinearFactor("x", 1), ValueError, "could not convert string to float: 'x'"),
            (lambda: FactoredOperator([]), DomainError, "operator needs at least one factor"),
            pytest.param(
                lambda: InequalitySpec(0, 1, "geq"), NonPositiveShift, "shift must be a positive finite real, got 0.0",
                id="InequalitySpec-h=0",
            ),
            (lambda: InequalitySpec(1, 0, "geq"), ZeroLambda, "lambda must be nonzero"),
            (lambda: InequalitySpec(1, math.nan, "geq"), NonFiniteInput, "lambda must be finite, got nan"),
            (lambda: InequalitySpec(1, 1, "up"), ValueError, "'up' is not a valid Direction"),
            (lambda: InequalitySpec(1, "a", "geq"), ValueError, "could not convert string to float: 'a'"),
            (lambda: TermBudget(0), DomainError, "budget must be positive, got 0"),
        ],
    )
    def test_rejected(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    def test_normalised_types(self):
        factor = LinearFactor(1, 2)
        assert type(factor.h) is float and type(factor.lam) is complex
        assert repr(factor) == "LinearFactor(h=1.0, lam=(2+0j))"
        spec = InequalitySpec(1, 2, "geq")
        assert type(spec.h) is float and type(spec.lam) is float and spec.direction is Direction.GEQ
        assert repr(spec) == "InequalitySpec(h=1.0, lam=2.0, direction=<Direction.GEQ: 'geq'>)"
        op = FactoredOperator([factor])
        assert type(op.factors) is tuple and op == FactoredOperator((factor,))
        pairs = FactoredOperator.from_pairs([(1, 2), (0.5, -1)])
        assert repr(pairs) == (
            "FactoredOperator(factors=(LinearFactor(h=1.0, lam=(2+0j)), LinearFactor(h=0.5, lam=(-1+0j))))"
        )
        assert GreenKernel(1j, 2.5).lam == 1j and repr(GreenKernel(1j, 2.5)) == "GreenKernel(lam=1j, t=2.5)"
