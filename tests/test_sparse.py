"""One convention for every exact value: zero is false, is_zero() is a call."""

import ast
import pathlib

import pytest

from cgk.algebra import AlgebraSpec, Gen, GenCombo, bracket
from cgk.diffop import CoefPoly, DiffOp, Var, make_chart, parse_diffop
from cgk.scalars import ParamPoly, Scalar
from cgk.verma import ModuleVector, PbwMonomial

TX = make_chart("t", "x0")
MONO = PbwMonomial(1, (0,), (2,))


def _zero_and_nonzero():
    """(zero, nonzero) pairs of every value type."""
    x0 = CoefPoly.var(TX, Var("x", 0))
    return [
        (ParamPoly.zero(), ParamPoly.symbol("mu")),
        (Scalar.zero(), Scalar.symbol("delta") / 2),
        (GenCombo.zero(), GenCombo.of(Gen("H"), 3)),
        (ModuleVector.zero(), ModuleVector.of(MONO, Scalar.symbol("mu"))),
        (CoefPoly.zero(TX), x0),
        (DiffOp.zero(TX), parse_diffop("x0*d/dt", TX)),
    ]


@pytest.mark.parametrize("zero, nonzero", _zero_and_nonzero(),
                         ids=lambda v: type(v).__name__)
def test_is_zero_is_a_call_equal_to_not(zero, nonzero):
    for value in (zero, nonzero):
        assert callable(value.is_zero)
        assert value.is_zero() is (not value)
    assert zero.is_zero() and not nonzero.is_zero()


def test_equal_values_hash_alike():
    spec = AlgebraSpec(1, 1, "mass")
    twice = [
        (bracket(spec, Gen("D"), Gen("H")), GenCombo.of(Gen("H"), 2)),
        (ModuleVector.of(MONO, 2) - ModuleVector.of(MONO), ModuleVector.of(MONO)),
        (parse_diffop("x0", TX).terms[(0, 0)], CoefPoly.var(TX, Var("x", 0))),
        (parse_diffop("2*d/dt - d/dt", TX), DiffOp.partial(TX, "t")),
    ]
    for zero, nonzero in _zero_and_nonzero():
        twice.append((zero, zero - zero))
        twice.append((nonzero, nonzero + zero))
    for a, b in twice:
        assert a is not b and a == b
        assert hash(a) == hash(b)


def test_zero_sums_of_different_kinds_differ():
    assert GenCombo.zero() != ModuleVector.zero()
    assert CoefPoly.zero(TX) != DiffOp.zero(TX)
    assert DiffOp.zero(TX) != DiffOp.zero(make_chart("t", "x1"))


def _uncalled_is_zero(tree):
    """Line numbers of every ``.is_zero`` that is read but not called."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "is_zero"
            and id(node) not in called]


def test_no_uncalled_is_zero_in_the_package():
    # a bound method is always true, so a read that is not a call is a bug
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "cgk"
    found = {path.name: _uncalled_is_zero(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _uncalled_is_zero(ast.parse("if v.is_zero:\n    pass\n")) == [1]
