"""Value semantics of the frozen records: repr, ==, hash, immutability,
pickle and copy, keyword construction and defaults."""

import copy
import pickle

import pytest

from expode import (AnsatzForm, EquationAst, ExpPoly, FactoredOp,
                    Factorization, FullSolution, HomogeneousSolution, LinOp,
                    Poly, TrigForm, VerifyReport, parse_equation,
                    parse_expression)
from expode.parsing import Bin, Call, Neg, Num, VarX, YTerm


def _samples():
    p = Poly((1, 2j))
    f = ExpPoly.term(1j, Poly((1, 2)))
    hom = HomogeneousSolution((f,), ("C1",))
    return [
        p,
        Factorization((((1 + 0j), 2),), leading=3),
        f,
        TrigForm(((0.0, 1.0, Poly((2,)), Poly()),)),
        LinOp((2, 1)),
        FactoredOp(((1, 2), (-1j, 1))),
        Num(1j, 4),
        VarX(2),
        YTerm(2, 0),
        Neg(VarX(1), 0),
        Call("exp", VarX(4), 0),
        Bin("*", Num(2 + 0j, 0), VarX(2), 1),
        parse_equation("y'' + y = x"),
        hom,
        FullSolution(hom, f),
        AnsatzForm(1j, 1, 3),
        VerifyReport(0.0, 1e-9),
    ]


# the dataclass-style repr texts, pinned character for character
PINNED_REPRS = [
    (Poly((1, 2j)), "Poly(coeffs=((1+0j), 2j))"),
    (Factorization((((1 + 0j), 2),), leading=3),
     "Factorization(pairs=(((1+0j), 2),), leading=(3+0j))"),
    (LinOp((2, 1)), "LinOp(coeffs=((2+0j), (1+0j)))"),
    (FactoredOp(((1, 2), (-1j, 1))),
     "FactoredOp(factors=(((1+0j), 2), ((-0-1j), 1)))"),
    (parse_expression("2*x"),
     "Bin(op='*', left=Num(value=(2+0j), pos=0), right=VarX(pos=2), pos=1)"),
    (parse_expression("-exp(2*x) + y''/3"),
     "Bin(op='+', left=Neg(operand=Call(fn='exp', arg=Bin(op='*', "
     "left=Num(value=(2+0j), pos=5), right=VarX(pos=7), pos=6), pos=1), "
     "pos=0), right=Bin(op='/', left=YTerm(order=2, pos=12), "
     "right=Num(value=(3+0j), pos=16), pos=15), pos=10)"),
    (parse_equation("y'' + y = x"),
     "EquationAst(lhs=((2, (1+0j)), (0, (1+0j))), rhs=VarX(pos=10), "
     "text=\"y'' + y = x\")"),
    (ExpPoly.term(1j, Poly((1, 2))),
     "ExpPoly(terms=((1j, Poly(coeffs=((1+0j), (2+0j)))),))"),
    (TrigForm(((0.0, 1.0, Poly((2,)), Poly()),)),
     "TrigForm(entries=((0.0, 1.0, Poly(coeffs=((2+0j),)), "
     "Poly(coeffs=())),))"),
    (FullSolution(HomogeneousSolution((), ()), ExpPoly()),
     "FullSolution(homogeneous=HomogeneousSolution(basis=(), constants=()), "
     "particular=ExpPoly(terms=()))"),
    (AnsatzForm(1j, 1, 3),
     "AnsatzForm(exponent=1j, resonance_order=1, degree=3)"),
    (VerifyReport(0.0, 1e-9), "VerifyReport(symbolic=0.0, pointwise=1e-09)"),
    (Num(1j), "Num(value=1j, pos=-1)"),
    (VarX(), "VarX(pos=-1)"),
    (YTerm(2), "YTerm(order=2, pos=-1)"),
]


@pytest.mark.parametrize("value, text", PINNED_REPRS)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


def test_all_seventeen_records_are_sampled():
    assert len({type(v) for v in _samples()}) == 17


@pytest.mark.parametrize("value", _samples(), ids=lambda v: type(v).__name__)
def test_equality_and_hash_agree(value):
    twin = copy.deepcopy(value)
    assert twin == value and not (twin != value)
    assert hash(twin) == hash(value)
    for other in _samples():
        if type(other) is not type(value):
            assert value != other


def test_equality_follows_fields():
    text = "y'' + 2*y' - y = x*exp(3*x) + cos(2*x)"
    assert parse_equation(text) == parse_equation(text)
    assert hash(parse_equation(text)) == hash(parse_equation(text))
    assert parse_equation(text) != parse_equation("y'' + 2*y' - y = x")
    assert Poly((1,)) != ExpPoly.constant(1)
    assert not Poly((1,)) == ExpPoly.constant(1)
    assert Poly((1, 0, 0)) == Poly((1,))
    assert Num(1j, 0) != Num(1j, 1)
    # LinOp's cached characteristic polynomial is not a field
    assert LinOp((2, 1)) == LinOp((2 + 0j, 1 + 0j))
    assert hash(LinOp((2, 1))) == hash(((2 + 0j, 1 + 0j),))
    assert hash(Poly((1, 2j))) == hash((((1 + 0j), 2j),))


@pytest.mark.parametrize("value", _samples(), ids=lambda v: type(v).__name__)
def test_fields_are_frozen(value):
    name = repr(value).split("(", 1)[1].split("=", 1)[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("value", _samples(), ids=lambda v: type(v).__name__)
def test_pickle_and_copy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)
    op = pickle.loads(pickle.dumps(LinOp((2, 1))))
    assert op.char_poly() == Poly((1, 2, 1))


def test_keyword_construction_and_defaults():
    assert Poly() == Poly(coeffs=()) and Poly().is_zero
    assert TrigForm() == TrigForm(entries=())
    assert ExpPoly() == ExpPoly(terms=()) == ExpPoly.zero()
    pairs = (((1 + 0j), 2),)
    assert Factorization(pairs, leading=2).leading == 2 + 0j
    assert Factorization(pairs=pairs).leading == 1 + 0j
    assert Num(1j).pos == -1 and VarX().pos == -1 and YTerm(1).pos == -1
    assert Neg(operand=VarX()).pos == -1
    assert Call(fn="sin", arg=VarX()).pos == -1
    assert Bin(op="+", left=VarX(), right=VarX()).pos == -1
    assert EquationAst(lhs=((1, 1 + 0j),), rhs=Num(0j)).text == ""
    assert LinOp(coeffs=(1,)).order == 1
    assert FactoredOp(factors=((0, 1),)).order == 1
    assert AnsatzForm(exponent=0j, resonance_order=0, degree=1).degree == 1
    assert VerifyReport(symbolic=0.0, pointwise=0.0).within()
    hom = HomogeneousSolution(basis=(), constants=())
    assert FullSolution(homogeneous=hom, particular=ExpPoly()).homogeneous is hom


def test_deep_trees_print_compare_and_hash():
    # a 1,200-term sum is a left spine 1,199 levels deep, past the
    # interpreter's recursion limit
    n = 1200
    text = " + ".join(["x"] * n)
    tree = parse_expression(text)
    want = "Bin(op='+', left=" * (n - 1) + "VarX(pos=0)" + "".join(
        f", right=VarX(pos={4 * k}), pos={4 * k - 2})" for k in range(1, n))
    assert repr(tree) == want
    twin = parse_expression(text)
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != parse_expression(text[:-1] + "2")
    assert tree.__eq__(VarX(0)) is NotImplemented
    eq = "y' = " + text
    assert parse_equation(eq) == parse_equation(eq)
    assert hash(parse_equation(eq)) == hash(parse_equation(eq))
