"""Equation parsing, lowering, and rendering."""

import cmath
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expode.exppoly
import expode.parsing

from expode import (
    EquationAst,
    EquationError,
    ExpPoly,
    LinOp,
    NonlinearTerm,
    ParseError,
    Poly,
    UnknownOnRhs,
    UnsupportedForm,
    build_operator,
    coeff_distance,
    compile_equation,
    format_constant,
    lower_rhs,
    parse_constant,
    parse_equation,
    parse_expression,
    parse_exppoly,
    parse_initial_conditions,
    render,
    render_poly,
)
from expode.parsing import Bin, Call, Neg, Num, VarX, YTerm
from strategies import (ep_close, exp_factor_reference, exppolys,
                        forcing_texts, format_constant_reference,
                        lower_reference, render_complex, render_floats,
                        trig_argument_reference)


def eval_ast(node, x):
    """Plain numeric evaluation of the raw tree, independent of ExpPoly."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, VarX):
        return complex(x)
    if isinstance(node, Neg):
        return -eval_ast(node.operand, x)
    if isinstance(node, Call):
        fn = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}[node.fn]
        return fn(eval_ast(node.arg, x))
    a = eval_ast(node.left, x)
    b = eval_ast(node.right, x)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return a ** b


# ------------------------------------------------------------- equations

def test_parse_standard_equation():
    ast = parse_equation("y'' + 2y' + y = x*exp(-x)")
    assert ast.lhs == ((2, 1 + 0j), (1, 2 + 0j), (0, 1 + 0j))


def test_parse_trivial_rhs():
    ast = parse_equation("y' = 0")
    assert ast.lhs == ((1, 1 + 0j),)
    assert lower_rhs(ast.rhs).is_zero


def test_caret_syntax_equals_primes():
    a = parse_equation("y^(3) - y = 0")
    b = parse_equation("y''' - y = 0")
    assert a.lhs == b.lhs == ((3, 1 + 0j), (0, -1 + 0j))


def test_power_of_y_is_nonlinear():
    with pytest.raises(NonlinearTerm):
        parse_equation("y^2 = 0")


def test_product_of_y_terms_is_nonlinear():
    with pytest.raises(NonlinearTerm):
        parse_equation("y*y' = 1")


def test_y_inside_function_is_nonlinear():
    with pytest.raises(NonlinearTerm):
        parse_equation("sin(y) = 0")


def test_division_by_y_is_nonlinear():
    with pytest.raises(NonlinearTerm):
        parse_equation("y/y = 1")


def test_y_on_rhs_moves_left():
    ast = parse_equation("y' = y")
    assert ast.lhs == ((1, 1 + 0j), (0, -1 + 0j))
    assert lower_rhs(ast.rhs).is_zero


def test_y_on_rhs_keeps_forcing():
    ast = parse_equation("y' = y + x")
    assert ast.lhs == ((1, 1 + 0j), (0, -1 + 0j))
    assert lower_rhs(ast.rhs) == ExpPoly.from_poly(Poly((0j, 1 + 0j)))


def test_y_on_rhs_distributed_constant():
    # the y part of 2*(y+1) moves left, the constant part stays as forcing
    ast = parse_equation("y' = 2*(y + 1)")
    assert ast.lhs == ((1, 1 + 0j), (0, -2 + 0j))
    assert lower_rhs(ast.rhs) == ExpPoly.constant(2 + 0j)


def test_rhs_without_y_is_not_searched_for_y(monkeypatch):
    calls = []

    def counted(expr):
        calls.append(expr)
        return real(expr)

    real = expode.parsing._contains_y
    monkeypatch.setattr(expode.parsing, "_contains_y", counted)
    text = "y'' + y = x*exp(2*x) - 3*sin(x) + cos(x)"
    ast = parse_equation(text)
    assert calls == []
    # the forcing tree is rebuilt as when each term was searched; blanks
    # in place of the left side keep every position
    at = text.index("=") + 1
    rhs = parse_expression(" " * at + text[at:])
    assert ast.rhs == expode.parsing._split_rhs(rhs, {}, True)
    calls.clear()
    assert parse_equation("y' = y + x").lhs == ((1, 1 + 0j), (0, -1 + 0j))
    assert len(calls) == 2


def test_y_terms_may_cancel_to_nothing():
    with pytest.raises(UnsupportedForm):
        parse_equation("y = y")


def test_y_on_rhs_with_x_coefficient_rejected():
    with pytest.raises(UnsupportedForm):
        parse_equation("y' = x*y")


def test_y_in_candidate_expression_rejected():
    with pytest.raises(UnknownOnRhs):
        parse_exppoly("y + 1")


def test_variable_coefficient_rejected():
    with pytest.raises(UnsupportedForm):
        parse_equation("x*y = 1")


def test_constant_residue_rejected():
    with pytest.raises(UnsupportedForm):
        parse_equation("y + 1 = 0")


def test_lhs_without_y_rejected():
    with pytest.raises(UnsupportedForm):
        parse_equation("1 = 0")


def test_coefficients_fold_constants():
    ast = parse_equation("(1+2)*y'' - exp(0)*y = 0")
    assert ast.lhs == ((2, 3 + 0j), (0, -1 + 0j))


def test_imaginary_coefficient():
    ast = parse_equation("2i*y' = 0")
    assert ast.lhs == ((1, 2j),)


def test_coefficient_division():
    ast = parse_equation("y''/2 = 0")
    assert ast.lhs == ((2, 0.5 + 0j),)


def test_build_operator_normalizes_leading():
    op, rhs = build_operator(parse_equation("2y'' + 4y = 2x"))
    assert op == LinOp((0j, 2 + 0j))
    assert rhs == ExpPoly.from_poly(Poly([0, 1]))


def test_build_operator_rejects_order_zero():
    with pytest.raises(UnsupportedForm):
        compile_equation("y = x")


def test_build_operator_caps_order_at_100():
    assert compile_equation("y^(100) + y = 0")[0].order == 100
    with pytest.raises(UnsupportedForm):
        compile_equation("y^(101) + y = 0")


@pytest.mark.parametrize("lhs", [
    ((1, complex("inf")),),
    ((2, 1 + 0j), (0, complex("nan"))),
    ((1, 1 + 0j), (0, complex(0.0, float("-inf")))),
])
def test_build_operator_rejects_nonfinite_coefficients(lhs):
    with pytest.raises(UnsupportedForm, match="arithmetic does not stay finite"):
        build_operator(EquationAst(lhs, Num(1 + 0j)))


def test_zero_coefficient_terms_drop_out():
    ast = parse_equation("y'' + 0*y' + y = 0")
    assert ast.lhs == ((2, 1 + 0j), (0, 1 + 0j))


# --------------------------------------------------------- juxtaposition

def test_numeric_coefficient_juxtaposition():
    assert parse_equation("2y' = 0").lhs == ((1, 2 + 0j),)
    f = parse_exppoly("exp(2x)")
    assert f == ExpPoly.term(2 + 0j, Poly([1]))


def test_juxtaposed_power_binds_like_multiplication():
    assert parse_exppoly("2x^2") == ExpPoly.from_poly(Poly([0, 0, 2]))
    assert parse_exppoly("2^2x") == ExpPoly.from_poly(Poly([0, 4]))


def test_name_juxtaposition_rejected():
    with pytest.raises(ParseError):
        parse_equation("x y = 0")
    with pytest.raises(ParseError):
        parse_exppoly("2(x+1)")
    with pytest.raises(ParseError):
        parse_equation("xy' = 0")


# -------------------------------------------------------------- lowering

def test_lower_cosine():
    f = parse_exppoly("cos(x)")
    assert f.term_at(1j) == Poly([0.5])
    assert f.term_at(-1j) == Poly([0.5])


def test_lower_monomial():
    f = parse_exppoly("x^2")
    assert f == ExpPoly.from_poly(Poly([0, 0, 1]))


def test_lower_mixed_product():
    # x e^{2x} sin(x) has exponents 2 +/- i with polynomial parts -/+ x/2i
    f = parse_exppoly("x*exp(2x)*sin(x)")
    assert len(f.terms) == 2
    assert f.term_at(2 + 1j) == Poly([0, -0.5j])
    assert f.term_at(2 - 1j) == Poly([0, 0.5j])


def test_lower_affine_arguments():
    f = parse_exppoly("exp(2x + 1)")
    assert len(f.terms) == 1
    lam, p = f.terms[0]
    assert lam == 2 + 0j
    assert abs(p.coeffs[0] - cmath.exp(1)) < 1e-15
    g = parse_exppoly("sin(2x - 1)")
    for x in (0.0, 0.3, 1.1):
        assert abs(g(x) - cmath.sin(2 * x - 1)) < 1e-12


def test_lower_constant_powers():
    assert parse_constant("2^3") == 8
    assert parse_constant("2^(-1)") == 0.5
    assert parse_constant("(1+i)^2") == 2j
    assert parse_exppoly("x^0") == ExpPoly.constant(1)


def test_lower_binomial_power():
    f = parse_exppoly("(1+x)^3")
    assert f == ExpPoly.from_poly(Poly([1, 3, 3, 1]))


def test_lower_division_by_constant():
    f = parse_exppoly("exp(x)/2")
    assert f == ExpPoly.term(1 + 0j, Poly([0.5]))


def test_division_gives_one_double_on_both_sides():
    # the forcing side divides by a constant as the left side does, so the
    # text 7/3 is the nearest double to 7/3 in the operator, in the forcing
    # exponent and through parse_constant (the --roots and --ivp path)
    op, rhs = compile_equation("y' - 7/3*y = exp(7/3*x)")
    assert rhs.terms[0][0] == -op.coeffs[0] == 7 / 3
    assert parse_constant("7/3") == 7 / 3


def test_lower_rejects_outside_class():
    with pytest.raises(UnsupportedForm):
        parse_exppoly("exp(x^2)")
    with pytest.raises(UnsupportedForm):
        parse_exppoly("1/x")
    with pytest.raises(UnsupportedForm):
        parse_exppoly("2^x")
    with pytest.raises(UnsupportedForm):
        parse_exppoly("x^1.5")
    with pytest.raises(UnsupportedForm):
        parse_exppoly("x^200")
    with pytest.raises(UnsupportedForm):
        parse_exppoly("1/0")
    with pytest.raises(UnknownOnRhs):
        parse_exppoly("y + 1")
    with pytest.raises(UnsupportedForm, match="does not stay finite"):
        parse_exppoly("(1e200*x)^2")
    with pytest.raises(UnsupportedForm, match="does not stay finite"):
        parse_exppoly("exp(1e308*x)*exp(1e308*x)")


@pytest.mark.parametrize("text", [
    "0*exp(1e308*x)*exp(1e308*x)",
    "(exp(1e308*x) - exp(1e308*x))*exp(1e308*x)",
])
def test_lower_zero_part_keeps_no_exponent(text):
    assert parse_exppoly(text).is_zero


@settings(max_examples=60)
@given(f=exppolys)
def test_lowering_matches_numeric_evaluation(f):
    ast = parse_expression(render(f))
    lowered = lower_rhs(ast)
    for k in range(20):
        x = -1.0 + k / 9.5
        direct = eval_ast(ast, x)
        assert abs(lowered(x) - direct) <= 1e-9 * (1 + abs(direct))


def test_forcing_side_is_canonicalized_once(monkeypatch):
    # one ExpPoly per argument, exponent and base, plus the result and its
    # scaling by the leading coefficient; not one per partial sum
    seen = []
    canonical = expode.exppoly._canonical

    def counting(raw):
        raw = tuple(raw)
        seen.append(len(raw))
        return canonical(raw)

    monkeypatch.setattr(expode.exppoly, "_canonical", counting)
    terms = 64
    rhs = " + ".join(f"{k}*x^2*exp({k}*x)" for k in range(1, terms + 1))
    _, f = compile_equation(f"y'' + y = {rhs}")
    assert len(f.terms) == terms
    assert f.term_at(64) == Poly([0, 0, 64])
    assert sum(seen) <= 8 * terms


@settings(max_examples=200)
@given(f=exppolys, g=exppolys, op=st.sampled_from("+-*"))
def test_lowering_matches_exppoly_arithmetic(f, g, op):
    a, b = render(f), render(g)
    whole = parse_exppoly(f"({a}) {op} ({b})")
    fa, fb = parse_exppoly(a), parse_exppoly(b)
    parts = {"+": fa + fb, "-": fa - fb, "*": fa * fb}[op]
    size = (1.0 + fa.max_coeff()) * (1.0 + fb.max_coeff())
    assert coeff_distance(whole, parts) <= 1e-12 * size


# ------------------------------------------------------------ diagnostics

def test_parse_error_position_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_equation("y'' + = 0")
    assert exc.value.pos == 6
    assert exc.value.expected
    assert exc.value.source == "y'' + = 0"


@pytest.mark.parametrize("entry, text, error", [
    (parse_equation, "x + y' = 0", UnsupportedForm),
    (parse_expression, "x )", ParseError),
    (parse_exppoly, "x^1.5", UnsupportedForm),
    (parse_constant, "x", UnsupportedForm),
    (parse_initial_conditions, "y(i)=1", UnsupportedForm),
    (parse_initial_conditions, "y(0)=1)", ParseError),
    (compile_equation, "y = 0", UnsupportedForm),
])
def test_each_entry_point_names_its_input(entry, text, error):
    # errors are raised without a source, in the parser too; the entry
    # point that was called fills in its own input text
    with pytest.raises(error) as exc:
        entry(text=text)
    assert exc.value.source == text


def test_unexpected_character_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("x + $")
    assert exc.value.pos == 4


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("x + 1)")
    with pytest.raises(ParseError):
        parse_equation("y' = 0 = 0")


def test_unknown_name_rejected():
    with pytest.raises(ParseError) as exc:
        parse_expression("tan(x)")
    assert "tan" in str(exc.value)


def test_missing_equals_sign():
    with pytest.raises(ParseError):
        parse_equation("y'' + y")


def test_malformed_inputs_raise_structured_errors():
    bad = ["", "(", ")", "y''", "= 1", "y' == 0", "exp()", "exp(x",
           "y+'", "1..2", "y^() = 0", "--", "^2", "y'' ++= 0", "'"]
    for text in bad:
        with pytest.raises(EquationError) as exc:
            parse_equation(text)
        if isinstance(exc.value, ParseError):
            assert isinstance(exc.value.pos, int)


TOKEN_TABLE = [
    # text, [(kind, text, pos, value), ...] without the end token
    ("1.e5i", [("num", "1.e5i", 0, 1e5j)]),
    (".5", [("num", ".5", 0, 0.5 + 0j)]),
    ("5.", [("num", "5.", 0, 5 + 0j)]),
    ("1e", [("num", "1", 0, 1 + 0j), ("name", "e", 1, 0j)]),
    ("1e+", [("num", "1", 0, 1 + 0j), ("name", "e", 1, 0j), ("+", "+", 2, 0j)]),
    ("3ix", [("num", "3", 0, 3 + 0j), ("name", "ix", 1, 0j)]),
    ("2i*x", [("num", "2i", 0, 2j), ("*", "*", 2, 0j), ("name", "x", 3, 0j)]),
    ("1.2.3", [("num", "1.2", 0, 1.2 + 0j), ("num", ".3", 3, 0.3 + 0j)]),
    ("x\t+\x1c2", [("name", "x", 0, 0j), ("+", "+", 2, 0j),
                   ("num", "2", 4, 2 + 0j)]),
]

TOKEN_ERRORS = [
    # text, message, position; an 'i' before '.' stays a name
    ("1i.", "unexpected character '.'", 2),
    ("1e400", "number literal out of range", 0),
    ("y\u00b2", "unexpected character '\u00b2'", 1),      # superscript two
    ("\u0663", "unexpected character '\u0663'", 0),       # Arabic-Indic three
]


@pytest.mark.parametrize("text, tokens", TOKEN_TABLE)
def test_tokenizer_table(text, tokens):
    toks = expode.parsing._tokenize(text)
    assert toks[:-1] == tokens
    assert (toks[-1][0], toks[-1][2]) == ("end", len(text))


@pytest.mark.parametrize("text, message, pos", TOKEN_ERRORS)
def test_tokenizer_errors(text, message, pos):
    with pytest.raises(ParseError) as exc:
        expode.parsing._tokenize(text)
    assert (str(exc.value), exc.value.pos) == (message, pos)


@settings(max_examples=300)
@given(st.text(alphabet="0123456789.eEi+-*/^()=,'xyz \t\n\x1c\u00a0", max_size=40))
def test_tokens_cover_the_text(text):
    # each token's text sits at its position; only whitespace lies between
    try:
        toks = expode.parsing._tokenize(text)
    except ParseError as exc:
        assert 0 <= exc.pos < len(text)
        return
    end = 0
    for kind, tok_text, pos, _ in toks:
        assert text[pos:pos + len(tok_text)] == tok_text
        assert not text[end:pos].strip()
        end = pos + len(tok_text)
    assert toks[-1] == ("end", "", len(text), 0j)


# ------------------------------------------------------ front-end values

FRONT_END_PINS = [
    # An expression, then repr(parse_expression) and repr(parse_exppoly);
    # an equation, then repr(parse_equation) and repr(compile_equation); or
    # either, then the error's (class, message, position).
    ('x^0',
     "Bin(op='^', left=VarX(pos=0), right=Num(value=0j, pos=2), pos=1)",
     'ExpPoly(terms=((0j, Poly(coeffs=((1+0j),))),))'),
    ('x^100',
     "Bin(op='^', left=VarX(pos=0), right=Num(value=(100+0j), pos=2), "
     'pos=1)',
     "ExpPoly(terms=((0j, Poly(coeffs=(" + "0j, " * 100
     + "(1+0j)))),))"),
    ('x^101', ('UnsupportedForm', 'exponent too large', 1)),
    ('x^1.5',
     ('UnsupportedForm',
      'non-constant expressions take only nonnegative integer '
      'powers', 1)),
    ('x^-1',
     ('UnsupportedForm',
      'non-constant expressions take only nonnegative integer '
      'powers', 1)),
    ('x^(1+1)',
     "Bin(op='^', left=VarX(pos=0), right=Bin(op='+', "
     'left=Num(value=(1+0j), pos=3), right=Num(value=(1+0j), pos=5), '
     'pos=4), pos=1)',
     'ExpPoly(terms=((0j, Poly(coeffs=(0j, 0j, (1+0j)))),))'),
    ('x^2^2',
     "Bin(op='^', left=VarX(pos=0), right=Bin(op='^', "
     'left=Num(value=(2+0j), pos=2), right=Num(value=(2+0j), pos=4), '
     'pos=3), pos=1)',
     'ExpPoly(terms=((0j, Poly(coeffs=(0j, 0j, 0j, 0j, (1+0j)))),))'),
    ('(x+1)^3',
     "Bin(op='^', left=Bin(op='+', left=VarX(pos=1), "
     'right=Num(value=(1+0j), pos=3), pos=2), right=Num(value=(3+0j), '
     'pos=6), pos=5)',
     'ExpPoly(terms=((0j, Poly(coeffs=((1+0j), (3+0j), (3+0j), '
     '(1+0j)))),))'),
    ('2^3',
     "Bin(op='^', left=Num(value=(2+0j), pos=0), "
     'right=Num(value=(3+0j), pos=2), pos=1)',
     'ExpPoly(terms=((0j, Poly(coeffs=((8+0j),))),))'),
    ('i^2',
     "Bin(op='^', left=Num(value=1j, pos=0), right=Num(value=(2+0j), "
     'pos=2), pos=1)',
     'ExpPoly(terms=((0j, Poly(coeffs=((-1+0j),))),))'),
    ('-x^2',
     "Neg(operand=Bin(op='^', left=VarX(pos=1), "
     'right=Num(value=(2+0j), pos=3), pos=2), pos=0)',
     'ExpPoly(terms=((0j, Poly(coeffs=(0j, 0j, (-1-0j)))),))'),
    ('2x^2 - 3i*x',
     "Bin(op='-', left=Bin(op='*', left=Num(value=(2+0j), pos=0), "
     "right=Bin(op='^', left=VarX(pos=1), right=Num(value=(2+0j), "
     "pos=3), pos=2), pos=1), right=Bin(op='*', left=Num(value=3j, "
     'pos=7), right=VarX(pos=10), pos=9), pos=5)',
     'ExpPoly(terms=((0j, Poly(coeffs=(0j, -3j, (2+0j)))),))'),
    ('exp(0*x)',
     "Call(fn='exp', arg=Bin(op='*', left=Num(value=0j, pos=4), "
     'right=VarX(pos=6), pos=5), pos=0)',
     'ExpPoly(terms=((0j, Poly(coeffs=((1+0j),))),))'),
    ('sin(1e-13*x)',
     "Call(fn='sin', arg=Bin(op='*', left=Num(value=(1e-13+0j), "
     'pos=4), right=VarX(pos=10), pos=9), pos=0)',
     'ExpPoly(terms=())'),
    ('3exp(2x)*cos(x)',
     "Bin(op='*', left=Bin(op='*', left=Num(value=(3+0j), pos=0), "
     "right=Call(fn='exp', arg=Bin(op='*', left=Num(value=(2+0j), "
     'pos=5), right=VarX(pos=6), pos=6), pos=1), pos=1), '
     "right=Call(fn='cos', arg=VarX(pos=13), pos=9), pos=8)",
     'ExpPoly(terms=(((2-1j), Poly(coeffs=((1.5+0j),))), ((2+1j), '
     'Poly(coeffs=((1.5+0j),)))))'),
    ('(exp(x) + 1)^2',
     "Bin(op='^', left=Bin(op='+', left=Call(fn='exp', "
     'arg=VarX(pos=5), pos=1), right=Num(value=(1+0j), pos=10), '
     'pos=8), right=Num(value=(2+0j), pos=13), pos=12)',
     'ExpPoly(terms=((0j, Poly(coeffs=((1+0j),))), ((1+0j), '
     'Poly(coeffs=((2+0j),))), ((2+0j), Poly(coeffs=((1+0j),)))))'),
    ('exp(x)*exp(-x)',
     "Bin(op='*', left=Call(fn='exp', arg=VarX(pos=4), pos=0), "
     "right=Call(fn='exp', arg=Neg(operand=VarX(pos=12), pos=11), "
     'pos=7), pos=6)',
     'ExpPoly(terms=((0j, Poly(coeffs=((1+0j),))),))'),
    ('x - x',
     "Bin(op='-', left=VarX(pos=0), right=VarX(pos=4), pos=2)",
     'ExpPoly(terms=())'),
    ('1e-13*x + 1',
     "Bin(op='+', left=Bin(op='*', left=Num(value=(1e-13+0j), pos=0), "
     'right=VarX(pos=6), pos=5), right=Num(value=(1+0j), pos=10), '
     'pos=8)',
     'ExpPoly(terms=((0j, Poly(coeffs=((1+0j),))),))'),
    ('x*exp(x)/2',
     "Bin(op='/', left=Bin(op='*', left=VarX(pos=0), "
     "right=Call(fn='exp', arg=VarX(pos=6), pos=2), pos=1), "
     'right=Num(value=(2+0j), pos=9), pos=8)',
     'ExpPoly(terms=(((1+0j), Poly(coeffs=(0j, (0.5+0j)))),))'),
    ('1/(2*x)', ('UnsupportedForm', 'the divisor must be a constant', 1)),
    ('x/0', ('UnsupportedForm', 'division by zero', 1)),
    ('(1e200*x)^2',
     ('UnsupportedForm',
      'arithmetic does not stay finite: polynomial coefficients '
      'must be finite', 0)),
    ('exp(x^2)', ('UnsupportedForm', 'exp() argument must be linear in x', 0)),
    ('exp(1e308*x)*exp(1e308*x)',
     ('UnsupportedForm',
      'arithmetic does not stay finite: exponents must be finite', 0)),
    ('x^(1/2)',
     ('UnsupportedForm',
      'non-constant expressions take only nonnegative integer '
      'powers', 1)),
    ('(x', ('ParseError', "expected ')'", 2)),
    ("y' = y + exp(x)",
     "EquationAst(lhs=((1, (1+0j)), (0, (-1+0j))), rhs=Call(fn='exp', "
     'arg=VarX(pos=13), pos=9), text="y\' = y + exp(x)")',
     '(LinOp(coeffs=((-1+0j),)), ExpPoly(terms=(((1+0j), '
     'Poly(coeffs=((1+0j),))),)))'),
    ("y'' = x - y + 2*y'",
     'EquationAst(lhs=((2, (1+0j)), (1, (-2+0j)), (0, (1+0j))), '
     'rhs=VarX(pos=6), text="y\'\' = x - y + 2*y\'")',
     '(LinOp(coeffs=((-2+0j), (1+0j))), ExpPoly(terms=((0j, '
     'Poly(coeffs=(0j, (1+0j)))),)))'),
    ("y' = y*y", ('NonlinearTerm', 'product of two y terms', 6)),
    ("y' = x*y",
     ('UnsupportedForm',
      'x may only appear in the forcing part of the equation', 5)),
    ("y^1 + y' = 0",
     "EquationAst(lhs=((1, (1+0j)), (0, (1+0j))), rhs=Num(value=0j, "
     'pos=11), text="y^1 + y\' = 0")',
     '(LinOp(coeffs=((1+0j),)), ExpPoly(terms=()))'),
    ("2^3*y' + y = 0",
     "EquationAst(lhs=((1, (8+0j)), (0, (1+0j))), rhs=Num(value=0j, "
     'pos=13), text="2^3*y\' + y = 0")',
     '(LinOp(coeffs=((0.125+0j),)), ExpPoly(terms=()))'),
    ("y'/0 = 1", ('UnsupportedForm', 'division by zero', 2)),
    ("y' = 2*(-y) + 1",
     "EquationAst(lhs=((1, (1+0j)), (0, (2+0j))), rhs=Num(value=(1+0j), "
     'pos=14), text="y\' = 2*(-y) + 1")',
     '(LinOp(coeffs=((2+0j),)), ExpPoly(terms=((0j, '
     'Poly(coeffs=((1+0j),))),)))'),
    ("y' = exp(1000)",
     ('UnsupportedForm', 'cannot fold constant: math range error', 5)),
    ("y' = 0^(-1)",
     ('UnsupportedForm',
      'cannot fold constant power: 0.0 to a negative or complex power', 6)),
    # a finite base whose power is nan+nanj, with no exception raised
    ("y' = (1e200+1e200i)^2",
     ('UnsupportedForm', 'constant power overflows', 19)),
    ("(1e200+1e200i)^2*y' + y = 0",
     ('UnsupportedForm', 'constant power overflows', 14)),
    ('y^(1.5) = 0',
     ('ParseError', 'derivative order must be a nonnegative integer', 3)),
    ("1e-300*y' + 1e300*y = 0",
     ('UnsupportedForm',
      'arithmetic does not stay finite: operator coefficients must be '
      'finite', 0)),
]


@pytest.mark.parametrize("row", FRONT_END_PINS, ids=lambda row: row[0])
def test_front_end_values_are_pinned(row):
    text, *expected = row
    parse, lower = ((parse_equation, compile_equation) if "=" in text
                    else (parse_expression, parse_exppoly))
    try:
        got = [repr(parse(text)), repr(lower(text))]
    except EquationError as exc:
        got = [(type(exc).__name__, str(exc), exc.pos)]
    assert got == expected


ONE = "ExpPoly(terms=((0j, Poly(coeffs=((1+0j),))),))"
NOT_FINITE = ("UnsupportedForm", "arithmetic does not stay finite: "
              "polynomial coefficients must be finite", 0)
TOO_LARGE = ("UnsupportedForm", "arithmetic does not stay finite: "
             "absolute value too large", 0)


@pytest.mark.parametrize("base, value, expected", [
    # a number exponent in a tree built by hand, not by the parser
    (VarX(0), -0.0, ONE),
    (VarX(0), complex(-0.0, -0.0), ONE),
    (VarX(0), 2.5, ("UnsupportedForm", "non-constant expressions take only "
                    "nonnegative integer powers", 3)),
    (VarX(0), 101, ("UnsupportedForm", "exponent too large", 3)),
    (VarX(0), float("inf"), NOT_FINITE),
    (VarX(0), float("nan"), NOT_FINITE),
    (VarX(0), complex(1.7e308, 1.7e308), TOO_LARGE),
    (Num(2, 0), -0.0, ONE),
    (Num(2, 0), float("inf"), NOT_FINITE),
    (Num(2, 0), complex(1.7e308, 1.7e308), TOO_LARGE),
])
def test_number_exponent_in_a_built_tree(base, value, expected):
    try:
        got = repr(lower_rhs(Bin("^", base, Num(value, 5), 3)))
    except EquationError as exc:
        got = (type(exc).__name__, str(exc), exc.pos)
    assert got == expected


def _lowered(lower, expr):
    """repr of the lowered value, or the error's class, message and position."""
    try:
        return repr(lower(expr))
    except EquationError as exc:
        return type(exc).__name__, str(exc), exc.pos


@settings(max_examples=300, deadline=None)
@given(text=forcing_texts())
# an overflow in a product, a scaling and a sum is an error before the
# error of a later term
@example(text="(1e300)*(1e300) + (0)/(0)")
@example(text="(1e300)/(1e-300) + (0)/(0)")
@example(text="1.7e308 + 1.7e308 + (0)/(0)")
def test_lowering_matches_reference_bits(text):
    expr = parse_expression(text)
    assert _lowered(lower_rhs, expr) == _lowered(lower_reference, expr)


TOO_MANY = "a product in the forcing holds more than 1201 coefficients"


@pytest.mark.parametrize("equation, pos", [
    # products up to degree 18,471, 11,100 and 2,000: 30 s, 9.9 s and
    # 0.5 s of successive multiplication before the bound
    ("y' = (x^100 - x^99)^100*(x^100-x)^100", 19),
    ("y' = (x - x^73*x^38 - x^20)^100", 27),
    ("y' = (x - x^20)^100", 15),
    # degree 0 with a growing number of exponents, most of them merged only
    # at the end: 14 s before the bound
    ("y' = (exp(x) + exp(1.1i*x) + exp((0.3+0.7i)*x))^60", 47),
    # one degree past the longest product test_long_chains_solve solves
    ("y' = " + "*".join(["x"] * 1201), 2404),
])
def test_product_size_is_bounded(equation, pos):
    start = time.perf_counter()
    with pytest.raises(UnsupportedForm) as exc:
        compile_equation(equation)
    assert time.perf_counter() - start < 2.0
    assert (str(exc.value), exc.value.pos) == (TOO_MANY, pos)
    assert equation[pos] in "*^"


def test_product_size_counts_coefficients_before_cleaning():
    # the forcing cancels to 0, but each power holds 1,201 coefficients
    _, f = compile_equation("y' = (x^12 + 1)^100 - (x^12 + 1)^100")
    assert f.is_zero
    with pytest.raises(UnsupportedForm):
        compile_equation("y' = (x^12 + 1)^100*x")


# ---------------------------------------------------- initial conditions

def test_parse_conditions_at_origin():
    conds = parse_initial_conditions("y(0)=1, y'(0)=0")
    assert conds == ((0, 0.0, 1 + 0j), (1, 0.0, 0j))


def test_parse_conditions_caret_and_values():
    conds = parse_initial_conditions("y^(2)(1)=-2, y(1)=1+2i")
    assert conds == ((2, 1.0, -2 + 0j), (0, 1.0, 1 + 2j))


def test_parse_conditions_errors():
    with pytest.raises(ParseError):
        parse_initial_conditions("z(0)=1")
    with pytest.raises(UnsupportedForm):
        parse_initial_conditions("y(i)=0")
    with pytest.raises(ParseError):
        parse_initial_conditions("y(0)=1,")
    with pytest.raises(UnsupportedForm):
        parse_initial_conditions("y(0)=x")


# ------------------------------------------------------------- rendering

def test_render_examples():
    assert render(ExpPoly.term(1 + 0j, Poly([0, 1]))) == "x*exp(x)"
    assert render(ExpPoly.zero()) == "0"
    assert render(ExpPoly.constant(1)) == "1"
    assert render(ExpPoly.term(-1 + 0j, Poly([2]))) == "2*exp(-x)"
    assert render(ExpPoly.term(1j, Poly([1]))) == "exp(i*x)"
    assert render(ExpPoly.term(1 + 1j, Poly([0, 0, -1]))) == "-x^2*exp((1+i)*x)"
    assert render(ExpPoly.from_poly(Poly([1, 0, 3]))) == "1 + 3*x^2"
    assert render(ExpPoly.from_poly(Poly([-1, -1]))) == "-1 - x"
    mixed = ExpPoly.term(2 + 0j, Poly([1, 1])) + ExpPoly.constant(4)
    assert render(mixed) == "4 + (1 + x)*exp(2*x)"


def test_render_realified():
    f = parse_exppoly("cos(x)")
    assert render(f, realify=True) == "cos(x)"
    g = parse_exppoly("exp(x)*sin(2x)") + parse_exppoly("x^2")
    assert render(g, realify=True) == "x^2 + sin(2*x)*exp(x)"


def test_render_poly():
    assert render_poly(Poly([1, 0, 1]), "r") == "1 + r^2"
    assert render_poly(Poly([0]), "r") == "0"
    assert render_poly(Poly([2j, -1]), "r") == "2i - r"


def test_format_constant():
    assert format_constant(2 + 0j) == "2"
    assert format_constant(-0.5 + 0j) == "-0.5"
    assert format_constant(1j) == "i"
    assert format_constant(-2j) == "-2i"
    assert format_constant(1 + 1j) == "(1+i)"
    assert format_constant(-1.5 - 2j) == "(-1.5-2i)"


@settings(max_examples=500)
@given(z=render_complex)
def test_exp_factor_and_constant_match_their_old_branches(z):
    assert expode.parsing._exp_factor(z) == exp_factor_reference(z)
    assert format_constant(z) == format_constant_reference(z)


@settings(max_examples=300)
@given(beta=render_floats.filter(lambda b: b > 0))
def test_trig_argument_matches_its_old_branch(beta):
    # entries of a TrigForm with a cos or sin part have beta > 0
    got = expode.parsing._monomial_body(beta, 1, "x")[1]
    assert got == trig_argument_reference(beta)


@given(f=exppolys)
def test_render_parse_round_trip(f):
    assert ep_close(parse_exppoly(render(f)), f, 1e-10)
