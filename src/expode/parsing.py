"""Equation front-end: parsing, lowering to ExpPoly, and rendering back.

Grammar (whitespace insignificant; '*' is explicit except that a numeric
literal may directly premultiply a named atom, as in 2y' or exp(2x)):

    equation  := expr '=' expr
    expr      := term (('+' | '-') term)*
    term      := factor (('*' | '/') factor)*
    factor    := ('+' | '-') factor | power
    power     := atom ('^' factor)?
    atom      := NUMBER | 'i' | 'x' | yterm | fn '(' expr ')' | '(' expr ')'
    yterm     := 'y' PRIME* | 'y' '^' '(' INT ')'
    fn        := 'exp' | 'sin' | 'cos'
    NUMBER    := decimal literal, optional exponent, optional 'i' suffix

The unknown y must appear linearly with constant coefficients (constant
arithmetic is folded, so (1+2)*y'' is fine).  Linear y terms on the right
are moved to the left, so y' = y works.  What remains of the right-hand
side must lower to an exponential polynomial: sums and products of
polynomials in x with exp/sin/cos of expressions linear in x.
"""

from __future__ import annotations

import cmath
import math
import re

from .cpoly import Poly, Record, monomial
from .exppoly import EXP_MERGE_TOL, ExpPoly, TrigForm
from .exppoly import realify as _to_trig
from .operators import LinOp


class EquationError(Exception):
    """Problems turning input text into an equation or function."""

    def __init__(self, message: str, pos: int | None = None,
                 source: str | None = None):
        super().__init__(message)
        self.pos = pos
        self.source = source


class ParseError(EquationError):
    """Malformed input; carries the offending position and what was expected."""

    def __init__(self, message: str, pos: int, expected=(), source=None):
        super().__init__(message, pos, source)
        self.expected = tuple(expected)


class NonlinearTerm(EquationError):
    """y enters the left-hand side other than linearly."""


class UnknownOnRhs(EquationError):
    """y shows up where only forcing terms belong."""


class UnsupportedForm(EquationError):
    """Well-formed input outside the solvable class."""


# ---------------------------------------------------------------- AST

class Num(Record):
    def __init__(self, value: complex, pos: int = -1):
        self.__dict__.update(value=value, pos=pos)


class VarX(Record):
    def __init__(self, pos: int = -1):
        object.__setattr__(self, "pos", pos)


class YTerm(Record):
    def __init__(self, order: int, pos: int = -1):
        self.__dict__.update(order=order, pos=pos)


class Neg(Record):
    def __init__(self, operand: Expr, pos: int = -1):
        self.__dict__.update(operand=operand, pos=pos)


class Call(Record):
    def __init__(self, fn: str, arg: Expr, pos: int = -1):
        self.__dict__.update(fn=fn, arg=arg, pos=pos)


class Bin(Record):
    def __init__(self, op: str, left: Expr, right: Expr, pos: int = -1):
        self.__dict__.update(op=op, left=left, right=right, pos=pos)


Expr = Num | VarX | YTerm | Neg | Call | Bin


class EquationAst(Record):
    """Left side as (derivative order, coefficient) pairs, highest order
    first; right side as an unlowered expression tree."""

    def __init__(self, lhs: tuple[tuple[int, complex], ...], rhs: Expr,
                 text: str = ""):
        self.__dict__.update(lhs=lhs, rhs=rhs, text=text)


# ---------------------------------------------------------------- tokens

_FUNCTIONS = ("exp", "sin", "cos")
_MAX_POWER = 100  # largest derivative order and '^' exponent accepted
# One alternative per token kind, after optional whitespace (\s is
# str.isspace).  Digits and letters are ASCII only: str.isdigit() and
# isalpha() accept characters float() rejects, e.g. the superscript two.  An
# 'i' right after a number makes it imaginary unless a name, a digit, '.' or
# '_' follows.  Anything else that is not whitespace is an error.
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?P<real>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
            (?P<imag>i(?![A-Za-z0-9._]))?)
  | (?P<name>[A-Za-z]+)
  | (?P<op>[-+*/^()=,])
  | (?P<prime>')
  | (?P<bad>\S))""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "pos", "value")

    def __init__(self, kind: str, text: str, pos: int, value: complex = 0j):
        self.kind = kind  # 'num', 'name', 'prime', one of '+-*/^()=,', 'end'
        self.text = text
        self.pos = pos
        self.value = value


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup  # the outermost group that matched
        tok, pos = m[kind], m.start(kind)
        if kind == "num":
            val = float(m["real"])
            if not math.isfinite(val):
                raise ParseError("number literal out of range", pos,
                                 ("number",), text)
            value = complex(0.0, val) if m["imag"] else complex(val, 0.0)
            toks.append(_Token(kind, tok, pos, value))
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos,
                             ("number", "name", "operator"), text)
        else:
            toks.append(_Token(tok if kind == "op" else kind, tok, pos))
    toks.append(_Token("end", "", len(text)))
    return toks


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self, offset: int = 0) -> _Token:
        if not offset:  # k never passes the 'end' token
            return self.toks[self.k]
        return self.toks[min(self.k + offset, len(self.toks) - 1)]

    def advance(self) -> _Token:
        tok = self.toks[self.k]
        if tok.kind != "end":
            self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos, (what,), self.text)
        return self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            node = Bin(op.kind, node, self.term(), op.pos)
        tok = self.peek()
        if tok.kind in ("num", "name", "("):
            raise ParseError("missing '*' (implicit multiplication is not allowed)",
                             tok.pos, ("'*'", "'+'", "'-'"), self.text)
        if tok.kind == "prime":
            raise ParseError("' may only follow y", tok.pos, ("'*'",), self.text)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/"):
                self.advance()
                node = Bin(tok.kind, node, self.factor(), tok.pos)
            elif tok.kind == "name" and self.toks[self.k - 1].kind == "num":
                # coefficient juxtaposition: 2x, 2y', 3exp(x); multiplies
                # at '*' precedence, so 2x^2 reads 2*(x^2)
                node = Bin("*", node, self.power(), tok.pos)
            else:
                return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "+":
            self.advance()
            return self.factor()
        if tok.kind == "-":
            self.advance()
            return Neg(self.factor(), tok.pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            op = self.advance()
            return Bin("^", base, self.factor(), op.pos)
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(tok.value, tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "name":
            if tok.text == "y":
                self.advance()
                return YTerm(self.y_suffix(), tok.pos)
            self.advance()
            if tok.text == "x":
                return VarX(tok.pos)
            if tok.text == "i":
                return Num(1j, tok.pos)
            if tok.text in _FUNCTIONS:
                self.expect("(", "'('")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(tok.text, arg, tok.pos)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos,
                             ("'x'", "'y'", "'i'", "'exp'", "'sin'", "'cos'"),
                             self.text)
        raise ParseError("expected a value", tok.pos,
                         ("number", "'x'", "'y'", "'i'", "'exp'", "'sin'",
                          "'cos'", "'('"), self.text)

    def y_suffix(self) -> int:
        """Derivative order right after a 'y': primes or '^(k)'."""
        order = 0
        if self.peek().kind == "prime":
            while self.peek().kind == "prime":
                self.advance()
                order += 1
            return order
        if (self.peek().kind == "^" and self.peek(1).kind == "("
                and self.peek(2).kind == "num" and self.peek(3).kind == ")"):
            num = self.peek(2)
            v = num.value
            if v.imag != 0 or v.real != int(v.real) or v.real < 0:
                raise ParseError("derivative order must be a nonnegative integer",
                                 num.pos, ("integer",), self.text)
            for _ in range(4):
                self.advance()
            return int(v.real)
        return 0


def _fill_source(exc: EquationError, text: str) -> None:
    if exc.source is None:
        exc.source = text


def parse_equation(text: str) -> EquationAst:
    """Parse 'lhs = rhs' and check the structural rules on both sides.

    Linear y terms may sit on either side; ones on the right are moved
    over, so y' = y and y' - y = 0 produce the same equation.  What
    remains on the right is the forcing expression.
    """
    try:
        p = _Parser(text)
        lhs_expr = p.expr()
        p.expect("=", "'='")
        rhs_expr = p.expr()
        tok = p.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.pos,
                             ("end of input",), text)
        const, lin = _lin_value(lhs_expr)
        if not cmath.isfinite(const):  # e.g. 0*inf from 1e308*10*y
            raise UnsupportedForm(_LHS_OVERFLOW, getattr(lhs_expr, "pos", 0))
        if const != 0:
            raise UnsupportedForm("every left-hand side term must contain y",
                                  getattr(lhs_expr, "pos", 0))
        rhs_clean = _split_rhs(rhs_expr, lin)
        terms = sorted(((d, c) for d, c in lin.items() if c != 0),
                       reverse=True)
        if not terms:
            raise UnsupportedForm("the equation contains no y term",
                                  getattr(lhs_expr, "pos", 0))
        return EquationAst(tuple(terms), rhs_clean, text)
    except EquationError as exc:
        _fill_source(exc, text)
        raise


def parse_expression(text: str) -> Expr:
    try:
        p = _Parser(text)
        node = p.expr()
        tok = p.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.pos,
                             ("end of input",), text)
        return node
    except EquationError as exc:
        _fill_source(exc, text)
        raise


# ------------------------------------------------- lhs linear extraction

_FOLD = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}
_LHS_OVERFLOW = "arithmetic does not stay finite on the left-hand side"


def _cpow(base: complex, k: complex, pos: int) -> complex:
    try:
        out = base ** k
    except (ZeroDivisionError, OverflowError) as exc:
        raise UnsupportedForm(f"cannot fold constant power: {exc}", pos) from exc
    if not cmath.isfinite(out):
        raise UnsupportedForm("constant power overflows", pos)
    return out


def _fold_const(fn, z: complex, pos: int) -> complex:
    # cmath.exp raises OverflowError for large arguments such as exp(999)
    try:
        out = fn(z)
    except (OverflowError, ValueError) as exc:
        raise UnsupportedForm(f"cannot fold constant: {exc}", pos) from exc
    if not cmath.isfinite(out):
        raise UnsupportedForm("constant folding overflows", pos)
    return out


def _lin_value(e: Expr) -> tuple[complex, dict[int, complex]]:
    if isinstance(e, Num):
        return e.value, {}
    if isinstance(e, VarX):
        raise UnsupportedForm(
            "x may only appear in the forcing part of the equation", e.pos)
    if isinstance(e, YTerm):
        return 0j, {e.order: 1.0 + 0j}
    if isinstance(e, Neg):
        c, lin = _lin_value(e.operand)
        return -c, {d: -v for d, v in lin.items()}
    if isinstance(e, Call):
        c, lin = _lin_value(e.arg)
        if lin:
            raise NonlinearTerm(f"y inside {e.fn}() is not linear", e.pos)
        return _fold_const(_FOLD[e.fn], c, e.pos), {}
    a_c, a_l = _lin_value(e.left)
    b_c, b_l = _lin_value(e.right)
    if e.op in ("+", "-"):
        sign = 1.0 if e.op == "+" else -1.0
        out = dict(a_l)
        for d, v in b_l.items():
            out[d] = out.get(d, 0j) + sign * v
        return a_c + sign * b_c, out
    if e.op == "*":
        if a_l and b_l:
            raise NonlinearTerm("product of two y terms", e.pos)
        if b_l:
            a_c, a_l, b_c, b_l = b_c, b_l, a_c, a_l
        return a_c * b_c, {d: v * b_c for d, v in a_l.items()}
    if e.op == "/":
        if b_l:
            raise NonlinearTerm("division by y", e.pos)
        if b_c == 0:
            raise UnsupportedForm("division by zero", e.pos)
        return a_c / b_c, {d: v / b_c for d, v in a_l.items()}
    # '^'
    if b_l:
        raise NonlinearTerm("y in an exponent", e.pos)
    if a_l:
        if b_c == 1:
            return a_c, a_l
        raise NonlinearTerm("y raised to a power", e.pos)
    return _cpow(a_c, b_c, e.pos), {}


def _contains_y(expr: Expr) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, YTerm):
            return True
        if isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.append(node.arg)
        elif isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
    return False


def _additive_terms(expr: Expr, sign: int = 1,
                    out: list[tuple[int, Expr]] | None = None
                    ) -> list[tuple[int, Expr]]:
    if out is None:
        out = []
    if isinstance(expr, Bin) and expr.op in ("+", "-"):
        _additive_terms(expr.left, sign, out)
        _additive_terms(expr.right, sign if expr.op == "+" else -sign, out)
    elif isinstance(expr, Neg):
        _additive_terms(expr.operand, -sign, out)
    else:
        out.append((sign, expr))
    return out


def _split_rhs(rhs_expr: Expr, lin: dict[int, complex]) -> Expr:
    """Move linear y terms from the right onto the accumulated left side
    and return what remains of the right side as the forcing expression."""
    forcing: Expr | None = None

    def push(node: Expr, sign: int) -> None:
        nonlocal forcing
        if forcing is None:
            forcing = node if sign > 0 else Neg(node, getattr(node, "pos", -1))
        else:
            forcing = Bin("+" if sign > 0 else "-", forcing, node,
                          getattr(node, "pos", -1))

    for sign, term in _additive_terms(rhs_expr):
        if _contains_y(term):
            const, part = _lin_value(term)
            for d, v in part.items():
                lin[d] = lin.get(d, 0j) - sign * v
            if const != 0:
                push(Num(complex(const), getattr(term, "pos", -1)), sign)
        else:
            push(term, sign)
    if forcing is None:
        return Num(0j, getattr(rhs_expr, "pos", -1))
    return forcing


# ---------------------------------------------------------- lowering

def _try_constant(f: ExpPoly) -> complex | None:
    if f.is_zero:
        return 0j
    if len(f.terms) == 1:
        lam, p = f.terms[0]
        if abs(lam) <= EXP_MERGE_TOL and p.degree == 0:
            return p.coeffs[0]
    return None


def _constant_of(f: ExpPoly, node: Expr, what: str = "value") -> complex:
    c = _try_constant(f)
    if c is None:
        raise UnsupportedForm(f"the {what} must be a constant",
                              getattr(node, "pos", 0))
    return c


def _affine_arg(f: ExpPoly, call: Call) -> tuple[complex, complex]:
    if f.is_zero:
        return 0j, 0j
    if len(f.terms) == 1:
        lam, p = f.terms[0]
        if abs(lam) <= EXP_MERGE_TOL and p.degree <= 1:
            b = p.coeffs[0]
            a = p.coeffs[1] if p.degree == 1 else 0j
            return a, b
    raise UnsupportedForm(f"{call.fn}() argument must be linear in x", call.pos)


def _canon(terms: dict[complex, Poly]) -> ExpPoly:
    return ExpPoly(tuple(terms.items()))


def _accumulate(acc: dict[complex, Poly], lam: complex, p: Poly) -> None:
    q = acc.get(lam)
    acc[lam] = p if q is None else q + p


def _product(a: dict[complex, Poly], b: dict[complex, Poly]
             ) -> dict[complex, Poly]:
    out: dict[complex, Poly] = {}
    for la, pa in a.items():
        for lb, pb in b.items():
            p = pa * pb
            if not p.is_zero:  # a zero part carries no exponent onward
                _accumulate(out, la + lb, p)
    return out


def _lower(expr: Expr) -> dict[complex, Poly]:
    """Value of expr as polynomial parts keyed by their exact exponent,
    neither merged within EXP_MERGE_TOL nor cleaned."""
    if isinstance(expr, Num):
        return {0j: Poly((expr.value,))}
    if isinstance(expr, VarX):
        return {0j: monomial(1)}
    if isinstance(expr, YTerm):
        raise UnknownOnRhs("y cannot appear in a function expression", expr.pos)
    if isinstance(expr, Call):
        a, b = _affine_arg(_canon(_lower(expr.arg)), expr)
        if expr.fn == "exp":
            return {a: Poly((_fold_const(cmath.exp, b, expr.pos),))}
        up = _fold_const(cmath.exp, 1j * b, expr.pos)
        dn = _fold_const(cmath.exp, -1j * b, expr.pos)
        if expr.fn == "sin":
            c_up, c_dn = up / 2j, -dn / 2j
        else:
            c_up, c_dn = up / 2.0, dn / 2.0
        out = {1j * a: Poly((c_up,))}
        _accumulate(out, -1j * a, Poly((c_dn,)))  # the same key when a is 0
        return out
    if isinstance(expr, Neg) or expr.op in ("+", "-"):
        out = {}
        for sign, term in _additive_terms(expr):
            for lam, p in _lower(term).items():
                _accumulate(out, lam, p if sign > 0 else -p)
        return out
    if expr.op == "*":
        return _product(_lower(expr.left), _lower(expr.right))
    if expr.op == "/":
        denom = _constant_of(_canon(_lower(expr.right)), expr, "divisor")
        if denom == 0:
            raise UnsupportedForm("division by zero", expr.pos)
        return {lam: p.scale(1.0 / denom)
                for lam, p in _lower(expr.left).items()}
    # '^'
    exponent = _constant_of(_canon(_lower(expr.right)), expr, "exponent")
    base = _canon(_lower(expr.left))
    base_const = _try_constant(base)
    if base_const is not None:
        return {0j: Poly((_cpow(base_const, exponent, expr.pos),))}
    k = exponent.real
    if exponent.imag != 0 or k != int(k) or k < 0:
        raise UnsupportedForm(
            "non-constant expressions take only nonnegative integer powers",
            expr.pos)
    k = int(k)
    if k > _MAX_POWER:
        raise UnsupportedForm("exponent too large", expr.pos)
    out, factor = {0j: Poly((1.0,))}, dict(base.terms)
    for _ in range(k):
        out = _product(out, factor)
    return out


def lower_rhs(expr: Expr) -> ExpPoly:
    """Evaluate an expression tree into the exponential-polynomial algebra.

    sin and cos are expanded through complex exponentials, so trigonometric
    forcing terms and their later realification share one representation.
    The tree is evaluated in one pass into polynomial parts keyed by their
    exact exponent, and the ExpPoly constructor (merging exponents within
    EXP_MERGE_TOL, cleaning tiny coefficients) runs once on the result, not
    after every partial sum or product.  It also runs where a canonical
    value is read: function arguments, divisors, and both sides of '^'.
    Arithmetic that leaves the double range raises UnsupportedForm.
    """
    try:
        return _canon(_lower(expr))
    except (ValueError, OverflowError) as exc:
        # coefficient validation, e.g. products of huge constants reaching
        # inf, or a magnitude (abs) that leaves the double range
        raise UnsupportedForm(f"arithmetic does not stay finite: {exc}", 0) from exc


def parse_exppoly(text: str) -> ExpPoly:
    """Parse and lower a standalone expression (no y allowed)."""
    try:
        return lower_rhs(parse_expression(text))
    except EquationError as exc:
        _fill_source(exc, text)
        raise


def parse_constant(text: str) -> complex:
    f = parse_exppoly(text)
    try:
        return _constant_of(f, Num(0j, 0), "expression")
    except EquationError as exc:
        _fill_source(exc, text)
        raise


def parse_initial_conditions(text: str) -> tuple[tuple[int, float, complex], ...]:
    """Parse condition lists like "y(0)=1, y'(0)=0" or "y^(2)(1)=-2"."""
    try:
        p = _Parser(text)
        out = []
        while True:
            name = p.expect("name", "'y'")
            if name.text != "y":
                raise ParseError("conditions must constrain y", name.pos,
                                 ("'y'",), text)
            order = p.y_suffix()
            p.expect("(", "'('")
            x_expr = p.expr()
            p.expect(")", "')'")
            p.expect("=", "'='")
            v_expr = p.expr()
            x0 = _constant_of(lower_rhs(x_expr), x_expr, "evaluation point")
            if abs(x0.imag) > 1e-12 * (1.0 + abs(x0)):
                raise UnsupportedForm("the evaluation point must be real",
                                      getattr(x_expr, "pos", 0))
            value = _constant_of(lower_rhs(v_expr), v_expr, "condition value")
            out.append((order, float(x0.real), value))
            tok = p.peek()
            if tok.kind == "end":
                return tuple(out)
            if tok.kind != ",":
                raise ParseError("expected ','", tok.pos,
                                 ("','", "end of input"), text)
            p.advance()
    except EquationError as exc:
        _fill_source(exc, text)
        raise


def build_operator(ast: EquationAst) -> tuple[LinOp, ExpPoly]:
    """Monic operator and right-hand side, both scaled by the leading
    coefficient."""
    n = ast.lhs[0][0]
    if n == 0:
        raise UnsupportedForm("the equation must involve a derivative of y", 0)
    if n > _MAX_POWER:
        raise UnsupportedForm(f"derivative order {n} is above {_MAX_POWER}", 0)
    if not all(cmath.isfinite(c) for _, c in ast.lhs):
        raise UnsupportedForm(_LHS_OVERFLOW, 0)
    lead = dict(ast.lhs)[n]
    coeffs = [0j] * n
    try:
        for d, c in ast.lhs:
            if d < n:
                coeffs[n - d - 1] = c / lead
        rhs = lower_rhs(ast.rhs).scale(1.0 / lead)
        return LinOp(tuple(coeffs)), rhs
    except (ValueError, OverflowError) as exc:
        # finiteness validation after division by the lead, or a magnitude
        # (abs) that leaves the double range
        raise UnsupportedForm(f"arithmetic does not stay finite: {exc}", 0) from exc


def compile_equation(text: str) -> tuple[LinOp, ExpPoly]:
    try:
        return build_operator(parse_equation(text))
    except EquationError as exc:
        _fill_source(exc, text)
        raise


# ----------------------------------------------------------- rendering

def _fmt_real(v: float) -> str:
    if v == 0.0:
        return "0"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _imag_body(mag: float) -> str:
    return "i" if mag == 1.0 else _fmt_real(mag) + "i"


def _coeff_body(c: complex) -> tuple[bool, str]:
    """(negative, body); the body never starts with '-'."""
    re, im = c.real, c.imag
    if im == 0.0:
        return re < 0, _fmt_real(abs(re))
    if re == 0.0:
        return im < 0, _imag_body(abs(im))
    sign = "+" if im > 0 else "-"
    return False, f"({_fmt_real(re)}{sign}{_imag_body(abs(im))})"


def _monomial_body(c: complex, k: int, var: str) -> tuple[bool, str]:
    neg, cb = _coeff_body(c)
    if k == 0:
        return neg, cb
    xb = var if k == 1 else f"{var}^{k}"
    if cb == "1":
        return neg, xb
    return neg, f"{cb}*{xb}"


def _join_signed(pieces) -> str:
    pieces = list(pieces)
    if not pieces:
        return "0"
    neg, body = pieces[0]
    out = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def render_poly(p: Poly, var: str = "x") -> str:
    """Plain polynomial text, ascending powers."""
    return _join_signed(
        _monomial_body(c, k, var) for k, c in enumerate(p.coeffs) if c != 0)


def format_constant(z: complex) -> str:
    """One complex number in the same notation the parser accepts."""
    neg, body = _coeff_body(z)
    return ("-" if neg else "") + body


def _exp_factor(lam: complex) -> str:
    if lam == 1:
        return "exp(x)"
    if lam == -1:
        return "exp(-x)"
    if lam.imag == 0.0:
        return f"exp({_fmt_real(lam.real)}*x)"
    if lam.real == 0.0:
        sign = "-" if lam.imag < 0 else ""
        return f"exp({sign}{_imag_body(abs(lam.imag))}*x)"
    _, body = _coeff_body(lam)
    return f"exp({body}*x)"


def _factored_pieces(p: Poly, suffix: str) -> list[tuple[bool, str]]:
    mono = [(k, c) for k, c in enumerate(p.coeffs) if c != 0]
    if not mono:
        return []
    if len(mono) == 1:
        k, c = mono[0]
        neg, cb = _coeff_body(c)
        if k == 0:
            return [(neg, suffix if cb == "1" else f"{cb}*{suffix}")]
        xb = "x" if k == 1 else f"x^{k}"
        head = xb if cb == "1" else f"{cb}*{xb}"
        return [(neg, f"{head}*{suffix}")]
    return [(False, f"({render_poly(p)})*{suffix}")]


def _term_pieces(lam: complex, p: Poly) -> list[tuple[bool, str]]:
    if lam == 0:
        return [_monomial_body(c, k, "x") for k, c in enumerate(p.coeffs) if c != 0]
    return _factored_pieces(p, _exp_factor(lam))


def _render_trig(t: TrigForm) -> str:
    pieces: list[tuple[bool, str]] = []
    for alpha, beta, cp, sp in t.entries:
        ef = None if alpha == 0.0 else _exp_factor(complex(alpha, 0.0))
        if beta == 0.0:
            if ef is None:
                pieces.extend(_monomial_body(c, k, "x")
                              for k, c in enumerate(cp.coeffs) if c != 0)
            else:
                pieces.extend(_factored_pieces(cp, ef))
            continue
        barg = "x" if beta == 1.0 else f"{_fmt_real(beta)}*x"
        for poly, fn in ((cp, "cos"), (sp, "sin")):
            if poly.is_zero:
                continue
            trig = f"{fn}({barg})"
            pieces.extend(_factored_pieces(poly, trig if ef is None
                                           else f"{trig}*{ef}"))
    return _join_signed(pieces)


def render(f: ExpPoly, realify: bool = False) -> str:
    """Deterministic text form that the parser reads back to the same value.

    With realify=True the function must be conjugate-closed and is printed
    over cos/sin with real coefficients instead of complex exponentials.
    """
    if realify:
        return _render_trig(_to_trig(f))
    pieces: list[tuple[bool, str]] = []
    for lam, p in f.terms:
        pieces.extend(_term_pieces(lam, p))
    return _join_signed(pieces)
