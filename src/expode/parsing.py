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
import functools
import math
import re

from .cpoly import Poly, Record, _add, _checked, _mul, _neg
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

_FOLD = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}
_NAMES = ("'x'", "'y'", "'i'", "'exp'", "'sin'", "'cos'")
_MAX_POWER = 100  # largest derivative order and '^' exponent accepted
# coefficients a product in the forcing may hold over all its exponents
# (degree 1200 for one exponent), which bounds the work of '^' and '*'
_MAX_COEFFS = 1201
# Parentheses, unary signs and '^' nest at most this deep, well within the
# interpreter's recursion limit; '+', '-', '*' and '/' chains are walked in
# loops, at any length.
_MAX_NESTING = 100
# Whitespace (\s is str.isspace), then a number, a name or operator, or any
# other character, which is an error.  Digits and letters are ASCII only:
# str.isdigit() and isalpha() accept characters float() rejects, e.g. the
# superscript two.  An 'i' right after a number makes it imaginary unless a
# name, a digit, '.' or '_' follows.  Matches are contiguous from 0.
_TOKEN = re.compile(r"""(\s*)(?:
    ((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?:i(?![A-Za-z0-9._]))?)
  | ([A-Za-z]+|[-+*/^()=,'])
  | (\S))""", re.VERBOSE)
_KINDS = {c: c for c in "+-*/^()=,"} | {"'": "prime"}


def _tokenize(text: str) -> list[tuple[str, str, int, complex]]:
    """(kind, text, pos, value) tuples, the last of kind 'end'.  A kind is
    'num', 'name', 'prime' or one of '+-*/^()=,'; value is 0j but for 'num'."""
    toks = []
    pos = 0
    for space, num, word, bad in _TOKEN.findall(text):
        pos += len(space)
        if num:
            imag = num[-1] == "i"
            val = float(num[:-1] if imag else num)
            if not math.isfinite(val):
                raise ParseError("number literal out of range", pos, ("number",))
            toks.append(("num", num, pos,
                         complex(0.0, val) if imag else complex(val, 0.0)))
            pos += len(num)
        elif word:
            toks.append((_KINDS.get(word, "name"), word, pos, 0j))
            pos += len(word)
        else:
            raise ParseError(f"unexpected character {bad!r}", pos,
                             ("number", "name", "operator"))
    toks.append(("end", "", len(text), 0j))
    return toks


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0  # the next token; never moves past the 'end' token
        self.depth = 0  # nesting levels open

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.toks[self.k]
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2], (what,))
        self.k += 1
        return tok

    def end(self) -> None:
        tok = self.toks[self.k]
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[2], ("end of input",))

    def nest(self, pos: int) -> None:
        if self.depth == _MAX_NESTING:
            raise ParseError("expression nests too deeply", pos)
        self.depth += 1

    def expr(self) -> Expr:
        node = self.term()
        tok = self.toks[self.k]
        while tok[0] == "+" or tok[0] == "-":
            self.k += 1
            node = Bin(tok[0], node, self.term(), tok[2])
            tok = self.toks[self.k]
        if tok[0] in ("num", "name", "("):
            raise ParseError("missing '*' (implicit multiplication is not allowed)",
                             tok[2], ("'*'", "'+'", "'-'"))
        if tok[0] == "prime":
            raise ParseError("' may only follow y", tok[2], ("'*'",))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            tok = self.toks[self.k]
            if tok[0] == "*" or tok[0] == "/":
                self.k += 1
                node = Bin(tok[0], node, self.factor(), tok[2])
            elif tok[0] == "name" and self.toks[self.k - 1][0] == "num":
                # coefficient juxtaposition: 2x, 2y', 3exp(x); multiplies
                # at '*' precedence, so 2x^2 reads 2*(x^2)
                node = Bin("*", node, self.power(), tok[2])
            else:
                return node

    def factor(self) -> Expr:
        kind, _, pos, _ = self.toks[self.k]
        if kind != "+" and kind != "-":
            return self.power()
        self.k += 1
        self.nest(pos)
        node = self.factor()
        self.depth -= 1
        return node if kind == "+" else Neg(node, pos)

    def power(self) -> Expr:
        base = self.atom()
        kind, _, pos, _ = self.toks[self.k]
        if kind != "^":
            return base
        self.k += 1
        self.nest(pos)
        node = Bin("^", base, self.factor(), pos)
        self.depth -= 1
        return node

    def group(self, pos: int) -> Expr:
        """The expression after the '(' at pos, and its ')'."""
        self.nest(pos)
        node = self.expr()
        self.expect(")", "')'")
        self.depth -= 1
        return node

    def atom(self) -> Expr:
        kind, name, pos, value = self.toks[self.k]
        if kind == "num":
            self.k += 1
            return Num(value, pos)
        if kind == "(":
            self.k += 1
            return self.group(pos)
        if kind == "name":
            self.k += 1
            if name == "y":
                return YTerm(self.y_suffix(), pos)
            if name == "x":
                return VarX(pos)
            if name == "i":
                return Num(1j, pos)
            if name in _FOLD:
                return Call(name, self.group(self.expect("(", "'('")[2]), pos)
            raise ParseError(f"unknown name {name!r}", pos, _NAMES)
        raise ParseError("expected a value", pos, ("number", *_NAMES, "'('"))

    def y_suffix(self) -> int:
        """Derivative order right after a 'y': primes or '^(k)'."""
        toks, start = self.toks, self.k
        k = start
        while toks[k][0] == "prime":
            k += 1
        if k > start:
            self.k = k
            return k - start
        # a kind other than 'end' is never the last token
        if (toks[k][0] == "^" and toks[k + 1][0] == "("
                and toks[k + 2][0] == "num" and toks[k + 3][0] == ")"):
            _, _, pos, v = toks[k + 2]
            if v.imag != 0 or v.real != int(v.real) or v.real < 0:
                raise ParseError("derivative order must be a nonnegative integer",
                                 pos, ("integer",))
            self.k = k + 4
            return int(v.real)
        return 0


def _sourced(entry):
    """Entry point whose EquationErrors carry its input text as their
    source, unless a nested entry point has set one (nothing else does)."""
    @functools.wraps(entry)
    def wrapper(text):
        try:
            return entry(text)
        except EquationError as exc:
            if exc.source is None:
                exc.source = text
            raise
    return wrapper


@_sourced
def parse_equation(text: str) -> EquationAst:
    """Parse 'lhs = rhs' and check the structural rules on both sides.

    Linear y terms may sit on either side; ones on the right are moved
    over, so y' = y and y' - y = 0 produce the same equation.  What
    remains on the right is the forcing expression.
    """
    p = _Parser(text)
    lhs_expr = p.expr()
    p.expect("=", "'='")
    start = p.k
    rhs_expr = p.expr()
    rhs_has_y = any(tok[1] == "y" for tok in p.toks[start:p.k])
    p.end()
    const, lin = _lin_value(lhs_expr)
    if not cmath.isfinite(const):  # e.g. 0*inf from 1e308*10*y
        raise UnsupportedForm(_LHS_OVERFLOW, lhs_expr.pos)
    if const != 0:
        raise UnsupportedForm("every left-hand side term must contain y",
                              lhs_expr.pos)
    rhs_clean = _split_rhs(rhs_expr, lin, rhs_has_y)
    terms = sorted(((d, c) for d, c in lin.items() if c != 0), reverse=True)
    if not terms:
        raise UnsupportedForm("the equation contains no y term", lhs_expr.pos)
    return EquationAst(tuple(terms), rhs_clean, text)


@_sourced
def parse_expression(text: str) -> Expr:
    p = _Parser(text)
    node = p.expr()
    p.end()
    return node


# ------------------------------------------------- lhs linear extraction

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
    # the left spine of an operator chain is walked in a loop, so only right
    # operands recurse; each operator still reads its left operand first
    spine = []
    while isinstance(e, Bin):
        spine.append(e)
        e = e.left
    if isinstance(e, Num):
        value = e.value, {}
    elif isinstance(e, VarX):
        raise UnsupportedForm(
            "x may only appear in the forcing part of the equation", e.pos)
    elif isinstance(e, YTerm):
        value = 0j, {e.order: 1.0 + 0j}
    elif isinstance(e, Neg):
        c, lin = _lin_value(e.operand)
        value = -c, {d: -v for d, v in lin.items()}
    else:
        c, lin = _lin_value(e.arg)
        if lin:
            raise NonlinearTerm(f"y inside {e.fn}() is not linear", e.pos)
        value = _fold_const(_FOLD[e.fn], c, e.pos), {}
    for b in reversed(spine):
        value = _lin_bin(b, *value, *_lin_value(b.right))
    return value


def _lin_bin(e: Bin, a_c: complex, a_l: dict[int, complex], b_c: complex,
             b_l: dict[int, complex]) -> tuple[complex, dict[int, complex]]:
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
    # the preorder marks every record below expr by its class
    return isinstance(expr, YTerm) or YTerm in expr._preorder()


def _additive_terms(expr: Expr) -> list[tuple[int, Expr]]:
    """The signed terms of a chain of '+', '-' and unary '-', left to right."""
    out, stack = [], [(1, expr)]
    while stack:
        sign, node = stack.pop()
        if isinstance(node, Bin) and node.op in ("+", "-"):
            stack.append((sign if node.op == "+" else -sign, node.right))
            stack.append((sign, node.left))
        elif isinstance(node, Neg):
            stack.append((-sign, node.operand))
        else:
            out.append((sign, node))
    return out


def _split_rhs(rhs_expr: Expr, lin: dict[int, complex], has_y: bool) -> Expr:
    """Move linear y terms from the right onto the accumulated left side
    and return what remains of the right side as the forcing expression.
    has_y is False when no 'y' token lies right of the '=', so no term
    needs to be searched for one."""
    forcing: Expr | None = None

    def push(node: Expr, sign: int) -> None:
        nonlocal forcing
        if forcing is None:
            forcing = node if sign > 0 else Neg(node, node.pos)
        else:
            forcing = Bin("+" if sign > 0 else "-", forcing, node, node.pos)

    for sign, term in _additive_terms(rhs_expr):
        if has_y and _contains_y(term):
            const, part = _lin_value(term)
            for d, v in part.items():
                lin[d] = lin.get(d, 0j) - sign * v
            if const != 0:
                push(Num(complex(const), term.pos), sign)
        else:
            push(term, sign)
    if forcing is None:
        return Num(0j, rhs_expr.pos)
    return forcing


# ---------------------------------------------------------- lowering

def _affine(terms) -> tuple[complex, complex] | None:
    """(a, b) when canonical terms are the value a*x + b (a is 0 for a
    constant), else None."""
    if not terms:
        return 0j, 0j
    lam, p = terms[0]
    if len(terms) == 1 and abs(lam) <= EXP_MERGE_TOL and p.degree <= 1:
        return (p.coeffs[1] if p.degree == 1 else 0j), p.coeffs[0]
    return None


def _constant_of(expr: Expr, node: Expr, what: str) -> complex:
    if isinstance(expr, Num):
        # what the number lowers to, read in place: _checked checks it
        # finite, abs() overflows as in the cleaning, 0 reads 0j
        cs = _checked((complex(expr.value),))
        return cs[0] if cs and abs(cs[0]) else 0j
    ab = _affine(lower_rhs(expr).terms)
    if ab is None or ab[0] != 0:
        raise UnsupportedForm(f"the {what} must be a constant", node.pos)
    return ab[1]


def _accumulate(acc: dict[complex, tuple], lam: complex, cs: tuple) -> None:
    q = acc.get(lam)
    acc[lam] = cs if q is None else _checked(_add(q, cs))


def _product(a: dict[complex, tuple], b: dict[complex, tuple], pos: int
             ) -> dict[complex, tuple]:
    out: dict[complex, tuple] = {}
    for la, pa in a.items():
        for lb, pb in b.items():
            cs = _checked(_mul(pa, pb))
            if cs:  # a zero part carries no exponent onward
                _accumulate(out, la + lb, cs)
    if sum(map(len, out.values())) > _MAX_COEFFS:
        raise UnsupportedForm(f"a product in the forcing holds more than "
                              f"{_MAX_COEFFS} coefficients", pos)
    return out


def _lower(expr: Expr) -> dict[complex, tuple]:
    """Value of expr as coefficient tuples keyed by their exact exponent,
    neither merged within EXP_MERGE_TOL nor cleaned.  Every tuple has passed
    _checked: its coefficients are finite and its trailing zeros stripped."""
    if isinstance(expr, Num):
        return {0j: _checked((complex(expr.value),))}
    if isinstance(expr, VarX):
        return {0j: (0j, 1 + 0j)}
    if isinstance(expr, YTerm):
        raise UnknownOnRhs("y cannot appear in a function expression", expr.pos)
    if isinstance(expr, Call):
        ab = _affine(lower_rhs(expr.arg).terms)
        if ab is None:
            raise UnsupportedForm(f"{expr.fn}() argument must be linear in x",
                                  expr.pos)
        a, b = ab
        if expr.fn == "exp":
            return {a: _checked((_fold_const(cmath.exp, b, expr.pos),))}
        up = _fold_const(cmath.exp, 1j * b, expr.pos)
        dn = _fold_const(cmath.exp, -1j * b, expr.pos)
        if expr.fn == "sin":
            c_up, c_dn = up / 2j, -dn / 2j
        else:
            c_up, c_dn = up / 2.0, dn / 2.0
        out = {1j * a: _checked((c_up,))}
        # the same key when a is 0
        _accumulate(out, -1j * a, _checked((c_dn,)))
        return out
    if isinstance(expr, Neg) or expr.op in ("+", "-"):
        out = {}
        for sign, term in _additive_terms(expr):
            for lam, cs in _lower(term).items():
                _accumulate(out, lam, cs if sign > 0 else _checked(_neg(cs)))
        return out
    if expr.op != "^":
        # a product's left spine is walked in a loop: a divisor is read on
        # the way down, before its dividend, a factor on the way back up
        steps = []
        while isinstance(expr, Bin) and expr.op in ("*", "/"):
            if expr.op == "*":
                steps.append(expr)
            else:
                denom = _constant_of(expr.right, expr, "divisor")
                if denom == 0:
                    raise UnsupportedForm("division by zero", expr.pos)
                steps.append(denom)
            expr = expr.left
        out = _lower(expr)
        for step in reversed(steps):
            if isinstance(step, complex):
                # divided as the left side divides, so a constant text gives
                # the same double on both sides
                out = {lam: _checked(tuple(c / step for c in cs))
                       for lam, cs in out.items()}
            else:
                out = _product(out, _lower(step.right), step.pos)
        return out
    exponent = _constant_of(expr.right, expr, "exponent")
    base = None
    if not isinstance(expr.left, VarX):
        base = lower_rhs(expr.left).terms
        ab = _affine(base)
        if ab is not None and ab[0] == 0:
            return {0j: _checked((_cpow(ab[1], exponent, expr.pos),))}
    k = exponent.real
    if exponent.imag != 0 or k != int(k) or k < 0:
        raise UnsupportedForm(
            "non-constant expressions take only nonnegative integer powers",
            expr.pos)
    k = int(k)
    if k > _MAX_POWER:
        raise UnsupportedForm("exponent too large", expr.pos)
    if base is None:
        # x^k: every product below would add only +0j terms to one 1+0j
        return {0j: (0j,) * k + (1 + 0j,)}
    out, factor = {0j: (1 + 0j,)}, {lam: p.coeffs for lam, p in base}
    for _ in range(k):
        out = _product(out, factor, expr.pos)
    return out


def lower_rhs(expr: Expr) -> ExpPoly:
    """Evaluate an expression tree into the exponential-polynomial algebra.

    sin and cos are expanded through complex exponentials, so trigonometric
    forcing terms and their later realification share one representation.
    The tree is evaluated in one pass into coefficient tuples keyed by their
    exact exponent, each checked as Poly's arithmetic checks it, and the
    ExpPoly constructor (merging exponents within EXP_MERGE_TOL, cleaning tiny
    coefficients) runs once on the result, not after every partial sum or
    product.  It also runs where a canonical value is read: function arguments,
    divisors and both sides of '^'; a number literal in a divisor, an exponent,
    --ivp or --roots is read in place, with the same bits.  Arithmetic that
    leaves the double range raises UnsupportedForm, and so does a product that
    holds more than _MAX_COEFFS coefficients, at that product's operator.
    """
    try:
        return ExpPoly(tuple((lam, Poly._trusted(cs))
                             for lam, cs in _lower(expr).items()))
    except (ValueError, OverflowError) as exc:
        # coefficient validation, e.g. products of huge constants reaching
        # inf, or a magnitude (abs) that leaves the double range
        raise UnsupportedForm(f"arithmetic does not stay finite: {exc}", 0) from exc


@_sourced
def parse_exppoly(text: str) -> ExpPoly:
    """Parse and lower a standalone expression (no y allowed)."""
    return lower_rhs(parse_expression(text))


@_sourced
def parse_constant(text: str) -> complex:
    return _constant_of(parse_expression(text), Num(0j, 0), "expression")


@_sourced
def parse_initial_conditions(text: str) -> tuple[tuple[int, float, complex], ...]:
    """Parse condition lists like "y(0)=1, y'(0)=0" or "y^(2)(1)=-2"."""
    p = _Parser(text)
    out = []
    while True:
        _, name, pos, _ = p.expect("name", "'y'")
        if name != "y":
            raise ParseError("conditions must constrain y", pos, ("'y'",))
        order = p.y_suffix()
        p.expect("(", "'('")
        x_expr = p.expr()
        p.expect(")", "')'")
        p.expect("=", "'='")
        v_expr = p.expr()
        x0 = _constant_of(x_expr, x_expr, "evaluation point")
        if abs(x0.imag) > 1e-12 * (1.0 + abs(x0)):
            raise UnsupportedForm("the evaluation point must be real",
                                  x_expr.pos)
        value = _constant_of(v_expr, v_expr, "condition value")
        out.append((order, float(x0.real), value))
        kind, _, pos, _ = p.toks[p.k]
        if kind == "end":
            return tuple(out)
        if kind != ",":
            raise ParseError("expected ','", pos, ("','", "end of input"))
        p.k += 1


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


@_sourced
def compile_equation(text: str) -> tuple[LinOp, ExpPoly]:
    return build_operator(parse_equation(text))


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


def _poly_pieces(p: Poly, var: str) -> list[tuple[bool, str]]:
    """The signed monomials of p, ascending powers."""
    return [_monomial_body(c, k, var) for k, c in enumerate(p.coeffs) if c != 0]


def render_poly(p: Poly, var: str = "x") -> str:
    """Plain polynomial text, ascending powers."""
    return _join_signed(_poly_pieces(p, var))


def format_constant(z: complex) -> str:
    """One complex number in the same notation the parser accepts."""
    return _join_signed([_coeff_body(z)])


def _exp_factor(lam: complex) -> str:
    return f"exp({_join_signed([_monomial_body(lam, 1, 'x')])})"


def _factored_pieces(p: Poly, suffix: str) -> list[tuple[bool, str]]:
    mono = _poly_pieces(p, "x")
    if len(mono) == 1:
        neg, head = mono[0]
        return [(neg, suffix if head == "1" else f"{head}*{suffix}")]
    return [(False, f"({_join_signed(mono)})*{suffix}")] if mono else []


def _term_pieces(lam: complex, p: Poly) -> list[tuple[bool, str]]:
    if lam == 0:
        return _poly_pieces(p, "x")
    return _factored_pieces(p, _exp_factor(lam))


def _render_trig(t: TrigForm) -> str:
    pieces: list[tuple[bool, str]] = []
    for alpha, beta, cp, sp in t.entries:
        if beta == 0.0:
            pieces.extend(_term_pieces(complex(alpha, 0.0), cp))
            continue
        ef = None if alpha == 0.0 else _exp_factor(complex(alpha, 0.0))
        barg = _monomial_body(beta, 1, "x")[1]  # beta > 0
        for poly, fn in ((cp, "cos"), (sp, "sin")):
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
