"""Seeded workloads: each operation's input text plus its exact description.

The program sees only the text (equation, flags, candidate).  The exact
description (operator coefficients, forcing, roots, conditions, the
candidate's value and the verdict known from construction) is what the
answer checks in `exact` compare against.  Every number written into an
equation is a double, so the text denotes exactly the generator's values.

Workloads:
  corpus        ~30 equations from the README, the CLI goldens, the
                acceptance tests and the demo script, padded with seeded
                look-alikes to 400 operations, about 15% of them `verify`.
  high_order    120 seeded operators of order 8-20.
  rich_forcing  120 seeded operators of order 2-6 with 4-16 forcing terms.
Each also carries a few fixed known-failing operations (`_known`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from exact import (COS, EP, EXP, SIN, G, I, X, apply, poly_from_roots,
                   unit_roots)

CORPUS_OPS = 400
CORPUS_VERIFY = 60
HIGH_ORDER_OPS = 120
RICH_FORCING_OPS = 120


@dataclass(frozen=True)
class Op:
    name: str
    kind: str                 # "solve" or "verify"
    equation: str
    lhs: tuple                # exact a_0..a_n; a_k multiplies y^(k)
    rhs: EP
    roots: tuple = ()         # (root, multiplicity); G when exact
    real: bool = False        # --real
    ivp: tuple = ()           # ((d, v), ...): y^(d)(0) = v
    candidate: str = ""       # verify: candidate text
    cand: EP | None = None    # verify: its exact value
    expect: str = "verified"  # verdict known from construction
    known: str = ""           # known fault that makes this op fail today

    @property
    def ivp_text(self) -> str | None:
        if not self.ivp:
            return None
        return ", ".join(f"{_y(d)}(0)={num(v)}" for d, v in self.ivp)

    def argv(self) -> list[str]:
        """The same operation as `expode` command-line arguments."""
        if self.kind == "verify":
            return ["verify", self.equation, self.candidate]
        out = ["solve", self.equation]
        if self.real:
            out.append("--real")
        if self.ivp:
            out += ["--ivp", self.ivp_text]
        return out


# ------------------------------------------------------------ text forms

def _real_text(q: Fraction) -> str:
    f = float(q)
    if Fraction(f) != q:
        raise ValueError(f"{q} is not exactly a double")
    if f == int(f) and abs(f) < 2.0 ** 53:
        return str(int(f))
    return repr(f)


def _signed(z: G) -> tuple[bool, str]:
    """(negative, body) with a body that never starts with '-'."""
    if not z.im:
        return z.re < 0, _real_text(abs(z.re))
    if not z.re:
        return z.im < 0, _real_text(abs(z.im)) + "i"
    sign = "+" if z.im > 0 else "-"
    return False, f"({_real_text(z.re)}{sign}{_real_text(abs(z.im))}i)"


def num(z) -> str:
    neg, body = _signed(G.of(z))
    return ("-" if neg else "") + body


def _join(pieces) -> str:
    out = ""
    for neg, body in pieces:
        if not out:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out or "0"


def _times(c: G, body: str) -> tuple[bool, str]:
    neg, cb = _signed(c)
    if not body:
        return neg, cb
    return neg, body if cb == "1" else f"{cb}*{body}"


def _mono(k: int) -> str:
    return "" if k == 0 else "x" if k == 1 else f"x^{k}"


def _y(d: int) -> str:
    return "y" + "'" * d if d <= 2 else f"y^({d})"


def _exp(lam: G) -> str:
    if not lam.im:
        return f"exp({num(lam)}*x)"
    if not lam.re:
        return f"exp({num(lam)}*x)"
    return f"exp({_signed(lam)[1]}*x)"


def ep_pieces(f: EP) -> list[tuple[bool, str]]:
    pieces = []
    for lam in sorted(f.terms, key=lambda z: (z.re, z.im)):
        mono = [(k, c) for k, c in enumerate(f.terms[lam]) if c]
        if not lam:
            pieces += [_times(c, _mono(k)) for k, c in mono]
        elif len(mono) == 1:
            k, c = mono[0]
            pieces.append(_times(c, "*".join(filter(None, (_mono(k), _exp(lam))))))
        else:
            poly = _join(_times(c, _mono(k)) for k, c in mono)
            pieces.append((False, f"({poly})*{_exp(lam)}"))
    return pieces


def ep_text(f: EP) -> str:
    return _join(ep_pieces(f))


def lhs_text(a) -> str:
    return _join(_times(G.of(c), _y(d)) for d, c in reversed(list(enumerate(a)))
                 if c)


def equation(a, f: EP, rhs_text: str | None = None) -> str:
    return f"{lhs_text(a)} = {ep_text(f) if rhs_text is None else rhs_text}"


# ------------------------------------------------------------- sampling

def lattice(step: Fraction, radius: float) -> list[G]:
    n = int(radius / step)
    return [G(a * step, b * step) for a in range(-n, n + 1)
            for b in range(-n, n + 1)
            if abs(complex(a * step, b * step)) <= radius]


def pick_roots(rng, n: int, pts, max_mult: int, real: bool,
               sep: float = 0.0):
    """Distinct lattice roots with multiplicities summing to n; a real
    system takes conjugate pairs with equal multiplicity.  A multiple root
    keeps at least `sep` from every other root."""
    while True:
        roots, left = [], n
        while left > 0:
            mult = rng.randint(1, min(max_mult, left))
            fits = [p for p in pts if _fits(p, mult, left, roots, real, sep)]
            while not fits and mult > 1:
                mult -= 1
                fits = [p for p in pts if _fits(p, mult, left, roots, real, sep)]
            if not fits:
                break  # boxed in: draw again
            r = rng.choice(fits)
            roots.append((r, mult))
            if real and r.im:
                roots.append((r.conj(), mult))
            left -= mult * (2 if real and r.im else 1)
        if left == 0:
            return roots


def _fits(p, mult, n, roots, real, sep) -> bool:
    pair = real and p.im
    if real and p.im < 0 or mult * (2 if pair else 1) > n:
        return False
    if pair and mult > 1 and 2 * p.im < sep:
        return False
    for r, m in roots:
        d = abs(complex(p) - complex(r))
        if d == 0 or max(m, mult) > 1 and d < sep:
            return False
    return True


def far_points(pts, roots, dist: float, real: bool = False) -> list[G]:
    return [p for p in pts if (not real or p.im >= 0)
            and all(abs(complex(p) - complex(r)) >= dist for r, _ in roots)]


def small(rng, lo: int = -3, hi: int = 3, gaussian: bool = False) -> G:
    while True:
        z = G(rng.randint(lo, hi), rng.randint(lo, hi) if gaussian else 0)
        if z:
            return z


def random_poly(rng, degree: int, gaussian: bool) -> tuple[G, ...]:
    cs = [small(rng, gaussian=gaussian) if rng.random() < 0.7 else G(0)
          for _ in range(degree)]
    return tuple(cs) + (small(rng, gaussian=gaussian),)


def random_conditions(rng, n: int) -> tuple:
    return tuple((d, G(rng.randint(-3, 3))) for d in range(n))


def solve_op(name, a, f, roots, rhs_text=None, **kw) -> Op:
    return Op(name, "solve", equation(a, f, rhs_text), tuple(a), f,
              tuple(roots), **kw)


def verify_op(name, a, f, cand, expect, eq=None, cand_text=None, **kw) -> Op:
    return Op(name, "verify", eq or equation(a, f), tuple(a), f,
              candidate=cand_text or ep_text(cand), cand=cand, expect=expect,
              **kw)


# --------------------------------------------------------------- corpus

def _rt(*pairs):
    return tuple((G.of(r), m) for r, m in pairs)


def _corpus_copied() -> list[Op]:
    """Equations as the README, CLI goldens, acceptance tests and
    scripts/solve_examples.py write them, with their exact meaning."""
    s2 = 2.0 ** -0.5
    ops = []

    def solve(text, a, f, roots, **kw):
        ops.append(Op(f"corpus/copied-{len(ops):02d}", "solve", text, tuple(
            G.of(c) for c in a), EP.of(f), tuple(roots), **kw))

    def verify(text, a, f, cand_text, cand, expect, **kw):
        ops.append(Op(f"corpus/copied-{len(ops):02d}", "verify", text, tuple(
            G.of(c) for c in a), EP.of(f), candidate=cand_text,
            cand=EP.of(cand), expect=expect, **kw))

    pm_i = _rt((I, 1), (-I, 1))
    pm_2i = _rt((2 * I, 1), (-2 * I, 1))
    solve("y'' + 2y' + y = x*exp(-x)", (1, 2, 1), X * EXP(-1), _rt((-1, 2)))
    solve("y'' - 2y' + y = 0", (1, -2, 1), 0, _rt((1, 2)))
    solve("y' - y = exp(x)", (-1, 1), EXP(1), _rt((1, 1)))
    solve("y'' + y = 0", (1, 0, 1), 0, pm_i, real=True,
          ivp=((0, G(0)), (1, G(1))))
    solve("y'' + 4y = x", (4, 0, 1), X, pm_2i)
    solve("y'' + 4y = x", (4, 0, 1), X, pm_2i, real=True)
    solve("y'' + 4y = x", (4, 0, 1), X, pm_2i, ivp=((0, G(1)), (1, G(0))))
    solve("y'' + 4y = x", (4, 0, 1), X, pm_2i, real=True,
          ivp=((0, G(1)), (1, G(0))))
    solve("y' = y", (-1, 1), 0, _rt((1, 1)))
    solve("y' - y = 0", (-1, 1), 0, _rt((1, 1)))
    solve("y'' - y = 0", (-1, 0, 1), 0, _rt((1, 1), (-1, 1)))
    solve("y' = 0", (0, 1), 0, _rt((0, 1)))
    solve("y^(3) - 2i*y = sin(2x) + cos(x)/2", (-2 * I, 0, 0, 1),
          SIN(2) + COS(1) / 2, unit_roots(3, 2j))
    solve("2y'' - y = (1+x)^3 * exp((1-2i)*x)", (-1, 0, 2),
          (1 + X) ** 3 * EXP(G(1, -2)), ((s2, 1), (-s2, 1)))
    solve("y''' - y'' + y' - y = 0", (-1, 1, -1, 1), 0,
          _rt((1, 1), (I, 1), (-I, 1)), real=True)
    solve("y'' - 2y' + 2y = exp(x)*sin(x)", (2, -2, 1), EXP(1) * SIN(1),
          _rt((G(1, 1), 1), (G(1, -1), 1)), real=True)
    solve("y'' + y = 0", (1, 0, 1), 0, pm_i, real=True,
          ivp=((0, G(1)), (1, G(0))))
    solve("y'' + y = sin(x)", (1, 0, 1), SIN(1), pm_i, real=True)
    solve("y''' - 3y'' + 3y' - y = exp(x)", (-1, 3, -3, 1), EXP(1),
          _rt((1, 3)))
    solve("y'''' + 2y'' + y = cos(x)", (1, 0, 2, 0, 1), COS(1),
          _rt((I, 2), (-I, 2)), real=True)
    solve("y'' - 3y' + 2y = x^2 + exp(3*x)", (2, -3, 1), X ** 2 + EXP(3),
          _rt((1, 1), (2, 1)), real=True)
    solve("y'' + y' = 1 + x", (0, 1, 1), 1 + X, _rt((0, 1), (-1, 1)),
          real=True)
    solve("y'' + 2y' + 5y = exp(-x)*cos(2*x)", (5, 2, 1),
          EXP(-1) * COS(2), _rt((G(-1, 2), 1), (G(-1, -2), 1)), real=True,
          ivp=((0, G(1)), (1, G(-1))))
    solve("y'' + 4y = sin(2*x) + x*cos(x)", (4, 0, 1),
          SIN(2) + X * COS(1), pm_2i, real=True, ivp=((0, G(0)), (1, G(2))))
    solve("y'''' - y = exp(2*x)*x", (-1, 0, 0, 0, 1), EXP(2) * X,
          _rt((1, 1), (-1, 1), (I, 1), (-I, 1)))
    verify("y'' + y = exp(x)", (1, 0, 1), EXP(1), "exp(x)/2", EXP(1) / 2,
           "verified")
    verify("y''+y=exp(x)", (1, 0, 1), EXP(1), "exp(x)/2", EXP(1) / 2,
           "verified")
    verify("y' = y", (-1, 1), 0, "exp(2x)", EXP(2), "unverified")
    verify("y' - y = 0", (-1, 1), 0, "exp(2x)", EXP(2), "unverified")
    verify("y'=y", (-1, 1), 0, "exp(x)", EXP(1), "verified")
    verify("y' - y = 0", (-1, 1), 0, "exp(x)", EXP(1), "verified")
    verify("y'' + 4y = x", (4, 0, 1), X, "0.25*x + cos(2*x)", X / 4 + COS(2),
           "verified")
    return ops


def _corpus_solve(rng, k) -> Op:
    n = 1 + k % 4
    real = k % 5 < 3
    pts = lattice(Fraction(1, 2), 2.0)
    roots = pick_roots(rng, n, pts, 3, real)
    a = poly_from_roots(roots)
    far = far_points(lattice(Fraction(1, 2), 3.0), roots, 1.0, real)
    f, pieces = EP(), []
    for t in range(k // 4 % 4):
        j = (k + t) % 4
        lam = (rng.choice(roots)[0] if (k + 3 * t) % 10 < 3
               else rng.choice(far))
        c = small(rng, gaussian=not real)
        if not real:
            term = c * X ** j * EXP(lam)
            pieces += ep_pieces(term)
        else:
            lam = G(lam.re, abs(lam.im))
            body = [_mono(j)]
            term = c * X ** j
            if lam.re:
                body.append(f"exp({num(lam.re)}*x)")
                term = term * EXP(lam.re)
            if lam.im:
                trig = ("sin", "cos")[(k + t) % 2]
                body.append(f"{trig}({num(lam.im)}*x)")
                term = term * (SIN if trig == "sin" else COS)(lam.im)
            pieces.append(_times(c, "*".join(filter(None, body))))
        f = f + term
    ivp = random_conditions(rng, n) if k % 10 < 3 else ()
    return solve_op(f"corpus/solve-{k:03d}", a, f, roots, _join(pieces),
                    real=real and k % 2 == 0, ivp=ivp)


def _corpus_verify(rng, k) -> Op:
    name = f"corpus/verify-{k:03d}"
    n = 1 + k % 3
    pts = lattice(Fraction(1, 2), 2.0)
    roots = pick_roots(rng, n, pts, 2, k % 4 < 2)
    a = poly_from_roots(roots)
    y = EP()
    for _ in range(1 + k % 2):
        y = y + small(rng, gaussian=True) * X ** ((k + len(y.terms)) % 3) \
            * EXP(rng.choice(pts))
    f = apply(a, y)
    if k % 4 in (0, 3):
        return verify_op(name, a, f, y, "verified")
    wrong = small(rng) * X ** (k // 4 % 2) \
        * EXP(rng.choice(far_points(pts, roots, 0.5)))
    return verify_op(name, a, f, y + wrong, "unverified")


# ------------------------------------------------------------ high_order

def _high_order(rng, k) -> Op:
    n = 8 + k % 13
    real = k // 13 % 2 == 0
    roots = pick_roots(rng, n, lattice(Fraction(1, 4), 1.2),
                       min(1 + k % 3, 3 if n <= 16 else 2), real, sep=0.5)
    a = poly_from_roots(roots)
    f = EP()
    if k % 10 < 3:
        lam = (rng.choice(roots)[0] if k % 10 == 0 else rng.choice(
            far_points(lattice(Fraction(1, 4), 2.5), roots, 1.0)))
        f = EP({lam: random_poly(rng, k // 10 % 2, True)})
    return solve_op(f"high_order/{k:03d}", a, f, roots)


# ---------------------------------------------------------- rich_forcing

def _rich_forcing(rng, k) -> Op:
    n = 2 + k % 5
    roots = pick_roots(rng, n, lattice(Fraction(1, 2), 2.0), 2, k // 5 % 2 == 0,
                       sep=1.0)
    a = poly_from_roots(roots)
    count = 4 + k % 13
    resonant = min(round(count / 4), len(roots))
    lams = rng.sample([r for r, _ in roots], resonant) + rng.sample(
        far_points(lattice(Fraction(1, 2), 4.0), roots, 1.0), count - resonant)
    f = EP({lam: random_poly(rng, (k + t) % 7, (k + t) % 2 == 0)
            for t, lam in enumerate(lams)})
    return solve_op(f"rich_forcing/{k:03d}", a, f, roots)


# ------------------------------------------------- known-failing operations

def _known() -> dict[str, list[Op]]:
    verifier = "verifier scale 1 + |f| in solve.verify_solution"
    eps8 = Fraction("1e-8")
    order20 = _rt(*[(z, 2) for z in (2, -2, G(1, 2), G(1, -2), G(-2, 1),
                                     G(-2, -1), G(2, 2), G(2, -2), I, -I)])
    r7 = _rt((Fraction(3, 2), 7), (-2, 1))
    q = Fraction(1, 4)
    close = _rt((G(1, q), 3), (G(q, -3 * q), 1), (G(3 * q, -q), 2),
                (G(q, 3 * q), 1), (G(2 * q, -2 * q), 1), (G(3 * q, q), 3),
                (G(2 * q, 3 * q), 1), (G(3 * q), 3), (G(0, -q), 1))
    cluster = _rt(*[(z, m) for w, m in ((G(-1, q), 3), (G(-2 * q, 1), 2),
                                          (G(-3 * q, q), 2))
                    for z in (w, w.conj())], (G(-3 * q), 2))
    half = Fraction(1, 2)
    double_cluster = _rt((G(1, half), 2), (G(1, -half), 2), (1, 2))
    return {
        "corpus": [
            verify_op("corpus/known-tiny-forcing", (G(-1), G(1)),
                      EP({G(2): (G(Fraction("1e-12")),)}), EP(), "unverified",
                      eq="y' = y + 1e-12*exp(2*x)", cand_text="0",
                      known=f"false positive: {verifier}"),
            solve_op("corpus/known-near-resonance", poly_from_roots(_rt((-1, 2))),
                     EP({G(-1 + eps8): (G(1),)}), _rt((-1, 2)),
                     rhs_text="exp((-1+1e-8)*x)",
                     known=f"false negative: {verifier}"),
        ],
        "high_order": [
            solve_op("high_order/known-y32", (G(-1),) + (G(0),) * 31 + (G(1),),
                     EP(), unit_roots(32),
                     known="exit 3: flat coefficient tolerance in "
                           "cpoly.find_roots certification"),
            solve_op("high_order/known-mult7", poly_from_roots(r7), EP(), r7,
                     known="exit 3: cpoly clustering at multiplicity 7"),
            solve_op("high_order/known-order20", poly_from_roots(order20), EP(),
                     order20, known=f"false negative: {verifier}"),
            solve_op("high_order/known-close-triples", poly_from_roots(close),
                     EP(), close, known="exit 3: cpoly.find_roots certifies no "
                     "clustering of triple roots 0.25 apart"),
            solve_op("high_order/known-missed-resonance",
                     poly_from_roots(cluster), EP({G(-0.75): (G(2, -2), G(3, -2))}),
                     cluster, known="resonance missed: a double root in a "
                     "cluster comes back 1.7e-9 off, beyond EXP_MERGE_TOL 1e-9"),
        ],
        "rich_forcing": [
            solve_op("rich_forcing/known-x16", poly_from_roots(_rt((1, 1))),
                     X ** 16 * EXP(half), _rt((1, 1)),
                     known="wrong particular solution: exppoly._cleaned drops "
                           "coefficients below 1e-12 of a term's largest"),
            solve_op("rich_forcing/known-x10", poly_from_roots(_rt((1, 1), (-1, 1))),
                     X ** 10 * EXP(half), _rt((1, 1), (-1, 1)),
                     known=f"false negative: {verifier}"),
            solve_op("rich_forcing/known-cluster-resonance",
                     poly_from_roots(double_cluster), EP({G(1, half): tuple(
                         G(*c) for c in ((3, -1), (-1, 1), (2, -3), (-3, -3),
                                         (0, 0), (3, 1), (-3, 1)))}),
                     double_cluster, known=f"false negative: {verifier}"),
        ],
    }


WORKLOADS = ("corpus", "high_order", "rich_forcing")


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's operations for a seed; the same seed, the same list.

    Operation k's shape (order, term count, flags) follows a fixed schedule
    in k and only the values are drawn from the seed, so every seed gives
    the same mix of work."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        ops = _corpus_copied()
        gen_verify = CORPUS_VERIFY - sum(o.kind == "verify" for o in ops)
        ops += [_corpus_verify(rng, k) for k in range(gen_verify)]
        ops += [_corpus_solve(rng, k)
                for k in range(CORPUS_OPS - len(ops) - len(_known()["corpus"]))]
    elif workload == "high_order":
        ops = [_high_order(rng, k) for k in range(HIGH_ORDER_OPS)]
    elif workload == "rich_forcing":
        ops = [_rich_forcing(rng, k) for k in range(RICH_FORCING_OPS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops + _known()[workload]


def input_hash(ops) -> str:
    """sha256 of exactly what the program receives."""
    blob = json.dumps([op.argv() for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
