"""Acceptance sweep: nine end-to-end criteria over the whole pipeline.

Run with `pytest tests/test_acceptance.py -v -s` to see one
"acceptance criterion N (label): PASS/FAIL" line per criterion.
Every sweep is seeded, so reruns see the same cases.
"""

import io
import itertools
import random
import time
from contextlib import redirect_stdout

from expode import (
    ExpPoly,
    FactoredOp,
    Poly,
    coeff_distance,
    coefficients_match,
    find_roots,
    homogeneous_solution,
    parse_equation,
    parse_exppoly,
    particular_solution,
    ansatz_form,
    verify_solution,
    wronskian_determinant,
)
from expode.cli import main
from expode.parsing import EquationError
from strategies import OP_GRID, random_exppoly, random_factored
from test_cli import GOLDENS


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num} ({label}): {verdict}")
    assert ok, f"acceptance criterion {num} ({label}) {detail}"


def _operator_suite() -> list[FactoredOp]:
    """60 distinct operators over the root grid, multiplicities <= 3,
    order <= 6."""
    rng = random.Random(1001)
    ops, seen = [], set()
    while len(ops) < 60:
        fac = random_factored(rng, grid=OP_GRID, max_roots=3,
                              max_mult=3, max_order=6)
        key = tuple(sorted(fac.factors,
                           key=lambda rm: (rm[0].real, rm[0].imag)))
        if key not in seen:
            seen.add(key)
            ops.append(fac)
    return ops


def _forcing_cases(fac: FactoredOp):
    """Exponents: the full grid plus every root of the operator."""
    bs = list(OP_GRID)
    for r, _ in fac.factors:
        if all(abs(r - b) > 1e-9 for b in bs):
            bs.append(r)
    return [(b, j) for b in bs for j in range(4)]


def test_criterion_1_homogeneous_soundness():
    start = time.perf_counter()
    ok = True
    for fac in _operator_suite():
        op = fac.to_linop()
        hom = homogeneous_solution(fac)
        for b in hom.basis:
            ok = ok and op.apply(b).max_coeff() <= 1e-9
        ok = ok and wronskian_determinant(hom.basis) > 1e-9
    elapsed = time.perf_counter() - start
    _report(1, "homogeneous soundness", ok and elapsed < 2.0,
            f"elapsed {elapsed:.2f}s")


def test_criterion_2_particular_round_trip():
    start = time.perf_counter()
    ok = True
    cases = 0
    for fac in _operator_suite():
        op = fac.to_linop()
        for b, j in _forcing_cases(fac):
            f = ExpPoly.term(b, Poly((0j,) * j + (1 + 0j,)))
            y = particular_solution(fac, f)
            ok = ok and verify_solution(op, f, y).within(1e-8)
            cases += 1
    elapsed = time.perf_counter() - start
    _report(2, "particular round trip",
            ok and cases >= 500 and elapsed < 5.0,
            f"{cases} cases, elapsed {elapsed:.2f}s")


def test_criterion_3_resonance_degree_law():
    ok = True
    for fac in _operator_suite():
        for b, j in _forcing_cases(fac):
            f = ExpPoly.term(b, Poly((0j,) * j + (1 + 0j,)))
            y = particular_solution(fac, f)
            af = ansatz_form(fac, b, j)
            poly = y.term_at(b)
            ok = ok and len(y.terms) == 1 and poly is not None
            if not ok:
                break
            ok = ok and poly.degree == af.degree
            if af.resonance_order:
                ok = ok and poly.lowest_power >= af.resonance_order
                ok = ok and af.degree == j + af.resonance_order
            else:
                ok = ok and af.degree == j
    _report(3, "resonance degree law", ok)


def test_criterion_4_factor_commutativity():
    rng = random.Random(1004)
    ok = True
    for _ in range(100):
        fac = random_factored(rng, max_roots=3, max_mult=3, max_order=5)
        y = random_exppoly(rng)
        base = fac.apply(y)
        bound = 1e-9 * (1 + base.max_coeff())
        for perm in itertools.permutations(fac.factors):
            other = FactoredOp(tuple(perm)).apply(y)
            ok = ok and coeff_distance(base, other) <= bound
    _report(4, "factor commutativity", ok)


def test_criterion_5_exponential_conjugation():
    rng = random.Random(1005)
    ok = True
    for _ in range(100):
        y = random_exppoly(rng)
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        m = rng.randint(1, 4)
        lhs = y.shift_exponent(-a)
        for _ in range(m):
            lhs = lhs.derivative()
        rhs = FactoredOp(((a, m),)).apply(y).shift_exponent(-a)
        ok = ok and coeff_distance(lhs, rhs) <= 1e-9 * (1 + lhs.max_coeff())
    _report(5, "exponential conjugation identity", ok)


def test_criterion_6_factorization_certification():
    rng = random.Random(1006)
    ok = True
    for _ in range(100):
        fac = random_factored(rng, max_roots=4, max_mult=3, max_order=8)
        p = fac.char_poly()
        found = find_roots(p)
        # match reported roots to true ones by proximity
        pool = list(found.pairs)
        for r, m in fac.factors:
            hit = next((i for i, (s, mm) in enumerate(pool)
                        if mm == m and abs(s - r) <= 1e-6), None)
            ok = ok and hit is not None
            if hit is None:
                break
            pool.pop(hit)
        ok = ok and not pool
        ok = ok and coefficients_match(found.expand(), p)
    _report(6, "factorization certification", ok)


def test_criterion_7_antiderivative_inverse():
    rng = random.Random(1007)
    ok = True
    for _ in range(500):
        f = random_exppoly(rng)
        g = f.antiderivative().derivative()
        ok = ok and coeff_distance(f, g) <= 1e-10 * (1 + f.max_coeff())
    _report(7, "antiderivative inverse", ok)


_FUZZ_SEEDS = [
    "y'' + 2y' + y = x*exp(-x)",
    "y^(3) - 2i*y = sin(2x) + cos(x)/2",
    "2y'' - y = (1+x)^3 * exp((1-2i)*x)",
    "y' = 0",
]
# includes two non-ASCII probes: the tokenizer must reject, not crash
_FUZZ_ALPHABET = "xy'i()+-*/^=.,0123456789 expsincos\tλ²"


def _mutate(rng: random.Random, text: str) -> str:
    out = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        if op == 0 and out:
            out.insert(rng.randrange(len(out) + 1),
                       rng.choice(_FUZZ_ALPHABET))
        elif op == 1 and out:
            out.pop(rng.randrange(len(out)))
        elif out:
            out[rng.randrange(len(out))] = rng.choice(_FUZZ_ALPHABET)
    return "".join(out)


def test_criterion_8_parser_round_trip_and_fuzz():
    from expode import render
    rng = random.Random(1008)
    ok = True
    for _ in range(500):
        f = random_exppoly(rng)
        g = parse_exppoly(render(f))
        ok = ok and coeff_distance(f, g) <= 1e-10 * (1 + f.max_coeff())

    crashes = 0
    trials = 0
    for _ in range(1200):
        text = _mutate(rng, rng.choice(_FUZZ_SEEDS))
        trials += 1
        try:
            parse_equation(text)
        except EquationError:
            pass
        except Exception:
            crashes += 1
        try:
            parse_exppoly(text)
        except EquationError:
            pass
        except Exception:
            crashes += 1
    _report(8, "parser round trip and fuzz",
            ok and trials >= 1000 and crashes == 0,
            f"{trials} fuzz inputs, {crashes} crashes")


def test_criterion_9_golden_reports():
    ok = True
    for argv, expected in GOLDENS:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(list(argv))
            ok = ok and code == 0
            outputs.append(buf.getvalue())
        ok = ok and outputs[0] == outputs[1] == expected
        ok = ok and '"status": "verified"' in outputs[0]
    _report(9, "golden reports", ok)
