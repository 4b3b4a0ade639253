"""Tests of the benchmark's own code: the exact checker and the generator.

    python3 -m pytest perfbench/tests
"""

from fractions import Fraction

import pytest

from exact import (BACKWARD_TOL, EP, EXP, G, X, backward_error,
                   poly_from_roots, resonance_mismatch, roots_mismatch)
from workloads import WORKLOADS, generate, input_hash


def test_accepts_hand_derived_answer():
    # y'' + 2y' + y = x e^(-x): (D + 1)^2 [x^3/6 e^(-x)] = x e^(-x), and
    # -1 is a double root, so the degree rises from 1 to 1 + 2 = 3.
    a = (G(1), G(2), G(1))
    f = X * EXP(-1)
    y = X ** 3 * EXP(-1) / 6
    assert backward_error(a, f, y) == 0.0
    assert resonance_mismatch(f, y, [(G(-1), 2)]) is None
    assert backward_error(a, EP(), X * EXP(-1)) == 0.0


def _x16_solution() -> list[Fraction]:
    # y' - y = x^16 e^(x/2) with y = e^(x/2) p: -p/2 + p' = x^16
    p = [Fraction(0)] * 17
    p[16] = Fraction(-2)
    for k in range(15, -1, -1):
        p[k] = 2 * (k + 1) * p[k + 1]
    return p


def test_rejects_x16_answer_cut_to_degree_11():
    a = (G(-1), G(1))
    half = Fraction(1, 2)
    f = X ** 16 * EXP(half)
    exact = _x16_solution()
    assert backward_error(a, f, EP({G(half): exact})) == 0.0
    top = max(abs(c) for c in exact)
    cut = [c if abs(c) > Fraction(1, 10 ** 12) * top else 0 for c in exact]
    y = EP({G(half): cut})
    assert y.degree_at(G(half)) == 11
    assert backward_error(a, f, y) == 1.0
    assert "degree 11, expected 16" in resonance_mismatch(f, y, [(G(1), 1)])


def test_rejects_root_perturbed_by_1e6():
    roots = [(G(1), 1), (G(-2), 1)]
    a = poly_from_roots(roots)
    got = [(1.0 + 1e-6, 1), (-2.0, 1)]
    assert roots_mismatch(got, roots) is not None
    assert roots_mismatch([(1.0, 1), (-2.0, 1)], roots) is None
    assert backward_error(a, EP(), EXP(1.0 + 1e-6)) > 100 * BACKWARD_TOL


def test_known_verifier_faults_read_right_exactly():
    # The candidate 0 for y' = y + 1e-12 e^(2x) is wholly wrong ...
    a = (G(-1), G(1))
    f = EP({G(2): (G(Fraction("1e-12")),)})
    assert backward_error(a, f, EP()) == 1.0
    # ... while expode's unverified answer to y'' + 2y' + y = e^((-1+1e-8)x)
    # is right to rounding: its exponent is the double -1 + 1e-8.
    lam = G(-1) + G(Fraction("1e-8"))
    y = EP({G(-1.0 + 1e-8): (G(9999999899504814),)})
    assert backward_error((G(1), G(2), G(1)), EP({lam: (G(1),)}), y) < 1e-15


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = input_hash(generate(workload, 5))
    assert input_hash(generate(workload, 5)) == first
    assert input_hash(generate(workload, 6)) != first
