"""Closed-form solver for linear constant-coefficient ODEs.

The solver factors the characteristic polynomial, reads the homogeneous
basis off the root multiplicities, and builds particular solutions for
exponential-polynomial forcing one term at a time through the exponential
shift L[e^(lam*x) p] = e^(lam*x) P(lam + D) p.  Every answer is checked by
substitution through the same shift.
"""

from .cpoly import (
    DEFAULT_CLUSTER_TOL,
    Factorization,
    NonConvergence,
    Poly,
    coefficients_match,
    find_roots,
    monomial,
)
from .exppoly import (
    EXP_MERGE_TOL,
    ExpPoly,
    NotConjugateClosed,
    TrigForm,
    coeff_distance,
    realify,
)
from .operators import FactoredOp, LinOp, compose_check, factor_op
from .parsing import (
    EquationAst,
    EquationError,
    NonlinearTerm,
    ParseError,
    UnknownOnRhs,
    UnsupportedForm,
    build_operator,
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
from .solve import (
    AnsatzForm,
    FullSolution,
    HomogeneousSolution,
    SingularSystem,
    SolveReport,
    VerifyReport,
    ansatz_form,
    fit_initial_conditions,
    homogeneous_solution,
    particular_solution,
    real_homogeneous_solution,
    solve_equation,
    verify_solution,
    wronskian_determinant,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzForm",
    "DEFAULT_CLUSTER_TOL",
    "EXP_MERGE_TOL",
    "EquationAst",
    "EquationError",
    "ExpPoly",
    "FactoredOp",
    "Factorization",
    "FullSolution",
    "HomogeneousSolution",
    "LinOp",
    "NonConvergence",
    "NonlinearTerm",
    "NotConjugateClosed",
    "ParseError",
    "Poly",
    "SingularSystem",
    "SolveReport",
    "TrigForm",
    "UnknownOnRhs",
    "UnsupportedForm",
    "VerifyReport",
    "ansatz_form",
    "build_operator",
    "coeff_distance",
    "coefficients_match",
    "compile_equation",
    "compose_check",
    "factor_op",
    "find_roots",
    "fit_initial_conditions",
    "format_constant",
    "homogeneous_solution",
    "lower_rhs",
    "monomial",
    "parse_constant",
    "parse_equation",
    "parse_expression",
    "parse_exppoly",
    "parse_initial_conditions",
    "particular_solution",
    "real_homogeneous_solution",
    "render",
    "render_poly",
    "solve_equation",
    "verify_solution",
    "wronskian_determinant",
    "__version__",
]
