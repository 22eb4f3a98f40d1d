"""Constrained Lagrangian mechanics on flat complex phase charts."""

from .expressions import (
    EvalDomainError,
    Expr,
    ParseError,
    Sym,
    diff,
    evaluate,
    make_point,
    parse_expression,
    simplify,
)
from .exterior import (
    CompatibilityReport,
    OneForm,
    TwoForm,
    VectorField,
    apply_J_covector,
    apply_J_vector,
    check_hermitian_compatibility,
    contract,
    exterior_derivative,
    one_form,
    vector,
    vertical_d,
)
from .dynamics import (
    DiagnosticsReport,
    InconsistentConstraints,
    LagrangianSystem,
    NonHolomorphicLagrangian,
    PhaseState,
    SemispraySolution,
    SingularKahlerMatrix,
    Trajectory,
    TrajectorySample,
    assemble_kahler_matrix,
    diagnostics,
    el_residual,
    energy_differential,
    integrate,
    solve_semispray,
)
from .constraints import (
    Classification,
    ConstraintSet,
    RankDeficientConstraints,
    Verdict,
    Witness,
    annihilator_basis,
    closedness_test,
    constraint_set,
    frobenius_test,
)
from .real_oracle import (
    derealify,
    gauss_jordan_solve,
    realify,
    realify_and_solve,
)

__version__ = "0.1.0"

__all__ = [
    "EvalDomainError", "Expr", "ParseError", "Sym",
    "diff", "evaluate", "make_point", "parse_expression", "simplify",
    "CompatibilityReport", "OneForm", "TwoForm", "VectorField",
    "apply_J_covector", "apply_J_vector", "check_hermitian_compatibility",
    "contract", "exterior_derivative", "one_form", "vector", "vertical_d",
    "DiagnosticsReport", "InconsistentConstraints", "LagrangianSystem",
    "NonHolomorphicLagrangian", "PhaseState", "SemispraySolution",
    "SingularKahlerMatrix", "Trajectory", "TrajectorySample",
    "assemble_kahler_matrix", "diagnostics",
    "el_residual", "energy_differential", "integrate", "solve_semispray",
    "Classification", "ConstraintSet", "RankDeficientConstraints",
    "Verdict", "Witness", "annihilator_basis", "closedness_test",
    "constraint_set", "frobenius_test",
    "derealify", "gauss_jordan_solve", "realify", "realify_and_solve",
]
