"""Constrained Lagrangian mechanics on flat complex phase charts.

The exports resolve on first access (PEP 562), so importing the package,
or one command's modules, loads no module that is not used.
"""

import importlib

__version__ = "0.1.0"

# The public names, by home module.
_EXPORTS = {
    "expressions": (
        "EvalDomainError", "Expr", "ParseError", "Sym",
        "diff", "evaluate", "make_point", "parse_expression", "simplify"),
    "exterior": (
        "CompatibilityReport", "OneForm", "TwoForm", "VectorField",
        "apply_J_covector", "apply_J_vector", "check_hermitian_compatibility",
        "contract", "exterior_derivative", "one_form", "vector"),
    "dynamics": (
        "DiagnosticsReport", "InconsistentConstraints", "LagrangianSystem",
        "NonHolomorphicLagrangian", "PhaseState", "SemispraySolution",
        "SingularKahlerMatrix", "Trajectory", "TrajectorySample",
        "assemble_kahler_matrix", "diagnostics",
        "el_residual", "energy_differential", "integrate", "solve_semispray"),
    "constraints": (
        "Classification", "ConstraintSet", "RankDeficientConstraints",
        "Verdict", "Witness", "annihilator_basis", "closedness_test",
        "constraint_set", "frobenius_test"),
    "real_oracle": ("derealify", "realify", "realify_and_solve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """An export from its home module, or a submodule by its name."""
    home = _HOME.get(name)
    try:
        module = importlib.import_module(f"{__name__}.{home or name}")
    except ModuleNotFoundError as err:
        if home or err.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if home is None:
        return module
    value = globals()[name] = getattr(module, name)  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
