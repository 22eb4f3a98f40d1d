"""References for the Kahler structure and the semispray it drives.

The system builds Phi_L from the Hessian block H = L_zw.  The reference
takes the definition instead, Phi_L = -d d_J L, through the exterior
layer: ``exterior_derivative(vertical_d(L, m)).scaled(-1)``.

Two checkers judge the package from outside it:
``check_hermitian_compatibility`` samples a Hermitian pairing's
J-invariance, and ``el_residual`` evaluates the constrained
Euler-Lagrange equations along a supplied field.
"""

from typing import Sequence, Tuple

import numpy as np

from kahlermech._record import record
from kahlermech.dynamics import LagrangianSystem, PhaseState, SemispraySolution, _derivative_blocks
from kahlermech.expressions import Expr, Mul, Num, Sym, diff, fold, simplify
from kahlermech.exterior import OneForm, VectorField, apply_J_vector


def vertical_d(f: Expr, m: int) -> OneForm:
    """The twisted differential i (df/dz_k) dz_k - i (df/dw_k) dw_k."""
    f = simplify(f)
    a = tuple(fold(Mul, Num(1j), diff(f, Sym("z", k))) for k in range(1, m + 1))
    b = tuple(fold(Mul, Num(-1j), diff(f, Sym("w", k))) for k in range(1, m + 1))
    return OneForm(a, b)


# ---------------------------------------------------------------------------
# Metric compatibility


@record(frozen=True)
class CompatibilityReport:
    """Sampled deviations of a Hermitian pairing from J-invariance."""

    max_metric_deviation: float
    max_form_antisymmetry: float
    samples_checked: int

    @property
    def compatible(self) -> bool:
        return self.max_metric_deviation <= 1e-12


def _pair(g: np.ndarray, x: VectorField, y: VectorField) -> complex:
    xv = np.asarray(x.components)
    yv = np.asarray(y.components)
    return complex(np.conj(xv) @ g @ yv)


def check_hermitian_compatibility(
    g: np.ndarray,
    samples: Sequence[Tuple[VectorField, VectorField]],
) -> CompatibilityReport:
    """Check g(JX, JY) = g(X, Y) on sample vector pairs.

    ``g`` is a 2m x 2m Hermitian matrix defining the sesquilinear pairing
    g(X, Y) = conj(X)^T g Y.  The report also records how far the induced
    form Phi(X, Y) = g(X, JY) is from Hermitian antisymmetry, which
    vanishes exactly when g commutes with J (no dz/dw sector mixing).
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    if g.shape != (n, n) or n % 2:
        raise ValueError("metric must be square with even size 2m")
    if not np.allclose(g, g.conj().T, rtol=0, atol=1e-12):
        raise ValueError("metric matrix is not Hermitian")
    dev_metric = 0.0
    dev_form = 0.0
    count = 0
    for x, y in samples:
        jx, jy = apply_J_vector(x), apply_J_vector(y)
        dev_metric = max(dev_metric, abs(_pair(g, jx, jy) - _pair(g, x, y)))
        phi_xy = _pair(g, x, jy)
        phi_yx = _pair(g, y, jx)
        dev_form = max(dev_form, abs(phi_xy + phi_yx.conjugate()))
        count += 1
    return CompatibilityReport(dev_metric, dev_form, count)


def el_residual(
    system: LagrangianSystem,
    state: PhaseState,
    solution: SemispraySolution,
) -> Tuple[complex, ...]:
    """Constrained Euler-Lagrange residuals at a state.

    The time derivative of the momenta is expanded by the chain rule along
    the supplied field, so the residuals are algebraic in (state, xi,
    multipliers).  Component order is (z-equations, w-equations); with no
    constraints the w-entries coincide with the unconstrained equations and
    the z-entries with their negatives.
    """
    m = system.m
    if solution.xi.m != m:
        raise ValueError("field dimension does not match the system")
    if len(solution.multipliers) != system.r:
        raise ValueError(f"got {len(solution.multipliers)} multipliers for {system.r} constraints")
    dL, A, H, B, W = _derivative_blocks(system, state)
    xih, xif = np.asarray(solution.xi.hol), np.asarray(solution.xi.fib)
    z_eqs = dL[:m] - 1j * (A @ xih + H @ xif)
    w_eqs = dL[m:] + 1j * (H.T @ xih + B @ xif)
    lam_terms = W @ np.asarray(solution.multipliers, dtype=complex)
    return tuple(complex(v) for v in np.concatenate([z_eqs, w_eqs]) - lam_terms)
