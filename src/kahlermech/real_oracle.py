"""Independent real-arithmetic cross-check of the complex solver.

The complex saddle problem M x = b is mapped to the doubled real system

    [[Re M, -Im M], [Im M, Re M]] [Re x; Im x] = [Re b; Im b]

and solved by Gauss-Jordan elimination with full pivoting, written here
from scratch so that no factorization code is shared with the primary
complex LU path.  Agreement of the two routes checks the assembly and the
linear algebra at once.  A classical Euler-Lagrange spot check on
trajectories is included for systems that are expressible with real
coefficients under the x + iy splitting; it is diagnostic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .expressions import Expr, Num, as_expr
from .dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SemispraySolution,
    SingularKahlerMatrix,
    Trajectory,
)

PIVOT_RTOL = 1e-12


class EliminationFailure(Exception):
    """Full-pivot elimination hit a pivot below the relative threshold."""

    def __init__(self, condition_estimate: float):
        super().__init__(f"rank deficiency (condition estimate {condition_estimate:.3e})")
        self.condition_estimate = condition_estimate


def realify(matrix: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Double a complex linear system into an equivalent real one."""
    a = np.asarray(matrix, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    top = np.hstack([a.real, -a.imag])
    bottom = np.hstack([a.imag, a.real])
    return np.vstack([top, bottom]), np.concatenate([b.real, b.imag])


def derealify(x: np.ndarray) -> np.ndarray:
    """Invert :func:`realify` on a solution vector."""
    n = x.shape[0] // 2
    return x[:n] + 1j * x[n:]


def gauss_jordan_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a real system by Gauss-Jordan reduction with full pivoting."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError("need a square matrix and a matching vector")
    scale = float(np.max(np.abs(a))) if n else 0.0
    threshold = PIVOT_RTOL * scale
    col_of = list(range(n))
    for k in range(n):
        sub = np.abs(a[k:, k:])
        i_rel, j_rel = np.unravel_index(np.argmax(sub), sub.shape)
        i, j = k + int(i_rel), k + int(j_rel)
        pivot = a[i, j]
        if abs(pivot) <= threshold or pivot == 0.0:
            cond = np.inf if pivot == 0.0 else scale / abs(pivot)
            raise EliminationFailure(cond)
        if i != k:
            a[[k, i]] = a[[i, k]]
            b[[k, i]] = b[[i, k]]
        if j != k:
            a[:, [k, j]] = a[:, [j, k]]
            col_of[k], col_of[j] = col_of[j], col_of[k]
        inv = 1.0 / a[k, k]
        a[k] *= inv
        b[k] *= inv
        for row in range(n):
            if row != k and a[row, k] != 0.0:
                factor = a[row, k]
                a[row] -= factor * a[k]
                b[row] -= factor * b[k]
    x = np.empty(n)
    for k in range(n):
        x[col_of[k]] = b[k]
    return x


def _probe_rank(matrix: np.ndarray) -> None:
    """Run the elimination for its side effect: failure means rank deficiency."""
    gauss_jordan_solve(matrix, np.zeros(matrix.shape[0]))


def realify_and_solve(system: LagrangianSystem, state: PhaseState) -> SemispraySolution:
    """Re-solve the saddle problem through the doubled real system.

    Mirrors :func:`kahlermech.dynamics.solve_semispray` including its error
    behaviour, but eliminates with the independent full-pivot routine.
    """
    if state.m != system.m:
        raise ValueError("state dimension does not match the system")
    a = system._blocks_at(state)
    Kr, _ = realify(a.K, np.zeros(a.K.shape[0], dtype=complex))
    try:
        _probe_rank(Kr)
    except EliminationFailure as err:
        raise SingularKahlerMatrix(state, err.condition_estimate) from None
    Sr, br = realify(a.S, a.rhs)
    try:
        xr = gauss_jordan_solve(Sr, br)
    except EliminationFailure as err:
        raise InconsistentConstraints(state, err.condition_estimate) from None
    return system._solution_from(
        state, a.S.tolist(), a.rhs.tolist(), None, derealify(xr).tolist()
    )


# ---------------------------------------------------------------------------
# Classical comparison


@dataclass(frozen=True)
class ClassicalElReport:
    """Finite-difference classical Euler-Lagrange residuals on a trajectory.

    Residuals follow force - d/dt(momentum) - multiplier terms per real
    coordinate (x_i, y_i), with momenta differentiated by central
    differences across neighbouring samples.  Only the dz components of
    the constraint forms enter the multiplier force, matching the
    configuration-space reading.  Diagnostic output only; nothing gates
    on it.
    """

    real_expressible: bool
    interior_samples: int
    max_residual: float
    per_sample: Tuple[float, ...]


def _all_literals_real(e: Expr) -> bool:
    if isinstance(e, Num):
        return e.value.imag == 0.0
    return all(_all_literals_real(a) for a in e.args)


def is_real_expressible(system: LagrangianSystem) -> bool:
    """True when every literal in L and the constraints is real."""
    coefficients = [as_expr(c) for form in system.constraints for c in form.coefficients]
    return all(map(_all_literals_real, [system.lagrangian, *coefficients]))


def classical_el_check(system: LagrangianSystem, trajectory: Trajectory) -> ClassicalElReport:
    """Evaluate the classical residuals along an existing trajectory."""
    samples = trajectory.samples
    if len(samples) < 3:
        raise ValueError("need at least three samples for the central difference")
    dt = trajectory.dt
    m = system.m

    def momenta_forces(state: PhaseState):
        dL = system._blocks_at(state).dL
        Lz, Lw = dL[:m], dL[m:]
        # (x_i then y_i) components for each index.
        force = np.concatenate([Lz, 1j * Lz])
        momentum = np.concatenate([Lw, 1j * Lw])
        return force, momentum

    per_sample: List[float] = []
    worst = 0.0
    cached = [momenta_forces(s.state) for s in samples]
    for k in range(1, len(samples) - 1):
        force, _ = cached[k]
        p_prev = cached[k - 1][1]
        p_next = cached[k + 1][1]
        p_dot = (p_next - p_prev) / (2.0 * dt)
        residual = force - p_dot
        if system.r:
            state = samples[k].state
            W = system._blocks_at(state).W
            lams = np.asarray(samples[k].solution.multipliers)
            cz = W[:m, :] @ lams  # dz components only
            residual -= np.concatenate([cz, 1j * cz])
        value = float(np.max(np.abs(residual)))
        per_sample.append(value)
        worst = max(worst, value)
    return ClassicalElReport(
        real_expressible=is_real_expressible(system),
        interior_samples=len(per_sample),
        max_residual=worst,
        per_sample=tuple(per_sample),
    )
