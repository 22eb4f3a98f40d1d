"""Per-state reference for the check suite's solve and oracle measurements.

One state at a time, as the suite ran before its oracle was stacked: the
primary solve, then the real-split re-solve with a per-matrix full-pivot
Gauss-Jordan elimination (numpy row operations, one matrix at a time).
``gauss_jordan_stack`` and ``run_check_suite`` must agree with it bitwise.
"""

import numpy as np

from kahlermech import checks, real_oracle
from kahlermech.dynamics import (
    InconsistentConstraints,
    SingularKahlerMatrix,
    solve_semispray,
)
from kahlermech.expressions import EvalDomainError
from kahlermech.real_oracle import EliminationFailure


def reference_gauss_jordan(matrix, rhs):
    """Solve one real system; raises EliminationFailure like the stack does."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if n else 0.0
    threshold = real_oracle.PIVOT_RTOL * scale
    col_of = list(range(n))
    for k in range(n):
        sub = np.abs(a[k:, k:])
        i_rel, j_rel = np.unravel_index(np.argmax(sub), sub.shape)
        i, j = k + int(i_rel), k + int(j_rel)
        pivot = a[i, j]
        if abs(pivot) <= threshold or pivot == 0.0:
            raise EliminationFailure(np.inf if pivot == 0.0 else scale / abs(pivot))
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


def _realify(matrix, rhs):
    top = np.hstack([matrix.real, -matrix.imag])
    bottom = np.hstack([matrix.imag, matrix.real])
    return np.vstack([top, bottom]), np.concatenate([rhs.real, rhs.imag])


def reference_oracle(system, state):
    """The saddle vector (field, then multipliers) through the real split."""
    a = system._blocks_at(state)
    Kr, _ = _realify(a.K, np.zeros(a.K.shape[0], dtype=complex))
    try:
        reference_gauss_jordan(Kr, np.zeros(Kr.shape[0]))
    except EliminationFailure as err:
        raise SingularKahlerMatrix(state, err.condition_estimate) from None
    try:
        xr = reference_gauss_jordan(*_realify(a.S, a.rhs))
    except EliminationFailure as err:
        raise InconsistentConstraints(state, err.condition_estimate) from None
    n = len(xr) // 2
    return (xr[:n] + 1j * xr[n:]).tolist()


def reference_measurements(system, initial, samples, seed):
    """(worst solve residual, worst oracle gap, solved, skipped), the solve
    and oracle measurements of ``run_check_suite``, one state at a time."""
    worst_solve = worst_oracle = 0.0
    solved = skipped = 0
    for state in checks._sample_states(system, initial, samples, seed):
        try:
            sol = solve_semispray(system, state)
            alt = reference_oracle(system, state)
        except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError):
            skipped += 1
            continue
        solved += 1
        worst_solve = max(worst_solve, sol.residual_symplectic, sol.residual_constraints)
        both = zip(sol.xi.components + sol.multipliers, alt)
        worst_oracle = max(worst_oracle, max(abs(a - b) for a, b in both))
    return worst_solve, worst_oracle, solved, skipped
