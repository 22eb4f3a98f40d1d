"""Per-state reference for the check suite's sampled-state measurements.

One state at a time, as the suite ran before its measurements were
stacked: the antisymmetry and closedness of the assembled two-form, the
primary solve, then the real-split re-solve with a per-matrix full-pivot
Gauss-Jordan elimination (numpy row operations, one matrix at a time).
``gauss_jordan_stack`` and ``run_check_suite`` must agree with it bitwise.
``gauss_jordan_solve`` runs the stack on one system, as the tests call it.
"""

import math

import numpy as np

from kahlermech import checks, real_oracle
from kahlermech.checks import CheckResult, DEFAULT_THRESHOLDS
from kahlermech.dynamics import (
    InconsistentConstraints,
    SingularKahlerMatrix,
    diagnostics,
    integrate,
    solve_semispray,
)
from kahlermech.expressions import EvalDomainError


class EliminationFailure(Exception):
    """Full-pivot elimination hit a pivot below the relative threshold."""

    def __init__(self, condition_estimate: float):
        super().__init__(f"rank deficiency (condition estimate {condition_estimate:.3e})")
        self.condition_estimate = condition_estimate


def gauss_jordan_solve(matrix, rhs):
    """Solve one real system as a stack of one; raises
    :class:`EliminationFailure` on a pivot below the relative threshold."""
    x, cond = real_oracle.gauss_jordan_stack(np.asarray(matrix)[None], np.asarray(rhs)[None])
    if not np.isnan(cond[0]):
        raise EliminationFailure(float(cond[0]))
    return x[0]


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
    K, S, rhs, _ = (np.array(x, dtype=complex) for x in system._blocks_at(state))
    Kr, _ = _realify(K, np.zeros(K.shape[0], dtype=complex))
    try:
        reference_gauss_jordan(Kr, np.zeros(Kr.shape[0]))
    except EliminationFailure as err:
        raise SingularKahlerMatrix(state, err.condition_estimate) from None
    try:
        xr = reference_gauss_jordan(*_realify(S, rhs))
    except EliminationFailure as err:
        raise InconsistentConstraints(state, err.condition_estimate) from None
    n = len(xr) // 2
    return (xr[:n] + 1j * xr[n:]).tolist()


def reference_measurements(system, initial, samples, seed):
    """(antisymmetry, closedness, worst solve residual, worst oracle gap,
    solved, skipped), the sampled-state measurements of ``run_check_suite``,
    one state at a time."""
    closure = checks._closure_terms(system)
    antisymmetry = closedness = worst_solve = worst_oracle = 0.0
    solved = skipped = 0
    for state in checks._sample_states(system, initial, samples, seed):
        try:
            k = system._blocks_at(state)[0]
        except EvalDomainError:
            skipped += 1
            continue
        k_array = np.array(k, dtype=complex)
        largest = float(np.max(np.abs(k_array)))
        if not math.isfinite(largest):  # the solve rejects such a K too
            skipped += 1
            continue
        antisymmetry = max(antisymmetry, float(np.max(np.abs(k_array + k_array.T))))
        try:
            sums = closure.values(state.z, state.w)
        except EvalDomainError:
            pass
        else:
            scale = max(1.0, largest)
            for value in sums:
                try:
                    size = abs(value)
                except OverflowError:  # past the float range (or a NaN after an overflow)
                    size = math.hypot(value.real, value.imag)
                closedness = max(closedness, size / scale)
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
    return antisymmetry, closedness, worst_solve, worst_oracle, solved, skipped


def reference_suite(system, initial, t1, dt, samples, seed):
    """The results ``run_check_suite`` returns at the default thresholds,
    from :func:`reference_measurements` and the declared trajectory."""
    antisymmetry, closedness, worst_solve, worst_oracle, solved, skipped = \
        reference_measurements(system, initial, samples, seed)
    note = f"{solved} states solved, {skipped} skipped"
    if solved == 0:
        worst_solve = worst_oracle = float("inf")
    measured = [("antisymmetry", antisymmetry, ""), ("closedness", closedness, ""),
                ("solve", worst_solve, note), ("oracle", worst_oracle, note)]
    trajectory = integrate(system, initial, t1, dt)
    report = diagnostics(trajectory)
    if trajectory.status != "completed" or report.samples == 0:
        note = f"integration {trajectory.status} at t={trajectory.failure_time}"
        drift = constraint = float("inf")
    else:
        note = f"{report.samples} samples to t1={t1:g}"
        drift, constraint = report.max_energy_drift, report.max_constraint_residual
    measured.append(("drift", drift, note))
    if system.r:
        measured.append(("constraint", constraint, note))
    return [CheckResult(name, float(value), DEFAULT_THRESHOLDS[name],
                        value <= DEFAULT_THRESHOLDS[name], note)
            for name, value, note in measured]
