"""Independent real-arithmetic cross-check of the complex solver.

The complex saddle problem M x = b is mapped to the doubled real system

    [[Re M, -Im M], [Im M, Re M]] [Re x; Im x] = [Re b; Im b]

and solved by Gauss-Jordan elimination with full pivoting, written here
from scratch so that no factorization code is shared with the primary
complex LU path.  Agreement of the two routes checks the assembly and the
linear algebra at once.  The elimination runs on stacks: it loops over the
n pivot steps and each step works on every matrix of the stack at once,
with its own pivots, threshold and failure, so ``check`` cross-checks all
of its sampled states in one pass.  A single system is a stack of one.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SemispraySolution,
    SingularKahlerMatrix,
)

PIVOT_RTOL = 1e-12


class EliminationFailure(Exception):
    """Full-pivot elimination hit a pivot below the relative threshold."""

    def __init__(self, condition_estimate: float):
        super().__init__(f"rank deficiency (condition estimate {condition_estimate:.3e})")
        self.condition_estimate = condition_estimate


def realify(matrix: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Double a complex linear system, or a stack of them, into real ones."""
    a = np.asarray(matrix, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    n = a.shape[-1]
    doubled = np.empty(a.shape[:-2] + (2 * n, 2 * n))
    doubled[..., :n, :n] = doubled[..., n:, n:] = a.real
    doubled[..., :n, n:] = -a.imag
    doubled[..., n:, :n] = a.imag
    return doubled, np.concatenate([b.real, b.imag], axis=-1)


def derealify(x: np.ndarray) -> np.ndarray:
    """Invert :func:`realify` on a solution vector, or a stack of them."""
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def gauss_jordan_stack(matrices: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a stack of real systems, (N, n, n) and (N, n), by Gauss-Jordan
    reduction with full pivoting.

    Each member pivots on the first largest |entry| of its trailing block
    in row-major order and fails on a pivot at or below ``PIVOT_RTOL``
    times its own largest input entry; a failure never stops the others.
    Returns (x, cond): x is (N, n), NaN for a failed member, and cond is
    NaN where the elimination succeeded, else the ratio of the largest
    entry to the failing pivot (infinite for a zero pivot).
    """
    a = np.array(matrices, dtype=float)
    b = np.array(rhs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape != a.shape[:2]:
        raise ValueError("need a stack of square matrices and matching vectors")
    count, n = a.shape[:2]
    cond = np.full(count, np.nan)
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    threshold = PIVOT_RTOL * scale
    col_of = np.tile(np.arange(n), (count, 1))
    rows = np.arange(count)
    for k in range(n):
        flat = np.abs(a[:, k:, k:]).reshape(count, (n - k) ** 2).argmax(axis=1)
        i, j = k + flat // (n - k), k + flat % (n - k)
        pivot = np.abs(a[rows, i, j])
        failed = (pivot <= threshold) | (pivot == 0.0)
        failed &= np.isnan(cond)  # a member fails once: its first failure
        if failed.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                cond[failed] = np.where(pivot[failed] == 0.0, np.inf, scale[failed] / pivot[failed])
            # It goes on as the identity with a zero right-hand side, which no step changes.
            a[failed], b[failed], i[failed], j[failed] = np.eye(n), 0.0, k, k
        # Swap row k with row i, then column k with column j.  The indexed
        # side is a copy; the sliced side is a view, and the first
        # assignment changes none of its values (where i == k, or j == k,
        # it writes the same values back).
        a[rows, i], a[:, k] = a[:, k], a[rows, i]
        b[rows, i], b[:, k] = b[:, k], b[rows, i]
        a[rows, :, j], a[:, :, k] = a[:, :, k], a[rows, :, j]
        col_of[rows, j], col_of[:, k] = col_of[:, k], col_of[rows, j]
        inv = 1.0 / a[:, k, k]
        a[:, k] *= inv[:, None]
        b[:, k] *= inv
        # Rows with a zero in the pivot column are left exactly as they are.
        factor = a[:, :, k].copy()
        eliminate = factor != 0.0
        eliminate[:, k] = False
        np.subtract(a, factor[:, :, None] * a[:, None, k], out=a, where=eliminate[:, :, None])
        np.subtract(b, factor * b[:, k, None], out=b, where=eliminate)
    x = np.empty((count, n))
    x[rows[:, None], col_of] = b
    x[~np.isnan(cond)] = np.nan
    return x, cond


def gauss_jordan_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one real system as a stack of one; raises
    :class:`EliminationFailure` on a pivot below the relative threshold."""
    x, cond = gauss_jordan_stack(np.asarray(matrix)[None], np.asarray(rhs)[None])
    if not np.isnan(cond[0]):
        raise EliminationFailure(float(cond[0]))
    return x[0]


def oracle_solve(K: np.ndarray, S: np.ndarray, rhs: np.ndarray):
    """Solve stacks of saddle systems through the doubled real systems.

    ``K`` (N, 2m, 2m), ``S`` (N, n, n) and ``rhs`` (N, n) are complex, one
    member per state.  K is eliminated for its rank alone, S for the
    solution.  Returns (vec, k_cond, s_cond): the complex solutions (N, n)
    and each elimination's condition estimates as from
    :func:`gauss_jordan_stack`, NaN where it succeeded.
    """
    Kr, zero = realify(K, np.zeros(K.shape[:-1]))
    _, k_cond = gauss_jordan_stack(Kr, zero)
    x, s_cond = gauss_jordan_stack(*realify(S, rhs))
    return derealify(x), k_cond, s_cond


def realify_and_solve(system: LagrangianSystem, state: PhaseState) -> SemispraySolution:
    """Re-solve the saddle problem through the doubled real system.

    Mirrors :func:`kahlermech.dynamics.solve_semispray`: the same generated
    assembly, error types and bookkeeping, energy included, but eliminated
    with the independent full-pivot routine.
    """
    K, S, rhs, L = system._blocks_at(state)
    vec, k_cond, s_cond = oracle_solve(*(np.array([x], dtype=complex) for x in (K, S, rhs)))
    if not np.isnan(k_cond[0]):
        raise SingularKahlerMatrix(state, float(k_cond[0]))
    if not np.isnan(s_cond[0]):
        raise InconsistentConstraints(state, float(s_cond[0]))
    return system._solution_from(state, S, rhs, L, vec[0].tolist())
