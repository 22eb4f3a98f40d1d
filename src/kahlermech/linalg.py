"""Dense complex LU for the semispray saddle systems, in plain Python.

The matrices are 2x2 to 12x12, where numpy's per-call overhead costs more
than the arithmetic, so elimination runs on lists of rows of Python
complex numbers.  Partial pivoting takes the first row of largest
magnitude, as ``np.argmax`` does.  Two checks are explicit: a pivot below
``PIVOT_RTOL`` times the largest input entry is a rank deficiency, not a
divisor, and an infinite or NaN entry is rejected up front (a NaN never
compares greater than a pivot candidate, so it would slip through).  So
is a finite entry whose magnitude overflows, such as 1.7e308*(1 + i),
on which ``abs()`` raises ``OverflowError``.
"""

from __future__ import annotations

from math import isfinite
from typing import List, Sequence, Tuple

PIVOT_RTOL = 1e-12


class SingularMatrixError(Exception):
    """Elimination hit a pivot below the relative threshold.

    ``condition_estimate`` is the ratio of the largest entry of the input
    matrix to the absolute value of the failing pivot (infinite for an
    exactly zero pivot); it gives the order of magnitude by which the
    matrix fails the threshold.
    """

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(f"{message} (condition estimate {condition_estimate:.3e})")
        self.condition_estimate = condition_estimate


class NonFiniteEntryError(Exception):
    """An entry of the matrix or right-hand side is infinite or NaN, or its
    magnitude (or that of an entry elimination makes) overflows."""


_OVERFLOW = "magnitude beyond the float range"


def _reject_non_finite(values) -> None:
    """Called when the sum of |values| is not finite: raise unless that was
    only finite magnitudes overflowing the sum."""
    for v in values:
        if not (isfinite(v.real) and isfinite(v.imag)):
            raise NonFiniteEntryError(f"non-finite value {v!r}")


def lu_factor(matrix) -> Tuple[List[List[complex]], List[int], float]:
    """Factor a copy of ``matrix`` (row lists or a 2-D array).

    Returns (LU rows, perm, scale), where ``scale`` is the largest absolute
    input entry that pivots are compared against.  Raises
    :class:`NonFiniteEntryError` on an infinite or NaN entry (or a
    magnitude that overflows) and
    :class:`SingularMatrixError` on a pivot below ``PIVOT_RTOL * scale``.
    """
    a = matrix.tolist() if hasattr(matrix, "tolist") else [list(row) for row in matrix]
    n = len(a)
    try:
        scale = total = 0.0
        for row in a:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for v in row:
                x = abs(v)
                total += x
                if x > scale:
                    scale = x
        if not isfinite(total):
            _reject_non_finite(v for row in a for v in row)
        threshold = PIVOT_RTOL * scale
        perm = list(range(n))
        for k in range(n):
            p = k
            pivot = abs(a[k][k])
            for i in range(k + 1, n):
                x = abs(a[i][k])
                if x > pivot:
                    pivot = x
                    p = i
            if pivot <= threshold or pivot == 0.0:
                cond = float("inf") if pivot == 0.0 else scale / pivot
                raise SingularMatrixError(
                    f"pivot {pivot:.3e} below threshold at elimination step {k}", cond
                )
            if p != k:
                a[k], a[p] = a[p], a[k]
                perm[k], perm[p] = perm[p], perm[k]
            head = a[k]
            for i in range(k + 1, n):
                row = a[i]
                if row[k]:  # a zero in the pivot column needs no elimination
                    f = row[k] = row[k] / head[k]
                    for j in range(k + 1, n):
                        row[j] -= f * head[j]
    except OverflowError:  # abs() of a finite entry beyond the float range
        raise NonFiniteEntryError(_OVERFLOW) from None
    return a, perm, scale


def lu_solve(lu: Sequence[Sequence[complex]], perm: Sequence[int], rhs) -> List[complex]:
    """Solve with a factorization from :func:`lu_factor`.

    Raises :class:`NonFiniteEntryError` on an infinite or NaN ``rhs`` entry,
    or one whose magnitude overflows.
    """
    x = [complex(rhs[p]) for p in perm]
    total = 0.0
    try:
        for v in x:
            total += abs(v)
    except OverflowError:
        raise NonFiniteEntryError(_OVERFLOW) from None
    if not isfinite(total):
        _reject_non_finite(x)
    n = len(x)
    for k in range(n):
        row, acc = lu[k], x[k]
        for j in range(k):
            acc -= row[j] * x[j]
        x[k] = acc
    for k in range(n - 1, -1, -1):
        row, acc = lu[k], x[k]
        for j in range(k + 1, n):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
    return x


def solve(matrix, rhs) -> List[complex]:
    """Solve ``matrix @ x = rhs`` with partial pivoting."""
    lu, perm, _ = lu_factor(matrix)
    return lu_solve(lu, perm, rhs)
