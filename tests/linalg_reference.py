"""Loop reference for the generated LU kernels in ``kahlermech.linalg``.

The elimination and substitution as loops over row lists, as the solve
ran before its kernels were generated per size.  ``linalg.lu_factor`` and
``linalg.lu_solve`` must agree with it bitwise: LU rows, permutation,
scale and solution, signs of zeros included, and the same errors with the
same messages and condition estimates.
"""

from math import inf, isfinite

from kahlermech.linalg import PIVOT_RTOL, NonFiniteEntryError, SingularMatrixError

_OVERFLOW = "magnitude beyond the float range"


def _reject_non_finite(values) -> None:
    for v in values:
        if not (isfinite(v.real) and isfinite(v.imag)):
            raise NonFiniteEntryError(f"non-finite value {v!r}")


def reference_lu_factor(matrix):
    """(LU rows, perm, scale) of a copy of ``matrix``, with loops."""
    a = matrix.tolist() if hasattr(matrix, "tolist") else [list(row) for row in matrix]
    n = len(a)
    try:
        scale = total = 0.0
        for row in a:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for v in row:
                # abs() of a NaN raises OverflowError when an earlier
                # overflow left errno set; an infinite x rejects v all the same.
                x = abs(v) if isfinite(v.real) and isfinite(v.imag) else inf
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
    except OverflowError:
        raise NonFiniteEntryError(_OVERFLOW) from None
    return a, perm, scale


def reference_lu_solve(lu, perm, rhs):
    """Forward and back substitution with loops."""
    x = [complex(rhs[p]) for p in perm]
    total = 0.0
    try:
        for v in x:
            total += abs(v) if isfinite(v.real) and isfinite(v.imag) else inf
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
