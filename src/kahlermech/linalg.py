"""Dense complex LU for the semispray saddle systems, in plain Python.

The matrices are 2x2 to 12x12, where numpy's per-call overhead and a
Python loop's own cost more than the flops, so elimination and
substitution are generated per size n and compiled once on first use:
straight-line code, except one loop over the rows below each pivot, which
keeps the source (and the compile's memory) quadratic in n.  The input is
only read.  Partial pivoting takes the first row of largest magnitude, as
``np.argmax`` does.  Two checks are explicit: a pivot below ``PIVOT_RTOL``
times the largest input entry is a rank deficiency, not a divisor, and an
infinite or NaN entry is rejected up front (a NaN never compares greater
than a pivot candidate, so it would slip through).  So is a finite entry
whose magnitude overflows, such as 1.7e308*(1 + i), on which ``abs()``
raises.
"""

from __future__ import annotations

import cmath
from functools import cache
from math import isfinite
from typing import Callable, List, Sequence, Tuple

from .expressions import compile_function

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
        if not cmath.isfinite(v):
            raise NonFiniteEntryError(f"non-finite value {v!r}")


def _singular(pivot: float, k: int, scale: float) -> None:
    cond = float("inf") if pivot == 0.0 else scale / pivot
    raise SingularMatrixError(f"pivot {pivot:.3e} below threshold at elimination step {k}", cond)


@cache
def _factor_kernel(n: int) -> Callable:
    """``f(a, rtol) -> (rows, perm, scale)`` for n x n row lists ``a``.

    The entries are read into locals a<i>_<j> (unpacking checks the length
    of each row) and copied into new row lists r<i>, which a swap trades
    whole.  Step k reads its pivot row into locals g<j> and updates the rows
    below in a loop; the rest is unrolled."""
    def row(i: int) -> str:
        return "".join(f"a{i}_{j}, " for j in range(n))

    body = [f"{row(i)}= a[{i}]" for i in range(n)] + [
        f"q = [{', '.join(map(str, range(n)))}]",
        f"magnitudes = [0.0, {''.join(f'abs(a{i}_{j}), ' for i in range(n) for j in range(n))}]",
        "scale = max(magnitudes)",  # 0.0 first: an empty or all-zero matrix has scale 0.0
        "if not isfinite(sum(magnitudes)):",
        f"    _reject_non_finite(({''.join(map(row, range(n)))}))",
        "threshold = rtol * scale",
    ] + [f"r{i} = [{row(i)}]" for i in range(n)]
    for k in range(n):
        body += [f"pivot = abs(r{k}[{k}])"] + [f"p = {k}"] * (k + 1 < n)
        for i in range(k + 1, n):
            body += [f"if (x := abs(r{i}[{k}])) > pivot:", f"    pivot, p = x, {i}"]
        body += ["if pivot <= threshold or pivot == 0.0:", f"    _singular(pivot, {k}, scale)"]
        for i in range(k + 1, n):
            body += [f"{'if' if i == k + 1 else 'elif'} p == {i}:",
                     f"    r{k}, r{i}, q[{k}], q[{i}] = r{i}, r{k}, q[{i}], q[{k}]"]
        if k + 1 < n:  # a zero in the pivot column needs no elimination
            body += [f"{''.join(f'g{j}, ' for j in range(k, n))}= r{k}[{k}:]",
                     f"for r in ({''.join(f'r{i}, ' for i in range(k + 1, n))}):",
                     f"    if r[{k}]:", f"        f = r[{k}] = r[{k}] / g{k}"]
            body += [f"        r[{j}] -= f * g{j}" for j in range(k + 1, n)]
    body.append(f"return [{', '.join(f'r{i}' for i in range(n))}], q, scale")
    return compile_function("a, rtol", body, (), abs=abs, max=max, sum=sum, isfinite=isfinite,
                            _reject_non_finite=_reject_non_finite, _singular=_singular)


@cache
def _solve_kernel(n: int) -> Callable:
    """``f(lu, perm, rhs) -> x``: the right-hand side permuted and checked,
    then forward and back substitution, unrolled over locals x<i>."""
    x = [f"x{i}" for i in range(n)]
    body = [f"x{i} = complex(rhs[perm[{i}]])" for i in range(n)] + [
        f"if not isfinite({' + '.join(['0.0'] + [f'abs({v})' for v in x])}):",
        f"    _reject_non_finite(({''.join(f'{v}, ' for v in x)}))",
    ] + [f"r{k} = lu[{k}]" for k in range(n)]
    for k in range(1, n):
        body.append(f"x{k} = x{k}" + "".join(f" - r{k}[{j}] * x{j}" for j in range(k)))
    for k in range(n - 1, -1, -1):
        terms = "".join(f" - r{k}[{j}] * x{j}" for j in range(k + 1, n))
        body.append(f"x{k} = (x{k}{terms}) / r{k}[{k}]")
    body.append(f"return [{', '.join(x)}]")
    return compile_function("lu, perm, rhs", body, (), abs=abs, isfinite=isfinite,
                            _reject_non_finite=_reject_non_finite)


def lu_factor(matrix) -> Tuple[List[List[complex]], List[int], float]:
    """Factor ``matrix`` (row lists or a 2-D array), which is left as it is.

    Returns (LU rows, perm, scale), where ``scale`` is the largest absolute
    input entry that pivots are compared against.  Raises
    :class:`NonFiniteEntryError` on an infinite or NaN entry (or a
    magnitude that overflows) and
    :class:`SingularMatrixError` on a pivot below ``PIVOT_RTOL * scale``.
    """
    a = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    try:
        return _factor_kernel(len(a))(a, PIVOT_RTOL)
    except ValueError:  # a row of the wrong length fails to unpack
        raise ValueError("matrix must be square") from None
    except OverflowError:  # abs() of a finite entry beyond the float range
        raise NonFiniteEntryError(_OVERFLOW) from None


def lu_solve(lu: Sequence[Sequence[complex]], perm: Sequence[int], rhs) -> List[complex]:
    """Solve with a factorization from :func:`lu_factor`.

    Raises :class:`NonFiniteEntryError` on an infinite or NaN ``rhs`` entry,
    or one whose magnitude overflows.
    """
    try:
        return _solve_kernel(len(perm))(lu, perm, rhs)
    except OverflowError:  # abs() of a finite entry beyond the float range
        raise NonFiniteEntryError(_OVERFLOW) from None


def solve(matrix, rhs) -> List[complex]:
    """Solve ``matrix @ x = rhs`` with partial pivoting."""
    lu, perm, _ = lu_factor(matrix)
    return lu_solve(lu, perm, rhs)
