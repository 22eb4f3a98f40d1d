"""Dense complex LU for the semispray saddle systems, in plain Python.

The matrices are 2x2 to 12x12, where numpy's per-call overhead and a
Python loop's own cost more than the flops, so the elimination is
generated per size n and compiled once, as straight-line code over
locals: :func:`kernel` reads the rows into locals a<i>_<j> and carries the
right-hand side b<i> through the elimination, so a row swap moves only the
live columns k..n-1 and b.  Its source is cubic in n (about 1,000 lines
at n = 12), and so is the compile's memory: 3.5 MB of traced memory at its
peak for the solve kernel at n = 10, 5.0 MB at n = 12.  The input is only
read.  Partial pivoting takes the first row of largest magnitude, as
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
from typing import Callable, List, Tuple

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
    """Called when a magnitude scan of ``values`` raised OverflowError or
    summed to a value that is not finite: an overflowing magnitude raises
    OverflowError, else the first infinite or NaN value raises; only finite
    magnitudes overflowing the sum return.  A NaN skips abs(), which raises
    OverflowError on it when an earlier overflow left errno set."""
    sum(map(abs, filter(cmath.isfinite, values)))
    for v in values:
        if not cmath.isfinite(v):
            raise NonFiniteEntryError(f"non-finite value {v!r}")


def _permuted(rhs, pivots) -> List[complex]:
    """``rhs`` in the row order of an elimination whose step k swapped
    rows k and ``pivots[k]``."""
    perm = list(range(len(pivots) + 1))
    for k, p in enumerate(pivots):
        perm[k], perm[p] = perm[p], perm[k]
    return [rhs[p] for p in perm]


def _singular(pivot: float, k: int, scale: float) -> None:
    cond = float("inf") if pivot == 0.0 else scale / pivot
    raise SingularMatrixError(f"pivot {pivot:.3e} below threshold at elimination step {k}", cond)


@cache
def _generated(n: int, kinds: str) -> Callable:
    """The lines of :func:`kernel`'s elimination with a right-hand side whose
    kind is in ``kinds``, compiled: "a" works on the matrix, "b" on the
    right-hand side; "k" is only in the solve kernel, "f" only in the factor
    half of :func:`halves` and "l" only in its substitute half; a row swap's
    condition (kind "") is in all."""
    rows, body = range(n), []

    def add(kind: str, *lines: str) -> None:
        if kind in kinds:
            body.extend(lines)

    entries = "".join(f"a{i}_{j}, " for i in rows for j in rows)
    pivots = "".join(f"p{k}, " for k in rows[:-1])
    add("l", f"{entries}{pivots}= lu")
    add("a", *(f"{''.join(f'a{i}_{j}, ' for j in rows)}= a[{i}]" for i in rows),
        "try:",  # a zero entry can neither be the largest magnitude nor change the sum
        f"    magnitudes = [0.0, *map(abs, filter(None, ({entries})))]",
        "except OverflowError:",  # so does abs() of a NaN after an earlier overflow
        "    _reject_non_finite([v for row in a for v in row])",  # which raises
        "scale = max(magnitudes)",  # 0.0 first: an empty or all-zero matrix has scale 0.0
        "if not isfinite(sum(magnitudes)):",
        "    _reject_non_finite([v for row in a for v in row])",
        "threshold = rtol * scale")
    add("b", f"[{''.join(f'b{i}, ' for i in rows)}] = rhs", "try:",
        f"    finite = isfinite(0.0{''.join(f' + abs(b{i})' for i in rows)})",
        "except OverflowError:",  # raised by _reject_non_finite after the matrix's errors
        "    finite = False")
    for k in rows:
        add("a", f"pivot = abs(a{k}_{k})", *[f"p{k} = {k}"] * (k + 1 < n))
        for i in range(k + 1, n):
            add("a", f"if (x := abs(a{i}_{k})) > pivot:", f"    pivot, p{k} = x, {i}")
        add("a", "if pivot <= threshold or pivot == 0.0:", f"    _singular(pivot, {k}, scale)")
        for i in range(k + 1, n):
            head, row = (", ".join(f"a{r}_{j}" for j in range(k, n)) for r in (k, i))
            add("", f"{'if' if i == k + 1 else 'elif'} p{k} == {i}:")
            add("k", f"    {head}, b{k}, {row}, b{i} = {row}, b{i}, {head}, b{k}")
            add("f", f"    {head}, {row} = {row}, {head}")
            add("l", f"    b{k}, b{i} = b{i}, b{k}")
        for i in range(k + 1, n):  # a zero in the pivot column needs no elimination
            add("a", f"if a{i}_{k}:", f"    a{i}_{k} = a{i}_{k} / a{k}_{k}",
                *(f"    a{i}_{j} -= a{i}_{k} * a{k}_{j}" for j in range(k + 1, n)))
            add("b", f"b{i} -= a{i}_{k} * b{k}")
    add("b", "if not finite:", f"    _reject_non_finite(_permuted(rhs, ({pivots})))",
        *(f"b{k} = (b{k}{''.join(f' - a{k}_{j} * b{j}' for j in range(k + 1, n))}) / a{k}_{k}"
          for k in reversed(rows)), f"return [{', '.join(f'b{i}' for i in rows)}]")
    add("f", f"return ({entries}{pivots})")
    body = ["try:", *(f"    {line}" for line in body), "except OverflowError:",
            "    raise NonFiniteEntryError(_OVERFLOW) from None"]
    signature = "lu, a, rhs" if "l" in kinds else "a, rhs" if "b" in kinds else "a"
    return compile_function(signature, body, (), rtol=PIVOT_RTOL, abs=abs, filter=filter,
                            map=map, max=max, sum=sum, isfinite=isfinite,
                            OverflowError=OverflowError, NonFiniteEntryError=NonFiniteEntryError,
                            _OVERFLOW=_OVERFLOW, _reject_non_finite=_reject_non_finite,
                            _permuted=_permuted, _singular=_singular)


def kernel(n: int, solve: bool) -> Callable:
    """The elimination of an n x n matrix ``a`` (row lists): with ``solve``,
    ``f(a, rhs) -> x`` for n complex values ``rhs``; without, ``f(a)``,
    which checks that ``a`` is regular and returns its factorization, the
    factor half of :func:`halves`.

    Errors come in the order of a factorization followed by a
    substitution: the magnitude scan of ``a`` (:class:`NonFiniteEntryError`),
    then each step's pivot scan (an overflowing magnitude) and threshold
    (:class:`SingularMatrixError`), then the right-hand side, whose
    magnitudes are summed up front and checked after the last step, in the
    order of the pivot rows p<k>.  A multiplier the elimination skips (a
    zero in the pivot column) still updates b."""
    return _generated(n, "abk" if solve else "af")


def halves(n: int) -> Tuple[Callable, Callable]:
    """``kernel(n, True)`` as ``factor(a) -> lu``, the eliminated entries and
    pivot rows, with the matrix's errors, then ``substitute(lu, a, rhs) -> x``,
    which replays only the right-hand side's operations and errors, in order,
    and does not read ``a``: bit for bit a solve of the kernel."""
    return _generated(n, "af"), _generated(n, "lb")


def solve(matrix, rhs) -> List[complex]:
    """Solve ``matrix @ x = rhs`` (row lists or a 2-D array) with partial
    pivoting; raises what :func:`kernel` raises."""
    a = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    try:
        return kernel(len(a), True)(a, [complex(rhs[i]) for i in range(len(a))])
    except ValueError:  # a row of the wrong length fails to unpack
        raise ValueError("matrix must be square") from None
