"""Exterior calculus on a flat chart with a complex structure.

The cobasis is ordered (dz1..dzm, dw1..dwm); index p in 0..2m-1 refers to
dz(p+1) for p < m and dw(p-m+1) otherwise.  One- and two-form coefficients
are either plain complex numbers (an evaluated form) or :class:`Expr`
fields (a symbolic form); the operations below accept both and promote to
symbolic when the inputs are mixed.

The complex structure J acts on vectors by multiplying holomorphic
components by i and fibre components by -i, and on covectors by dz -> i dz,
dw -> -i dw.  The vertical differential of a scalar field f is

    d_J f = i (df/dz_k) dz_k - i (df/dw_k) dw_k

(the Kahler form's test reference builds Phi_L = -d d_J L from it), and
the exterior derivative of a one-form with coefficients c_p is the
antisymmetric matrix K[p][q] = d_p c_q - d_q c_p.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, List, Mapping, Sequence, Tuple, Union

from ._numpy import np
from ._record import record
from .expressions import Add, Expr, Mul, Neg, Num, Sub, Sym, as_expr, diff, evaluate, fold, simplify

Coef = Union[Expr, complex]


def coordinate_symbol(p: int, m: int) -> Sym:
    """The coordinate symbol for slot p in the (dz.., dw..) ordering."""
    if not 0 <= p < 2 * m:
        raise IndexError(f"slot {p} out of range for m={m}")
    if p < m:
        return Sym("z", p + 1)
    return Sym("w", p - m + 1)


def _coef_scale(c: Coef, s: complex) -> Coef:
    if isinstance(c, Expr):
        return fold(Mul, Num(s), c)
    return s * c


def _coef_sum(terms: Sequence[Coef]) -> Coef:
    if any(isinstance(t, Expr) for t in terms):
        return reduce(lambda acc, t: fold(Add, acc, as_expr(t)), terms, Num(0))
    return sum(terms, 0j)


@record(frozen=True)
class VectorField:
    """A tangent vector at a point: m holomorphic and m fibre components."""

    hol: Tuple[complex, ...]
    fib: Tuple[complex, ...]

    def __post_init__(self):
        if len(self.hol) != len(self.fib):
            raise ValueError("holomorphic and fibre parts must have equal length")

    @property
    def m(self) -> int:
        return len(self.hol)

    @property
    def components(self) -> Tuple[complex, ...]:
        return tuple(self.hol) + tuple(self.fib)


def vector(hol: Sequence[complex], fib: Sequence[complex]) -> VectorField:
    return VectorField(tuple(complex(c) for c in hol), tuple(complex(c) for c in fib))


@record(frozen=True)
class OneForm:
    """A one-form: coefficients a_k on dz_k and b_k on dw_k."""

    a: Tuple[Coef, ...]
    b: Tuple[Coef, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("dz and dw coefficient lists must have equal length")

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def coefficients(self) -> Tuple[Coef, ...]:
        return tuple(self.a) + tuple(self.b)

    def coefficient_vector(self, point=None) -> np.ndarray:
        """Evaluated coefficients as a length-2m complex array."""
        out = np.empty(2 * self.m, dtype=complex)
        for p, c in enumerate(self.coefficients):
            if isinstance(c, Expr):
                if point is None:
                    raise ValueError("symbolic coefficients need an evaluation point")
                out[p] = evaluate(c, point)
            else:
                out[p] = c
        return out

    def __call__(self, v: VectorField, point=None) -> complex:
        if v.m != self.m:
            raise ValueError("dimension mismatch between form and vector")
        coeffs = self.coefficient_vector(point)
        return complex(np.dot(coeffs, np.asarray(v.components)))


def one_form(a: Sequence[Coef], b: Sequence[Coef]) -> OneForm:
    return OneForm(tuple(a), tuple(b))


class TwoForm:
    """An antisymmetric two-form on the 2m-dimensional chart.

    Stored as the full coefficient matrix K with
    Phi = sum_{p<q} K[p][q] e^p wedge e^q; the constructor mirrors the
    strict upper triangle, so K is antisymmetric by construction.  Symbolic
    entries are expected folded, as :func:`exterior_derivative` builds
    them; the mirror, :meth:`scaled` and :func:`contract` fold only at the
    root, so they keep such entries folded without a new walk.
    """

    def __init__(self, m: int, upper: Callable[[int, int], Coef]):
        self.m = m
        n = 2 * m
        rows: List[List[Coef]] = [[0j] * n for _ in range(n)]
        for p in range(n):
            for q in range(p + 1, n):
                c = upper(p, q)
                rows[p][q] = c
                rows[q][p] = fold(Neg, c) if isinstance(c, Expr) else -c
        self.entries: Tuple[Tuple[Coef, ...], ...] = tuple(tuple(r) for r in rows)

    def entry(self, p: int, q: int) -> Coef:
        return self.entries[p][q]

    def as_matrix(self, point=None) -> np.ndarray:
        n = 2 * self.m
        out = np.zeros((n, n), dtype=complex)
        for p in range(n):
            for q in range(n):
                c = self.entries[p][q]
                if isinstance(c, Expr):
                    if point is None:
                        raise ValueError("symbolic entries need an evaluation point")
                    out[p, q] = evaluate(c, point)
                else:
                    out[p, q] = c
        return out

    def scaled(self, s: complex) -> "TwoForm":
        return TwoForm(self.m, lambda p, q: _coef_scale(self.entries[p][q], s))


# ---------------------------------------------------------------------------
# The complex structure


def apply_J_vector(v: VectorField) -> VectorField:
    """J on vectors: holomorphic components times i, fibre times -i."""
    return VectorField(
        tuple(1j * c for c in v.hol),
        tuple(-1j * c for c in v.fib),
    )


def apply_J_covector(alpha: OneForm) -> OneForm:
    """Dual action on covectors: dz -> i dz, dw -> -i dw."""
    return OneForm(
        tuple(_coef_scale(c, 1j) for c in alpha.a),
        tuple(_coef_scale(c, -1j) for c in alpha.b),
    )


def exterior_derivative(alpha: OneForm) -> TwoForm:
    """d of a one-form; constant coefficients are treated as literals.  The
    coefficients are folded once, so every entry comes out folded."""
    m = alpha.m
    coeffs = tuple(simplify(as_expr(c)) for c in alpha.coefficients)

    def upper(p: int, q: int) -> Coef:
        return fold(Sub, diff(coeffs[q], coordinate_symbol(p, m)),
                    diff(coeffs[p], coordinate_symbol(q, m)))

    return TwoForm(m, upper)


def contract(phi: TwoForm, v: VectorField) -> OneForm:
    """Interior product i_v Phi, a one-form with slot q value sum_p v^p K[p][q];
    Phi(X, Y) is ``contract(phi, x)(y, point)``."""
    if v.m != phi.m:
        raise ValueError("dimension mismatch between two-form and vector")
    comps = v.components
    n = 2 * phi.m
    out: List[Coef] = []
    for q in range(n):
        out.append(_coef_sum([_coef_scale(phi.entries[p][q], comps[p]) for p in range(n)]))
    return OneForm(tuple(out[: phi.m]), tuple(out[phi.m:]))
