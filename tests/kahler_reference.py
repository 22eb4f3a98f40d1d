"""Reference for :attr:`kahlermech.dynamics.LagrangianSystem.kahler_form`.

The system builds Phi_L from the Hessian block H = L_zw.  The reference
takes the definition instead, Phi_L = -d d_J L, through the exterior
layer: ``exterior_derivative(vertical_d(L, m)).scaled(-1)``.
"""

from kahlermech.expressions import Expr, Mul, Num, Sym, diff, fold, simplify
from kahlermech.exterior import OneForm


def vertical_d(f: Expr, m: int) -> OneForm:
    """The twisted differential i (df/dz_k) dz_k - i (df/dw_k) dw_k."""
    f = simplify(f)
    a = tuple(fold(Mul, Num(1j), diff(f, Sym("z", k))) for k in range(1, m + 1))
    b = tuple(fold(Mul, Num(-1j), diff(f, Sym("w", k))) for k in range(1, m + 1))
    return OneForm(a, b)
