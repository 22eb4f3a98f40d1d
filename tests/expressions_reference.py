"""Reference for the folding constructor in ``kahlermech.expressions``.

The differentiation rules as they built raw trees, and ``simplify`` as it
folded a raw tree in one recursive walk, before every rule built through
``expressions.fold``.  Differentiating a folded tree must give what the
reference's ``simplify(diff(e, s))`` gives, up to the sign of a zero.
"""

from kahlermech.expressions import (
    Add,
    Conj,
    Cos,
    Div,
    EvalDomainError,
    Exp,
    Im,
    Log,
    Mul,
    Neg,
    Num,
    Pow,
    Re,
    Sin,
    Sub,
    Sym,
)

_ZERO = Num(0)
_ONE = Num(1)


def reference_diff(e, s):
    """The formal partial derivative, built from raw nodes."""
    if isinstance(e, Num):
        return Num(0)
    if isinstance(e, Sym):
        return Num(1 if e == s else 0)
    if isinstance(e, (Conj, Re, Im)):
        return Num(0)
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(0)
        return Mul(Mul(Num(e.exponent), Pow(e.base, e.exponent - 1)), reference_diff(e.base, s))
    if isinstance(e, (Add, Sub)):
        return type(e)(reference_diff(e.left, s), reference_diff(e.right, s))
    if isinstance(e, Mul):
        return Add(Mul(reference_diff(e.left, s), e.right), Mul(e.left, reference_diff(e.right, s)))
    if isinstance(e, Div):
        return Div(
            Sub(Mul(reference_diff(e.left, s), e.right), Mul(e.left, reference_diff(e.right, s))),
            Pow(e.right, 2),
        )
    inner = reference_diff(e.arg, s)
    if isinstance(e, Neg):
        return Neg(inner)
    if isinstance(e, Sin):
        return Mul(Cos(e.arg), inner)
    if isinstance(e, Cos):
        return Mul(Neg(Sin(e.arg)), inner)
    if isinstance(e, Exp):
        return Mul(Exp(e.arg), inner)
    if isinstance(e, Log):
        return Div(inner, e.arg)
    raise TypeError(f"unknown node {e!r}")


def reference_simplify(e):
    """Constant folding plus the unit/zero laws, applied bottom-up."""
    if isinstance(e, (Num, Sym)):
        return e
    if isinstance(e, Pow):
        base = reference_simplify(e.base)
        if e.exponent == 0:
            return _ONE
        if e.exponent == 1:
            return base
        if isinstance(base, Num) and not (base.value == 0 and e.exponent < 0):
            try:
                return Num(base.value ** e.exponent)
            except (OverflowError, ZeroDivisionError):
                pass
        return Pow(base, e.exponent)
    if len(e.args) == 1:
        arg = reference_simplify(e.arg)
        if isinstance(e, Neg):
            if isinstance(arg, Num):
                return Num(-arg.value)
            if isinstance(arg, Neg):
                return arg.arg
            return Neg(arg)
        if isinstance(arg, Num):
            if isinstance(e, Conj):
                return Num(arg.value.conjugate())
            if isinstance(e, Re):
                return Num(arg.value.real)
            if isinstance(e, Im):
                return Num(arg.value.imag)
            if not (isinstance(e, Log) and arg.value == 0):
                try:
                    return Num(type(e)(arg).evaluate({}))
                except EvalDomainError:
                    pass
        return type(e)(arg)
    left = reference_simplify(e.left)
    right = reference_simplify(e.right)
    lnum = left.value if isinstance(left, Num) else None
    rnum = right.value if isinstance(right, Num) else None
    if isinstance(e, Add):
        if lnum == 0:
            return right
        if rnum == 0:
            return left
        if lnum is not None and rnum is not None:
            return Num(lnum + rnum)
        return Add(left, right)
    if isinstance(e, Sub):
        if rnum == 0:
            return left
        if lnum is not None and rnum is not None:
            return Num(lnum - rnum)
        if lnum == 0:
            return reference_simplify(Neg(right))
        return Sub(left, right)
    if isinstance(e, Mul):
        if lnum == 0 or rnum == 0:
            return _ZERO
        if lnum == 1:
            return right
        if rnum == 1:
            return left
        if lnum is not None and rnum is not None:
            return Num(lnum * rnum)
        return Mul(left, right)
    if isinstance(e, Div):
        if lnum == 0:
            return _ZERO
        if rnum == 1:
            return left
        if lnum is not None and rnum is not None and rnum != 0:
            return Num(lnum / rnum)
        return Div(left, right)
    raise TypeError(f"unknown node {e!r}")
