"""Property tests on generated inputs: the complex LU, the solve path and
generated expression code, and classify under rescaling."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kahlermech import linalg
from kahlermech.constraints import closedness_test, constraint_set, frobenius_test
from kahlermech.dynamics import PhaseState, solve_semispray
from kahlermech.expressions import (
    COMPILED_DOMAIN_ERRORS,
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
    compile_function,
    emit,
    make_point,
    parse_expression,
    simplify,
)
from kahlermech.exterior import one_form
from kahlermech.real_oracle import realify_and_solve

import desksuite

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Entries are small Gaussian rationals (multiples of 1/8 + i/8 in the unit
# box): exact ties and zeros exercise pivot selection, and no product
# underflows.
_eighths = st.integers(-8, 8).map(lambda k: k / 8.0)
_entry = st.builds(complex, _eighths, _eighths)


@st.composite
def _square(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    rows = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return np.array(rows, dtype=complex)


@st.composite
def _well_conditioned_system(draw):
    A = draw(_square())
    n = A.shape[0]
    # Strict diagonal dominance: off-diagonal row sums stay below n - 1.
    A = A + (n + 1) * np.eye(n)
    b = np.array(draw(st.lists(_entry, min_size=n, max_size=n)), dtype=complex)
    return A, b


@st.composite
def _rank_deficient(draw):
    A = draw(_square(min_n=2))
    n = A.shape[0]
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    scalar = draw(_entry.filter(lambda c: abs(c) >= 0.125))
    A[j] = scalar * A[i]
    return A


@PROPERTY_SETTINGS
@given(_well_conditioned_system())
def test_lu_solve_agrees_with_numpy_on_well_conditioned_systems(system):
    A, b = system
    x = linalg.solve(A, b)
    assert np.max(np.abs(np.array(x) - np.linalg.solve(A, b))) < 1e-10


@PROPERTY_SETTINGS
@given(_rank_deficient())
def test_solve_rejects_a_repeated_row_times_a_scalar(A):
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve(A, np.ones(A.shape[0], dtype=complex))


_coordinate = st.builds(
    complex,
    st.floats(-1.2, 1.2, allow_subnormal=False),
    st.floats(-1.2, 1.2, allow_subnormal=False),
)


@pytest.mark.parametrize("entry", desksuite.NONSINGULAR, ids=lambda e: e.name)
def test_solve_agrees_with_the_real_oracle_on_random_states(entry):
    system = desksuite.build(entry.name)
    coords = st.lists(_coordinate, min_size=2 * entry.m, max_size=2 * entry.m)

    @PROPERTY_SETTINGS
    @given(coords)
    def check(values):
        z, w = values[:entry.m], values[entry.m:]
        assume(entry.guard is None or entry.guard(z, w))
        state = PhaseState(0.0, z, w)
        sol = solve_semispray(system, state)
        alt = realify_and_solve(system, state)
        gaps = [
            abs(a - b)
            for a, b in zip(sol.xi.components + sol.multipliers,
                            alt.xi.components + alt.multipliers)
        ]
        assert max(gaps) <= 1e-9

    check()


# ----------------------------------------------- generated code vs tree walker

_SYMBOLS = [Sym(kind, i) for kind in "zw" for i in (1, 2)]
_SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -1 + 0j,
            complex(-1.0, -0.0), 1e300 + 0j, complex(math.inf, 0.0), complex(math.nan, 1.0)]
_number = st.one_of(st.sampled_from(_SPECIAL), st.complex_numbers())
_value = st.one_of(st.sampled_from(_SPECIAL[:7]),
                   st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
_UNARY = [Neg, Sin, Cos, Exp, Log, Conj, Re, Im]
_BINARY = [Add, Sub, Mul, Div]


def _extend(children):
    return st.one_of(
        st.builds(lambda node, a: node(a), st.sampled_from(_UNARY), children),
        st.builds(lambda node, a, b: node(a, b), st.sampled_from(_BINARY), children, children),
        st.builds(Pow, children, st.integers(-3, 4)),
    )


_trees = st.recursive(st.one_of(st.sampled_from(_SYMBOLS), st.builds(Num, _number)),
                      _extend, max_leaves=12)


def _same(a: complex, b: complex) -> bool:
    """Equal parts with equal signs of zero; NaN matches NaN."""
    return all(
        (math.isnan(x) and math.isnan(y)) or (x == y and math.copysign(1, x) == math.copysign(1, y))
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_trees, st.lists(_value, min_size=4, max_size=4))
def test_generated_code_matches_the_tree_walker(e, values):
    z, w = tuple(values[:2]), tuple(values[2:])
    compiled = compile_function("z, w", [f"return {emit(e)}"], _SYMBOLS)
    try:
        expected = e.evaluate(make_point(z, w))
    except EvalDomainError:
        with pytest.raises(COMPILED_DOMAIN_ERRORS):
            compiled(z, w)
        return
    assert _same(compiled(z, w), expected)


# ------------------------------------------------ classify under rescaling

_CLASSIFY_SETS = [
    ["1 ; 0 ; 0 ; 0"],  # dz1: closed
    ["w1 ; 0 ; 0 ; 0"],  # w1 dz1: locally holonomic
    ["0 - z2 ; 0 ; 1 ; 0 ; 0 ; 0"],  # dz3 - z2 dz1: anholonomic
    ["1 ; 0 ; z2 ; 0"],  # dz1 + z2 dw1
    ["1 ; 0 ; z2 ; 0", "0 ; 1 ; 0 ; 0"],
    ["1 ; w3 ; 0 ; z2*z3 ; 0 ; conj(z1)", "0 ; exp(z1) ; 1 ; 0 ; w1^2 ; 0"],
]


def _forms(texts, scale=None, index=0):
    m = len(texts[0].split(";")) // 2
    forms = []
    for a, text in enumerate(texts):
        coefficients = [parse_expression(c, m) for c in text.split(";")]
        if a == index and scale is not None:
            coefficients = [simplify(Num(scale) * c) for c in coefficients]
        forms.append(one_form(coefficients[:m], coefficients[m:]))
    return constraint_set(forms)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(range(len(_CLASSIFY_SETS))), st.integers(0, 1), st.integers(-6, 6),
       st.floats(0.0, 2 * math.pi))
def test_classify_verdict_is_invariant_under_rescaling_a_form(which, index, k, theta):
    texts = _CLASSIFY_SETS[which]
    scale = 10.0 ** k * cmath.exp(1j * theta)
    base = frobenius_test(_forms(texts), samples=20, seed=which)
    scaled_set = _forms(texts, scale, index % len(texts))
    scaled = frobenius_test(scaled_set, samples=20, seed=which)
    assert (scaled.verdict, scaled.closed) == (base.verdict, base.closed)
    assert closedness_test(scaled_set, samples=20, seed=which) == list(base.closed)
