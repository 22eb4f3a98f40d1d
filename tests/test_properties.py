"""Property tests on generated inputs: the complex LU, the solve path,
generated expression code, the printer, simplify and diff, classify
under rescaling, the front end on arbitrary and mutated text, and the CLI
on generated systems."""

import builtins
import cmath
import contextlib
import functools
import io
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kahlermech import cli, linalg
from kahlermech.constraints import closedness_test, constraint_set, frobenius_test
from kahlermech.dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    NonHolomorphicLagrangian,
    PhaseState,
    SingularKahlerMatrix,
    integrate,
    solve_semispray,
)
from kahlermech.expressions import (
    COMPILED_DOMAIN_ERRORS,
    Add,
    Conj,
    Cos,
    Div,
    EvalDomainError,
    Exp,
    Expr,
    Im,
    Log,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Re,
    Sin,
    Sub,
    Sym,
    as_expr,
    compile_function,
    diff,
    emit,
    make_point,
    parse_expression,
    simplify,
    walk,
)
from kahlermech.exterior import exterior_derivative, one_form
from kahlermech.real_oracle import gauss_jordan_stack, realify_and_solve
from kahlermech.systemfile import KNOWN_TOLERANCES, SystemFileError, parse_system_file

import desksuite
from check_reference import EliminationFailure, gauss_jordan_solve, reference_gauss_jordan
from expressions_reference import reference_diff, reference_simplify
from linalg_reference import reference_lu_factor, reference_lu_solve
from fdtools import expr_evaluator, first_fd
from integrate_reference import record, reference_integrate
from kahler_reference import vertical_d

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


# --------------------------------- generated elimination kernels vs the loops

_LU_ZEROS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
_LU_SPECIAL = [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 1.0),
               1.7e308 * (1 + 1j), 1.5e308 + 0j]
_LU_KINDS = ["regular", "sparse", "ties", "zero_column", "deficient", "near", "threshold",
             "tiny", "special", "deficient_bad_rhs"]


def _lu_case(rng, n, kind):
    """A complex n x n matrix and rhs of one kind, as row lists.  Entries are
    Gaussian multiples of 1/8, so ties and exact zeros are common.  A quarter
    of the right-hand sides of every kind get up to two infinite, NaN or
    overflowing entries, which a solve checks in its pivot order."""
    A = (rng.integers(-8, 9, (n, n)) + 1j * rng.integers(-8, 9, (n, n))) / 8.0
    b = (rng.integers(-8, 9, n) + 1j * rng.integers(-8, 9, n)) / 8.0
    if kind == "sparse":  # signed zeros that a skipped row must keep
        mask = rng.random((n, n)) < 0.6
        A[mask] = [_LU_ZEROS[k] for k in rng.integers(0, 4, mask.sum())]
        b[rng.random(n) < 0.4] = complex(-0.0, -0.0)
    elif kind == "ties":
        A = np.array([[1, -1, 1j, -1j][k] for k in rng.integers(0, 4, n * n)]).reshape(n, n)
    elif kind == "zero_column":  # signed zeros in the first column, all of it in half the cases
        rows = rng.random(n) < (1.0 if rng.random() < 0.5 else 0.7)
        A[rows, 0] = [_LU_ZEROS[k] for k in rng.integers(0, 4, rows.sum())]
    elif kind in ("deficient", "near", "deficient_bad_rhs") and n > 1:
        i, j = rng.choice(n, 2, replace=False)
        A[j] = 0.5j * A[i]
        if kind == "near":  # a last pivot around PIVOT_RTOL times the scale
            A[j, rng.integers(0, n)] += rng.choice([0.25, 1.0, 4.0]) * 1e-12 * np.abs(A).max()
    elif kind == "threshold":  # triangular: the pivots are the diagonal
        A = np.triu(A, 1) + np.diag(rng.choice([-1.0, 1.0], n))
        bound = linalg.PIVOT_RTOL * np.abs(A).max()
        k = rng.integers(0, n)
        A[k, k] = rng.choice([bound, np.nextafter(bound, 1.0)])
    elif kind == "tiny":
        A *= 1e-300
    elif kind == "special":  # infinite, NaN and overflowing magnitudes
        for _ in range(rng.integers(1, 3)):
            target = A if rng.random() < 0.7 else b[None]
            index = tuple(rng.integers(0, s) for s in target.shape)
            target[index] = _LU_SPECIAL[rng.integers(0, len(_LU_SPECIAL))]
    if kind == "deficient_bad_rhs" or rng.random() < 0.25:
        for i in rng.choice(n, min(n, 2), replace=False):
            b[i] = _LU_SPECIAL[rng.integers(0, len(_LU_SPECIAL))]
    return A.tolist(), b.tolist()


def _lu_outcome(f, *args):
    """The exact result or error, signs of zeros included."""
    try:
        return repr(f(*args))
    except linalg.SingularMatrixError as err:
        return ("singular", str(err), repr(err.condition_estimate))
    except linalg.NonFiniteEntryError as err:
        return ("non-finite", str(err))


def _reference_solve(A, b):
    lu, perm, _ = reference_lu_factor(A)
    return reference_lu_solve(lu, perm, b)


@pytest.mark.parametrize("n", range(1, 25))
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_generated_lu_kernels_equal_the_loop_reference_bitwise(n, seed):
    # Both uses of the kernel of each size, on every kind at 6 seeds: a
    # check is the loop factorization's error or returns, and a solve is the
    # loop factorization then substitution, error or vector, bit for bit.
    # So is the check's factorization followed by the substitute half.
    rng, (factor, substitute) = np.random.default_rng(seed), linalg.halves(n)
    for kind in _LU_KINDS:
        A, b = _lu_case(rng, n, kind)
        before = repr((A, b))
        factored = _lu_outcome(reference_lu_factor, A)
        checked = _lu_outcome(linalg.kernel(n, False), A)
        assert isinstance(checked, str) if isinstance(factored, str) else checked == factored
        solved = _lu_outcome(linalg.kernel(n, True), A, b)
        assert solved == _lu_outcome(_reference_solve, A, b)
        assert _lu_outcome(lambda A, b: substitute(factor(A), A, b), A, b) == solved
        assert _lu_outcome(linalg.solve, np.array(A), np.array(b)) == solved
        assert repr((A, b)) == before


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


# ------------------------------------------ stacked real-split elimination


def _member(rng, n, kind):
    """A real n x n system of one kind; entries are multiples of 1/8, so
    pivot ties and exact zeros are common.  Sparse members also make
    negative zeros, which an elimination that touched rows with a zero in
    the pivot column would flip.  A huge member has rank at most one and
    entries near 1e300: its threshold stays above a unit pivot after it
    fails, so only its first failure may set its condition estimate."""
    A = rng.integers(-8, 9, (n, n)) / 8.0
    b = rng.integers(-8, 9, n) / 8.0
    if kind == "sparse":
        A[rng.random((n, n)) < 0.7] = 0.0
        A[np.diag_indices(n)] = rng.choice([-1.0, 1.0], n)
        b[rng.random(n) < 0.5] = 0.0
    elif kind == "zero":
        A[:] = 0.0
    elif kind == "deficient":
        i, j = rng.choice(n, 2, replace=False) if n > 1 else (0, 0)
        A[j] = 0.5 * A[i] if i != j else 0.0
    elif kind == "tiny":
        A *= 1e-300
    elif kind == "huge":
        A[1:] = 0.0
        A *= 1e300
    return A, b


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@PROPERTY_SETTINGS
@given(
    st.integers(1, 24),
    st.lists(st.sampled_from(["regular", "sparse", "zero", "deficient", "tiny", "huge"]),
             min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_a_stack_eliminates_each_member_as_it_would_alone(n, kinds, seed):
    rng = np.random.default_rng(seed)
    members = [_member(rng, n, kind) for kind in kinds]
    x, cond = gauss_jordan_stack(np.array([A for A, _ in members]),
                                 np.array([b for _, b in members]))
    for (A, b), xi, ci in zip(members, x, cond):
        try:
            expected = reference_gauss_jordan(A, b)
        except EliminationFailure as err:
            assert _bits(ci) == _bits(err.condition_estimate)
            assert np.isnan(xi).all()
            with pytest.raises(EliminationFailure) as alone:
                gauss_jordan_solve(A, b)
            assert _bits(alone.value.condition_estimate) == _bits(err.condition_estimate)
        else:
            assert np.isnan(ci)
            assert _bits(xi) == _bits(expected)
            assert _bits(gauss_jordan_solve(A, b)) == _bits(expected)


# ----------------------------------------------- generated code vs tree walker

_SYMBOLS = [Sym(kind, i) for kind in "zw" for i in (1, 2)]
_SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -1 + 0j,
            complex(-1.0, -0.0), 1e300 + 0j, complex(math.inf, 0.0), complex(math.nan, 1.0)]
_number = st.one_of(st.sampled_from(_SPECIAL), st.complex_numbers())
_value = st.one_of(st.sampled_from(_SPECIAL[:7]),
                   st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
_UNARY = [Neg, Sin, Cos, Exp, Log, Conj, Re, Im]
_BINARY = [Add, Sub, Mul, Div]


def _extend(children, unary=_UNARY):
    return st.one_of(
        st.builds(lambda node, a: node(a), st.sampled_from(unary), children),
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
    lines, names, _ = emit(e)
    compiled = compile_function("z, w", lines, _SYMBOLS, **names)
    try:
        expected = e.evaluate(make_point(z, w))
    except EvalDomainError:
        with pytest.raises(COMPILED_DOMAIN_ERRORS):
            compiled(z, w)
        return
    assert _same(compiled(z, w), expected)


# ------------------------------------------------- printer, simplify, diff

# NaN has no literal in the grammar; infinity prints as 1e999.
_printable_number = st.one_of(st.sampled_from([v for v in _SPECIAL if not cmath.isnan(v)]),
                              st.complex_numbers(allow_nan=False))
_printable_trees = st.recursive(
    st.one_of(st.sampled_from(_SYMBOLS), st.builds(Num, _printable_number)), _extend, max_leaves=12
)
_OPERATORS = {"+": Add, "-": Sub, "*": Mul, "/": Div}


def _is_bare_imaginary(e) -> bool:
    """A Num the printer writes as ``b*i`` where a product does not group it."""
    return isinstance(e, Num) and e.value.real == 0 and e.value.imag > 0 and e.value.imag != 1


def _items(e, level):
    """The operands the printer joins with level-1 (+ -) or level-2 (* /)
    operators and no parentheses, as (operator, parsed operand) pairs."""
    if isinstance(e, Add if level == 1 else Mul):
        (_, first), *rest = _items(e.right, level)
        return _items(e.left, level) + [("+" if level == 1 else "*", first)] + rest
    if isinstance(e, Sub if level == 1 else Div):
        return _items(e.left, level) + [(e._symbol, _reparsed(e.right))]
    if level == 2 and isinstance(e, Pow) and e.exponent < 0:
        return [(None, Num(1)), ("/", Pow(_reparsed(e.base), -e.exponent))]
    if level == 2 and _is_bare_imaginary(e):
        return [(None, Num(e.value.imag)), ("*", Num(1j))]
    return [(None, _reparsed(e))]


def _reparsed(e):
    """The tree the parser reads from ``str(e)``, derived from the tree: a
    negation is 0 - x, a complex literal a + b*i, x^-k is 1 / x^k, and
    chains of + or * that print without parentheses group to the left."""
    if isinstance(e, (Add, Sub)):
        level = 1
    elif isinstance(e, (Mul, Div)) or (isinstance(e, Pow) and e.exponent < 0) or _is_bare_imaginary(e):
        level = 2
    elif isinstance(e, Num):
        re, im = e.value.real, e.value.imag

        def signed(x, unit):
            magnitude = Num(abs(x)) if unit is None else Mul(Num(abs(x)), unit)
            magnitude = unit if abs(x) == 1 and unit is not None else magnitude
            return magnitude if x >= 0 else Sub(Num(0), magnitude)

        if im == 0:
            return signed(re, None)
        return signed(im, Num(1j)) if re == 0 else Add(signed(re, None), signed(im, Num(1j)))
    elif isinstance(e, Neg):
        return Sub(Num(0), _reparsed(e.arg))
    elif isinstance(e, Pow):
        return Pow(_reparsed(e.base), e.exponent)
    else:
        return e if isinstance(e, Sym) else type(e)(_reparsed(e.arg))
    (_, tree), *rest = _items(e, level)
    for op, operand in rest:
        tree = _OPERATORS[op](tree, operand)
    return tree


@PROPERTY_SETTINGS
@given(_printable_trees)
def test_printed_text_parses_back_to_the_same_tree(e):
    # The printer spells negation and signed literals within the grammar
    # and drops only the parentheses that the parser's grouping restores
    # or that associativity makes moot; nothing else changes.
    assert parse_expression(str(e), 2) == _reparsed(e)


def _substituted(e, point):
    """``e`` with every symbol replaced by its value at ``point``."""
    if isinstance(e, Sym):
        return Num(point[e])
    if isinstance(e, Pow):
        return Pow(_substituted(e.base, point), e.exponent)
    return type(e)(*(_substituted(a, point) for a in e.args)) if e.args else e


@PROPERTY_SETTINGS
@given(_trees, st.lists(_value, min_size=4, max_size=4))
def test_simplify_is_idempotent_and_keeps_values(e, values):
    simple = simplify(e)
    assert simplify(simple) == simple
    # Folding x*0 to 0 can define what was undefined, and x + 0 -> x can flip
    # the sign of a zero, which only log's branch cut tells apart.  So values
    # are compared where every subtree is finite, on trees without log.
    if any(isinstance(node, Log) for node in walk(e)):
        return
    point = make_point(values[:2], values[2:])
    try:
        if not all(cmath.isfinite(node.evaluate(point)) for node in walk(e)):
            return
    except EvalDomainError:
        return
    value = e.evaluate(point)
    assert simple.evaluate(point) == value
    # With the symbols' values in their place, every node folds.
    assert simplify(_substituted(e, point)) == Num(value)


def _same_tree(a, b, same_literal) -> bool:
    """Structural equality with literals compared by ``same_literal`` on
    their values (``Num(nan) != Num(nan)``)."""
    if isinstance(a, Num) and isinstance(b, Num):
        return same_literal(a.value, b.value)
    return (type(a) is type(b) and a._payload() == b._payload()
            and all(_same_tree(x, y, same_literal) for x, y in zip(a.args, b.args)))


def _up_to_zero_signs(a: complex, b: complex) -> bool:
    """Equal parts, where a zero may differ in sign; NaN matches NaN."""
    return all(x == y or (math.isnan(x) and math.isnan(y))
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_trees)
def test_derivatives_of_folded_trees_are_the_folded_raw_derivatives(e):
    # simplify is a rebuild through fold, with the rules of the one-walk
    # reference, signs of zeros included.
    folded = simplify(e)
    assert _same_tree(folded, reference_simplify(e), _same)
    for s in _SYMBOLS:
        # A derivative of a folded tree is folded: it is what folding the
        # raw derivative gives, up to the sign of a zero (0 - c*x folds to
        # -(c*x), whose derivative -(c) has the zero imaginary part -0).
        first = diff(folded, s)
        expected = reference_simplify(reference_diff(e, s))
        assert _same_tree(first, expected, _up_to_zero_signs)
        # The path of the blocks A, H and B: a second derivative of the
        # folded first one.
        for t in _SYMBOLS:
            second = reference_simplify(reference_diff(expected, t))
            assert _same_tree(diff(first, t), second, _up_to_zero_signs)


def _walked_depth(e) -> int:
    """The most nodes on a path down from ``e``, by an explicit stack walk."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((a, depth + 1) for a in node.args)
    return deepest


@PROPERTY_SETTINGS
@given(_trees)
def test_every_node_carries_its_height(e):
    # A node's height is set where it is built: here by the strategy's
    # constructors, by fold in simplify and by the rules of diff.
    folded = simplify(e)
    derivatives = [diff(tree, s) for tree in (e, folded) for s in _SYMBOLS]
    for tree in (e, folded, *derivatives):
        assert all(node.height == _walked_depth(node) for node in walk(tree))


# Parts are 0 or at least 1e-3 in size, so that no value of a derivative
# is subnormal and short of relative precision.
_fd_part = st.one_of(st.just(0.0), st.floats(1e-3, 1.2), st.floats(-1.2, -1e-3))
_fd_coordinate = st.builds(complex, _fd_part, _fd_part)
_holomorphic_trees = st.recursive(
    st.one_of(st.sampled_from(_SYMBOLS), st.builds(Num, _entry)),
    lambda children: _extend(children, [Neg, Sin, Cos, Exp, Log]),
    max_leaves=8,
)


@PROPERTY_SETTINGS
@given(_holomorphic_trees, st.lists(_fd_coordinate, min_size=4, max_size=4),
       st.sampled_from(range(len(_SYMBOLS))))
def test_diff_matches_central_differences(e, values, slot):
    # Slots of fdtools are (z1, z2, w1, w2), the order of _SYMBOLS.  The
    # difference of two step sizes estimates the finite difference's own
    # error: the finer one is off by about a third of it.  Where they differ
    # in the third digit the step does not resolve f (it straddles a pole or
    # a branch cut), and nothing is compared.  Roundoff adds about eps |f| / h.
    fn, z, w = expr_evaluator(e), tuple(values[:2]), tuple(values[2:])
    try:
        exact = diff(e, _SYMBOLS[slot]).evaluate(make_point(z, w))
        coarse, fine = (first_fd(fn, z, w, slot, h) for h in (1e-4, 5e-5))
        size = abs(fn(z, w))
    except EvalDomainError:
        return
    if not all(map(cmath.isfinite, (exact, coarse, fine, size))):
        return
    if abs(coarse - fine) > 1e-3 * (1 + abs(fine)):
        return
    assert abs(fine - exact) <= abs(coarse - fine) + 1e-9 * (1 + abs(exact) + size)


# (a + z_i)(b + w_j) + c: most trees alone have L_{z w} = 0.
_coupled_trees = st.builds(lambda a, z, b, w, c: Add(Mul(Add(a, z), Add(b, w)), c),
                           _holomorphic_trees, st.sampled_from(_SYMBOLS[:2]), _holomorphic_trees,
                           st.sampled_from(_SYMBOLS[2:]), _holomorphic_trees)


@PROPERTY_SETTINGS
@given(_coupled_trees, st.lists(_fd_coordinate, min_size=4, max_size=4))
def test_the_kahler_form_from_the_hessian_is_minus_d_of_d_j_l(e, values):
    # Phi_L is built as 2i L_{z_i w_j} on dz_i ^ dw_j and a literal 0 on
    # the same-type pairs; -d(d_J L) through the exterior layer is the
    # reference.  The two differentiate in different orders, so they agree
    # up to rounding, relative to the size of the second derivatives
    # (4e-16 at most over 1,500 examples).
    system = LagrangianSystem(2, e)
    reference = exterior_derivative(vertical_d(e, 2)).scaled(-1)
    point = make_point(values[:2], values[2:])
    try:
        second = [x.evaluate(point) for block in (system._A, system._H, system._B)
                  for row in block for x in row]
    except EvalDomainError:
        return
    scale = 1 + max(map(abs, second))
    for p in range(4):
        for q in range(p + 1, 4):
            entry = system.kahler_form.entry(p, q)
            if (p < 2) == (q < 2):
                assert isinstance(entry, Num) and repr(entry.value) == "0j"
            try:
                got, expected = (as_expr(c).evaluate(point) for c in (entry, reference.entry(p, q)))
            except EvalDomainError:
                continue
            if cmath.isfinite(got) and cmath.isfinite(expected):
                assert abs(got - expected) <= 1e-12 * scale


# ------------------------------------------ integrate against its reference

# Coordinates on the grid of eighths, or at and near the singular sets of
# log, quotients and negative powers (0 and small values) and of exp
# (where it overflows, past 709.78), or large enough that products overflow.
_NEAR_SINGULAR = [0j, complex(-0.0, 0.0), 1e-9 + 0j, complex(0.0, -1e-12), 0.0625 + 0j,
                  -0.03125j, 709.5 + 0j, complex(709.75, 0.5), 1e154 + 1e154j, 1e300 + 0j]
_start = st.one_of(_entry, st.sampled_from(_NEAR_SINGULAR))


# A pole term at a nonzero a on the grid, and the RK stage (2, 3 or 4) of
# the first step whose state the start is aimed to put on it.  The term is
# log(x - a) or 1/(x - a) in one coordinate x (a slot of _SYMBOLS), which
# puts the pole in A = L_zz or B = L_ww only, or w_j log(z_i - a), whose
# L_zw = 1/(z_i - a) puts it in H and so in Phi_L itself.
_at = st.sampled_from([0.5 + 0j, -0.25 + 0.5j, 1j, 0.75 - 0.125j])
_poles = st.one_of(
    st.tuples(st.sampled_from([Log, functools.partial(Div, Num(1))]), st.integers(0, 3), _at,
              st.integers(2, 4)),
    st.tuples(st.sampled_from([functools.partial(lambda w, x: Mul(w, Log(x)), w)
                               for w in _SYMBOLS[2:]]), st.integers(0, 1), _at, st.integers(2, 4)))
# A start: four coordinates, or four on the grid of eighths and a pole to aim at.
_starts = st.one_of(st.tuples(st.lists(_start, min_size=4, max_size=4), st.none()),
                    st.tuples(st.lists(_entry, min_size=4, max_size=4), _poles))


def _aimed(system, s0, dt, slot, pole, stage):
    """``s0`` with coordinate ``slot`` moved so that RK stage ``stage`` of
    the first step lands on ``pole``, or within rounding of it: the secant
    method on that coordinate of the stage state as a function of the
    start's.  The start ends about dt |k| from the pole.  The aim stops where
    a solve fails or a step no longer changes the miss."""
    m = system.m

    def start(x):
        values = [*s0.z, *s0.w]
        values[slot] = x
        return PhaseState(0.0, values[:m], values[m:])

    def miss(x):  # the stage state's coordinate minus the pole
        state = first = start(x)
        for h in (dt / 2, dt / 2, dt)[:stage - 1]:
            k = solve_semispray(system, state).xi.components
            state = PhaseState(h, [x + h * v for x, v in zip(first.z, k)],
                               [x + h * v for x, v in zip(first.w, k[m:])])
        return [*state.z, *state.w][slot] - pole

    x0 = x1 = [*s0.z, *s0.w][slot]
    f0 = None
    try:
        for _ in range(16):
            f1 = miss(x1)
            if f1 == 0 or f1 == f0:
                break
            x0, x1, f0 = x1, x1 - (f1 if f0 is None else f1 * (x1 - x0) / (f1 - f0)), f1
    except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError, OverflowError):
        pass
    return start(x1)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(_coupled_trees, st.sampled_from([1.0, 0.125, None]), st.booleans(),
       _starts, st.sampled_from([2.0, 0.5, 0.125]), st.integers(1, 8))
def test_integrate_records_what_its_reference_loop_records(e, weight, constrained, start, dt,
                                                           steps):
    # z1 w1 + z2 w2 plus weight * e keeps Phi_L regular away from the
    # singular sets of e (None: e alone); the constraints are the exchange
    # pair of the desk suite.  A pole term, where drawn, is added, and the
    # start aimed so that a stage inside the first step meets it.
    values, pole = start
    lagrangian = e if weight is None else Add(parse_expression("z1*w1 + z2*w2", 2),
                                              Mul(Num(weight), e))
    if pole is not None:
        kind, slot, a, stage = pole
        lagrangian = Add(lagrangian, kind(Sub(_SYMBOLS[slot], Num(a))))
    entry = desksuite.BY_NAME["exchange_constrained"]
    system = LagrangianSystem(2, lagrangian, desksuite.constraint_forms(entry) if constrained else ())
    s0 = PhaseState(0.0, values[:2], values[2:])
    if pole is not None:
        s0 = _aimed(system, s0, dt, slot, a, stage)
    outcomes = []
    for run in (integrate, reference_integrate):
        try:
            outcomes.append(record(run(system, s0, steps * dt, dt)))
        except Exception as err:  # an untyped error: the same type and message
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]


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
            coefficients = [simplify(Mul(Num(scale), c)) for c in coefficients]
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


def test_two_form_lower_entries_are_the_simplified_negated_upper_entries():
    # TwoForm mirrors with fold(Neg, c), which folds at the root only; on
    # the folded entries the package builds, it agrees with simplify(-c).
    forms = [desksuite.build(entry.name).kahler_form for entry in desksuite.ALL]
    forms += [exterior_derivative(form) for entry in desksuite.ALL
              for form in desksuite.constraint_forms(entry)]
    forms += [exterior_derivative(form) for texts in _CLASSIFY_SETS for form in _forms(texts).forms]
    for phi in forms:
        n = 2 * phi.m
        for p in range(n):
            for q in range(p + 1, n):
                assert phi.entry(q, p) == simplify(Neg(phi.entry(p, q)))


# ------------------------------------------------ the front end on any text

# Characters and a few words of the grammar, blanks and non-ASCII characters.
_EXPRESSION_PIECES = tuple("0123456789.eE+-*/()^zwiqx_ \t\u00a0\u0663\uff11\u00b2") + (
    "z1", "w2", "z3", "sin(", "exp", "log(")


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.lists(st.sampled_from(_EXPRESSION_PIECES), max_size=12).map("".join))
def test_any_text_parses_to_a_tree_or_a_parse_error(text):
    try:
        e = parse_expression(text, 2)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(e, Expr)


_JUNK = ("@", "=", "[", "]", ";", "z9", "1e", ".", "- -", "i i")
_NON_ASCII = ("\u00a0", "\u0663", "\uff11", "\u00e9", "\u00b2")
_EXTREMES = ("1e308", "-1e308", "1e999", "-1", "-0.5", "0", "9" * 40, "-" + "9" * 40)
# m is left alone: the parser allocates lists of length m.
_FIELDS = (("integrator", "t1"), ("integrator", "dt"), ("tolerances", KNOWN_TOLERANCES[0]),
           ("initial", "z1"), ("initial", "w1"), ("system", "seed"))


def _key(line):
    """The key of a ``key = value`` line, or None."""
    text = line.split("#", 1)[0].strip()
    return text.split("=", 1)[0].strip() if "=" in text and not text.startswith("[") else None


def _with_value(lines, section, key, value):
    """``lines`` with ``key = value`` in [section]: the key's line replaced,
    or the section reopened at the end."""
    current = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and _key(line) == key:
            return lines[:i] + [f"{key} = {value}"] + lines[i + 1:]
    return lines + [f"[{section}]", f"{key} = {value}"]


@st.composite
def _mutated_system_files(draw):
    """A shipped system file with one mutation, and the line a repeated key
    line must be reported at (or None)."""
    entry = draw(st.sampled_from(desksuite.ALL))
    lines = entry.system_file().read_text().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    keyed = [k for k, line in enumerate(lines) if _key(line) is not None]
    mutation = draw(st.sampled_from(["drop", "repeat", "swap", "junk", "non_ascii", "extreme"]))
    repeated = None
    if mutation == "drop":
        del lines[i]
    elif mutation == "repeat":
        i = draw(st.sampled_from(keyed))
        lines.insert(i + 1, lines[i])
        repeated = i + 2
    elif mutation == "swap":
        a, b = draw(st.sampled_from(keyed)), draw(st.sampled_from(keyed))
        (key_a, value_a), (key_b, value_b) = lines[a].split("=", 1), lines[b].split("=", 1)
        lines[a], lines[b] = f"{key_b}={value_a}", f"{key_a}={value_b}"
    elif mutation == "extreme":
        section, key = draw(st.sampled_from(_FIELDS))
        lines = _with_value(lines, section, key, draw(st.sampled_from(_EXTREMES)))
    else:
        token = draw(st.sampled_from(_JUNK if mutation == "junk" else _NON_ASCII))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + token + lines[i][at:]
    return "\n".join(lines) + "\n", repeated


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@PROPERTY_SETTINGS
@given(_mutated_system_files())
def test_a_mutated_system_file_is_a_spec_or_an_input_error(scratch_dir, mutated):
    text, repeated = mutated
    path = scratch_dir / "mutated.system"
    path.write_text(text, encoding="utf-8")
    try:
        parse_system_file(path).build_system()
    except SystemFileError as err:
        assert 1 <= err.line <= len(text.splitlines())
        if repeated is not None:
            assert err.line == repeated and "duplicate" in str(err)
    except (ValueError, NonHolomorphicLagrangian):
        pass
    else:
        assert repeated is None
        return
    # What fails to parse or build is an input error: exit 1, never 2.
    argv = ["simulate", "--system", str(path), "--out", str(scratch_dir / "out")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 1


# ------------------------------------------------ the CLI on generated systems

_BUILTIN_ERRORS = re.compile(r"\b(?:%s)\b" % "|".join(
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)))


def _literal(c: complex) -> str:
    return f"{c.real!r}{'-' if math.copysign(1, c.imag) < 0 else '+'}{abs(c.imag)!r}i"


_z1, _w1, _w2 = Sym("z", 1), Sym("w", 1), Sym("w", 2)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(_coupled_trees, st.sampled_from([1.0, None]), st.booleans(),
       st.lists(_start, min_size=4, max_size=4))
# Two draws of 300 that failed before: simulate's energy drift raised
# OverflowError, and check's two-form sum made numpy warn.
@example(e=Add(Mul(Add(_z1, _z1), Add(Exp(_z1), _w1)), _z1), weight=1.0, constrained=False,
         values=[0.25j, 0j, 1e300 + 0j, 0j])
@example(e=Add(Mul(Add(_z1, _z1), Add(Exp(_w2), _w1)), _z1), weight=1.0, constrained=False,
         values=[0j, 0j, 0j, 709.5 + 0j])
def test_the_cli_on_a_generated_system_exits_with_one_error_line_at_most(
        scratch_dir, e, weight, constrained, values):
    # The Lagrangians of the integrate property above, written as system
    # files: simulate, check and derive exit 0, 1 or 2, print at most one
    # stderr line, an "error:" one, and name no built-in exception class.
    lagrangian = e if weight is None else f"z1*w1 + z2*w2 + ({e})"
    lines = ["[system]", "m = 2", "[lagrangian]", f"L = {lagrangian}", "[initial]"]
    lines += [f"{kind}{i} = {_literal(c)}" for (kind, i), c in zip(
        [("z", 1), ("z", 2), ("w", 1), ("w", 2)], values)]
    lines += ["[integrator]", "t1 = 0.25", "dt = 0.125"]
    if constrained:
        lines += ["[constraints]"] + [
            f"{name} = {' ; '.join(a + b)}"
            for name, a, b in desksuite.BY_NAME["exchange_constrained"].constraints]
    path = scratch_dir / "drawn.system"
    path.write_text("\n".join(lines) + "\n")
    for command, extra in (("simulate", []), ("check", ["--samples", "2"]), ("derive", [])):
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = [command, "--system", str(path), "--out", str(scratch_dir / "out"), *extra]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        errors = stderr.getvalue().splitlines()
        assert code in (0, 1, 2), command
        assert len(errors) <= 1 and all(line.startswith("error:") for line in errors), errors
        assert not _BUILTIN_ERRORS.search(stdout.getvalue() + stderr.getvalue()), (
            command, stdout.getvalue(), stderr.getvalue())
