"""Structure operator, vertical differential and exterior derivative."""

import random

import numpy as np
import pytest

from kahlermech.exterior import (
    apply_J_covector,
    apply_J_vector,
    contract,
    coordinate_symbol,
    exterior_derivative,
    one_form,
    vector,
)
from kahlermech.expressions import (
    Num,
    Sym,
    evaluate,
    make_point,
    parse_expression,
)
from fdtools import expr_evaluator, first_fd
from kahler_reference import check_hermitian_compatibility, vertical_d


def _random_vector(rng: random.Random, m: int):
    return vector(
        [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)],
        [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)],
    )


def _random_covector(rng: random.Random, m: int):
    return one_form(
        [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)],
        [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)],
    )


# ---------------------------------------------------------------- structure


def test_structure_squares_to_minus_identity_on_vectors():
    rng = random.Random(1)
    for _ in range(500):
        m = rng.randint(1, 3)
        v = _random_vector(rng, m)
        vv = apply_J_vector(apply_J_vector(v))
        # Two successive multiplications by +-i are exact in IEEE arithmetic.
        assert vv.hol == tuple(-c for c in v.hol)
        assert vv.fib == tuple(-c for c in v.fib)


def test_structure_squares_to_minus_identity_on_covectors():
    rng = random.Random(2)
    for _ in range(500):
        m = rng.randint(1, 3)
        alpha = _random_covector(rng, m)
        back = apply_J_covector(apply_J_covector(alpha))
        vec = back.coefficient_vector()
        ref = alpha.coefficient_vector()
        assert np.array_equal(vec, -ref)


def test_structure_component_action():
    v = vector([1 + 2j], [3 - 1j])
    jv = apply_J_vector(v)
    assert jv.hol == (1j * (1 + 2j),)
    assert jv.fib == (-1j * (3 - 1j),)
    alpha = one_form([2.0], [1 + 1j])
    ja = apply_J_covector(alpha)
    assert np.allclose(ja.coefficient_vector(), [2j, -1j * (1 + 1j)], atol=0)


def test_coordinate_symbol_ordering():
    assert coordinate_symbol(0, 2) == Sym("z", 1)
    assert coordinate_symbol(1, 2) == Sym("z", 2)
    assert coordinate_symbol(2, 2) == Sym("w", 1)
    assert coordinate_symbol(3, 2) == Sym("w", 2)


# ---------------------------------------------------------------- vertical d


def test_vertical_d_of_bilinear():
    f = parse_expression("z1*w1", 1)
    alpha = vertical_d(f, 1)
    point = make_point((2.0,), (5.0,))
    # i*f_z dz - i*f_w dw evaluated at z=2, w=5.
    assert np.allclose(alpha.coefficient_vector(point), [5j, -2j], atol=1e-15)


def test_vertical_d_multidimensional():
    f = parse_expression("z1^2*w2 + z2*w1", 2)
    alpha = vertical_d(f, 2)
    z = (1.0 + 1.0j, 0.5)
    w = (2.0, -1.0j)
    point = make_point(z, w)
    expected = [
        1j * (2 * z[0] * w[1]),
        1j * w[0],
        -1j * z[1],
        -1j * z[0] ** 2,
    ]
    assert np.allclose(alpha.coefficient_vector(point), expected, atol=1e-14)


def test_one_form_pairs_with_vectors():
    alpha = one_form([2.0, 0.0], [0.0, parse_expression("z1", 2)])
    v = vector([1.0, 5.0], [0.0, 3.0])
    point = make_point((4.0, 0.0), (0.0, 0.0))
    assert alpha(v, point) == 2.0 * 1.0 + 4.0 * 3.0


# ------------------------------------------------------- exterior derivative


def test_exterior_derivative_of_momentum_form():
    # d(w1 dz1) pairs the velocity direction against the position one.
    alpha = one_form([parse_expression("w1", 1)], [0.0])
    K = exterior_derivative(alpha).as_matrix(make_point((0.3,), (0.7,)))
    assert np.array_equal(K, np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))


def test_exterior_derivative_of_closed_forms_vanishes():
    point = make_point((1.2, -0.3), (0.4, 2.0))
    # Exact forms: d(z1^2/2) = z1 dz1 and constant-coefficient forms.
    for a, b in [
        ([parse_expression("z1", 2), 0.0], [0.0, 0.0]),
        ([1.0, 2.0 + 1.0j], [3.0, -1.0]),
        # d(z1*w2) expanded by hand.
        ([parse_expression("w2", 2), 0.0], [0.0, parse_expression("z1", 2)]),
    ]:
        K = exterior_derivative(one_form(a, b)).as_matrix(point)
        assert np.max(np.abs(K)) == 0.0


def test_exterior_derivative_matches_finite_differences():
    rng = random.Random(9)
    m = 2
    texts = ["z1*w1", "z2^2", "sin(z1)*w2", "exp(0.5*w1)", "z1*z2*w1"]
    for _ in range(6):
        coeffs = [parse_expression(rng.choice(texts), m) for _ in range(2 * m)]
        alpha = one_form(coeffs[:m], coeffs[m:])
        K_form = exterior_derivative(alpha)
        z = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m))
        w = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m))
        K = K_form.as_matrix(make_point(z, w))
        evals = [expr_evaluator(c) for c in coeffs]
        for p in range(2 * m):
            for q in range(2 * m):
                fd = first_fd(evals[q], z, w, p) - first_fd(evals[p], z, w, q)
                assert abs(K[p, q] - fd) < 1e-7


# ---------------------------------------------------------------- two-forms


def test_two_form_antisymmetry_is_exact():
    f = parse_expression("exp(z1*w1) + z1^3*w1", 1)
    K_form = exterior_derivative(vertical_d(f, 1))
    rng = random.Random(3)
    for _ in range(20):
        point = make_point(
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),),
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),),
        )
        K = K_form.as_matrix(point)
        assert np.max(np.abs(K + K.T)) == 0.0


def test_two_form_from_matrix_round_trip():
    from kahlermech.exterior import TwoForm

    M = np.array([[0.0, 2j], [-2j, 0.0]])
    form = TwoForm(1, lambda p, q: complex(M[p, q]))
    assert np.array_equal(form.as_matrix(), M)
    assert form.entry(0, 1) == 2j
    scaled = form.scaled(-1)
    assert np.array_equal(scaled.as_matrix(), -M)
    assert np.array_equal(TwoForm(2, lambda p, q: 0j).as_matrix(), np.zeros((4, 4)))


def test_contract_against_hand_values():
    from kahlermech.exterior import TwoForm

    phi = TwoForm(1, lambda p, q: 2j)
    v = vector([3.0 + 1.0j], [0.5 - 2.0j])
    alpha = contract(phi, v)
    # (i_v Phi)_q = sum_p v_p K[p, q]
    expected = [(0.5 - 2.0j) * (-2j), (3.0 + 1.0j) * 2j]
    assert np.allclose(alpha.coefficient_vector(), expected, atol=1e-15)


def test_evaluate_two_form_is_antisymmetric_and_bilinear():
    f = parse_expression("z1*w1 + (1/2)*(z1*w1)^2", 1)
    phi = exterior_derivative(vertical_d(f, 1)).scaled(-1)
    rng = random.Random(4)
    point = make_point((0.4 + 0.1j,), (0.7 - 0.2j,))
    for _ in range(10):
        x = _random_vector(rng, 1)
        y = _random_vector(rng, 1)
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        xy = contract(phi, x)(y, point)
        yx = contract(phi, y)(x, point)
        assert abs(xy + yx) < 1e-14
        via_matrix = np.asarray(x.components) @ phi.as_matrix(point) @ np.asarray(y.components)
        assert abs(xy - via_matrix) < 1e-13
        sx = vector([s * c for c in x.hol], [s * c for c in x.fib])
        assert abs(contract(phi, sx)(y, point) - s * xy) < 1e-12


# ------------------------------------------------------------- compatibility


def test_identity_metric_is_compatible():
    rng = random.Random(6)
    pairs = [(_random_vector(rng, 2), _random_vector(rng, 2)) for _ in range(1000)]
    report = check_hermitian_compatibility(np.eye(4), pairs)
    assert report.samples_checked == 1000
    assert report.max_metric_deviation <= 1e-12
    assert report.max_form_antisymmetry <= 1e-12


def test_block_scaled_metric_is_compatible():
    rng = random.Random(7)
    pairs = [(_random_vector(rng, 1), _random_vector(rng, 1)) for _ in range(50)]
    g = np.diag([2.0, 0.5])
    report = check_hermitian_compatibility(g, pairs)
    assert report.max_metric_deviation <= 1e-12


def test_sector_mixing_metric_is_flagged():
    # Hermitian but with a position/velocity cross block: the structure
    # operator multiplies the sectors by opposite phases, so compatibility
    # fails even though the matrix is a legitimate Hermitian metric.
    g = np.array([[1.0, 0.3], [0.3, 1.0]])
    rng = random.Random(8)
    pairs = [(_random_vector(rng, 1), _random_vector(rng, 1)) for _ in range(50)]
    report = check_hermitian_compatibility(g, pairs)
    assert report.max_metric_deviation > 0.01


def test_non_hermitian_metric_is_rejected():
    g = np.array([[1.0, 1.0j], [1.0j, 1.0]])  # g != g^H
    with pytest.raises(ValueError):
        check_hermitian_compatibility(g, [])


def test_exterior_derivative_promotes_constant_coefficients():
    # Plain complex coefficients are accepted alongside expression trees.
    alpha = one_form([2.0 + 1.0j], [Num(0)])
    K = exterior_derivative(alpha).as_matrix(make_point((0.0,), (0.0,)))
    assert np.max(np.abs(K)) == 0.0
