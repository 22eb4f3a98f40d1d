"""Dense complex LU solver used by the primary saddle path."""

import numpy as np
import pytest

from kahlermech.linalg import (
    NonFiniteEntryError,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    solve,
)


def test_solve_matches_reference_on_random_complex_systems():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        A = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        x = solve(A, b)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-10


def test_factorization_can_be_reused():
    A = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
    lu, perm, _scale = lu_factor(A)
    for b in (np.array([1.0, 0.0]), np.array([0.0, 1.0 + 1.0j])):
        x = lu_solve(lu, perm, b)
        assert np.max(np.abs(A @ x - b)) < 1e-13


def test_partial_pivoting_survives_zero_leading_entry():
    A = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
    x = solve(A, np.array([2.0, 5.0], dtype=complex))
    assert np.allclose(x, [3.0, 2.0], atol=1e-14)


def test_singular_matrix_is_rejected():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError) as info:
        solve(A, np.array([1.0, 1.0], dtype=complex))
    assert info.value.condition_estimate > 1e10 or np.isinf(
        info.value.condition_estimate
    )
    with pytest.raises(SingularMatrixError):
        lu_factor(np.zeros((3, 3), dtype=complex))


def test_near_singular_matrix_is_rejected_relative_to_scale():
    # The second row is a copy of the first up to 1e-15, far below the
    # relative pivot threshold at this matrix scale.
    A = np.array([[1.0, 2.0], [1.0, 2.0 + 1e-15]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        solve(A, np.array([1.0, 1.0], dtype=complex))


def test_scaling_does_not_change_singularity_verdicts():
    # Pivot acceptance is relative, so a tiny but well-conditioned matrix
    # must factor cleanly.
    A = 1e-30 * np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    b = 1e-30 * np.array([1.0, 1.0], dtype=complex)
    x = solve(A, b)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-12)


@pytest.mark.parametrize("bad", [float("inf"), complex(0.0, float("-inf")), float("nan")])
def test_non_finite_entries_are_rejected(bad):
    # The bad entry sits after a larger one, where a max() would skip a NaN.
    A = np.array([[4.0, 1.0], [bad, 2.0]], dtype=complex)
    with pytest.raises(NonFiniteEntryError):
        lu_factor(A)
    lu, perm, _ = lu_factor(np.eye(2, dtype=complex))
    with pytest.raises(NonFiniteEntryError):
        lu_solve(lu, perm, np.array([1.0, bad], dtype=complex))


def test_finite_entries_whose_magnitude_overflows_are_rejected():
    # |1.7e308 (1 + i)| is beyond the float range: abs() raises OverflowError.
    huge = 1.7e308 * (1 + 1j)
    with pytest.raises(NonFiniteEntryError, match="magnitude beyond the float range"):
        lu_factor(np.array([[1.0, 0.0], [huge, 2.0]], dtype=complex))
    # Entries that fit, but elimination makes one that does not.
    with pytest.raises(NonFiniteEntryError, match="magnitude beyond the float range"):
        lu_factor(np.array([[1.5e308, 1.5e308], [-1.5e308, 1.5e308j]], dtype=complex))
    lu, perm, _ = lu_factor(np.eye(2, dtype=complex))
    with pytest.raises(NonFiniteEntryError, match="magnitude beyond the float range"):
        lu_solve(lu, perm, np.array([1.0, huge], dtype=complex))


def test_finite_entries_whose_magnitudes_overflow_a_sum_still_factor():
    A = np.array([[1e308, 0.0], [0.0, 1e308]], dtype=complex)
    x = solve(A, np.array([1e308, 2e307], dtype=complex))
    assert np.allclose(x, [1.0, 0.2], atol=1e-15)


def test_first_maximal_pivot_wins_like_argmax():
    # Rows 1 and 2 tie in the first column; the first of them is chosen.
    A = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [-2.0, 1.0, 0.0]], dtype=complex)
    _, perm, scale = lu_factor(A)
    assert perm[0] == 1
    assert scale == 2.0
