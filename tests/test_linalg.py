"""Dense complex LU solver used by the primary saddle path."""

import cmath

import numpy as np
import pytest

from kahlermech.linalg import (
    NonFiniteEntryError,
    SingularMatrixError,
    halves,
    kernel,
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
        kernel(3, False)(np.zeros((3, 3), dtype=complex).tolist())


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
        kernel(2, False)(A.tolist())
    with pytest.raises(NonFiniteEntryError):
        solve(A, np.ones(2, dtype=complex))
    with pytest.raises(NonFiniteEntryError):
        solve(np.eye(2, dtype=complex), np.array([1.0, bad], dtype=complex))


def test_finite_entries_whose_magnitude_overflows_are_rejected():
    # |1.7e308 (1 + i)| is beyond the float range: abs() raises OverflowError.
    huge = 1.7e308 * (1 + 1j)
    with pytest.raises(NonFiniteEntryError, match="magnitude beyond the float range"):
        kernel(2, False)([[1.0, 0.0], [huge, 2.0]])
    # Entries that fit, but elimination makes one that does not.
    with pytest.raises(NonFiniteEntryError, match="magnitude beyond the float range"):
        kernel(2, False)([[1.5e308, 1.5e308], [-1.5e308, 1.5e308j]])
    with pytest.raises(NonFiniteEntryError, match="magnitude beyond the float range"):
        solve(np.eye(2, dtype=complex), np.array([1.0, huge], dtype=complex))


def test_finite_entries_whose_magnitudes_overflow_a_sum_still_factor():
    A = np.array([[1e308, 0.0], [0.0, 1e308]], dtype=complex)
    x = solve(A, np.array([1e308, 2e307], dtype=complex))
    assert np.allclose(x, [1.0, 0.2], atol=1e-15)


def test_first_maximal_pivot_wins_like_argmax():
    # Rows 1 and 2 tie in the first column.  Either as the first pivot row
    # gives the same solution but for the sign of a zero, so swapping the
    # two rows shows that the first of them is chosen.
    A = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 0.0], [-2.0, 1.0, 0.0]], dtype=complex)
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert repr(solve(A, b)) == "[(1+0j), (5+0j), (1+0j)]"
    assert repr(solve(A[[0, 2, 1]], b[[0, 2, 1]])) == "[(1-0j), (5+0j), (1+0j)]"


def test_a_singular_matrix_is_reported_before_a_bad_right_hand_side():
    # The check of the right-hand side comes after the last elimination step.
    with pytest.raises(SingularMatrixError, match="at elimination step 1") as info:
        solve([[1.0, 2.0], [2.0, 4.0]], [float("nan"), 1.0])
    assert info.value.condition_estimate == float("inf")


def test_a_bad_right_hand_side_is_named_in_pivot_order():
    # Step 0 swaps the rows, so the infinite entry comes first.
    with pytest.raises(NonFiniteEntryError, match=r"non-finite value \(inf\+0j\)"):
        solve([[0.0, 1.0], [1.0, 0.0]], [float("nan"), float("inf")])
    with pytest.raises(NonFiniteEntryError, match=r"non-finite value \(nan\+0j\)"):
        solve([[1.0, 0.0], [0.0, 1.0]], [float("nan"), float("inf")])


def _message_after_an_overflow(f, *args) -> str:
    """The NonFiniteEntryError message of ``f(*args)`` called right after a
    caught overflow; pytest.raises in between would clear errno."""
    try:
        cmath.exp(1000)
    except OverflowError:
        pass
    try:
        f(*args)
    except NonFiniteEntryError as err:
        return str(err)


def test_a_nan_is_named_after_an_earlier_overflow():
    # CPython's complex abs() of a NaN leaves errno as it was, and raises
    # OverflowError when an overflow just before left ERANGE there: the
    # kernel reported a NaN entry as a magnitude beyond the float range.
    nan = complex("nan")
    factor, substitute = halves(2)
    lu = factor([[2.0, 1.0], [0.0, 1.0]])
    for f, args in ((solve, ([[nan, 1], [0j, 1]], [1j, 1j])),
                    (kernel(2, True), ([[nan, 1], [0j, 1]], [1j, 1j])),
                    (substitute, (lu, None, [nan, 1j]))):
        assert _message_after_an_overflow(f, *args) == "non-finite value (nan+0j)"
