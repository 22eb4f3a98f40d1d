"""Property tests on generated inputs for the complex LU and the solve path."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kahlermech import linalg
from kahlermech.dynamics import PhaseState, solve_semispray
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
