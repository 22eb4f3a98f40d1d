"""Real-split elimination oracle."""

import numpy as np
import pytest

from kahlermech.dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SingularKahlerMatrix,
    solve_semispray,
)
from kahlermech.exterior import one_form
from kahlermech.expressions import parse_expression
from kahlermech.real_oracle import (
    EliminationFailure,
    derealify,
    gauss_jordan_solve,
    realify,
    realify_and_solve,
)
import desksuite


# ------------------------------------------------------------ real splitting


def test_realify_layout_and_round_trip():
    A = np.array([[1 + 2j, 3 - 1j], [0.5j, 2.0]])
    b = np.array([1 - 1j, 4 + 0.5j])
    R, rb = realify(A, b)
    assert R.shape == (4, 4) and rb.shape == (4,)
    assert np.array_equal(R[:2, :2], A.real)
    assert np.array_equal(R[:2, 2:], -A.imag)
    assert np.array_equal(R[2:, :2], A.imag)
    assert np.array_equal(R[2:, 2:], A.real)
    assert np.array_equal(rb, np.concatenate([b.real, b.imag]))
    x = np.array([0.25 - 1.5j, 2.0 + 0.125j])
    assert np.array_equal(derealify(np.concatenate([x.real, x.imag])), x)


def test_realified_solve_reproduces_a_hand_value():
    # (2 + i) x = 3  =>  x = (6 - 3i)/5
    A = np.array([[2.0 + 1.0j]])
    b = np.array([3.0])
    R, rb = realify(A, b)
    x = derealify(gauss_jordan_solve(R, rb))
    assert abs(x[0] - (1.2 - 0.6j)) < 1e-15


def test_gauss_jordan_matches_reference_solver():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        A = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, n)
        x = gauss_jordan_solve(A, b)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-10


def test_gauss_jordan_full_pivoting_handles_zero_leading_entries():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([2.0, 3.0])
    x = gauss_jordan_solve(A, b)
    assert np.array_equal(x, [3.0, 2.0])
    tiny = np.array([[1e-20, 1.0], [1.0, 1.0]])
    x = gauss_jordan_solve(tiny, np.array([1.0, 2.0]))
    assert np.max(np.abs(tiny @ x - [1.0, 2.0])) < 1e-12


def test_gauss_jordan_rejects_singular_input():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(EliminationFailure) as info:
        gauss_jordan_solve(A, np.array([1.0, 1.0]))
    assert info.value.condition_estimate >= 0.0


# ----------------------------------------------------------- oracle solving


def test_oracle_agrees_on_the_bench():
    for entry in desksuite.NONSINGULAR:
        system = desksuite.build(entry.name)
        for state in desksuite.sample_states(entry, 10, seed=101):
            a = solve_semispray(system, state)
            b = realify_and_solve(system, state)
            xa = np.asarray(a.xi.components)
            xb = np.asarray(b.xi.components)
            assert np.max(np.abs(xa - xb)) <= 1e-9
            for la, lb in zip(a.multipliers, b.multipliers):
                assert abs(la - lb) <= 1e-9


def test_oracle_reports_the_energy_of_its_solution():
    # The same assembly's L and rhs; only the field comes from the oracle.
    for entry in desksuite.NONSINGULAR:
        system = desksuite.build(entry.name)
        for state in [desksuite.initial_state(entry), *desksuite.sample_states(entry, 5, seed=7)]:
            energy = solve_semispray(system, state).energy
            assert abs(realify_and_solve(system, state).energy - energy) <= 1e-12


def test_oracle_zero_gradient_gives_zero_field():
    system = desksuite.build("bilinear_pair")
    sol = realify_and_solve(system, PhaseState(0.0, (0.0,), (0.0,)))
    assert max(abs(c) for c in sol.xi.components) == 0.0


def test_oracle_maps_failures_like_the_primary_solver():
    degenerate = desksuite.build("degenerate_quadratic")
    entry = desksuite.BY_NAME["degenerate_quadratic"]
    with pytest.raises(SingularKahlerMatrix):
        realify_and_solve(degenerate, desksuite.initial_state(entry))
    blocked = LagrangianSystem(
        1,
        parse_expression("z1*w1", 1),
        constraints=[one_form([1.0], [0.0])],
    )
    with pytest.raises(InconsistentConstraints):
        realify_and_solve(blocked, PhaseState(0.0, (1.0,), (2.0,)))
