"""Real-split elimination oracle and the classical comparison layer."""

import math

import numpy as np
import pytest

from kahlermech.dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SemispraySolution,
    SingularKahlerMatrix,
    Trajectory,
    TrajectorySample,
    integrate,
    solve_semispray,
)
from kahlermech.exterior import one_form, vector
from kahlermech.expressions import parse_expression
from kahlermech.real_oracle import (
    EliminationFailure,
    classical_el_check,
    derealify,
    gauss_jordan_solve,
    is_real_expressible,
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


def test_is_real_expressible():
    assert is_real_expressible(desksuite.build("bilinear_pair"))
    assert is_real_expressible(desksuite.build("shifted_pair"))
    # Complex literals only arise from programmatic construction; the text
    # grammar itself is real.
    from kahlermech.expressions import Mul, Num, Sym

    complex_coeff = LagrangianSystem(
        1, Mul(Num(2 + 1j), Mul(Sym("z", 1), Sym("w", 1)))
    )
    assert not is_real_expressible(complex_coeff)


# ------------------------------------------------------ classical comparison


def _synthetic_trajectory(system, dt, states_fields):
    samples = []
    for t, z, w, hol, fib in states_fields:
        sol = SemispraySolution(vector(hol, fib), (), 0.0, 0.0, 0.0)
        state = PhaseState(t, z, w)
        samples.append(TrajectorySample(state, sol, 0.0))
    return Trajectory(samples, dt, "completed", None, None)


def test_classical_check_accepts_a_true_classical_solution():
    # Free particle, straight line: the momentum is constant and the force
    # vanishes, so the classical residual is exactly zero.
    system = LagrangianSystem(1, parse_expression("0.5*w1^2", 1))
    dt = 0.01
    v = 0.75
    rows = []
    for k in range(9):
        t = k * dt
        rows.append((t, (1.0 + v * t,), (v,), (v,), (0.0,)))
    report = classical_el_check(system, _synthetic_trajectory(system, dt, rows))
    assert report.real_expressible
    assert report.interior_samples == 7
    assert report.max_residual < 1e-10


def test_classical_check_matches_the_oscillator_solution():
    # L = w^2/2 - z^2 has the classical equation z'' = -2z; sampling
    # z = cos(sqrt(2) t) must pass at the central-difference accuracy,
    # and a wrong-frequency imposter must not.
    system = LagrangianSystem(1, parse_expression("0.5*w1^2 - z1^2", 1))
    dt = 0.01
    omega = math.sqrt(2.0)

    def rows(freq):
        out = []
        for k in range(21):
            t = k * dt
            z = math.cos(freq * t)
            w = -freq * math.sin(freq * t)
            out.append((t, (z,), (w,), (w,), (0.0,)))
        return out

    good = classical_el_check(system, _synthetic_trajectory(system, dt, rows(omega)))
    assert good.max_residual < 5e-4
    bad = classical_el_check(system, _synthetic_trajectory(system, dt, rows(2.5)))
    assert bad.max_residual > 0.1


def test_classical_check_requires_enough_samples():
    system = LagrangianSystem(1, parse_expression("0.5*w1^2", 1))
    short = _synthetic_trajectory(system, 0.01, [(0.0, (1.0,), (0.5,), (0.5,), (0.0,))])
    with pytest.raises(ValueError):
        classical_el_check(system, short)


def test_classical_check_records_the_rotation_mismatch():
    # The solved bilinear flow is not a classical Euler-Lagrange solution;
    # the comparison layer reports a nonzero residual instead of hiding it.
    system = desksuite.build("bilinear_pair")
    entry = desksuite.BY_NAME["bilinear_pair"]
    tr = integrate(system, desksuite.initial_state(entry), 0.5, 0.01)
    report = classical_el_check(system, tr)
    assert report.real_expressible
    assert report.interior_samples == len(tr.samples) - 2
    assert report.max_residual > 0.1
    assert len(report.per_sample) == report.interior_samples
