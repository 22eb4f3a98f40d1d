"""Lagrangian systems: two-form assembly, saddle solve, integration."""

import cmath
import hashlib
import math
import random

import numpy as np
import pytest

from kahlermech import dynamics, linalg
from kahlermech.dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    NonHolomorphicLagrangian,
    PhaseState,
    SemispraySolution,
    SingularKahlerMatrix,
    assemble_kahler_matrix,
    diagnostics,
    el_residual,
    energy_differential,
    integrate,
    solve_semispray,
    _solve,
)
from kahlermech.exterior import contract, one_form, vector
from kahlermech.expressions import (
    Conj,
    Div,
    EvalDomainError,
    Expr,
    Mul,
    Num,
    Re,
    Sym,
    diff,
    evaluate,
    parse_expression,
    walk,
)
from kahlermech.systemfile import parse_system_file
import desksuite
from bookkeeping_reference import reference_solution_from
from integrate_reference import record, reference_integrate
from fdtools import expr_evaluator, fd_kahler_matrix


def _system(text: str, m: int = 1, constraints=()) -> LagrangianSystem:
    return LagrangianSystem(m, parse_expression(text, m), constraints)


# ------------------------------------------------------------- construction


def test_holomorphy_gate_rejects_conjugation():
    for text_expr in (
        Mul(Conj(Sym("z", 1)), Sym("w", 1)),
        Re(Sym("z", 1)),
    ):
        with pytest.raises(NonHolomorphicLagrangian) as info:
            LagrangianSystem(1, text_expr)
        assert info.value.subtree is not None


def test_symbol_range_is_validated():
    with pytest.raises(ValueError):
        LagrangianSystem(1, Mul(Sym("z", 2), Sym("w", 1)))
    # A constraint coefficient beyond m is rejected at construction, not
    # left to fail as an unbound name in the generated assembly.
    with pytest.raises(ValueError, match="w2, beyond the dimension m=1"):
        LagrangianSystem(1, Mul(Sym("z", 1), Sym("w", 1)), [one_form((Sym("w", 2),), (0,))])


def test_a_lagrangian_nested_too_deeply_is_rejected():
    deep = parse_expression(" + ".join(["z1*w1"] * 3000), 1)
    with pytest.raises(ValueError, match="nested too deeply"):
        LagrangianSystem(1, deep)


def test_constraint_count_limit():
    L = parse_expression("z1*w1", 1)
    dz1 = one_form([1.0], [0.0])
    dw1 = one_form([0.0], [1.0])
    # r = 2m - 1 = 1 is the most a single pair admits.
    LagrangianSystem(1, L, [dz1])
    with pytest.raises(ValueError):
        LagrangianSystem(1, L, [dz1, dw1])


# ------------------------------------------------------------ two-form shape


def test_kahler_matrix_of_bilinear_pair():
    system = desksuite.build("bilinear_pair")
    K = assemble_kahler_matrix(system, desksuite.initial_state(desksuite.BY_NAME["bilinear_pair"])).as_matrix()
    assert np.array_equal(K, np.array([[0.0, 2j], [-2j, 0.0]]))


def test_kahler_matrix_cross_block_is_twice_the_hessian():
    system = desksuite.build("coupled_pairs")
    state = desksuite.initial_state(desksuite.BY_NAME["coupled_pairs"])
    K = assemble_kahler_matrix(system, state).as_matrix(state.point())
    H = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(K[:2, 2:], 2j * H, atol=1e-15)
    assert np.allclose(K[2:, :2], -2j * H, atol=1e-15)
    assert np.max(np.abs(K[:2, :2])) == 0.0
    assert np.max(np.abs(K[2:, 2:])) == 0.0


def test_kahler_matrix_tracks_the_state():
    system = desksuite.build("saturating_pair")
    z, w = (0.5 + 0.2j,), (0.4 - 0.1j,)
    state = PhaseState(0.0, z, w)
    K = assemble_kahler_matrix(system, state).as_matrix(state.point())
    u = z[0] * w[0]
    assert abs(K[0, 1] - 2j * (1 + 2 * u)) < 1e-14


def test_kahler_matrix_matches_nested_differences():
    rng = np.random.default_rng(12)
    for name in ("saturating_pair", "exponential_pair", "coupled_pairs"):
        entry = desksuite.BY_NAME[name]
        system = desksuite.build(name)
        fn = expr_evaluator(parse_expression(entry.lagrangian, entry.m))
        for state in desksuite.sample_states(entry, 3, seed=31):
            K = assemble_kahler_matrix(system, state).as_matrix(state.point())
            K_fd = fd_kahler_matrix(fn, state.z, state.w)
            scale = max(1.0, float(np.max(np.abs(K_fd))))
            assert np.max(np.abs(K - K_fd)) <= 1e-6 * scale


def test_degenerate_lagrangians_have_zero_two_form():
    for name in ("degenerate_quadratic", "standard_oscillator"):
        entry = desksuite.BY_NAME[name]
        system = desksuite.build(name)
        state = desksuite.initial_state(entry)
        K = assemble_kahler_matrix(system, state).as_matrix(state.point())
        assert np.max(np.abs(K)) == 0.0


# ------------------------------------------------------------------- energy


def _kahler_values(system, state):
    """The tree walker's value of every kahler_form entry at the state."""
    point = state.point()
    return [[e.evaluate(point) if isinstance(e, Expr) else e for e in row]
            for row in system.kahler_form.entries]


def test_the_assembled_kahler_matrix_is_the_kahler_form_to_the_bit(tmp_path):
    # The shipped systems and the seed-7 inputs of the trajectory and
    # state_sweep benchmarks, at the initial state and 9 random ones:
    # the generated K and the tree walk of kahler_form agree in every
    # bit, the signs of zeros included.
    inputs = desksuite.benchmark_inputs()
    ops = inputs.trajectory(7, tmp_path) + inputs.state_sweep(7, tmp_path)
    paths = sorted(desksuite.SYSTEM_DIR.glob("*.system")) + [op.path for op in ops]
    assert len(paths) == 28
    for path in paths:
        spec = parse_system_file(path)
        system, rng = spec.build_system(), random.Random(path.stem)
        states = [spec.initial_state()] + [
            PhaseState(0.0, *([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for _ in range(spec.m)] for _ in "zw"))
            for _ in range(9)]
        for state in states:
            assert repr(system._blocks_at(state)[0]) == repr(_kahler_values(system, state)), path


def test_a_negative_zero_hessian_entry_gives_a_positive_zero_kahler_entry():
    # L_{z1 w1} of (1/2)*w1^2 - z1^2 folds to the literal -0.  Phi_L's
    # entry is fold's literal 0 for 2i * (-0), as the exterior derivation
    # gave: computing 2i * (-0) in the assembly would print as +0-0i.
    system = _system("(1/2)*w1^2 - z1^2")
    [[h]] = system._H
    assert isinstance(h, Num) and repr(h.value) == "(-0-0j)"
    assert system.kahler_form.entry(0, 1) == Num(0)
    state = PhaseState(0.0, (0.3,), (0.2,))
    K = system._blocks_at(state)[0]
    assert repr(K) == repr(_kahler_values(system, state)) == repr([[0j, 0j], [-0j, 0j]])


def test_energy_of_solved_bilinear_field():
    system = desksuite.build("bilinear_pair")
    z, w = (1.0 + 0.5j,), (2.0 - 1.0j,)
    state = PhaseState(0.0, z, w)
    sol = solve_semispray(system, state)
    # Solved flow is z -> iz, w -> -iw, whose energy is -3 z w.
    assert abs(sol.energy - (-3.0 * z[0] * w[0])) < 1e-13


def test_energy_differential_matches_contraction_when_unconstrained():
    for name in ("bilinear_pair", "saturating_pair", "exponential_pair"):
        entry = desksuite.BY_NAME[name]
        system = desksuite.build(name)
        for state in desksuite.sample_states(entry, 4, seed=77):
            sol = solve_semispray(system, state)
            point = state.point()
            lhs = contract(system.kahler_form, sol.xi).coefficient_vector(point)
            rhs = energy_differential(system, state, sol.xi).coefficient_vector(point)
            assert np.max(np.abs(lhs - rhs)) < 1e-11


# -------------------------------------------------------------------- solve


def test_solve_bilinear_rotation():
    system = desksuite.build("bilinear_pair")
    z, w = (0.8 + 0.3j,), (0.5 - 0.4j,)
    sol = solve_semispray(system, PhaseState(0.0, z, w))
    assert abs(sol.xi.hol[0] - 1j * z[0]) < 1e-14
    assert abs(sol.xi.fib[0] - (-1j) * w[0]) < 1e-14
    assert sol.multipliers == ()
    assert sol.residual_symplectic < 1e-14
    assert sol.residual_constraints == 0.0


def test_solve_shifted_rotation():
    system = desksuite.build("shifted_pair")
    z, w = (0.5 - 0.6j,), (-0.2 + 0.7j,)
    sol = solve_semispray(system, PhaseState(0.0, z, w))
    # Affine terms displace the rotation centres: z -> i(z - 1/5), w -> -i(w + 3/10).
    assert abs(sol.xi.hol[0] - 1j * (z[0] - 0.2)) < 1e-14
    assert abs(sol.xi.fib[0] - (-1j) * (w[0] + 0.3)) < 1e-14


def test_solve_with_constraint_against_hand_value():
    system = _system(
        "z1*w1 + (1/2)*w1^2",
        constraints=[one_form([1.0], [0.0])],
    )
    sol = solve_semispray(system, PhaseState(0.0, (1.0 + 1.0j,), (2.0,)))
    assert abs(sol.xi.hol[0]) < 1e-13
    assert abs(sol.xi.fib[0] - (-1.0 + 3.0j)) < 1e-13
    assert abs(sol.multipliers[0] - (5.0 + 1.0j)) < 1e-13
    assert sol.residual_constraints < 1e-14


def test_solve_exchange_constraints_are_inactive_on_the_matched_flow():
    # The exchange forms annihilate the unconstrained rotation, so the
    # multipliers vanish and the field is the same as without constraints.
    system = desksuite.build("exchange_constrained")
    entry = desksuite.BY_NAME["exchange_constrained"]
    state = desksuite.initial_state(entry)
    sol = solve_semispray(system, state)
    for i in range(2):
        assert abs(sol.xi.hol[i] - 1j * state.z[i]) < 1e-13
        assert abs(sol.xi.fib[i] + 1j * state.w[i]) < 1e-13
    assert max(abs(lam) for lam in sol.multipliers) < 1e-13


def test_solve_reports_semispray_defect():
    system = desksuite.build("bilinear_pair")
    z, w = (1.0,), (2.0,)
    sol = solve_semispray(system, PhaseState(0.0, z, w))
    # Defect |i z - w| measures how far the state is from second-order form.
    assert abs(sol.semispray_defect - abs(1j * z[0] - w[0])) < 1e-14


def test_degenerate_quadratic_raises_singular():
    system = desksuite.build("degenerate_quadratic")
    state = desksuite.initial_state(desksuite.BY_NAME["degenerate_quadratic"])
    with pytest.raises(SingularKahlerMatrix) as info:
        solve_semispray(system, state)
    assert info.value.state is state
    assert info.value.condition_estimate >= 0.0


def test_standard_oscillator_raises_singular():
    system = desksuite.build("standard_oscillator")
    with pytest.raises(SingularKahlerMatrix):
        solve_semispray(system, PhaseState(0.0, (1.0,), (0.0,)))


def test_exponential_pair_singular_point():
    # exp(z w) degenerates exactly where 1 + z w = 0.
    system = desksuite.build("exponential_pair")
    with pytest.raises(SingularKahlerMatrix):
        solve_semispray(system, PhaseState(0.0, (1.0,), (-1.0,)))


def test_bilinear_with_position_constraint_is_inconsistent():
    # B = 0 leaves no way to enforce dz1 = 0: the saddle system is
    # structurally rank deficient even though the two-form is regular.
    system = _system("z1*w1", constraints=[one_form([1.0], [0.0])])
    with pytest.raises(InconsistentConstraints) as info:
        solve_semispray(system, PhaseState(0.0, (1.0,), (2.0,)))
    assert info.value.condition_estimate >= 0.0


def test_duplicated_constraints_are_inconsistent():
    # A single dz1 constraint is solvable here thanks to the w1^2 coupling;
    # listing it twice makes the saddle system rank deficient.
    text = "z1*w1 + z2*w2 + (1/2)*w1^2"
    dz1 = one_form([1.0, 0.0], [0.0, 0.0])
    state = PhaseState(0.0, (1.0, 0.5), (2.0, 0.25))
    solvable = _system(text, m=2, constraints=[dz1])
    assert solve_semispray(solvable, state).residual_constraints < 1e-13
    system = _system(text, m=2, constraints=[dz1, dz1])
    with pytest.raises(InconsistentConstraints):
        solve_semispray(system, state)


def test_exchange_saddle_degenerates_on_the_matching_locus():
    # The constrained system loses rank where z1 w1 = z2 w2.
    system = desksuite.build("exchange_constrained")
    state = PhaseState(0.0, (1.0, 1.0), (0.5, 0.5))
    with pytest.raises(InconsistentConstraints):
        solve_semispray(system, state)


def test_domain_error_names_the_offending_division():
    # The two-form of z1*w1 + w1^2 is regular; only the constraint
    # coefficient 1/z1 is singular at z1 = 0.
    form = one_form([parse_expression("1/z1", 1)], [1.0])
    system = _system("z1*w1 + w1^2", constraints=[form])
    with pytest.raises(EvalDomainError) as info:
        solve_semispray(system, PhaseState(0.0, (0.0,), (1.0,)))
    assert isinstance(info.value.subtree, Div)
    assert info.value.subtree == parse_expression("1/z1", 1)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_assembly_is_a_domain_error(value):
    form = one_form([Mul(Num(value), Sym("z", 1))], [1.0])
    system = _system("z1*w1 + w1^2", constraints=[form])
    state = PhaseState(0.0, (0.5,), (1.0,))
    with pytest.raises(EvalDomainError, match="non-finite value") as info:
        solve_semispray(system, state)
    assert isinstance(info.value.subtree, Num)
    assert not math.isfinite(abs(info.value.subtree.value))
    traj = integrate(system, state, 0.1, 0.01)
    assert traj.status == "solver_failure"
    assert traj.failure_kind == "EvalDomainError"


def test_a_solve_whose_back_substitution_overflows_is_a_domain_error():
    # Every assembled entry is finite, and so are the factors; the saddle
    # vector is not.  Before, the solve returned xi = (nan+nanj, -0-infj),
    # and integrate recorded it as sample 0 and failed at the next step.
    system = _system("1e-200*z1*w1 + 1e200*z1 + 1e200*i*w1")
    state = PhaseState(0.0, (1.0,), (1.0,))
    K, S, rhs, _ = system._blocks_at(state)
    assert all(math.isfinite(abs(x)) for x in (*sum(K, []), *sum(S, []), *rhs))
    with pytest.raises(EvalDomainError, match="non-finite value in the solved saddle vector") as info:
        solve_semispray(system, state)
    assert info.value.state is state
    tr = integrate(system, state, 0.01, 0.0025)
    assert (tr.status, tr.failure_kind, tr.failure_time, tr.samples) == (
        "solver_failure", "EvalDomainError", 0.0, [])


def test_solution_bookkeeping_and_field_only_solves():
    entry = desksuite.BY_NAME["exchange_constrained"]
    system = desksuite.build(entry.name)
    state = desksuite.initial_state(entry)
    sol = solve_semispray(system, state)
    point = state.point()
    xiv = np.array(sol.xi.components)
    expected = [abs(omega.coefficient_vector(point) @ xiv) for omega in system.constraints]
    assert len(sol.constraint_residuals) == 2
    assert max(abs(a - b) for a, b in zip(sol.constraint_residuals, expected)) < 1e-15
    assert sol.residual_constraints == max(sol.constraint_residuals)
    # The RK stages 2-4 solve for the saddle vector alone; it is the
    # field and the multipliers of the full solve, bit for bit.
    K, S, rhs, _ = system._blocks_at(state)
    vec = _solve(system, K, S, rhs, state)
    assert tuple(vec) == sol.xi.components + sol.multipliers


def _coefficient(rng) -> str:
    return f"({rng.uniform(0, 1):.3f} {rng.choice('+-')} {rng.uniform(0, 1):.3f}*i)"


def _random_polynomial_system(rng, r: int) -> LagrangianSystem:
    """m = 2: a bilinear L with a quartic coupling, and r forms with
    polynomial coefficients."""
    c = lambda: _coefficient(rng)  # noqa: E731
    forms = [one_form([parse_expression(f"{c()} + {c()}*z2*w1", 2), parse_expression(f"{c()}*w2", 2)],
                      [parse_expression(f"{c()}*z1", 2), parse_expression(c(), 2)])
             for _ in range(r)]
    return _system(f"z1*w1 + z2*w2 + {c()}*z1*w2 + {c()}*z1*z2*w1*w2", 2, forms)


@pytest.mark.parametrize("r", range(4))
def test_generated_bookkeeping_equals_the_loop_reference(r):
    rng = random.Random(40 + r)
    system = _random_polynomial_system(rng, r)

    def point():
        return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]

    solved = 0
    for _ in range(25):
        state = PhaseState(0.0, point(), point())
        K, S, rhs, L = system._blocks_at(state)
        vecs = [point() + point() + [complex(rng.uniform(-1, 1), 0.0) for _ in range(r)]]
        try:
            vecs.append(_solve(system, K, S, rhs, state))
            solved += 1
        except InconsistentConstraints:
            pass
        for vec in vecs:
            expected = reference_solution_from(2, state.w, S, rhs, L, vec)
            book = dynamics._bookkeeping_kernel(2, r)(S, rhs, L, vec, state.w)
            assert repr(dynamics._solution(2, vec, *book)) == repr(expected)
    assert solved > 0


_SPECIALS = (0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("m, r", [(1, 0), (1, 1), (2, 0), (2, 3)])
def test_generated_bookkeeping_keeps_zero_signs_infinities_and_nan(m, r):
    kernel, width = dynamics._bookkeeping_kernel(m, r), 2 * m + r
    # Hand-made first: a NaN residual first in a maximum is kept, and one
    # after a larger value is not, as max() does.
    nan, vec = complex(math.nan, 0.0), [0j] * (width - 1) + [5 + 0j]
    unit = [[complex(i == j) for j in range(width)] for i in range(width)]
    cases = [(unit, [nan] + [0j] * (width - 1), vec), (unit, [0j] * (width - 1) + [nan], vec)]
    rng = random.Random(width)

    def value():
        return complex(rng.choice(_SPECIALS), rng.choice(_SPECIALS))

    cases += [([[value() for _ in range(width)] for _ in range(width)],
               [value() for _ in range(width)], [value() for _ in range(width)])
              for _ in range(300)]
    for S, rhs, vec in cases:
        w, L = tuple(value() for _ in range(m)), value()
        expected = reference_solution_from(m, w, S, rhs, L, vec)
        assert repr(dynamics._solution(m, vec, *kernel(S, rhs, L, vec, w))) == repr(expected)


def test_a_constant_singular_kahler_matrix_still_fails_at_its_first_solve():
    # Phi_L of z1^2 is the zero matrix: the build's check fails and is
    # dropped, and the first solve reports the exactly zero pivot.
    tr = integrate(_system("z1^2"), PhaseState(0.0, (0.3,), (0.2,)), 1.0, 0.1)
    assert (tr.status, tr.failure_kind, tr.failure_time, tr.samples) == (
        "solver_failure", "SingularKahlerMatrix", 0.0, [])
    with pytest.raises(SingularKahlerMatrix) as info:
        solve_semispray(_system("z1^2"), PhaseState(0.0, (0.3,), (0.2,)))
    assert info.value.state.t == 0.0
    assert info.value.condition_estimate == math.inf


def test_a_constant_non_finite_kahler_matrix_still_fails_at_its_first_solve():
    system = _system("(1e999 - 1e999)*z1*w1")
    assert all(isinstance(e, Num) and math.isnan(e.value.real)
               for e in (system.kahler_form.entry(0, 1), system.kahler_form.entry(1, 0)))
    with pytest.raises(EvalDomainError, match="non-finite value"):
        solve_semispray(system, PhaseState(0.0, (0.3,), (0.2,)))


@pytest.mark.parametrize("text, per_solve", [("z1*w1 + z2*w2 + (1/2)*w1^2", 1),
                                             ("z1*w1 + z2*z2*w2 + (1/2)*w1^2", 2)])
def test_a_constant_regular_kahler_matrix_is_factored_once_per_system(monkeypatch, text,
                                                                        per_solve):
    # per_solve kernel calls per solve: the S solve, and the Phi_L check
    # unless the build checked a constant Phi_L.  The S solve of a saddle
    # the build factored is a substitution.
    kernel, halves, checks, solves = linalg.kernel, linalg.halves, [], []

    def counted(n, solve):
        calls, f = (solves if solve else checks), kernel(n, solve)
        return lambda *args: calls.append(args) or f(*args)

    def counted_halves(n):
        factor, substitute = halves(n)
        return factor, lambda *args: solves.append(args) or substitute(*args)

    monkeypatch.setattr(linalg, "kernel", counted)
    monkeypatch.setattr(linalg, "halves", counted_halves)
    system = _system(text, 2)
    assert (len(checks), len(solves)) == (2 - per_solve, 0)
    checks.clear()
    tr = integrate(system, PhaseState(0.0, (1.0, 0.5), (0.5, 0.25)), 0.1, 0.01)
    assert tr.status == "completed" and len(tr.samples) == 11
    assert (len(checks), len(solves)) == ((per_solve - 1) * (4 * 10 + 1), 4 * 10 + 1)


# ------------------------------------------------------------- EL residuals


def _reference_residual(system, state, xi_hol, xi_fib, lams):
    """Constrained complex Euler-Lagrange residuals recomputed from the
    symbolic first and second derivatives, independent of the solver's
    internal assembly."""
    m = system.m
    L = system.lagrangian
    zs = [Sym("z", i) for i in range(1, m + 1)]
    ws = [Sym("w", i) for i in range(1, m + 1)]
    point = state.point()

    def d(e, s):
        return evaluate(diff(e, s), point)

    Lz = [d(L, s) for s in zs]
    Lw = [d(L, s) for s in ws]
    A = [[d(diff(L, zi), zj) for zj in zs] for zi in zs]
    H = [[d(diff(L, zi), wj) for wj in ws] for zi in zs]
    B = [[d(diff(L, wi), wj) for wj in ws] for wi in ws]
    if system.r:
        W = np.array([omega.coefficient_vector(point) for omega in system.constraints]).T
    res = []
    for j in range(m):
        value = Lz[j] - 1j * (
            sum(A[j][k] * xi_hol[k] for k in range(m))
            + sum(H[j][k] * xi_fib[k] for k in range(m))
        )
        if system.r:
            value -= sum(lams[a] * W[j, a] for a in range(system.r))
        res.append(value)
    for j in range(m):
        value = Lw[j] + 1j * (
            sum(H[k][j] * xi_hol[k] for k in range(m))
            + sum(B[j][k] * xi_fib[k] for k in range(m))
        )
        if system.r:
            value -= sum(lams[a] * W[m + j, a] for a in range(system.r))
        res.append(value)
    return res


def test_el_residual_matches_reference_at_arbitrary_fields():
    rng = random.Random(21)
    for name in ("bilinear_pair", "saturating_pair", "exchange_constrained"):
        entry = desksuite.BY_NAME[name]
        system = desksuite.build(name)
        for state in desksuite.sample_states(entry, 3, seed=5):
            m = entry.m
            hol = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
            fib = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
            lams = tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(entry.r)
            )
            fake = SemispraySolution(vector(hol, fib), lams, 0.0, 0.0, 0.0)
            got = el_residual(system, state, fake)
            ref = _reference_residual(system, state, hol, fib, lams)
            assert len(got) == 2 * m
            for g, r in zip(got, ref):
                assert abs(g - r) < 1e-12


def test_el_residual_vanishes_on_solutions():
    for name in ("bilinear_pair", "coupled_pairs", "exchange_constrained"):
        entry = desksuite.BY_NAME[name]
        system = desksuite.build(name)
        for state in desksuite.sample_states(entry, 5, seed=15):
            sol = solve_semispray(system, state)
            assert max(abs(v) for v in el_residual(system, state, sol)) < 1e-11


def test_el_residual_of_the_zero_field():
    # With xi = 0 and no multipliers the residuals reduce to the bare
    # gradient (L_z, L_w).
    system = _system("z1*w1")
    state = PhaseState(0.0, (1.5 + 0.5j,), (-0.3 + 2.0j,))
    still = SemispraySolution(vector([0.0], [0.0]), (), 0.0, 0.0, 0.0)
    res = el_residual(system, state, still)
    assert abs(res[0] - state.w[0]) < 1e-15
    assert abs(res[1] - state.z[0]) < 1e-15


@pytest.mark.parametrize(
    "field_m, multipliers, message",
    [(2, (), "field dimension does not match the system"),
     (1, (1.0,), "got 1 multipliers for 0 constraints")],
    ids=["field", "multipliers"],
)
def test_el_residual_rejects_a_foreign_solution(field_m, multipliers, message):
    # Before: numpy's untyped "matmul: ... core dimension" error.
    system = _system("z1*w1")
    state = PhaseState(0.0, (0.3,), (0.2,))
    foreign = SemispraySolution(vector([0.0] * field_m, [0.0] * field_m), multipliers,
                                0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=message):
        el_residual(system, state, foreign)


def _read_blocks(name, system, state):
    """energy_differential's coefficients, or el_residual's residuals, for
    the field (1, i/2) with no multipliers."""
    field = SemispraySolution(vector([1.0], [0.5j]), (), 0.0, 0.0, 0.0)
    if name == "energy_differential":
        dE = energy_differential(system, state, field.xi)
        return dE.a + dE.b
    return el_residual(system, state, field)


@pytest.mark.parametrize("name, expected", [
    ("energy_differential", (-0.5, -1.5 + 1j)),
    ("el_residual", (1.5, 1.5 + 1j)),
])
def test_library_functions_walk_the_blocks_they_read(monkeypatch, name, expected):
    # log(z1)*w1^2 at z1 = 0: L_z = 1/z1 * w1^2 is the first block entry
    # without a value, and the walker names its division.
    system = _system("log(z1)*w1^2")
    with pytest.raises(EvalDomainError, match="division by zero") as info:
        _read_blocks(name, system, PhaseState(0.0, (0.0,), (1.0,)))
    assert info.value.subtree == parse_expression("1/z1", 1)
    # Here L is undefined everywhere and its derivative blocks nowhere
    # (L_z = w1, L_w = z1 + 2 w1): the solve fails, while the walk over
    # dL, A, H, B and W succeeds without calling the generated assembly.
    system = _system("z1*w1 + w1^2 + log(z1 - z1)")
    state = PhaseState(0.0, (0.5,), (1.0,))
    with pytest.raises(EvalDomainError, match="log of zero"):
        solve_semispray(system, state)
    monkeypatch.setattr(system._assemble, "at", None)
    assert tuple(_read_blocks(name, system, state)) == pytest.approx(expected, abs=1e-15)


def test_the_derivative_blocks_come_from_generated_code_equal_to_the_walker(monkeypatch):
    # The walker only names a domain error: where every block entry has a
    # value, no node is walked, and the values are the walker's bit for bit.
    system = _system("z1*z1*z1*w1*w1 + log(z1)*w1^2")
    state = PhaseState(0.0, (0.5 - 0.25j,), (1.5j,))
    point = state.point()
    expected = [np.array([[e.evaluate(point) for e in row] for row in block], dtype=complex)
                for block in ([system._Lz + system._Lw], system._A, system._H, system._B)]
    walked = []
    for cls in {type(node) for e in system._blocks.entries for node in walk(e)}:
        if "evaluate" in vars(cls):
            def counted(self, point, _evaluate=vars(cls)["evaluate"]):
                walked.append(self)
                return _evaluate(self, point)

            monkeypatch.setattr(cls, "evaluate", counted)
    dL, A, H, B, W = dynamics._derivative_blocks(system, state)
    assert walked == [] and W.shape == (2, 0)
    assert [a.tobytes() for a in (dL[None], A, H, B)] == [a.tobytes() for a in expected]


# -------------------------------------------------------------- integration


def test_sample_times_lie_on_the_exact_grid():
    system = desksuite.build("bilinear_pair")
    tr = integrate(system, PhaseState(0.0, (1.0,), (0.5,)), 10.0, 1e-3)
    assert len(tr.samples) == 10001
    assert tr.samples[-1].state.t == 10.0
    assert all(s.state.t == k * 1e-3 for k, s in enumerate(tr.samples))


def test_integrate_sample_counts_and_times():
    system = desksuite.build("bilinear_pair")
    s0 = PhaseState(0.0, (1.0,), (0.5,))
    tr = integrate(system, s0, 1.0, 0.1)
    assert tr.status == "completed"
    assert len(tr.samples) == 11
    assert abs(tr.samples[-1].state.t - 1.0) < 1e-9
    short = integrate(system, s0, 0.35, 0.1)
    assert len(short.samples) == 4
    assert abs(short.samples[-1].state.t - 0.3) < 1e-9


def test_samples_show_a_column_changed_after_an_earlier_read():
    system = desksuite.build("bilinear_pair")
    tr = integrate(system, PhaseState(0.0, (1.0,), (0.5,)), 1.0, 0.1)
    tr.samples
    tr.energies[5] += 1.0
    assert tr.samples[5].energy == tr.energies[5]
    assert diagnostics(tr).max_energy_drift == pytest.approx(1.0)


def test_integrate_rejects_bad_steps():
    system = desksuite.build("bilinear_pair")
    s0 = PhaseState(0.0, (1.0,), (0.5,))
    with pytest.raises(ValueError):
        integrate(system, s0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(system, s0, -1.0, 0.1)
    # Both finite, but t1/dt overflows: no step count, so bad input.
    with pytest.raises(ValueError, match="finite step count"):
        integrate(system, s0, 1e300, 1e-10)


def test_a_step_count_above_the_bound_is_rejected(monkeypatch):
    system = desksuite.build("bilinear_pair")
    s0 = PhaseState(0.0, (1.0,), (0.5,))
    assert dynamics.MAX_STEPS == 10**7
    with pytest.raises(ValueError, match="^t1/dt = 10000001 steps is above the bound of 10000000$"):
        integrate(system, s0, 10**7 + 1, 1.0)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    assert len(integrate(system, s0, 1.0, 0.1).times) == 11
    with pytest.raises(ValueError, match="= 11 steps is above the bound of 10$"):
        integrate(system, s0, 1.1, 0.1)


def _trajectory_digests(work_dir):
    """sha256 of the repr of every column, the status and the failure fields
    of a 256-step trajectory at dt = 2^-10, per shipped system and per
    generated ``state_sweep`` system at seeds 7 and 11."""
    inputs = desksuite.benchmark_inputs()
    paths = {path.stem: path for path in sorted(desksuite.SYSTEM_DIR.glob("*.system"))}
    for seed in (7, 11):
        (work_dir / str(seed)).mkdir()
        paths.update((f"{seed}/{op.name}", op.path)
                     for op in inputs.state_sweep(seed, work_dir / str(seed))
                     if op.name.startswith("sweep_gen"))
    digests = {}
    for name, path in paths.items():
        spec = parse_system_file(path)
        tr = integrate(spec.build_system(), spec.initial_state(), 256 * 2.0**-10, 2.0**-10)
        record = (tr.times, tr.z, tr.w, tr.vectors, tr.bookkeeping, tr.energies,
                  tr.status, tr.failure_time, tr.failure_kind)
        digests[name] = hashlib.sha256(repr(record).encode()).hexdigest()
    return digests


# What the integrator recorded before its stages folded constants, factored
# a constant saddle once per system and unrolled; rounding differences of
# another platform's libm in exp, log, sin or cos would move these too.
TRAJECTORY_DIGESTS = {
    "bilinear_pair": "9f5a7ea1caf6f918eb3f330160853e554f80be9663b4049e875aa6a4c6bd0ae2",
    "coupled_pairs": "b160b320deb341872bf4ee0047ee47153768bdd34c2ba3598224ed9ac455e352",
    "degenerate_quadratic": "6368fcf0f32ce7444dbaf49f535adc4b3f687eefebfbb43afb3bedd6b65cb86f",
    "exchange_constrained": "89f050aec8360f4c8bf71127da6d94394c96b74d1d595712247de299f344a484",
    "exponential_pair": "9b46e46a2a51f7b3dc99753f2fc355746d51dc2eb5ef319b97988d579a40c4e0",
    "saturating_pair": "607e75743806cfbb0edf4957a6fa9896d355622005d795d2e9649ccec1cdb3df",
    "shifted_pair": "eeb2b56700bf291a2a467b72ef1e33874e9e3cefb70a1d7684b2ed970e9feac2",
    "standard_oscillator": "6368fcf0f32ce7444dbaf49f535adc4b3f687eefebfbb43afb3bedd6b65cb86f",
    "7/sweep_gen0_m1_r0": "67d106d3e74a555ba854c8dee1600fa41a6fdda9155f854630da4838465f5bdf",
    "7/sweep_gen1_m2_r0": "a20c622c07d23987fcee596df13c46626e437e2fa6668f84551e8ae1a9ecbe12",
    "7/sweep_gen2_m2_r2": "a2804e7f8297c32093dfae8c73a42edd5cda73af94d7991b4108f1826b5af72c",
    "7/sweep_gen3_m3_r0": "c1d765959e950f30464f20ad3501c9ff16f6ea08c5b24cafaa45dd13c512dfef",
    "7/sweep_gen4_m3_r2": "e206848cba76b8fae018779ceba4ca6e5cfdd554f4137208d4c55b71bbb65960",
    "7/sweep_gen5_m4_r0": "8b483ec612f3556e8f78b277a349a9e61d74543c893cf01bbf77dcf8e959a8e0",
    "7/sweep_gen6_m4_r2": "ffb7099ab5de9d6ff6ca2e452cfbfd9c76ab2c82083c8c3c56445bae0a9ebe4d",
    "7/sweep_gen7_m4_r4": "4d38c6629edc42f4c0656d413bb233d772c74e347f2ab779344db9668d203502",
    "11/sweep_gen0_m1_r0": "cd2588bf866ad9004a0690a057aa61287d6eec556f3514bfbe923e698db1b758",
    "11/sweep_gen1_m2_r0": "14d047365cf15851be86a336658b88d1bc2968b1eaca6205da9b9ec7214ca726",
    "11/sweep_gen2_m2_r2": "ed373d80ec34f4e72402416afd852cbae737b07aa3f0518b26778627ad0e567a",
    "11/sweep_gen3_m3_r0": "7b683da48a9edd1eaef5b802d431d012c4c40c3644f4b6554f6725a964d833f4",
    "11/sweep_gen4_m3_r2": "562eba5aec7b276f7c5b95759a682b74acd0067738f87e5c016e1711be9c8a9c",
    "11/sweep_gen5_m4_r0": "7fbbeab40b56d491540250f31f7bc57a665652d600f17a87a42d2aaeb049d348",
    "11/sweep_gen6_m4_r2": "49ebf5c2111de53ae5d6f3ee315f24b0f1cb7029b5158ed5de736983a5c412cd",
    "11/sweep_gen7_m4_r4": "ede5ad403fedb4839c67de3bb7a8b86cfca1c396268995a25cb55bc8f4a3c41d",
}


def test_trajectories_keep_their_digests(tmp_path):
    assert _trajectory_digests(tmp_path) == TRAJECTORY_DIGESTS


@pytest.mark.parametrize(
    "text, m, state",
    [("z1*w1", 1, PhaseState(0.0, (0.3, 9.0), (0.2, 9.0))),
     ("z1*w1 + z2*w2", 2, PhaseState(0.0, (0.3,), (0.2,)))],
    ids=["wide", "narrow"],
)
@pytest.mark.parametrize(
    "function", [assemble_kahler_matrix, energy_differential, el_residual],
    ids=lambda f: f.__name__,
)
def test_a_state_of_the_wrong_dimension_is_rejected(function, text, m, state):
    # Before, a wider state was cut to the system's m and a narrower one
    # raised a bare IndexError.
    system = _system(text, m)
    zero = vector([0.0] * m, [0.0] * m)
    args = {
        assemble_kahler_matrix: (),
        energy_differential: (zero,),
        el_residual: (SemispraySolution(zero, (), 0.0, 0.0, 0.0),),
    }[function]
    with pytest.raises(ValueError, match="state dimension does not match the system"):
        function(system, state, *args)


def test_integrate_conserves_energy_on_the_bench():
    for name in ("bilinear_pair", "coupled_pairs", "exponential_pair"):
        entry = desksuite.BY_NAME[name]
        system = desksuite.build(name)
        tr = integrate(system, desksuite.initial_state(entry), 2.0, 0.01)
        report = diagnostics(tr)
        assert report.status == "completed"
        assert report.max_energy_drift < 1e-9
        assert report.max_symplectic_residual < 1e-12


def test_integrate_order_window():
    system = desksuite.build("bilinear_pair")
    s0 = desksuite.initial_state(desksuite.BY_NAME["bilinear_pair"])
    coarse, fine = desksuite.RATIO_STEPS
    drift = {}
    for dt in (coarse, fine):
        drift[dt] = diagnostics(integrate(system, s0, 5.0, dt)).max_energy_drift
    ratio = drift[coarse] / drift[fine]
    assert 8.0 <= ratio <= 32.0


def test_integrate_reports_solver_failure_at_start():
    system = desksuite.build("degenerate_quadratic")
    entry = desksuite.BY_NAME["degenerate_quadratic"]
    tr = integrate(system, desksuite.initial_state(entry), 1.0, 0.1)
    assert tr.status == "solver_failure"
    assert tr.failure_kind == "SingularKahlerMatrix"
    assert tr.failure_time == 0.0
    assert tr.samples == []
    report = diagnostics(tr)
    assert report.status == "solver_failure"
    assert report.samples == 0
    assert report.failure_kind == "SingularKahlerMatrix"


def _first_failing_stage(system, sample, dt):
    """RK stages 2-4 from a recorded sample, each solved on its own:
    (stage number, the error its solve raises), or None."""
    s, k = sample.state, sample.solution.xi
    for number, h in ((2, dt / 2), (3, dt / 2), (4, dt)):
        stage = PhaseState(s.t + h, [z + h * v for z, v in zip(s.z, k.hol)],
                           [w + h * v for w, v in zip(s.w, k.fib)])
        try:
            k = solve_semispray(system, stage).xi
        except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError) as err:
            assert err.state is stage
            return number, err
    return None


@pytest.mark.parametrize("text, m, s0, dt, kind, samples", [
    # L_zw = z1, and the field at (1, 1) is (-2, 2 - i): stage 2 of the
    # first step lands exactly on z1 = 0, where Phi_L vanishes.
    ("z1^2*w1/2 + (2*i - 0.5)*w1", 1, ((1.0,), (1.0,)), 1.0, "SingularKahlerMatrix", 1),
    # The 1e11 block sets the scale; the z2 block crosses the relative
    # pivot threshold between the third sample and the fourth.
    ("1e11*z1*w1 + z2^2*w2/2 + (2*i - 0.5)*w2", 2, ((1.0, 1.0), (1.0, 1.0)), 0.1,
     "InconsistentConstraints", 3),
    # The first system plus 1/z1, started where the field's z-part is -2:
    # stage 2 lands on z1 = 0, where the assembly's 1/z1 terms have no
    # value.  Before, the failure was recorded at the sample's time.
    ("z1^2*w1/2 + (2*i - 0.5)*w1 + 1/z1", 1, ((1.0,), (-2.0,)), 1.0, "EvalDomainError", 1),
])
def test_integrate_records_a_failure_inside_an_rk_step(monkeypatch, text, m, s0, dt, kind,
                                                       samples):
    system = _system(text, m)
    checked_step, raised = dynamics._checked_step, []

    def recording(*args):
        kept, vectors, err = checked_step(*args)
        if err is not None:
            raised.append(err)
        return kept, vectors, err

    monkeypatch.setattr(dynamics, "_checked_step", recording)
    tr = integrate(system, PhaseState(0.0, *s0), 5.0, dt)
    monkeypatch.undo()  # what was raised inside integrate, not in the solves below
    assert tr.status == "solver_failure"
    assert tr.failure_kind == kind
    assert [s.state.t for s in tr.samples] == [step * dt for step in range(samples)]
    last = tr.samples[-1]
    stage, err = _first_failing_stage(system, last, dt)
    assert stage in (2, 3)
    assert type(err).__name__ == kind
    assert tr.failure_time == err.state.t == last.state.t + dt / 2
    # The error raised inside integrate carries the same stage state as the
    # standalone solve, and names the same subtree or condition estimate.
    [inside] = raised
    assert type(inside) is type(err) and inside.state == err.state
    assert vars(inside).keys() == vars(err).keys()
    assert all(getattr(inside, key) == getattr(err, key) for key in ("subtree", "condition_estimate")
               if hasattr(err, key))


@pytest.mark.parametrize("text, m, s0, dt, kind, stage, offset", [
    # L_w = z1 - 1, so xi_z = i (z1 - 1): with dt/2 = 1, stage 2 is at
    # z1 = i and stage 3 exactly at z1 = 0, where 1/z1 has no value.
    ("z1*w1 - w1 + 1/z1", 1, ((1 + 1j,), (0.5,)), 2.0, "EvalDomainError", 3, 0.5),
    # Phi_L's z2 block is 2i z2 beside 2e11 i: stage 4 is the first to come
    # within the relative pivot threshold of z2 = 0.
    ("1e11*z1*w1 + z2^2*w2/2 + w2^2/2", 2, ((1.0, 0.25), (1.0, 0.5)), 1.0,
     "SingularKahlerMatrix", 4, 1.0),
])
def test_a_failure_first_met_at_a_late_rk_stage_is_recorded_at_its_stage_time(
        text, m, s0, dt, kind, stage, offset):
    system = _system(text, m)
    tr = integrate(system, PhaseState(0.0, *s0), 4 * dt, dt)
    assert (tr.status, tr.failure_kind, len(tr.samples)) == ("solver_failure", kind, 1)
    assert _first_failing_stage(system, tr.samples[0], dt)[0] == stage
    assert tr.failure_time == offset * dt
    assert record(tr) == record(reference_integrate(system, PhaseState(0.0, *s0), 4 * dt, dt))


def test_a_non_finite_saddle_vector_at_the_last_sample_is_a_failure():
    # The last sample solves stage one alone, and nothing after it would
    # fail on the vector: its finiteness test is what names it.
    system = _system("1e-200*z1*w1 + 1e200*z1 + 1e200*i*w1")
    tr = integrate(system, PhaseState(0.0, (1.0,), (1.0,)), 0.0, 0.0025)
    assert (tr.status, tr.failure_kind, tr.failure_time, tr.samples) == (
        "solver_failure", "EvalDomainError", 0.0, [])


def test_a_saddle_vector_whose_sum_overflows_keeps_the_trajectory():
    # Four decoupled pairs z w + a (w - z), a = 2.5e307: xi_z = i (z + a) and
    # xi_w = i (a - w), so each stage's 8 entries are about i a, finite, but
    # their sum overflows; the RK combinations (about 6a) and the states stay
    # finite.
    text = " + ".join(f"z{k}*w{k} + 2.5e307*(w{k} - z{k})" for k in range(1, 5))
    system, s0 = _system(text, 4), PhaseState(0.0, (0.5,) * 4, (0.25,) * 4)
    tr = integrate(system, s0, 0.004, 0.001)
    assert tr.status == "completed" and len(tr.samples) == 5
    for sample in tr.samples:
        vec = sample.solution.xi.components + sample.solution.multipliers
        assert all(map(math.isfinite, (abs(x) for x in vec)))
        assert not math.isfinite(abs(sum(vec)))
    assert record(tr) == record(reference_integrate(system, s0, 0.004, 0.001))


def test_integrate_reports_non_finite_states():
    system = desksuite.build("bilinear_pair")
    s0 = PhaseState(0.0, (math.inf,), (0.5,))
    tr = integrate(system, s0, 1.0, 0.1)
    assert tr.status == "non_finite"
    assert tr.failure_kind == "NonFiniteState"
    assert tr.samples == []


def test_integrate_preserves_constraints():
    entry = desksuite.BY_NAME["exchange_constrained"]
    system = desksuite.build("exchange_constrained")
    tr = integrate(system, desksuite.initial_state(entry), 2.0, 0.01)
    report = diagnostics(tr)
    assert report.status == "completed"
    assert report.max_constraint_residual < 1e-12


def test_diagnostics_reports_injected_drift():
    system = desksuite.build("bilinear_pair")
    entry = desksuite.BY_NAME["bilinear_pair"]
    tr = integrate(system, desksuite.initial_state(entry), 1.0, 0.1)
    tr.energies[5] += 1.0  # diagnostics reads the energy column
    report = diagnostics(tr)
    assert report.max_energy_drift >= 1.0


def test_a_drift_past_the_float_range_reads_inf_and_a_nan_drift_nan():
    # Before: abs() raised OverflowError on a finite drift whose modulus
    # overflows, and on a NaN drift after any earlier overflow: CPython's
    # complex abs keeps a stale ERANGE for a NaN.
    system = desksuite.build("bilinear_pair")
    tr = integrate(system, desksuite.initial_state(desksuite.BY_NAME["bilinear_pair"]), 0.2, 0.1)
    tr.energies[1] = tr.energies[0] + complex(1.5e308, 1.5e308)
    assert diagnostics(tr).max_energy_drift == math.inf
    tr.energies[0] = complex(math.nan, math.nan)
    with pytest.raises(OverflowError):
        cmath.exp(1000)
    assert math.isnan(diagnostics(tr).mean_energy_drift)


def test_phase_state_helpers():
    state = PhaseState(0.5, (1.0 + 1.0j,), (2.0,))
    assert state.m == 1
    assert state.is_finite()
    point = state.point()
    assert point[Sym("z", 1)] == 1.0 + 1.0j
    assert point[Sym("w", 1)] == 2.0
    assert not PhaseState(0.0, (math.nan,), (0.0,)).is_finite()
