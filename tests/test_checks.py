"""The consistency check suite behind the check subcommand."""

import math

import pytest

from kahlermech import checks
from kahlermech.checks import DEFAULT_THRESHOLDS, run_check_suite
from kahlermech.cli import main
from kahlermech.dynamics import LagrangianSystem, PhaseState, SingularKahlerMatrix, solve_semispray
from kahlermech.constraints import sample_points
from kahlermech.expressions import (
    Add, Div, Expr, GeneratedFunction, Mul, Num, Sub, Sym, parse_expression,
)
from kahlermech.real_oracle import realify_and_solve
from check_reference import reference_measurements
import desksuite


def _run(name, **kwargs):
    entry = desksuite.BY_NAME[name]
    system = desksuite.build(name)
    defaults = dict(t1=1.0, dt=0.01, samples=10, seed=0)
    defaults.update(kwargs)
    return run_check_suite(system, desksuite.initial_state(entry), **defaults)


def test_all_checks_pass_on_a_healthy_system():
    # The constraint check only appears for constrained systems.
    results = _run("bilinear_pair")
    assert [r.name for r in results] == [
        "antisymmetry",
        "closedness",
        "solve",
        "oracle",
        "drift",
    ]
    for r in results:
        assert r.passed, (r.name, r.measured)
        assert r.threshold == DEFAULT_THRESHOLDS[r.name]
        assert r.measured <= r.threshold
    constrained = _run("exchange_constrained")
    assert [r.name for r in constrained] == [
        "antisymmetry",
        "closedness",
        "solve",
        "oracle",
        "drift",
        "constraint",
    ]


def test_each_sampled_state_is_assembled_once(monkeypatch):
    system = desksuite.build("exchange_constrained")
    # The compiled assembly, which GeneratedFunction.at and integrate call.
    call, calls = system._assemble._call, []
    monkeypatch.setattr(system._assemble, "_call", lambda *args: calls.append(args) or call(*args))
    results = _run("exchange_constrained", t1=0.0, samples=6)
    assert {r.name: r.note for r in results}["solve"] == "7 states solved, 0 skipped"
    # The initial state and 6 samples, then the trajectory's one sample at
    # t = 0 (t1 = 0).
    assert len(calls) == 7 + 1


def test_overrides_swap_individual_thresholds():
    results = _run("bilinear_pair", overrides={"drift": 0.5})
    by_name = {r.name: r for r in results}
    assert by_name["drift"].threshold == 0.5
    assert by_name["solve"].threshold == DEFAULT_THRESHOLDS["solve"]


def test_tol_all_wins_over_everything():
    results = _run("bilinear_pair", overrides={"drift": 0.5}, tol_all=0.0)
    assert all(r.threshold == 0.0 for r in results)
    by_name = {r.name: r for r in results}
    # Antisymmetry is exact by construction, so even a zero threshold holds;
    # the integration drift is only roundoff small and must fail.
    assert by_name["antisymmetry"].passed
    assert not by_name["drift"].passed


def test_degenerate_system_fails_solve_with_a_note():
    results = _run("degenerate_quadratic")
    by_name = {r.name: r for r in results}
    assert not by_name["solve"].passed
    assert math.isinf(by_name["solve"].measured)
    assert by_name["solve"].note
    assert not by_name["drift"].passed
    # The two-form itself is still antisymmetric and closed.
    assert by_name["antisymmetry"].passed
    assert by_name["closedness"].passed


def test_constraint_check_measures_the_constrained_run():
    results = _run("exchange_constrained")
    by_name = {r.name: r for r in results}
    assert by_name["constraint"].passed
    assert by_name["constraint"].measured < 1e-10


def _node_classes(cls=Expr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


def test_check_walks_no_expression_tree_at_a_sampled_state(tmp_path, monkeypatch):
    # Every sampled state goes through generated code; the tree walker is
    # left to name domain errors, and none occurs here.  Constant folding
    # while building evaluates at the empty point and is not counted.
    walked = []
    for cls in _node_classes():
        if "evaluate" in vars(cls):
            def counted(self, point, _evaluate=vars(cls)["evaluate"]):
                if point:
                    walked.append(self)
                return _evaluate(self, point)

            monkeypatch.setattr(cls, "evaluate", counted)
    entry = desksuite.BY_NAME["exchange_constrained"]
    assert entry.m >= 2
    code = main(["check", "--system", str(entry.system_file()), "--out", str(tmp_path),
                 "--t1", "0.05", "--samples", "5"])
    assert code == 0
    assert walked == []


@pytest.mark.parametrize("second, expected", [(Num(0.25), 0.25), (Div(1, Sub(Sym("z", 1), Num(1))), 0.0)])
def test_a_state_with_an_undefined_closure_sum_adds_nothing(monkeypatch, second, expected):
    # Stand-in closure sums: 0.5, then either 0.25 or 1/(z1 - 1), which is
    # undefined at the only state walked (samples=0 leaves the initial one).
    # bilinear_pair's two-form has largest entry 2, the closedness scale.
    terms = [Num(0.5), second]
    generated = GeneratedFunction(terms, terms, 1)
    monkeypatch.setattr(checks, "_closure_terms", lambda system: generated)
    results = run_check_suite(desksuite.build("bilinear_pair"), PhaseState(0.0, (1.0,), (0.5,)),
                              t1=0.01, dt=0.01, samples=0)
    assert {r.name: r.measured for r in results}["closedness"] == expected


def test_a_sampled_state_where_the_assembly_is_undefined_is_skipped():
    # L_z = w1 - 1/(z1 - s)^2 has no value at the first sampled state, where z1 = s.
    (s, _), = sample_points(1, 1, 0)
    lagrangian = Add(Mul(Sym("z", 1), Sym("w", 1)), Div(Num(1), Sub(Sym("z", 1), Num(s[0]))))
    results = run_check_suite(LagrangianSystem(1, lagrangian), PhaseState(0.0, (0.5,), (0.5,)),
                              t1=0.01, dt=0.01, samples=3, seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["solve"].note == "3 states solved, 1 skipped"
    for name in ("antisymmetry", "closedness", "solve", "oracle"):
        assert by_name[name].passed, (name, by_name[name].measured)


def test_a_state_with_a_non_finite_two_form_is_skipped():
    # Phi_L = 2i(1 + exp(w1)) is infinite at w1 = 709.5, where exp(w1) is
    # still finite, so the assembly raises nothing; the solve rejects it.
    # Before: K + K^T summed inf and -inf, and numpy warned "invalid value".
    system = LagrangianSystem(1, parse_expression("z1*w1 + z1*exp(w1)", 1))
    results = run_check_suite(system, PhaseState(0.0, (0.5,), (709.5,)),
                              t1=0.01, dt=0.01, samples=2, seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["solve"].note == "2 states solved, 1 skipped"
    for name in ("antisymmetry", "closedness", "solve", "oracle"):
        assert by_name[name].passed, (name, by_name[name].measured)


# ---------------------------------------------- stacked oracle vs per state

# Phi_L has the entry 2i(z1 - 0.5) beside entries of size 2.  At
# z1 = 0.5 + t(1 + i) with t just below 1e-12 the complex LU's pivot,
# 2 sqrt(2) t, clears its relative threshold of 2e-12 while the real
# split's, 2t, does not: the state fails the oracle only.
NEAR_SINGULAR = "z1*w1 + (z1 - 0.5)*z2*w2"


def _near(t):
    return PhaseState(0.0, (0.5 + t * (1 + 1j), 0.3 - 0.2j), (0.3, 0.1j))


def test_near_singular_states_split_the_two_solvers():
    system = LagrangianSystem(2, parse_expression(NEAR_SINGULAR, 2))
    for t in (0.8e-12, 0.9e-12):
        solve_semispray(system, _near(t))
        with pytest.raises(SingularKahlerMatrix):
            realify_and_solve(system, _near(t))
    with pytest.raises(SingularKahlerMatrix):
        solve_semispray(system, _near(0.5e-12))
    realify_and_solve(system, _near(2e-12))


def _suite_against_reference(system, initial, samples, seed):
    results = run_check_suite(system, initial, t1=0.02, dt=0.01, samples=samples, seed=seed)
    by_name = {r.name: r for r in results}
    worst_solve, worst_oracle, solved, skipped = reference_measurements(
        system, initial, samples, seed
    )
    note = f"{solved} states solved, {skipped} skipped"
    if solved == 0:
        worst_solve = worst_oracle = float("inf")
    for name, measured in (("solve", worst_solve), ("oracle", worst_oracle)):
        assert by_name[name].note == note
        assert by_name[name].measured == measured, name
    return solved, skipped


@pytest.mark.parametrize("name", ["coupled_pairs", "exchange_constrained", "degenerate_quadratic"])
def test_check_suite_matches_the_per_state_reference_on_the_desk(name):
    entry = desksuite.BY_NAME[name]
    solved, skipped = _suite_against_reference(
        desksuite.build(name), desksuite.initial_state(entry), 30, 4
    )
    assert (solved, skipped) == ((0, 31) if name == "degenerate_quadratic" else (31, 0))


def test_check_suite_matches_the_per_state_reference_where_the_oracle_fails(monkeypatch):
    system = LagrangianSystem(2, parse_expression(NEAR_SINGULAR, 2))
    # The initial state fails the oracle alone; the random samples pass.
    assert _suite_against_reference(system, _near(0.9e-12), 20, 5) == (20, 1)
    # Failures spread through the stack: oracle only, both, then regular.
    sampled = checks._sample_states(system, _near(2e-12), 12, 6)
    for position, t in ((1, 0.9e-12), (4, 0.5e-12), (5, 0.8e-12), (12, 0.85e-12)):
        sampled[position] = _near(t)
    monkeypatch.setattr(checks, "_sample_states", lambda *args: list(sampled))
    assert _suite_against_reference(system, _near(2e-12), 12, 6) == (9, 4)
