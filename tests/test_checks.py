"""The consistency check suite behind the check subcommand."""

import math

import pytest

from kahlermech import checks
from kahlermech.checks import DEFAULT_THRESHOLDS, run_check_suite
from kahlermech.cli import main
from kahlermech.dynamics import PhaseState
from kahlermech.expressions import Div, Expr, GeneratedFunction, Num, Sym, emit
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


@pytest.mark.parametrize("second, expected", [(Num(0.25), 0.25), (Div(1, Sym("z", 1) - 1), 0.0)])
def test_a_state_with_an_undefined_closure_sum_adds_nothing(monkeypatch, second, expected):
    # Stand-in closure sums: 0.5, then either 0.25 or 1/(z1 - 1), which is
    # undefined at the only state walked (samples=0 leaves the initial one).
    # bilinear_pair's two-form has largest entry 2, the closedness scale.
    terms = [Num(0.5), second]
    generated = GeneratedFunction("z, w", [f"return [{', '.join(map(emit, terms))}]"], terms, 1)
    monkeypatch.setattr(checks, "_closure_terms", lambda system: generated)
    results = run_check_suite(desksuite.build("bilinear_pair"), PhaseState(0.0, (1.0,), (0.5,)),
                              t1=0.01, dt=0.01, samples=0)
    assert {r.name: r.measured for r in results}["closedness"] == expected
