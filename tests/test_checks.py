"""The consistency check suite behind the check subcommand."""

import hashlib
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
from kahlermech.systemfile import parse_system_file
from check_reference import reference_suite
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
    system, state = desksuite.build("bilinear_pair"), PhaseState(0.0, (1.0,), (0.5,))
    results = run_check_suite(system, state, t1=0.01, dt=0.01, samples=0)
    assert {r.name: r.measured for r in results}["closedness"] == expected
    assert _suite_against_reference(system, state, 0, 0, t1=0.01) == (1, 0)


def test_a_closure_sum_whose_magnitude_passes_the_float_range_reads_inf(monkeypatch):
    # A finite stand-in sum on which abs() raises OverflowError, which the
    # suite let through.
    terms = [Num(0.5), Num(complex(1.3e308, 1.3e308))]
    generated = GeneratedFunction(terms, terms, 1)
    monkeypatch.setattr(checks, "_closure_terms", lambda system: generated)
    system, state = desksuite.build("bilinear_pair"), PhaseState(0.0, (1.0,), (0.5,))
    results = run_check_suite(system, state, t1=0.01, dt=0.01, samples=0)
    closedness = {r.name: r for r in results}["closedness"]
    assert (closedness.measured, closedness.passed) == (math.inf, False)
    assert _suite_against_reference(system, state, 0, 0, t1=0.01) == (1, 0)


@pytest.mark.parametrize("name, counts", [("exponential_pair", (41, 0)),
                                          ("degenerate_quadratic", (0, 41))])
def test_closedness_matches_the_reference_on_sums_that_vary_by_state(monkeypatch, name, counts):
    # Every shipped two-form is closed to the bit, so closedness reads 0 on
    # them all.  Stand-in sums that vary by state measure each state's
    # magnitudes and scale against the reference: over a two-form whose
    # largest entry varies (the scale, below and above 1), and over a
    # singular one, where every state counts though no solve succeeds.
    terms = [parse_expression(text, 1) for text in ("z1*w1 - 0.3", "exp(2*z1) + w1", "0.5")]
    generated = GeneratedFunction(terms, terms, 1)
    monkeypatch.setattr(checks, "_closure_terms", lambda system: generated)
    entry = desksuite.BY_NAME[name]
    system, state = desksuite.build(entry.name), desksuite.initial_state(entry)
    assert _suite_against_reference(system, state, 40, 3) == counts
    closedness = run_check_suite(system, state, 0.02, 0.01, samples=40, seed=3)[1]
    assert 0.5 < closedness.measured < math.inf


def test_a_sampled_state_where_the_assembly_is_undefined_is_skipped():
    # L_z = w1 - 1/(z1 - s)^2 has no value at the first sampled state, where z1 = s.
    (s, _), = sample_points(1, 1, 0)
    lagrangian = Add(Mul(Sym("z", 1), Sym("w", 1)), Div(Num(1), Sub(Sym("z", 1), Num(s[0]))))
    system, state = LagrangianSystem(1, lagrangian), PhaseState(0.0, (0.5,), (0.5,))
    results = run_check_suite(system, state, t1=0.01, dt=0.01, samples=3, seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["solve"].note == "3 states solved, 1 skipped"
    for name in ("antisymmetry", "closedness", "solve", "oracle"):
        assert by_name[name].passed, (name, by_name[name].measured)
    assert _suite_against_reference(system, state, 3, 0, t1=0.01) == (3, 1)


def test_a_state_with_a_non_finite_two_form_is_skipped():
    # Phi_L = 2i(1 + exp(w1)) is infinite at w1 = 709.5, where exp(w1) is
    # still finite, so the assembly raises nothing; the solve rejects it.
    # Before: K + K^T summed inf and -inf, and numpy warned "invalid value".
    system = LagrangianSystem(1, parse_expression("z1*w1 + z1*exp(w1)", 1))
    state = PhaseState(0.0, (0.5,), (709.5,))
    results = run_check_suite(system, state, t1=0.01, dt=0.01, samples=2, seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["solve"].note == "2 states solved, 1 skipped"
    for name in ("antisymmetry", "closedness", "solve", "oracle"):
        assert by_name[name].passed, (name, by_name[name].measured)
    assert _suite_against_reference(system, state, 2, 0, t1=0.01) == (2, 1)


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


def _suite_against_reference(system, initial, samples, seed, t1=0.02, dt=0.01):
    """Asserts that the suite returns the per-state reference's results,
    every measured value, note and verdict to the bit (by repr); returns
    the (solved, skipped) counts of the note."""
    results = run_check_suite(system, initial, t1=t1, dt=dt, samples=samples, seed=seed)
    assert repr(results) == repr(reference_suite(system, initial, t1, dt, samples, seed))
    words = results[2].note.split()
    return int(words[0]), int(words[3])


@pytest.mark.parametrize("name", sorted(desksuite.BY_NAME))
def test_check_suite_matches_the_per_state_reference_on_the_desk(name):
    entry = desksuite.BY_NAME[name]
    solved, skipped = _suite_against_reference(
        desksuite.build(name), desksuite.initial_state(entry), 30, 4
    )
    assert (solved, skipped) == ((0, 31) if entry in desksuite.SINGULAR else (31, 0))


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


# The state_sweep benchmark's check flags.
SWEEP_T1 = 2.0**-5
SWEEP_SAMPLES = 75


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """name -> (system file spec, seed) of each seed-7 ``state_sweep``
    input: the shipped systems and the generated ones, m up to 4, r up to 4."""
    work = tmp_path_factory.mktemp("state_sweep")
    found = {}
    for op in desksuite.benchmark_inputs().state_sweep(7, work):
        found[op.name] = parse_system_file(op.path), int(op.args[op.args.index("--seed") + 1])
    assert len(found) == 14
    return found


# What the suite returned while it measured one sampled state at a time.
CHECK_DIGESTS = {
    "sweep_bilinear_pair": "296a586a820c5b0937788bd5c1f7d5073eb6d29e868b55c66e6dd5f300793faa",
    "sweep_coupled_pairs": "8c43d0ba1799483cb0759f6784cfb31fc29456f4af4f7a05088bb78a84482c9d",
    "sweep_exchange_constrained": "e4dc0004405f1bea3ce029b70841c315d842ce283fd7d8f732ddcf1a6a738608",
    "sweep_exponential_pair": "4a8bda5eb34f651711a8afcfa11a826d454821b369e7a4c6c331deb61b1e4e60",
    "sweep_saturating_pair": "596b9b3199fbb14e23fb1bbf06bd74e015e45caf3444233ce14a0237f700b2fc",
    "sweep_shifted_pair": "ce32dde163e47f46cca8f4a0c1e6298f38f41e04fd6d8c26e4d62cf04e5b35cd",
    "sweep_gen0_m1_r0": "d5a355fcd24a40f83344fb8749643f66225ed9d007ac098f5e06a8a00a46f658",
    "sweep_gen1_m2_r0": "b3c2e0a54829ee70bc4fe80aff6e722549fa940c08e99f3fedbfa0080e41fe29",
    "sweep_gen2_m2_r2": "a13053e657a3bd5167d33eb8667cf154bdad1b9be2dfdfd13a4fb8e291fba068",
    "sweep_gen3_m3_r0": "f497f2d424e6a5c77f1e8afbd5c6c58a5bb9b33ce702e0ee1f200c24abe83c11",
    "sweep_gen4_m3_r2": "882590b47446e1714e20075c6402866df6409e8ea1cb15698add2bb302a92c2e",
    "sweep_gen5_m4_r0": "cfa4d0a0c07cd3cf4efa2ce835fa1c6d521279e6e5443f03deb66b6770d27ce5",
    "sweep_gen6_m4_r2": "2aae8984f24c638293dddf77f9a2fe08562b75d27ba8fe860203f828972e46c4",
    "sweep_gen7_m4_r4": "3ec1af63d2aeb8aa7253cf23add1d6a8fecd9bc4a9a38b82d4d3afe8164a3a8a",
}


def test_check_results_keep_their_digests(sweep_inputs):
    # sha256 of the repr of every result on each input, run as the
    # workload's check runs it: its flags, the file's dt and tolerances.
    digests = {}
    for name, (spec, seed) in sweep_inputs.items():
        results = run_check_suite(spec.build_system(), spec.initial_state(), SWEEP_T1, spec.dt,
                                  samples=SWEEP_SAMPLES, seed=seed, overrides=spec.tolerances)
        digests[name] = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digests == CHECK_DIGESTS


@pytest.mark.parametrize("name", list(CHECK_DIGESTS))
def test_check_suite_matches_the_per_state_reference_on_the_sweep(sweep_inputs, name):
    spec, seed = sweep_inputs[name]
    system, initial = spec.build_system(), spec.initial_state()
    results = run_check_suite(system, initial, SWEEP_T1, spec.dt, samples=SWEEP_SAMPLES, seed=seed)
    reference = reference_suite(system, initial, SWEEP_T1, spec.dt, SWEEP_SAMPLES, seed)
    assert repr(results) == repr(reference)
