"""Annihilator bases, closedness sweeps and the holonomy classifier."""

import numpy as np
import pytest

from kahlermech.constraints import (
    ConstraintSet,
    RankDeficientConstraints,
    Verdict,
    annihilator_basis,
    closedness_test,
    constraint_set,
    frobenius_test,
    sample_points,
)
from kahlermech.dynamics import PhaseState
from kahlermech.exterior import evaluate_two_form, exterior_derivative, one_form
from kahlermech.expressions import EvalDomainError, make_point, parse_expression

from classify_reference import reference_closedness, reference_frobenius


def _form(m, a_texts, b_texts):
    return one_form(
        [parse_expression(t, m) for t in a_texts],
        [parse_expression(t, m) for t in b_texts],
    )


DZ1_M2 = _form(2, ("1", "0"), ("0", "0"))
MOMENTUM = _form(2, ("w1", "0"), ("0", "0"))  # w1 dz1
CONTACT = _form(3, ("(0 - z2)", "0", "1"), ("0", "0", "0"))  # dz3 - z2 dz1


# ------------------------------------------------------------- constructors


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        constraint_set([])
    with pytest.raises(ValueError):
        constraint_set([DZ1_M2, _form(1, ("1",), ("0",))])
    with pytest.raises(ValueError):
        constraint_set([DZ1_M2], names=["a", "b"])
    too_many = [_form(1, ("1",), ("0",)), _form(1, ("0",), ("1",))]
    with pytest.raises(ValueError):
        constraint_set(too_many)
    cs = constraint_set([DZ1_M2, MOMENTUM])
    assert cs.m == 2 and cs.r == 2
    assert len(cs.names) == 2


# -------------------------------------------------------------- annihilator


def test_annihilator_of_a_basic_form():
    cs = constraint_set([DZ1_M2])
    state = PhaseState(0.0, (0.3 + 0.1j, -0.5), (1.0, 2.0))
    basis = annihilator_basis(cs, state)
    assert len(basis) == 3
    point = state.point()
    for v in basis:
        assert abs(DZ1_M2(v, point)) < 1e-12
    # Basis vectors are mutually independent: stack and check the rank.
    M = np.array([list(v.hol) + list(v.fib) for v in basis])
    assert np.linalg.matrix_rank(M) == 3


def test_annihilator_of_the_exchange_pair():
    forms = [
        _form(2, ("w2", "0"), ("0", "z1")),
        _form(2, ("0", "w1"), ("z2", "0")),
    ]
    cs = constraint_set(forms)
    state = PhaseState(0.0, (0.9 + 0.2j, 0.1 - 0.5j), (0.3 - 0.4j, 0.8 + 0.1j))
    basis = annihilator_basis(cs, state)
    assert len(basis) == 2
    point = state.point()
    for v in basis:
        for omega in forms:
            assert abs(omega(v, point)) < 1e-12


def test_annihilator_detects_rank_deficiency():
    cs = constraint_set([MOMENTUM])
    state = PhaseState(0.0, (1.0, 1.0), (0.0, 1.0))  # w1 = 0 kills the form
    with pytest.raises(RankDeficientConstraints) as info:
        annihilator_basis(cs, state)
    assert info.value.rank == 0
    assert info.value.expected == 1


# ---------------------------------------------------------------- closedness


def test_closedness_flags():
    cs = constraint_set([DZ1_M2, MOMENTUM])
    closed = closedness_test(cs, samples=30, seed=0)
    assert closed == [True, False]
    # z1 dz1 is exact, hence closed despite the variable coefficient.
    exact = constraint_set([_form(1, ("z1",), ("0",))])
    assert closedness_test(exact, samples=30, seed=0) == [True]


def test_closedness_is_scale_invariant():
    # The same form at wildly different coefficient scales must classify
    # identically: deviations are measured relative to the form's size.
    for factor in ("1e-6", "1e6"):
        scaled = constraint_set([_form(2, (f"{factor}*w1", "0"), ("0", "0"))])
        assert closedness_test(scaled, samples=30, seed=0) == [False]
        const = constraint_set([_form(2, (factor, "0"), ("0", "0"))])
        assert closedness_test(const, samples=30, seed=0) == [True]


# ------------------------------------------------------------ classification


def test_closed_verdict():
    cls = frobenius_test(constraint_set([DZ1_M2]), samples=50, seed=0)
    assert cls.verdict is Verdict.CLOSED
    assert cls.closed == (True,)
    assert cls.max_bracket <= 1e-8
    assert cls.witness is None
    assert cls.valid_samples == 50
    assert cls.deficient_samples == 0


def test_locally_holonomic_verdict():
    # w1 dz1 is not closed, but 1/w1 scales it to dz1: the annihilator
    # distribution is integrable wherever w1 is nonzero.
    cls = frobenius_test(constraint_set([MOMENTUM]), samples=50, seed=0)
    assert cls.verdict is Verdict.LOCALLY_HOLONOMIC
    assert cls.closed == (False,)
    assert cls.max_bracket <= 1e-8


def test_anholonomic_verdict_with_witness():
    cls = frobenius_test(constraint_set([CONTACT]), samples=50, seed=0)
    assert cls.verdict is Verdict.ANHOLONOMIC
    w = cls.witness
    assert w is not None
    assert w.value >= 0.9
    assert cls.max_bracket >= 0.9
    # The witness must reproduce: the recorded kernel pair evaluates the
    # recorded form's differential to the recorded magnitude.
    point = make_point(w.z, w.w)
    d_omega = exterior_derivative(CONTACT)
    raw = evaluate_two_form(d_omega, w.x, w.y, point)
    coeffs = CONTACT.coefficient_vector(point)
    scale = float(np.max(np.abs(coeffs)))
    assert abs(abs(raw) / scale - w.value) < 1e-9


def test_verdict_is_stable_under_rescaling():
    base = frobenius_test(constraint_set([CONTACT]), samples=40, seed=3)
    doubled = _form(3, ("(0 - 2)*z2", "0", "2"), ("0", "0", "0"))
    scaled = frobenius_test(constraint_set([doubled]), samples=40, seed=3)
    assert scaled.verdict is Verdict.ANHOLONOMIC
    # Relative normalization makes the witness magnitude scale free.
    assert abs(scaled.max_bracket - base.max_bracket) < 1e-9


def test_verdict_is_stable_under_recombination():
    # Swapping in independent linear combinations spans the same
    # distribution, so the verdict must not move.
    pair = [DZ1_M2, _form(2, ("0", "1"), ("0", "0"))]
    base = frobenius_test(constraint_set(pair), samples=40, seed=1)
    mixed = [
        _form(2, ("1", "2"), ("0", "0")),  # dz1 + 2 dz2
        _form(2, ("0", "1"), ("0", "0")),
    ]
    combo = frobenius_test(constraint_set(mixed), samples=40, seed=1)
    assert base.verdict is Verdict.CLOSED
    assert combo.verdict is Verdict.CLOSED


def test_indeterminate_when_forms_are_dependent_everywhere():
    # dz1 and 2 dz1 never span rank two, so every sample is discarded and
    # no verdict can honestly be reached.
    dependent = [
        _form(2, ("1", "0"), ("0", "0")),
        _form(2, ("2", "0"), ("0", "0")),
    ]
    cls = frobenius_test(constraint_set(dependent), samples=20, seed=0)
    assert cls.verdict is Verdict.INDETERMINATE
    assert cls.valid_samples == 0
    assert cls.deficient_samples == 20


def test_classification_echoes_parameters():
    cls = frobenius_test(constraint_set([DZ1_M2]), samples=17, seed=42, tol=1e-7)
    assert cls.samples == 17
    assert cls.seed == 42
    assert cls.tol == 1e-7


def test_non_finite_samples_are_skipped_as_domain_errors():
    # 1e308*re(z1)*4 overflows wherever |re(z1)| > 0.45: those samples are
    # skipped with the offending subtree named, the rest classify.
    cs = constraint_set([_form(2, ("1e308*re(z1)*4", "1"), ("0", "0"))])
    with pytest.warns(UserWarning, match="non-finite value: 1e[+]?308 [*] re[(]z1[)] [*] 4"):
        cls = frobenius_test(cs, samples=40, seed=2)
    assert cls.verdict is Verdict.CLOSED
    assert 0 < cls.valid_samples < 40
    assert cls.deficient_samples == 0
    with pytest.warns(UserWarning, match="non-finite value"):
        assert closedness_test(cs, samples=40, seed=2) == [True]


@pytest.mark.parametrize("m, a_texts, b_texts", [
    (1, ("1e200*1e200*z1",), ("1",)),
    (2, ("1e300*1e300*re(z1)*z2 + 1", "0"), ("0", "0")),
])
def test_forms_non_finite_everywhere_have_no_valid_sample(m, a_texts, b_texts):
    cs = constraint_set([_form(m, a_texts, b_texts)])
    with pytest.warns(UserWarning, match="non-finite value"):
        cls = frobenius_test(cs, samples=10, seed=0)
    assert cls.verdict is Verdict.INDETERMINATE
    assert (cls.valid_samples, cls.deficient_samples) == (0, 0)
    with pytest.warns(UserWarning, match="non-finite value"), \
            pytest.raises(ValueError, match="no valid sample states"):
        closedness_test(cs, samples=10, seed=0)
    state = PhaseState(0.0, (0.5,) * m, (0.5,) * m)
    with pytest.raises(EvalDomainError, match="non-finite value"):
        annihilator_basis(cs, state)


@pytest.mark.parametrize("a_text", [
    "1.7e308*(1 + i)",  # |coefficient| overflows
    "1.5e308",  # each |coefficient| fits, the row's singular value overflows
])
def test_forms_whose_magnitudes_overflow_have_no_valid_sample(a_text):
    # Finite coefficients, but the SVD of the row would read as rank deficient.
    cs = constraint_set([_form(1, (a_text,), ("1.5e308",))])
    with pytest.warns(UserWarning, match="magnitude beyond the float range"):
        cls = frobenius_test(cs, samples=10, seed=0)
    assert cls.verdict is Verdict.INDETERMINATE
    assert (cls.valid_samples, cls.deficient_samples) == (0, 0)
    with pytest.warns(UserWarning, match="magnitude beyond the float range"), \
            pytest.raises(ValueError, match="no valid sample states"):
        closedness_test(cs, samples=10, seed=0)


@pytest.mark.parametrize("a_text, b_text, named", [
    ("1.7e308*(1 + i)", "1", "1.7e+308 * (1 + i)"),  # |coefficient| overflows
    ("1.5e308", "1.5e308", "1.5e+308"),  # the singular value overflows
    ("1", "1.7e308*(1 + i)*z1", "(1.7e+308 + 1.7e+308*i)"),  # |c z1| fits at z1 = 0.5, |d omega| does not
])
def test_annihilator_basis_applies_the_sample_pass_overflow_rule(a_text, b_text, named):
    cs = constraint_set([_form(1, (a_text,), (b_text,))])
    with pytest.raises(EvalDomainError, match="magnitude beyond the float range") as info:
        annihilator_basis(cs, PhaseState(0.0, (0.5,), (0.5,)))
    assert str(info.value.subtree) == named


def test_each_test_warns_for_the_samples_it_skips():
    # The two tests share one evaluation pass, but each still reports.
    cs = constraint_set([_form(1, ("1e200*1e200*z1",), ("1",))])
    with pytest.warns(UserWarning) as first:
        frobenius_test(cs, samples=3, seed=0)
    with pytest.warns(UserWarning) as second:
        frobenius_test(cs, samples=3, seed=0)
    assert [str(w.message) for w in first] == [str(w.message) for w in second]
    assert len(first) == 3


# ------------------------------------------------------ per-sample reference

REFERENCE_SETS = {
    "dz1": [DZ1_M2],
    "w1 dz1": [MOMENTUM],
    "contact": [CONTACT],
    "dz1 + z2 dw1": [_form(2, ("1", "0"), ("z2", "0"))],
    "dz1 + z2 dw1, dz2": [_form(2, ("1", "0"), ("z2", "0")), _form(2, ("0", "1"), ("0", "0"))],
    "mixed m=3": [
        _form(3, ("1", "w3", "0"), ("z2*z3", "0", "conj(z1)")),
        _form(3, ("0", "exp(z1)", "1"), ("0", "w1^2", "0")),
    ],
    "dependent": [DZ1_M2, _form(2, ("2", "0"), ("0", "0"))],
    "rank drop at w1 = 0": [_form(2, ("w1", "1"), ("0", "0")), MOMENTUM],
}


@pytest.mark.parametrize("name", REFERENCE_SETS)
@pytest.mark.parametrize("seed", [0, 909])
def test_stacked_classify_matches_the_per_sample_reference(name, seed):
    cs = constraint_set(REFERENCE_SETS[name])
    tol = 1e-8
    assert closedness_test(cs, 30, seed, tol) == reference_closedness(cs, 30, seed, tol)
    closed, max_bracket, valid, deficient, witness = reference_frobenius(cs, 30, seed, tol)
    cls = frobenius_test(cs, 30, seed, tol)
    assert (cls.closed, cls.valid_samples, cls.deficient_samples) == (closed, valid, deficient)
    assert abs(cls.max_bracket - max_bracket) <= 1e-12 * max(max_bracket, 1e-300)
    if cls.verdict is Verdict.ANHOLONOMIC:
        assert (cls.witness.z, cls.witness.w, cls.witness.form_index) == witness
    else:
        assert cls.witness is None


# ------------------------------------------------------------------ sampling


def test_sample_points_are_deterministic_per_seed():
    a = sample_points(2, 5, seed=9)
    b = sample_points(2, 5, seed=9)
    c = sample_points(2, 5, seed=10)
    assert a == b
    assert any(a[i][0][0] != c[i][0][0] for i in range(5))
    assert all(len(z) == len(w) == 2 for z, w in a)
    # One (samples, 2, 2m) draw gives the stream of one (2, 2m) draw per
    # sample: real parts, then imaginary parts, of z then w.
    assert a[0][0][0] == 0.7404984079401693 + 0.43214925920713054j
    assert a[2][0][1] == 0.41066740917890754 + 0.565181830656263j
    assert a[4][1][1] == -0.8754930051666732 - 0.5478033452736573j


def test_constraint_set_dataclass_surface():
    cs = ConstraintSet((DZ1_M2,), ("only",))
    assert cs.names == ("only",)
    assert cs.forms[0] is DZ1_M2
