"""The package's public names and the README quick start's imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kahlermech
from kahlermech import (
    Classification, ConstraintSet, DiagnosticsReport, OneForm, PhaseState,
    SemispraySolution, Sym, Trajectory, TrajectorySample, VectorField, Verdict, Witness)
from kahlermech.checks import CheckResult
from kahlermech.systemfile import SystemSpec
from kahler_reference import CompatibilityReport

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in kahlermech.__all__ if not hasattr(kahlermech, name)]
    assert missing == []
    assert len(set(kahlermech.__all__)) == len(kahlermech.__all__)


def test_a_star_import_binds_each_name_to_its_home_modules_object():
    namespace = {}
    exec("from kahlermech import *", namespace)
    assert [name for name in kahlermech.__all__ if name not in namespace] == []
    moved = [name for name in kahlermech.__all__
             if namespace[name] is not getattr(sys.modules[namespace[name].__module__], name)]
    assert moved == []


def _fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = str(Path(kahlermech.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_the_package_resolves_its_exports_on_first_access():
    # A fresh interpreter, since this process has loaded every module.
    code = """
import sys
import kahlermech
loaded = lambda: sorted(name for name in sys.modules if name.startswith("kahlermech."))
assert loaded() == [], loaded()
assert set(kahlermech.__all__) <= set(dir(kahlermech)) and "__all__" in dir(kahlermech)
assert loaded() == [], loaded()
try:
    kahlermech.no_such_name
except AttributeError as err:
    assert str(err) == "module 'kahlermech' has no attribute 'no_such_name'", err
else:
    raise AssertionError("no AttributeError")
assert kahlermech.constraints is sys.modules["kahlermech.constraints"]
assert kahlermech.Verdict is kahlermech.constraints.Verdict
assert "kahlermech.checks" not in sys.modules
"""
    result = _fresh(code)
    assert result.returncode == 0, result.stderr


# Checkers and references that only the tests call, by their former home
# module; they live in tests/kahler_reference.py and tests/check_reference.py.
MOVED_TO_TESTS = {
    "CompatibilityReport": "exterior",
    "check_hermitian_compatibility": "exterior",
    "vertical_d": "exterior",
    "el_residual": "dynamics",
    "realify_and_solve": "real_oracle",
    "gauss_jordan_solve": "real_oracle",
    "EliminationFailure": "real_oracle",
}


@pytest.mark.parametrize("name, home", MOVED_TO_TESTS.items())
def test_the_test_only_checkers_are_not_shipped(name, home):
    assert name not in kahlermech.__all__
    for module in (kahlermech, getattr(kahlermech, home)):
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_the_real_oracle_imports_only_numpy():
    result = _fresh("""
import sys
import kahlermech.real_oracle
print(*sorted(name for name in sys.modules if name.startswith("kahlermech.")))
""")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["kahlermech._numpy", "kahlermech.real_oracle"]


def test_the_readme_imports_only_public_names():
    # The README's ``python`` blocks are parsed, not run: the quick start
    # integrates 10k steps.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    imported = [
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "kahlermech"
        for alias in node.names
    ]
    assert imported  # the quick start is still there
    assert [name for name in imported if name not in kahlermech.__all__] == []


# -- records: the behaviour the package keeps from its former dataclasses --

_FIELD = VectorField((1j,), (2.0,))
_SOLUTION = SemispraySolution(_FIELD, (), 0.0, 1e-16, 2.5)
_FORM = OneForm((1.0,), (0j,))

# (class, arguments for its fields without a default, repr, defaults)
RECORDS = [
    (CheckResult, ("energy", 1.5e-9, 1e-6, True),
     "CheckResult(name='energy', measured=1.5e-09, threshold=1e-06, passed=True, note='')",
     {"note": ""}),
    (ConstraintSet, ((_FORM,), ("omega1",)),
     "ConstraintSet(forms=(OneForm(a=(1.0,), b=(0j,)),), names=('omega1',))", {}),
    (Witness, (0, (1j,), (0j,), _FIELD, _FIELD, 0.75),
     "Witness(form_index=0, z=(1j,), w=(0j,), x=VectorField(hol=(1j,), fib=(2.0,)),"
     " y=VectorField(hol=(1j,), fib=(2.0,)), value=0.75)", {}),
    (Classification, (Verdict.CLOSED, (True,), 0.0, 3, 0, None, 3, 7, 1e-8),
     "Classification(verdict=<Verdict.CLOSED: 'closed'>, closed=(True,), max_bracket=0.0,"
     " valid_samples=3, deficient_samples=0, witness=None, samples=3, seed=7, tol=1e-08)", {}),
    (PhaseState, (0.5, (1,), (2j,)), "PhaseState(t=0.5, z=((1+0j),), w=(2j,))", {}),
    (SemispraySolution, (_FIELD, (), 0.0, 1e-16, 2.5),
     "SemispraySolution(xi=VectorField(hol=(1j,), fib=(2.0,)), multipliers=(),"
     " residual_symplectic=0.0, residual_constraints=1e-16, semispray_defect=2.5,"
     " constraint_residuals=(), energy=None)",
     {"constraint_residuals": (), "energy": None}),
    (TrajectorySample, (PhaseState(0.5, (1,), (2j,)), _SOLUTION, 3j),
     "TrajectorySample(state=PhaseState(t=0.5, z=((1+0j),), w=(2j,)),"
     " solution=SemispraySolution(xi=VectorField(hol=(1j,), fib=(2.0,)), multipliers=(),"
     " residual_symplectic=0.0, residual_constraints=1e-16, semispray_defect=2.5,"
     " constraint_residuals=(), energy=None), energy=3j)", {}),
    (Trajectory, ([0.0], [(1j,)], [(0j,)], [[1j, 2j]], [(0.0, 0.0, 0.0, ())], [3j], 0.1,
                  "completed"),
     "Trajectory(times=[0.0], z=[(1j,)], w=[(0j,)], vectors=[[1j, 2j]],"
     " bookkeeping=[(0.0, 0.0, 0.0, ())], energies=[3j], dt=0.1, status='completed',"
     " failure_time=None, failure_kind=None)",
     {"failure_time": None, "failure_kind": None}),
    (DiagnosticsReport, ("completed", 1, 0.0, 0.0, 0.0, 1e-16, 0.0),
     "DiagnosticsReport(status='completed', samples=1, max_energy_drift=0.0,"
     " mean_energy_drift=0.0, max_constraint_residual=0.0, max_symplectic_residual=1e-16,"
     " max_semispray_defect=0.0, failure_time=None, failure_kind=None)",
     {"failure_time": None, "failure_kind": None}),
    (VectorField, ((1j,), (2.0,)), "VectorField(hol=(1j,), fib=(2.0,))", {}),
    (OneForm, ((1.0,), (0j,)), "OneForm(a=(1.0,), b=(0j,))", {}),
    (CompatibilityReport, (0.0, 1e-17, 4),
     "CompatibilityReport(max_metric_deviation=0.0, max_form_antisymmetry=1e-17,"
     " samples_checked=4)", {}),
    (SystemSpec, ("pair", 1, "z1*w1", Sym("z", 1), (), (), (1j,), (0j,)),
     "SystemSpec(name='pair', m=1, lagrangian_text='z1*w1', lagrangian=Sym('z1'),"
     " constraint_names=(), constraint_forms=(), initial_z=(1j,), initial_w=(0j,),"
     " t1=10.0, dt=0.001, seed=0, tolerances={})",
     {"t1": 10.0, "dt": 0.001, "seed": 0, "tolerances": {}}),
]

MUTABLE = {Trajectory, SystemSpec}


def _raises(kind, message, action):
    with pytest.raises(kind) as info:
        action()
    assert str(info.value) == message


def _own_checks(cls):
    """What only some records have: the errors of their ``__post_init__``,
    the default factory and the cached property."""
    if cls is PhaseState:
        _raises(ValueError, "position and velocity tuples must have equal length",
                lambda: PhaseState(0.0, (1,), ()))
    elif cls is VectorField:
        _raises(ValueError, "holomorphic and fibre parts must have equal length",
                lambda: VectorField((1j,), ()))
        # Equal fields in two classes are not equal records.
        assert VectorField((1j,), (2.0,)) != OneForm((1j,), (2.0,))
        assert VectorField((1j,), (2.0,)).__eq__(OneForm((1j,), (2.0,))) is NotImplemented
    elif cls is OneForm:
        _raises(ValueError, "dz and dw coefficient lists must have equal length",
                lambda: OneForm((1.0,), ()))
    elif cls is ConstraintSet:
        _raises(ValueError, "a constraint set needs at least one form",
                lambda: ConstraintSet((), ()))
        _raises(ValueError, "all constraint forms must share one dimension",
                lambda: ConstraintSet((_FORM, OneForm((1.0, 0j), (0j, 0j))), ("a", "b")))
        _raises(ValueError, "at most 2m-1=1 independent constraints are possible",
                lambda: ConstraintSet((_FORM, _FORM), ("a", "b")))
        _raises(ValueError, "need exactly one name per form",
                lambda: ConstraintSet((_FORM,), ("a", "b")))
        cs = ConstraintSet((_FORM,), ("omega1",))
        assert cs._evaluate is cs._evaluate  # cached on the frozen instance
        assert "_evaluate" in vars(cs)
    elif cls is SystemSpec:
        first, second = SystemSpec(*RECORDS[-1][1]), SystemSpec(*RECORDS[-1][1])
        first.tolerances["drift"] = 1.0
        assert second.tolerances == {} and first.tolerances is not second.tolerances


@pytest.mark.parametrize("cls, args, text, defaults", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_records_keep_their_dataclass_behaviour(cls, args, text, defaults):
    names = cls.__match_args__
    a = cls(*args)
    # Fields in annotation order; positional or keyword arguments.
    assert repr(a) == text
    keyword = cls(**dict(zip(names, args)))
    assert a == keyword and not a != keyword
    for name, value in defaults.items():
        assert getattr(a, name) == value and getattr(keyword, name) == value
    assert len(names) == len(args) + len(defaults)
    # Equality holds only within a class, by the field tuple.
    b = cls(*args)
    object.__setattr__(b, names[0], "changed")
    assert a != b
    assert a.__eq__(object()) is NotImplemented
    # Frozen records hash as their field tuple and refuse assignment.
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, names[0], args[0])
        assert a == b
    else:
        assert hash(a) == hash(tuple(getattr(a, name) for name in names))
        _raises(AttributeError, f"cannot assign to field {names[-1]!r}",
                lambda: setattr(a, names[-1], None))
        _raises(AttributeError, f"cannot delete field {names[-1]!r}",
                lambda: delattr(a, names[-1]))
        assert repr(a) == text
    # A missing, extra, unknown or repeated argument is a TypeError.
    for call in (lambda: cls(*args[:-1]), lambda: cls(*args, *defaults.values(), None),
                 lambda: cls(*args, bogus=1), lambda: cls(*args, **{names[0]: args[0]})):
        with pytest.raises(TypeError):
            call()
    _own_checks(cls)
