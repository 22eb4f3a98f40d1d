"""Holonomy analysis of linear velocity constraint sets.

A constraint set is a family of one-forms omega_1..omega_r on the chart;
its annihilator distribution at a state is the common kernel of the forms.
Whether that distribution is integrable is probed numerically: the
exterior derivatives d omega_a are evaluated on pairs drawn from an
orthonormal kernel basis at seeded random sample states.  All thresholds
are applied relative to the magnitude of the form's own coefficients at
the sample, so rescaling a form cannot change any verdict.

Verdicts:

* ``CLOSED``           every form has d omega = 0 at all samples;
* ``LOCALLY_HOLONOMIC`` some d omega is nonzero, but every restriction to
  the distribution vanishes within tolerance;
* ``ANHOLONOMIC``      a restriction is above tolerance; a concrete witness
  pair of kernel vectors is reported;
* ``INDETERMINATE``    every sample hit a rank deficiency, so nothing can
  be said.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .expressions import EvalDomainError, Expr, Num, Sym, evaluate, make_point, walk
from .exterior import OneForm, TwoForm, VectorField, exterior_derivative

RANK_RTOL = 1e-10


class RankDeficientConstraints(Exception):
    """The constraint coefficient matrix lost rank at a state."""

    def __init__(self, rank: int, r: int):
        super().__init__(
            f"constraint forms span rank {rank} < {r} at this state"
        )
        self.rank = rank
        self.expected = r


class Verdict(enum.Enum):
    CLOSED = "closed"
    LOCALLY_HOLONOMIC = "locally_holonomic"
    ANHOLONOMIC = "anholonomic"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConstraintSet:
    """Named one-forms defining a distribution by their common kernel."""

    forms: Tuple[OneForm, ...]
    names: Tuple[str, ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("a constraint set needs at least one form")
        m = self.forms[0].m
        for f in self.forms:
            if f.m != m:
                raise ValueError("all constraint forms must share one dimension")
        if len(self.forms) > 2 * m - 1:
            raise ValueError(
                f"at most 2m-1={2 * m - 1} independent constraints are possible"
            )
        if len(self.names) != len(self.forms):
            raise ValueError("need exactly one name per form")

    @property
    def m(self) -> int:
        return self.forms[0].m

    @property
    def r(self) -> int:
        return len(self.forms)


def constraint_set(forms: Sequence[OneForm], names: Optional[Sequence[str]] = None) -> ConstraintSet:
    if names is None:
        names = tuple(f"omega{i}" for i in range(1, len(forms) + 1))
    return ConstraintSet(tuple(forms), tuple(names))


@dataclass(frozen=True)
class Witness:
    """A kernel pair with a bracket value above tolerance."""

    form_index: int
    z: Tuple[complex, ...]
    w: Tuple[complex, ...]
    x: VectorField
    y: VectorField
    value: float  # |d omega(x, y)| relative to the form's coefficient scale


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    closed: Tuple[bool, ...]
    max_bracket: float
    valid_samples: int
    deficient_samples: int
    witness: Optional[Witness]
    samples: int
    seed: int
    tol: float


def is_basic(form: OneForm) -> bool:
    """True when the form has no dw components and no velocity dependence."""
    for c in form.b:
        if isinstance(c, Expr):
            if not (isinstance(c, Num) and c.value == 0):
                return False
        elif c != 0:
            return False
    for c in form.a:
        if isinstance(c, Expr) and any(
            isinstance(n, Sym) and n.kind == "w" for n in walk(c)
        ):
            return False
    return True


def sample_points(m: int, samples: int, seed: int) -> List[dict]:
    """Seeded uniform draws from the per-component box [-1,1] + [-1,1]i."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        vals = rng.uniform(-1.0, 1.0, size=(2, 2 * m))
        zw = vals[0] + 1j * vals[1]
        out.append(make_point(zw[:m], zw[m:]))
    return out


def _coefficient_matrix(cs: ConstraintSet, point) -> np.ndarray:
    """r x 2m matrix of evaluated constraint coefficients."""
    rows = []
    for form in cs.forms:
        rows.append([
            evaluate(c, point) if isinstance(c, Expr) else complex(c)
            for c in form.coefficients
        ])
    return np.asarray(rows, dtype=complex)


def _form_scales(omega_matrix: np.ndarray) -> np.ndarray:
    """Per-form coefficient magnitude used to normalize thresholds."""
    return np.max(np.abs(omega_matrix), axis=1)


def annihilator_basis(cs: ConstraintSet, state) -> List[VectorField]:
    """Orthonormal basis of the kernel of the constraint forms at a state.

    ``state`` is anything with ``z``/``w`` tuples (a PhaseState) or a
    ready-made evaluation point mapping.
    """
    point = state if isinstance(state, dict) else make_point(state.z, state.w)
    omega = _coefficient_matrix(cs, point)
    _, sigma, vh = np.linalg.svd(omega)
    rank = int(np.sum(sigma > RANK_RTOL * (sigma[0] if sigma.size else 0.0)))
    if rank < cs.r:
        raise RankDeficientConstraints(rank, cs.r)
    kernel = vh[cs.r:].conj()
    m = cs.m
    return [VectorField(tuple(row[:m]), tuple(row[m:])) for row in kernel]


def closedness_test(
    cs: ConstraintSet,
    samples: int = 50,
    seed: int = 0,
    tol: float = 1e-8,
) -> List[bool]:
    """Per-form booleans: does d omega vanish at all valid sample states?"""
    d_forms = [exterior_derivative(f) for f in cs.forms]
    points = sample_points(cs.m, samples, seed)
    valid = 0
    worst = np.zeros(cs.r)
    for point in points:
        try:
            omega = _coefficient_matrix(cs, point)
            scales = _form_scales(omega)
            here = [
                float(np.max(np.abs(d_form.as_matrix(point))))
                / (scales[a] if scales[a] > 0 else 1.0)
                for a, d_form in enumerate(d_forms)
            ]
        except EvalDomainError as err:
            warnings.warn(f"skipping sample with undefined coefficients: {err}")
            continue
        worst = np.maximum(worst, here)
        valid += 1
    if valid == 0:
        raise ValueError("no valid sample states: every draw hit a domain error")
    return [bool(w <= tol) for w in worst]


def frobenius_test(
    cs: ConstraintSet,
    samples: int = 50,
    seed: int = 0,
    tol: float = 1e-8,
) -> Classification:
    """Classify the distribution cut out by the constraint forms."""
    d_forms = [exterior_derivative(f) for f in cs.forms]
    points = sample_points(cs.m, samples, seed)
    m, r = cs.m, cs.r

    closed_flags = [True] * r
    max_bracket = 0.0
    best: Optional[Witness] = None
    valid = 0
    deficient = 0
    for point in points:
        try:
            omega = _coefficient_matrix(cs, point)
            scales = _form_scales(omega)
            _, sigma, vh = np.linalg.svd(omega)
            top = sigma[0] if sigma.size else 0.0
            rank = int(np.sum(sigma > RANK_RTOL * top))
            if rank < r:
                deficient += 1
                continue
            kernel = vh[r:].conj().T  # columns: orthonormal kernel basis
            d_mats = [d.as_matrix(point) for d in d_forms]
        except EvalDomainError as err:
            warnings.warn(f"skipping sample with undefined coefficients: {err}")
            continue
        valid += 1
        for a in range(r):
            scale = scales[a] if scales[a] > 0 else 1.0
            if np.max(np.abs(d_mats[a])) / scale > tol:
                closed_flags[a] = False
            restricted = kernel.T @ d_mats[a] @ kernel
            if restricted.size == 0:
                continue
            u, s, vh_r = np.linalg.svd(restricted)
            value = float(s[0]) / scale
            if value > max_bracket:
                max_bracket = value
                xv = kernel @ u[:, 0].conj()
                yv = kernel @ vh_r[0].conj()
                best = Witness(
                    form_index=a,
                    z=tuple(point[Sym("z", i)] for i in range(1, m + 1)),
                    w=tuple(point[Sym("w", i)] for i in range(1, m + 1)),
                    x=VectorField(tuple(xv[:m]), tuple(xv[m:])),
                    y=VectorField(tuple(yv[:m]), tuple(yv[m:])),
                    value=value,
                )

    if valid == 0:
        return Classification(
            Verdict.INDETERMINATE, tuple(closed_flags), 0.0, 0, deficient,
            None, samples, seed, tol,
        )
    if all(closed_flags):
        verdict = Verdict.CLOSED
    elif max_bracket <= tol:
        verdict = Verdict.LOCALLY_HOLONOMIC
    else:
        verdict = Verdict.ANHOLONOMIC
    witness = best if verdict is Verdict.ANHOLONOMIC else None
    return Classification(
        verdict, tuple(closed_flags), max_bracket, valid, deficient,
        witness, samples, seed, tol,
    )
