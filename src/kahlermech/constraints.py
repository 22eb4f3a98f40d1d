"""Holonomy analysis of linear velocity constraint sets.

A constraint set is a family of one-forms omega_1..omega_r on the chart;
its annihilator distribution at a state is the common kernel of the forms.
Whether that distribution is integrable is probed numerically: the
exterior derivatives d omega_a are evaluated on pairs drawn from an
orthonormal kernel basis at seeded random sample states.  All thresholds
are applied relative to the magnitude of the form's own coefficients at
the sample, so rescaling a form cannot change any verdict.

Each set compiles, on first use, one generated function that returns every
coefficient and the upper triangle of every d omega_a at a state.  Both
tests share one pass over the samples and run their SVDs on the whole
stack; a sample where an entry is undefined or not finite is skipped with
a warning that names the subtree.

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
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from ._numpy import np
from ._record import record
from .expressions import (
    EvalDomainError, GeneratedFunction, as_expr, check_expression, overflow_error)
from .exterior import OneForm, VectorField, exterior_derivative
from .systemfile import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL

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


@record(frozen=True)
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
            for c in f.coefficients:
                check_expression(as_expr(c), m, "a constraint coefficient")
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

    @cached_property
    def _evaluate(self) -> GeneratedFunction:
        """Generated ``(z, w) -> list`` of every coefficient (r x 2m,
        row-major), then the strict upper triangle of each d omega_a
        (row-major)."""
        n = 2 * self.m
        entries = [as_expr(c) for f in self.forms for c in f.coefficients]
        named = [(f"d{name}[{p}][{q}]", d.entry(p, q))
                 for name, d in zip(self.names, map(exterior_derivative, self.forms))
                 for p in range(n) for q in range(p + 1, n)]
        entries += [e for _, e in named]
        return GeneratedFunction(entries, entries, self.m, named)

    @cached_property
    def _last_pass(self) -> dict:
        """The most recent sample pass, keyed by (samples, seed)."""
        return {}


def constraint_set(forms: Sequence[OneForm], names: Optional[Sequence[str]] = None) -> ConstraintSet:
    if names is None:
        names = tuple(f"omega{i}" for i in range(1, len(forms) + 1))
    return ConstraintSet(tuple(forms), tuple(names))


@record(frozen=True)
class Witness:
    """A kernel pair with a bracket value above tolerance."""

    form_index: int
    z: Tuple[complex, ...]
    w: Tuple[complex, ...]
    x: VectorField
    y: VectorField
    value: float  # |d omega(x, y)| relative to the form's coefficient scale


@record(frozen=True)
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


MAX_SAMPLES = 10**5  # the most draws of one check or classify run; more is a ValueError


def sample_points(m: int, samples: int, seed: int) -> List[Tuple[tuple, tuple]]:
    """Seeded uniform (z, w) draws from the per-component box [-1,1] + [-1,1]i."""
    if samples > MAX_SAMPLES:
        raise ValueError(f"{samples} samples is above the bound of {MAX_SAMPLES}")
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, 2, 2 * m))
    zw = (vals[:, 0] + 1j * vals[:, 1]).tolist()
    return [(tuple(row[:m]), tuple(row[m:])) for row in zw]


def _forms_at(cs: ConstraintSet, points):
    """Read-only stacks over the (z, w) ``points`` without a domain error:
    the points, the (N, r, 2m, 2m) d omega_a, the (N, r) largest coefficient
    magnitudes with 0 taken as 1, and the SVD (N, r) singular values and
    (N, 2m, 2m) right singular vectors of the (N, r, 2m) coefficients; then
    the domain errors.  A point where a magnitude or a singular value
    overflows the float range is a domain error (see ``overflow_error``)."""
    evaluated, kept, errors = [], [], []
    for z, w in points:
        try:
            evaluated.append(cs._evaluate.values(z, w))
            kept.append((z, w))
        except EvalDomainError as err:
            errors.append(err)
    values = np.array(evaluated, dtype=complex).reshape(len(kept), len(cs._evaluate.entries))
    n, r = 2 * cs.m, cs.r
    sigma = np.zeros((len(values), r))
    vh = np.zeros((len(values), n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        magnitudes = np.abs(values)
        fits = np.isfinite(magnitudes).all(axis=1)
        _, sigma[fits], vh[fits] = np.linalg.svd(values[fits, :r * n].reshape(-1, r, n))
    fits &= np.isfinite(sigma).all(axis=1)
    errors += [overflow_error(cs._evaluate.entries, magnitudes[i]) for i in np.flatnonzero(~fits)]
    kept = [point for point, ok in zip(kept, fits) if ok]
    values, sigma, vh = values[fits], sigma[fits], vh[fits]
    omega = values[:, :r * n].reshape(-1, r, n)
    upper = values[:, r * n:].reshape(-1, r, n * (n - 1) // 2)
    d_omega = np.zeros((len(values), r, n, n), dtype=complex)
    rows, cols = np.triu_indices(n, 1)
    d_omega[:, :, rows, cols] = upper
    d_omega[:, :, cols, rows] = -upper
    scales = np.max(np.abs(omega), axis=2)
    scales[scales == 0] = 1.0
    for a in (d_omega, scales, sigma, vh):
        a.flags.writeable = False
    return kept, d_omega, scales, sigma, vh, errors


def _sample_forms(cs: ConstraintSet, samples: int, seed: int):
    """The stacks of :func:`_forms_at` over the samples.  The last pass is
    kept on ``cs``, so the two tests evaluate once between them; each warns."""
    key = (samples, seed)
    if key not in cs._last_pass:
        cs._last_pass.clear()
        cs._last_pass[key] = _forms_at(cs, sample_points(cs.m, samples, seed))
    *found, errors = cs._last_pass[key]
    for err in errors:
        warnings.warn(f"skipping sample with undefined coefficients: {err}")
    return found


def _rank(sigma: np.ndarray) -> np.ndarray:
    """Numerical rank from singular values, stacked over leading axes."""
    return np.sum(sigma > RANK_RTOL * sigma[..., :1], axis=-1)


def annihilator_basis(cs: ConstraintSet, state) -> List[VectorField]:
    """Orthonormal basis of the kernel of the constraint forms at a state
    with ``z``/``w`` tuples (a PhaseState)."""
    m, r = cs.m, cs.r
    if len(state.z) != m or len(state.w) != m:
        raise ValueError("state dimension does not match the constraint set")
    *_, sigma, vh, errors = _forms_at(cs, [(state.z, state.w)])
    if errors:
        raise errors[0]
    rank = int(_rank(sigma[0]))
    if rank < r:
        raise RankDeficientConstraints(rank, r)
    return [VectorField(tuple(row[:m]), tuple(row[m:])) for row in vh[0, r:].conj()]


def closedness_test(
    cs: ConstraintSet,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> List[bool]:
    """Per-form booleans: does d omega vanish at all valid sample states?

    Rank-deficient samples count here; only domain errors are skipped.
    """
    points, d_omega, scales, _, _ = _sample_forms(cs, samples, seed)
    if not points:
        reason = "every draw hit a domain error" if samples else "no samples were requested"
        raise ValueError(f"no valid sample states: {reason}")
    worst = np.max(np.max(np.abs(d_omega), axis=(2, 3)) / scales, axis=0)
    return [bool(w <= tol) for w in worst]


def frobenius_test(
    cs: ConstraintSet,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Classify the distribution cut out by the constraint forms."""
    points, d_omega, scales, sigma, vh = _sample_forms(cs, samples, seed)
    m, r = cs.m, cs.r
    full = _rank(sigma) == r
    valid = int(np.count_nonzero(full))
    deficient = len(points) - valid
    if valid == 0:
        return Classification(
            Verdict.INDETERMINATE, (True,) * r, 0.0, 0, deficient,
            None, samples, seed, tol,
        )
    d_omega, scales = d_omega[full], scales[full]
    closed = np.max(np.abs(d_omega), axis=(2, 3)) / scales <= tol
    closed_flags = tuple(bool(c) for c in closed.all(axis=0))
    # Rows of kernel_t[i] are the conjugated kernel basis at sample i, so
    # kernel_t[i] @ D @ kernel_t[i].T restricts D to the distribution.
    kernel_t = vh[full, r:].conj()[:, None]
    restricted = kernel_t @ d_omega @ kernel_t.swapaxes(-1, -2)
    u, s, vh_r = np.linalg.svd(restricted)
    values = s[..., 0] / scales
    best = int(np.argmax(values))  # first maximum in (sample, form) order
    max_bracket = max(0.0, float(values.flat[best]))  # LAPACK can return -0.0

    if all(closed_flags):
        verdict = Verdict.CLOSED
    elif max_bracket <= tol:
        verdict = Verdict.LOCALLY_HOLONOMIC
    else:
        verdict = Verdict.ANHOLONOMIC
    witness = None
    if verdict is Verdict.ANHOLONOMIC and max_bracket > 0:
        i, a = divmod(best, r)
        kernel = kernel_t[i, 0].T
        xv = kernel @ u[i, a][:, 0].conj()
        yv = kernel @ vh_r[i, a][0].conj()
        z, w = [p for p, ok in zip(points, full) if ok][i]
        witness = Witness(
            form_index=a, z=z, w=w,
            x=VectorField(tuple(xv[:m]), tuple(xv[m:])),
            y=VectorField(tuple(yv[:m]), tuple(yv[m:])),
            value=max_bracket,
        )
    return Classification(
        verdict, closed_flags, max_bracket, valid, deficient,
        witness, samples, seed, tol,
    )
