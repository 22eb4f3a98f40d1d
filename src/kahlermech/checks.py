"""Invariant suite behind the ``check`` command.

Each check compares one measured quantity against a threshold; thresholds
can be overridden individually (system file ``[tolerances]``) or all at
once (the ``--tol`` flag).  States are sampled from the seeded unit box
around the origin plus the declared initial state; sample states where the
solver legitimately refuses (rank deficiencies on a singular locus) are
skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .constraints import sample_points
from .dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SingularKahlerMatrix,
    diagnostics,
    integrate,
    solve_semispray,
)
from .expressions import EvalDomainError, Expr, Num, evaluate, diff, simplify
from .real_oracle import realify_and_solve

DEFAULT_THRESHOLDS: Dict[str, float] = {
    "antisymmetry": 1e-12,
    "closedness": 1e-6,
    "solve": 1e-10,
    "oracle": 1e-9,
    "drift": 1e-6,
    "constraint": 1e-8,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    note: str = ""


def _sample_states(system: LagrangianSystem, initial: PhaseState, samples: int, seed: int):
    return [initial] + [PhaseState(0.0, z, w) for z, w in sample_points(system.m, samples, seed)]


def _closure_terms(system: LagrangianSystem) -> List[Tuple[Tuple[int, int, int], Expr]]:
    """Symbolic cyclic sums d Phi[p,q,r] for p < q < r."""
    from .exterior import coordinate_symbol

    m = system.m
    n = 2 * m
    entries = system.kahler_form.entries

    def as_expr(c):
        return c if isinstance(c, Expr) else Num(c)

    out = []
    for p in range(n):
        for q in range(p + 1, n):
            for r_ in range(q + 1, n):
                term = simplify(
                    diff(as_expr(entries[q][r_]), coordinate_symbol(p, m))
                    - diff(as_expr(entries[p][r_]), coordinate_symbol(q, m))
                    + diff(as_expr(entries[p][q]), coordinate_symbol(r_, m))
                )
                out.append(((p, q, r_), term))
    return out


def run_check_suite(
    system: LagrangianSystem,
    initial: PhaseState,
    t1: float,
    dt: float,
    samples: int = 20,
    seed: int = 0,
    overrides: Optional[Dict[str, float]] = None,
    tol_all: Optional[float] = None,
) -> List[CheckResult]:
    thresholds = dict(DEFAULT_THRESHOLDS)
    if overrides:
        thresholds.update(overrides)
    if tol_all is not None:
        thresholds = {k: tol_all for k in thresholds}

    states = _sample_states(system, initial, samples, seed)
    results: List[CheckResult] = []

    # Antisymmetry of the assembled two-form.
    worst = 0.0
    for state in states:
        try:
            K = system._blocks_at(state)[0]
        except EvalDomainError:
            continue
        worst = max(worst, float(np.max(np.abs(K + K.T))))
    results.append(_result("antisymmetry", worst, thresholds["antisymmetry"]))

    # Closedness of the two-form (cyclic derivative sums, symbolic).
    closure = _closure_terms(system)
    worst = 0.0
    for state in states:
        point = state.point()
        try:
            K = system._blocks_at(state)[0]
            scale = max(1.0, float(np.max(np.abs(K))))
            for _, term in closure:
                worst = max(worst, abs(evaluate(term, point)) / scale)
        except EvalDomainError:
            continue
    results.append(_result("closedness", worst, thresholds["closedness"]))

    # Solve consistency and oracle agreement over the sampled states.
    worst_solve = 0.0
    worst_oracle = 0.0
    solved = 0
    skipped = 0
    for state in states:
        try:
            sol = solve_semispray(system, state)
            alt = realify_and_solve(system, state)
        except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError):
            skipped += 1
            continue
        solved += 1
        worst_solve = max(worst_solve, sol.residual_symplectic, sol.residual_constraints)
        both = zip(
            sol.xi.components + sol.multipliers,
            alt.xi.components + alt.multipliers,
        )
        worst_oracle = max(worst_oracle, max(abs(a - b) for a, b in both))
    note = f"{solved} states solved, {skipped} skipped"
    if solved == 0:
        results.append(CheckResult("solve", float("inf"), thresholds["solve"], False, note))
        results.append(CheckResult("oracle", float("inf"), thresholds["oracle"], False, note))
    else:
        results.append(_result("solve", worst_solve, thresholds["solve"], note))
        results.append(_result("oracle", worst_oracle, thresholds["oracle"], note))

    # Energy and constraint drift along the declared trajectory.
    trajectory = integrate(system, initial, t1, dt)
    report = diagnostics(trajectory)
    if trajectory.status != "completed" or report.samples == 0:
        note = f"integration {trajectory.status} at t={trajectory.failure_time}"
        results.append(CheckResult("drift", float("inf"), thresholds["drift"], False, note))
        if system.r:
            results.append(
                CheckResult("constraint", float("inf"), thresholds["constraint"], False, note)
            )
    else:
        note = f"{report.samples} samples to t1={t1:g}"
        results.append(_result("drift", report.max_energy_drift, thresholds["drift"], note))
        if system.r:
            results.append(
                _result(
                    "constraint",
                    report.max_constraint_residual,
                    thresholds["constraint"],
                    note,
                )
            )
    return results


def _result(name: str, measured: float, threshold: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(measured), float(threshold), measured <= threshold, note)
