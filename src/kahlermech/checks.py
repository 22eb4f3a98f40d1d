"""Invariant suite behind the ``check`` command.

Each check compares one measured quantity against a threshold; thresholds
can be overridden individually (system file ``[tolerances]``) or all at
once (the ``--tol`` flag).  States are sampled from the seeded unit box
around the origin plus the declared initial state; sample states where the
solver legitimately refuses (rank deficiencies on a singular locus) are
skipped and counted.

The sampled states are walked on generated code only, in two phases:
each state is assembled once, then each measurement is one numpy call
over the stack of assemblies (K's finiteness, its largest magnitude,
which scales ``closedness``, and ``antisymmetry``) or of the closure sums
(``closedness``).  The primary solver still solves state by state, and
its residuals come from the bookkeeping kernel.  The assemblies of the
states it accepts form one stack, and the real-split oracle cross-checks
them all in one stacked elimination of K (for its rank) and one of the
saddle; a state that either elimination fails counts as skipped.  The
cyclic closure sums of Phi_L are compiled once per run, not with the
system, so ``simulate`` does not pay for them.  A state where the
assembly is undefined, or K is not finite, adds to neither measurement
and is skipped; one where some closure sum is undefined or not finite
adds nothing to ``closedness``, and a sum whose magnitude passes the
float range makes it inf.

``antisymmetry`` reads 0 on every system: the generated assembly mirrors
Phi_L from its upper triangle with exact negation.  It stays because it is
a ``[tolerances]`` key of the file format, and it would catch an assembly
that stopped mirroring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ._numpy import np
from .constraints import sample_points
from .dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SingularKahlerMatrix,
    _bookkeeping_kernel,
    _solve,
    diagnostics,
    integrate,
)
from .expressions import Add, EvalDomainError, GeneratedFunction, Sub, diff, fold
from .exterior import coordinate_symbol
from .real_oracle import oracle_solve

DEFAULT_THRESHOLDS: Dict[str, float] = {
    "antisymmetry": 1e-12,
    "closedness": 1e-6,
    "solve": 1e-10,
    "oracle": 1e-9,
    "drift": 1e-6,
    "constraint": 1e-8,
}

DEFAULT_CHECK_SAMPLES = 20  # sampled states besides the initial one


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    note: str = ""


def _sample_states(system: LagrangianSystem, initial: PhaseState, samples: int, seed: int):
    return [initial] + [PhaseState(0.0, z, w) for z, w in sample_points(system.m, samples, seed)]


def _closure_terms(system: LagrangianSystem) -> GeneratedFunction:
    """Generated code for the cyclic sums d Phi[p,q,r], p < q < r, as one
    list in (p, q, r) order; each call differentiates and compiles anew."""
    m = system.m
    K = system.kahler_form.entries
    x = [coordinate_symbol(p, m) for p in range(2 * m)]
    triples = list(itertools.combinations(range(2 * m), 3))
    terms = [fold(Add, fold(Sub, diff(K[q][r], x[p]), diff(K[p][r], x[q])), diff(K[p][q], x[r]))
             for p, q, r in triples]
    return GeneratedFunction(terms, terms, m, [(f"the closure sum d Phi_L{list(t)}", e)
                                               for t, e in zip(triples, terms)])


def run_check_suite(
    system: LagrangianSystem,
    initial: PhaseState,
    t1: float,
    dt: float,
    samples: int = DEFAULT_CHECK_SAMPLES,
    seed: int = 0,
    overrides: Optional[Dict[str, float]] = None,
    tol_all: Optional[float] = None,
) -> List[CheckResult]:
    thresholds = dict(DEFAULT_THRESHOLDS)
    if overrides:
        thresholds.update(overrides)
    if tol_all is not None:
        thresholds = {k: tol_all for k in thresholds}

    # Phase one assembles every state; phase two measures the stacks.  A
    # state where K is not finite (the solve rejects it too) is skipped.
    assembled, skipped = [], 0
    for state in _sample_states(system, initial, samples, seed):
        try:
            assembled.append((state, *system._blocks_at(state)))
        except EvalDomainError:
            skipped += 1
    n, count = 2 * system.m, len(assembled)
    K = np.array([k for _, k, _, _, _ in assembled], dtype=complex).reshape(count, n, n)
    largest = np.abs(K).max(axis=(1, 2))
    finite = np.isfinite(largest)
    skipped += count - int(np.count_nonzero(finite))
    antisymmetry = float(np.abs(K[finite] + K[finite].transpose(0, 2, 1)).max(initial=0.0))

    # Per finite state: its closure sums, its primary solve and residuals.
    closure, bookkeep = _closure_terms(system), _bookkeeping_kernel(system.m, system.r)
    sums, summed, primary = [], [], []
    for row in np.flatnonzero(finite).tolist():
        state, k, s, b, L = assembled[row]
        try:
            sums.append(closure.values(state.z, state.w))
            summed.append(row)
        except EvalDomainError:
            pass
        try:
            vec = _solve(system, k, s, b, state)
        except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError):
            skipped += 1
            continue
        (symplectic, constraint, *_), _ = bookkeep(s, b, L, vec, state.w)
        primary.append((row, s, b, symplectic, constraint, vec))
    sums = np.array(sums, dtype=complex).reshape(len(summed), len(closure.entries))
    # hypot is abs() of a Python complex to the bit (np.abs is not); past the float range, inf.
    with np.errstate(over="ignore"):
        sizes = np.hypot(sums.real, sums.imag) / np.maximum(1.0, largest[summed])[:, None]
    closedness = float(sizes.max(initial=0.0))

    # Oracle agreement, all accepted states in one stacked elimination; a
    # state the oracle fails on counts as skipped.
    count, width = len(primary), n + system.r
    vec, k_cond, s_cond = oracle_solve(
        K[[p[0] for p in primary]],
        np.array([p[1] for p in primary], dtype=complex).reshape(count, width, width),
        np.array([p[2] for p in primary], dtype=complex).reshape(count, width))
    accepted = np.isnan(k_cond) & np.isnan(s_cond)
    solved = int(np.count_nonzero(accepted))
    skipped += count - solved
    worst_solve = worst_oracle = 0.0
    for (_, _, _, symplectic, constraint, mine), theirs, ok in zip(primary, vec.tolist(), accepted):
        if ok:
            worst_solve = max(worst_solve, symplectic, constraint)
            worst_oracle = max(worst_oracle, max(abs(p - q) for p, q in zip(mine, theirs)))
    results = [_result("antisymmetry", antisymmetry, thresholds["antisymmetry"]),
               _result("closedness", closedness, thresholds["closedness"])]
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
