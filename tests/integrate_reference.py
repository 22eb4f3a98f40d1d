"""Reference for :func:`kahlermech.dynamics.integrate` that shares no code
with the solve chain it checks.

Each RK stage is built from three parts that ``integrate`` does not call:

- the tree walker (``Expr.evaluate``) on the system's own trees at the
  stage state: Phi_L's entries, dL = (L_z, L_w), the blocks A = L_zz,
  H = L_zw and B = L_ww, the constraint coefficients W and the Lagrangian,
  laid out as the assembly's documented formulas state;
- the loop LU of ``linalg_reference``, first on K alone (Phi_L), then on
  the saddle S, so that errors come in the kernel's order;
- the loop bookkeeping of ``bookkeeping_reference`` for the residuals and
  the energy of stage one.

It follows the stage order and the error order the docstrings promise:
stage one at the sample's state, then stages 2-4 at
(t + h, z + h k_z, w + h k_w) for h = dt/2, dt/2, dt; a failed solve is
:class:`SingularKahlerMatrix` when Phi_L is degenerate, else
:class:`InconsistentConstraints` when the saddle is, and
:class:`EvalDomainError` where a value is undefined or not finite, each
carrying the state it was solved at.  ``integrate`` must record the same
samples (compared by ``repr``, so zero signs, infinities and NaN count) and
fail with the same status, time and kind: :func:`record` of the two must be
equal.
"""

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional

from kahlermech.dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SingularKahlerMatrix,
    TrajectorySample,
)
from kahlermech.expressions import EvalDomainError, as_expr

from bookkeeping_reference import reference_solution_from
from linalg_reference import (
    NonFiniteEntryError,
    SingularMatrixError,
    reference_lu_factor,
    reference_lu_solve,
)

# Num(1j) and Num(-1j) of the assembly: the literal -1j is -(1j), whose
# real part is -0.0.
_I, _MINUS_I = 1j, complex(-0.0, -1.0)


def _walked(system: LagrangianSystem, state: PhaseState):
    """K, S, rhs and L at the state, by the tree walker.  K mirrors Phi_L's
    upper triangle with exact negation, and

        S = [[K^T - M_E, -W], [W^T, 0]],   rhs = [-dL, 0],

    with M_E = [[i A^T, -i H], [i H^T, -i B^T]]."""
    point = state.point()

    def walked(rows):
        return [[as_expr(e).evaluate(point) for e in row] for row in rows]

    try:
        phi, [dL], A, H, B, W, [[L]] = map(walked, (
            system.kahler_form.entries, [system._Lz + system._Lw], system._A, system._H,
            system._B, system._W, [[system.lagrangian]]))
    except EvalDomainError as err:
        err.state = state
        raise
    m, n, r = system.m, 2 * system.m, system.r
    K = [[phi[p][q] if p <= q else -phi[q][p] for q in range(n)] for p in range(n)]
    ME = [[0j] * n for _ in range(n)]
    for p in range(m):
        for q in range(m):
            ME[p][q] = _I * A[q][p]
            ME[p][m + q] = _MINUS_I * H[p][q]
            ME[m + p][q] = _I * H[q][p]
            ME[m + p][m + q] = _MINUS_I * B[q][p]
    S = [[K[q][p] - ME[p][q] for q in range(n)] + [-x for x in W[p]] for p in range(n)]
    S += [[W[q][a] for q in range(n)] + [0j] * r for a in range(r)]
    return K, S, [-x for x in dL] + [0j] * r, L


def _non_finite(system: LagrangianSystem, state: PhaseState, what: str) -> EvalDomainError:
    err = EvalDomainError(f"non-finite value in the {what}", system.lagrangian)
    err.state = state
    return err


def _stage(system: LagrangianSystem, state: PhaseState):
    """(saddle vector, S, rhs, L) at the state; a typed error carries it."""
    K, S, rhs, L = _walked(system, state)
    try:
        failure = SingularKahlerMatrix
        reference_lu_factor(K)
        failure = InconsistentConstraints
        lu, perm, _ = reference_lu_factor(S)
        vec = reference_lu_solve(lu, perm, rhs)
    except SingularMatrixError as err:
        raise failure(state, err.condition_estimate) from None
    except NonFiniteEntryError:
        raise _non_finite(system, state, "assembled saddle") from None
    if not all(map(cmath.isfinite, vec)):
        raise _non_finite(system, state, "solved saddle vector")
    return vec, S, rhs, L


@dataclass
class ReferenceTrajectory:
    samples: List[TrajectorySample]
    dt: float
    status: str
    failure_time: Optional[float] = None
    failure_kind: Optional[str] = None


def reference_integrate(system: LagrangianSystem, s0: PhaseState, t1: float,
                        dt: float) -> ReferenceTrajectory:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 < 0:
        raise ValueError("t1 must be nonnegative")
    if not math.isfinite(t1 / dt):
        raise ValueError(f"t1/dt must be a finite step count, got t1={t1:g}, dt={dt:g}")
    n_steps = int(math.floor(t1 / dt + 1e-9))
    samples: List[TrajectorySample] = []
    state = s0
    m, sixth = system.m, dt / 6.0
    for step in range(n_steps + 1):
        if not state.is_finite():
            return ReferenceTrajectory(samples, dt, "non_finite", state.t, "NonFiniteState")
        t, z, w = state.t, state.z, state.w
        try:
            vec, S, rhs, L = _stage(system, state)
            sol = reference_solution_from(m, w, S, rhs, L, vec)
            samples.append(TrajectorySample(state, sol, sol.energy))
            if step == n_steps:
                break
            ks = [vec]
            for h in (dt / 2, dt / 2, dt):
                k = ks[-1]
                stage = PhaseState(t + h, [x + h * v for x, v in zip(z, k)],
                                   [x + h * v for x, v in zip(w, k[m:])])
                ks.append(_stage(system, stage)[0])
        except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError) as err:
            return ReferenceTrajectory(samples, dt, "solver_failure", err.state.t,
                                       type(err).__name__)
        zw = [x + sixth * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(z + w, *ks)]
        # Sample times are s0.t + step*dt, not a running sum of dt.
        state = PhaseState(s0.t + (step + 1) * dt, zw[:m], zw[m:])
    return ReferenceTrajectory(samples, dt, "completed")


def record(trajectory):
    """What a trajectory records, for comparison: the repr of every
    sample's state, solution and energy, and the status, failure time and
    kind."""
    return (repr([(s.state, s.solution, s.energy) for s in trajectory.samples]), trajectory.dt,
            trajectory.status, repr(trajectory.failure_time), trajectory.failure_kind)
