"""Reference for :func:`kahlermech.dynamics.integrate`.

The RK4 loop as it ran before it called the generated assembly and
kernels directly: each step solves stage one with ``solve_semispray`` and
stages 2-4 with ``_stage``, and builds a :class:`PhaseState` and a
:class:`TrajectorySample` for every sample.  ``integrate`` must record
the same samples (compared by ``repr``, so zero signs, infinities and NaN
count) and fail with the same status, time and kind: :func:`record` of
the two must be equal.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

from kahlermech.dynamics import (
    InconsistentConstraints,
    LagrangianSystem,
    PhaseState,
    SingularKahlerMatrix,
    TrajectorySample,
    _stage,
    solve_semispray,
)
from kahlermech.expressions import EvalDomainError


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
            sol = solve_semispray(system, state)
            samples.append(TrajectorySample(state, sol, sol.energy))
            if step == n_steps:
                break
            k1 = sol.xi.hol + sol.xi.fib
            k2 = _stage(system, t, z, w, dt / 2, k1)
            k3 = _stage(system, t, z, w, dt / 2, k2)
            k4 = _stage(system, t, z, w, dt, k3)
        except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError) as err:
            return ReferenceTrajectory(samples, dt, "solver_failure", err.state.t,
                                       type(err).__name__)
        zw = [x + sixth * (a + 2 * b + 2 * c + d)
              for x, a, b, c, d in zip(z + w, k1, k2, k3, k4)]
        # Sample times are s0.t + step*dt, not a running sum of dt.
        state = PhaseState(s0.t + (step + 1) * dt, zw[:m], zw[m:])
    return ReferenceTrajectory(samples, dt, "completed")


def record(trajectory):
    """What a trajectory records, for comparison: the repr of every
    sample's state, solution and energy, and the status, failure time and
    kind."""
    return (repr([(s.state, s.solution, s.energy) for s in trajectory.samples]), trajectory.dt,
            trajectory.status, repr(trajectory.failure_time), trajectory.failure_kind)
