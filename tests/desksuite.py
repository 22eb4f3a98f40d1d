"""Shared bench of small systems used across the behavioral tests.

Each entry records a Lagrangian in text form (the same source as the
packaged system files under systems/), the constraint forms if any, the
packaged initial state, and a guard that keeps random samples away from
the degeneracy locus of that particular system.
"""

import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from kahlermech.dynamics import LagrangianSystem, PhaseState
from kahlermech.exterior import OneForm, one_form
from kahlermech.expressions import parse_expression

SYSTEM_DIR = Path(__file__).resolve().parents[1] / "systems"

# Halving pair for the RK4 order window: coarse enough that truncation
# error dominates roundoff, which it no longer does at the production step.
RATIO_STEPS = (0.1, 0.05)

Guard = Callable[[Sequence[complex], Sequence[complex]], bool]


@dataclass(frozen=True)
class DeskSystem:
    name: str
    m: int
    lagrangian: str
    initial_z: Tuple[complex, ...]
    initial_w: Tuple[complex, ...]
    # ((label, (a coefficient texts), (b coefficient texts)), ...)
    constraints: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = ()
    guard: Optional[Guard] = None

    @property
    def r(self) -> int:
        return len(self.constraints)

    def system_file(self) -> Path:
        return SYSTEM_DIR / f"{self.name}.system"


def _saturating_guard(z, w):
    # Two-form entry is 1 + 2*z1*w1; stay away from its zero set.
    return abs(1.0 + 2.0 * z[0] * w[0]) >= 0.2


def _exponential_guard(z, w):
    # Two-form entry is exp(u)*(1 + u) with u = z1*w1.
    return abs(1.0 + z[0] * w[0]) >= 0.2


def _exchange_guard(z, w):
    # The constrained saddle system degenerates where z1*w1 = z2*w2.
    return abs(z[0] * w[0] - z[1] * w[1]) >= 0.2


NONSINGULAR = (
    DeskSystem(
        name="bilinear_pair",
        m=1,
        lagrangian="z1*w1",
        initial_z=(0.8 + 0.3j,),
        initial_w=(0.5 - 0.4j,),
    ),
    DeskSystem(
        name="coupled_pairs",
        m=2,
        lagrangian="z1*w1 + z2*w2 + (1/2)*z1*w2 + (1/2)*z2*w1",
        initial_z=(0.7 + 0.2j, -0.3 + 0.6j),
        initial_w=(0.4 - 0.5j, 0.1 + 0.8j),
    ),
    DeskSystem(
        name="saturating_pair",
        m=1,
        lagrangian="z1*w1 + (1/2)*(z1*w1)^2",
        initial_z=(0.6 + 0.2j,),
        initial_w=(0.3 - 0.3j,),
        guard=_saturating_guard,
    ),
    DeskSystem(
        name="shifted_pair",
        m=1,
        lagrangian="z1*w1 + (3/10)*z1 - (1/5)*w1",
        initial_z=(0.5 - 0.6j,),
        initial_w=(-0.2 + 0.7j,),
    ),
    DeskSystem(
        name="exchange_constrained",
        m=2,
        lagrangian="z1*w1 + z2*w2",
        initial_z=(0.9 + 0.2j, 0.1 - 0.5j),
        initial_w=(0.3 - 0.4j, 0.8 + 0.1j),
        constraints=(
            ("exchange_a", ("w2", "0"), ("0", "z1")),
            ("exchange_b", ("0", "w1"), ("z2", "0")),
        ),
        guard=_exchange_guard,
    ),
    DeskSystem(
        name="exponential_pair",
        m=1,
        lagrangian="exp(z1*w1)",
        initial_z=(0.4 + 0.3j,),
        initial_w=(0.5 - 0.2j,),
        guard=_exponential_guard,
    ),
)

SINGULAR = (
    DeskSystem(
        name="degenerate_quadratic",
        m=1,
        lagrangian="z1^2",
        initial_z=(0.5 + 0.5j,),
        initial_w=(0.1 - 0.2j,),
    ),
    DeskSystem(
        name="standard_oscillator",
        m=1,
        lagrangian="(1/2)*w1^2 - z1^2",
        initial_z=(1.0 + 0.0j,),
        initial_w=(0.0 + 0.0j,),
    ),
)

ALL = NONSINGULAR + SINGULAR
BY_NAME = {entry.name: entry for entry in ALL}


def constraint_forms(entry: DeskSystem) -> Tuple[OneForm, ...]:
    forms = []
    for _, a_texts, b_texts in entry.constraints:
        a = [parse_expression(t, entry.m) for t in a_texts]
        b = [parse_expression(t, entry.m) for t in b_texts]
        forms.append(one_form(a, b))
    return tuple(forms)


@lru_cache(maxsize=None)
def build(name: str) -> LagrangianSystem:
    entry = BY_NAME[name]
    return LagrangianSystem(
        entry.m,
        parse_expression(entry.lagrangian, entry.m),
        constraints=constraint_forms(entry),
    )


def initial_state(entry: DeskSystem) -> PhaseState:
    return PhaseState(0.0, entry.initial_z, entry.initial_w)


def sample_state(entry: DeskSystem, rng: np.random.Generator) -> PhaseState:
    """One random phase point in the box [-1.2, 1.2]^2 per coordinate,
    redrawn until the entry's regularity guard accepts it."""
    for _ in range(1000):
        z = tuple(
            complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            for _ in range(entry.m)
        )
        w = tuple(
            complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            for _ in range(entry.m)
        )
        if entry.guard is None or entry.guard(z, w):
            return PhaseState(0.0, z, w)
    raise RuntimeError(f"guard for {entry.name} rejected 1000 consecutive draws")


def sample_states(entry: DeskSystem, count: int, seed: int) -> Tuple[PhaseState, ...]:
    rng = np.random.default_rng(seed)
    return tuple(sample_state(entry, rng) for _ in range(count))


def benchmark_inputs():
    """``perfbench/inputs.py``, which writes the benchmark's system files."""
    name = "benchmark_inputs"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]
