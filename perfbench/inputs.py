"""Seeded input generator for the benchmark workloads.

Everything the program sees comes from here: each workload is a list of
``Op`` records, one CLI command over one generated ``.system`` file, plus
the expectation its correctness gate checks.  The seed changes coefficient
values, initial states, sampling seeds and, in ``classify_sweep``, which
variables each template term uses.  It never changes the shape of a
workload (dimensions, which monomials appear, step counts, sample counts),
so a round costs nearly the same for every seed.
"""

from __future__ import annotations

import cmath
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# dt = 2^-10 makes t1/dt exact in binary, so the expected sample count is
# floor(t1/dt) + 1 with no rounding question and the time grid is exact.
DT = 0.0009765625
TRAJECTORY_T1 = 0.25
SWEEP_T1 = 0.03125
SWEEP_SAMPLES = 75
CLASSIFY_SAMPLES = 200


@dataclass
class Op:
    """One CLI invocation and what its gate expects."""

    command: str  # simulate | check | classify
    path: Path
    name: str
    args: List[str]
    work: int  # RK4 steps, sampled states or classification samples
    expect: Dict[str, object] = field(default_factory=dict)

    def argv(self, out_dir: Path) -> List[str]:
        return [self.command, "--system", str(self.path), "--out", str(out_dir), *self.args]


# --------------------------------------------------------------------------
# Polynomials over z1..zm, w1..wm: {exponents (len 2m): real coefficient}

Poly = Dict[Tuple[int, ...], float]


def _var_name(k: int, m: int) -> str:
    return f"z{k + 1}" if k < m else f"w{k - m + 1}"


def poly_text(p: Poly, m: int) -> str:
    """Render in the z/w grammar (no unary minus: a leading '0 - ...')."""
    terms = []
    for exps, c in sorted(p.items()):
        if c == 0.0:
            continue
        factors = []
        for k, e in enumerate(exps):
            if e == 1:
                factors.append(_var_name(k, m))
            elif e > 1:
                factors.append(f"{_var_name(k, m)}^{e}")
        mag = abs(c)
        if not factors:
            body = repr(mag)
        elif mag == 1.0:
            body = "*".join(factors)
        else:
            body = "*".join([repr(mag)] + factors)
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = body if sign == "+" else f"0 - {body}"
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def poly_diff(p: Poly, k: int) -> Poly:
    out: Poly = {}
    for exps, c in p.items():
        if exps[k]:
            lowered = list(exps)
            lowered[k] -= 1
            key = tuple(lowered)
            out[key] = out.get(key, 0.0) + c * exps[k]
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + c
    return out


def _monomial(n: int, *indices: int) -> Tuple[int, ...]:
    exps = [0] * n
    for k in indices:
        exps[k] += 1
    return tuple(exps)


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    # Four decimals keep the file text short.
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 4)


def _distinct(rng: random.Random, pool: Sequence, count: int) -> List:
    """``count`` distinct picks, so that no two terms merge and the term
    count, hence the cost, does not depend on the seed."""
    pool = list(pool)
    return rng.sample(pool, min(count, len(pool)))


def differential(p: Poly, m: int) -> List[str]:
    """Coefficient texts of d p, ordered dz1..dzm, dw1..dwm."""
    return [poly_text(poly_diff(p, k), m) for k in range(2 * m)]


# --------------------------------------------------------------------------
# System files


def system_text(
    name: str,
    m: int,
    lagrangian: str,
    constraints: Sequence[Tuple[str, Sequence[str]]],
    z: Sequence[complex],
    w: Sequence[complex],
    t1: float,
    dt: float,
) -> str:
    lines = ["[system]", f"m = {m}", f"name = {name}", "", "[lagrangian]", f"L = {lagrangian}"]
    if constraints:
        lines += ["", "[constraints]"]
        lines += [f"{label} = {' ; '.join(coeffs)}" for label, coeffs in constraints]
    lines += ["", "[initial]"]
    lines += [f"z{i} = {_literal(v)}" for i, v in enumerate(z, start=1)]
    lines += [f"w{i} = {_literal(v)}" for i, v in enumerate(w, start=1)]
    lines += ["", "[integrator]", f"t1 = {t1!r}", f"dt = {dt!r}", ""]
    return "\n".join(lines)


def _literal(v: complex) -> str:
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i"


def _draw_state(rng: random.Random, m: int, guard: Optional[Callable], radius: float = 0.9):
    """Initial state in the box [-radius, radius]^2 per coordinate, redrawn
    until the system's guard accepts it."""
    for _ in range(1000):
        z = [complex(round(rng.uniform(-radius, radius), 6), round(rng.uniform(-radius, radius), 6))
             for _ in range(m)]
        w = [complex(round(rng.uniform(-radius, radius), 6), round(rng.uniform(-radius, radius), 6))
             for _ in range(m)]
        if guard is None or guard(z, w):
            return z, w
    raise RuntimeError("guard rejected 1000 consecutive draws")


# The six nonsingular shipped systems, with the guard that keeps an initial
# state (and, since the pair invariants are conserved, its whole orbit)
# away from the degeneracy locus.  The margins are wider than the test
# suite's so that the saddle stays well conditioned.
SHIPPED: Tuple[Tuple[str, int, str, Tuple[Tuple[str, Tuple[str, ...]], ...], Optional[Callable]], ...] = (
    ("bilinear_pair", 1, "z1*w1", (), None),
    ("coupled_pairs", 2, "z1*w1 + z2*w2 + (1/2)*z1*w2 + (1/2)*z2*w1", (), None),
    ("exchange_constrained", 2, "z1*w1 + z2*w2",
     (("exchange_a", ("w2", "0", "0", "z1")), ("exchange_b", ("0", "w1", "z2", "0"))),
     lambda z, w: abs(z[0] * w[0] - z[1] * w[1]) >= 0.3),
    ("exponential_pair", 1, "exp(z1*w1)", (), lambda z, w: abs(1 + z[0] * w[0]) >= 0.4),
    ("saturating_pair", 1, "z1*w1 + (1/2)*(z1*w1)^2", (),
     lambda z, w: abs(1 + 2 * z[0] * w[0]) >= 0.4),
    ("shifted_pair", 1, "z1*w1 + (3/10)*z1 - (1/5)*w1", (), None),
)


def _shipped_files(rng: random.Random, work_dir: Path, prefix: str, t1: float):
    """Yield (name, path, z, w) for the shipped systems with seeded states."""
    for name, m, lagrangian, constraints, guard in SHIPPED:
        z, w = _draw_state(rng, m, guard)
        stem = f"{prefix}_{name}"
        path = work_dir / f"{stem}.system"
        path.write_text(system_text(stem, m, lagrangian, constraints, z, w, t1, DT))
        yield stem, path, z, w


def trajectory(seed: int, work_dir: Path, t1: float = TRAJECTORY_T1) -> List[Op]:
    """``simulate`` over the shipped nonsingular systems at file settings."""
    rng = random.Random(f"trajectory:{seed}")
    steps = int(t1 / DT)
    ops = []
    for stem, path, z, w in _shipped_files(rng, work_dir, "traj", t1):
        expect: Dict[str, object] = {"samples": steps + 1}
        if stem.endswith("bilinear_pair"):
            # Exact flow of L = z w: z e^{it}, w e^{-it}.
            expect["exact_final"] = (
                [c * cmath.exp(1j * t1) for c in z],
                [c * cmath.exp(-1j * t1) for c in w],
            )
        ops.append(Op("simulate", path, stem, [], steps, expect))
    return ops


# Generated holomorphic polynomial Lagrangians for the state sweep: (m, r).
# Saddle sizes 2m + r run from 2 to 12.  r is even: the leading part of
# the saddle block is antisymmetric, so it is singular on the odd-dimensional
# kernel an odd number of constraints would leave.
SWEEP_SHAPES = ((1, 0), (2, 0), (2, 2), (3, 0), (3, 2), (4, 0), (4, 2), (4, 4))


def _generated_lagrangian(rng: random.Random, shape: random.Random, m: int) -> str:
    """sum z_i w_i plus small bilinear and quartic couplings.

    Every monomial has equal z and w degree, so L is invariant under
    z -> e^{it} z, w -> e^{-it} w and the energy is conserved; the mixed
    Hessian stays a small perturbation of the identity on the sampled box.
    ``shape`` picks the monomials and ``rng`` their coefficients.
    """
    n = 2 * m
    p: Poly = {_monomial(n, i, m + i): 1.0 for i in range(m)}
    cross = [(i, j) for i in range(m) for j in range(m) if i != j]
    for i, j in _distinct(shape, cross, m - 1):
        p[_monomial(n, i, m + j)] = _coef(rng, 0.05, 0.15)
    zz = list(itertools.combinations_with_replacement(range(m), 2))
    quartic = [(a, b) for a in zz for b in zz]
    for (z_pair, w_pair) in _distinct(shape, quartic, 2 * m):
        p[_monomial(n, *z_pair, *(m + k for k in w_pair))] = _coef(rng, 0.005, 0.02)
    return poly_text(p, m)


def _invariant_constraints(rng: random.Random, shape: random.Random, m: int, r: int):
    """r exact forms d g_a with g_a = z_i w_j + c z_k w_l.

    Each g_a is invariant under the rotation z -> e^{it} z, w -> e^{-it} w,
    which is the free flow of every generated Lagrangian, so d g_a vanishes
    on that flow: the multipliers stay zero and the energy stays conserved.
    Constant-coefficient forms do neither; the check suite's drift gate
    fails on them by orders of magnitude.
    """
    n = 2 * m
    pairs = [(i, j) for i in range(m) for j in range(m)]
    forms = []
    for a in range(r):
        (i, j), (k, l) = _distinct(shape, pairs, 2)
        g = {_monomial(n, i, m + j): 1.0, _monomial(n, k, m + l): _coef(rng, 0.3, 1.0)}
        forms.append((f"c{a + 1}", differential(g, m)))
    return tuple(forms)


def state_sweep(
    seed: int, work_dir: Path, samples: int = SWEEP_SAMPLES, t1: float = SWEEP_T1
) -> List[Op]:
    """``check`` over the shipped systems plus generated polynomial ones."""
    rng = random.Random(f"state_sweep:{seed}")
    # Which monomials appear is the same for every seed: the symbolic work
    # (closure sums, compiled entries) grows with them, and a round must
    # cost the same whatever the seed.
    shape = random.Random("state_sweep:shape")
    args = ["--samples", str(samples), "--t1", repr(t1), "--seed", str(rng.randrange(2**31))]
    # The suite samples the initial state plus ``samples`` others.
    expect = {"states": samples + 1}
    ops = [
        Op("check", path, stem, list(args), samples + 1, dict(expect))
        for stem, path, _, _ in _shipped_files(rng, work_dir, "sweep", t1)
    ]
    for index, (m, r) in enumerate(SWEEP_SHAPES):
        stem = f"sweep_gen{index}_m{m}_r{r}"
        z, w = _draw_state(rng, m, None, radius=0.8)
        path = work_dir / f"{stem}.system"
        path.write_text(system_text(
            stem, m, _generated_lagrangian(rng, shape, m), _invariant_constraints(rng, shape, m, r),
            z, w, t1, DT,
        ))
        ops.append(Op("check", path, stem, list(args), samples + 1, dict(expect)))
    return ops


# Constraint sets with a verdict known by construction, for m = 2 and 3:
#   d f              closed
#   g d f            locally_holonomic  (d(g df) = dg ^ df vanishes on ker df)
#   d f + h d k      anholonomic        (omega ^ d omega = df ^ dh ^ dk != 0)
# each alone (r = 1) and paired with an exact form d f2 (r = 2).
#
# The polynomials follow fixed templates over four variable slots; a seeded
# permutation assigns the slots to variables and the seed draws the
# coefficients, so every seed gives forms of the same size.  f, h, k and f2
# lead with different slots (|c| >= 0.7), and their two cubic terms have
# gradients below 0.48 in absolute row sum where every |x| <= sqrt(2), so
# the gradients are diagonally dominant: independent at every sample.  That
# makes each verdict hold at every sample and leaves no rank-deficient one.
CLASSIFY_KINDS = ("closed", "locally_holonomic", "anholonomic")
_LEAD = {"f": 0, "h": 1, "k": 2, "f2": 3}
_CUBICS = {
    "f": ((0, 1, 2), (1, 1, 3)),
    "h": ((1, 2, 3), (0, 0, 2)),
    "k": ((2, 3, 3), (0, 1, 1)),
    "f2": ((3, 0, 2), (2, 2, 1)),
    "g": ((0, 2, 2), (1, 3, 3)),
}


def _template_poly(rng: random.Random, m: int, slots: Sequence[int], name: str) -> Poly:
    n = 2 * m
    if name == "g":  # 1 + small terms: |g - 1| <= 0.57 on the box
        p: Poly = {(0,) * n: 1.0}
        lo, hi = 0.05, 0.1
    else:
        p = {_monomial(n, slots[_LEAD[name]]): _coef(rng, 0.7, 1.0)}
        lo, hi = 0.01, 0.04
    for cubic in _CUBICS[name]:
        p[_monomial(n, *(slots[k] for k in cubic))] = _coef(rng, lo, hi)
    return p


def _constraint_form(rng: random.Random, m: int, kind: str, slots: Sequence[int]) -> List[str]:
    f = _template_poly(rng, m, slots, "f")
    if kind == "closed":
        return differential(f, m)
    if kind == "locally_holonomic":
        g = _template_poly(rng, m, slots, "g")
        return [poly_text(poly_mul(g, poly_diff(f, j)), m) for j in range(2 * m)]
    h = _template_poly(rng, m, slots, "h")
    k = _template_poly(rng, m, slots, "k")
    return [
        poly_text(poly_add(poly_diff(f, j), poly_mul(h, poly_diff(k, j))), m)
        for j in range(2 * m)
    ]


def classify_sweep(seed: int, work_dir: Path, samples: int = CLASSIFY_SAMPLES) -> List[Op]:
    """``classify`` over constraint sets whose verdict is known."""
    rng = random.Random(f"classify_sweep:{seed}")
    ops = []
    for m in (2, 3):
        for r in (1, 2):
            for kind in CLASSIFY_KINDS:
                stem = f"cls_{kind}_m{m}_r{r}"
                slots = rng.sample(range(2 * m), 4)
                forms = [("omega1", _constraint_form(rng, m, kind, slots))]
                if r == 2:
                    forms.append(("exact2", differential(_template_poly(rng, m, slots, "f2"), m)))
                z, w = _draw_state(rng, m, None)
                path = work_dir / f"{stem}.system"
                path.write_text(system_text(stem, m, "z1*w1", forms, z, w, 1.0, DT))
                args = ["--samples", str(samples), "--seed", str(rng.randrange(2**31))]
                ops.append(Op("classify", path, stem, args, samples,
                              {"verdict": kind, "samples": samples}))
    return ops


WORKLOADS = {
    "trajectory": trajectory,
    "state_sweep": state_sweep,
    "classify_sweep": classify_sweep,
}
