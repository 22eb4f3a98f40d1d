"""Second-order dynamics from a Lagrangian on the flat complex chart.

A holomorphic Lagrangian L(z, w) induces a two-form Phi_L = -d(d_J L)
whose only nonzero entries are Phi_L[z_i][w_j] = 2i L_{z_i w_j}, an
energy function

    E_L = i w_eff^i dL/dz_i - i conj-part - L

evaluated with the solved field, and a linear saddle problem for the
semispray components (xi, xibar) together with the constraint multipliers.
The solver enforces

    i_xi Phi_L = dE_L + lambda^a omega_a,     omega_a(xi) = 0,

where dE_L is differentiated with the field components held frozen and the
xi-dependence then moved to the left-hand side.  Degeneracy of Phi_L and
rank deficiency of the full saddle matrix are reported through distinct
error types so that a structurally meaningless Lagrangian is never
confused with an unsatisfiable constraint configuration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .expressions import (
    Conj,
    EvalDomainError,
    Expr,
    GeneratedFunction,
    Im,
    Mul,
    Num,
    Re,
    Sym,
    as_expr,
    check_expression,
    compile_function,
    diff,
    emit,
    fold,
    make_point,
    shifted,
    simplify,
    walk,
)
from .exterior import OneForm, TwoForm, VectorField


class NonHolomorphicLagrangian(Exception):
    """The Lagrangian applies conj/re/im to dynamical symbols."""

    def __init__(self, subtree: Expr):
        super().__init__(
            f"conj/re/im of a dynamical symbol is not allowed in a Lagrangian: {subtree}"
        )
        self.subtree = subtree


class SingularKahlerMatrix(Exception):
    """Phi_L is rank deficient at the requested state (degenerate Lagrangian)."""

    def __init__(self, state: "PhaseState", condition_estimate: float):
        super().__init__(
            f"Kaehler coefficient matrix is singular at t={state.t:g}"
            f" (condition estimate {condition_estimate:.3e})"
        )
        self.state = state
        self.condition_estimate = condition_estimate


class InconsistentConstraints(Exception):
    """The saddle system is rank deficient: constraints cannot be satisfied
    with a unique multiplier at this state."""

    def __init__(self, state: "PhaseState", condition_estimate: float):
        super().__init__(
            f"constraint saddle system is rank deficient at t={state.t:g}"
            f" (condition estimate {condition_estimate:.3e})"
        )
        self.state = state
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class PhaseState:
    """A point of the phase chart at time t."""

    t: float
    z: Tuple[complex, ...]
    w: Tuple[complex, ...]

    def __post_init__(self):
        if len(self.z) != len(self.w):
            raise ValueError("position and velocity tuples must have equal length")
        object.__setattr__(self, "z", tuple(map(complex, self.z)))
        object.__setattr__(self, "w", tuple(map(complex, self.w)))

    @property
    def m(self) -> int:
        return len(self.z)

    def point(self) -> Dict[Sym, complex]:
        return make_point(self.z, self.w)

    def is_finite(self) -> bool:
        return all(map(cmath.isfinite, (*self.z, *self.w)))


def _assert_holomorphic(e: Expr) -> None:
    for node in walk(e):
        if isinstance(node, (Conj, Re, Im)) and node.contains_symbol():
            raise NonHolomorphicLagrangian(node)


def _assembly_body(m, kahler, dL, A, H, B, W, L):
    """Source lines of a system's assembly function ``(z, w)``, and K's
    entries: a complex constant, or the source text of its value.

    Every entry is evaluated once.  Arithmetic on constant entries is done
    here, so the generated code is short to compile; only the sign of a
    zero can differ from doing it at run time.  The function returns what
    the solver reads, the row lists (K, S, rhs) and the Lagrangian's
    value L, where K is Phi_L mirrored from its upper triangle with exact
    negation (the folded literal of a constant ``kahler`` entry, else 2i
    times the H entry's value), and

        S = [[K^T - M_E, -W], [W^T, 0]],   rhs = [-dL, 0],

    with M_E = [[i A^T, -i H], [i H^T, -i B^T]] the frozen-field energy
    coefficient (dE_L = M_E xi - dL).
    """
    n, r = 2 * m, len(W[0])
    body: List[str] = []

    # An entry is a complex constant, or the source text of its value.
    def value(name: str, e: Expr):
        if isinstance(e, Num):
            return e.value
        body.append(f"{name} = {emit(e)}")
        return name

    def src(x) -> str:
        return emit(Num(x)) if isinstance(x, complex) else x

    def neg(x):
        return -x if isinstance(x, complex) else f"-{x}"

    def times(c: complex, x):
        return c * x if isinstance(x, complex) else f"({src(c)} * {x})"

    def minus(x, y):
        if isinstance(x, complex) and isinstance(y, complex):
            return x - y
        return f"{src(x)} - {src(y)}"

    def table(name: str, entries):
        return [[value(f"{name}{i}_{j}", e) for j, e in enumerate(row)]
                for i, row in enumerate(entries)]

    def row(entries) -> str:
        return "[" + ", ".join(map(src, entries)) + "]"

    def rows(entries) -> str:
        return "[" + ", ".join(map(row, entries)) + "]"

    d = [value(f"d{p}", e) for p, e in enumerate(dL)]
    a, h, b, c = table("a", A), table("h", H), table("b", B), table("c", W)
    upper = [[(e.value if isinstance(e, Num) else times(2j, h[p][q - m])) if p < q else 0j
              for q, e in enumerate(row)] for p, row in enumerate(kahler)]
    K = [[upper[i][j] if i <= j else neg(upper[j][i]) for j in range(n)] for i in range(n)]
    ME = [[times(1j, a[j][i]) if j < m else times(-1j, h[i][j - m]) for j in range(n)]
          for i in range(m)]
    ME += [[times(1j, h[j][i]) if j < m else times(-1j, b[j - m][i]) for j in range(n)]
           for i in range(m)]
    S = [[minus(K[j][i], ME[i][j]) for j in range(n)] + [neg(x) for x in c[i]]
         for i in range(n)]
    S += [[c[j][s] for j in range(n)] + [0j] * r for s in range(r)]
    lag = src(value("lag", L))
    return body + [
        f"K = {rows(K)}",
        f"S = {rows(S)}",
        f"rhs = {row([neg(x) for x in d] + [0j] * r)}",
        f"return K, S, rhs, {lag}",
    ], K


class LagrangianSystem:
    """A Lagrangian with optional linear velocity constraints.

    Second derivatives and all constraint coefficients are differentiated
    once at construction and compiled into one generated function, so
    per-state assembly is a single call that returns the saddle system as
    row lists.  The symbolic two-form ``kahler_form`` is Phi_L built from
    the block H = L_zw: 2i H on dz_i ^ dw_j, a literal 0 elsewhere.
    """

    def __init__(self, m: int, lagrangian: Expr, constraints: Sequence[OneForm] = ()):
        if m < 1:
            raise ValueError(f"dimension m must be >= 1, got {m}")
        check_expression(lagrangian, m, "the Lagrangian")
        _assert_holomorphic(lagrangian)
        constraints = tuple(constraints)
        for omega in constraints:
            if omega.m != m:
                raise ValueError("constraint form dimension does not match the system")
            for c in omega.coefficients:
                check_expression(as_expr(c), m, "a constraint coefficient")
        if len(constraints) > 2 * m - 1:
            raise ValueError(
                f"at most 2m-1={2 * m - 1} constraints are allowed, got {len(constraints)}"
            )
        self.m = m
        self.lagrangian = lagrangian
        self.constraints = constraints

        zs = [Sym("z", i) for i in range(1, m + 1)]
        ws = [Sym("w", i) for i in range(1, m + 1)]
        # Derivatives of the folded Lagrangian come out folded.
        folded = simplify(lagrangian)
        self._Lz = [diff(folded, s) for s in zs]
        self._Lw = [diff(folded, s) for s in ws]
        # Second-derivative blocks: A[i][j] = L_{z_i z_j}, H[i][j] = L_{z_i w_j},
        # B[i][j] = L_{w_i w_j}.
        self._A = [[diff(self._Lz[i], zs[j]) for j in range(m)] for i in range(m)]
        self._H = [[diff(self._Lz[i], ws[j]) for j in range(m)] for i in range(m)]
        self._B = [[diff(self._Lw[i], ws[j]) for j in range(m)] for i in range(m)]

        # Phi_L = -d(d_J L) of a holomorphic L: 2i H on dz_i ^ dw_j, else 0.
        self.kahler_form: TwoForm = TwoForm(
            m, lambda p, q: fold(Mul, Num(2j), self._H[p][q - m]) if p < m <= q else Num(0))

        kahler = [[as_expr(e) for e in row] for row in self.kahler_form.entries]
        self._W = [[as_expr(omega.coefficients[p]) for omega in constraints] for p in range(2 * m)]
        dL = self._Lz + self._Lw
        blocks = (kahler, [dL], self._A, self._H, self._B, self._W, [[lagrangian]])
        body, K = _assembly_body(m, kahler, dL, self._A, self._H, self._B, self._W, lagrangian)
        self._assemble = GeneratedFunction(
            body, [e for block in blocks for row in block for e in row], m)
        # A constant Phi_L that factors here is not factored per solve; one
        # that fails is left for each solve to report at its state.
        self._kahler_regular = all(isinstance(x, complex) for row in K for x in row)
        if self._kahler_regular:
            try:
                linalg.lu_factor(K)
            except (linalg.SingularMatrixError, linalg.NonFiniteEntryError):
                self._kahler_regular = False

    @property
    def r(self) -> int:
        return len(self.constraints)

    # -- per-state assembly -------------------------------------------------

    def _blocks_at(self, state: PhaseState):
        """The generated assembly at the state: the row lists K, S and rhs
        and the Lagrangian's value L.  A domain error carries the state."""
        if state.m != self.m:
            raise ValueError("state dimension does not match the system")
        try:
            return self._assemble.at(state.z, state.w)
        except EvalDomainError as err:
            err.state = state
            raise

    def _solution_from(self, state: PhaseState, S, rhs, L, vec) -> "SemispraySolution":
        """Field, multipliers and bookkeeping from a solved saddle vector in
        one generated call: the residuals of the saddle rows S @ vec = rhs,
        and E_L from rhs and L (the Lagrangian's value)."""
        return _bookkeeping_kernel(self.m, self.r)(S, rhs, L, vec, state.w)


def _walked_blocks(system: LagrangianSystem, state: PhaseState):
    """(dL, A, H, B, W) at the state as complex arrays, from the tree walker:
    dL = (L_z, L_w), A = L_zz, H = L_zw, B = L_ww and W the constraint
    coefficients, one column per form.  A block entry without a value
    raises the walker's :class:`EvalDomainError`, which names its subtree.
    """
    if state.m != system.m:
        raise ValueError("state dimension does not match the system")
    point = state.point()
    dL, A, H, B, W = (
        np.array([[e.evaluate(point) for e in row] for row in block], dtype=complex)
        for block in ([system._Lz + system._Lw], system._A, system._H, system._B, system._W)
    )
    return dL[0], A, H, B, W


@cache
def _bookkeeping_kernel(m: int, r: int) -> Callable:
    """``f(S, rhs, L, vec, w) -> SemispraySolution`` for a saddle of width
    2m + r, with ``w`` the state's velocities, generated once per shape.
    Each dot product is a running sum from 0j in column order, and a
    maximum takes a later term only when it compares greater, as ``max``
    does.  E_L sums i xi_i dL_i - i xi_{m+i} dL_{m+i} (dL = -rhs), minus L."""
    n, width = 2 * m, 2 * m + r

    def group(prefix: str, start: int = 0, stop: int = width) -> str:
        return "(" + "".join(f"{prefix}{j}, " for j in range(start, stop)) + ")"

    def dot(i: int, columns: int) -> str:
        return "(0j" + "".join(f" + s{i}_{j} * v{j}" for j in range(columns)) + ")"

    def maximum(name: str, first: str, *rest: str) -> List[str]:
        return [f"{name} = {first}"] + [line for term in rest for line in
                                         (f"if (x := {term}) > {name}:", f"    {name} = x")]

    energy = "".join(f" + (1j * v{i} * -b{i} - 1j * v{m + i} * -b{m + i})" for i in range(m))
    body = [f"{group('v')} = vec", f"{group('b')} = rhs", f"{group('w', 0, m)} = w",
            *(f"{group(f's{i}_')} = S[{i}]" for i in range(width)),
            *(f"p{a} = abs({dot(n + a, n)})" for a in range(r)),
            *maximum("symplectic", *(f"abs({dot(i, width)} - b{i})" for i in range(n))),
            *maximum("constraint", *([f"p{a}" for a in range(r)] or ["0.0"])),
            *maximum("defect", *(f"abs(v{i} - w{i})" for i in range(m))),
            f"return _solution(_field({group('v', 0, m)}, {group('v', m, n)}), {group('v', n)},"
            f" symplectic, constraint, defect, {group('p', 0, r)}, (0j{energy}) - L)"]
    return compile_function("S, rhs, L, vec, w", body, (), abs=abs,
                            _solution=SemispraySolution, _field=VectorField)


@dataclass(frozen=True)
class SemispraySolution:
    """Solved field components, multipliers, and pointwise bookkeeping.

    Both solvers of the generated assembly fill every field; a solution
    built by hand, such as a field to test :func:`el_residual` on, may
    leave out the last two.
    """

    xi: VectorField
    multipliers: Tuple[complex, ...]
    residual_symplectic: float
    residual_constraints: float
    semispray_defect: float
    # |omega_a(xi)| per constraint form, in declaration order.
    constraint_residuals: Tuple[float, ...] = ()
    # E_L with the solved field.
    energy: Optional[complex] = None


@dataclass(frozen=True)
class TrajectorySample:
    state: PhaseState
    solution: SemispraySolution
    energy: complex


@dataclass
class Trajectory:
    samples: List[TrajectorySample]
    dt: float
    status: str  # "completed" | "solver_failure" | "non_finite"
    failure_time: Optional[float] = None
    failure_kind: Optional[str] = None


@dataclass(frozen=True)
class DiagnosticsReport:
    status: str
    samples: int
    max_energy_drift: float
    mean_energy_drift: float
    max_constraint_residual: float
    max_symplectic_residual: float
    max_semispray_defect: float
    failure_time: Optional[float] = None
    failure_kind: Optional[str] = None


def assemble_kahler_matrix(system: LagrangianSystem, state: PhaseState) -> TwoForm:
    """Phi_L evaluated at the state, exactly antisymmetric."""
    K = system._blocks_at(state)[0]
    return TwoForm(system.m, lambda p, q: K[p][q])


def energy_differential(system: LagrangianSystem, state: PhaseState, xi: VectorField) -> OneForm:
    """dE_L at the state with the field components held frozen."""
    if xi.m != system.m:
        raise ValueError("field dimension does not match the system")
    dL, A, H, B, _ = _walked_blocks(system, state)
    ME = np.block([[1j * A.T, -1j * H], [1j * H.T, -1j * B.T]])
    coeffs = ME @ np.asarray(xi.components) - dL
    m = system.m
    return OneForm(tuple(coeffs[:m]), tuple(coeffs[m:]))


def _state_at(where) -> PhaseState:
    """A state as it is, or the state of an RK stage ``(t, z, w, h, k)``."""
    if isinstance(where, PhaseState):
        return where
    t, z, w, h, k = where
    return PhaseState(t + h, *shifted(z, w, h, k))


def _solve(system: LagrangianSystem, K, S, rhs, where) -> List[complex]:
    """The saddle vector of the system's assembly (K, S, rhs); an error,
    among them :class:`EvalDomainError` for a vector that is not finite,
    carries the state that :func:`_state_at` makes of ``where``.  K is not
    factored again when the system factored its constant Phi_L."""
    try:
        failure = SingularKahlerMatrix
        if not system._kahler_regular:
            linalg.lu_factor(K)
        failure = InconsistentConstraints
        lu, perm, _ = linalg.lu_factor(S)
        vec = linalg.lu_solve(lu, perm, rhs)
        if all(map(cmath.isfinite, vec)):
            return vec
    except linalg.SingularMatrixError as err:
        raise failure(_state_at(where), err.condition_estimate) from None
    except linalg.NonFiniteEntryError:
        # Finite entries can still overflow where the saddle combines them.
        state, at = _state_at(where), system._assemble
        err = at.domain_error(state.z, state.w) or at.magnitude_error(state.z, state.w)
        err = err or EvalDomainError("non-finite value in the assembled saddle", system.lagrangian)
    else:  # finite factors can still overflow in back substitution
        state = _state_at(where)
        err = EvalDomainError("non-finite value in the solved saddle vector", system.lagrangian)
    err.state = state
    raise err from None


def solve_semispray(system: LagrangianSystem, state: PhaseState) -> SemispraySolution:
    """Solve the constrained equalization problem at one state.

    Phi_L is factored on its own first (a constant one once per system), so
    that a degenerate Lagrangian is reported as :class:`SingularKahlerMatrix`
    and not as inconsistent constraints.  An infinite or NaN entry of the
    assembled system or of the solved vector raises :class:`EvalDomainError`.
    Errors carry the state.
    """
    K, S, rhs, L = system._blocks_at(state)
    vec = _solve(system, K, S, rhs, state)
    return system._solution_from(state, S, rhs, L, vec)


def el_residual(
    system: LagrangianSystem,
    state: PhaseState,
    solution: SemispraySolution,
) -> Tuple[complex, ...]:
    """Constrained Euler-Lagrange residuals at a state.

    The time derivative of the momenta is expanded by the chain rule along
    the supplied field, so the residuals are algebraic in (state, xi,
    multipliers).  Component order is (z-equations, w-equations); with no
    constraints the w-entries coincide with the unconstrained equations and
    the z-entries with their negatives.
    """
    m = system.m
    if solution.xi.m != m:
        raise ValueError("field dimension does not match the system")
    if len(solution.multipliers) != system.r:
        raise ValueError(f"got {len(solution.multipliers)} multipliers for {system.r} constraints")
    dL, A, H, B, W = _walked_blocks(system, state)
    xih, xif = np.asarray(solution.xi.hol), np.asarray(solution.xi.fib)
    z_eqs = dL[:m] - 1j * (A @ xih + H @ xif)
    w_eqs = dL[m:] + 1j * (H.T @ xih + B @ xif)
    lam_terms = W @ np.asarray(solution.multipliers, dtype=complex)
    return tuple(complex(v) for v in np.concatenate([z_eqs, w_eqs]) - lam_terms)


def _stage(system: LagrangianSystem, t: float, z, w, h: float, k) -> List[complex]:
    """The saddle vector at the RK stage state (t + h, z + h k_z, w + h k_w),
    where ``k`` holds k_z then k_w; the generated assembly makes the shift.
    An error carries the stage state."""
    try:
        K, S, rhs, _ = system._assemble.at(z, w, h, k)
    except EvalDomainError as err:
        err.state = _state_at((t, z, w, h, k))
        raise
    return _solve(system, K, S, rhs, (t, z, w, h, k))


def integrate(system: LagrangianSystem, s0: PhaseState, t1: float, dt: float) -> Trajectory:
    """Fixed-step RK4 over [0, t1], re-solving the saddle at every stage.

    The returned trajectory has floor(t1/dt) + 1 samples when integration
    completes; each sample records the state, the stage-one solve (field,
    multipliers and residuals) and the energy with the solved field.  On a
    solver failure or a non-finite state the partial trajectory is returned
    with the failure time and kind recorded instead of raising.

    Each stage is one generated assembly call, which makes the stage shift
    itself for stages 2-4, plus the LU kernels.  Only a recorded sample
    builds objects: its :class:`PhaseState` and :class:`SemispraySolution`.
    A failing stage builds the PhaseState its error carries and records.
    """
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
            return Trajectory(samples, dt, "non_finite", state.t, "NonFiniteState")
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
            return Trajectory(samples, dt, "solver_failure", err.state.t, type(err).__name__)
        zw = [x + sixth * (a + 2 * b + 2 * c + d)
              for x, a, b, c, d in zip(z + w, k1, k2, k3, k4)]
        # Sample times are s0.t + step*dt, not a running sum of dt.
        state = PhaseState(s0.t + (step + 1) * dt, zw[:m], zw[m:])
    return Trajectory(samples, dt, "completed")


def diagnostics(trajectory: Trajectory) -> DiagnosticsReport:
    """Drift and residual summary over a trajectory."""
    samples = trajectory.samples
    if not samples:
        return DiagnosticsReport(
            trajectory.status, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
            trajectory.failure_time, trajectory.failure_kind,
        )
    e0 = samples[0].energy
    drifts = [abs(s.energy - e0) for s in samples]
    return DiagnosticsReport(
        status=trajectory.status,
        samples=len(samples),
        max_energy_drift=float(max(drifts)),
        mean_energy_drift=float(sum(drifts) / len(drifts)),
        max_constraint_residual=float(max(s.solution.residual_constraints for s in samples)),
        max_symplectic_residual=float(max(s.solution.residual_symplectic for s in samples)),
        max_semispray_defect=float(max(s.solution.semispray_defect for s in samples)),
        failure_time=trajectory.failure_time,
        failure_kind=trajectory.failure_kind,
    )
