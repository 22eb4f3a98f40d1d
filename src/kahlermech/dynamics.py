"""Second-order dynamics from a Lagrangian on the flat complex chart.

A Lagrangian L(z, w) induces a two-form Phi_L = -d(d_J L) whose only
generically nonzero entries couple dz_i with dw_j, an energy function

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

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .expressions import (
    Conj,
    EvalDomainError,
    Expr,
    GeneratedFunction,
    Im,
    Num,
    Re,
    Sym,
    as_expr,
    check_expression,
    diff,
    emit,
    make_point,
    simplify,
    walk,
)
from .exterior import (
    OneForm,
    TwoForm,
    VectorField,
    exterior_derivative,
    vertical_d,
)


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
        return all(
            math.isfinite(c.real) and math.isfinite(c.imag)
            for c in (*self.z, *self.w)
        )


def _assert_holomorphic(e: Expr) -> None:
    for node in walk(e):
        if isinstance(node, (Conj, Re, Im)) and node.contains_symbol():
            raise NonHolomorphicLagrangian(node)


def _assembly_body(m, kahler, dL, A, H, B, W, L) -> List[str]:
    """Source lines of a system's assembly function ``(z, w)``.

    Every entry is evaluated once.  Arithmetic on constant entries is done
    here, so the generated code is short to compile; only the sign of a
    zero can differ from doing it at run time.  The function returns what
    the solver reads, the row lists (K, S, rhs) and the Lagrangian's
    value L, where K is Phi_L mirrored from its upper triangle with exact
    negation and

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

    def times(i: complex, x):  # i is 1j or -1j
        return i * x if isinstance(x, complex) else f"{'1j' if i == 1j else '-1j'} * {x}"

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

    upper = table("k", [[e if p < q else Num(0) for q, e in enumerate(row)]
                        for p, row in enumerate(kahler)])
    d = [value(f"d{p}", e) for p, e in enumerate(dL)]
    a, h, b, c = table("a", A), table("h", H), table("b", B), table("c", W)
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
    ]


class LagrangianSystem:
    """A Lagrangian with optional linear velocity constraints.

    Second derivatives, the symbolic two-form Phi_L and all constraint
    coefficients are differentiated once at construction and compiled
    into one generated function, so per-state assembly is a single call
    that returns the saddle system as row lists.
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

        # Phi_L assembled through the exterior layer: Phi_L = -d(d_J L).
        self.kahler_form: TwoForm = exterior_derivative(vertical_d(lagrangian, m)).scaled(-1)

        n = 2 * m
        kahler = [[as_expr(self.kahler_form.entry(p, q)) for q in range(n)] for p in range(n)]
        self._W = [[as_expr(omega.coefficients[p]) for omega in constraints] for p in range(n)]
        dL = self._Lz + self._Lw
        blocks = (kahler, [dL], self._A, self._H, self._B, self._W, [[lagrangian]])
        self._assemble = GeneratedFunction(
            _assembly_body(m, kahler, dL, self._A, self._H, self._B, self._W, lagrangian),
            [e for block in blocks for row in block for e in row], m,
        )

    @property
    def r(self) -> int:
        return len(self.constraints)

    # -- per-state assembly -------------------------------------------------

    def _blocks_at(self, state: PhaseState):
        """The generated assembly at the state: the row lists K, S and rhs
        and the Lagrangian's value L."""
        if state.m != self.m:
            raise ValueError("state dimension does not match the system")
        return self._assemble.at(state.z, state.w)

    def _solution_from(self, state: PhaseState, S, rhs, L, vec) -> "SemispraySolution":
        """Field, multipliers and bookkeeping from a solved saddle vector.

        The residuals are those of the saddle rows S @ vec = rhs, and the
        energy is E_L from rhs and L (the Lagrangian's value).
        """
        m, n = self.m, 2 * self.m
        hol, fib = tuple(vec[:m]), tuple(vec[m:n])
        per_form = tuple(abs(_dot(row, vec[:n])) for row in S[n:])
        return SemispraySolution(
            VectorField(hol, fib),
            tuple(vec[n:]),
            max(abs(_dot(S[i], vec) - rhs[i]) for i in range(n)),
            max(per_form, default=0.0),
            max(abs(x - v) for x, v in zip(hol, state.w)),
            per_form,
            _energy(rhs, L, hol, fib),
        )


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


def _dot(row, vec) -> complex:
    acc = 0j
    for x, v in zip(row, vec):
        acc += x * v
    return acc


def _energy(rhs, L: complex, hol, fib) -> complex:
    """E_L from the assembled rhs (which is -dL) and the Lagrangian's value."""
    m = len(hol)
    total = 0j
    for i in range(m):
        total += 1j * hol[i] * -rhs[i] - 1j * fib[i] * -rhs[m + i]
    return total - L


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


def _solve(system: LagrangianSystem, K, S, rhs, t: float, z, w,
           state: Optional[PhaseState] = None) -> List[complex]:
    """The saddle vector of the system's assembly (K, S, rhs) at (t, z, w);
    the errors carry ``state``, or else a :class:`PhaseState` built for them."""
    try:
        failure = SingularKahlerMatrix
        linalg.lu_factor(K)
        failure = InconsistentConstraints
        lu, perm, _ = linalg.lu_factor(S)
        return linalg.lu_solve(lu, perm, rhs)
    except linalg.SingularMatrixError as err:
        raise failure(state or PhaseState(t, z, w), err.condition_estimate) from None
    except linalg.NonFiniteEntryError:
        # Finite entries can still overflow where the saddle combines them.
        err = system._assemble.domain_error(z, w) or system._assemble.magnitude_error(z, w)
        raise err or EvalDomainError("non-finite value in the assembled saddle",
                                     system.lagrangian) from None


def solve_semispray(system: LagrangianSystem, state: PhaseState) -> SemispraySolution:
    """Solve the constrained equalization problem at one state.

    Phi_L is factored on its own first, so that a degenerate Lagrangian is
    reported as :class:`SingularKahlerMatrix` and not as inconsistent
    constraints.  An infinite or NaN entry of the assembled system raises
    :class:`EvalDomainError`.
    """
    K, S, rhs, L = system._blocks_at(state)
    vec = _solve(system, K, S, rhs, state.t, state.z, state.w, state)
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
    where ``k`` holds k_z then k_w."""
    m = len(z)
    z, w = [x + h * v for x, v in zip(z, k)], [x + h * v for x, v in zip(w, k[m:])]
    K, S, rhs, _ = system._assemble.at(z, w)
    return _solve(system, K, S, rhs, t + h, z, w)


_SOLVER_ERRORS = (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError)


def integrate(system: LagrangianSystem, s0: PhaseState, t1: float, dt: float) -> Trajectory:
    """Fixed-step RK4 over [0, t1], re-solving the saddle at every stage.

    The returned trajectory has floor(t1/dt) + 1 samples when integration
    completes; each sample records the state, the stage-one solve (field,
    multipliers and residuals) and the energy with the solved field.  On a
    solver failure or a non-finite state the partial trajectory is returned
    with the failure time and kind recorded instead of raising.

    Only a recorded sample builds objects: its :class:`PhaseState`, and the
    :class:`SemispraySolution` with its :class:`VectorField`.  Stages 2-4
    work on tuples and lists and keep only the solved saddle vector; a
    failing stage builds the PhaseState that its error carries.
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
        try:
            sol = solve_semispray(system, state)
        except _SOLVER_ERRORS as err:
            return Trajectory(samples, dt, "solver_failure", state.t, type(err).__name__)
        samples.append(TrajectorySample(state, sol, sol.energy))
        if step == n_steps:
            break
        t, z, w = state.t, state.z, state.w
        k1 = sol.xi.hol + sol.xi.fib
        try:
            k2 = _stage(system, t, z, w, dt / 2, k1)
            k3 = _stage(system, t, z, w, dt / 2, k2)
            k4 = _stage(system, t, z, w, dt, k3)
        except _SOLVER_ERRORS as err:
            failed_at = getattr(err, "state", None)
            t_fail = failed_at.t if failed_at is not None else t
            return Trajectory(samples, dt, "solver_failure", t_fail, type(err).__name__)
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
