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
from functools import cache, cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._numpy import np
from ._record import record
from . import linalg
from .expressions import (
    Conj,
    EvalDomainError,
    Expr,
    GeneratedFunction,
    Im,
    Mul,
    Neg,
    Num,
    Re,
    Sub,
    Sym,
    as_expr,
    check_expression,
    compile_function,
    diff,
    fold,
    make_point,
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


@record(frozen=True)
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
    """What a system's generated assembly returns, as expression nodes:
    the rows of K, S and rhs, which the solver reads, and L.  K mirrors
    Phi_L's upper triangle ``kahler`` with exact negation, and

        S = [[K^T - M_E, -W], [W^T, 0]],   rhs = [-dL, 0],

    with M_E = [[i A^T, -i H], [i H^T, -i B^T]] the frozen-field energy
    coefficient (dE_L = M_E xi - dL).  The nodes are raw: ``fold``'s laws
    change zero signs (0 - x is -x, not 0j - x).  A node that blocks share,
    such as an H entry, :func:`emit` computes once."""
    n, r, i, minus_i, zero = 2 * m, len(W[0]), Num(1j), Num(-1j), Num(0)
    K = [[kahler[p][q] if p <= q else Neg(kahler[q][p]) for q in range(n)] for p in range(n)]
    ME = [[Mul(i, A[q][p]) if q < m else Mul(minus_i, H[p][q - m]) for q in range(n)]
          for p in range(m)]
    ME += [[Mul(i, H[q][p]) if q < m else Mul(minus_i, B[q - m][p]) for q in range(n)]
           for p in range(m)]
    S = [[Sub(K[q][p], ME[p][q]) for q in range(n)] + [Neg(x) for x in W[p]] for p in range(n)]
    S += [[W[q][a] for q in range(n)] + [zero] * r for a in range(r)]
    return [K, S, [Neg(x) for x in dL] + [zero] * r, L]


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
        value = _assembly_body(m, kahler, dL, self._A, self._H, self._B, self._W, lagrangian)
        # The derivative blocks, by name, for emit's error past MAX_DEPTH.
        named = [(f"L_{kind}[{i}]", e) for kind, row in (("z", self._Lz), ("w", self._Lw))
                 for i, e in enumerate(row)]
        named += [(f"L_{kind}[{i}][{j}]", e)
                  for kind, block in (("zz", self._A), ("zw", self._H), ("ww", self._B))
                  for i, row in enumerate(block) for j, e in enumerate(row)]
        self._assemble = GeneratedFunction(
            value, [e for block in blocks for row in block for e in row], m, named)
        # The elimination kernels of the saddle and of Phi_L.  What emit folded
        # to constants is eliminated here, not per solve: a regular Phi_L is
        # checked (its check is None), a regular saddle factored (a solve only
        # substitutes).  One that fails is left for each solve to report.
        n, constants, solve = 2 * m + len(constraints), self._assemble.constants, None
        self._check_kahler = linalg.kernel(2 * m, False)
        K, S = ([[constants.get(id(e)) for e in row] for row in rows] for rows in value[:2])
        try:
            if all(None not in row for row in K):
                self._check_kahler(K)
                self._check_kahler = None
            if all(None not in row for row in S):
                factor, substitute = linalg.halves(n)
                solve = partial(substitute, factor(S))
        except (linalg.SingularMatrixError, linalg.NonFiniteEntryError):
            pass
        self._solve_saddle = solve or linalg.kernel(n, True)

    @property
    def r(self) -> int:
        return len(self.constraints)

    @cached_property
    def _blocks(self) -> GeneratedFunction:
        """The entries of dL, A, H, B and W in generated code, for
        :func:`_derivative_blocks`: the assembly's, after Phi_L's and before L."""
        entries = list(self._assemble.entries[4 * self.m ** 2:-1])
        return GeneratedFunction(entries, entries, self.m)

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


def _derivative_blocks(system: LagrangianSystem, state: PhaseState):
    """(dL, A, H, B, W) at the state as complex arrays: dL = (L_z, L_w),
    A = L_zz, H = L_zw, B = L_ww and W the constraint coefficients, one
    column per form.  Generated code, compiled on first use, evaluates each
    node of the blocks once; where it fails, the tree walker's
    :class:`EvalDomainError` names the first entry without a finite value.
    """
    if state.m != system.m:
        raise ValueError("state dimension does not match the system")
    values = system._blocks.at(state.z, state.w)
    m, n, v = system.m, 2 * system.m, np.array(values, dtype=complex)
    A, H, B = (v[n + k * m * m:n + (k + 1) * m * m].reshape(m, m) for k in range(3))
    return v[:n], A, H, B, v[n + 3 * m * m:].reshape(n, system.r)


@cache
def _bookkeeping_kernel(m: int, r: int) -> Callable:
    """``f(S, rhs, L, vec, w) -> ((residual_symplectic, residual_constraints,
    semispray_defect, constraint_residuals), energy)`` for a saddle of width
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
            f"return (symplectic, constraint, defect, {group('p', 0, r)}), (0j{energy}) - L"]
    return compile_function("S, rhs, L, vec, w", body, (), abs=abs)


@record(frozen=True)
class SemispraySolution:
    """Solved field components, multipliers, and pointwise bookkeeping.

    A solve fills every field; a solution built by hand, such as a field
    to test the Euler-Lagrange residuals on, may leave out the last two.
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


def _solution(m: int, vec, book, energy) -> SemispraySolution:
    """The solution of saddle vector ``vec`` with its bookkeeping ``book``
    and ``energy``, as :func:`_bookkeeping_kernel` returns them."""
    return SemispraySolution(VectorField(tuple(vec[:m]), tuple(vec[m:2 * m])), tuple(vec[2 * m:]),
                             *book, energy)


@record(frozen=True)
class TrajectorySample:
    state: PhaseState
    solution: SemispraySolution
    energy: complex


@record
class Trajectory:
    """An integrated trajectory in columns, one entry per sample: times,
    positions z, velocities w, stage-one saddle vectors (field, then
    multipliers), their bookkeeping and energies as :func:`_bookkeeping_kernel`
    returns them.  ``samples`` builds the per-sample objects from the columns
    on every read, so it shows a column changed after an earlier read."""

    times: List[float]
    z: List[Tuple[complex, ...]]
    w: List[Tuple[complex, ...]]
    vectors: List[List[complex]]
    bookkeeping: List[tuple]
    energies: List[complex]
    dt: float
    status: str  # "completed" | "solver_failure" | "non_finite"
    failure_time: Optional[float] = None
    failure_kind: Optional[str] = None

    @property
    def samples(self) -> List[TrajectorySample]:
        return [TrajectorySample(PhaseState(t, z, w), _solution(len(z), vec, book, energy), energy)
                for t, z, w, vec, book, energy in zip(self.times, self.z, self.w, self.vectors,
                                                      self.bookkeeping, self.energies)]


@record(frozen=True)
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
    dL, A, H, B, _ = _derivative_blocks(system, state)
    ME = np.block([[1j * A.T, -1j * H], [1j * H.T, -1j * B.T]])
    coeffs = ME @ np.asarray(xi.components) - dL
    m = system.m
    return OneForm(tuple(coeffs[:m]), tuple(coeffs[m:]))


def _solve(system: LagrangianSystem, K, S, rhs, state: PhaseState) -> List[complex]:
    """The saddle vector of the system's assembly (K, S, rhs) at the state;
    an error, among them :class:`EvalDomainError` for a vector that is not
    finite, carries the state.  K is not checked again when the system
    checked its constant Phi_L."""
    try:
        failure = SingularKahlerMatrix
        if system._check_kahler is not None:
            system._check_kahler(K)
        failure = InconsistentConstraints
        vec = system._solve_saddle(S, rhs)
        # A finite sum has no infinite or NaN term; only one that overflows
        # needs the entry-by-entry test.
        if cmath.isfinite(sum(vec)) or all(map(cmath.isfinite, vec)):
            return vec
    except linalg.SingularMatrixError as err:
        raise failure(state, err.condition_estimate) from None
    except linalg.NonFiniteEntryError:
        # Finite entries can still overflow where the saddle combines them.
        at = system._assemble
        err = at.domain_error(state.z, state.w) or at.magnitude_error(state.z, state.w)
        err = err or EvalDomainError("non-finite value in the assembled saddle", system.lagrangian)
    else:  # a finite elimination can still overflow in back substitution
        err = EvalDomainError("non-finite value in the solved saddle vector", system.lagrangian)
    err.state = state
    raise err from None


def solve_semispray(system: LagrangianSystem, state: PhaseState) -> SemispraySolution:
    """Solve the constrained equalization problem at one state.

    Phi_L is checked on its own first (a constant one once per system), so
    that a degenerate Lagrangian is reported as :class:`SingularKahlerMatrix`
    and not as inconsistent constraints.  An infinite or NaN entry of the
    assembled system or of the solved vector raises :class:`EvalDomainError`.
    Errors carry the state.  This is stage one of :func:`_checked_step`.
    """
    kept, vectors, err = _checked_step(system, state)
    if err is not None:
        raise err
    return _solution(system.m, vectors[0], *kept)


def _checked_step(system: LagrangianSystem, state: PhaseState, dt: float = 0.0,
                  last: bool = True):
    """A step of :func:`integrate` on the path that names every error: stage
    one at ``state`` itself, then, unless ``last``, stages 2-4 at (t + h,
    z + h k_z, w + h k_w), k the previous stage's vector.  Returns stage
    one's bookkeeping (None if it failed), the vectors solved, and the first
    typed error, which carries the state of its stage, or None."""
    t, z, w = state.t, state.z, state.w
    kept, vectors = None, []
    try:
        for h in (0.0,) if last else (0.0, dt / 2, dt / 2, dt):
            if vectors:
                k = vectors[-1]
                state = PhaseState(t + h, [x + h * v for x, v in zip(z, k)],
                                   [x + h * v for x, v in zip(w, k[len(z):])])
            K, S, rhs, L = system._blocks_at(state)
            vectors.append(_solve(system, K, S, rhs, state))
            if kept is None:
                kept = _bookkeeping_kernel(system.m, system.r)(S, rhs, L, vectors[0], w)
    except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError) as err:
        return kept, vectors, err
    return kept, vectors, None


MAX_STEPS = 10**7  # the most RK4 steps of one integration, each a sample in memory


def integrate(system: LagrangianSystem, s0: PhaseState, t1: float, dt: float) -> Trajectory:
    """Fixed-step RK4 over [0, t1], re-solving the saddle at every stage.

    The returned trajectory has floor(t1/dt) + 1 samples when integration
    completes; each sample records the state, the stage-one solve (field,
    multipliers and residuals) and the energy with the solved field.  On a
    solver failure or a non-finite state the partial trajectory is returned
    with the failure time and kind recorded instead of raising.  More than
    :data:`MAX_STEPS` steps is a :class:`ValueError` before the run starts.

    Each stage, written out, calls the compiled assembly, which makes the
    stage shift, and the kernels directly; stage one's bookkeeping fills the
    columns.  These calls name no error: a step where one raises, or a saddle
    vector does not sum to a finite value, is run again by :func:`_checked_step`,
    which names it (its stage state's time is recorded) or returns bitwise
    the same vectors.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 < 0:
        raise ValueError("t1 must be nonnegative")
    if not math.isfinite(t1 / dt):
        raise ValueError(f"t1/dt must be a finite step count, got t1={t1:g}, dt={dt:g}")
    n_steps = int(math.floor(t1 / dt + 1e-9))
    if n_steps > MAX_STEPS:
        raise ValueError(f"t1/dt = {n_steps:.10g} steps is above the bound of {MAX_STEPS}")
    m, half, sixth = system.m, dt / 2, dt / 6.0
    assemble, check, solve = system._assemble._call, system._check_kahler, system._solve_saddle
    bookkeep, isfinite = _bookkeeping_kernel(m, system.r), cmath.isfinite
    times, zs, ws, vectors, books, energies = columns = [], [], [], [], [], []
    t, zw = s0.t, [*s0.z, *s0.w]
    for step in range(n_steps + 1):
        if not all(map(isfinite, zw)):
            return Trajectory(*columns, dt, "non_finite", t, "NonFiniteState")
        z, w, last, err = tuple(zw[:m]), tuple(zw[m:]), step == n_steps, None
        try:
            K, S, rhs, L = assemble(z, w)
            if check is not None:
                check(K)
            k1 = solve(S, rhs)
            kept = bookkeep(S, rhs, L, k1, w)
            k2 = k3 = k4 = ()  # the last step has stage one only
            if not last:
                K, S, rhs, _ = assemble(z, w, half, k1)
                if check is not None:
                    check(K)
                k2 = solve(S, rhs)
                K, S, rhs, _ = assemble(z, w, half, k2)
                if check is not None:
                    check(K)
                k3 = solve(S, rhs)
                K, S, rhs, _ = assemble(z, w, dt, k3)
                if check is not None:
                    check(K)
                k4 = solve(S, rhs)
            # A vector with an infinite or NaN entry has no finite sum.
            checked = not isfinite(sum(k1) + sum(k2) + sum(k3) + sum(k4))
        except Exception:  # the checked path raises it again, or names it
            checked = True
        if checked:
            kept, ks, err = _checked_step(system, PhaseState(t, z, w), dt, last)
            k1, k2, k3, k4 = ks + [()] * (4 - len(ks))  # fewer on a last or failed step
        if kept is not None:  # stage one was solved
            times.append(t)
            zs.append(z)
            ws.append(w)
            vectors.append(k1)
            books.append(kept[0])
            energies.append(kept[1])
        if err is not None:
            return Trajectory(*columns, dt, "solver_failure", err.state.t, type(err).__name__)
        if last:
            break
        zw = [x + sixth * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(zw, k1, k2, k3, k4)]
        # Sample times are s0.t + step*dt, not a running sum of dt.
        t = s0.t + (step + 1) * dt
    return Trajectory(*columns, dt, "completed")


def diagnostics(trajectory: Trajectory) -> DiagnosticsReport:
    """Drift and residual summary over a trajectory's columns."""
    energies, books = trajectory.energies, trajectory.bookkeeping
    try:
        drifts = [abs(e - energies[0]) for e in energies]
    except OverflowError:  # past the float range, or NaN after an overflow left errno set
        drifts = [math.hypot((e - energies[0]).real, (e - energies[0]).imag) for e in energies]
    # max_constraint_residual, max_symplectic_residual, max_semispray_defect
    maxima = [float(max(book[k] for book in books)) if books else 0.0 for k in (1, 0, 2)]
    return DiagnosticsReport(trajectory.status, len(drifts), float(max(drifts, default=0.0)),
                             float(sum(drifts) / len(drifts)) if drifts else 0.0, *maxima,
                             trajectory.failure_time, trajectory.failure_kind)
