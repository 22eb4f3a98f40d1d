"""Loop reference for the generated bookkeeping in ``kahlermech.dynamics``.

``LagrangianSystem._solution_from`` as it ran before its arithmetic was
generated per saddle shape: dot products as loops from 0j, maxima over
generators and E_L as a loop.  The generated kernel must return the same
:class:`SemispraySolution`, compared by ``repr``, so signs of zeros,
infinities and NaN count.
"""

from kahlermech.dynamics import SemispraySolution
from kahlermech.exterior import VectorField


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


def reference_solution_from(m: int, w, S, rhs, L, vec) -> SemispraySolution:
    """The solution of saddle vector ``vec`` for rows ``S``, right-hand side
    ``rhs``, Lagrangian value ``L`` and state velocities ``w``."""
    n = 2 * m
    hol, fib = tuple(vec[:m]), tuple(vec[m:n])
    per_form = tuple(abs(_dot(row, vec[:n])) for row in S[n:])
    return SemispraySolution(
        VectorField(hol, fib),
        tuple(vec[n:]),
        max(abs(_dot(S[i], vec) - rhs[i]) for i in range(n)),
        max(per_form, default=0.0),
        max(abs(x - v) for x, v in zip(hol, w)),
        per_form,
        _energy(rhs, L, hol, fib),
    )
