"""Command line front end.

Four commands over system description files:

* ``simulate``  integrate and write a trajectory table plus a JSON summary;
* ``classify``  closedness and holonomy verdicts for the constraint set;
* ``check``     the invariant suite with one line per check;
* ``derive``    print the assembled two-form, energy differential and
  residual expressions at the initial state.

Exit codes: 0 on success, 1 for input errors (bad flags, files or paths),
2 for runtime failures (solver errors, failed checks).  Outputs contain no
timestamps or environment data, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ._numpy import np
from .dynamics import (
    InconsistentConstraints,
    NonHolomorphicLagrangian,
    PhaseState,
    SingularKahlerMatrix,
    Trajectory,
    diagnostics,
    energy_differential,
    integrate,
    solve_semispray,
)
from .expressions import EvalDomainError, ParseError
from .systemfile import (
    DEFAULT_DT,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    SystemFileError,
    SystemSpec,
    parse_system_file,
    read_number,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as input errors (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def finite(text: str) -> float:
    """argparse type of ``--t1``, ``--dt`` and ``--tol``: an infinite or
    NaN value would make the step count or a threshold meaningless."""
    value = read_number(text, float)  # argparse: "invalid finite value"
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


@functools.wraps(finite)  # so argparse still words a bad number "invalid finite value"
def _tolerance(text: str) -> float:
    if (value := finite(text)) < 0:  # every check would fail, and classify misjudge
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def count(text: str) -> int:
    """argparse type of ``--samples`` and ``--seed``: a nonnegative integer."""
    value = read_number(text, int)  # argparse: "invalid count value"
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _defaults_block() -> dict:
    return {
        "dt": DEFAULT_DT,
        "samples": DEFAULT_SAMPLES,
        "tol": DEFAULT_TOL,
        "seed": DEFAULT_SEED,
    }


def _complex_json(value: complex) -> List[float]:
    return [float(value.real), float(value.imag)]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _csv_header(m: int, r: int) -> List[str]:
    """The CSV columns, in the order of :func:`_trajectory_rows`."""
    parts = [f"{kind}{i}" for kind in "zw" for i in range(1, m + 1)]
    parts += [f"lambda{a}" for a in range(1, r + 1)]
    return (["t", *(f"{x}_{part}" for x in parts for part in ("re", "im")),
             "E_re", "E_im", "residual_symplectic",
             *(f"omega{a}_residual" for a in range(1, r + 1)), "semispray_defect"])


def _trajectory_rows(trajectory: Trajectory) -> List[List[float]]:
    """The CSV rows; every value but t is a float already.  The multipliers
    follow the field in a saddle vector."""
    return [[float(t), *(x for c in (*z, *w, *vec[2 * len(z):]) for x in (c.real, c.imag)),
             energy.real, energy.imag, symplectic, *per_form, defect]
            for t, z, w, vec, (symplectic, _, defect, per_form), energy in zip(
                trajectory.times, trajectory.z, trajectory.w, trajectory.vectors,
                trajectory.bookkeeping, trajectory.energies)]


def _write_csv(path: Path, header: List[str], rows: List[List[float]]) -> None:
    lines = [f"# columns={len(header)}", ",".join(header)]
    for row in rows:
        lines.append(",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    spec = parse_system_file(args.system)
    t1 = spec.t1 if args.t1 is None else args.t1
    dt = spec.dt if args.dt is None else args.dt
    system = spec.build_system()
    trajectory = integrate(system, spec.initial_state(), t1, dt)
    report = diagnostics(trajectory)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = _csv_header(system.m, system.r)
    rows = _trajectory_rows(trajectory)
    if args.format == "csv":
        _write_csv(out / f"{spec.name}_trajectory.csv", header, rows)
    else:
        _write_json(
            out / f"{spec.name}_trajectory.json",
            {"columns": header, "rows": rows},
        )

    summary = {
        "defaults": _defaults_block(),
        "system": {
            "name": spec.name,
            "m": spec.m,
            "r": spec.r,
            "lagrangian": spec.lagrangian_text,
            "constraints": list(spec.constraint_names),
        },
        "integrator": {"t1": t1, "dt": dt},
        "status": trajectory.status,
        "failure_time": trajectory.failure_time,
        "failure_kind": trajectory.failure_kind,
        "samples": report.samples,
        "csv_columns": len(header),
        "max_energy_drift": report.max_energy_drift,
        "mean_energy_drift": report.mean_energy_drift,
        "max_constraint_residual": report.max_constraint_residual,
        "max_symplectic_residual": report.max_symplectic_residual,
        "max_semispray_defect": report.max_semispray_defect,
        "energy_initial": (
            _complex_json(trajectory.energies[0]) if trajectory.energies else None
        ),
    }
    _write_json(out / f"{spec.name}_summary.json", summary)

    if trajectory.status == "completed":
        print(f"{spec.name}: completed, {report.samples} samples,"
              f" max energy drift {report.max_energy_drift:.3e}")
        return EXIT_OK
    print(f"{spec.name}: {trajectory.status} ({trajectory.failure_kind})"
          f" at t={trajectory.failure_time:g}")
    return EXIT_RUNTIME


def _classification_json(spec: SystemSpec, closed, cls) -> dict:
    w = cls.witness
    witness = None if w is None else {
        "form": spec.constraint_names[w.form_index], "value": w.value,
        **{key: [_complex_json(c) for c in part] for key, part in (
            ("z", w.z), ("w", w.w), ("x_hol", w.x.hol), ("x_fib", w.x.fib),
            ("y_hol", w.y.hol), ("y_fib", w.y.fib))}}
    return {
        "defaults": _defaults_block(),
        "system": {"name": spec.name, "m": spec.m, "r": spec.r},
        "parameters": {"samples": cls.samples, "seed": cls.seed, "tol": cls.tol},
        "closedness": {
            name: bool(flag) for name, flag in zip(spec.constraint_names, closed)
        },
        "verdict": cls.verdict.value,
        "max_bracket": cls.max_bracket,
        "valid_samples": cls.valid_samples,
        "deficient_samples": cls.deficient_samples,
        "witness": witness,
    }


def cmd_classify(args) -> int:
    from .constraints import closedness_test, frobenius_test  # simulate never loads them

    spec = parse_system_file(args.system)
    try:
        cs = spec.constraint_set()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    seed = spec.seed if args.seed is None else args.seed
    tol = DEFAULT_TOL if args.tol is None else args.tol
    closed = closedness_test(cs, samples=samples, seed=seed, tol=tol)
    cls = frobenius_test(cs, samples=samples, seed=seed, tol=tol)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"{spec.name}_classification.json",
                _classification_json(spec, closed, cls))
    print(f"{spec.name}: {cls.verdict.value}"
          f" (max bracket {cls.max_bracket:.3e},"
          f" {cls.valid_samples} valid / {cls.deficient_samples} deficient samples)")
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import DEFAULT_CHECK_SAMPLES, run_check_suite  # simulate never loads them

    spec = parse_system_file(args.system)
    t1 = spec.t1 if args.t1 is None else args.t1
    dt = spec.dt if args.dt is None else args.dt
    samples = DEFAULT_CHECK_SAMPLES if args.samples is None else args.samples
    seed = spec.seed if args.seed is None else args.seed
    system = spec.build_system()
    results = run_check_suite(
        system,
        spec.initial_state(),
        t1,
        dt,
        samples=samples,
        seed=seed,
        overrides=spec.tolerances,
        tol_all=args.tol,
    )
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        extra = f"  [{res.note}]" if res.note else ""
        print(f"{status}  {res.name:<14} measured={res.measured:.6e}"
              f"  threshold={res.threshold:.6e}{extra}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / f"{spec.name}_check.json",
        {
            "defaults": _defaults_block(),
            "system": {"name": spec.name, "m": spec.m, "r": spec.r},
            "parameters": {"t1": t1, "dt": dt, "samples": samples, "seed": seed},
            "checks": [{name: getattr(r, name) for name in r.__match_args__} for r in results],
            "all_passed": all(r.passed for r in results),
        },
    )
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"failing checks: {', '.join(failing)}")
        return EXIT_RUNTIME
    return EXIT_OK


def _format_complex(value: complex) -> str:
    return f"{value.real:+.6e}{value.imag:+.6e}i"


def cmd_derive(args) -> int:
    spec = parse_system_file(args.system)
    system = spec.build_system()
    state = spec.initial_state()
    m, r = system.m, system.r

    print(f"system {spec.name}: m={m}, r={r}")
    print(f"L = {spec.lagrangian_text}")
    print()
    try:
        print("two-form coefficient matrix at the initial state"
              " (rows/columns ordered dz1..dzm, dw1..dwm):")
        for row in system._blocks_at(state)[0]:
            print("  [" + ", ".join(map(_format_complex, row)) + "]")
        print()
        sol = solve_semispray(system, state)
    except (SingularKahlerMatrix, InconsistentConstraints, EvalDomainError) as err:
        print(f"solve failed at the initial state: {err}")
        return EXIT_RUNTIME

    print("solved field components:")
    for i, v in enumerate(sol.xi.hol, start=1):
        print(f"  xi{i}    = {_format_complex(v)}")
    for i, v in enumerate(sol.xi.fib, start=1):
        print(f"  xibar{i} = {_format_complex(v)}")
    for a, lam in enumerate(sol.multipliers, start=1):
        print(f"  lambda{a} = {_format_complex(lam)}")
    print()

    dE = energy_differential(system, state, sol.xi)
    print("energy differential coefficients (dz then dw):")
    for i, c in enumerate(dE.a, start=1):
        print(f"  dz{i}: {_format_complex(complex(c))}")
    for i, c in enumerate(dE.b, start=1):
        print(f"  dw{i}: {_format_complex(complex(c))}")
    print()

    print("residual expressions (time derivative expanded along the field):")
    # z rows: L_z - i (A xi + H xibar); w rows: L_w + i (H^T xi + B xibar).
    H_T = [list(column) for column in zip(*system._H)]
    for offset, (kind, sign, first, hol, fib) in enumerate(
            (("z", "-", system._Lz, system._A, system._H), ("w", "+", system._Lw, H_T, system._B))):
        for j in range(m):
            dt_terms = " + ".join(f"({hol[j][i]})*xi{i + 1} + ({fib[j][i]})*xibar{i + 1}"
                                  for i in range(m))
            lam_terms = "".join(f" - ({system.constraints[a].coefficients[offset * m + j]})"
                                f"*lambda{a + 1}" for a in range(r))
            print(f"  {kind}{j + 1}: ({first[j]}) {sign} i*({dt_terms}){lam_terms}")
    print()
    print("pointwise residuals: "
          f"symplectic {sol.residual_symplectic:.3e}, "
          f"constraints {sol.residual_constraints:.3e}, "
          f"semispray defect {sol.semispray_defect:.3e}")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> _ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="kahlermech",
        description="Constrained Lagrangian mechanics on flat complex phase charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=False, with_integrator=False, with_sampling=False):
        p.add_argument("--system", required=True, help="path to a system file")
        p.add_argument("--out", default=".", help="output directory")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="trajectory output format")
        if with_integrator:
            p.add_argument("--t1", type=finite, default=None, help="final time override")
            p.add_argument("--dt", type=finite, default=None, help="step size override")
        if with_sampling:
            p.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")
            p.add_argument("--samples", type=count, default=None, help="sample count")
            p.add_argument("--seed", type=count, default=None, help="sampling seed")

    p = sub.add_parser("simulate", help="integrate a system and write outputs")
    common(p, with_format=True, with_integrator=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="closedness and holonomy verdicts")
    common(p, with_sampling=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="run the invariant suite")
    common(p, with_integrator=True, with_sampling=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="print assembled objects at the initial state")
    common(p)
    p.set_defaults(func=cmd_derive)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # runtime failures keep the 0/1/2 contract
        if _is_input_error(err):
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def _is_input_error(err: Exception) -> bool:
    """An OSError is bad input when it names a path (a full disk does not).
    numpy's LinAlgError is a ValueError but never bad input; numpy is not
    loaded to test for it."""
    if isinstance(err, OSError):
        return err.filename is not None
    if "numpy" in sys.modules and isinstance(err, np.linalg.LinAlgError):
        return False
    return isinstance(err, (SystemFileError, ParseError, NonHolomorphicLagrangian, ValueError))


if __name__ == "__main__":
    sys.exit(main())
