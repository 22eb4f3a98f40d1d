"""Correctness gates: each command's outputs against what its input implies.

``check(op, exit_code, out_dir)`` returns a list of problems; an empty
list means the command passed.  The gate reads the files the CLI wrote,
so it checks the program's outputs, not its in-memory state.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from inputs import Op

MAX_ENERGY_DRIFT = 1e-6
MAX_CONSTRAINT_RESIDUAL = 1e-8
# RK4 at dt = 2^-10 over t <= 1 on the bilinear flow errs by ~1e-14.
EXACT_FLOW_TOL = 1e-9


def check(op: Op, exit_code: int, out_dir: Path) -> List[str]:
    if exit_code != 0:
        return [f"{op.name}: exit code {exit_code}"]
    gate = {"simulate": _simulate, "check": _check, "classify": _classify}[op.command]
    try:
        return gate(op, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"{op.name}: unreadable output ({type(err).__name__}: {err})"]


def _simulate(op: Op, out_dir: Path) -> List[str]:
    summary = json.loads((out_dir / f"{op.name}_summary.json").read_text())
    problems = []
    if summary["status"] != "completed":
        problems.append(f"status {summary['status']}")
    if summary["samples"] != op.expect["samples"]:
        problems.append(f"{summary['samples']} samples, expected {op.expect['samples']}")
    if not summary["max_energy_drift"] <= MAX_ENERGY_DRIFT:
        problems.append(f"energy drift {summary['max_energy_drift']:.3e}")
    if not summary["max_constraint_residual"] <= MAX_CONSTRAINT_RESIDUAL:
        problems.append(f"constraint residual {summary['max_constraint_residual']:.3e}")
    if "exact_final" in op.expect:
        problems += _exact_final(op, out_dir)
    return [f"{op.name}: {p}" for p in problems]


def _exact_final(op: Op, out_dir: Path) -> List[str]:
    lines = (out_dir / f"{op.name}_trajectory.csv").read_text().splitlines()
    header = lines[1].split(",")
    last = dict(zip(header, (float(v) for v in lines[-1].split(","))))
    z_ref, w_ref = op.expect["exact_final"]
    worst = 0.0
    for kind, ref in (("z", z_ref), ("w", w_ref)):
        for i, value in enumerate(ref, start=1):
            got = complex(last[f"{kind}{i}_re"], last[f"{kind}{i}_im"])
            worst = max(worst, abs(got - value))
    if not worst <= EXACT_FLOW_TOL:
        return [f"final state off the exact flow by {worst:.3e} at t={last['t']!r}"]
    return []


def _check(op: Op, out_dir: Path) -> List[str]:
    payload = json.loads((out_dir / f"{op.name}_check.json").read_text())
    checks = {c["name"]: c for c in payload["checks"]}
    problems = []
    failing = [name for name, c in checks.items() if not c["passed"]]
    if failing or not checks:
        problems.append(f"failing checks {failing}")
    # The suite passes 'solve' once a single state solves and skips the
    # states that raise; every sampled state must solve here.
    solved = f"{op.expect['states']} states solved, 0 skipped"
    note = checks.get("solve", {}).get("note")
    if note != solved:
        problems.append(f"solve note {note!r}, expected {solved!r}")
    return [f"{op.name}: {p}" for p in problems]


def _classify(op: Op, out_dir: Path) -> List[str]:
    payload = json.loads((out_dir / f"{op.name}_classification.json").read_text())
    problems = []
    if payload["verdict"] != op.expect["verdict"]:
        problems.append(f"verdict {payload['verdict']}, constructed {op.expect['verdict']}")
    # The constructed sets are independent at every sample (see inputs.py).
    if payload["valid_samples"] != op.expect["samples"] or payload["deficient_samples"] != 0:
        problems.append(
            f"{payload['valid_samples']} valid and {payload['deficient_samples']} deficient"
            f" samples, expected {op.expect['samples']} and 0"
        )
    return [f"{op.name}: {p}" for p in problems]
