"""Benchmark of the kahlermech command line, one workload per process.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
and driven in-process through ``kahlermech.cli.main`` on ``.system`` files
that ``inputs.py`` generates from the seed.  A run times set-up, warms up
with one untimed round, then repeats whole rounds (every generated file
once) until ``--seconds`` have passed.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Any failed correctness gate
makes the exit code 2.
"""

from __future__ import annotations

import os

# One BLAS thread for this process; must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import gates
import inputs
import tracing
from calibrate import CAL_REF_S, calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# A command is calibrated by the mean of the CAL_WINDOW kernel runs on
# each side of it: host speed drifts over seconds, but a single 55 ms
# kernel run is itself noisy.
CAL_WINDOW = 4

# The workload's unit of work and the name its throughput is reported under.
THROUGHPUT = {
    "trajectory": "steps_per_s",
    "state_sweep": "states_per_s",
    "classify_sweep": "samples_per_s",
}


class Round:
    """Timing and gate outcome of one pass over a workload's commands."""

    def __init__(self):
        self.raw: List[float] = []  # wall seconds per command
        # Kernel seconds: one run before the first command and one after each.
        self.kernel: List[float] = []
        self.work = 0
        self.failed_ops = 0  # commands with at least one gate problem
        self.failures: List[str] = []  # the problems, for the report
        self.output_bytes = 0


def run_round(cli, ops: List[inputs.Op], out_dir: Path) -> Round:
    result = Round()
    result.kernel.append(calibration_s())
    for op in ops:
        argv = op.argv(out_dir)
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
        result.raw.append(time.perf_counter() - start)
        result.kernel.append(calibration_s())
        result.work += op.work
        problems = gates.check(op, code, out_dir)
        result.failed_ops += bool(problems)
        result.failures += problems
        result.output_bytes += sum(p.stat().st_size for p in out_dir.glob(f"{op.name}_*"))
    return result


def calibrated(rounds: List[Round]) -> List[List[float]]:
    """Per round, each command's wall time over the mean kernel time in a
    window around it, times CAL_REF_S.  The rounds ran back to back, so
    the window reaches into the neighbouring rounds."""
    kernels = [k for r in rounds for k in r.kernel]
    out = []
    base = 0  # index of the round's first kernel run in ``kernels``
    for r in rounds:
        row = []
        for i, seconds in enumerate(r.raw):
            after = base + i + 1  # the kernel run right after command i
            window = kernels[max(0, after - CAL_WINDOW):after + CAL_WINDOW]
            row.append(seconds / statistics.fmean(window) * CAL_REF_S)
        out.append(row)
        base += len(r.kernel)
    return out


def interquartile_mean(values: List[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def round_seconds(rounds: List[Round]) -> float:
    """Calibrated time of one round: the sum over commands of each
    command's interquartile mean over rounds."""
    return sum(interquartile_mean(list(column)) for column in zip(*calibrated(rounds)))


# Import time in a fresh interpreter, calibrated by a kernel run there
# right after the import.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import kahlermech.cli;"
    " seconds = time.perf_counter() - start;"
    " from calibrate import CAL_REF_S, calibration_s;"
    " print(seconds / calibration_s() * CAL_REF_S)"
)


def time_setup(ops: List[inputs.Op]) -> List[float]:
    """Calibrated set-up passes: import in a fresh interpreter, then parse
    every file and build what its command builds."""
    from kahlermech.systemfile import parse_system_file

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        before = calibration_s()
        start = time.perf_counter()
        for op in ops:
            spec = parse_system_file(op.path)
            if op.command == "classify":
                spec.constraint_set()
            else:
                spec.build_system()
        seconds = time.perf_counter() - start
        cal = (before + calibration_s()) / 2
        times.append(float(probe.stdout) + seconds / cal * CAL_REF_S)
    return times


def rounds_for(seconds: float, step) -> List[Round]:
    """Whole rounds until ``seconds`` have passed, and at least three."""
    done = []
    start = time.perf_counter()
    while len(done) < 3 or time.perf_counter() - start < seconds:
        done.append(step())
    return done


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, traced: bool, work_dir: Path,
            generate=None) -> Tuple[dict, List[str], List[str]]:
    """Run one workload; return (result object, report lines, gate failures)."""
    import numpy
    from kahlermech import cli

    generate = generate or inputs.WORKLOADS[workload]
    ops = generate(seed, work_dir)
    out_dir = work_dir / "out"
    setup_s = statistics.median(time_setup(ops))

    warm = run_round(cli, ops, out_dir)
    traced_rounds: List[Round] = []
    profile = tracing.Profile()
    absent: List[str] = []
    if not traced:
        rounds = rounds_for(seconds, lambda: run_round(cli, ops, out_dir))
    else:
        # A third of the time untraced, for the overhead baseline.
        rounds = rounds_for(seconds / 3, lambda: run_round(cli, ops, out_dir))
        tracer = tracing.Tracer()

        def traced_round() -> Round:
            with tracing.installed(tracer) as missing:
                result = run_round(cli, ops, out_dir)
            absent[:] = missing
            profile.add_round(*tracer.take())
            return result

        traced_rounds = rounds_for(seconds * 2 / 3, traced_round)

    everything = [warm] + rounds + traced_rounds
    failures = [f for r in everything for f in r.failures]
    attempted = sum(len(r.raw) for r in everything)
    failed = sum(r.failed_ops for r in everything)
    wall_s = round_seconds(rounds)
    work_rate = rounds[0].work / wall_s
    raw_wall_s = statistics.median(sum(r.raw) for r in rounds)
    report = [
        f"workload {workload} seed {seed}: {len(ops)} commands per round,"
        f" {len(rounds)} timed rounds, {len(traced_rounds)} traced rounds",
        f"machine: {os.cpu_count()} cpus, Python {platform.python_version()},"
        f" numpy {numpy.__version__}",
        f"wall_s {wall_s:.6f} s (calibrated; uncalibrated median round {raw_wall_s:.6f} s)",
        f"setup_s {setup_s:.6f} s (calibrated median of {SETUP_REPEATS} passes)",
        f"{THROUGHPUT[workload]} {work_rate:.3f} 1/s",
        f"failed_share {failed / attempted:.6f} ({failed} of {attempted} commands)",
        f"peak_rss_mb {peak_rss_mb():.3f} MB",
    ]
    if traced:
        command_seconds = sum(sum(r.raw) for r in traced_rounds)
        overhead_s = round_seconds(traced_rounds) - wall_s
        simulate_ops = sum(op.command == "simulate" for op in ops)
        layers = tracing.layer_metrics(
            profile, command_seconds, simulate_ops,
            traced_rounds[-1].output_bytes / len(ops), overhead_s, absent,
        )
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        report.append(f"absent boundaries: {', '.join(absent) if absent else 'none'}")
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": work_rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kahlermech" / "__init__.py").is_file():
        print(f"error: no kahlermech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, report, failures = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for line in failures:
        print(f"gate failed: {line}", file=sys.stderr)
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
