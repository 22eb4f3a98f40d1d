"""Span tracing around the program's layer boundaries, from outside.

The tracer replaces each boundary function with a wrapper in the namespace
where its callers look it up (a module global or a class attribute), and
puts the original back afterwards.  Spans are kept in memory as
``[name, start, end, parent, tag]``; self time is a span's duration minus
the time its child spans cover.  A boundary that does not exist at the
commit under test is listed as absent and its metrics read zero.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

# (module, attribute path in that module, span name).  The same function
# is wrapped once per namespace that callers resolve it through.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("kahlermech.linalg", "lu_factor", "linalg.lu_factor"),
    ("kahlermech.linalg", "lu_solve", "linalg.lu_solve"),
    ("kahlermech.dynamics", "solve_semispray", "dynamics.solve"),
    ("kahlermech.checks", "solve_semispray", "dynamics.solve"),
    ("kahlermech.dynamics", "energy", "dynamics.energy"),
    ("kahlermech.dynamics", "LagrangianSystem._blocks_at", "dynamics.blocks"),
    ("kahlermech.dynamics", "LagrangianSystem.saddle_system", "dynamics.saddle"),
    ("kahlermech.dynamics", "LagrangianSystem._solution_from", "dynamics.solution"),
    ("kahlermech.dynamics", "LagrangianSystem.__init__", "dynamics.build"),
    ("kahlermech.cli", "integrate", "dynamics.integrate"),
    ("kahlermech.checks", "integrate", "dynamics.integrate"),
    ("kahlermech.checks", "realify_and_solve", "real_oracle.solve"),
    ("kahlermech.checks", "_closure_terms", "checks.closure_terms"),
    ("kahlermech.cli", "run_check_suite", "checks.suite"),
    ("kahlermech.checks", "evaluate", "expressions.evaluate"),
    ("kahlermech.constraints", "evaluate", "expressions.evaluate"),
    ("kahlermech.systemfile", "parse_expression", "expressions.parse"),
    ("kahlermech.exterior", "TwoForm.as_matrix", "exterior.as_matrix"),
    ("kahlermech.constraints", "exterior_derivative", "exterior.exterior_derivative"),
    ("kahlermech.cli", "frobenius_test", "constraints.frobenius"),
    ("kahlermech.cli", "closedness_test", "constraints.closedness"),
    ("kahlermech.cli", "parse_system_file", "systemfile.parse"),
    ("kahlermech.cli", "_trajectory_rows", "cli.trajectory_rows"),
    ("kahlermech.cli", "_write_csv", "cli.write_csv"),
)

# Spans that belong to set-up (parse and build), excluded from coverage.
SETUP_SPANS = ("systemfile.parse", "dynamics.build")

# Saddle sizes 2m + r that the workloads produce.
SADDLE_SIZES = (2, 4, 6, 8, 10, 12)
FAILURE_KINDS = ("SingularKahlerMatrix", "InconsistentConstraints", "EvalDomainError", "NonFiniteState")


def _solve_tag(args) -> int:
    system = args[0]
    return 2 * system.m + system.r


def _integrate_result(tracer: "Tracer", trajectory) -> None:
    tracer.counts["integrate.steps"] += max(len(trajectory.samples) - 1, 0)
    if trajectory.status == "non_finite":
        tracer.counts["dynamics.solve.raised.NonFiniteState"] += 1


def _frobenius_result(tracer: "Tracer", classification) -> None:
    tracer.counts["frobenius.samples"] += classification.samples
    tracer.counts["frobenius.deficient"] += classification.deficient_samples


TAGS: Dict[str, Callable] = {"dynamics.solve": _solve_tag}
OBSERVERS: Dict[str, Callable] = {
    "dynamics.integrate": _integrate_result,
    "constraints.frobenius": _frobenius_result,
}


class Tracer:
    """In-memory spans and counts for one traced round at a time."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        tag = TAGS.get(name)
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tag(args) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                counts[f"{name}.raised.{type(err).__name__}"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> Tuple[List[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


@contextmanager
def installed(tracer: Tracer) -> Iterator[List[str]]:
    """Wrap every boundary that exists; yield the list of absent ones."""
    restore = []
    absent = []
    for module_name, path, name in BOUNDARIES:
        try:
            owner = importlib.import_module(module_name)
            *parents, leaf = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{path}")
            continue
        own = leaf in vars(owner)
        setattr(owner, leaf, tracer.wrap(name, original))
        restore.append((owner, leaf, original, own))
    try:
        yield absent
    finally:
        for owner, leaf, original, own in reversed(restore):
            if own:
                setattr(owner, leaf, original)
            else:
                delattr(owner, leaf)


class Profile:
    """Per-layer totals accumulated over traced rounds."""

    def __init__(self):
        self.rounds = 0
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # seconds
        self.self_time: Counter = Counter()  # seconds
        self.counts: Counter = Counter()
        self.solve_us: Dict[int, List[float]] = defaultdict(list)
        self.covered = 0.0
        self.setup = 0.0

    def add_round(self, spans: List[list], counts: Counter) -> None:
        self.rounds += 1
        self.counts.update(counts)
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, parent, tag), inner in zip(spans, children):
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - inner
            if tag is not None:
                self.solve_us[tag].append(duration * 1e6)
            if parent < 0:
                self.covered += duration
                if name in SETUP_SPANS:
                    self.setup += duration

    def per_round(self, value: float) -> float:
        return value / self.rounds if self.rounds else 0.0

    def mean(self, name: str, scale: float, self_time: bool = False) -> float:
        calls = self.calls[name]
        source = self.self_time if self_time else self.total
        return source[name] / calls * scale if calls else 0.0

    def coverage(self, command_seconds: float) -> float:
        """Share of command wall time outside set-up that spans cover."""
        outside = command_seconds - self.setup
        return (self.covered - self.setup) / outside if outside > 0 else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def layer_metrics(profile: Profile, command_seconds: float, simulate_commands: int,
                  output_bytes: float, overhead_s: float, absent: List[str]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    p = profile
    solves = p.calls["dynamics.solve"]
    factors = p.calls["linalg.lu_factor"]
    steps = p.counts["integrate.steps"]
    out: Dict[str, Tuple[float, str]] = {
        "dynamics.solve_calls": (p.per_round(solves), "count"),
    }
    for n in SADDLE_SIZES:
        values = p.solve_us.get(n, [])
        out[f"dynamics.solve_us.n{n}.p50"] = (percentile(values, 0.50), "us")
        out[f"dynamics.solve_us.n{n}.p99"] = (percentile(values, 0.99), "us")
        out[f"dynamics.solve_us.n{n}.count"] = (p.per_round(len(values)), "count")
    out.update({
        "dynamics.blocks_us": (p.mean("dynamics.blocks", 1e6), "us"),
        "dynamics.saddle_self_us": (p.mean("dynamics.saddle", 1e6, self_time=True), "us"),
        "dynamics.solution_us": (p.mean("dynamics.solution", 1e6), "us"),
        "dynamics.energy_us": (p.mean("dynamics.energy", 1e6), "us"),
        "dynamics.integrate_self_us_per_step": (
            p.self_time["dynamics.integrate"] / steps * 1e6 if steps else 0.0, "us"),
        "dynamics.build_ms": (p.mean("dynamics.build", 1e3), "ms"),
    })
    for kind in FAILURE_KINDS:
        out[f"dynamics.failures.{kind}"] = (p.per_round(p.counts[f"dynamics.solve.raised.{kind}"]), "count")
    out.update({
        "linalg.lu_factor_us": (p.mean("linalg.lu_factor", 1e6), "us"),
        "linalg.lu_factor_calls": (p.per_round(factors), "count"),
        "linalg.factor_per_solve": (factors / solves if solves else 0.0, "ratio"),
        "linalg.lu_solve_us": (p.mean("linalg.lu_solve", 1e6), "us"),
        "real_oracle.solve_us": (p.mean("real_oracle.solve", 1e6), "us"),
        "checks.closure_terms_ms": (p.mean("checks.closure_terms", 1e3), "ms"),
        "checks.suite_s": (p.mean("checks.suite", 1.0), "s"),
        "expressions.evaluate_calls": (p.per_round(p.calls["expressions.evaluate"]), "count"),
        "expressions.evaluate_us": (p.mean("expressions.evaluate", 1e6), "us"),
        "expressions.parse_ms": (
            p.total["expressions.parse"] / p.calls["systemfile.parse"] * 1e3
            if p.calls["systemfile.parse"] else 0.0, "ms"),
        "exterior.as_matrix_calls": (p.per_round(p.calls["exterior.as_matrix"]), "count"),
        "exterior.as_matrix_us": (p.mean("exterior.as_matrix", 1e6), "us"),
        "exterior.exterior_derivative_ms": (p.mean("exterior.exterior_derivative", 1e3), "ms"),
        "constraints.frobenius_ms": (p.mean("constraints.frobenius", 1e3), "ms"),
        "constraints.closedness_ms": (p.mean("constraints.closedness", 1e3), "ms"),
        "constraints.deficient_share": (
            p.counts["frobenius.deficient"] / p.counts["frobenius.samples"]
            if p.counts["frobenius.samples"] else 0.0, "ratio"),
        "systemfile.parse_ms": (p.mean("systemfile.parse", 1e3), "ms"),
        "cli.output_ms": (
            (p.total["cli.trajectory_rows"] + p.total["cli.write_csv"])
            / (simulate_commands * p.rounds) * 1e3 if simulate_commands and p.rounds else 0.0, "ms"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.coverage": (p.coverage(command_seconds), "ratio"),
        "trace.absent_boundaries": (float(len(absent)), "count"),
    })
    return out
