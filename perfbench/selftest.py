"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every end-to-end metric named in BENCHMARK.json comes out of
an untraced run with its unit, that every per-layer metric comes out of a
traced run, and that each correctness gate trips on a wrong expected
verdict or reference, making the benchmark exit nonzero.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import unittest
from functools import partial

import run  # sets the BLAS thread variables before numpy loads

import gates
import inputs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORK = run.WORK / f"selftest-{os.getpid()}"

TINY = {
    "trajectory": partial(inputs.trajectory, t1=2.0**-4),
    "state_sweep": partial(inputs.state_sweep, samples=3, t1=2.0**-8),
    "classify_sweep": partial(inputs.classify_sweep, samples=4),
}


def tiny_run(workload: str, traced: bool, generate=None):
    work_dir = WORK / f"{workload}-{int(traced)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    return run.measure(workload, 7, 0.0, traced, work_dir, generate or TINY[workload])


class Metrics(unittest.TestCase):
    def test_end_to_end_metrics_have_names_and_units(self):
        wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in TINY:
            with self.subTest(workload=workload):
                result, report, failures = tiny_run(workload, traced=False)
                self.assertEqual(failures, [])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, wanted)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                text = "\n".join(report)
                for name in ("wall_s", "setup_s", run.THROUGHPUT[workload],
                             "failed_share", "peak_rss_mb"):
                    self.assertIn(f"\n{name} ", "\n" + text)

    def test_per_layer_metrics_come_out_of_a_traced_run(self):
        wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        layers = {}
        for workload in TINY:
            result, report, failures = tiny_run(workload, traced=True)
            self.assertEqual(failures, [])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, wanted, workload)
            layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            self.assertEqual(layers[workload]["trace.absent_boundaries"], 0)
        trajectory = layers["trajectory"]
        self.assertEqual(trajectory["linalg.factor_per_solve"], 2.0)
        self.assertGreaterEqual(trajectory["trace.coverage"], 0.9)
        self.assertGreater(trajectory["dynamics.solve_us.n6.count"], 0)
        sweep = layers["state_sweep"]
        self.assertGreater(sweep["real_oracle.solve_us"], 0)
        self.assertGreater(sweep["checks.closure_terms_ms"], 0)
        classify = layers["classify_sweep"]
        self.assertEqual(classify["dynamics.solve_calls"], 0)
        self.assertEqual(classify["linalg.lu_factor_calls"], 0)
        self.assertGreater(classify["exterior.as_matrix_calls"], 0)


def _run_ops(ops, out_dir):
    from kahlermech import cli

    return run.run_round(cli, ops, out_dir)


class Gates(unittest.TestCase):
    def setUp(self):
        self.work = WORK / "gates"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"

    def tripped(self, ops):
        return _run_ops(ops, self.out).failures

    def test_trajectory_gates(self):
        ops = TINY["trajectory"](3, self.work)
        self.assertEqual(self.tripped(ops), [])
        bilinear = next(op for op in ops if "exact_final" in op.expect)
        z_ref, w_ref = bilinear.expect["exact_final"]
        bilinear.expect["exact_final"] = ([z_ref[0] * 1.000001], w_ref)
        bilinear.expect["samples"] += 1
        result = _run_ops(ops, self.out)
        self.assertTrue(any("exact flow" in f for f in result.failures), result.failures)
        self.assertTrue(any("samples, expected" in f for f in result.failures), result.failures)
        # Two problems on one command count as one failed command.
        self.assertEqual(result.failed_ops, 1)

    def test_state_sweep_gate(self):
        ops = TINY["state_sweep"](3, self.work)[:2]
        self.assertEqual(self.tripped(ops), [])
        ops[0].args += ["--tol", "1e-300"]  # no check can meet this reference
        self.assertEqual(len(self.tripped(ops)), 1)
        del ops[0].args[-2:]
        ops[1].expect["states"] += 1  # a state the suite did not solve
        failures = self.tripped(ops)
        self.assertEqual(len(failures), 1)
        self.assertIn("solve note", failures[0])

    def test_classify_gate(self):
        ops = TINY["classify_sweep"](3, self.work)[:3]
        self.assertEqual(self.tripped(ops), [])
        for op, wrong in zip(ops, ("anholonomic", "closed", "locally_holonomic")):
            op.expect["verdict"] = wrong
        self.assertEqual(len(self.tripped(ops)), 3)
        for op in ops:
            op.expect["verdict"] = op.name.split("_m")[0][len("cls_"):]
        ops[1].expect["samples"] += 1  # a sample that was not valid
        failures = self.tripped(ops)
        self.assertEqual(len(failures), 1)
        self.assertIn("valid and 0 deficient", failures[0])

    def test_gate_failure_exits_nonzero(self):
        def wrong_verdicts(seed, work_dir):
            ops = TINY["classify_sweep"](seed, work_dir)
            ops[0].expect["verdict"] = "anholonomic"
            return ops

        saved = inputs.WORKLOADS["classify_sweep"]
        inputs.WORKLOADS["classify_sweep"] = wrong_verdicts
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "classify_sweep", "--seed", "1", "--seconds", "0"])
        finally:
            inputs.WORKLOADS["classify_sweep"] = saved
        self.assertNotEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("gate failed", err.getvalue())


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    try:
        outcome = unittest.main(exit=False, verbosity=2).result
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    return 0 if outcome.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
