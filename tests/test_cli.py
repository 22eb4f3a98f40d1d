"""Command line interface: subcommands, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kahlermech import cli, constraints, dynamics
from kahlermech.cli import main
from kahlermech.expressions import MAX_DEPTH
import desksuite
from integrate_reference import record, reference_integrate

BILINEAR = str(desksuite.BY_NAME["bilinear_pair"].system_file())
EXCHANGE = str(desksuite.BY_NAME["exchange_constrained"].system_file())
DEGENERATE = str(desksuite.BY_NAME["degenerate_quadratic"].system_file())
SHIFTED = str(desksuite.BY_NAME["shifted_pair"].system_file())


def _simulate(out, extra=()):
    return main(
        ["simulate", "--system", BILINEAR, "--out", str(out), "--t1", "1", "--dt", "0.01"]
        + list(extra)
    )


# ------------------------------------------------------------------ simulate


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    code = _simulate(tmp_path, ["--format", "csv"])
    assert code == 0
    assert "completed" in capsys.readouterr().out
    csv_path = tmp_path / "bilinear_pair_trajectory.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# columns=9"
    header = lines[1].split(",")
    assert header == [
        "t",
        "z1_re",
        "z1_im",
        "w1_re",
        "w1_im",
        "E_re",
        "E_im",
        "residual_symplectic",
        "semispray_defect",
    ]
    rows = lines[2:]
    assert len(rows) == 101
    assert all(len(r.split(",")) == 9 for r in rows)
    first = [float(v) for v in rows[0].split(",")]
    assert first[0] == 0.0
    assert first[1] == 0.8 and first[2] == 0.3

    summary = json.loads((tmp_path / "bilinear_pair_summary.json").read_text())
    assert summary["status"] == "completed"
    assert summary["samples"] == 101
    assert summary["csv_columns"] == 9
    assert summary["max_energy_drift"] < 1e-9
    assert summary["defaults"] == {"dt": 1e-3, "samples": 50, "tol": 1e-8, "seed": 0}
    assert summary["system"]["lagrangian"] == "z1*w1"
    assert summary["integrator"] == {"t1": 1.0, "dt": 0.01}


def test_simulate_json_format(tmp_path):
    code = _simulate(tmp_path, ["--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "bilinear_pair_trajectory.json").read_text())
    assert payload["columns"][0] == "t"
    assert len(payload["rows"]) == 101
    assert len(payload["rows"][0]) == 9


def test_simulate_constrained_columns(tmp_path):
    code = main(
        [
            "simulate",
            "--system",
            EXCHANGE,
            "--out",
            str(tmp_path),
            "--t1",
            "0.5",
            "--dt",
            "0.01",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = (tmp_path / "exchange_constrained_trajectory.csv").read_text().splitlines()
    # 1 + 4m + 2r + 2 + 1 + r + 1 with m = 2, r = 2.
    assert lines[0] == "# columns=19"
    header = lines[1].split(",")
    assert header[9] == "lambda1_re"
    assert header[-4] == "residual_symplectic"
    assert header[-3] == "omega1_residual"
    assert header[-2] == "omega2_residual"
    for line in lines[2:]:
        row = [float(v) for v in line.split(",")]
        assert abs(row[-3]) < 1e-8 and abs(row[-2]) < 1e-8


def test_simulate_reports_failure_with_exit_two(tmp_path, capsys):
    code = main(
        ["simulate", "--system", DEGENERATE, "--out", str(tmp_path), "--t1", "1"]
    )
    assert code == 2
    assert "solver_failure" in capsys.readouterr().out
    summary = json.loads((tmp_path / "degenerate_quadratic_summary.json").read_text())
    assert summary["status"] == "solver_failure"
    assert summary["failure_kind"] == "SingularKahlerMatrix"
    assert summary["failure_time"] == 0.0
    assert summary["samples"] == 0
    assert summary["energy_initial"] is None


def _overflow_file(tmp_path, coefficient):
    path = tmp_path / "overflow.system"
    path.write_text(
        "[system]\nm = 1\nname = overflow\n\n"
        "[lagrangian]\nL = z1*w1 + w1^2\n\n"
        f"[constraints]\nbig = {coefficient} ; 1\n\n"
        "[initial]\nz1 = 0.9+0.2i\nw1 = 0.3-0.4i\n"
    )
    return path


HUGE = "1.7e308*(1 + i)"  # finite, but its magnitude is beyond the float range


@pytest.mark.parametrize("coefficient", ["1e200*1e200*z1", "(1e999 - 1e999)*z1", HUGE])
def test_simulate_reports_non_finite_assembly_as_a_domain_error(tmp_path, coefficient):
    # The coefficient overflows to infinity, is infinity minus infinity, or
    # is finite with an overflowing magnitude.
    path = _overflow_file(tmp_path, coefficient)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--system", str(path), "--out", str(tmp_path), "--t1", "0.1"])
    assert code == 2
    summary = json.loads((tmp_path / "overflow_summary.json").read_text())
    assert summary["status"] == "solver_failure"
    assert summary["failure_kind"] == "EvalDomainError"
    assert summary["failure_time"] == 0.0


def test_an_overflowing_coefficient_is_named_not_the_lagrangian(tmp_path, capsys):
    path = _overflow_file(tmp_path, HUGE)
    assert main(["derive", "--system", str(path)]) == 2
    out = capsys.readouterr().out
    assert ("solve failed at the initial state:"
            " magnitude beyond the float range: 1.7e+308 * (1 + i)\n") in out
    assert main(["simulate", "--system", str(path), "--out", str(tmp_path), "--t1", "0.1"]) == 2
    assert "overflow: solver_failure (EvalDomainError) at t=0" in capsys.readouterr().out
    summary = json.loads((tmp_path / "overflow_summary.json").read_text())
    assert (summary["failure_kind"], summary["samples"]) == ("EvalDomainError", 0)


def test_simulate_rejects_a_step_count_beyond_the_float_range(tmp_path, capsys):
    code = main(["simulate", "--system", BILINEAR, "--out", str(tmp_path),
                 "--t1", "1e300", "--dt", "1e-10"])
    assert code == 1
    assert "error: t1/dt must be a finite step count" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_a_step_count_above_the_bound_is_an_input_error(tmp_path, capsys, command):
    # t1/dt = 1e300 is finite: both commands ran until they were killed.
    code = main([command, "--system", BILINEAR, "--out", str(tmp_path),
                 "--t1", "1", "--dt", "1e-300"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: t1/dt = 1e+300 steps is above the bound of 10000000\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, extra", [("check", ["--t1", "0.05"]), ("classify", [])])
def test_a_sample_count_above_the_bound_is_an_input_error(tmp_path, capsys, monkeypatch,
                                                          command, extra):
    # Nothing bounded --samples: a large count ended in MemoryError (exit 2)
    # or the OOM killer.  The bound is patched small, so no large count runs.
    assert constraints.MAX_SAMPLES == 10**5
    monkeypatch.setattr(constraints, "MAX_SAMPLES", 3)
    argv = [command, "--system", EXCHANGE, *extra, "--samples"]
    assert main([*argv, "3", "--out", str(tmp_path / "at")]) == 0
    capsys.readouterr()
    assert main([*argv, "4", "--out", str(tmp_path / "above")]) == 1
    assert capsys.readouterr().err == "error: 4 samples is above the bound of 3\n"
    assert not (tmp_path / "above").exists()


def test_simulate_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert _simulate(out, ["--format", "csv"]) == 0
        assert _simulate(out, ["--format", "json"]) == 0
    for name in (
        "bilinear_pair_trajectory.csv",
        "bilinear_pair_trajectory.json",
        "bilinear_pair_summary.json",
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_builds_no_per_sample_objects(tmp_path, monkeypatch):
    # integrate records columns; Trajectory.samples builds the objects
    # only when it is read, and they are the reference loop's.
    built, runs = Counter(), []
    for kind in (dynamics.TrajectorySample, dynamics.SemispraySolution, dynamics.PhaseState):
        def counted(self, *args, _init=kind.__init__, _name=kind.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(kind, "__init__", counted)
    integrate = cli.integrate
    monkeypatch.setattr(cli, "integrate", lambda *args: runs.append((args, integrate(*args)))
                        or runs[-1][1])
    argv = ["simulate", "--system", EXCHANGE, "--out", str(tmp_path), "--t1", "0.2", "--dt", "0.01"]
    assert main(argv) == 0
    assert built == {"PhaseState": 1}  # the initial state
    monkeypatch.undo()
    [(args, trajectory)] = runs
    assert len(trajectory.samples) == 21
    assert record(trajectory) == record(reference_integrate(*args))


# ------------------------------------------------------------------ classify


def test_classify_exchange_constraints(tmp_path, capsys):
    code = main(["classify", "--system", EXCHANGE, "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    payload = json.loads(
        (tmp_path / "exchange_constrained_classification.json").read_text()
    )
    # Both exchange forms are differentials of products, so the set is closed.
    assert payload["verdict"] == "closed"
    assert payload["verdict"] in printed
    assert payload["closedness"] == {"exchange_a": True, "exchange_b": True}
    assert payload["witness"] is None
    assert payload["parameters"] == {"samples": 50, "seed": 0, "tol": 1e-8}
    assert payload["system"] == {"name": "exchange_constrained", "m": 2, "r": 2}


def test_classify_writes_the_witness_of_an_anholonomic_form(tmp_path, capsys):
    # omega = dz2 - w1 dz1 on C^2 x C^2: d omega = dz1 ^ dw1, and omega ^ d omega != 0.
    path = tmp_path / "contact.system"
    path.write_text("[system]\nm = 2\nname = contact\n\n[lagrangian]\nL = z1*w1 + z2*w2\n\n"
                    "[constraints]\ncontact = 0 - w1 ; 1 ; 0 ; 0\n\n"
                    "[initial]\nz1 = 0.1\nz2 = 0.2\nw1 = 0.3\nw2 = 0.4\n")
    assert main(["classify", "--system", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("contact: anholonomic")
    payload = json.loads((tmp_path / "contact_classification.json").read_text())
    witness = payload["witness"]
    assert witness["form"] == "contact"
    assert witness["value"] == payload["max_bracket"] > 0.9
    (w1, _), (x, y) = [complex(*c) for c in witness["w"]], [
        [complex(*c) for c in witness[f"{v}_hol"] + witness[f"{v}_fib"]] for v in "xy"]
    for v in (x, y):  # both in the kernel of omega at the witness point
        assert abs(v[1] - w1 * v[0]) < 1e-12
    assert abs(abs(x[0] * y[2] - x[2] * y[0]) - witness["value"]) < 1e-12


def test_classify_respects_parameter_flags(tmp_path):
    code = main(
        [
            "classify",
            "--system",
            EXCHANGE,
            "--out",
            str(tmp_path),
            "--samples",
            "12",
            "--seed",
            "5",
            "--tol",
            "1e-6",
        ]
    )
    assert code == 0
    payload = json.loads(
        (tmp_path / "exchange_constrained_classification.json").read_text()
    )
    assert payload["parameters"] == {"samples": 12, "seed": 5, "tol": 1e-6}


@pytest.mark.parametrize("command", ["classify", "check"])
def test_a_negative_sample_count_is_a_usage_error(tmp_path, capsys, command):
    # Before: numpy's "negative dimensions are not allowed".
    with pytest.raises(SystemExit) as info:
        main([command, "--system", EXCHANGE, "--out", str(tmp_path), "--samples", "-3"])
    assert info.value.code == 1
    assert "argument --samples: must be nonnegative, got '-3'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["classify", "check"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # Before: numpy's "expected non-negative integer", naming no flag.
    with pytest.raises(SystemExit) as info:
        main([command, "--system", EXCHANGE, "--out", str(tmp_path), "--seed", "-1"])
    assert info.value.code == 1
    assert "argument --seed: must be nonnegative, got '-1'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_classify_with_zero_samples_says_none_were_requested(tmp_path, capsys):
    # Before: "every draw hit a domain error", though nothing was drawn.
    code = main(["classify", "--system", EXCHANGE, "--out", str(tmp_path), "--samples", "0"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: no valid sample states: no samples were requested\n"
    )


def test_classify_without_constraints_is_an_input_error(tmp_path, capsys):
    code = main(["classify", "--system", BILINEAR, "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_classify_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["classify", "--system", EXCHANGE, "--out", str(out)]) == 0
    name = "exchange_constrained_classification.json"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("m, constraint", [
    (1, "big = 1e200*1e200*z1 ; 1"),
    (2, "c = 1e300*1e300*re(z1)*z2 + 1 ; 0 ; 0 ; 0"),
])
def test_classify_treats_non_finite_coefficients_as_domain_errors(tmp_path, capsys, m, constraint):
    # Every sample overflows: each is skipped as a domain error, so no
    # sample is valid.  This used to read as rank deficiency (m = 1) or
    # fail inside the SVD (m = 2).
    symbols = [f"{kind}{i}" for kind in "zw" for i in range(1, m + 1)]
    path = tmp_path / "overflow.system"
    path.write_text(
        f"[system]\nm = {m}\nname = overflow\n\n"
        f"[lagrangian]\nL = {' + '.join(f'z{i}*w{i}' for i in range(1, m + 1))}\n\n"
        f"[constraints]\n{constraint}\n\n"
        "[initial]\n" + "".join(f"{s} = 0.5\n" for s in symbols)
    )
    with pytest.warns(UserWarning, match="non-finite value"):
        code = main(["classify", "--system", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "error: no valid sample states" in capsys.readouterr().err


def test_classify_treats_overflowing_magnitudes_as_domain_errors(tmp_path, capsys):
    # numpy's SVD of the coefficient row overflows; this used to read as
    # "indeterminate, 0 valid / 50 deficient samples" with exit 0.
    path = _overflow_file(tmp_path, HUGE)
    with pytest.warns(UserWarning, match="magnitude beyond the float range"):
        code = main(["classify", "--system", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "error: no valid sample states" in capsys.readouterr().err


def test_linear_algebra_failure_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which otherwise means bad input.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "frobenius_test", fail)
    code = main(["classify", "--system", EXCHANGE, "--out", str(tmp_path)])
    assert code == 2
    assert "error: LinAlgError: SVD did not converge" in capsys.readouterr().err


# --------------------------------------------------------------------- check


def test_check_passes_on_a_healthy_system(tmp_path, capsys):
    code = main(
        [
            "check",
            "--system",
            EXCHANGE,
            "--out",
            str(tmp_path),
            "--t1",
            "1",
            "--dt",
            "0.01",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 6
    assert all(l.startswith("PASS") for l in lines)
    names = [l.split()[1] for l in lines]
    assert names == [
        "antisymmetry",
        "closedness",
        "solve",
        "oracle",
        "drift",
        "constraint",
    ]
    payload = json.loads((tmp_path / "exchange_constrained_check.json").read_text())
    assert all(entry["passed"] for entry in payload["checks"])


def test_check_skips_states_whose_magnitudes_overflow(tmp_path, capsys):
    # Every sampled saddle has the huge coefficient: each state is skipped,
    # not reported as an untyped OverflowError.
    path = _overflow_file(tmp_path, HUGE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", "--system", str(path), "--out", str(tmp_path), "--t1", "0.1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL  solve" in captured.out and "[0 states solved, 21 skipped]" in captured.out
    report = json.loads((tmp_path / "overflow_check.json").read_text())
    drift = {c["name"]: c for c in report["checks"]}["drift"]
    assert drift["note"] == "integration solver_failure at t=0.0"


def test_check_tol_zero_fails(tmp_path, capsys):
    code = main(
        [
            "check",
            "--system",
            BILINEAR,
            "--out",
            str(tmp_path),
            "--t1",
            "1",
            "--dt",
            "0.01",
            "--tol",
            "0",
        ]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert any(l.startswith("FAIL") for l in out.splitlines())


def test_check_flags_degenerate_systems(tmp_path, capsys):
    code = main(
        ["check", "--system", DEGENERATE, "--out", str(tmp_path), "--t1", "0.5"]
    )
    assert code == 2
    out = capsys.readouterr().out
    failed = [l.split()[1] for l in out.splitlines() if l.startswith("FAIL")]
    assert "solve" in failed


# -------------------------------------------------------------------- derive


def test_derive_prints_the_solved_field(capsys):
    code = main(["derive", "--system", SHIFTED])
    assert code == 0
    out = capsys.readouterr().out
    assert "m=1, r=0" in out
    assert "xi1" in out and "xibar1" in out
    assert "lambda" not in out  # no constraints on this system
    # i(z - 1/5) at z = 0.5 - 0.6i.
    assert "xi1    = +6.000000e-01+3.000000e-01i" in out


def test_derive_reports_singular_systems(capsys):
    code = main(["derive", "--system", DEGENERATE])
    assert code == 2
    assert "solve failed" in capsys.readouterr().out


def test_derive_reports_a_domain_error_in_the_assembly_as_a_solve_failure(tmp_path, capsys):
    # Before: the two-form header, then "error: EvalDomainError: ..." on stderr.
    path = tmp_path / "log.system"
    path.write_text("[system]\nm = 1\n\n[lagrangian]\nL = z1*w1 + log(z1)\n\n"
                    "[initial]\nz1 = 0\nw1 = 1\n")
    assert main(["derive", "--system", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.endswith(
        "solve failed at the initial state: division by zero: 1 / z1\n")
    assert captured.err == ""


def test_derive_shows_multipliers_for_constrained_systems(capsys):
    code = main(["derive", "--system", EXCHANGE])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda1" in out and "lambda2" in out


# ------------------------------------------------------------ error handling


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code = main(["simulate", "--system", str(tmp_path / "nope.system"), "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


# argv and the stderr line of an unusable path; {tmp} is the test's directory.
UNUSABLE_PATHS = {
    "system_is_a_directory": (["simulate", "--system", "{tmp}", "--out", "{tmp}/out"],
                              "[Errno 21] Is a directory: '{tmp}'"),
    "out_is_a_file": (["simulate", "--system", BILINEAR, "--t1", "0.1", "--out", "{tmp}/afile"],
                      "[Errno 17] File exists: '{tmp}/afile'"),
    "out_below_a_file": (["classify", "--system", EXCHANGE, "--out", "{tmp}/afile/x"],
                         "[Errno 20] Not a directory: '{tmp}/afile/x'"),
    "system_not_utf8": (["simulate", "--system", "{tmp}/latin1.system", "--out", "{tmp}/out"],
                        "{tmp}/latin1.system: 'utf-8' codec can't decode byte 0xff"
                        " in position 0: invalid start byte"),
}


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_an_unusable_path_is_an_input_error(tmp_path, capsys, case):
    # Before: the first three exited 2 with the OSError's class name, and
    # the decode error did not name the file.
    (tmp_path / "afile").write_text("")
    (tmp_path / "latin1.system").write_bytes(b"\xff[system]\nm = 1\n")
    argv, message = UNUSABLE_PATHS[case]
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n".replace("{tmp}", str(tmp_path))


def test_malformed_file_reports_line_and_symbol(tmp_path, capsys):
    path = tmp_path / "broken.system"
    path.write_text(
        "[system]\nm = 2\nname = broken\n\n[lagrangian]\nL = z1*w1 + z5\n\n"
        "[initial]\nz1 = 1\nz2 = 1\nw1 = 1\nw2 = 1\n"
    )
    code = main(["simulate", "--system", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 6" in err
    assert "z5" in err


def test_a_non_ascii_character_is_reported_with_its_line(tmp_path, capsys):
    # Before: exit 1 with int()'s untyped message and no line number.
    path = tmp_path / "superscript.system"
    path.write_text("[system]\nm = 1\n\n[lagrangian]\nL = z1*w1^\u00b2\n\n"
                    "[initial]\nz1 = 1\nw1 = 1\n", encoding="utf-8")
    assert main(["simulate", "--system", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "line 5" in err and "unexpected character '\u00b2' (at position 6)" in err


def test_an_initial_index_of_thousands_of_digits_is_reported_with_its_line(tmp_path, capsys):
    # Before: exit 1 with int()'s untyped digit-limit message and no line.
    path = tmp_path / "long_index.system"
    path.write_text("[system]\nm = 1\n\n[lagrangian]\nL = z1*w1\n\n"
                    f"[initial]\nz1 = 1\nw1 = 1\nz{'9' * 5000} = 1\n")
    assert main(["simulate", "--system", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 10: coordinate 'z999") and err.endswith(
        "9' out of range for m=1\n")


def test_a_lone_dot_in_the_lagrangian_is_reported_with_its_line(tmp_path, capsys):
    # Before: exit 1 with float()'s untyped message and no line number.
    path = tmp_path / "dot.system"
    path.write_text("[system]\nm = 1\n\n[lagrangian]\nL = z1*w1 + .\n\n"
                    "[initial]\nz1 = 1\nw1 = 1\n")
    assert main(["simulate", "--system", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "line 5: bad Lagrangian: unexpected character '.' (at position 8)" in err
    assert list(tmp_path.iterdir()) == [path]


def _terms(count):
    return " + ".join(f"{k}*z1*w1" for k in range(1, count + 1))


# A sum of n terms k*z1*w1 is n + 2 levels deep.  The last item is what
# check adds to its command: the shapes accepted only since MAX_DEPTH was
# raised check a short trajectory, as a full one takes 4-6 s each.
SHORT = ["--t1", "0.01"]
DEEP_LAGRANGIANS = {
    "190 terms": (_terms(190), 0, []),
    "250 terms": (_terms(250), 0, SHORT),
    f"{MAX_DEPTH - 2} terms": (_terms(MAX_DEPTH - 2), 0, SHORT),
    f"{MAX_DEPTH - 1} terms": (_terms(MAX_DEPTH - 1), 1, []),
    "3000 terms": (_terms(3000), 1, []),
    f"{MAX_DEPTH} parentheses": ("(" * MAX_DEPTH + "z1*w1" + ")" * MAX_DEPTH, 0, SHORT),
    "400 parentheses": ("(" * 400 + "z1*w1" + ")" * 400, 1, []),
    # 182 levels deep, but its second derivative L_ww is 1074.  Before: exit 2,
    # a RecursionError while generating code for it.
    "quotient with deep derivatives":
        ("z1*w1 + " + "/".join(["z1"] + ["(1 + w1)"] * 179), 1, []),
}


@pytest.mark.parametrize("shape", DEEP_LAGRANGIANS)
def test_an_expression_nested_too_deeply_is_an_input_error(tmp_path, capsys, shape):
    lagrangian, code, check_args = DEEP_LAGRANGIANS[shape]
    path = tmp_path / "deep.system"
    path.write_text(f"[system]\nm = 1\n\n[lagrangian]\nL = {lagrangian}\n\n"
                    "[initial]\nz1 = 0.5\nw1 = 0.25\n")
    for command in (["simulate", "--t1", "0.01"], ["check", "--samples", "1", *check_args]):
        argv = [command[0], "--system", str(path), "--out", str(tmp_path), *command[1:]]
        assert main(argv) == code
        assert ("nested too deeply" in capsys.readouterr().err) == bool(code)


def test_a_derivative_nested_too_deeply_is_named(tmp_path, capsys):
    # Before: "a derived expression is nested too deeply", naming nothing.
    # L_z of the 182-level quotient is the first derivative block past the limit.
    path = tmp_path / "deep.system"
    path.write_text("[system]\nm = 1\n\n[lagrangian]\nL = "
                    f"{DEEP_LAGRANGIANS['quotient with deep derivatives'][0]}\n\n"
                    "[initial]\nz1 = 0.5\nw1 = 0.25\n")
    for command in (["simulate", "--out", str(tmp_path)], ["check", "--out", str(tmp_path)],
                    ["derive"]):
        assert main([command[0], "--system", str(path), *command[1:]]) == 1
        assert capsys.readouterr().err == (
            f"error: L_z[0] is nested too deeply (more than {MAX_DEPTH} levels)\n")


def test_a_product_of_a_hundred_factors_simulates(tmp_path, capsys):
    # Before: exit 1, "expression nested too deeply to compile".  The input
    # is 100 levels deep, its second derivative L_zz 291.
    path = tmp_path / "product.system"
    path.write_text("[system]\nm = 1\n\n[lagrangian]\nL = " + "z1*" * 98 + "w1*w1\n\n"
                    "[initial]\nz1 = 1\nw1 = 0.5\n")
    assert main(["simulate", "--system", str(path), "--out", str(tmp_path), "--t1", "0.01"]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "product_summary.json").read_text())
    assert (summary["status"], summary["samples"]) == ("completed", 11)


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["simulate"])  # --system is required
    assert info.value.code == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--t1", "inf"),
        ("simulate", "--t1", "nan"),
        ("simulate", "--dt", "nan"),
        ("simulate", "--dt", "inf"),
        ("check", "--tol", "nan"),
        ("check", "--tol", "inf"),
    ],
)
def test_non_finite_flag_values_are_usage_errors(tmp_path, capsys, command, flag, value):
    # Before: --t1 inf died with an OverflowError, --dt inf "completed" one
    # sample, and --tol nan failed every check against threshold=nan.
    with pytest.raises(SystemExit) as info:
        main([command, "--system", BILINEAR, "--out", str(tmp_path), flag, value])
    assert info.value.code == 1
    assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag, value, kind",
    [
        ("simulate", "--t1", "\u0661", "finite"),
        ("simulate", "--dt", "0.\uff10\uff11", "finite"),
        ("check", "--tol", "1e-\u0663", "finite"),
        ("check", "--samples", "\u0663", "count"),
        ("check", "--seed", "\uff17", "count"),
    ],
)
def test_a_numeric_flag_takes_only_ascii_digits(tmp_path, capsys, command, flag, value, kind):
    # Before: int() and float() read any Unicode decimal digit as ASCII.
    with pytest.raises(SystemExit) as info:
        main([command, "--system", BILINEAR, "--out", str(tmp_path), flag, value])
    assert info.value.code == 1
    assert f"argument {flag}: invalid {kind} value: '{value}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, value, kind", [
    ("simulate", "--t1", "0_1", "finite"),
    ("check", "--samples", "1_0", "count"),
])
def test_a_numeric_flag_takes_no_digit_separators(tmp_path, capsys, command, flag, value, kind):
    # Before: int() and float() read '_' between digits, so --t1 0_1 ran to
    # t1 = 1 and --samples 1_0 sampled 10 states.
    with pytest.raises(SystemExit) as info:
        main([command, "--system", BILINEAR, "--out", str(tmp_path), flag, value])
    assert info.value.code == 1
    assert f"argument {flag}: invalid {kind} value: '{value}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_console_entry_point_round_trip(tmp_path):
    # One subprocess pass through the installed script keeps the packaging
    # wiring honest; everything else runs in process for speed.  pytest's
    # ``pythonpath`` setting reaches only its own process, so the child gets
    # the source tree of the package under test first on its path.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "kahlermech.cli",
            "simulate",
            "--system",
            BILINEAR,
            "--out",
            str(tmp_path),
            "--t1",
            "0.2",
            "--dt",
            "0.01",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "completed" in result.stdout
    assert (tmp_path / "bilinear_pair_summary.json").exists()

    # A fresh interpreter: simulate never loads numpy, not even to report
    # an input error; the other commands load it at first use.
    out = str(tmp_path / "fresh")
    code = f"""
import sys
from kahlermech.cli import main
assert "numpy" not in sys.modules
assert main(["simulate", "--system", {BILINEAR!r}, "--out", {out!r}, "--t1", "0.2"]) == 0
assert "numpy" not in sys.modules
assert main(["simulate", "--system", {out + "/nope.system"!r}, "--out", {out!r}]) == 1
assert "numpy" not in sys.modules
for command, system in (("classify", {EXCHANGE!r}), ("check", {BILINEAR!r}),
                        ("derive", {BILINEAR!r})):
    assert main([command, "--system", system, "--out", {out!r}]) == 0, command
assert "numpy" in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert "nope.system" in result.stderr
