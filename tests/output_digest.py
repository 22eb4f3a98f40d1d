"""Digest of every command output on a fixed set of inputs.

Runs 128 CLI commands in-process and writes, per command, its exit code,
stdout, stderr, warnings and the sha256 of every file it wrote, as sorted
JSON:

* ``simulate``, ``check`` and ``classify`` on the inputs of the three
  benchmark workloads (``perfbench/inputs.py``) at seeds 7, 11 and 301;
* ``simulate --t1 2``, ``check``, ``classify`` and ``derive`` on each
  shipped system in ``systems/``.

Two checkouts whose digests are equal produce byte-identical outputs on
these commands.  Usage, from the root of a checkout::

    python3 tests/output_digest.py --out digest.json
    python3 tests/output_digest.py --against digest.json

``--against`` digests this checkout, prints the key of every command whose
record differs from the one in the given file (or is in only one of the
two), and exits 1 if there is any.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from kahlermech import cli  # noqa: E402

SEEDS = (7, 11, 301)
SHIPPED_COMMANDS = (["simulate", "--t1", "2"], ["check"], ["classify"], ["derive"])


def _commands():
    """(key, argv) pairs; every path is relative to the working directory."""
    for workload, make in inputs.WORKLOADS.items():
        for seed in SEEDS:
            work = Path("inputs") / f"{workload}_{seed}"
            work.mkdir(parents=True)
            for op in make(seed, work):
                yield f"{workload}/{seed}/{op.name}", [op.command, "--system", str(op.path),
                                                       *op.args]
    shutil.copytree(ROOT / "systems", "systems")
    for path in sorted(Path("systems").glob("*.system")):
        for command in SHIPPED_COMMANDS:
            yield f"shipped/{path.stem}/{command[0]}", [command[0], "--system", str(path),
                                                        *command[1:]]


def _run(argv, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main([*argv, "--out", str(out_dir)])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out_dir.iterdir())},
    }


def digest() -> dict:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return {key: _run(argv, Path("out") / key) for key, argv in _commands()}
        finally:
            os.chdir(home)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--against", help="digest JSON file to compare with")
    args = parser.parse_args(argv)
    if not (args.out or args.against):
        parser.error("give --out, --against or both")
    result = digest()
    if args.out:
        Path(args.out).write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
        print(f"{len(result)} commands digested into {args.out}")
    if args.against:
        other = json.loads(Path(args.against).read_text())
        keys = result.keys() | other.keys()
        differing = sorted(k for k in keys if result.get(k) != other.get(k))
        for key in differing:
            print(key)
        print(f"{len(differing)} of {len(keys)} commands differ from {args.against}")
        return 1 if differing else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
