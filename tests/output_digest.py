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
    python3 tests/output_digest.py --parent HEAD~1

``--against`` digests this checkout, prints the key of every command whose
record differs from the one in the given file (or is in only one of the
two) with the fields that differ (exit code, stdout, stderr, warnings, or
the names of the files whose hashes changed), and exits 1 if there is any.
``--parent REV`` does the same against the digest of git revision REV:
it exports REV with ``git archive`` into a temporary directory (the
repository is only read) and runs that tree's own ``output_digest.py
--out`` there first.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
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


def _differing_fields(mine, theirs) -> list:
    """What differs between two records of one command: its exit code,
    stdout, stderr, warnings, or the names of the files whose hashes
    differ; a record missing on one side names that side."""
    if mine is None or theirs is None:
        return ["only in the given digest" if mine is None else "only in this checkout"]
    fields = [f for f in ("exit", "stdout", "stderr", "warnings") if mine[f] != theirs[f]]
    names = sorted(mine["files"].keys() | theirs["files"].keys())
    return fields + [f"file {name}" for name in names
                     if mine["files"].get(name) != theirs["files"].get(name)]


def parent_digest(rev: str) -> dict:
    """The digest that revision ``rev``'s own script writes of its tree."""
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        out = Path(tree) / "digest.json"
        subprocess.run([sys.executable, "tests/output_digest.py", "--out", str(out)],
                       cwd=tree, check=True)
        return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--against", help="digest JSON file to compare with")
    parser.add_argument("--parent", metavar="REV", help="git revision whose digest to compare with")
    args = parser.parse_args(argv)
    if not (args.out or args.against or args.parent):
        parser.error("give --out, --against, --parent or a combination")
    if args.against and args.parent:
        parser.error("give --against or --parent, not both")
    other = parent_digest(args.parent) if args.parent else None
    result = digest()
    if args.out:
        Path(args.out).write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
        print(f"{len(result)} commands digested into {args.out}")
    if args.against:
        other = json.loads(Path(args.against).read_text())
    if other is None:
        return 0
    keys = result.keys() | other.keys()
    differing = sorted(k for k in keys if result.get(k) != other.get(k))
    for key in differing:
        print(f"{key}: {', '.join(_differing_fields(result.get(key), other.get(key)))}")
    print(f"{len(differing)} of {len(keys)} commands differ from {args.against or args.parent}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
