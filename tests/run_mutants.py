"""Run the mutants listed in ``tests/mutants.json`` against their tests.

Each mutant replaces one exact snippet of one source file.  For each, the
runner copies ``src/``, ``tests/``, ``bench/``, ``configs/``,
``pyproject.toml`` and ``BENCHMARK.json`` (which the harness tests read)
to a temporary directory, applies the mutant to the
copy, and runs pytest there on the mutant's named tests only.  A mutant
is killed when that run fails or outlasts its time limit, the mutant's
own ``timeout`` or ``--timeout`` (a mutant that removes a loop's exit
can only show that way).  One line is printed per
mutant; the exit status is 1 if any mutant survived or its tests could
not run.  This is not part of the tier-1 suite.  From the repository
root::

    python tests/run_mutants.py                   # every mutant
    python tests/run_mutants.py -k "sampler law"  # names containing the text
    python tests/run_mutants.py --changed main    # files that differ from main
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "bench", "configs", "pyproject.toml", "BENCHMARK.json")


def run(mutant: dict, timeout: float) -> str:
    """``killed``, ``killed (timeout)``, ``survived`` or ``error (...)``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, copy / name)
        target = copy / mutant["file"]
        text = target.read_text()
        if text.count(mutant["snippet"]) != 1:
            return "error (snippet not found exactly once)"
        target.write_text(text.replace(mutant["snippet"], mutant["replacement"]))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["tests"]]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    # pytest exits 1 when a test failed; 0 when all passed; other codes mean it could not run them
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error (pytest exit {done.returncode})")


def changed_files(rev: str) -> set:
    """Paths, from the repository root, that differ between ``rev`` and
    the working tree (``git diff --name-only``)."""
    done = subprocess.run(["git", "diff", "--name-only", rev, "--"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(f"git diff --name-only {rev} failed")
    return set(done.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", default="", help="run only the mutants whose name contains this text")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds before a run counts as killed, unless the mutant sets its own")
    parser.add_argument("--changed", metavar="REV", help="run only the mutants whose file differs from this git revision")
    args = parser.parse_args(argv)
    mutants = [m for m in json.loads(MUTANTS.read_text()) if args.k in m["name"]]
    if args.changed:
        changed = changed_files(args.changed)
        mutants = [m for m in mutants if m["file"] in changed]
    started, failures = time.perf_counter(), 0
    for mutant in mutants:
        begun = time.perf_counter()
        outcome = run(mutant, mutant.get("timeout", args.timeout))
        failures += not outcome.startswith("killed")
        print(f"{outcome:<18} {time.perf_counter() - begun:6.1f} s  {mutant['name']}", flush=True)
    print(f"{len(mutants) - failures} of {len(mutants)} killed in {time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
