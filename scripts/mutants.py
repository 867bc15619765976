#!/usr/bin/env python3
"""A fixed set of mutants of the package's fast paths, each run against the
tests that should kill it.

    python3 scripts/mutants.py                  # every mutant, then the table
    python3 scripts/mutants.py --only cap-balance-always-true
    python3 scripts/mutants.py --check          # only check the snippets

A mutant is one edit: an exact snippet of a package file and its
replacement.  Each snippet must occur exactly once in its file, so an edit
can never land somewhere else.  Each mutant is applied to a fresh copy of
`src/`, `tests/` and `pyproject.toml` in a temporary directory, and the
mutant's test files run there under pytest, stopping at the first failure.
A mutant is killed when pytest reports a failing test (exit 1), survived
when every test passes (exit 0), and an error otherwise (e.g. the mutated
code does not import).

Before the mutants, the union of their test files runs once on the
unmutated copy; if that fails, the table would mean nothing, and the script
exits 2.  Otherwise it exits 1 when some mutant survived or errored, else 0.

Over-pruning mutants (a bound off by one that drops allocations) should die
in the differential gates against the naive oracles.  Under-pruning mutants
(a test that always passes) leave every returned set unchanged, so only the
node-count pins can kill them.

The stdlib is all it needs, besides pytest for the tests themselves.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
AUDITORS = "src/exchange_clear/auditors.py"
FEASIBILITY = "src/exchange_clear/feasibility.py"
MECHANISMS = "src/exchange_clear/mechanisms.py"


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "family-nesting-size-le",
        AUDITORS,
        "if size < sup_size and sub & sup == sub]",
        "if size <= sup_size and sub & sup == sub]",
        ("tests/test_consistency.py",),
    ),
    Mutant(
        "family-full-sample-branch-dropped",
        AUDITORS,
        "        if sup == full:  # a leave-one-out lies under a sample only when it is the full set\n"
        "            nested[:0] = range(loos)\n",
        "",
        ("tests/test_consistency.py",),
    ),
    Mutant(
        "family-exhaustive-bound-off-by-one",
        AUDITORS,
        "    if count <= params.exhaustive_limit:\n",
        "    if count < params.exhaustive_limit:\n",
        ("tests/test_consistency.py",),
    ),
    Mutant(
        "cap-balance-always-true",
        FEASIBILITY,
        "if b + endowed_after < hi or b > hi:",
        "if False:",
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "reservable-always-true",
        FEASIBILITY,
        '        agent with an option that reserves nothing is left out."""\n',
        '        agent with an option that reserves nothing is left out."""\n        return True\n',
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "pairwise-deficit-off-by-one",
        FEASIBILITY,
        "elif deficit[a] + 1 <= left[a] and deficit[o] <= left[o]:",
        "elif deficit[a] + 1 < left[a] and deficit[o] <= left[o]:",
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "frontier-bound-without-current-item",
        FEASIBILITY,
        "unplaced = full >> p << p  # items p.. are unplaced",
        "unplaced = full >> p + 1 << p + 1",
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "reservation-pass-without-keep",
        FEASIBILITY,
        "    clash = taken & keepers\n",
        "    clash = keepers\n",
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "canonical-cap-read-as-pairwise",
        FEASIBILITY,
        "        out.append(max_cycle_agents(cycle_cap))\n",
        "        out.append(PAIRWISE_ONLY)\n",
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "sir-receiver-test-dropped",
        FEASIBILITY,
        "            if need_sir and a != o and not cover[a][(h | unplaced) & wanted[a]]:\n"
        "                continue\n",
        "",
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "patch-keeps-base-demands",
        FEASIBILITY,
        "    live[agent] = _live(base.pos, demands)\n",
        "",
        ("tests/test_strategyproofness.py",),
    ),
    Mutant(
        "misreport-base-from-true-market",
        AUDITORS,
        "_compile(apply_misreport(market, scenario), constraints)",
        "_compile(apply_misreport(market, scenario) and market, constraints)",
        ("tests/test_strategyproofness.py",),
    ),
    Mutant(
        "cup-key-without-satisfied-count",
        MECHANISMS,
        "return lambda profile: (sum(profile),) + tuple(profile[i] for i in order)",
        "return lambda profile: tuple(profile[i] for i in order)",
        ("tests/test_mechanisms.py",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(copy: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONHASHSEED="0")
    env.pop("EXCHANGE_CLEAR_BUDGET", None)
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=1800).returncode


def run_mutant(mutant: Mutant) -> tuple[str, float]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        path = copy / mutant.file
        path.write_text(
            path.read_text(encoding="utf-8").replace(mutant.snippet, mutant.replacement), encoding="utf-8"
        )
        start = time.perf_counter()
        status = run_tests(copy, mutant.tests)
        seconds = time.perf_counter() - start
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})"), seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="only check that each snippet occurs once")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = parser.parse_args()

    names = {m.name for m in MUTANTS}
    unknown = sorted(set(args.only or ()) - names)
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    misplaced = [(m.name, n) for m in chosen if (n := occurrences(m)) != 1]
    for name, n in misplaced:
        print(f"{name}: snippet occurs {n} times, expected once", file=sys.stderr)
    if misplaced or args.check:
        return int(bool(misplaced))

    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(Path(tmp))
        if run_tests(Path(tmp), tests):
            print(f"the unmutated tests fail ({' '.join(tests)}); no mutant run", file=sys.stderr)
            return 2

    print("| mutant | file | tests | result | seconds |")
    print("| --- | --- | --- | --- | --- |")
    bad = 0
    for mutant in chosen:
        result, seconds = run_mutant(mutant)
        bad += result != "killed"
        files = " ".join(Path(t).name for t in mutant.tests)
        print(f"| {mutant.name} | {Path(mutant.file).name} | {files} | {result} | {seconds:.1f} |", flush=True)
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
