#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as a `BENCH_*.json`.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_2.json \\
        --pairs audit-wc=401-410 audit-sp=411-415 clear-cli=416-420 \\
        --claim audit-wc:ops_per_s --note "what the change does"

PARENT and CHANGE are commits.  Each is exported with `git archive` into a
fresh directory, and every pair runs

    python3 bench/run.py --workload W --seed S --trace 0

once in each export, under PYTHONHASHSEED=0, one process at a time.
bench/run.py then runs for the `run_seconds` that BENCHMARK.json sets.
The side that runs first alternates from pair to pair, starting with the
parent.  The output file is rewritten after every pair, so an interrupted
run keeps the pairs it finished.

Per workload and end-to-end metric of BENCHMARK.json the file holds each
side's median and quartiles (inclusive method), how many pairs the change
won and lost in the metric's better direction, the median ratio and the
parent's interquartile range.  A claimed gain is met when the change wins
at least 9 of every 10 pairs and the medians differ, in the better
direction, by more than the parent's interquartile range.

Every metric is also judged for regression: `within_bound` is true when
the change's median is worse than the parent's by at most the metric's
`bound` in BENCHMARK.json (a fraction of the parent's median), false when
it is worse by more, and "unresolved" when the parent's interquartile range
is wider than the bound and the two sides' runs overlap.  Per workload,
`failures` holds each side's share of failed ops over all its runs (failed
over attempted) and `no_worse`, false when the change's share exceeds the
parent's.  The summary's `attempted` entry holds each side's median of ops
attempted per run and their ratio, so a memory metric that grows with the
op count (as `peak_rss_mb` does) can be read against the throughput.  Its
`rss_bytes_per_extra_op` is the change in median `peak_rss_mb`, in bytes,
over the change in median ops attempted (null when the op count did not
move): about 170-190 B per op is the harness's own per-op bookkeeping, and
much more than that is memory the package holds.  The script exits 1 when
a claim is not met, a metric is out of its bound or a workload's failed
share grew.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RULE = "change wins >= 9 of 10 pairs and the medians differ by more than the parent's interquartile range"
BOUND_RULE = (
    "within_bound: the change's median is worse than the parent's by at most the bound, as a fraction "
    "of the parent's median; unresolved when the parent's IQR exceeds the bound and the sides overlap"
)
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    points = values if len(values) > 1 else values * 2  # one run is its own quartiles
    q1, median, q3 = statistics.quantiles(points, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], metric: str, better: str) -> dict:
    """One metric over a workload's pairs: each side's quartiles, the
    change's wins and losses in the `better` direction ("higher" or
    "lower"), the median ratio and the parent's interquartile range."""
    parent = [run["parent"][metric] for run in runs]
    change = [run["change"][metric] for run in runs]
    sign = 1 if better == "higher" else -1
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    return {
        **sides,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "change_losses": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(runs),
        "median_ratio": round(sides["change"]["median"] / sides["parent"]["median"], 4),
        "parent_iqr": round(sides["parent"]["q3"] - sides["parent"]["q1"], 4),
    }


def claim_met(summary: dict, better: str) -> bool:
    """The claim rule on one metric's summary."""
    gap = summary["change"]["median"] - summary["parent"]["median"]
    if better == "lower":
        gap = -gap
    return 10 * summary["change_wins"] >= 9 * summary["pairs"] and gap > summary["parent_iqr"]


def within_bound(runs: list[dict], metric: str, better: str, bound: float) -> bool | str:
    """The no-regression rule on one metric over a workload's pairs: True or
    False, or "unresolved" when the parent's own spread is wider than
    `bound` and the sides' runs overlap, so the spread may decide it."""
    parent = [run["parent"][metric] for run in runs]
    change = [run["change"][metric] for run in runs]
    base, moved = quartiles(parent), quartiles(change)["median"]
    overlap = min(change) <= max(parent) and min(parent) <= max(change)
    if overlap and base["q3"] - base["q1"] > bound * base["median"]:
        return "unresolved"
    worse = moved - base["median"] if better == "lower" else base["median"] - moved
    return worse <= bound * base["median"]


def failures(runs: list[dict]) -> dict:
    """Each side's share of failed ops over a workload's runs, and whether
    the change's share is no larger than the parent's."""
    shares = {}
    for side in SIDES:
        attempted = sum(run[side]["attempted"] for run in runs)
        shares[side] = sum(run[side]["failed"] for run in runs) / attempted if attempted else 0.0
    return {
        **{f"{side}_share": round(share, 6) for side, share in shares.items()},
        "no_worse": shares["change"] <= shares["parent"],
    }


def attempted(runs: list[dict]) -> dict:
    """Each side's median of ops attempted per run, and their ratio: a
    memory metric that grows with the op count reads against it."""
    medians = {side: statistics.median(run[side]["attempted"] for run in runs) for side in SIDES}
    ratio = medians["change"] / medians["parent"] if medians["parent"] else None
    return {**medians, "median_ratio": None if ratio is None else round(ratio, 4)}


def rss_per_extra_op(runs: list[dict]) -> float | None:
    """The change in median `peak_rss_mb`, in bytes (bench/run.py's MB is
    ru_maxrss / 1024, so 2**20 bytes), over the change in median ops
    attempted; None when the op count did not move."""
    medians = {
        side: [statistics.median(run[side][key] for run in runs) for key in ("attempted", "peak_rss_mb")]
        for side in SIDES
    }
    extra_ops = medians["change"][0] - medians["parent"][0]
    if not extra_ops:
        return None
    return round((medians["change"][1] - medians["parent"][1]) * 2**20 / extra_ops, 1)


def judge(workloads: dict, claim: str, better: dict) -> dict | None:
    """The claim entry for "WORKLOAD:METRIC", once that workload has pairs."""
    name, _, metric = claim.partition(":")
    if name not in workloads:
        return None
    s = workloads[name]["summary"][metric]
    return {
        "metric": metric, "workload": name, "rule": RULE, "met": claim_met(s, better[metric]),
        "change_wins": s["change_wins"], "pairs": s["pairs"], "parent_median": s["parent"]["median"],
        "change_median": s["change"]["median"], "parent_iqr": s["parent_iqr"],
    }


def export(commit: str, into: Path) -> str:
    """`git archive` of the commit into a new directory; its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One timed run, `seconds` long as BENCHMARK.json sets: (the end-to-end
    metrics with `attempted` and `failed`, the run's environment line)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=seconds + 600)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        environment = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    except (IndexError, StopIteration, json.JSONDecodeError):
        raise SystemExit(f"{checkout.name} {workload} seed {seed}: no result\n{done.stderr}") from None
    metrics = {name: round(entry["value"], 4) for name, entry in result["metrics"].items()}
    return {**metrics, "attempted": result["attempted"], "failed": result["failed"]}, environment


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=FIRST-LAST",
                        help="a workload and its inclusive seed range, one pair per seed")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain, judged by the rule")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="", help="what the change does, for the file's `change` field")
    args = parser.parse_args(argv)

    plan = [(name, seed_range(seeds)) for name, _, seeds in (p.partition("=") for p in args.pairs)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    bound = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        checkouts = {side: workdir / side for side in SIDES}
        commits = {side: export(commit, checkouts[side]) for side, commit in zip(SIDES, (args.parent, args.change))}
        doc = {
            "name": args.out.stem,
            "change": args.note,
            "commits": commits,
            "method": {
                "command": "python3 bench/run.py --workload <name> --seed <seed> --trace 0, "
                           "PYTHONHASHSEED=0, run in a `git archive` export of each commit",
                "seconds": seconds,
                "pairing": "one parent and one change run per seed, alternating which side runs first "
                           "(`first`); one process at a time",
                "metrics_note": "times are bench/run.py's host-speed-scaled values; "
                                "the five end-to-end metrics of BENCHMARK.json",
                "regression": BOUND_RULE,
            },
            "env": {},
            "claim": None,
            "workloads": {},
        }
        pair = 0
        for workload, seeds in plan:
            entry = doc["workloads"].setdefault(workload, {"seeds": [], "runs": [], "summary": {}})
            for seed in seeds:
                first = SIDES[pair % 2]
                order = SIDES if first == "parent" else SIDES[::-1]
                run = {"seed": seed, "first": first}
                for side in order:
                    run[side], doc["env"][side] = bench_once(checkouts[side], workload, seed, seconds)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {run[side]['ops_per_s']} ops/s" for side in SIDES), flush=True)
                entry["seeds"].append(seed)
                entry["runs"].append({key: run[key] for key in ("seed", "first", *SIDES)})
                entry["summary"] = {
                    m: {**summarize(entry["runs"], m, better[m]),
                        "within_bound": within_bound(entry["runs"], m, better[m], bound[m])}
                    for m in better
                }
                entry["summary"]["attempted"] = {
                    **attempted(entry["runs"]), "rss_bytes_per_extra_op": rss_per_extra_op(entry["runs"]),
                }
                entry["failures"] = failures(entry["runs"])
                pair += 1
                if args.claim:
                    doc["claim"] = judge(doc["workloads"], args.claim, better)
                args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    regressed = any(
        entry["summary"][m]["within_bound"] is False for entry in doc["workloads"].values() for m in better
    ) or any(not entry["failures"]["no_worse"] for entry in doc["workloads"].values())
    return 1 if regressed or (doc["claim"] and not doc["claim"]["met"]) else 0


if __name__ == "__main__":
    sys.exit(main())
