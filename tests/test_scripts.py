"""The scripts under `scripts/`, run as a user would run them."""

import json
import re
import runpy
import subprocess
import sys

from conftest import ROOT, subprocess_env
from exchange_clear import auditors, endowment_allocation, mechanisms, suites


def run(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, env=subprocess_env(),
        timeout=300,
    )


def test_replicate_theorem5_narrates_every_run():
    done = run("scripts/replicate_theorem5.py")
    assert done.returncode == 2, done.stderr
    runs = [line for line in done.stdout.splitlines() if re.match(r"cu?p priority=", line)]
    assert len(runs) == 12
    assert all(re.search(r"-> agent [123] gains by restricting", line) for line in runs), runs
    assert not any("agent None" in line for line in runs)


def test_replicate_theorem5_searches_each_scripted_misreport_once(monkeypatch, capsys):
    # the narration and the aggregate line share one replication
    search = auditors._search
    searches = []
    monkeypatch.setattr(auditors, "_search", lambda *args: searches.append(args) or search(*args))
    monkeypatch.setattr(sys, "argv", ["replicate_theorem5.py"])
    main = runpy.run_path(str(ROOT / "scripts" / "replicate_theorem5.py"))["main"]
    assert main() == 2
    assert "aggregate: violation" in capsys.readouterr().out
    assert len(searches) == 3


def test_run_property_suites_passes():
    done = run("scripts/run_property_suites.py", "--instances", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "RESULT: PASS" in done.stdout
    runs = sum(1 for _ in suites.outcomes(suites.family(range(1, 4))))
    assert re.search(
        rf"pareto \+ oracle: {runs} runs, 0 dominated outputs, 0 oracle mismatches, 0 solve mismatches ",
        done.stdout,
    ), done.stdout


def test_run_property_suites_fails_on_a_solve_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(mechanisms, "solve", lambda market, spec: endowment_allocation(market))
    monkeypatch.setattr(sys, "argv", ["run_property_suites.py", "--instances", "3"])
    main = runpy.run_path(str(ROOT / "scripts" / "run_property_suites.py"))["main"]
    assert main() == 1
    out = capsys.readouterr().out
    assert "RESULT: FAIL" in out
    assert re.search(r"0 oracle mismatches, [1-9]\d* solve mismatches", out), out


def test_run_property_suites_flags():
    done = run("scripts/run_property_suites.py", "--instances", "3", "--first-seed", "7")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "RESULT: PASS" in done.stdout
    audits = len(list(suites.strategyproofness(suites.family(range(7, 10)))))
    assert f"strategyproofness: {audits} audits," in done.stdout
    audits = len(list(suites.weak_consistency(suites.family(range(7, 10)))))
    assert f"weak consistency: {audits} audits, 0 violations " in done.stdout


def bench_pairs():
    return runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))


def test_bench_pairs_summary_reproduces_bench_1():
    # BENCH_1.json's summaries were computed by hand before the script existed
    summarize = bench_pairs()["summarize"]
    doc = json.loads((ROOT / "BENCH_1.json").read_text(encoding="utf-8"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    for workload in doc["workloads"].values():
        for metric in declared:
            summary = summarize(workload["runs"], metric["name"], metric["better"])
            assert summary == workload["summary"][metric["name"]]


def pairs(parent, change, metric="ops_per_s"):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_bench_pairs_claim_rule_on_fixed_numbers():
    script = bench_pairs()
    summarize, claim_met = script["summarize"], script["claim_met"]
    parent = [100, 102, 104, 106, 108, 110, 112, 114, 116, 118]
    # one loss in ten still meets the claim; two do not
    nine = summarize(pairs(parent, [130] * 9 + [90]), "ops_per_s", "higher")
    assert (nine["change_wins"], nine["change_losses"], nine["parent_iqr"]) == (9, 1, 9.0)
    assert claim_met(nine, "higher")
    eight = summarize(pairs(parent, [130] * 8 + [90, 90]), "ops_per_s", "higher")
    assert eight["change_wins"] == 8 and not claim_met(eight, "higher")
    # ten wins whose median gap (8) is inside the parent's IQR (9) do not meet it
    close = summarize(pairs(parent, [p + 8 for p in parent]), "ops_per_s", "higher")
    assert close["change_wins"] == 10 and not claim_met(close, "higher")
    # for a lower-is-better metric the direction flips, and ties count neither way
    lower = summarize(pairs(parent, [50] * 9 + [118], "op_ms_p50"), "op_ms_p50", "lower")
    assert (lower["change_wins"], lower["change_losses"], lower["median_ratio"]) == (9, 0, 0.4587)
    assert claim_met(lower, "lower") and not claim_met(lower, "higher")


def test_bench_pairs_within_bound_on_fixed_numbers():
    within_bound = bench_pairs()["within_bound"]
    parent = [100, 101, 102, 103, 104]  # IQR 2, well inside a 0.25 bound
    assert within_bound(pairs(parent, [80, 81, 82, 83, 84]), "ops_per_s", "higher", 0.25) is True
    assert within_bound(pairs(parent, [70, 71, 72, 73, 74]), "ops_per_s", "higher", 0.25) is False
    # the direction flips for a lower-is-better metric
    assert within_bound(pairs(parent, [120] * 5, "peak_rss_mb"), "peak_rss_mb", "lower", 0.25) is True
    assert within_bound(pairs(parent, [130] * 5, "peak_rss_mb"), "peak_rss_mb", "lower", 0.25) is False
    # a parent spread (IQR 40) wider than the bound leaves overlapping sides unresolved
    wide = [60, 80, 100, 120, 140]
    assert within_bound(pairs(wide, [40, 60, 70, 90, 110]), "ops_per_s", "higher", 0.25) == "unresolved"
    # unless the sides do not overlap: then the medians decide
    assert within_bound(pairs(wide, [150, 160, 170, 180, 190]), "ops_per_s", "higher", 0.25) is True
    assert within_bound(pairs(wide, [20, 30, 40, 50, 55]), "ops_per_s", "higher", 0.25) is False


def test_bench_pairs_rss_per_extra_op_on_fixed_numbers():
    rss_per_extra_op = bench_pairs()["rss_per_extra_op"]

    def sides(parent, change):
        keys = ("attempted", "peak_rss_mb")
        return [{"parent": dict(zip(keys, p)), "change": dict(zip(keys, c))} for p, c in zip(parent, change)]

    # medians: 200 -> 250 ops and 51 -> 52 MB, so 2**20 B over 50 extra ops
    moved = sides([(100, 50), (300, 51), (200, 52)], [(250, 51), (150, 53), (350, 52)])
    assert rss_per_extra_op(moved) == 20971.5
    # fewer ops and less memory is a positive rate too; more memory, a negative one
    assert rss_per_extra_op(sides([(200, 52)], [(100, 51.5)])) == 5242.9
    assert rss_per_extra_op(sides([(200, 52)], [(100, 53)])) == -10485.8
    # an op count that did not move gives no rate
    assert rss_per_extra_op(sides([(200, 50), (300, 60)], [(250, 70), (250, 80)])) is None


def runs(parent, change):
    """Pairs of runs from each side's (attempted, failed) ops."""
    keys = ("attempted", "failed")
    return [{"parent": dict(zip(keys, p)), "change": dict(zip(keys, c))} for p, c in zip(parent, change)]


def test_bench_pairs_failed_share_on_fixed_numbers():
    failures = bench_pairs()["failures"]

    # shares pool every run of a side: 2 of 200 against 1 of 100
    same = failures(runs([(100, 0), (100, 2)], [(50, 1), (50, 0)]))
    assert same == {"parent_share": 0.01, "change_share": 0.01, "no_worse": True}
    assert failures(runs([(100, 0)] * 3, [(100, 0)] * 3))["no_worse"] is True
    grown = failures(runs([(100, 1), (100, 1)], [(100, 1), (100, 2)]))
    assert grown == {"parent_share": 0.01, "change_share": 0.015, "no_worse": False}
    # a side that attempted nothing failed nothing
    assert failures(runs([(0, 0)], [(10, 1)])) == {"parent_share": 0.0, "change_share": 0.1, "no_worse": False}


def test_bench_pairs_attempted_medians_on_fixed_numbers():
    attempted = bench_pairs()["attempted"]
    assert attempted(runs([(100, 0), (300, 0), (200, 1)], [(250, 0), (150, 0), (350, 2)])) == {
        "parent": 200, "change": 250, "median_ratio": 1.25,
    }
    assert attempted(runs([(0, 0)], [(10, 0)]))["median_ratio"] is None


def test_mutants_snippets_each_occur_exactly_once():
    script = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))
    mutants = script["MUTANTS"]
    assert len({m.name for m in mutants}) == len(mutants) == 32
    for mutant in mutants:
        assert script["occurrences"](mutant) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name
        assert all((ROOT / test).is_file() for test in mutant.tests), mutant.name
    done = run("scripts/mutants.py", "--check")
    assert done.returncode == 0, done.stderr


def test_mutants_table_has_one_killed_row_per_mutant():
    # MUTANTS.md commits the last full run, so it lists every mutant of the
    # script once, in the script's order, and each was killed
    names = [m.name for m in runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]]
    table = (ROOT / "MUTANTS.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| ([\w-]+) \| [\w.]+ \| [^|]+ \| ([^|]+?) \| [\d.]+ \|$", table, re.M)
    assert rows == [(name, "killed") for name in names]
