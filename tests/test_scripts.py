"""The scripts under `scripts/`, run as a user would run them."""

import re
import runpy
import subprocess
import sys

from conftest import ROOT, subprocess_env
from exchange_clear import auditors, suites


def run(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, env=subprocess_env(),
        timeout=300,
    )


def test_replicate_theorem5_json_equals_the_cli():
    script = run("scripts/replicate_theorem5.py", "--json")
    cli = run("-m", "exchange_clear", "replicate-theorem5")
    assert (script.returncode, cli.returncode) == (2, 2), script.stderr + cli.stderr
    assert script.stdout == cli.stdout
    assert '"verdict": "violation"' in script.stdout


def test_replicate_theorem5_narrates_every_run():
    done = run("scripts/replicate_theorem5.py")
    assert done.returncode == 2, done.stderr
    runs = [line for line in done.stdout.splitlines() if re.match(r"cu?p priority=", line)]
    assert len(runs) == 12
    assert all(re.search(r"-> agent [123] gains by restricting", line) for line in runs), runs
    assert not any("agent None" in line for line in runs)


def test_replicate_theorem5_searches_each_scripted_misreport_once(monkeypatch, capsys):
    # the narration and the aggregate line share one replication
    search_feasible = auditors.search_feasible
    searches = []
    monkeypatch.setattr(
        auditors, "search_feasible", lambda *args: searches.append(args) or search_feasible(*args)
    )
    monkeypatch.setattr(sys, "argv", ["replicate_theorem5.py"])
    main = runpy.run_path(str(ROOT / "scripts" / "replicate_theorem5.py"))["main"]
    assert main() == 2
    assert "aggregate: violation" in capsys.readouterr().out
    assert len(searches) == 3


def test_run_property_suites_passes():
    done = run("scripts/run_property_suites.py", "--instances", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "RESULT: PASS" in done.stdout


def test_run_property_suites_flags():
    done = run("scripts/run_property_suites.py", "--instances", "3", "--first-seed", "7",
               "--skip-consistency")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "RESULT: PASS" in done.stdout
    assert "weak consistency" not in done.stdout
    audits = len(list(suites.strategyproofness(suites.family(range(7, 10)))))
    assert f"strategyproofness: {audits} audits," in done.stdout
