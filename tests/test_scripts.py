"""The scripts under `scripts/`, run as a user would run them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("EXCHANGE_CLEAR_BUDGET", None)
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, env=env, timeout=300
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


def test_run_property_suites_passes():
    done = run("scripts/run_property_suites.py", "--instances", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "RESULT: PASS" in done.stdout
