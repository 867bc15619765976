"""The benchmark's smoke run: every workload at one round, timed and traced.

It fails when an op's output check or recorded output digest no longer
holds, or when a layer the traced run wraps is gone from the package.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all workloads: PASS" in done.stdout.splitlines(), done.stdout
