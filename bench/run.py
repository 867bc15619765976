#!/usr/bin/env python3
"""exchange-clear benchmark.

Run from the root of a source checkout; the package is imported from
`src/`, so nothing needs installing:

    python3 bench/run.py                     # every workload, timed then traced
    python3 bench/run.py --smoke             # every workload at tiny size
    python3 bench/run.py --workload audit-sp --seed 3 --seconds 40 --trace 0

With `--workload`, one workload runs in this process as a closed loop with
one caller: the next op starts when the previous one has returned.  The
package runs single-threaded (the audits' `workers` stays at its default of
1).  Inputs come from `--seed` alone.  Every op's output is checked, and
hashed; a failed op still counts in the wall time.

`--trace 0` measures the end-to-end metrics for `--seconds` seconds.  Its
times are scaled to a reference host speed (see `hostspeed.py`), so that
the shared host's drifting speed does not show as a change of the program;
the wall-clock value of each timing is printed beside it.
`--trace 1` runs the first rounds of the same deck twice, untraced and then
with span recorders wrapped around every call between layers, and reports
the per-layer metrics of the traced pass (see `spans.py`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give each
metric with its unit and sample count, the output digest and the
environment.  The exit code is 0 only when every output check passed.

Without `--workload` every workload runs in its own process, one process
at a time: a timed run under PYTHONHASHSEED=0 and a traced run under
PYTHONHASHSEED=7, whose output digests must agree.  `--smoke` does the same
at tiny size and also checks that the printed metric names are the ones
declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline.json"
WORK_DIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
SETUP_KERNEL_REPEATS = 5
CHILD_TIMEOUT_S = 170


class SetupError(Exception):
    pass


def load_workloads():
    """Import the package from this checkout's `src/` and the workload table."""
    sys.path.insert(0, str(SRC))
    try:
        import exchange_clear
    except ImportError as exc:
        raise SetupError(f"cannot import exchange_clear from {SRC}: {exc}") from None
    origin = Path(exchange_clear.__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"exchange_clear was imported from {origin}, not from {SRC}")
    try:
        import workloads
    except ImportError as exc:
        raise SetupError(f"the workloads cannot import what they use from the package: {exc}") from None
    if not hasattr(workloads.feasibility, "clear_enumeration_cache"):
        raise SetupError("exchange_clear.feasibility has no clear_enumeration_cache")
    return workloads


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def recorded_digest(workload: str, seed: int) -> dict | None:
    doc = json.loads(BASELINE.read_text(encoding="utf-8"))["digests"]
    return doc["workloads"].get(workload) if seed == doc["seed"] else None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "exchange_clear").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "schedule": "one workload per process, one process at a time; closed loop, 1 caller, workers=1",
    }


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Runner:
    """Runs ops of one deck, checking and hashing every output."""

    def __init__(self, wl, deck):
        self.wl = wl
        self.deck = deck
        self.state: dict = {}
        self.digests: dict[int, str] = {}
        self.failures: list[str] = []  # one entry per failed op
        self.problems: list[str] = []  # failed checks of the run as a whole
        self.attempted = 0

    def step(self, index: int, call=None) -> float:
        """Run deck[index] once; returns the op's latency in seconds."""
        wl, task = self.wl, self.deck[index]
        wl.prepare(task)
        started = time.perf_counter()
        try:
            result = call(index, wl.op, task) if call else wl.op(task)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            latency = time.perf_counter() - started
            self._record(index, f"raised {type(exc).__name__}", f"{type(exc).__name__}: {exc}")
            return latency
        latency = time.perf_counter() - started
        text = wl.output(task, result)
        failure = None
        try:
            wl.check(task, result, self.state)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        self._record(index, text, failure)
        return latency

    def _record(self, index: int, text: str, failure: str | None) -> None:
        self.attempted += 1
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(index, digest)
        if failure is None and first != digest:
            failure = "output differs from the first run of the same op"
        if failure is not None:
            self.failures.append(f"op {index}: {failure}")

    def prefix_digest(self, ops: int) -> str:
        return hashlib.sha256("".join(self.digests[i] for i in range(ops)).encode()).hexdigest()


def setup_seconds(args) -> list[tuple[float, float]]:
    """Set-up times measured in fresh processes (import, generate, write):
    (host-speed-scaled seconds, wall seconds) per process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        scaled, wall = done.stdout.split()[-2:]
        samples.append((float(scaled), float(wall)))
    return samples


def timed_pass(runner: Runner, seconds: float):
    """Closed loop over the deck for `seconds`; the deck restarts cold if a
    run gets through all of it.  Returns each op's (scaled, wall) latency
    and the (scaled, wall) seconds of the loop, kernel samples left out."""
    from workloads import reset_cache

    clock = hostspeed.Clock()
    windows, latencies = [], []
    size = len(runner.deck)
    reset_cache()
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        windows.append(clock.window())
        if i and i % size == 0:
            reset_cache()
        latencies.append(runner.step(i % size))
        i += 1
    scale = clock.close()
    scaled = [latency * scale[w] for latency, w in zip(latencies, windows)]
    scaled_wall = sum(wall * f for wall, f in zip(clock.walls, scale))
    return list(zip(scaled, latencies)), (scaled_wall, sum(clock.walls))


def run_timed(args, wl, deck, ops_per_round, lines) -> tuple[dict, Runner]:
    runner = Runner(wl, deck)
    latencies, (wall, raw_wall) = timed_pass(runner, args.seconds)
    timed_ops, timed_failed = runner.attempted, len(runner.failures)
    for index in range(len(latencies), ops_per_round):  # finish the checked round
        runner.step(index)
    setup = setup_seconds(args)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(latencies)
    ms = sorted(1000.0 * scaled for scaled, _ in latencies)
    raw_ms = sorted(1000.0 * raw for _, raw in latencies)
    p90, beyond = percentile(ms, 0.9)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s",
                    f"median of {len(setup)} set-ups in fresh processes; "
                    f"wall {statistics.median(w for _, w in setup):.4f}"),
        "ops_per_s": (n / wall, "1/s", f"n={n} ops in {wall:.2f} s; wall {n / raw_wall:.4f}"),
        "op_ms_p50": (statistics.median(ms), "ms", f"n={n}; wall {statistics.median(raw_ms):.4f}"),
        "op_ms_p90": (p90, "ms", f"n={n}, {beyond} samples beyond; wall {percentile(raw_ms, 0.9)[0]:.4f}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
    }
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:<14} {value:>12.4f} {unit:<5} ({note})")
    lines.append(
        f"  {'failed_frac':<14} {timed_failed / timed_ops:>12.4f} {'':<5} "
        f"({timed_failed} failed of {timed_ops} attempted; reported as `failed`/`attempted`)"
    )
    return {k: (v[0], v[1]) for k, v in metrics.items()}, runner


def run_traced(args, wl, deck, lines) -> tuple[dict, Runner]:
    try:
        import spans
    except ImportError as exc:
        raise SetupError(f"the traced run cannot read the enumeration cache: {exc}") from None
    missing = spans.missing_targets()
    if missing:
        raise SetupError("the traced run cannot wrap " + ", ".join(missing) + "; update bench/spans.py")

    from workloads import reset_cache

    plain = Runner(wl, deck)
    reset_cache()
    started = time.perf_counter()
    for index in range(len(deck)):
        plain.step(index)
    untraced_wall = time.perf_counter() - started

    runner = Runner(wl, deck)
    rec = spans.SpanRecorder()
    reset_cache()
    with spans.installed(rec):
        started = time.perf_counter()
        for index in range(len(deck)):
            runner.step(index, rec.run_op)
        traced_wall = time.perf_counter() - started
    runner.failures += plain.failures
    runner.attempted += plain.attempted
    for index, digest in plain.digests.items():
        if runner.digests.get(index) != digest:
            runner.failures.append(f"op {index}: traced output differs from untraced output")

    metrics, bases = spans.layer_metrics(rec, untraced_wall, traced_wall)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
    rec.write(spans_path)
    lines.append(f"  {len(deck)} ops, untraced {untraced_wall:.2f} s, traced {traced_wall:.2f} s; "
                 f"{len(rec.name)} spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        note = f" ({bases[name]})" if name in bases else ""
        lines.append(f"  {name:<28} {value:>14.4f} {unit}{note}")
    return metrics, runner


def run_workload(args) -> int:
    try:
        workloads = load_workloads()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    rounds = 1 if args.smoke else (wl.trace_rounds if args.trace else wl.rounds)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        deck = wl.build(args.seed, workdir, rounds)
        ops_per_round = len(deck) // rounds
        mode = "traced" if args.trace else f"timed for {args.seconds} s"
        lines = [f"{args.workload} seed={args.seed} {mode}, {len(deck)} ops in deck ({rounds} rounds)"]
        if args.trace:
            metrics, runner = run_traced(args, wl, deck, lines)
        else:
            metrics, runner = run_timed(args, wl, deck, ops_per_round, lines)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = runner.prefix_digest(ops_per_round)
    lines.append(f"digest {digest} over the first {ops_per_round} ops")
    expected = recorded_digest(args.workload, args.seed)
    if expected is not None and expected["ops"] == ops_per_round:
        matched = expected["sha256"] == digest
        lines.append(f"digest {'matches' if matched else 'DIFFERS FROM'} the one recorded for seed {args.seed}")
        if not matched:
            runner.problems.append("output digest differs from the recorded one")
    for failure in (runner.failures + runner.problems)[:20]:
        lines.append(f"FAILED {failure}")
    print("\n".join(lines))
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": not (runner.failures or runner.problems),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_setup_only(args) -> int:
    """One set-up, timed in this fresh process: prints its host-speed-scaled
    seconds and its wall seconds."""
    before = hostspeed.sample(SETUP_KERNEL_REPEATS)
    started = time.perf_counter()
    try:
        workloads = load_workloads()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=WORK_DIR))
    try:
        wl.build(args.seed, workdir, 1 if args.smoke else wl.rounds)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = hostspeed.sample(SETUP_KERNEL_REPEATS)
    print(repr(elapsed * hostspeed.factor((before + after) / 2.0)), repr(elapsed))
    return 0


def run_child(args, workload: str, trace: int, hashseed: str) -> tuple[int, list[str], dict | None]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
           "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
    out = done.stdout.strip().splitlines()
    if done.stderr.strip():
        print(done.stderr.strip(), file=sys.stderr)
    try:
        result = json.loads(out[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return done.returncode, out[:-1], result


def run_all(args) -> int:
    names = [w["name"] for w in declared()["workloads"]]
    problems = []
    for name in names:
        digests = []
        for trace, hashseed in ((0, "0"), (1, "7")):
            code, lines, result = run_child(args, name, trace, hashseed)
            print("\n".join(lines))
            print(f"  [exit {code}, PYTHONHASHSEED={hashseed}]\n")
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{name} trace={trace}: exit {code}")
                continue
            digests += [line.split()[1] for line in lines if line.startswith("digest ") and " over " in line]
            if args.smoke:
                kind = "per_layer" if trace else "end_to_end"
                want = sorted(m["name"] for m in declared()[kind])
                if sorted(result["metrics"]) != want:
                    problems.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])} != declared {want}")
        if len(set(digests)) > 1:
            problems.append(f"{name}: output digests differ between PYTHONHASHSEED 0 and 7")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("all workloads:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload in this process (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed run length (default: run_seconds of BENCHMARK.json, 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of each deck")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(declared()["run_seconds"])
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        return run_setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
