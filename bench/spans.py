"""Span recorder for the traced benchmark run.

The traced run wraps, from outside the package, the names each module looks
up at call time (the functions it imported from other layers, plus the entry
points the benchmark calls).  Every wrapped call records one span: name id,
start, end, parent span and op id.  Spans stay in memory, in flat arrays,
until the run ends; then they are written out once and reduced to per-layer
metrics.  The wrappers are installed only inside :func:`installed` and the
original functions are put back when it exits.

A span belongs to the layer that defines the called function, so a span
around ``auditors.run_mechanism`` (the name ``auditors`` imported from
``mechanisms``) is time spent in the ``mechanisms`` layer.  Self time is a
span's duration minus the time its child spans cover.  The benchmark is
single-threaded, so the children of one span never overlap and their
coverage is the sum of their durations.
"""

from __future__ import annotations

import gzip
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

from exchange_clear import auditors, cli, instances, mechanisms
from exchange_clear.feasibility import _feasible_profiles_cached

LAYERS = ("core", "feasibility", "mechanisms", "auditors", "instances", "cli")

ROOT_SPAN = "bench.op"

# (module whose attribute is replaced, attribute, layer that defines it).
# The attribute is looked up in that module's globals at call time, so
# replacing it intercepts every call the module makes through that name.
# A target the package no longer has stops the traced run: a renamed or
# moved function must be renamed here too, or its time would silently move
# into its caller's self time.  The small core predicates (`satisfies`,
# `covers`) are not wrapped: a span costs more than they do.
TARGETS = (
    # calls into feasibility
    (mechanisms, "feasible_with_profiles", "feasibility"),
    (auditors, "feasible_with_profiles", "feasibility"),
    (auditors, "enumerate_feasible", "feasibility"),
    (cli, "enumerate_feasible", "feasibility"),
    # calls into mechanisms
    (mechanisms, "run_mechanism", "mechanisms"),
    (auditors, "run_mechanism", "mechanisms"),
    (cli, "run_mechanism", "mechanisms"),
    # calls into auditors
    (auditors, "audit_strategyproofness", "auditors"),
    (auditors, "audit_weak_consistency", "auditors"),
    (auditors, "audit_constrained_pareto", "auditors"),
    (auditors, "apply_misreport", "auditors"),
    (cli, "max_satisfied_oracle", "auditors"),
    # calls into instances
    (instances, "serialize", "instances"),
    (cli, "serialize", "instances"),
    (cli, "parse_instance", "instances"),
    # calls into core
    (auditors, "satisfaction_profile", "core"),
    (mechanisms, "satisfaction_profile", "core"),
    (cli, "satisfaction_profile", "core"),
    # the command-line layer: the dispatcher and its own JSON dump
    (cli, "cli_dispatch", "cli"),
    (cli, "_dump", "cli"),
)

# The enumeration cache's hit/miss counters, read before and after each call
# into feasibility.
_CACHE_INFO = _feasible_profiles_cached.cache_info


def missing_targets() -> list[str]:
    """The targets the package no longer has, as module.attribute."""
    return [f"{module.__name__}.{attr}" for module, attr, _ in TARGETS if not hasattr(module, attr)]


class SpanRecorder:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self.op_id = -1

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def rename(self, idx: int, name_id: int) -> None:
        self.name[idx] = name_id

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def run_op(self, op_id: int, fn, *args):
        """Run `fn(*args)` as op `op_id`, under a root span."""
        self.op_id = op_id
        idx = self.open(self.name_id(ROOT_SPAN, "bench"))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.op_id = -1

    def op_seconds(self) -> list[float]:
        root = self._ids[ROOT_SPAN]
        return [self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == root]

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, over spans that belong to an op."""
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            if self.op[i] < 0:
                continue
            name = self.names[self.name[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i] - covered[i])
        return out

    def durations(self) -> dict[str, tuple[int, float]]:
        """(span count, total seconds) per span name, over spans in an op."""
        out: dict[str, tuple[int, float]] = {}
        for i in range(len(self.name)):
            if self.op[i] < 0:
                continue
            name = self.names[self.name[i]]
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + self.end[i] - self.start[i])
        return out

    def write(self, path) -> None:
        """Write every span once, as gzipped columnar JSON (times in ns from
        the first span's start)."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "layers": self.layers,
            "counts": self.counts,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": {
                "name": list(self.name),
                "start_ns": [round((t - t0) * 1e9) for t in self.start],
                "end_ns": [round((t - t0) * 1e9) for t in self.end],
                "parent": list(self.parent),
                "op": list(self.op),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _wrap(rec: SpanRecorder, module, attr: str, layer: str, original):
    span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

    if layer == "feasibility":
        hit_id = rec.name_id(span_name + "[hit]", layer)
        miss_id = rec.name_id(span_name + "[miss]", layer)

        def wrapper(*args, **kwargs):
            before = _CACHE_INFO()
            idx = rec.open(miss_id)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(idx)
            if _CACHE_INFO().hits > before.hits:
                rec.rename(idx, hit_id)
                rec.count("feasibility.hits")
            else:
                rec.count("feasibility.misses")
                allocations = result[0] if isinstance(result, tuple) else result
                rec.count("feasibility.allocs_built", len(allocations))
            return result

        return wrapper

    name_id = rec.name_id(span_name, layer)
    if attr in ("serialize", "_dump"):
        key = "instances.bytes_out" if attr == "serialize" else "cli.bytes_out"

        def wrapper(*args, **kwargs):
            idx = rec.open(name_id)
            try:
                text = original(*args, **kwargs)
            finally:
                rec.close(idx)
            rec.count(key, len(text.encode("utf-8")))
            return text

        return wrapper

    if attr == "audit_weak_consistency":

        def wrapper(*args, **kwargs):
            idx = rec.open(name_id)
            try:
                report = original(*args, **kwargs)
            finally:
                rec.close(idx)
            rec.count("auditors.wc_pairs", report.summary.get("pairs_tested", 0))
            return report

        return wrapper

    def wrapper(*args, **kwargs):
        idx = rec.open(name_id)
        try:
            return original(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


@contextmanager
def installed(rec: SpanRecorder):
    """Replace every target with a span-recording wrapper; restore on exit.
    Raises AttributeError, before replacing anything, if a target is gone."""
    missing = missing_targets()
    if missing:
        raise AttributeError("the package no longer has " + ", ".join(missing))
    saved = []
    try:
        for module, attr, layer in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(rec, module, attr, layer, original))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(rec: SpanRecorder, untraced_wall: float, traced_wall: float) -> dict:
    """Reduce the spans of one traced pass to the per-layer metrics.

    Times are milliseconds per op and counts are per op, so runs of
    different lengths compare; the ratio metrics carry their own base.
    `*.self_ms`, `sp_self_ms`, `wc_self_ms` and `pareto_ms` are self times;
    `apply_misreport_ms` and `oracle_ms` are the whole time of those calls,
    the layers they call included.
    """
    ops = len(rec.op_seconds())
    per_op = 1.0 / ops
    selfs = rec.self_times()
    durs = rec.durations()
    counts = rec.counts

    def self_ms(*names: str) -> float:
        return 1000.0 * per_op * sum(selfs.get(n, 0.0) for n in names)

    def total_ms(predicate) -> float:
        return 1000.0 * per_op * sum(t for n, (_, t) in durs.items() if predicate(n))

    def inclusive_ms(name: str) -> float:
        return total_ms(lambda n: n == name)

    def calls(*names: str) -> int:
        return sum(durs.get(n, (0, 0.0))[0] for n in names)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        layer = rec.layers[rec.names.index(name)]
        if layer in layer_self:
            layer_self[layer] += seconds
    op_total = sum(rec.op_seconds())
    hits = counts.get("feasibility.hits", 0)
    misses = counts.get("feasibility.misses", 0)
    feas_calls = sum(c for n, (c, _) in durs.items() if rec.layers[rec.names.index(n)] == "feasibility")

    metrics = {
        "feasibility.calls": (feas_calls * per_op, "count/op"),
        "feasibility.cache_hit_ratio": (hits / feas_calls if feas_calls else 0.0, "ratio"),
        "feasibility.lookup_ms": (total_ms(lambda n: n.endswith("[hit]")), "ms/op"),
        "feasibility.search_ms": (total_ms(lambda n: n.endswith("[miss]")), "ms/op"),
        "feasibility.allocs_built": (counts.get("feasibility.allocs_built", 0) * per_op, "count/op"),
        "mechanisms.runs": (calls("mechanisms.run_mechanism", "auditors.run_mechanism", "cli.run_mechanism") * per_op, "count/op"),
        "auditors.misreports": (calls("auditors.apply_misreport") * per_op, "count/op"),
        "auditors.apply_misreport_ms": (inclusive_ms("auditors.apply_misreport"), "ms/op"),
        "auditors.sp_self_ms": (self_ms("auditors.audit_strategyproofness"), "ms/op"),
        "auditors.wc_self_ms": (self_ms("auditors.audit_weak_consistency"), "ms/op"),
        "auditors.wc_pairs": (counts.get("auditors.wc_pairs", 0) * per_op, "count/op"),
        "auditors.pareto_ms": (self_ms("auditors.audit_constrained_pareto"), "ms/op"),
        "auditors.oracle_ms": (inclusive_ms("cli.max_satisfied_oracle"), "ms/op"),
        "instances.parse_ms": (self_ms("cli.parse_instance"), "ms/op"),
        "instances.serialize_ms": (self_ms("instances.serialize", "cli.serialize"), "ms/op"),
        "instances.bytes_out": (counts.get("instances.bytes_out", 0) * per_op, "B/op"),
        "cli.dump_ms": (self_ms("cli._dump"), "ms/op"),
        "cli.bytes_out": (counts.get("cli.bytes_out", 0) * per_op, "B/op"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (1000.0 * per_op * layer_self[layer], "ms/op")
    metrics["bench.self_ms"] = (self_ms(ROOT_SPAN), "ms/op")
    metrics["traced_op_ms"] = (1000.0 * per_op * op_total, "ms/op")
    metrics["layer_coverage_frac"] = (sum(layer_self.values()) / op_total, "ratio")
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    bases = {"feasibility.cache_hit_ratio": f"{hits} hits, {misses} misses of {feas_calls} calls"}
    return metrics, bases
