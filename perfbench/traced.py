"""Traced run: the workload's passes (workloads.py) with every ochub CLI
command run in-process through ``ochub.cli.run``, and spans and counts at
each layer boundary.

Spans (name, start, end, parent span, run id) and counts are kept in
memory and written to .perfbench_out/spans-<workload>-seed<N>.jsonl at the
end. All wrappers live here; no ochub code is changed. For the length of a
traced pass they replace the names ``ochub.cli`` calls (the importers,
exporters and ``run_checkpoint``), the functions of ``ochub.graph``,
``quality.run_checkpoint`` (as ``export_graph_csv`` calls it),
``Batch.canonicalize`` and the HubStore methods below. Each CLI command is
a ``cli.<command>`` span, the parent of the layer spans it opens. An
``append_batch`` call that adds no row (a re-sent or conflicting batch) is
a ``store.reappend`` span, every other one a ``store.append`` span.

Counts: SQLite statements (``set_trace_callback``) and VM steps in
thousands (``set_progress_handler``) on every HubStore's connection, rows
read through ``HubStore.table_rows`` and ``HubStore.id_set``, and bytes
written (``wchar`` of /proc/self/io). A layer's self time is its span minus
its child spans.

Each traced pass is paired with the same pass untraced; the difference of
their walls is the tracing overhead. A traced pass over the same workload
generated at half the order count gives the exponents
log2(t(n) / t(n/2)).
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import common
from common import Ops
from workloads import WORKLOADS

VM_STEP_BATCH = 1000

# name -> (unit, better); the per-layer metrics, reported on every workload
# (0 where the workload does not reach the layer).
METRICS = {
    "importers.mapped.s": ("s", "lower"),
    "importers.mapped.rows_out": ("count", "higher"),
    "importers.hubcsv.s": ("s", "lower"),
    "schema.canonicalize.s": ("s", "lower"),
    "quality.staging.s": ("s", "lower"),
    "quality.staging.rows_read": ("count", "lower"),
    "quality.transform.s": ("s", "lower"),
    "quality.transform.rows_read_per_store_row": ("ratio", "lower"),
    "quality.transform.sql_vm_ksteps": ("count", "lower"),
    "quality.transform.exponent": ("log2_ratio", "lower"),
    "quality.graph.s": ("s", "lower"),
    "store.append.s": ("s", "lower"),
    "store.append.rows_offered": ("count", "higher"),
    "store.append.rows_added": ("count", "higher"),
    "store.append.useful_ratio": ("ratio", "higher"),
    "store.append.sql_stmts": ("count", "lower"),
    "store.append.sql_vm_ksteps": ("count", "lower"),
    "store.append.bytes_written_per_row": ("B", "lower"),
    "store.append.exponent": ("log2_ratio", "lower"),
    "store.reappend.s": ("s", "lower"),
    "store.object_timeline.p50_ms": ("ms", "lower"),
    "store.object_timeline.calls": ("count", "lower"),
    "store.o2o_valid_at.p50_ms": ("ms", "lower"),
    "store.o2o_valid_at.calls": ("count", "lower"),
    "store.summary_stats.s": ("s", "lower"),
    "exporters.ocel2.s": ("s", "lower"),
    "exporters.ocel2.rows_read": ("count", "lower"),
    "exporters.ocel2.rows_written": ("count", "higher"),
    "exporters.docel.s": ("s", "lower"),
    "exporters.docel.rows_read": ("count", "lower"),
    "exporters.docel.rows_written": ("count", "higher"),
    "exporters.flatcsv.s": ("s", "lower"),
    "exporters.flatcsv.rows_read": ("count", "lower"),
    "exporters.flatcsv.rows_written": ("count", "higher"),
    "graph.build_case.s": ("s", "lower"),
    "graph.build_case.self_s": ("s", "lower"),
    "graph.build_case.timeline_calls": ("count", "lower"),
    "graph.build_case.o2o_calls": ("count", "lower"),
    "graph.build_case.o2o_hit_ratio": ("ratio", "higher"),
    "graph.build_case.sql_stmts": ("count", "lower"),
    "graph.build_case.exponent": ("log2_ratio", "lower"),
    "graph.build_overview.s": ("s", "lower"),
    "graph.export_csv.s": ("s", "lower"),
    "graph.nodes": ("count", "higher"),
    "graph.edges": ("count", "higher"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

# Metrics that count work; taken from the first traced pass, they repeat
# exactly between runs with the same seed.
COUNTS = tuple(
    name for name, (unit, _) in METRICS.items()
    if unit in ("count", "B", "ratio") and name != "trace.overhead_ratio"
)


def _wchar() -> int:
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Spans, counters and facts (results the metrics need) of one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start_ns, end_ns, counter deltas]
        self.stack = []
        self.stmts = 0
        self.vm_ksteps = 0
        self.rows = 0
        self.o2o_hits = 0
        self.facts: dict = {}

    def _counters(self, io: bool) -> tuple:
        return (self.stmts, self.vm_ksteps, self.rows, self.o2o_hits,
                _wchar() if io else 0)

    @contextmanager
    def span(self, name: str, io: bool = False):
        record = [len(self.spans), self.stack[-1] if self.stack else None, name, 0, 0, None]
        self.spans.append(record)
        self.stack.append(record[0])
        before = self._counters(io)
        record[3] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            record[5] = tuple(b - a for a, b in zip(before, self._counters(io)))
            self.stack.pop()

    def fact(self, name: str, value) -> None:
        self.facts.setdefault(name, []).append(value)

    def total_s(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == name) / 1e9


@contextmanager
def hooks(t: Tracer):
    """Wrap the functions the CLI reaches, for one pass."""
    import ochub.cli as cli
    import ochub.graph as graph_mod
    import ochub.quality as quality
    from ochub.schema import Batch
    from ochub.store import HubStore

    saved = []

    def wrap(owner, attr, make):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def spanned(name, io=False, fact=None):
        def make(original):
            def wrapper(*args, **kwargs):
                with t.span(name, io=io):
                    result = original(*args, **kwargs)
                if fact:
                    t.fact(*fact(result))
                return result
            return wrapper
        return make

    def init(original):
        def statement(_sql):
            t.stmts += 1

        def progress():
            t.vm_ksteps += 1
            return 0

        def wrapper(store, path, conn):
            original(store, path, conn)
            conn.set_trace_callback(statement)
            conn.set_progress_handler(progress, VM_STEP_BATCH)
        return wrapper

    def append(original):
        def wrapper(store, batch):
            with t.span("store.reappend", io=True) as record:
                summary = original(store, batch)
                added = sum(summary.values())
                if added:
                    record[2] = "store.append"
                    t.fact("appends", (batch.total_rows(), added))
            return summary
        return wrapper

    def o2o(original):
        def wrapper(*args, **kwargs):
            with t.span("store.o2o_valid_at"):
                value = original(*args, **kwargs)
            t.o2o_hits += value is not None
            return value
        return wrapper

    def checkpoint(original):
        def wrapper(target, name, *args, **kwargs):
            with t.span(f"quality.{name}"):
                report = original(target, name, *args, **kwargs)
            if name == "transform":
                t.fact("transform_store_rows",
                       sum(common.table_counts(Path(target.path)).values()))
            return report
        return wrapper

    def table_rows(original):
        def wrapper(store, table):
            for row in original(store, table):
                t.rows += 1
                yield row
        return wrapper

    def id_set(original):
        def wrapper(store, table):
            ids = original(store, table)
            t.rows += len(ids)
            return ids
        return wrapper

    def written(layer):
        return lambda summary: (f"{layer}_written", sum(summary.counts.values()))

    def graph_size(case):
        return "graph_size", (len(case.event_nodes) + len(case.snapshot_nodes),
                              len(case.edges))

    wrap(cli, "import_mapped_csv", spanned(
        "importers.mapped", fact=lambda r: ("mapped_rows", r.batch.total_rows())))
    wrap(cli, "import_hub_csv", spanned("importers.hubcsv"))
    wrap(cli, "run_checkpoint", checkpoint)
    wrap(quality, "run_checkpoint", checkpoint)
    wrap(cli, "export_ocel2", spanned("exporters.ocel2", True, written("ocel2")))
    wrap(cli, "export_docel", spanned("exporters.docel", True, written("docel")))
    wrap(cli, "export_flat_csv", spanned("exporters.flatcsv", True, written("flatcsv")))
    wrap(graph_mod, "build_case_graph", spanned("graph.build_case", fact=graph_size))
    wrap(graph_mod, "build_overview_graph", spanned("graph.build_overview"))
    wrap(graph_mod, "export_graph_csv", spanned("graph.export_csv"))
    wrap(Batch, "canonicalize", spanned("schema.canonicalize"))
    wrap(HubStore, "__init__", init)
    wrap(HubStore, "append_batch", append)
    wrap(HubStore, "object_timeline", spanned("store.object_timeline"))
    wrap(HubStore, "o2o_valid_at", o2o)
    wrap(HubStore, "summary_stats", spanned("store.summary_stats"))
    wrap(HubStore, "table_rows", table_rows)
    wrap(HubStore, "id_set", id_set)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class InProcessClient:
    """Runs ochub CLI commands in this process through ``ochub.cli.run``;
    with a tracer, each command is a ``cli.<command>`` span."""

    def __init__(self, tracer: Tracer = None):
        self.tracer = tracer

    def run(self, *args) -> tuple:
        """Returns (exit code, output, wall seconds)."""
        from ochub import cli

        output = io.StringIO()
        span = self.tracer.span(f"cli.{args[0]}") if self.tracer else nullcontext()
        start = time.perf_counter()
        with span, redirect_stdout(output), redirect_stderr(output):
            code = cli.run([str(a) for a in args])
        return code, output.getvalue(), time.perf_counter() - start


def one_pass(setup: common.Setup, tracer, ops: Ops, work: Path,
             reads_seed: int) -> float:
    """One pass of the workload's steps in-process, traced when a tracer is
    given; returns its wall seconds."""
    runner = WORKLOADS[setup.workload](
        setup, InProcessClient(tracer), ops, work, random.Random(reads_seed))
    start = time.perf_counter()
    with hooks(tracer) if tracer else nullcontext():
        runner.one_pass(0)
    return time.perf_counter() - start


# -- metrics -------------------------------------------------------------------

def _layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans
    facts = tracer.facts
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def counter(name, index):
        return sum(s[5][index] for s in by_name.get(name, ()))

    def p50_ms(name):
        times = [(s[4] - s[3]) / 1e6 for s in by_name.get(name, ())]
        return statistics.median(times) if times else 0.0

    m = {name: 0.0 for name in METRICS}
    for layer in ("importers.mapped", "importers.hubcsv", "schema.canonicalize",
                  "quality.staging", "quality.transform", "quality.graph",
                  "store.append", "store.reappend", "store.summary_stats",
                  "exporters.ocel2", "exporters.docel", "exporters.flatcsv",
                  "graph.build_case", "graph.build_overview", "graph.export_csv"):
        m[f"{layer}.s"] = tracer.total_s(layer)
    m["importers.mapped.rows_out"] = sum(facts.get("mapped_rows", ()))
    m["quality.staging.rows_read"] = counter("quality.staging", 2)
    store_rows = sum(facts.get("transform_store_rows", ()))
    if store_rows:
        m["quality.transform.rows_read_per_store_row"] = (
            counter("quality.transform", 2) / store_rows)
    m["quality.transform.sql_vm_ksteps"] = counter("quality.transform", 1)
    offered = sum(r for r, _ in facts.get("appends", ()))
    added = sum(a for _, a in facts.get("appends", ()))
    m["store.append.rows_offered"] = offered
    m["store.append.rows_added"] = added
    m["store.append.useful_ratio"] = added / offered if offered else 0.0
    m["store.append.sql_stmts"] = counter("store.append", 0)
    m["store.append.sql_vm_ksteps"] = counter("store.append", 1)
    if added:
        m["store.append.bytes_written_per_row"] = counter("store.append", 4) / added
    for layer in ("object_timeline", "o2o_valid_at"):
        m[f"store.{layer}.p50_ms"] = p50_ms(f"store.{layer}")
        m[f"store.{layer}.calls"] = len(by_name.get(f"store.{layer}", ()))
    for layer in ("ocel2", "docel", "flatcsv"):
        m[f"exporters.{layer}.rows_read"] = counter(f"exporters.{layer}", 2)
        m[f"exporters.{layer}.rows_written"] = sum(facts.get(f"{layer}_written", ()))
    hits = 0
    for case in by_name.get("graph.build_case", ()):
        children = [s for s in spans if s[1] == case[0]]
        child_ns = sum(s[4] - s[3] for s in children)
        m["graph.build_case.self_s"] += (case[4] - case[3] - child_ns) / 1e9
        m["graph.build_case.timeline_calls"] += sum(
            1 for s in children if s[2] == "store.object_timeline")
        m["graph.build_case.o2o_calls"] += sum(
            1 for s in children if s[2] == "store.o2o_valid_at")
        m["graph.build_case.sql_stmts"] += case[5][0]
        hits += case[5][3]
    if m["graph.build_case.o2o_calls"]:
        m["graph.build_case.o2o_hit_ratio"] = hits / m["graph.build_case.o2o_calls"]
    if "graph_size" in facts:
        m["graph.nodes"], m["graph.edges"] = facts["graph_size"][0]
    m["trace.spans"] = len(spans)
    return m


def _exponents(full: Tracer, half: Tracer) -> dict:
    """log2(t(n) / t(n/2)) of the layers the workload reaches."""
    out = {}
    for layer in ("graph.build_case", "quality.transform", "store.append"):
        t_full, t_half = full.total_s(layer), half.total_s(layer)
        if t_full and t_half:
            out[f"{layer}.exponent"] = math.log2(t_full / t_half)
    return out


def _self_times(tracer: Tracer) -> dict:
    """Span name -> summed self time in seconds."""
    child_ns: dict = {}
    for span in tracer.spans:
        if span[1] is not None:
            child_ns[span[1]] = child_ns.get(span[1], 0) + span[4] - span[3]
    out: dict = {}
    for span in tracer.spans:
        own = span[4] - span[3] - child_ns.get(span[0], 0)
        out[span[2]] = out.get(span[2], 0.0) + own / 1e9
    return out


def run(workload: str, seed: int, orders: int, work: Path, seconds: float) -> tuple:
    """Traced run: set up at the workload's size and at half of it, make an
    untraced warm-up pass, then repeat an untraced pass, the same pass
    traced, and a traced pass at half size until ``seconds`` have elapsed.
    Times are medians over the traced passes; counts come from the first."""
    ops = Ops()
    full = common.prepare(workload, seed, orders, work / "full")
    half = common.prepare(workload, seed, max(8, orders // 2), work / "half")
    for setup in (full, half):
        ops.op("setup", common.load(setup)[1])
    client = common.Client(work)
    startup = statistics.median(client.run("--help")[2] for _ in range(3))
    # the first pass in a process pays for imports and cold caches
    one_pass(full, None, ops, work, reads_seed=0)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        n = len(passes)
        reads_seed = seed * 1000 + n
        plain = one_pass(full, None, ops, work, reads_seed)
        tracer = Tracer(f"{workload}-{seed}-{n}")
        traced = one_pass(full, tracer, ops, work, reads_seed)
        half_tracer = Tracer(f"{workload}-{seed}-{n}-half")
        one_pass(half, half_tracer, ops, work, reads_seed)
        metrics = _layer_metrics(tracer)
        metrics.update(_exponents(tracer, half_tracer))
        metrics["cli.startup_s"] = startup
        metrics["trace.overhead_s"] = traced - plain
        metrics["trace.overhead_ratio"] = (traced - plain) / plain
        passes.append((metrics, tracer, half_tracer))

    first_metrics, first_tracer, _ = passes[0]
    final = {}
    for name, (unit, _) in METRICS.items():
        if name in COUNTS:
            final[name] = (first_metrics[name], unit)
        else:
            final[name] = (statistics.median(p[0][name] for p in passes), unit)

    spans_file = common.OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as handle:
        for tracer in (t for p in passes for t in p[1:]):
            for span_id, parent, name, t0, t1, deltas in tracer.spans:
                handle.write(json.dumps({
                    "run": tracer.run_id, "span": span_id, "parent": parent,
                    "name": name, "start_ns": t0, "end_ns": t1,
                    "sql_stmts": deltas[0], "sql_vm_ksteps": deltas[1],
                    "rows_read": deltas[2], "wchar": deltas[4],
                }) + "\n")
    info = [(f"self_s.{name}", value, "s")
            for name, value in sorted(_self_times(first_tracer).items())]
    info.append(("traced_passes", len(passes), "count"))
    info.append(("failed_ops_ratio", ops.failed / max(1, ops.attempted), "ratio"))
    return final, info, ops, {"spans": str(spans_file.relative_to(common.ROOT))}
