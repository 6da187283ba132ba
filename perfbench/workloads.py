"""The workloads' timed steps, shared by the untraced and the traced run.

A pass runs ochub CLI commands through a client (a subprocess per command
in the untraced run, ``ochub.cli.run`` in-process in the traced run), each
followed by a phase of in-process point reads, and checks every output
against the generator's model.
"""

from __future__ import annotations

import json
import shutil
import statistics
from pathlib import Path

import common
from common import CONFIG, Ops, nonzero


def appended(output: str):
    """The per-table counts an ingest printed; {} for 'nothing new'."""
    for line in output.splitlines():
        if line.startswith("appended: "):
            rest = line[len("appended: "):]
            return {} if rest == "nothing new" else json.loads(rest)
    return None


def exit_problem(code: int, expected: int, output: str) -> list:
    if code == expected:
        return []
    return [f"exit {code} != {expected}: {output.strip()[-300:]}"]


class Workload:
    """The passes of one run over a set-up workload, and what they measured.

    Every timed step is an ochub CLI command followed by a phase of point
    reads, so that reads are spread over the whole run. ``client.run(*args)``
    runs one command and returns (exit code, output, wall seconds).
    """

    def __init__(self, setup: common.Setup, client, ops: Ops, work: Path, rng):
        self.setup = setup
        self.client = client
        self.ops = ops
        self.work = work
        self.rng = rng
        self.steps: dict = {}  # step of the pass -> its wall in every pass
        self.read_s = []  # seconds of point reads, per pass
        self.timeline_ms = []  # every call
        self.o2o_ms = []
        self.phase_p50_ms = {"timeline": [], "o2o": []}  # per read phase
        self.digests: dict = {}  # output name -> digests of its first pass
        self.store_bytes_per_row = []
        self.rows_appended = []  # (rows, wall) per appending ingest

    def cli(self, step: str, *args, expect: int = 0) -> tuple:
        code, output, wall = self.client.run(*args)
        self.steps.setdefault(step, []).append(wall)
        return code, output, exit_problem(code, expect, output)

    def reads(self, db: Path, label: str, timelines=None, relations=None,
              hot_objects=(), hot_relations=()) -> None:
        from ochub.store import open_store

        reads = common.sample_reads(
            self.rng, timelines or self.setup.timelines,
            relations or self.setup.relations, hot_objects, hot_relations)
        timeline_ms, o2o_ms = [], []
        with open_store(str(db), create_if_missing=False) as store:
            problems = common.run_reads(store, reads, timeline_ms, o2o_ms)
        self.read_s[-1] += (sum(timeline_ms) + sum(o2o_ms)) / 1000
        self.timeline_ms += timeline_ms
        self.o2o_ms += o2o_ms
        self.phase_p50_ms["timeline"].append(statistics.median(timeline_ms))
        self.phase_p50_ms["o2o"].append(statistics.median(o2o_ms))
        self.ops.op(label, problems)

    def outputs(self, label: str, path: Path, problems: list) -> None:
        """Record an output's digests; later passes must match the first."""
        digests = common.file_digests(path)
        first = self.digests.setdefault(label, digests)
        if digests != first:
            problems.append("output bytes differ from the first pass")
        self.ops.op(label, problems)

    def one_pass(self, n: int) -> None:
        self.read_s.append(0.0)
        directory = self.work / f"pass{n}"
        directory.mkdir()
        db = self.steps_of_pass(directory)
        counts = common.table_counts(db)
        code, out, problems = self.cli("stats", "stats", "--store", db, "--json")
        if not problems and json.loads(out)["table_counts"] != counts:
            problems.append("stats table counts differ from the store's")
        self.ops.op("stats", problems)
        rows = sum(counts.values())
        self.store_bytes_per_row.append(common.store_bytes(db) / rows)
        shutil.rmtree(directory)

    def pass_s(self) -> float:
        """A pass's steps and reads, each at its median over the passes."""
        med = statistics.median
        return sum(med(walls) for walls in self.steps.values()) + med(self.read_s)


class Bulk(Workload):
    """First load of a mapped-CSV source into a fresh store, the identical
    re-ingest, the transform checkpoint and three read-outs."""

    def steps_of_pass(self, d: Path) -> Path:
        s = self.setup
        model = s.shop.model
        db = d / "hub.db"
        code, out, _ = self.client.run("init", db)
        self.ops.op("init", exit_problem(code, 0, out))
        ingest = ("ingest", "--store", db, "--format", "mapped",
                  "--input", s.source_dir, "--mapping", CONFIG)

        code, out, problems = self.cli("ingest", *ingest)
        expected = nonzero(model.table_counts())
        if appended(out) != expected:
            problems.append(f"appended {appended(out)} != {expected}")
        if nonzero(common.table_counts(db)) != expected:
            problems.append("store table counts differ from the model")
        self.ops.op("ingest", problems)
        self.rows_appended.append((sum(expected.values()), self.steps["ingest"][-1]))
        digest = common.store_digest(db)
        self.reads(db, "reads_after_ingest")

        code, out, problems = self.cli("reingest", *ingest)
        if appended(out) != {}:
            problems.append(f"re-ingest appended {appended(out)}")
        if common.store_digest(db) != digest:
            problems.append("store digest changed")
        self.ops.op("reingest", problems)
        self.reads(db, "reads_after_reingest")

        code, out, problems = self.cli(
            "check_transform", "check", "--store", db, "--checkpoint", "transform")
        self.ops.op("check_transform", problems)
        self.reads(db, "reads_after_check")

        expected = model.export_counts()
        for fmt, target, extra in (
            ("ocel2", d / "log.sqlite", ()),
            ("docel", d / "docel", ()),
            ("flat", d / "flat.csv", ("--case-type", "ot:order")),
        ):
            code, out, problems = self.cli(
                f"export_{fmt}", "export", "--store", db, "--format", fmt,
                "--out", target, *extra)
            if not problems:
                problems += common.export_problems(fmt, target, expected)
            self.outputs(f"export_{fmt}", target, problems)
            self.reads(db, f"reads_after_{fmt}")
        return db

    def extra_metrics(self) -> list:
        med = statistics.median
        return [
            ("ingest_rows_per_s", med(r / w for r, w in self.rows_appended), "rows/s"),
            ("reingest_s", med(self.steps["reingest"]), "s"),
            ("check_transform_s", med(self.steps["check_transform"]), "s"),
            ("export_ocel2_s", med(self.steps["export_ocel2"]), "s"),
            ("export_docel_s", med(self.steps["export_docel"]), "s"),
            ("export_flat_s", med(self.steps["export_flat"]), "s"),
        ]


class Trickle(Workload):
    """Small late hub-CSV batches into a standing store, with point reads
    between them: plain, repaired, re-sent unchanged and conflicting."""

    def steps_of_pass(self, d: Path) -> Path:
        s = self.setup
        db = d / "hub.db"
        shutil.copyfile(s.store, db)
        timelines = dict(s.timelines)
        relations = dict(s.relations)
        expected = s.shop.model.table_counts()
        repaired = False
        for step, (kind, batch, path) in enumerate(s.batches):
            args = ["ingest", "--store", db, "--format", "hubcsv", "--input", path]
            if kind == "repair":
                args.append("--repair-missing-objects")
            before = common.store_digest(db) if kind in ("resend", "conflict") else None
            code, out, problems = self.cli(
                f"ingest{step}_{kind}", *args, expect=4 if kind == "conflict" else 0)
            if kind in ("new", "repair"):
                want = batch.counts()
                if kind == "repair":
                    want["objects"] += len(batch.ghosts)
                    if not repaired:
                        want["object_types"] = 1
                    repaired = True
                if appended(out) != want:
                    problems.append(f"appended {appended(out)} != {want}")
                for table, count in want.items():
                    expected[table] += count
                self.rows_appended.append(
                    (sum(want.values()), self.steps[f"ingest{step}_{kind}"][-1]))
                for object_id, entries in batch.model.timelines().items():
                    timelines[object_id] = timelines.get(object_id, set()) | set(entries)
                for key, start in batch.model.relation_starts().items():
                    relations[key] = min(start, relations.get(key, start))
            elif kind == "resend" and appended(out) != {}:
                problems.append(f"re-sent batch appended {appended(out)}")
            if before is not None and common.store_digest(db) != before:
                problems.append("store digest changed")
            self.ops.op(f"ingest_{kind}", problems)
            self.reads(db, f"reads_after_{kind}", timelines, relations,
                       sorted({o for _, o, _ in batch.model.e2o.values()}),
                       sorted(batch.model.relation_starts()))
        problems = []
        if common.table_counts(db) != expected:
            problems.append("store table counts differ from the model")
        self.ops.op("final_counts", problems)
        return db

    def extra_metrics(self) -> list:
        med = statistics.median
        ingests = [w for step, walls in self.steps.items() if step.startswith("ingest")
                   for w in walls]
        return [
            ("ingest_rows_per_s", med(r / w for r, w in self.rows_appended), "rows/s"),
            (f"ingest_p50_s(n={len(ingests)})", med(ingests), "s"),
        ]


class Graph(Workload):
    """Case and overview graph exports of a standing store, and the graph
    checkpoint over the exported case graph."""

    def steps_of_pass(self, d: Path) -> Path:
        s = self.setup
        expected = s.shop.model.graph_counts()
        for fmt in ("graph-case", "graph-overview"):
            target = d / fmt
            code, out, problems = self.cli(
                fmt.replace("-", "_"), "export", "--store", s.store,
                "--format", fmt, "--out", target)
            if not problems:
                problems += common.export_problems(fmt, target, expected)
            self.outputs(fmt, target, problems)
            self.reads(s.store, f"reads_after_{fmt}")
        code, out, problems = self.cli(
            "check_graph", "check", "--store", s.store, "--checkpoint", "graph",
            "--input", d / "graph-case")
        self.ops.op("check_graph", problems)
        self.reads(s.store, "reads_after_check")
        return s.store

    def extra_metrics(self) -> list:
        med = statistics.median
        return [
            ("graph_case_s", med(self.steps["graph_case"]), "s"),
            ("graph_overview_s", med(self.steps["graph_overview"]), "s"),
        ]


WORKLOADS = {"bulk": Bulk, "trickle": Trickle, "graph": Graph}


