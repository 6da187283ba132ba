"""Set-up and output checks shared by the untraced and the traced run.

Checks read the store and the exported files with the standard library
only (``sqlite3``, ``csv``, ``hashlib``), never through ochub, so a defect
in ochub cannot hide itself from them.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "jaffle_shop.yml"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Orders per workload. Sized so that one pass of timed steps takes a few
# seconds on a 2-core machine and every store stays several times larger
# than SQLite's default 2 MiB page cache.
ORDERS = {"bulk": 700, "trickle": 700, "graph": 1200}

TABLES = (
    "event_types", "event_attributes", "events", "event_attribute_values",
    "object_types", "object_attributes", "objects", "object_attribute_values",
    "relation_qualifiers", "object_to_object", "event_to_object",
    "event_to_object_attribute_value",
)

READS_PER_PHASE = 100
# No ochub command here takes more than a few seconds; one that hangs is
# killed (and fails its op) so that a run still ends in bounded time.
COMMAND_LIMIT_S = 60
HOT_SHARE = 0.8


def require_program() -> None:
    """Exit with code 2 unless the checkout holds the program to measure."""
    missing = [p for p in (SRC / "ochub" / "cli.py", CONFIG) if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Ops:
    """Operations attempted, and the reasons of those that failed.

    An op is one ochub call (CLI command, library call or point-read phase);
    it fails when its exit code, row counts, digests or answers are wrong.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)

    def op(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Setup:
    workload: str
    seed: int
    orders: int
    shop: gen.Shop
    source_dir: Path
    store: Path = None  # standing store (trickle, graph), built by load()
    batches: list = field(default_factory=list)  # trickle: (kind, HubBatch, dir)
    timelines: dict = field(default_factory=dict)
    relations: dict = field(default_factory=dict)


def prepare(workload: str, seed: int, orders: int, directory: Path) -> Setup:
    """Generate the workload's inputs. No ochub code runs here."""
    shop = gen.generate(seed, orders)
    setup = Setup(workload, seed, orders, shop, directory / "source")
    gen.write_mapped(shop, setup.source_dir)
    setup.timelines = {o: set(e) for o, e in shop.model.timelines().items()}
    setup.relations = shop.model.relation_starts()
    if workload == "trickle":
        for kind, batch in gen.trickle_batches(shop, seed):
            path = directory / "batches" / batch.name
            batch.write(path)
            setup.batches.append((kind, batch, path))
    if workload in ("trickle", "graph"):
        setup.store = directory / "standing.db"
    return setup


def load(setup: Setup) -> tuple:
    """The ochub part of set-up: import the mapped source through ochub's
    library and, for trickle and graph, append it to a fresh standing store.
    Returns (wall seconds of the ochub calls, problems); the import must
    give exactly the model's rows."""
    from ochub.importers import MappingConfig, import_mapped_csv
    from ochub.store import open_store

    if setup.store is not None and setup.store.exists():
        setup.store.unlink()
    start = time.perf_counter()
    imported = import_mapped_csv(MappingConfig.from_file(CONFIG), setup.source_dir)
    if setup.store is not None:
        with open_store(str(setup.store)) as store:
            store.append_batch(imported.batch)
    wall = time.perf_counter() - start
    problems = []
    expected = nonzero(setup.shop.model.table_counts())
    if imported.batch.counts() != expected:
        problems.append(f"imported {imported.batch.counts()} != {expected}")
    if imported.skipped:
        problems.append(f"{len(imported.skipped)} source rows skipped")
    return wall, problems


def timed_setups(workload: str, seed: int, orders: int, directory: Path,
                 ops: Ops, times: int, seconds: float):
    """Generate the inputs once, then run the ochub part of set-up at least
    ``times`` times and for at least ``seconds``; returns the Setup and the
    wall time of every ochub part."""
    setup = prepare(workload, seed, orders, directory)
    walls = []
    while len(walls) < times or sum(walls) < seconds:
        wall, problems = load(setup)
        walls.append(wall)
        ops.op("setup", problems)
    return setup, walls


class Client:
    """Runs ochub CLI commands one at a time and keeps their costs."""

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.peak_rss_kb = 0
        self.calls = 0

    def run(self, *args) -> tuple:
        """Returns (exit code, output, wall seconds)."""
        self.calls += 1
        log = self.log_dir / f"cli{self.calls}.log"
        with open(log, "w+", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "ochub.cli", *map(str, args)],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            watchdog = threading.Timer(COMMAND_LIMIT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, text, wall


# -- store and file checks ---------------------------------------------------

def _ro(db: Path) -> sqlite3.Connection:
    return sqlite3.connect(f"file:{db}?mode=ro", uri=True)


def table_counts(db: Path) -> dict:
    conn = _ro(db)
    try:
        return {t: conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0] for t in TABLES}
    finally:
        conn.close()


def store_digest(db: Path) -> str:
    """sha256 over every row of the twelve tables, in id order."""
    digest = hashlib.sha256()
    conn = _ro(db)
    try:
        for table in TABLES:
            digest.update(table.encode())
            for row in conn.execute(f"SELECT * FROM {table} ORDER BY id"):
                digest.update(repr(row).encode())
    finally:
        conn.close()
    return digest.hexdigest()


def store_bytes(db: Path) -> int:
    return sum(
        os.path.getsize(p)
        for p in (db, Path(f"{db}-journal"), Path(f"{db}-wal"))
        if p.exists()
    )


def file_digests(path: Path) -> dict:
    """Relative file name -> sha256 for a file or every file under a dir."""
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    return {
        str(p.relative_to(path.parent)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def csv_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def export_problems(fmt: str, out: Path, expected: dict) -> list:
    """Compare an export's row counts, read from its files, with the model."""
    if fmt == "ocel2":
        conn = _ro(out)
        try:
            got = {
                f"ocel2.{t}": conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0]
                for t in ("event", "object", "event_object", "object_object")
            }
        finally:
            conn.close()
    elif fmt == "docel":
        got = {"docel.events": csv_rows(out / "events.csv"),
               "docel.objects": sum(csv_rows(p) for p in out.glob("objects_*.csv")),
               "docel.dynamic": sum(csv_rows(p) for p in out.glob("dynamic_*.csv"))}
    elif fmt == "flat":
        got = {"flat.rows": csv_rows(out)}
    else:
        prefix = "case" if fmt == "graph-case" else "overview"
        got = {f"{prefix}.nodes": csv_rows(out / "nodes.csv"),
               f"{prefix}.edges": csv_rows(out / "edges.csv")}
    return [
        f"{key} {value} != expected {expected[key]}"
        for key, value in sorted(got.items())
        if value != expected[key]
    ]


# -- point reads ---------------------------------------------------------------

@dataclass
class Reads:
    """Point-read arguments with the answers the model predicts."""

    timelines: list  # (object id, expected entry count)
    relations: list  # (source, target, qualifier id, at, expected value)


def _instant(rng: random.Random) -> str:
    start = gen.YEAR_START.timestamp() - 120 * 86400
    moment = datetime.fromtimestamp(
        start + rng.randrange(2 * gen.SECONDS_PER_YEAR), timezone.utc)
    return gen.ts_text(moment)


def sample_reads(rng: random.Random, timelines: dict, relations: dict,
                 hot_objects=(), hot_relations=(), n: int = READS_PER_PHASE) -> Reads:
    """``n`` timeline and ``n`` relation reads; a HOT_SHARE of them from the
    hot sets when given, the rest uniform over everything."""
    objects = sorted(timelines)
    triples = sorted(relations)
    tl, rel = [], []
    for _ in range(n):
        pool = hot_objects if hot_objects and rng.random() < HOT_SHARE else objects
        object_id = rng.choice(pool)
        tl.append((object_id, len(timelines.get(object_id, ()))))
        pool = hot_relations if hot_relations and rng.random() < HOT_SHARE else triples
        source, target, qualifier = rng.choice(pool)
        at = _instant(rng)
        if rng.random() < 0.5:
            at = relations[source, target, qualifier]
        expected = qualifier if at >= relations[source, target, qualifier] else None
        rel.append((source, target, f"q:{qualifier}", at, expected))
    return Reads(tl, rel)


def run_reads(store, reads: Reads, timeline_ms: list, o2o_ms: list) -> list:
    """Make the reads through ochub; returns problems, appends latencies."""
    problems = []
    clock = time.perf_counter_ns
    for object_id, expected in reads.timelines:
        start = clock()
        entries = store.object_timeline(object_id)
        timeline_ms.append((clock() - start) / 1e6)
        if len(entries) != expected:
            problems.append(f"timeline {object_id}: {len(entries)} entries != {expected}")
    for source, target, qualifier, at, expected in reads.relations:
        start = clock()
        value = store.o2o_valid_at(source, target, qualifier, at)
        o2o_ms.append((clock() - start) / 1e6)
        if value != expected:
            problems.append(f"o2o {source}->{target} at {at}: {value!r} != {expected!r}")
    return problems


def nonzero(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if v}


def machine_gauge_ms() -> float:
    """Wall time of a fixed task that runs no ochub code (dicts, strings and
    an in-memory sqlite3 table): how fast this machine runs right now, to
    tell machine drift from program changes when reading results."""
    start = time.perf_counter()
    rows = {f"k{i:06d}": f"value {i * 7919 % 10007}" for i in range(20000)}
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (id TEXT PRIMARY KEY, v TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", rows.items())
    sum(1 for _ in conn.execute("SELECT * FROM t ORDER BY v"))
    conn.close()
    return (time.perf_counter() - start) * 1000
