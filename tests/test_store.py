import random
import sqlite3
import threading
from datetime import datetime, timezone

import pytest

from ochub.graph import DF_SNAPSHOT_TO_EVENT, build_case_graph
from ochub.schema import Batch, TABLES, TABLE_COLUMNS
from ochub.quality import run_checkpoint
from ochub.store import (
    AppendConflictError,
    StagedBatch,
    StatsReport,
    StoreError,
    StoreLayoutError,
    StoreNotFoundError,
    UnknownIdError,
    open_store,
)
from ochub.util import TimestampError, normalize_timestamp
from oracles import (
    brute_canonicalize,
    brute_checkpoint,
    brute_o2o_valid_at,
    brute_timeline,
    brute_timeline_events,
)
from conftest import clean_fixture_batch


def two_events_batch():
    b = Batch()
    b.add("event_types", id="et:a", description="a")
    b.add("events", id="e1", event_type_id="et:a",
          timestamp="2024-01-01T10:00:00.000Z")
    b.add("events", id="e2", event_type_id="et:a",
          timestamp="2024-01-01T11:00:00.000Z")
    return b


class TestOpenStore:
    def test_creates_empty_store_with_all_tables(self, tmp_path):
        store = open_store(tmp_path / "hub.db", create_if_missing=True)
        assert set(store.table_inventory()) == set(TABLES)
        for table in TABLES:
            assert store.row_count(table) == 0
        store.close()

    def test_reopen_preserves_rows(self, tmp_path):
        path = tmp_path / "hub.db"
        store = open_store(path)
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        for i in range(3):
            b.add("events", id=f"e{i}", event_type_id="et:a",
                  timestamp="2024-01-01T10:00:00.000Z")
        store.append_batch(b)
        store.close()
        reopened = open_store(path, create_if_missing=False)
        assert reopened.row_count("events") == 3
        reopened.close()

    def test_missing_store_errors(self, tmp_path):
        with pytest.raises(StoreNotFoundError, match="store not found"):
            open_store(tmp_path / "nope.db", create_if_missing=False)

    def test_non_store_file_errors(self, tmp_path):
        """A database without ``hub_meta``, or a file that is no SQLite
        database, is no hub store."""
        path = tmp_path / "junk.db"
        import sqlite3
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        text = tmp_path / "text.db"
        text.write_text("not a database, " * 100)
        for path in (path, text):
            with pytest.raises(StoreLayoutError, match="not a hub store"):
                open_store(path, create_if_missing=False)


    @pytest.mark.parametrize("version", ["2", None])
    def test_unknown_layout_version_errors(self, tmp_path, capsys, version):
        """A store whose layout_version is not "1", or that has none, is not
        opened, and ``ochub stats`` on it is an I/O error (exit 3)."""
        from ochub.cli import EXIT_IO, run

        path = tmp_path / "hub.db"
        open_store(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DELETE FROM hub_meta WHERE key = 'layout_version'")
            if version is not None:
                conn.execute("INSERT INTO hub_meta VALUES ('layout_version', ?)",
                             (version,))
        conn.close()
        message = f"unrecognized layout version {version!r} in {path}"
        for create in (True, False):
            with pytest.raises(StoreLayoutError) as err:
                open_store(path, create_if_missing=create)
            assert str(err.value) == message
        capsys.readouterr()
        assert run(["stats", "--store", str(path)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_directory_stands_for_hub_db_inside(self, tmp_path):
        """An existing directory opens, or creates, the ``hub.db`` in it."""
        with open_store(tmp_path) as store:
            assert store.path == str(tmp_path / "hub.db")
            store.append_batch(clean_fixture_batch())
        events = len(clean_fixture_batch().rows["events"])
        for path in (tmp_path, tmp_path / "hub.db"):
            with open_store(path, create_if_missing=False) as store:
                assert store.row_count("events") == events

    def test_failed_layout_leaves_no_table(self, tmp_path, monkeypatch):
        """The layout is one transaction: a statement failing late leaves a
        file without tables, which ``ochub init`` then lays out."""
        import ochub.store as store_mod
        from ochub.cli import EXIT_OK, run

        path = tmp_path / "hub.db"
        monkeypatch.setattr(store_mod, "_INDEXES", store_mod._INDEXES + (
            ("idx_late", "events", "no_such_column"),))
        with pytest.raises(sqlite3.OperationalError, match="no_such_column"):
            open_store(path)
        with sqlite3.connect(path) as conn:
            assert conn.execute("SELECT count(*) FROM sqlite_master").fetchone() == (0,)
        monkeypatch.undo()
        with pytest.raises(StoreLayoutError, match="not a hub store"):
            open_store(path, create_if_missing=False)
        assert run(["init", str(path)]) == EXIT_OK
        with open_store(path, create_if_missing=False) as store:
            assert set(store.table_inventory()) == set(TABLES)


class TestAppendBatch:
    def test_additive(self, store):
        summary = store.append_batch(two_events_batch())
        assert summary["events"] == 2
        assert store.row_count("events") == 2

    def test_idempotent(self, store):
        store.append_batch(two_events_batch())
        summary = store.append_batch(two_events_batch())
        assert summary["events"] == 0
        assert store.row_count("events") == 2

    def test_conflict_leaves_store_unchanged(self, store):
        store.append_batch(two_events_batch())
        before = store.dump()
        conflicting = Batch()
        conflicting.add("events", id="e1", event_type_id="et:a",
                        timestamp="2024-06-01T00:00:00.000Z")
        with pytest.raises(AppendConflictError):
            store.append_batch(conflicting)
        assert store.dump() == before

    def test_conflict_aborts_whole_batch(self, store):
        store.append_batch(two_events_batch())
        mixed = Batch()
        mixed.add("events", id="e9", event_type_id="et:a",
                  timestamp="2024-01-02T00:00:00.000Z")
        mixed.add("events", id="e1", event_type_id="et:a",
                  timestamp="2024-06-01T00:00:00.000Z")
        with pytest.raises(AppendConflictError):
            store.append_batch(mixed)
        assert not store.has_id("events", "e9")

    @pytest.mark.parametrize("bad_id", [None, ""])
    def test_null_or_empty_id_rejected(self, store, bad_id):
        store.append_batch(two_events_batch())
        before = store.dump()
        bad = Batch()
        bad.add("events", id="e9", event_type_id="et:a",
                timestamp="2024-01-02T00:00:00.000Z")
        bad.add("objects", id=bad_id, object_type_id="ot:x")
        bad.add("objects", id=bad_id, object_type_id="ot:y")
        with pytest.raises(StoreError, match=r"2 row\(s\) in objects"):
            store.append_batch(bad)
        assert store.dump() == before
        assert store.batch_clock() == 1

    def test_staged_batch_holds_no_lock(self, store):
        # the staging checkpoint stages the batch and reads the store; after
        # it another connection can still write
        import sqlite3
        from ochub.quality import run_checkpoint
        run_checkpoint(two_events_batch(), "staging", store=store)
        other = sqlite3.connect(store.path, timeout=0)
        try:
            other.execute("BEGIN IMMEDIATE")
            other.execute("INSERT INTO event_types VALUES ('et:b', 'b')")
            other.commit()
        finally:
            other.close()
        assert store.row_count("events") == 0
        assert store.append_batch(two_events_batch())["events"] == 2

    def test_concurrent_writers_lose_no_conflict(self, tmp_path):
        """Writer B appends obj:1 with other content after writer A has
        staged and checked obj:1, just before A inserts: exactly one batch
        is stored and the other raises AppendConflictError."""
        path = tmp_path / "hub.db"
        open_store(path).close()
        outcomes = {}

        def append(name, trace=None):
            batch = Batch()
            batch.add("objects", id="obj:1", object_type_id="ot:x",
                      description=f"from {name}")
            store = open_store(path)
            store.connection().set_trace_callback(trace)
            try:
                outcomes[name] = store.append_batch(batch)["objects"]
            except AppendConflictError:
                outcomes[name] = "conflict"
            finally:
                store.close()

        writer_b = threading.Thread(target=append, args=("B",))

        def before_statement(sql):
            # A's first insert into the store: B writes now, and gets half a
            # second to finish unless A holds the write lock
            if sql.startswith("INSERT INTO main.") and not writer_b.ident:
                writer_b.start()
                writer_b.join(timeout=0.5)

        append("A", before_statement)
        writer_b.join(timeout=30)
        assert not writer_b.is_alive()
        assert sorted(outcomes.values(), key=str) == [1, "conflict"]
        winner = "A" if outcomes["A"] == 1 else "B"
        store = open_store(path)
        assert store.get_row("objects", "obj:1")["description"] == f"from {winner}"
        assert store.batch_clock() == 1
        store.close()

    def test_timestamps_normalized_on_ingest(self, store):
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        b.add("events", id="e1", event_type_id="et:a",
              timestamp="2024-01-01 10:00:00+01:00")
        store.append_batch(b)
        assert store.get_row("events", "e1")["timestamp"] == \
            "2024-01-01T09:00:00.000Z"

    def test_batch_clock_increments(self, store):
        assert store.batch_clock() == 0
        store.append_batch(two_events_batch())
        assert store.batch_clock() == 1


# timestamps a batch may carry: canonical-looking but invalid, a trailing
# newline, non-ASCII digits, no milliseconds, an offset, empty and None
HOSTILE_TIMESTAMPS = (
    "2024-01-01T10:00:00.000Z",
    "2023-02-29T00:00:00.000Z",
    "0000-01-01T00:00:00.000Z",
    "2024-01-01T10:00:00.000Z\n",
    "\u0662\u0660\u0662\u0664-01-01T00:00:00.000Z",
    "2024-01-01T10:00:00Z",
    "2024-01-01T12:00:00.000+02:00",
    "",
    None,
)
# values that are not text: the staging checkpoint flags all but the datetime
NON_TEXT_TIMESTAMPS = (20240101, 1.5, datetime(2024, 1, 1, 9, tzinfo=timezone.utc))


def as_stored(values):
    """``values`` as staging has always stored them: each normalized,
    kept verbatim where it does not parse, then through a TEXT column."""
    def normalized(value):
        try:
            return normalize_timestamp(value)
        except TimestampError:
            return value

    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (timestamp TEXT)")
        conn.executemany("INSERT INTO t VALUES (?)", [
            (value if value is None else normalized(value),) for value in values])
        return [value for value, in conn.execute("SELECT timestamp FROM t ORDER BY rowid")]
    finally:
        conn.close()


def timestamps_batch(values):
    b = Batch()
    b.add("event_types", id="et:a", description="a")
    for i, value in enumerate(values):
        b.add("events", id=f"e{i}", event_type_id="et:a", timestamp=value)
    return b


def staged_timestamps(store):
    return [value for value, in store.connection().execute(
        "SELECT timestamp FROM temp.staged_events ORDER BY rowid")]


class TestStagedBatch:
    def test_handle_counts_rows_and_holds_none(self, store):
        batch = two_events_batch()
        staged = store.stage(batch)
        assert isinstance(staged, StagedBatch)
        assert staged.total_rows() == 3
        assert staged.counts["events"] == 2
        # rows added after staging are neither checked nor appended
        batch.add("events", id="e3", event_type_id="et:a",
                  timestamp="2024-01-01T12:00:00.000Z")
        assert run_checkpoint(staged, "staging", store=store).scanned["events"] == 2
        assert store.append_batch(staged)["events"] == 2
        assert not store.has_id("events", "e3")

    def test_stale_handle_raises_and_writes_nothing(self, store):
        store.append_batch(two_events_batch())
        before, clock = store.dump(), store.batch_clock()
        extra = Batch()
        extra.add("events", id="e9", event_type_id="et:a",
                  timestamp="2024-01-02T00:00:00.000Z")
        stale = store.stage(extra)
        store.stage(two_events_batch())
        for use in (store.append_batch,
                    lambda h: run_checkpoint(h, "staging", store=store)):
            with pytest.raises(StoreError, match="stale"):
                use(stale)
        assert store.dump() == before
        assert store.batch_clock() == clock

    def test_foreign_handle_raises_and_writes_nothing(self, store, tmp_path):
        other = open_store(tmp_path / "other.db")
        try:
            foreign = other.stage(two_events_batch())
            with pytest.raises(StoreError, match="another store"):
                store.append_batch(foreign)
        finally:
            other.close()
        assert store.dump() == {table: [] for table in TABLES}
        assert store.batch_clock() == 0

    @pytest.mark.parametrize("table, width", [
        ("event_types", 1), ("event_types", 3), ("events", 2), ("events", 3),
        ("events", 5),
    ])
    def test_row_of_another_width_raises_and_writes_nothing(self, store, table,
                                                            width):
        """A row put straight into Batch.rows that is narrower or wider than
        its table's columns makes stage and append_batch raise; the store is
        unchanged and a later good batch stages and appends."""
        store.append_batch(clean_fixture_batch())
        before, clock = store.dump(), store.batch_clock()
        batch = two_events_batch()
        batch.rows[table].append(tuple(f"x{i}" for i in range(width)))
        for use in (store.stage, store.append_batch):
            with pytest.raises(StoreError, match=(
                    f"cannot stage a {table} row of "
                    f"{len(TABLE_COLUMNS[table])} columns")):
                use(batch)
            assert store.dump() == before
            assert store.batch_clock() == clock
        assert store.append_batch(two_events_batch()) == {
            **{t: 0 for t in TABLES}, "event_types": 1, "events": 2}
        assert store.batch_clock() == clock + 1

    def test_hostile_timestamps_stage_as_before(self, store):
        values = HOSTILE_TIMESTAMPS + NON_TEXT_TIMESTAMPS
        store.stage(timestamps_batch(values))
        assert staged_timestamps(store) == as_stored(values)

    def test_appended_timestamp_is_canonical_text(self, store):
        store.append_batch(timestamps_batch(["2024-01-01T10:00:00.000Z\n"]))
        assert store.get_row("events", "e0")["timestamp"] == \
            "2024-01-01T10:00:00.000Z"

    def test_hostile_timestamps_report_as_before(self, store):
        batch = timestamps_batch(HOSTILE_TIMESTAMPS)
        report = run_checkpoint(batch, "staging", store=store)
        assert staged_timestamps(store) == as_stored(HOSTILE_TIMESTAMPS)
        violations, status, scanned = brute_checkpoint(batch, store)
        assert [(v.check, v.table, v.key, v.detail) for v in report.violations] \
            == [v[:4] for v in violations]
        assert (report.check_status, report.scanned) == (status, scanned)


def hostile_rows(rng, table):
    """Rows for ``table`` with a small id pool (empty and None included),
    None beside "None", 1 beside "1", and exact repeats (the same tuple and
    an equal copy)."""
    cols = TABLE_COLUMNS[table]
    values = ("v", "None", None, "", "1", 1)
    rows = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if rows and kind < 0.3:
            row = rng.choice(rows)
            rows.append(row if kind < 0.1 else tuple(list(row)))
            continue
        rows.append((rng.choice(("a", "b", "c", "", None)),
                     *(rng.choice(values) for _ in cols[1:])))
    return rows


def participation_batch():
    """One object participating in events and receiving updates."""
    b = clean_fixture_batch()
    return b


class TestObjectTimeline:
    def test_timestamp_order(self, store):
        store.append_batch(clean_fixture_batch())
        entries = store.object_timeline("obj:i1")
        assert [e.event_id for e in entries if e.kind == "event"] == \
            ["ev:1", "ev:3"]

    def test_equal_timestamp_tie_break_on_type_then_id(self, store):
        b = Batch()
        b.add("event_types", id="q2", description="B")
        b.add("event_types", id="q1", description="A")
        b.add("object_types", id="ot:x", description="x")
        b.add("objects", id="o1", object_type_id="ot:x")
        t = "2024-01-01T10:00:00.000Z"
        b.add("events", id="eB", event_type_id="q2", timestamp=t)
        b.add("events", id="eA", event_type_id="q1", timestamp=t)
        b.add("relation_qualifiers", id="q:r", description="r", datatype="string")
        for i, eid in enumerate(("eB", "eA")):
            b.add("event_to_object", id=f"r{i}", event_id=eid, object_id="o1",
                  qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        entries = store.object_timeline("o1")
        assert [e.event_id for e in entries] == ["eA", "eB"]

    def test_null_type_event_comes_first_as_in_case_graph(self, store):
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        b.add("object_types", id="ot:x", description="x")
        b.add("objects", id="o1", object_type_id="ot:x")
        b.add("relation_qualifiers", id="q:r", description="r", datatype="string")
        t = "2024-01-01T10:00:00.000Z"
        b.add("events", id="eA", event_type_id="et:a", timestamp=t)
        b.add("events", id="eN", event_type_id=None, timestamp=t)
        for i, eid in enumerate(("eA", "eN")):
            b.add("event_to_object", id=f"r{i}", event_id=eid, object_id="o1",
                  qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        assert [e.event_id for e in store.object_timeline("o1")] == ["eN", "eA"]
        # the graph serializes the tie the same way: eA comes last
        graph = build_case_graph(store)
        assert [fields[4] for fields in graph.snapshot_nodes.values()] == ["et:a"]
        assert {(start, end) for kind, start, end, _, _ in graph.edges
                if kind == DF_SNAPSHOT_TO_EVENT} == {(f"s:o1@{t}", "e:eA")}

    def test_update_between_events_is_standalone_entry(self, store):
        store.append_batch(clean_fixture_batch())
        extra = Batch()
        extra.add("object_attribute_values", id="oav:mid", object_id="obj:i1",
                  object_attribute_id="oa:item.color",
                  timestamp="2024-03-01T09:30:00.000Z", attribute_value="blue")
        store.append_batch(extra)
        entries = store.object_timeline("obj:i1")
        assert [e.kind for e in entries] == ["event", "update", "event"]
        assert entries[1].updated_attribute_ids == ("oa:item.color",)

    def test_update_at_event_timestamp_merges(self, store):
        store.append_batch(clean_fixture_batch())
        entries = store.object_timeline("obj:i1")
        # oav:1 shares ev:1's timestamp and merges into the event entry
        assert entries[0].kind == "event"
        assert entries[0].updated_attribute_ids == ("oa:item.color",)
        assert all(e.kind == "event" for e in entries)

    def test_event_order_matches_brute_force(self, store):
        b = clean_fixture_batch()
        # a second relation row for (ev:1, obj:i1), and two updates of obj:b1
        # at ev:3's timestamp whose id order differs from attribute order
        b.add("event_to_object", id="e2o:9", event_id="ev:1", object_id="obj:i1",
              qualifier_id="q:contains", qualifier_value="contains")
        b.add("object_attributes", id="oa:box.a", object_type_id="ot:box",
              description="a", datatype="string")
        b.add("object_attribute_values", id="oav:0", object_id="obj:b1",
              object_attribute_id="oa:box.size",
              timestamp="2024-03-01T10:00:00.000Z", attribute_value="M")
        b.add("object_attribute_values", id="oav:9", object_id="obj:b1",
              object_attribute_id="oa:box.a",
              timestamp="2024-03-01T10:00:00.000Z", attribute_value="x")
        store.append_batch(b)
        for object_id in ("obj:i1", "obj:i2", "obj:b1"):
            timeline = store.object_timeline(object_id)
            assert timeline == brute_timeline(store, object_id)
            assert [e.event_id for e in timeline if e.kind == "event"] == \
                brute_timeline_events(store, object_id)
        assert [e.event_id for e in store.object_timeline("obj:i1")] == \
            ["ev:1", "ev:3"]
        assert store.object_timeline("obj:b1")[0].value_ids == \
            ("oav:0", "oav:2", "oav:9")

    def test_unknown_object_errors(self, store):
        with pytest.raises(UnknownIdError):
            store.object_timeline("obj:ghost")


class TestO2OValidAt:
    def setup_relation(self, store, rows):
        b = Batch()
        b.add("object_types", id="ot:p", description="person")
        b.add("objects", id="alice", object_type_id="ot:p")
        b.add("objects", id="bob", object_type_id="ot:p")
        b.add("relation_qualifiers", id="q:role", description="reports_to",
              datatype="string")
        for i, (ts, value) in enumerate(rows):
            b.add("object_to_object", id=f"rel{i}", source_object_id="alice",
                  target_object_id="bob", timestamp=ts, qualifier_id="q:role",
                  qualifier_value=value)
        store.append_batch(b)

    def test_value_inside_interval(self, store):
        self.setup_relation(store, [
            ("2024-01-01T00:00:00.000Z", "manager"),
            ("2024-03-01T00:00:00.000Z", None),
        ])
        assert store.o2o_valid_at(
            "alice", "bob", "q:role", "2024-02-01T00:00:00.000Z"
        ) == "manager"

    def test_terminated_relation_is_absent(self, store):
        self.setup_relation(store, [
            ("2024-01-01T00:00:00.000Z", "manager"),
            ("2024-03-01T00:00:00.000Z", None),
        ])
        assert store.o2o_valid_at(
            "alice", "bob", "q:role", "2024-04-01T00:00:00.000Z"
        ) is None

    def test_boundary_takes_latest_row(self, store):
        self.setup_relation(store, [
            ("2024-01-01T00:00:00.000Z", "a"),
            ("2024-02-01T00:00:00.000Z", "b"),
        ])
        assert store.o2o_valid_at(
            "alice", "bob", "q:role", "2024-02-01T00:00:00.000Z"
        ) == "b"

    def test_before_first_row_is_absent(self, store):
        self.setup_relation(store, [("2024-01-01T00:00:00.000Z", "a")])
        assert store.o2o_valid_at(
            "alice", "bob", "q:role", "2023-12-31T00:00:00.000Z"
        ) is None

    def test_matches_brute_force_scan(self, store):
        self.setup_relation(store, [
            ("2024-01-01T00:00:00.000Z", "a"),
            ("2024-02-01T00:00:00.000Z", "b"),
            ("2024-03-01T00:00:00.000Z", None),
            ("2024-04-01T00:00:00.000Z", "c"),
        ])
        probes = [
            "2023-12-01T00:00:00.000Z", "2024-01-01T00:00:00.000Z",
            "2024-01-15T00:00:00.000Z", "2024-02-01T00:00:00.000Z",
            "2024-03-15T00:00:00.000Z", "2024-05-01T00:00:00.000Z",
        ]
        for at in probes:
            assert store.o2o_valid_at("alice", "bob", "q:role", at) == \
                brute_o2o_valid_at(store, "alice", "bob", "q:role", at)

    def test_unknown_ids_error(self, store):
        with pytest.raises(UnknownIdError):
            store.o2o_valid_at("x", "y", "q", "2024-01-01T00:00:00.000Z")


class TestSummaryStats:
    def test_empty_store_all_zero(self, store):
        report = store.summary_stats()
        assert all(n == 0 for n in report.table_counts.values())
        assert report.events_per_type == {}

    def test_counts_per_type(self, store):
        b = Batch()
        b.add("event_types", id="et:a", description="A")
        b.add("event_types", id="et:b", description="B")
        for i in range(3):
            b.add("events", id=f"a{i}", event_type_id="et:a",
                  timestamp="2024-01-01T00:00:00.000Z")
        b.add("events", id="b0", event_type_id="et:b",
              timestamp="2024-01-01T00:00:00.000Z")
        store.append_batch(b)
        report = store.summary_stats()
        assert report.events_per_type == {"et:a": 3, "et:b": 1}

    def test_relation_breakdowns(self, store):
        store.append_batch(clean_fixture_batch())
        report = store.summary_stats()
        assert report.e2o_per_qualifier == {"q:handles": 4}
        assert report.e2o_per_type_pair[("et:pick", "ot:item")] == 2
        assert report.e2o_per_type_pair[("et:pack", "ot:box")] == 1
        assert report.object_values_per_attribute == {
            "oa:item.color": 1, "oa:box.size": 1,
        }
        assert report.to_dict()["e2o_per_type_pair"]

    def test_to_dict_lists_fields_in_order(self, store):
        """Every field in declaration order, as a plain dict, except the
        type pairs: a list of records in the report's order."""
        store.append_batch(clean_fixture_batch())
        report = store.summary_stats()
        out = report.to_dict()
        assert list(out) == list(StatsReport._fields)
        assert out["e2o_per_type_pair"] == [
            {"event_type_id": et, "object_type_id": ot, "count": n}
            for (et, ot), n in report.e2o_per_type_pair.items()
        ]
        for name in out.keys() - {"e2o_per_type_pair"}:
            assert out[name] == getattr(report, name)
            assert out[name] is not getattr(report, name)


class TestBatch:
    def test_unknown_table_rejected(self):
        with pytest.raises(KeyError):
            Batch().add("nope", id="x")

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            Batch().add("events", id="x", bogus="y")

    def test_canonicalize_sorts_and_dedupes(self):
        b = Batch()
        b.add("event_types", id="b", description="B")
        b.add("event_types", id="a", description="A")
        b.add("event_types", id="a", description="A")
        b.canonicalize()
        assert [row_id for row_id, _ in b.rows["event_types"]] == ["a", "b"]

    @pytest.mark.parametrize("seed", range(300))
    def test_canonicalize_matches_oracle_on_hostile_batches(self, seed):
        rng = random.Random(seed)
        batch, oracle = Batch(), Batch()
        for table in TABLES:
            batch.rows[table] = hostile_rows(rng, table)
            oracle.rows[table] = list(batch.rows[table])
        batch.canonicalize()
        brute_canonicalize(oracle)
        for table in TABLES:
            kept, expected = batch.rows[table], oracle.rows[table]
            # the same rows in the same order, down to the tuple objects kept
            assert len(kept) == len(expected), table
            assert all(a is b for a, b in zip(kept, expected)), table
