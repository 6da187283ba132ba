import csv
import hashlib
import sqlite3

import pytest

from ochub.exporters import (
    ExportError,
    export_docel,
    export_flat_csv,
    export_ocel2,
)
from ochub.cli import EXIT_OK, run
from ochub.importers import import_ocel2
from ochub.schema import Batch
from ochub.store import open_store
from conftest import clean_fixture_batch
from test_acceptance import tiny_log
from test_graph import minimal_batch


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def null_timestamp_batch():
    """minimal_batch() plus ev:3 with a NULL timestamp, linked to obj:1."""
    b = minimal_batch()
    b.add("events", id="ev:3", event_type_id="et:b", timestamp=None,
          description=None)
    b.add("event_to_object", id="e2o:3", event_id="ev:3", object_id="obj:1",
          qualifier_id="q:r", qualifier_value="r")
    return b


def add_null_column_rows(b):
    """Rows append_batch stores although the transform checkpoint flags
    them: an attribute value with a NULL timestamp, one with a NULL
    attribute id, an event-to-object row with a NULL event, object-to-object
    rows with a NULL source or qualifier, and a NULL-event link beside a
    linked one."""
    ts = "2024-01-01T01:00:00.000Z"
    b.add("object_attribute_values", id="oav:nullts", object_id="obj:0",
          object_attribute_id="oa:x.state", timestamp=None, attribute_value="n")
    b.add("object_attribute_values", id="oav:nullattr", object_id="obj:0",
          object_attribute_id=None, timestamp=ts, attribute_value="n")
    b.add("event_to_object", id="e2o:nullev", event_id=None, object_id="obj:0",
          qualifier_id="q:r", qualifier_value="r")
    b.add("object_to_object", id="o2o:nullsrc", source_object_id=None,
          target_object_id="obj:0", timestamp=ts, qualifier_id="q:r",
          qualifier_value="linked")
    b.add("object_to_object", id="o2o:nullq", source_object_id="obj:0",
          target_object_id="obj:0", timestamp=ts, qualifier_id=None,
          qualifier_value="linked")
    for n, event_id in ((1, "ev:null0"), (2, None)):
        b.add("event_to_object_attribute_value", id=f"e2oav:{n}",
              event_id=event_id, object_attribute_value_id="oav:nullts",
              qualifier_id="q:r", qualifier_value="r")


def digest(path):
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() \
        else [path]
    return [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in files]


def test_hostile_null_columns_export_deterministically(tmp_path):
    """Every export of the 30 larger randomized logs, plus rows with NULL
    columns, exits 0 and is byte-identical when repeated."""
    exports = (
        ("ocel2", "log.sqlite"), ("docel", "docel"),
        ("flat", "flat.csv", "--case-type", "ot:x"),
        ("graph-case", "case"), ("graph-overview", "overview"),
    )
    for seed in range(30):
        batch, _ = tiny_log(seed, n_objects=8, n_events=16, n_instants=6,
                            ghosts=2, nulls=True)
        add_null_column_rows(batch)
        path = tmp_path / f"hub{seed}.db"
        store = open_store(path)
        store.append_batch(batch)
        store.close()
        for fmt, name, *extra in exports:
            digests = []
            for attempt in (1, 2):
                out = tmp_path / f"{seed}-{attempt}" / name
                assert run([
                    "export", "--store", str(path), "--format", fmt,
                    "--out", str(out), *extra,
                ]) == EXIT_OK, (seed, fmt)
                digests.append(digest(out))
            assert digests[0] == digests[1], (seed, fmt)


class TestOcel2Export:
    def test_required_tables_present(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        out = tmp_path / "log.sqlite"
        export_ocel2(store, out)
        conn = sqlite3.connect(out)
        tables = {
            row[0] for row in
            conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        conn.close()
        assert {"event", "object", "event_map_type", "object_map_type",
                "event_object", "object_object"} <= tables
        assert {"event_pick_item", "event_pack_box",
                "object_item", "object_box"} <= tables

    def test_conservation(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        out = tmp_path / "log.sqlite"
        export_ocel2(store, out)
        conn = sqlite3.connect(out)
        count = lambda t: conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0]
        assert count("event") == 3
        assert count("object") == 3
        assert count("event_object") == 4
        assert count("object_object") == 1
        # pivot: one row per event in per-type tables, attrs as columns
        assert count("event_pick_item") == 2
        # per-object table: one row per attribute-value update
        assert count("object_item") == 1
        conn.close()

    def test_lossy_drops_are_reported(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        summary = export_ocel2(store, tmp_path / "log.sqlite")
        notes = " ".join(summary.notes)
        assert "event-to-object-attribute-value" in notes

    def test_o2o_flattened_with_qualifier_description(self, store, tmp_path):
        batch = clean_fixture_batch()
        # a temporal O2O pair: same objects, later re-assignment
        batch.add("object_to_object", id="o2o:2", source_object_id="obj:i1",
                  target_object_id="obj:b1", timestamp="2024-03-02T10:00:00.000Z",
                  qualifier_id="q:contains", qualifier_value="contains again")
        store.append_batch(batch)
        out = tmp_path / "log.sqlite"
        export_ocel2(store, out)
        conn = sqlite3.connect(out)
        rows = conn.execute(
            "SELECT ocel_source_id, ocel_target_id, ocel_qualifier "
            "FROM object_object"
        ).fetchall()
        conn.close()
        # flattened to one static row labeled with the qualifier description
        assert rows == [("i1", "b1", "contains")]

    def test_round_trip_fixed_point(self, store, tmp_path):
        from conftest import build_ocel2_sqlite
        log = {
            "event_types": {
                "ship": {
                    "attrs": {"carrier": "TEXT", "priority": "INTEGER"},
                    "events": [
                        ("e1", "2024-01-01 10:00:00", {"carrier": "dhl",
                                                       "priority": 2}),
                        ("e2", "2024-01-02 10:00:00", {"carrier": None,
                                                       "priority": None}),
                    ],
                },
            },
            "object_types": {
                "parcel": {
                    "attrs": {"weight": "REAL", "status": "TEXT"},
                    "rows": [
                        ("p1", "2024-01-01 09:00:00", None,
                         {"weight": 1.5, "status": "new"}),
                        ("p1", "2024-01-03 09:00:00", "status",
                         {"weight": 1.5, "status": "lost"}),
                        ("p2", "2024-01-01 09:00:00", None,
                         {"weight": None, "status": None}),
                    ],
                },
            },
            "event_object": [("e1", "p1", "ships"), ("e2", "p1", "ships"),
                             ("e2", "p2", "checks")],
            "object_object": [("p1", "p2", "follows")],
        }
        source = tmp_path / "in.sqlite"
        build_ocel2_sqlite(source, log)
        original = import_ocel2(source).batch
        store.append_batch(original)
        out = tmp_path / "out.sqlite"
        export_ocel2(store, out)
        reimported = import_ocel2(out).batch
        assert reimported.rows == original.rows

    def test_attribute_column_collision_raises(self, store, tmp_path):
        batch = clean_fixture_batch()
        batch.add("event_attributes", id="ea:pick.qty2", event_type_id="et:pick",
                  description="qty", datatype="integer")
        store.append_batch(batch)
        out = tmp_path / "log.sqlite"
        with pytest.raises(ExportError, match="collision"):
            export_ocel2(store, out)
        assert not out.exists()  # partial output removed


class TestDocelExport:
    def test_file_layout(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        out = tmp_path / "docel"
        summary = export_docel(store, out)
        names = sorted(p.name for p in out.iterdir())
        assert "events.csv" in names
        assert "objects_item.csv" in names and "objects_box.csv" in names
        assert summary.counts["events.csv"] == 3

    def test_static_vs_dynamic_partition(self, store, tmp_path):
        batch = clean_fixture_batch()
        # color changes over time for i1 -> dynamic
        batch.add("object_attribute_values", id="oav:3", object_id="obj:i1",
                  object_attribute_id="oa:item.color",
                  timestamp="2024-03-01T09:30:00.000Z", attribute_value="blue")
        store.append_batch(batch)
        out = tmp_path / "docel"
        export_docel(store, out)
        items = read_csv(out / "objects_item.csv")
        assert "color" not in items[0]  # moved to a dynamic file
        # box size is single-valued but event-linked (e2oav:1) -> also dynamic
        boxes = read_csv(out / "objects_box.csv")
        assert "size" not in boxes[0]
        dynamic = read_csv(out / "dynamic_color.csv")
        assert {(r["object_id"], r["value"]) for r in dynamic} == \
            {("obj:i1", "red"), ("obj:i1", "blue")}

    def test_dynamic_rows_duplicate_per_linked_event(self, store, tmp_path):
        batch = clean_fixture_batch()
        batch.add("event_to_object_attribute_value", id="e2oav:2",
                  event_id="ev:1", object_attribute_value_id="oav:2",
                  qualifier_id="q:handles", qualifier_value="handles")
        store.append_batch(batch)
        export_docel(store, tmp_path / "docel")
        rows = read_csv(tmp_path / "docel" / "dynamic_size.csv")
        linked = [r for r in rows if r["value_id"] == "oav:2"]
        assert {r["event_id"] for r in linked} == {"ev:1", "ev:3"}

    def test_unlinked_dynamic_value_keeps_empty_event_id(self, store, tmp_path):
        batch = clean_fixture_batch()
        batch.add("object_attribute_values", id="oav:3", object_id="obj:i1",
                  object_attribute_id="oa:item.color",
                  timestamp="2024-03-01T09:30:00.000Z", attribute_value="blue")
        store.append_batch(batch)
        export_docel(store, tmp_path / "docel")
        rows = read_csv(tmp_path / "docel" / "dynamic_color.csv")
        assert all(r["event_id"] == "" for r in rows)

    def test_null_timestamp_event_comes_first(self, store, tmp_path):
        store.append_batch(null_timestamp_batch())
        export_docel(store, tmp_path / "docel")
        events = read_csv(tmp_path / "docel" / "events.csv")
        assert [(r["id"], r["timestamp"]) for r in events] == [
            ("ev:3", ""),
            ("ev:1", "2024-01-01T10:00:00.000Z"),
            ("ev:2", "2024-01-01T11:00:00.000Z"),
        ]

    def test_null_timestamp_value_comes_first(self, store, tmp_path):
        batch = minimal_batch()
        batch.add("object_attributes", id="oa:x.size", object_type_id="ot:x",
                  description="size", datatype="string")
        for n, ts in ((1, "2024-01-01T10:00:00.000Z"), (2, None)):
            batch.add("object_attribute_values", id=f"oav:{n}",
                      object_id="obj:1", object_attribute_id="oa:x.size",
                      timestamp=ts, attribute_value=f"v{n}")
        store.append_batch(batch)
        export_docel(store, tmp_path / "docel")
        rows = read_csv(tmp_path / "docel" / "dynamic_size.csv")
        assert [(r["value_id"], r["timestamp"]) for r in rows] == [
            ("oav:2", ""), ("oav:1", "2024-01-01T10:00:00.000Z"),
        ]

    def test_events_csv_has_attribute_columns(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        export_docel(store, tmp_path / "docel")
        events = {r["id"]: r for r in read_csv(tmp_path / "docel" / "events.csv")}
        assert events["ev:1"]["qty"] == "3"
        assert events["ev:1"]["activity"] == "pick item"
        assert events["ev:3"]["weight"] == "1.5"
        assert events["ev:2"]["qty"] == ""


class TestFlatCsvExport:
    def test_one_row_per_event_case_pair(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        out = tmp_path / "flat.csv"
        summary = export_flat_csv(store, "ot:item", out)
        rows = read_csv(out)
        # ev:1 -> i1, ev:2 -> i2, ev:3 -> i1 (via e2o:4; b1 is not an item)
        assert [(r["case_id"], r["activity"]) for r in rows] == [
            ("obj:i1", "pick item"),
            ("obj:i1", "pack box"),
            ("obj:i2", "pick item"),
        ]
        assert summary.counts["flat.csv"] == 3

    def test_convergence_duplicates_shared_events(self, store, tmp_path):
        batch = clean_fixture_batch()
        batch.add("event_to_object", id="e2o:5", event_id="ev:3",
                  object_id="obj:i2", qualifier_id="q:handles",
                  qualifier_value="handles")
        store.append_batch(batch)
        summary = export_flat_csv(store, "ot:item", tmp_path / "flat.csv")
        rows = read_csv(tmp_path / "flat.csv")
        assert sum(1 for r in rows if r["activity"] == "pack box") == 2
        assert any("duplication" in note for note in summary.notes)

    def test_tie_break_order_within_case(self, store, tmp_path):
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        b.add("event_types", id="et:b", description="b")
        b.add("object_types", id="ot:c", description="c")
        b.add("objects", id="obj:c1", object_type_id="ot:c", description=None)
        b.add("relation_qualifiers", id="q:r", description="r", datatype="string")
        ts = "2024-01-01T00:00:00.000Z"
        # deliberately inserted out of order
        b.add("events", id="ev:z", event_type_id="et:a", timestamp=ts,
              description=None)
        b.add("events", id="ev:a", event_type_id="et:b", timestamp=ts,
              description=None)
        b.add("events", id="ev:m", event_type_id="et:a", timestamp=ts,
              description=None)
        for n, ev in enumerate(("ev:z", "ev:a", "ev:m")):
            b.add("event_to_object", id=f"e2o:{n}", event_id=ev,
                  object_id="obj:c1", qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        export_flat_csv(store, "ot:c", tmp_path / "flat.csv")
        rows = read_csv(tmp_path / "flat.csv")
        # same timestamp: event_type_id first, then event_id
        assert [r["activity"] for r in rows] == ["a", "a", "b"]

    def test_null_timestamp_event_comes_first(self, store, tmp_path):
        batch = null_timestamp_batch()
        # a relation to a missing event: no row, but counted by the note
        batch.add("event_to_object", id="e2o:4", event_id="ev:ghost",
                  object_id="obj:1", qualifier_id="q:r", qualifier_value="r")
        store.append_batch(batch)
        summary = export_flat_csv(store, "ot:x", tmp_path / "flat.csv")
        rows = read_csv(tmp_path / "flat.csv")
        assert [(r["activity"], r["timestamp"]) for r in rows] == [
            ("b", ""),
            ("a", "2024-01-01T10:00:00.000Z"),
            ("b", "2024-01-01T11:00:00.000Z"),
        ]
        assert summary.notes == [
            "convergence duplication factor: 0.750 (3 rows from 4 events)"
        ]

    def test_unknown_case_type_errors(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        with pytest.raises(ExportError, match="unknown object type"):
            export_flat_csv(store, "ot:nope", tmp_path / "flat.csv")
