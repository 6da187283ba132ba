import csv
import hashlib
import sqlite3
from contextlib import closing

import pytest

from ochub.exporters import (
    ExportError,
    export_docel,
    export_flat_csv,
    export_ocel2,
    write_csv,
)
from ochub.cli import EXIT_OK, run
from ochub.importers import (
    add_e2o, add_event, add_event_value, add_o2o, add_object, add_object_value,
    add_qualifiers, add_type, import_ocel2,
)
from ochub.schema import Batch
from ochub.store import open_store
from ochub.util import sanitize_name
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
    linked one; and event attribute values: one (event, attribute) pair
    under two ids, one value with a NULL event and one with a NULL
    attribute."""
    ts = "2024-01-01T01:00:00.000Z"
    b.add("event_attributes", id="ea:a.colour", event_type_id="et:a",
          description="colour", datatype="string")
    for value_id, event_id, attr_id, value in (
        ("eav:2", "ev:null2", "ea:a.colour", "blue"),
        ("eav:1", "ev:null2", "ea:a.colour", "red"),
        ("eav:nullev", None, "ea:a.colour", "green"),
        ("eav:nullattr", "ev:null2", None, "grey"),
    ):
        b.add("event_attribute_values", id=value_id, event_id=event_id,
              event_attribute_id=attr_id, attribute_value=value)
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


def test_greatest_value_id_wins_in_event_pivots(store, tmp_path):
    """On a repeated (event, attribute) pair the value with the greatest id
    fills the cell of the OCEL 2.0 event table, DOCEL events.csv and the
    flat CSV, although it was appended first."""
    batch = minimal_batch()
    batch.add("event_attributes", id="ea:a.colour", event_type_id="et:a",
              description="colour", datatype="string")
    batch.add("event_attribute_values", id="eav:2", event_id="ev:1",
              event_attribute_id="ea:a.colour", attribute_value="blue")
    store.append_batch(batch)
    late = Batch()
    late.add("event_attribute_values", id="eav:1", event_id="ev:1",
             event_attribute_id="ea:a.colour", attribute_value="red")
    store.append_batch(late)

    export_ocel2(store, tmp_path / "log.sqlite")
    conn = sqlite3.connect(tmp_path / "log.sqlite")
    assert conn.execute("SELECT ocel_id, colour FROM event_a").fetchall() == \
        [("1", "blue")]
    conn.close()
    export_docel(store, tmp_path / "docel")
    assert [(r["id"], r["colour"]) for r in
            read_csv(tmp_path / "docel" / "events.csv")] == \
        [("ev:1", "blue"), ("ev:2", "")]
    export_flat_csv(store, "ot:x", tmp_path / "flat.csv")
    assert [(r["activity"], r["colour"]) for r in
            read_csv(tmp_path / "flat.csv")] == [("a", "blue"), ("b", "")]


def test_docel_static_object_cells_match_no_null_id(tmp_path):
    """In DOCEL's objects_<type>.csv a NULL object id or attribute id
    matches no value, not even one whose id is NULL too (unlike the event
    cells, where NULL matches NULL)."""
    path = tmp_path / "hub.db"
    open_store(path).close()
    ts = "2024-01-01T00:00:00.000Z"
    conn = sqlite3.connect(path)
    conn.executescript(
        "INSERT INTO object_types VALUES ('ot:a', 'a');"
        "INSERT INTO object_attributes VALUES ('oa:a.colour', 'ot:a', 'colour', "
        "'string');"
        "INSERT INTO object_attributes VALUES (NULL, 'ot:a', 'nullid', 'string');"
        "INSERT INTO objects VALUES ('obj:1', 'ot:a', NULL);"
        "INSERT INTO objects VALUES (NULL, 'ot:a', NULL);"
        f"INSERT INTO object_attribute_values VALUES ('oav:1', 'obj:1', "
        f"'oa:a.colour', '{ts}', 'blue');"
        f"INSERT INTO object_attribute_values VALUES ('oav:2', NULL, "
        f"'oa:a.colour', '{ts}', 'green');"
        f"INSERT INTO object_attribute_values VALUES ('oav:3', 'obj:1', NULL, "
        f"'{ts}', 'grey');"
    )
    conn.close()
    store = open_store(path)
    export_docel(store, tmp_path / "docel")
    store.close()
    with open(tmp_path / "docel" / "objects_a.csv", newline="",
              encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [
            ["id", "colour", "nullid"], ["", "", ""], ["obj:1", "blue", ""],
        ]


@pytest.mark.parametrize("rows", [
    "INSERT INTO object_types VALUES (NULL, NULL);"
    "INSERT INTO objects VALUES ('obj:1', NULL, NULL)",
    "INSERT INTO event_types VALUES (NULL, NULL);"
    "INSERT INTO events VALUES ('ev:1', NULL, '2024-01-01T00:00:00.000Z', NULL)",
    "INSERT INTO object_types VALUES ('ot:a', NULL);"
    "INSERT INTO object_attributes VALUES (NULL, 'ot:a', NULL, NULL);"
    "INSERT INTO objects VALUES ('obj:1', 'ot:a', NULL)",
    "INSERT INTO event_types VALUES ('et:a', NULL);"
    "INSERT INTO event_attributes VALUES (NULL, 'et:a', NULL, NULL)",
], ids=["object_type", "event_type", "object_attribute", "event_attribute"])
def test_null_names_export_deterministically(tmp_path, rows):
    """Event types, object types and attributes with a NULL name, written
    past append_batch into an empty store: the ocel2 and docel exports exit
    0 and are byte-identical when repeated."""
    path = tmp_path / "hub.db"
    open_store(path).close()
    conn = sqlite3.connect(path)
    conn.executescript(rows)
    conn.close()
    for fmt, name in (("ocel2", "log.sqlite"), ("docel", "docel")):
        digests = []
        for attempt in (1, 2):
            out = tmp_path / f"{attempt}" / name
            assert run(["export", "--store", str(path), "--format", fmt,
                        "--out", str(out)]) == EXIT_OK, fmt
            digests.append(digest(out))
        assert digests[0] == digests[1], fmt


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

    @pytest.mark.parametrize("type_id, names", [
        ("et:pick", ["Colour", "colour"]),
        ("et:pick", ["OCEL_ID"]),
        ("ot:item", ["OCEL_Changed_Field"]),
    ], ids=["case_pair", "event_lead_column", "object_lead_column"])
    def test_attribute_names_collide_in_ascii_case(self, store, tmp_path,
                                                   type_id, names):
        """Attribute names that differ only in ASCII case, from each other
        or from a lead column, are one SQLite column name: the export raises
        the ExportError naming the type, and the CLI exits 3 with it, not
        with SQLite's ``duplicate column name``."""
        kind = "event" if type_id.startswith("et:") else "object"
        batch = clean_fixture_batch()
        for n, name in enumerate(names):
            batch.add(f"{kind}_attributes", id=f"{type_id}.case{n}",
                      description=name, datatype="string",
                      **{f"{kind}_type_id": type_id})
        store.append_batch(batch)
        out = tmp_path / "log.sqlite"
        with pytest.raises(ExportError, match=f"collision in type .*{names[-1]}"):
            export_ocel2(store, out)
        assert not out.exists()
        assert run(["export", "--store", str(store.path), "--format", "ocel2",
                    "--out", str(out)]) == 3

    def test_attribute_names_differing_beyond_ascii_case(self, store, tmp_path):
        """SQLite folds only ASCII letters in column names: ``ß``/``ss`` and
        ``é``/``É`` are distinct columns, and the export keeps all four."""
        batch = clean_fixture_batch()
        for n, name in enumerate(["ß", "ss", "é", "É"]):
            batch.add("event_attributes", id=f"ea:pick.case{n}",
                      event_type_id="et:pick", description=name,
                      datatype="string")
        store.append_batch(batch)
        out = tmp_path / "log.sqlite"
        export_ocel2(store, out)
        with closing(sqlite3.connect(out)) as conn:
            names = [row[1] for row in conn.execute(
                "PRAGMA table_info(event_pick_item)")]
        assert {"ß", "ss", "é", "É"} <= set(names)

    def test_failed_export_keeps_the_earlier_file(self, store, tmp_path):
        """A colliding export onto a good log raises, leaves the log's bytes
        as they were and no temporary file; a stale temporary file from a
        killed run does not stop the good export."""
        store.append_batch(clean_fixture_batch())
        out = tmp_path / "out" / "log.sqlite"
        out.parent.mkdir()
        (out.parent / "log.sqlite.tmp").write_bytes(b"partial")
        export_ocel2(store, out)
        before = out.read_bytes()
        batch = Batch()
        batch.add("event_attributes", id="ea:pick.qty2", event_type_id="et:pick",
                  description="qty", datatype="integer")
        store.append_batch(batch)
        with pytest.raises(ExportError, match="collision"):
            export_ocel2(store, out)
        assert out.read_bytes() == before
        assert sorted(p.name for p in out.parent.iterdir()) == ["log.sqlite"]

    def test_types_named_like_fixed_tables(self, store, tmp_path):
        """Event types named ``object`` and ``map type`` and an object type
        named ``object`` get suffixed per-type tables instead of the
        format's ``event_object``, ``event_map_type`` and ``object_object``;
        the map tables name them, so the log reads back."""
        original = Batch()
        for n, name in enumerate(("object", "map type", "object 2", "plain")):
            add_type(original, "event", name, [])
            add_event(original, f"e{n}", name, f"2024-01-01T0{n}:00:00.000Z")
        for name in ("object", "box"):
            add_type(original, "object", name, [])
            add_object(original, f"{name}-1", name)
        original.canonicalize()
        store.append_batch(original)
        out = tmp_path / "log.sqlite"
        assert run(["export", "--store", str(store.path), "--format", "ocel2",
                    "--out", str(out)]) == EXIT_OK
        with closing(sqlite3.connect(out)) as conn:
            maps = [conn.execute(f"SELECT * FROM {kind}_map_type ORDER BY rowid")
                    .fetchall() for kind in ("event", "object")]
        assert maps == [[("map type", "map_type_2"), ("object", "object_2"),
                         ("object 2", "object_2_2"), ("plain", "plain")],
                        [("box", "box"), ("object", "object_2")]]
        reimported = import_ocel2(out).batch
        for table in ("event_types", "events", "object_types", "objects"):
            assert reimported.rows[table] == original.rows[table], table

    def test_store_connection_is_left_as_found(self, store, tmp_path):
        """The log is attached to the store's connection only while it is
        written: after a good and a failed export the connection holds no
        attached file and no transaction, and the store still appends and
        exports."""
        conn = store.connection()

        def as_found():
            schemas = [row[1] for row in conn.execute("PRAGMA database_list")]
            assert schemas == ["main", "temp"]
            assert not conn.in_transaction

        store.append_batch(clean_fixture_batch())
        out = tmp_path / "log.sqlite"
        assert export_ocel2(store, out).counts["event"] == 3
        as_found()
        batch = Batch()
        batch.add("events", id="ev:4", event_type_id="et:pack",
                  timestamp="2024-03-04T08:00:00.000Z", description=None)
        store.append_batch(batch)
        assert export_ocel2(store, out).counts["event"] == 4

        batch = Batch()
        batch.add("object_types", id="ot:x", description="x")
        for attr_id in ("oa:x.1", "oa:x.2"):
            batch.add("object_attributes", id=attr_id, object_type_id="ot:x",
                      description="x", datatype="string")
        store.append_batch(batch)
        for _ in range(2):
            with pytest.raises(ExportError, match="collision"):
                export_ocel2(store, out)
            as_found()
        batch = Batch()
        batch.add("events", id="ev:5", event_type_id="et:pack",
                  timestamp="2024-03-05T08:00:00.000Z", description=None)
        assert store.append_batch(batch)["events"] == 1
        assert export_docel(store, tmp_path / "docel").counts["events.csv"] == 5
        with closing(sqlite3.connect(out)) as log:
            assert log.execute("SELECT COUNT(*) FROM event").fetchone() == (4,)

    def test_types_named_like_store_tables(self, store, tmp_path):
        """Types named ``types``, ``attributes``, ``attribute values`` and
        ``to object`` give per-type tables named like store tables
        (``event_types``, ``object_to_object``, ...); each holds exactly the
        rows of its type, read from the store's tables."""
        names = ("types", "attributes", "attribute values", "to object")
        original = Batch()
        for n, name in enumerate(names):
            add_type(original, "event", name, [("colour", "string")])
            add_type(original, "object", name, [("size", "string")])
            for key in (f"e{n}", f"e{n}b"):
                add_event(original, key, name, f"2024-01-0{n + 1}T00:00:00.000Z")
                add_event_value(original, key, name, "colour", f"c-{key}")
                add_e2o(original, key, f"o{n}", "q")
            add_object(original, f"o{n}", name)
            add_object_value(original, f"o{n}", name, "size",
                             "2024-01-01T00:00:00.000Z", f"s{n}")
        add_o2o(original, "o0", "o1", "r", "r")
        add_qualifiers(original, {"q", "r"})
        store.append_batch(original)
        out = tmp_path / "log.sqlite"
        export_ocel2(store, out)
        with closing(sqlite3.connect(out)) as conn:
            for n, name in enumerate(names):
                table = sanitize_name(name)
                assert conn.execute(
                    f"SELECT ocel_id, colour FROM event_{table} ORDER BY rowid"
                ).fetchall() == [(f"e{n}", f"c-e{n}"), (f"e{n}b", f"c-e{n}b")]
                assert conn.execute(
                    f"SELECT ocel_id, ocel_changed_field, size FROM object_{table}"
                ).fetchall() == [(f"o{n}", "size", f"s{n}")]
            assert conn.execute("SELECT COUNT(*) FROM event_object").fetchone() == (8,)
            assert conn.execute("SELECT * FROM object_object").fetchall() == [
                ("o0", "o1", "r")]
        assert import_ocel2(out).batch.counts() == original.counts()


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


def test_write_csv_is_atomic(tmp_path):
    """A row iterator that raises halfway leaves the earlier file at the
    path as it was, and no temporary file beside it."""
    path = tmp_path / "out.csv"
    assert write_csv(path, ["id"], [["old"]]) == 1
    before = path.read_bytes()

    def rows():
        yield ["a"]
        yield ["b"]
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_csv(path, ["id"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    with pytest.raises(RuntimeError):
        write_csv(tmp_path / "new.csv", ["id"], rows())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert write_csv(path, ["id"], [["a"], ["b"]]) == 2
    assert read_csv(path) == [{"id": "a"}, {"id": "b"}]
