import sqlite3

import pytest

from ochub.schema import TABLE_COLUMNS, Batch
from ochub.store import open_store
from ochub.util import sanitize_name


@pytest.fixture
def store(tmp_path):
    hub = open_store(tmp_path / "hub.db")
    yield hub
    hub.close()


def rows_of(batch: Batch, table: str) -> list:
    """The batch's rows of ``table`` as dicts keyed by column name."""
    columns = TABLE_COLUMNS[table]
    return [dict(zip(columns, row)) for row in batch.rows[table]]


def clean_fixture_batch() -> Batch:
    """A small but full-width batch: every table populated, all references
    resolving, all timestamps valid."""
    b = Batch()
    b.add("event_types", id="et:pick", description="pick item")
    b.add("event_types", id="et:pack", description="pack box")
    b.add("event_attributes", id="ea:pick.qty", event_type_id="et:pick",
          description="qty", datatype="integer")
    b.add("event_attributes", id="ea:pack.weight", event_type_id="et:pack",
          description="weight", datatype="float")
    b.add("events", id="ev:1", event_type_id="et:pick",
          timestamp="2024-03-01T08:00:00.000Z", description=None)
    b.add("events", id="ev:2", event_type_id="et:pick",
          timestamp="2024-03-01T09:00:00.000Z", description=None)
    b.add("events", id="ev:3", event_type_id="et:pack",
          timestamp="2024-03-01T10:00:00.000Z", description=None)
    b.add("event_attribute_values", id="eav:1", event_id="ev:1",
          event_attribute_id="ea:pick.qty", attribute_value="3")
    b.add("event_attribute_values", id="eav:2", event_id="ev:3",
          event_attribute_id="ea:pack.weight", attribute_value="1.5")
    b.add("object_types", id="ot:item", description="item")
    b.add("object_types", id="ot:box", description="box")
    b.add("object_attributes", id="oa:item.color", object_type_id="ot:item",
          description="color", datatype="string")
    b.add("object_attributes", id="oa:box.size", object_type_id="ot:box",
          description="size", datatype="string")
    b.add("objects", id="obj:i1", object_type_id="ot:item", description="item 1")
    b.add("objects", id="obj:i2", object_type_id="ot:item", description="item 2")
    b.add("objects", id="obj:b1", object_type_id="ot:box", description="box 1")
    b.add("object_attribute_values", id="oav:1", object_id="obj:i1",
          object_attribute_id="oa:item.color",
          timestamp="2024-03-01T08:00:00.000Z", attribute_value="red")
    b.add("object_attribute_values", id="oav:2", object_id="obj:b1",
          object_attribute_id="oa:box.size",
          timestamp="2024-03-01T10:00:00.000Z", attribute_value="L")
    b.add("relation_qualifiers", id="q:handles", description="handles",
          datatype="string")
    b.add("relation_qualifiers", id="q:contains", description="contains",
          datatype="string")
    b.add("event_to_object", id="e2o:1", event_id="ev:1", object_id="obj:i1",
          qualifier_id="q:handles", qualifier_value="handles")
    b.add("event_to_object", id="e2o:2", event_id="ev:2", object_id="obj:i2",
          qualifier_id="q:handles", qualifier_value="handles")
    b.add("event_to_object", id="e2o:3", event_id="ev:3", object_id="obj:b1",
          qualifier_id="q:handles", qualifier_value="handles")
    b.add("event_to_object", id="e2o:4", event_id="ev:3", object_id="obj:i1",
          qualifier_id="q:handles", qualifier_value="handles")
    b.add("object_to_object", id="o2o:1", source_object_id="obj:i1",
          target_object_id="obj:b1", timestamp="2024-03-01T10:00:00.000Z",
          qualifier_id="q:contains", qualifier_value="contains")
    b.add("event_to_object_attribute_value", id="e2oav:1", event_id="ev:3",
          object_attribute_value_id="oav:2", qualifier_id="q:handles",
          qualifier_value="handles")
    return b


def build_ocel2_sqlite(path, log: dict) -> None:
    """Write an OCEL 2.0 SQLite file from a compact description.

    log = {
      "event_types": {name: {"attrs": {col: sql_type}, "events":
          [(ocel_id, ocel_time, {col: value}), ...]}},
      "object_types": {name: {"attrs": {col: sql_type}, "rows":
          [(ocel_id, ocel_time, changed_field_or_None, {col: value}), ...]}},
      "event_object": [(event_id, object_id, qualifier)],
      "object_object": [(source_id, target_id, qualifier)],
    }
    Master event/object tables are derived from the per-type rows.
    """
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("CREATE TABLE event (ocel_id TEXT, ocel_type TEXT)")
        conn.execute("CREATE TABLE object (ocel_id TEXT, ocel_type TEXT)")
        conn.execute(
            "CREATE TABLE event_map_type (ocel_type TEXT, ocel_type_map TEXT)"
        )
        conn.execute(
            "CREATE TABLE object_map_type (ocel_type TEXT, ocel_type_map TEXT)"
        )
        conn.execute(
            "CREATE TABLE event_object (ocel_event_id TEXT, "
            "ocel_object_id TEXT, ocel_qualifier TEXT)"
        )
        conn.execute(
            "CREATE TABLE object_object (ocel_source_id TEXT, "
            "ocel_target_id TEXT, ocel_qualifier TEXT)"
        )
        for name, spec in log.get("event_types", {}).items():
            map_name = sanitize_name(name)
            conn.execute("INSERT INTO event_map_type VALUES (?, ?)", (name, map_name))
            attrs = spec.get("attrs", {})
            cols = ", ".join(
                ["ocel_id TEXT", "ocel_time TIMESTAMP"]
                + [f'"{col}" {sql_type}' for col, sql_type in attrs.items()]
            )
            conn.execute(f'CREATE TABLE "event_{map_name}" ({cols})')
            for ocel_id, ocel_time, values in spec.get("events", []):
                conn.execute("INSERT INTO event VALUES (?, ?)", (ocel_id, name))
                placeholders = ", ".join("?" for _ in range(2 + len(attrs)))
                conn.execute(
                    f'INSERT INTO "event_{map_name}" VALUES ({placeholders})',
                    [ocel_id, ocel_time] + [values.get(col) for col in attrs],
                )
        for name, spec in log.get("object_types", {}).items():
            map_name = sanitize_name(name)
            conn.execute(
                "INSERT INTO object_map_type VALUES (?, ?)", (name, map_name)
            )
            attrs = spec.get("attrs", {})
            cols = ", ".join(
                ["ocel_id TEXT", "ocel_time TIMESTAMP", "ocel_changed_field TEXT"]
                + [f'"{col}" {sql_type}' for col, sql_type in attrs.items()]
            )
            conn.execute(f'CREATE TABLE "object_{map_name}" ({cols})')
            seen = set()
            for ocel_id, ocel_time, changed, values in spec.get("rows", []):
                if ocel_id not in seen:
                    seen.add(ocel_id)
                    conn.execute(
                        "INSERT INTO object VALUES (?, ?)", (ocel_id, name)
                    )
                placeholders = ", ".join("?" for _ in range(3 + len(attrs)))
                conn.execute(
                    f'INSERT INTO "object_{map_name}" VALUES ({placeholders})',
                    [ocel_id, ocel_time, changed]
                    + [values.get(col) for col in attrs],
                )
        for row in log.get("event_object", []):
            conn.execute("INSERT INTO event_object VALUES (?, ?, ?)", row)
        for row in log.get("object_object", []):
            conn.execute("INSERT INTO object_object VALUES (?, ?, ?)", row)
    conn.close()
