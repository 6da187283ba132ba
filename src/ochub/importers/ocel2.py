"""Importer for OCEL 2.0 event logs stored as SQLite databases.

Source layout: master tables ``event(ocel_id, ocel_type)`` and
``object(ocel_id, ocel_type)``, type maps ``event_map_type`` /
``object_map_type``, relation tables ``event_object`` / ``object_object``,
and one ``event_<map>`` / ``object_<map>`` table per mapped type.

Mapping notes:
  - ids are namespaced deterministically (type "A" -> "et:A", event "e1" ->
    "ev:e1", ...) so re-imports are idempotent;
  - object rows with an empty ``ocel_changed_field`` are initial-value rows
    (one attribute value per filled column at that row's time); rows with a
    changed field yield exactly one value for that field;
  - ``event_object`` qualifiers become both the relation qualifier and its
    value; ``object_object`` relations get the epoch sentinel timestamp
    (the source carries no relation timestamps);
  - text literal 'null' in typed columns (a known SQLite type-affinity
    artifact in published logs) is treated as absent;
  - the source has no causal event-to-attribute-update links, so no
    event_to_object_attribute_value rows are produced.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from ochub.importers import AppendableBatch, ImportError_
from ochub.schema import Batch
from ochub.util import EPOCH_TS, TimestampError, normalize_timestamp

REQUIRED_TABLES = (
    "event",
    "object",
    "event_map_type",
    "object_map_type",
    "event_object",
    "object_object",
)

_RESERVED_EVENT_COLS = {"ocel_id", "ocel_time"}
_RESERVED_OBJECT_COLS = {"ocel_id", "ocel_time", "ocel_changed_field"}


def _is_absent(value) -> bool:
    if value is None:
        return True
    return isinstance(value, str) and value.strip().lower() == "null"


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _datatype_for(decl_type) -> str:
    decl = (decl_type or "").upper()
    if "INT" in decl:
        return "integer"
    if "BOOL" in decl:
        return "boolean"
    if any(token in decl for token in ("REAL", "FLOA", "DOUB")):
        return "float"
    if "TIME" in decl or "DATE" in decl:
        return "timestamp"
    return "string"


def _table_columns(conn, table):
    return conn.execute(f"PRAGMA table_info({table})").fetchall()


def _normalize(value, context):
    try:
        return normalize_timestamp(value)
    except TimestampError as exc:
        raise ImportError_(f"{context}: {exc}") from exc


def import_ocel2(file) -> AppendableBatch:
    """Parse an OCEL 2.0 SQLite log into a hub batch."""
    path = Path(file)
    if not path.exists():
        raise ImportError_(f"no such file: {path}")
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    conn.row_factory = sqlite3.Row
    try:
        return _import(conn)
    finally:
        conn.close()


def _import(conn) -> AppendableBatch:
    present = {
        row["name"]
        for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    missing = [t for t in REQUIRED_TABLES if t not in present]
    if missing:
        raise ImportError_(f"missing OCEL 2.0 tables: {', '.join(missing)}")

    batch = Batch()
    qualifiers: set = set()

    event_maps = _type_maps(conn, "event_map_type", present, "event")
    object_maps = _type_maps(conn, "object_map_type", present, "object")

    for type_name, table in sorted(event_maps.items()):
        batch.add("event_types", id=f"et:{type_name}", description=type_name)
    for type_name, table in sorted(object_maps.items()):
        batch.add("object_types", id=f"ot:{type_name}", description=type_name)

    # Master rows drive event/object existence; per-type tables carry the
    # timestamps and attribute payloads.
    event_types = {
        row["ocel_id"]: row["ocel_type"]
        for row in conn.execute("SELECT ocel_id, ocel_type FROM event")
    }
    object_types = {
        row["ocel_id"]: row["ocel_type"]
        for row in conn.execute("SELECT ocel_id, ocel_type FROM object")
    }

    event_times = _import_event_payloads(conn, batch, event_maps)
    for ocel_id, type_name in event_types.items():
        timestamp = event_times.get(ocel_id)
        if timestamp is None:
            raise ImportError_(
                f"event {ocel_id!r} has no row in its per-type table"
            )
        batch.add(
            "events",
            id=f"ev:{ocel_id}",
            event_type_id=f"et:{type_name}",
            timestamp=timestamp,
            description=None,
        )

    _import_object_payloads(conn, batch, object_maps)
    for ocel_id, type_name in object_types.items():
        batch.add(
            "objects",
            id=f"obj:{ocel_id}",
            object_type_id=f"ot:{type_name}",
            description=None,
        )

    for row in conn.execute(
        "SELECT ocel_event_id, ocel_object_id, ocel_qualifier FROM event_object"
    ):
        qualifier = row["ocel_qualifier"]
        if _is_absent(qualifier):
            qualifier = "related"
        qualifiers.add(qualifier)
        batch.add(
            "event_to_object",
            id=f"e2o:{row['ocel_event_id']}:{row['ocel_object_id']}:{qualifier}",
            event_id=f"ev:{row['ocel_event_id']}",
            object_id=f"obj:{row['ocel_object_id']}",
            qualifier_id=f"q:{qualifier}",
            qualifier_value=qualifier,
        )

    for row in conn.execute(
        "SELECT ocel_source_id, ocel_target_id, ocel_qualifier FROM object_object"
    ):
        qualifier = row["ocel_qualifier"]
        if _is_absent(qualifier):
            qualifier = "related"
        qualifiers.add(qualifier)
        batch.add(
            "object_to_object",
            id=f"o2o:{row['ocel_source_id']}:{row['ocel_target_id']}:{qualifier}",
            source_object_id=f"obj:{row['ocel_source_id']}",
            target_object_id=f"obj:{row['ocel_target_id']}",
            timestamp=EPOCH_TS,
            qualifier_id=f"q:{qualifier}",
            qualifier_value=qualifier,
        )

    for qualifier in sorted(qualifiers):
        batch.add(
            "relation_qualifiers",
            id=f"q:{qualifier}",
            description=qualifier,
            datatype="string",
        )

    batch.canonicalize()
    return AppendableBatch(batch=batch)


def _type_maps(conn, map_table: str, present: set, prefix: str) -> dict:
    maps = {}
    for row in conn.execute(
        f"SELECT ocel_type, ocel_type_map FROM {map_table}"
    ):
        table = f"{prefix}_{row['ocel_type_map']}"
        if table not in present:
            raise ImportError_(
                f"{map_table} references missing table {table}"
            )
        maps[row["ocel_type"]] = table
    return maps


def _import_event_payloads(conn, batch: Batch, event_maps: dict) -> dict:
    """Emit event attribute definitions and values; return ocel_id -> time."""
    event_times: dict = {}
    for type_name, table in sorted(event_maps.items()):
        columns = _table_columns(conn, table)
        attr_cols = [
            (c["name"], _datatype_for(c["type"]))
            for c in columns
            if c["name"] not in _RESERVED_EVENT_COLS
        ]
        for name, datatype in attr_cols:
            batch.add(
                "event_attributes",
                id=f"ea:{type_name}.{name}",
                event_type_id=f"et:{type_name}",
                description=name,
                datatype=datatype,
            )
        for row in conn.execute(f"SELECT * FROM {table} ORDER BY rowid"):
            ocel_id = row["ocel_id"]
            event_times[ocel_id] = _normalize(
                row["ocel_time"], f"{table}.ocel_time for {ocel_id!r}"
            )
            for name, _ in attr_cols:
                value = row[name]
                if _is_absent(value):
                    continue
                batch.add(
                    "event_attribute_values",
                    id=f"eav:{ocel_id}:{name}",
                    event_id=f"ev:{ocel_id}",
                    event_attribute_id=f"ea:{type_name}.{name}",
                    attribute_value=_text(value),
                )
    return event_times


def _import_object_payloads(conn, batch: Batch, object_maps: dict) -> None:
    for type_name, table in sorted(object_maps.items()):
        columns = _table_columns(conn, table)
        attr_cols = [
            (c["name"], _datatype_for(c["type"]))
            for c in columns
            if c["name"] not in _RESERVED_OBJECT_COLS
        ]
        for name, datatype in attr_cols:
            batch.add(
                "object_attributes",
                id=f"oa:{type_name}.{name}",
                object_type_id=f"ot:{type_name}",
                description=name,
                datatype=datatype,
            )
        for row in conn.execute(f"SELECT * FROM {table} ORDER BY rowid"):
            ocel_id = row["ocel_id"]
            timestamp = _normalize(
                row["ocel_time"], f"{table}.ocel_time for {ocel_id!r}"
            )
            changed = row["ocel_changed_field"] if "ocel_changed_field" in row.keys() else None
            if _is_absent(changed):
                targets = [n for n, _ in attr_cols]
            else:
                targets = [changed]
            for name in targets:
                if name not in row.keys():
                    raise ImportError_(
                        f"{table}: changed field {name!r} is not a column"
                    )
                value = row[name]
                if _is_absent(value):
                    continue
                batch.add(
                    "object_attribute_values",
                    id=f"oav:{ocel_id}:{name}:{timestamp}",
                    object_id=f"obj:{ocel_id}",
                    object_attribute_id=f"oa:{type_name}.{name}",
                    timestamp=timestamp,
                    attribute_value=_text(value),
                )
