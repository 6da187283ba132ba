"""Importer for OCEL 2.0 event logs stored as SQLite databases.

Source layout: master tables ``event(ocel_id, ocel_type)`` and
``object(ocel_id, ocel_type)``, type maps ``event_map_type`` /
``object_map_type``, relation tables ``event_object`` / ``object_object``,
and one ``event_<map>`` / ``object_<map>`` table per mapped type.

Mapping notes:
  - every hub row comes from an emitter of ``ochub.importers``, keyed by
    ``ocel_id``, so re-imports are idempotent;
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

from ochub.importers import (
    AppendableBatch, ImportError_, add_e2o, add_event, add_event_value,
    add_o2o, add_object, add_object_value, add_qualifiers, add_type,
)
from ochub.schema import Batch
from ochub.util import TimestampError, normalize_timestamp, row_dicts

REQUIRED_TABLES = (
    "event",
    "object",
    "event_map_type",
    "object_map_type",
    "event_object",
    "object_object",
)

_CHANGED = "ocel_changed_field"
# kind -> the columns of its per-type tables that hold no attribute
_RESERVED_COLS = {
    "event": {"ocel_id", "ocel_time"},
    "object": {"ocel_id", "ocel_time", _CHANGED},
}


def _is_absent(value) -> bool:
    if value is None:
        return True
    return isinstance(value, str) and value.strip().lower() == "null"


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _qualifier(value) -> str:
    return "related" if _is_absent(value) else value


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


def import_ocel2(file) -> AppendableBatch:
    """Parse an OCEL 2.0 SQLite log into a hub batch, opened read-only by
    its percent-encoded URI, so a path holding '#', '?' or '%' opens that
    file; a SQLite error (a file that is not SQLite) names the path."""
    path = Path(file)
    if not path.is_file():
        raise ImportError_(f"not a file: {path}")
    conn = sqlite3.connect(f"{path.resolve().as_uri()}?mode=ro", uri=True)
    try:
        return _import(conn)
    except sqlite3.DatabaseError as exc:
        raise ImportError_(f"{path}: {exc}") from exc
    finally:
        conn.close()


def _import(conn) -> AppendableBatch:
    present = {
        row[0]
        for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    missing = [t for t in REQUIRED_TABLES if t not in present]
    if missing:
        raise ImportError_(f"missing OCEL 2.0 tables: {', '.join(missing)}")

    batch = Batch()
    event_maps = _type_maps(conn, "event_map_type", present, "event")
    object_maps = _type_maps(conn, "object_map_type", present, "object")
    # Master rows drive event/object existence; per-type tables carry the
    # timestamps and attribute payloads.
    event_types = _master(conn, "event")
    object_types = _master(conn, "object")

    event_times: dict = {}
    for type_name, ocel_id, timestamp, values in _per_type_rows(
        conn, batch, "event", event_maps
    ):
        event_times[ocel_id] = timestamp
        for name, value in values:
            add_event_value(batch, ocel_id, type_name, name, value)
    for ocel_id, type_name in event_types.items():
        timestamp = event_times.get(ocel_id)
        if timestamp is None:
            raise ImportError_(
                f"event {ocel_id!r} has no row in its per-type table"
            )
        add_event(batch, ocel_id, type_name, timestamp)

    for type_name, ocel_id, timestamp, values in _per_type_rows(
        conn, batch, "object", object_maps
    ):
        for name, value in values:
            add_object_value(batch, ocel_id, type_name, name, timestamp, value)
    for ocel_id, type_name in object_types.items():
        add_object(batch, ocel_id, type_name)

    qualifiers: set = set()
    for event_id, object_id, qualifier in conn.execute(
        "SELECT ocel_event_id, ocel_object_id, ocel_qualifier FROM event_object"
    ):
        qualifier = _qualifier(qualifier)
        qualifiers.add(qualifier)
        add_e2o(batch, event_id, object_id, qualifier)
    for source_id, target_id, qualifier in conn.execute(
        "SELECT ocel_source_id, ocel_target_id, ocel_qualifier FROM object_object"
    ):
        qualifier = _qualifier(qualifier)
        qualifiers.add(qualifier)
        add_o2o(batch, source_id, target_id, qualifier, qualifier)
    add_qualifiers(batch, qualifiers)

    batch.canonicalize()
    return AppendableBatch(batch=batch)


def _type_maps(conn, map_table: str, present: set, prefix: str) -> dict:
    maps = {}
    for type_name, map_name in conn.execute(
        f"SELECT ocel_type, ocel_type_map FROM {map_table}"
    ):
        table = f"{prefix}_{map_name}"
        if table not in present:
            raise ImportError_(
                f"{map_table} references missing table {table}"
            )
        maps[type_name] = table
    return maps


def _master(conn, table: str) -> dict:
    """ocel_id -> ocel_type of a master table; a repeated id keeps its last
    type."""
    return {
        ocel_id: type_name
        for ocel_id, type_name in conn.execute(
            f"SELECT ocel_id, ocel_type FROM {table}"
        )
    }


def _per_type_rows(conn, batch: Batch, kind: str, maps: dict):
    """Add each ``kind`` type of ``maps`` with its attribute definitions,
    then yield (type name, ``ocel_id``, normalized ``ocel_time``, [(attribute,
    value as text)]) for each row of its per-type table; types in name
    order, rows in rowid order. An object row with a changed field gives
    that field alone, every other row each attribute column; absent values
    are left out. A table lacking ``ocel_id`` or ``ocel_time`` raises
    ImportError_ naming it and the column."""
    for type_name, table in sorted(maps.items()):
        columns = conn.execute(f"PRAGMA table_info({table})").fetchall()
        present = {c[1] for c in columns}
        missing = {"ocel_id", "ocel_time"} - present
        if missing:
            raise ImportError_(f"{table}: no {min(missing)} column")
        attributes = [
            (c[1], _datatype_for(c[2]))
            for c in columns
            if c[1] not in _RESERVED_COLS[kind]
        ]
        add_type(batch, kind, type_name, attributes)
        every = [name for name, _ in attributes]
        has_changed = kind == "object" and _CHANGED in present
        rows = conn.execute(f"SELECT * FROM {table} ORDER BY rowid")
        for row in row_dicts(rows):
            try:
                timestamp = normalize_timestamp(row["ocel_time"])
            except TimestampError as exc:
                raise ImportError_(
                    f"{table}.ocel_time for {row['ocel_id']!r}: {exc}"
                ) from exc
            names = every
            if has_changed and not _is_absent(row[_CHANGED]):
                names = [row[_CHANGED]]
                if names[0] not in row:
                    raise ImportError_(
                        f"{table}: changed field {names[0]!r} is not a column"
                    )
            yield type_name, row["ocel_id"], timestamp, [
                (name, _text(row[name]))
                for name in names if not _is_absent(row[name])
            ]
