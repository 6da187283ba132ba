"""OCEL 2.0 SQLite extractor.

Per-type tables are generated dynamically: one ``event_<type>`` table per
event type with one column per event attribute (a pivot of the row-based
attribute values), and one ``object_<type>`` table per object type with one
row per attribute-value update (``ocel_changed_field`` names the attribute).

Two deliberate losses, inherent to the target format: event-to-object-
attribute-value relations are dropped, and object-to-object relations are
flattened to static rows labeled with the qualifier description.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

from ochub.exporters import ExportError, ExportSummary, event_attribute_values
from ochub.store import HubStore
from ochub.util import dedupe_name, sanitize_name

_DECL = {
    "string": "TEXT",
    "integer": "INTEGER",
    "float": "REAL",
    "boolean": "BOOLEAN",
    "timestamp": "TIMESTAMP",
}


def _strip(prefix: str, value: str) -> str:
    return value[len(prefix):] if value.startswith(prefix) else value


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def export_ocel2(store: HubStore, out) -> ExportSummary:
    """Write the store as an OCEL 2.0 SQLite file."""
    out_path = Path(out)
    if out_path.exists():
        os.remove(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(format="ocel2", path=str(out_path))

    conn = sqlite3.connect(out_path)
    try:
        with conn:
            _export(store, conn, summary)
    except Exception:
        conn.close()
        if out_path.exists():
            os.remove(out_path)
        raise
    conn.close()
    return summary


def _export(store: HubStore, conn: sqlite3.Connection, summary: ExportSummary) -> None:
    event_types = list(store.table_rows("event_types"))
    object_types = list(store.table_rows("object_types"))
    qualifiers = {
        row["id"]: row["description"] or row["id"]
        for row in store.table_rows("relation_qualifiers")
    }

    taken: set = set()
    event_maps = {
        row["id"]: dedupe_name(sanitize_name(row["description"] or row["id"]), taken)
        for row in event_types
    }
    taken = set()
    object_maps = {
        row["id"]: dedupe_name(sanitize_name(row["description"] or row["id"]), taken)
        for row in object_types
    }
    type_names = {
        row["id"]: row["description"] or row["id"]
        for row in event_types + object_types
    }

    conn.execute("CREATE TABLE event (ocel_id TEXT, ocel_type TEXT)")
    conn.execute("CREATE TABLE object (ocel_id TEXT, ocel_type TEXT)")
    conn.execute("CREATE TABLE event_map_type (ocel_type TEXT, ocel_type_map TEXT)")
    conn.execute("CREATE TABLE object_map_type (ocel_type TEXT, ocel_type_map TEXT)")
    conn.execute(
        "CREATE TABLE event_object "
        "(ocel_event_id TEXT, ocel_object_id TEXT, ocel_qualifier TEXT)"
    )
    conn.execute(
        "CREATE TABLE object_object "
        "(ocel_source_id TEXT, ocel_target_id TEXT, ocel_qualifier TEXT)"
    )

    for type_id, map_name in sorted(event_maps.items()):
        conn.execute(
            "INSERT INTO event_map_type VALUES (?, ?)",
            (type_names[type_id], map_name),
        )
    for type_id, map_name in sorted(object_maps.items()):
        conn.execute(
            "INSERT INTO object_map_type VALUES (?, ?)",
            (type_names[type_id], map_name),
        )

    events = list(store.table_rows("events"))
    for row in events:
        conn.execute(
            "INSERT INTO event VALUES (?, ?)",
            (_strip("ev:", row["id"]), type_names.get(row["event_type_id"], row["event_type_id"])),
        )
    objects = list(store.table_rows("objects"))
    for row in objects:
        conn.execute(
            "INSERT INTO object VALUES (?, ?)",
            (_strip("obj:", row["id"]), type_names.get(row["object_type_id"], row["object_type_id"])),
        )
    summary.counts["event"] = len(events)
    summary.counts["object"] = len(objects)

    # event attribute pivot, one table per event type
    event_attrs: dict = {}
    for row in store.table_rows("event_attributes"):
        event_attrs.setdefault(row["event_type_id"], []).append(row)
    values_by_event = event_attribute_values(store)

    for type_id, map_name in sorted(event_maps.items()):
        attrs = sorted(
            event_attrs.get(type_id, []),
            key=lambda a: (a["description"] or a["id"], a["id"]),
        )
        columns = []
        seen_cols = {"ocel_id", "ocel_time"}
        for attr in attrs:
            name = attr["description"] or attr["id"]
            if name in seen_cols:
                raise ExportError(
                    f"event attribute name collision in type "
                    f"{type_names[type_id]!r}: {name!r}"
                )
            seen_cols.add(name)
            columns.append((name, attr["id"], _DECL.get(attr["datatype"], "TEXT")))
        decl = ", ".join(
            ["ocel_id TEXT", "ocel_time TIMESTAMP"]
            + [f"{_quote(name)} {sql_type}" for name, _, sql_type in columns]
        )
        table = f"event_{map_name}"
        conn.execute(f"CREATE TABLE {_quote(table)} ({decl})")
        placeholders = ", ".join("?" for _ in range(2 + len(columns)))
        rows = [
            tuple(
                [_strip("ev:", e["id"]), e["timestamp"]]
                + [
                    values_by_event.get(e["id"], {}).get(attr_id)
                    for _, attr_id, _ in columns
                ]
            )
            for e in events
            if e["event_type_id"] == type_id
        ]
        conn.executemany(
            f"INSERT INTO {_quote(table)} VALUES ({placeholders})", rows
        )
        summary.counts[table] = len(rows)

    # object attribute history, one row per attribute value
    object_attrs: dict = {}
    attr_names: dict = {}
    for row in store.table_rows("object_attributes"):
        object_attrs.setdefault(row["object_type_id"], []).append(row)
        attr_names[row["id"]] = row["description"] or row["id"]
    object_type_of = {row["id"]: row["object_type_id"] for row in objects}
    oav_by_type: dict = {}
    for row in store.table_rows("object_attribute_values"):
        type_id = object_type_of.get(row["object_id"])
        oav_by_type.setdefault(type_id, []).append(row)

    for type_id, map_name in sorted(object_maps.items()):
        attrs = sorted(
            object_attrs.get(type_id, []),
            key=lambda a: (a["description"] or a["id"], a["id"]),
        )
        columns = []
        seen_cols = {"ocel_id", "ocel_time", "ocel_changed_field"}
        for attr in attrs:
            name = attr["description"] or attr["id"]
            if name in seen_cols:
                raise ExportError(
                    f"object attribute name collision in type "
                    f"{type_names[type_id]!r}: {name!r}"
                )
            seen_cols.add(name)
            columns.append((name, attr["id"], _DECL.get(attr["datatype"], "TEXT")))
        decl = ", ".join(
            ["ocel_id TEXT", "ocel_time TIMESTAMP", "ocel_changed_field TEXT"]
            + [f"{_quote(name)} {sql_type}" for name, _, sql_type in columns]
        )
        table = f"object_{map_name}"
        conn.execute(f"CREATE TABLE {_quote(table)} ({decl})")
        col_index = {attr_id: i for i, (_, attr_id, _) in enumerate(columns)}
        rows = []
        for value in sorted(
            oav_by_type.get(type_id, []),
            key=lambda v: (v["object_id"], v["timestamp"], v["id"]),
        ):
            cells = [None] * len(columns)
            idx = col_index.get(value["object_attribute_id"])
            if idx is not None:
                cells[idx] = value["attribute_value"]
            rows.append(
                tuple(
                    [
                        _strip("obj:", value["object_id"]),
                        value["timestamp"],
                        attr_names.get(
                            value["object_attribute_id"],
                            value["object_attribute_id"],
                        ),
                    ]
                    + cells
                )
            )
        placeholders = ", ".join("?" for _ in range(3 + len(columns)))
        conn.executemany(
            f"INSERT INTO {_quote(table)} VALUES ({placeholders})", rows
        )
        summary.counts[table] = len(rows)

    e2o_rows = [
        (
            _strip("ev:", row["event_id"]),
            _strip("obj:", row["object_id"]),
            row["qualifier_value"],
        )
        for row in store.table_rows("event_to_object")
    ]
    conn.executemany("INSERT INTO event_object VALUES (?, ?, ?)", e2o_rows)
    summary.counts["event_object"] = len(e2o_rows)

    # flatten temporal relations to static rows, qualifier description wins
    static = sorted(
        {
            (
                _strip("obj:", row["source_object_id"]),
                _strip("obj:", row["target_object_id"]),
                qualifiers.get(row["qualifier_id"], row["qualifier_id"]),
            )
            for row in store.table_rows("object_to_object")
        }
    )
    conn.executemany("INSERT INTO object_object VALUES (?, ?, ?)", static)
    summary.counts["object_object"] = len(static)

    dropped = store.row_count("event_to_object_attribute_value")
    if dropped:
        summary.notes.append(
            f"dropped {dropped} event-to-object-attribute-value relation(s): "
            "not representable in the target format"
        )
    flattened = store.row_count("object_to_object") - len(static)
    if flattened:
        summary.notes.append(
            f"flattened {flattened} temporal object-to-object row(s) "
            "into static relations"
        )
