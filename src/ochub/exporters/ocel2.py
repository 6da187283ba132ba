"""OCEL 2.0 SQLite extractor.

Per-type tables are generated dynamically: one ``event_<type>`` table per
event type with one column per event attribute (a pivot of the row-based
attribute values), and one ``object_<type>`` table per object type with one
row per attribute-value update (``ocel_changed_field`` names the attribute).

Every output table gets its rows from one ``SELECT`` against the store in
output order, with the ``ev:``/``obj:`` id prefixes stripped and display
names (description, else id) resolved in SQL; SQLite sorts NULLs first, so
rows with NULL columns take their place like any other. Only the naming of
tables and columns and the event attribute pivot are Python.

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


def _strip(prefix: str, column: str) -> str:
    """SQL for ``column`` without a leading ``prefix``."""
    return (
        f"CASE WHEN substr({column}, 1, {len(prefix)}) = '{prefix}' "
        f"THEN substr({column}, {len(prefix) + 1}) ELSE {column} END"
    )


def _name(alias: str, fallback: str) -> str:
    """SQL for a display name: the row's description, else ``fallback``."""
    return f"coalesce(nullif({alias}.description, ''), {fallback})"


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


def _columns(store: HubStore, kind: str, type_id: str, type_name: str,
             reserved: tuple) -> list:
    """[(attribute id, column declaration)] of one event or object type, in
    (name, id) order; a name taken twice is an ExportError."""
    columns, seen = [], set(reserved)
    for attr_id, name, datatype in store.connection().execute(
        f"SELECT id, {_name('a', 'id')} AS name, datatype "
        f"FROM {kind}_attributes a WHERE {kind}_type_id = ? ORDER BY name, id",
        (type_id,),
    ):
        if name in seen:
            raise ExportError(
                f"{kind} attribute name collision in type {type_name!r}: {name!r}"
            )
        seen.add(name)
        columns.append((attr_id, f"{_quote(name)} {_DECL.get(datatype, 'TEXT')}"))
    return columns


def _fill(conn: sqlite3.Connection, table: str, decls: list, rows) -> int:
    """Create ``table`` with ``decls`` and insert ``rows``; returns the count."""
    conn.execute(f"CREATE TABLE {_quote(table)} ({', '.join(decls)})")
    marks = ", ".join("?" for _ in decls)
    return conn.executemany(
        f"INSERT INTO {_quote(table)} VALUES ({marks})", rows
    ).rowcount


def _export(store: HubStore, conn: sqlite3.Connection, summary: ExportSummary) -> None:
    read = store.connection().execute
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

    maps = {}  # kind -> [(type id, display name, table name suffix)]
    for kind in ("event", "object"):
        taken: set = set()
        maps[kind] = [
            (type_id, name, dedupe_name(sanitize_name(name), taken))
            for type_id, name in read(
                f"SELECT id, {_name('t', 'id')} FROM {kind}_types t ORDER BY id"
            )
        ]
        conn.executemany(
            f"INSERT INTO {kind}_map_type VALUES (?, ?)",
            [(name, map_name) for _, name, map_name in maps[kind]],
        )
    for kind, prefix in (("event", "ev:"), ("object", "obj:")):
        summary.counts[kind] = conn.executemany(
            f"INSERT INTO {kind} VALUES (?, ?)",
            read(
                f"SELECT {_strip(prefix, 'r.id')}, {_name('t', f'r.{kind}_type_id')} "
                f"FROM {kind}s r LEFT JOIN {kind}_types t ON t.id = r.{kind}_type_id "
                "ORDER BY r.id"
            ),
        ).rowcount

    # event attribute pivot, one table per event type
    values_by_event = event_attribute_values(store)
    for type_id, type_name, map_name in maps["event"]:
        columns = _columns(store, "event", type_id, type_name, ("ocel_id", "ocel_time"))
        rows = (
            [ocel_id, timestamp]
            + [values_by_event.get(event_id, {}).get(attr_id) for attr_id, _ in columns]
            for ocel_id, timestamp, event_id in read(
                f"SELECT {_strip('ev:', 'id')}, timestamp, id FROM events "
                "WHERE event_type_id = ? ORDER BY id",
                (type_id,),
            )
        )
        table = f"event_{map_name}"
        summary.counts[table] = _fill(
            conn, table,
            ["ocel_id TEXT", "ocel_time TIMESTAMP"] + [decl for _, decl in columns],
            rows,
        )

    # object attribute history, one row per attribute value; the value
    # lands in its attribute's column when the type declares it
    for type_id, type_name, map_name in maps["object"]:
        columns = _columns(
            store, "object", type_id, type_name,
            ("ocel_id", "ocel_time", "ocel_changed_field"),
        )
        cells = "".join(
            ", CASE v.object_attribute_id WHEN ? THEN v.attribute_value END"
            for _ in columns
        )
        rows = read(
            f"SELECT {_strip('obj:', 'v.object_id')}, v.timestamp, "
            f"{_name('a', 'v.object_attribute_id')}{cells} "
            "FROM object_attribute_values v JOIN objects o ON o.id = v.object_id "
            "LEFT JOIN object_attributes a ON a.id = v.object_attribute_id "
            "WHERE o.object_type_id = ? ORDER BY v.object_id, v.timestamp, v.id",
            [attr_id for attr_id, _ in columns] + [type_id],
        )
        table = f"object_{map_name}"
        summary.counts[table] = _fill(
            conn, table,
            ["ocel_id TEXT", "ocel_time TIMESTAMP", "ocel_changed_field TEXT"]
            + [decl for _, decl in columns],
            rows,
        )

    summary.counts["event_object"] = conn.executemany(
        "INSERT INTO event_object VALUES (?, ?, ?)",
        read(
            f"SELECT {_strip('ev:', 'event_id')}, {_strip('obj:', 'object_id')}, "
            "qualifier_value FROM event_to_object ORDER BY id"
        ),
    ).rowcount

    # flatten temporal relations to static rows, qualifier description wins
    summary.counts["object_object"] = conn.executemany(
        "INSERT INTO object_object VALUES (?, ?, ?)",
        read(
            f"SELECT DISTINCT {_strip('obj:', 'r.source_object_id')}, "
            f"{_strip('obj:', 'r.target_object_id')}, {_name('q', 'r.qualifier_id')} "
            "FROM object_to_object r "
            "LEFT JOIN relation_qualifiers q ON q.id = r.qualifier_id ORDER BY 1, 2, 3"
        ),
    ).rowcount

    dropped = store.row_count("event_to_object_attribute_value")
    if dropped:
        summary.notes.append(
            f"dropped {dropped} event-to-object-attribute-value relation(s): "
            "not representable in the target format"
        )
    flattened = store.row_count("object_to_object") - summary.counts["object_object"]
    if flattened:
        summary.notes.append(
            f"flattened {flattened} temporal object-to-object row(s) "
            "into static relations"
        )
