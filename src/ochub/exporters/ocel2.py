"""OCEL 2.0 SQLite extractor.

Per-type tables are generated dynamically: one ``event_<type>`` table per
event type with one column per event attribute (a pivot of the row-based
attribute values), and one ``object_<type>`` table per object type with one
row per attribute-value update (``ocel_changed_field`` names the attribute);
a type named like a fixed table (``object``, ``map type``) gets a suffix.

The output file is attached to the store's connection and filled with one
``INSERT … SELECT`` per output table into the attached file, in one
transaction, with the ``ev:``/``obj:`` id prefixes stripped and display
names and event attribute cells (``attribute_cells``) resolved in SQL;
SQLite sorts NULLs first, so rows with NULL columns take their place like
any other. Only the naming of tables and columns is Python. The export reads
one snapshot of the store: in rollback-journal mode a concurrent append's
commit waits for the whole export.

Two deliberate losses, inherent to the target format: event-to-object-
attribute-value relations are dropped, and object-to-object relations are
flattened to static rows labeled with the qualifier description.
"""

from __future__ import annotations

from pathlib import Path

from ochub.exporters import (
    ExportError, ExportSummary, attribute_cells, display_name, replacing,
)
from ochub.store import HubStore
from ochub.util import dedupe_name, sanitize_name

_OUT = "ocel2_out"  # the attached output file's schema name

_DECL = {"string": "TEXT", "integer": "INTEGER", "float": "REAL",
         "boolean": "BOOLEAN", "timestamp": "TIMESTAMP"}

# the format's fixed tables, created in this order
_FIXED = {
    "event": "ocel_id TEXT, ocel_type TEXT",
    "object": "ocel_id TEXT, ocel_type TEXT",
    "event_map_type": "ocel_type TEXT, ocel_type_map TEXT",
    "object_map_type": "ocel_type TEXT, ocel_type_map TEXT",
    "event_object": "ocel_event_id TEXT, ocel_object_id TEXT, ocel_qualifier TEXT",
    "object_object": "ocel_source_id TEXT, ocel_target_id TEXT, ocel_qualifier TEXT",
}
# the columns that lead each per-type table, before its attributes
_LEAD = {
    "event": ["ocel_id TEXT", "ocel_time TIMESTAMP"],
    "object": ["ocel_id TEXT", "ocel_time TIMESTAMP", "ocel_changed_field TEXT"],
}


def _strip(prefix: str, column: str) -> str:
    """SQL for ``column`` without a leading ``prefix``."""
    return (
        f"CASE WHEN substr({column}, 1, {len(prefix)}) = '{prefix}' "
        f"THEN substr({column}, {len(prefix) + 1}) ELSE {column} END"
    )


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def export_ocel2(store: HubStore, out) -> ExportSummary:
    """Write the store as an OCEL 2.0 SQLite file, renamed onto ``out`` once
    complete (``replacing``)."""
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(path=str(out_path))
    conn = store.connection()
    with replacing(out_path) as temp:
        conn.execute(f"ATTACH DATABASE ? AS {_OUT}", (temp,))
        try:
            with conn:
                conn.execute("BEGIN")
                _export(store, summary)
        finally:
            conn.execute(f"DETACH DATABASE {_OUT}")
    return summary


def _columns(store: HubStore, kind: str, type_id: str, type_name: str) -> tuple:
    """([attribute id], [column declaration]) of one event or object type's
    table: the ``_LEAD`` columns, then its attributes in (name, id) order, a
    NULL name being ""; a name taken twice is an ExportError. Names are
    compared as SQLite compares column names, folding ASCII letters only
    (``casefold`` would also merge ``ß`` and ``ss``)."""
    ids, decls = [], list(_LEAD[kind])
    seen = {decl.split()[0].encode() for decl in decls}
    for attr_id, name, datatype in store.connection().execute(
        f"SELECT id, {display_name('a', 'id')} AS name, datatype "
        f"FROM {kind}_attributes a WHERE {kind}_type_id = ? ORDER BY name, id",
        (type_id,),
    ):
        name = name or ""  # a NULL id and no description
        folded = name.encode().lower()
        if folded in seen:
            raise ExportError(
                f"{kind} attribute name collision in type {type_name!r}: {name!r}"
            )
        seen.add(folded)
        ids.append(attr_id)
        decls.append(f"{_quote(name)} {_DECL.get(datatype, 'TEXT')}")
    return ids, decls


def _export(store: HubStore, summary: ExportSummary) -> None:
    run = store.connection().execute

    def fill(table: str, select: str, params=(), decls=None) -> None:
        """Create output ``table`` from ``decls``, unless fixed; insert ``select``."""
        if decls:
            run(f"CREATE TABLE {_OUT}.{_quote(table)} ({', '.join(decls)})")
        summary.counts[table] = run(
            f"INSERT INTO {_OUT}.{_quote(table)} {select}", params).rowcount

    for table, decls in _FIXED.items():
        run(f"CREATE TABLE {_OUT}.{table} ({decls})")

    maps = {}  # kind -> [(type id, display name, table name suffix)]
    for kind in ("event", "object"):
        taken = {"object", "map_type"}  # not event_object, object_map_type, ...
        maps[kind] = [
            (type_id, name, dedupe_name(sanitize_name(name), taken))
            for type_id, name in run(
                f"SELECT id, {display_name('t', 'id')} FROM {kind}_types t ORDER BY id"
            )
        ]
        store.connection().executemany(
            f"INSERT INTO {_OUT}.{kind}_map_type VALUES (?, ?)",
            [(name, map_name) for _, name, map_name in maps[kind]],
        )
    for kind, prefix in (("event", "ev:"), ("object", "obj:")):
        fill(
            kind,
            f"SELECT {_strip(prefix, 'r.id')}, "
            f"{display_name('t', f'r.{kind}_type_id')} "
            f"FROM {kind}s r LEFT JOIN {kind}_types t ON t.id = r.{kind}_type_id "
            "ORDER BY r.id",
        )

    # event attribute pivot, one table per event type
    for type_id, type_name, map_name in maps["event"]:
        ids, decls = _columns(store, "event", type_id, type_name)
        fill(
            f"event_{map_name}",
            f"SELECT {_strip('ev:', 'id')}, timestamp"
            f"{attribute_cells('event', 'events.id', len(ids))} FROM events "
            "WHERE event_type_id = ? ORDER BY id",
            ids + [type_id], decls,
        )

    # object attribute history, one row per attribute value; the value
    # lands in its attribute's column when the type declares it
    for type_id, type_name, map_name in maps["object"]:
        ids, decls = _columns(store, "object", type_id, type_name)
        cells = (", CASE v.object_attribute_id WHEN ? THEN v.attribute_value END"
                 * len(ids))
        fill(
            f"object_{map_name}",
            f"SELECT {_strip('obj:', 'v.object_id')}, v.timestamp, "
            f"{display_name('a', 'v.object_attribute_id')}{cells} "
            "FROM object_attribute_values v JOIN objects o ON o.id = v.object_id "
            "LEFT JOIN object_attributes a ON a.id = v.object_attribute_id "
            "WHERE o.object_type_id = ? ORDER BY v.object_id, v.timestamp, v.id",
            ids + [type_id], decls,
        )

    fill(
        "event_object",
        f"SELECT {_strip('ev:', 'event_id')}, {_strip('obj:', 'object_id')}, "
        "qualifier_value FROM event_to_object ORDER BY id",
    )
    # flatten temporal relations to static rows, qualifier description wins
    fill(
        "object_object",
        f"SELECT DISTINCT {_strip('obj:', 'r.source_object_id')}, "
        f"{_strip('obj:', 'r.target_object_id')}, "
        f"{display_name('q', 'r.qualifier_id')} "
        "FROM object_to_object r "
        "LEFT JOIN relation_qualifiers q ON q.id = r.qualifier_id ORDER BY 1, 2, 3",
    )

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
