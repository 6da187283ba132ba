"""DOCEL CSV extractor (docel-csv-v1 layout).

The DOCEL model links attribute values to both objects and events; this
exporter serializes it as:

  - ``events.csv``: one row per event with activity, timestamp, and the
    union of event attributes as columns;
  - ``objects_<type>.csv``: one row per object with its static attributes
    (attributes that have exactly one value per object and no event links);
  - ``dynamic_<attribute>.csv``: one file per remaining object attribute
    with columns (value_id, object_id, event_id, timestamp, value), one row
    per linked event -- a value linked to several events is duplicated, a
    value linked to none keeps an empty event_id.

Every file gets its rows from one ``SELECT`` against the store in output
order, the dynamic files from one shared scan ordered by attribute first;
SQLite sorts NULLs first, so rows with NULL columns take their place
like any other. Attribute cells are pivoted in the same ``SELECT``, one
scalar subquery per column (``attribute_cells``); in the static object
cells a NULL object or attribute id matches no value. Only the naming of
files and columns is Python.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from pathlib import Path

from ochub.exporters import (
    ExportSummary,
    attribute_cells,
    display_name,
    event_attribute_columns,
    write_csv,
)
from ochub.store import HubStore
from ochub.util import dedupe_name, sanitize_name

# object attributes with two values for one object or a value linked to an
# event; the rest are static
_DYNAMIC = (
    "SELECT object_attribute_id FROM object_attribute_values "
    "GROUP BY object_attribute_id, object_id HAVING COUNT(*) > 1 "
    "UNION SELECT v.object_attribute_id FROM object_attribute_values v "
    "JOIN event_to_object_attribute_value l ON l.object_attribute_value_id = v.id"
)


def export_docel(store: HubStore, out_dir) -> ExportSummary:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(path=str(root))
    read = store.connection().execute

    attr_columns = event_attribute_columns(store, ("id", "activity", "timestamp"))
    events = read(
        f"SELECT e.id, {display_name('t', 'e.event_type_id')}, "
        f"e.timestamp{attribute_cells('event', 'e.id', len(attr_columns))} "
        "FROM events e LEFT JOIN event_types t ON t.id = e.event_type_id "
        "ORDER BY e.timestamp, e.event_type_id, e.id",
        [attr_id for _, attr_id in attr_columns],
    )
    summary.counts["events.csv"] = write_csv(
        root / "events.csv",
        ["id", "activity", "timestamp"] + [name for name, _ in attr_columns],
        events,
    )

    dynamic = {attr_id for attr_id, in read(_DYNAMIC)}
    taken_files: set = set()
    dynamic_attrs = []
    for type_id, type_name in read(
        f"SELECT id, {display_name('t', 'id')} FROM object_types t ORDER BY id"
    ):
        header, seen_cols, static_ids = ["id"], {"id"}, []
        for attr_id, name in read(
            f"SELECT id, {display_name('a', 'id')} AS name "
            "FROM object_attributes a WHERE object_type_id = ? ORDER BY name, id",
            (type_id,),
        ):
            if attr_id in dynamic:
                dynamic_attrs.append((attr_id, name))
            else:
                header.append(dedupe_name(name, seen_cols))
                static_ids.append(attr_id)
        file_name = dedupe_name(f"objects_{sanitize_name(type_name)}", taken_files)
        summary.counts[f"{file_name}.csv"] = write_csv(
            root / f"{file_name}.csv",
            header,
            read(
                "SELECT o.id"
                f"{attribute_cells('object', 'o.id', len(static_ids), '=')} "
                "FROM objects o "
                "WHERE o.object_type_id = ? ORDER BY o.id",
                static_ids + [type_id],
            ),
        )

    # every dynamic file's rows from one scan, ordered by attribute first
    files, written = [], set()
    for attr_id, name in dynamic_attrs:
        file_name = dedupe_name(f"dynamic_{sanitize_name(name)}", taken_files)
        files.append((attr_id, f"{file_name}.csv"))
        summary.counts[f"{file_name}.csv"] = 0
    file_of = dict(files)
    header = ["value_id", "object_id", "event_id", "timestamp", "value"]
    values = read(
        "SELECT v.object_attribute_id, v.id, v.object_id, l.event_id, "
        "v.timestamp, v.attribute_value FROM object_attribute_values v "
        "LEFT JOIN event_to_object_attribute_value l "
        "ON l.object_attribute_value_id = v.id "
        f"WHERE v.object_attribute_id IN ({_DYNAMIC}) ORDER BY "
        "v.object_attribute_id, v.object_id, v.timestamp, v.id, l.event_id"
    )
    for attr_id, rows in groupby(values, key=itemgetter(0)):
        if attr_id in file_of:
            written.add(attr_id)
            summary.counts[file_of[attr_id]] = write_csv(
                root / file_of[attr_id], header, (row[1:] for row in rows))
    for attr_id, file_name in files:
        if attr_id not in written:  # a NULL attribute id matches no value
            write_csv(root / file_name, header, ())

    return summary
