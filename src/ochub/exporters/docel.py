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
order; SQLite sorts NULLs first, so rows with NULL columns take their place
like any other. Only the naming of files and columns and the event
attribute pivot are Python.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ochub.exporters import (
    ExportSummary,
    event_attribute_columns,
    event_attribute_values,
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


def _write_csv(path: Path, header, rows) -> int:
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])
            count += 1
    return count


def export_docel(store: HubStore, out_dir) -> ExportSummary:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(format="docel", path=str(root))
    read = store.connection().execute

    attr_columns = event_attribute_columns(store, ("id", "activity", "timestamp"))
    values_by_event = event_attribute_values(store)
    events = read(
        "SELECT e.id, coalesce(nullif(t.description, ''), e.event_type_id), "
        "e.timestamp FROM events e LEFT JOIN event_types t ON t.id = e.event_type_id "
        "ORDER BY e.timestamp, e.event_type_id, e.id"
    )
    summary.counts["events.csv"] = _write_csv(
        root / "events.csv",
        ["id", "activity", "timestamp"] + [name for name, _ in attr_columns],
        (
            [event_id, activity, timestamp]
            + [values_by_event.get(event_id, {}).get(attr_id) for _, attr_id in attr_columns]
            for event_id, activity, timestamp in events
        ),
    )

    dynamic = {attr_id for attr_id, in read(_DYNAMIC)}
    taken_files: set = set()
    dynamic_attrs = []
    for type_id, type_name in read(
        "SELECT id, coalesce(nullif(description, ''), id) FROM object_types ORDER BY id"
    ):
        header, seen_cols, static_ids = ["id"], {"id"}, []
        for attr_id, name in read(
            "SELECT id, coalesce(nullif(description, ''), id) AS name "
            "FROM object_attributes WHERE object_type_id = ? ORDER BY name, id",
            (type_id,),
        ):
            if attr_id in dynamic:
                dynamic_attrs.append((attr_id, name))
            else:
                header.append(dedupe_name(name, seen_cols))
                static_ids.append(attr_id)
        # a static attribute has at most one value per object
        cells = "".join(
            ", (SELECT attribute_value FROM object_attribute_values "
            "WHERE object_id = o.id AND object_attribute_id = ?)"
            for _ in static_ids
        )
        file_name = dedupe_name(f"objects_{sanitize_name(type_name)}", taken_files)
        summary.counts[f"{file_name}.csv"] = _write_csv(
            root / f"{file_name}.csv",
            header,
            read(
                f"SELECT o.id{cells} FROM objects o "
                "WHERE o.object_type_id = ? ORDER BY o.id",
                static_ids + [type_id],
            ),
        )

    for attr_id, name in dynamic_attrs:
        file_name = dedupe_name(f"dynamic_{sanitize_name(name)}", taken_files)
        summary.counts[f"{file_name}.csv"] = _write_csv(
            root / f"{file_name}.csv",
            ["value_id", "object_id", "event_id", "timestamp", "value"],
            read(
                "SELECT v.id, v.object_id, l.event_id, v.timestamp, v.attribute_value "
                "FROM object_attribute_values v "
                "LEFT JOIN event_to_object_attribute_value l "
                "ON l.object_attribute_value_id = v.id "
                "WHERE v.object_attribute_id = ? "
                "ORDER BY v.object_id, v.timestamp, v.id, l.event_id",
                (attr_id,),
            ),
        )

    return summary
