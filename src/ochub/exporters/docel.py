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
"""

from __future__ import annotations

import csv
from pathlib import Path

from ochub.exporters import ExportSummary, event_attribute_values
from ochub.store import HubStore
from ochub.util import dedupe_name, sanitize_name


def _write_csv(path: Path, header, rows) -> int:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])
    return len(rows)


def export_docel(store: HubStore, out_dir) -> ExportSummary:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(format="docel", path=str(root))

    event_type_names = {
        row["id"]: row["description"] or row["id"]
        for row in store.table_rows("event_types")
    }
    event_attrs = sorted(
        store.table_rows("event_attributes"),
        key=lambda a: (a["description"] or a["id"], a["id"]),
    )
    attr_columns = []
    seen = {"id", "activity", "timestamp"}
    for attr in event_attrs:
        name = attr["description"] or attr["id"]
        attr_columns.append((dedupe_name(name, seen), attr["id"]))
    values_by_event = event_attribute_values(store)

    events = store.connection().execute(
        "SELECT id, event_type_id, timestamp FROM events "
        "ORDER BY timestamp, event_type_id, id"
    )
    rows = [
        [
            event["id"],
            event_type_names.get(event["event_type_id"], event["event_type_id"]),
            event["timestamp"],
        ]
        + [
            values_by_event.get(event["id"], {}).get(attr_id)
            for _, attr_id in attr_columns
        ]
        for event in events
    ]
    summary.counts["events.csv"] = _write_csv(
        root / "events.csv",
        ["id", "activity", "timestamp"] + [name for name, _ in attr_columns],
        rows,
    )

    # classify object attributes: static iff at most one value per object
    # and no value is linked to an event
    linked_value_ids = {
        row["object_attribute_value_id"]
        for row in store.table_rows("event_to_object_attribute_value")
    }
    values_by_attr: dict = {}
    per_object_counts: dict = {}
    # in (object, timestamp, id) order, the row order of the dynamic files
    for row in store.connection().execute(
        "SELECT * FROM object_attribute_values ORDER BY object_id, timestamp, id"
    ):
        values_by_attr.setdefault(row["object_attribute_id"], []).append(row)
        key = (row["object_attribute_id"], row["object_id"])
        per_object_counts[key] = per_object_counts.get(key, 0) + 1

    def is_static(attr_id: str) -> bool:
        for value in values_by_attr.get(attr_id, []):
            if value["id"] in linked_value_ids:
                return False
            if per_object_counts[(attr_id, value["object_id"])] > 1:
                return False
        return True

    object_attrs: dict = {}
    for row in store.table_rows("object_attributes"):
        object_attrs.setdefault(row["object_type_id"], []).append(row)

    object_types = list(store.table_rows("object_types"))
    taken_files: set = set()
    dynamic_attrs = []
    for otype in sorted(object_types, key=lambda t: t["id"]):
        attrs = sorted(
            object_attrs.get(otype["id"], []),
            key=lambda a: (a["description"] or a["id"], a["id"]),
        )
        static_attrs = [a for a in attrs if is_static(a["id"])]
        dynamic_attrs.extend(a for a in attrs if not is_static(a["id"]))
        header = ["id"]
        seen_cols = {"id"}
        for attr in static_attrs:
            header.append(dedupe_name(attr["description"] or attr["id"], seen_cols))
        single_value = {
            (v["object_attribute_id"], v["object_id"]): v["attribute_value"]
            for attr in static_attrs
            for v in values_by_attr.get(attr["id"], [])
        }
        members = sorted(
            (o for o in store.table_rows("objects")
             if o["object_type_id"] == otype["id"]),
            key=lambda o: o["id"],
        )
        rows = [
            [obj["id"]]
            + [
                single_value.get((attr["id"], obj["id"]))
                for attr in static_attrs
            ]
            for obj in members
        ]
        file_name = dedupe_name(
            f"objects_{sanitize_name(otype['description'] or otype['id'])}",
            taken_files,
        )
        summary.counts[f"{file_name}.csv"] = _write_csv(
            root / f"{file_name}.csv", header, rows
        )

    e2oav_by_value: dict = {}
    for row in store.table_rows("event_to_object_attribute_value"):
        e2oav_by_value.setdefault(
            row["object_attribute_value_id"], []
        ).append(row["event_id"])

    for attr in dynamic_attrs:
        rows = []
        for value in values_by_attr.get(attr["id"], []):
            event_ids = sorted(e2oav_by_value.get(value["id"], [])) or [None]
            for event_id in event_ids:
                rows.append(
                    [
                        value["id"],
                        value["object_id"],
                        event_id,
                        value["timestamp"],
                        value["attribute_value"],
                    ]
                )
        file_name = dedupe_name(
            f"dynamic_{sanitize_name(attr['description'] or attr['id'])}",
            taken_files,
        )
        summary.counts[f"{file_name}.csv"] = _write_csv(
            root / f"{file_name}.csv",
            ["value_id", "object_id", "event_id", "timestamp", "value"],
            rows,
        )

    return summary
