"""Flat (single case notion) CSV extractor.

Flattens the store onto one chosen object type: one output row per
(event, related object of that type), with the object id as the case id and
the event type description as the activity. Events touching several case
objects are duplicated across cases (classical convergence); the summary
reports the duplication factor so the distortion is visible.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ochub.exporters import ExportError, ExportSummary, event_attribute_values
from ochub.store import HubStore
from ochub.util import dedupe_name


def export_flat_csv(store: HubStore, case_object_type: str, out) -> ExportSummary:
    if not store.has_id("object_types", case_object_type):
        raise ExportError(f"unknown object type: {case_object_type}")
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(format="flat", path=str(out_path))

    event_type_names = {
        row["id"]: row["description"] or row["id"]
        for row in store.table_rows("event_types")
    }
    attr_columns = []
    seen = {"case_id", "activity", "timestamp"}
    for attr in sorted(
        store.table_rows("event_attributes"),
        key=lambda a: (a["description"] or a["id"], a["id"]),
    ):
        attr_columns.append(
            (dedupe_name(attr["description"] or attr["id"], seen), attr["id"])
        )
    values_by_event = event_attribute_values(store)
    # one row per (case, event) pair in event order; a pair whose event is
    # missing (a dangling relation, owned by the transform checkpoint) gets
    # no row but still counts towards the convergence note
    pairs = store.connection().execute(
        "SELECT p.object_id, p.event_id, e.id, e.event_type_id, e.timestamp "
        "FROM (SELECT DISTINCT r.object_id, r.event_id FROM event_to_object r "
        "JOIN objects o ON o.id = r.object_id WHERE o.object_type_id = ?) p "
        "LEFT JOIN events e ON e.id = p.event_id "
        "ORDER BY p.object_id, e.timestamp, e.event_type_id, p.event_id",
        (case_object_type,),
    ).fetchall()
    rows = [
        [
            case_id,
            event_type_names.get(type_id, type_id),
            timestamp,
        ]
        + [
            values_by_event.get(event_id, {}).get(attr_id)
            for _, attr_id in attr_columns
        ]
        for case_id, event_id, found, type_id, timestamp in pairs
        if found is not None
    ]

    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["case_id", "activity", "timestamp"]
            + [name for name, _ in attr_columns]
        )
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])

    summary.counts[out_path.name] = len(rows)
    distinct_events = len({pair[1] for pair in pairs})
    if distinct_events:
        factor = len(rows) / distinct_events
        summary.notes.append(
            f"convergence duplication factor: {factor:.3f} "
            f"({len(rows)} rows from {distinct_events} events)"
        )
    return summary
