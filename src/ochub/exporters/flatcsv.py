"""Flat (single case notion) CSV extractor.

Flattens the store onto one chosen object type: one output row per
(event, related object of that type), with the object id as the case id and
the event type description as the activity. Events touching several case
objects are duplicated across cases (classical convergence); the summary
reports the duplication factor so the distortion is visible.
"""

from __future__ import annotations

from pathlib import Path

from ochub.exporters import (
    ExportError,
    ExportSummary,
    attribute_cells,
    display_name,
    event_attribute_columns,
    write_csv,
)
from ochub.store import HubStore


def export_flat_csv(store: HubStore, case_object_type: str, out) -> ExportSummary:
    if not store.has_id("object_types", case_object_type):
        raise ExportError(f"unknown object type: {case_object_type}")
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(path=str(out_path))

    attr_columns = event_attribute_columns(store, ("case_id", "activity", "timestamp"))
    # one row per (case, event) pair in event order; a pair whose event is
    # missing (a dangling relation, owned by the transform checkpoint) gets
    # no row but still counts towards the convergence note. ev holds each
    # pair event once, so its cells are pivoted once per event, not per pair.
    pairs = store.connection().execute(
        "WITH p AS (SELECT DISTINCT r.object_id, r.event_id FROM event_to_object r "
        "JOIN objects o ON o.id = r.object_id WHERE o.object_type_id = ?), "
        "ev AS (SELECT e.id, e.event_type_id, "
        f"{display_name('t', 'e.event_type_id')}, e.timestamp"
        f"{attribute_cells('event', 'e.id', len(attr_columns))} "
        "FROM (SELECT DISTINCT event_id FROM p) q JOIN events e ON e.id = q.event_id "
        "LEFT JOIN event_types t ON t.id = e.event_type_id) "
        "SELECT p.event_id, p.object_id, ev.* "
        "FROM p LEFT JOIN ev ON ev.id = p.event_id "
        "ORDER BY p.object_id, ev.timestamp, ev.event_type_id, p.event_id",
        [case_object_type] + [attr_id for _, attr_id in attr_columns],
    )
    events: set = set()

    def rows():
        for event_id, case_id, found, _, *row in pairs:
            events.add(event_id)
            if found is not None:
                yield [case_id, *row]

    written = summary.counts[out_path.name] = write_csv(
        out_path,
        ["case_id", "activity", "timestamp"] + [name for name, _ in attr_columns],
        rows(),
    )
    if events:
        summary.notes.append(
            f"convergence duplication factor: {written / len(events):.3f} "
            f"({written} rows from {len(events)} events)"
        )
    return summary
