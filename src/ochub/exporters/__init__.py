"""Extractors from the hub into external event-log formats.

All exporters are read-only over the store and deterministic: same store
contents produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ochub.util import dedupe_name


class ExportError(Exception):
    """Output cannot be produced (bad target, name collision, ...)."""


@dataclass
class ExportSummary:
    format: str
    path: str
    counts: dict = field(default_factory=dict)  # table/file -> rows written
    notes: list = field(default_factory=list)


def event_attribute_values(store) -> dict:
    """{event id: {event attribute id: value}}; on a repeated (event,
    attribute) pair the row with the greatest id wins."""
    values: dict = {}
    for row in store.table_rows("event_attribute_values"):
        by_attribute = values.setdefault(row["event_id"], {})
        by_attribute[row["event_attribute_id"]] = row["attribute_value"]
    return values


def event_attribute_columns(store, reserved) -> list:
    """[(column name, event attribute id)] over all event types in (name,
    id) order, a name being the description, else the id; a name already
    taken (``reserved`` or an earlier column) gets a numeric suffix."""
    taken = set(reserved)
    return [
        (dedupe_name(name, taken), attr_id)
        for attr_id, name in store.connection().execute(
            "SELECT id, coalesce(nullif(description, ''), id) AS name "
            "FROM event_attributes ORDER BY name, id"
        )
    ]


from ochub.exporters.ocel2 import export_ocel2
from ochub.exporters.docel import export_docel
from ochub.exporters.flatcsv import export_flat_csv

__all__ = [
    "ExportError",
    "ExportSummary",
    "export_ocel2",
    "export_docel",
    "export_flat_csv",
]
