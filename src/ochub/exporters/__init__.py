"""Extractors from the hub into external event-log formats.

All exporters are read-only over the store and deterministic: same store
contents produce byte-identical output. Each exporter's module is imported
on first use of its name, so a caller of ``write_csv`` loads none of them.
"""

from __future__ import annotations

import csv

from ochub.util import FormatError, dedupe_name, lazy_names, replacing


class ExportError(FormatError):
    """Output cannot be produced (bad target, name collision, ...)."""


class ExportSummary:
    def __init__(self, path: str):
        self.path = path
        self.counts = {}  # table/file -> rows written
        self.notes = []


def attribute_cells(kind: str, outer: str, count: int, match: str = "IS") -> str:
    """SQL for ``count`` select-list cells, each led by ", ": the value of
    the ``kind`` ("event" or "object") whose id is ``outer`` for the
    attribute id bound to the next ``?``; on a repeated (owner, attribute)
    pair the row with the greatest id wins. ``match`` compares both ids:
    "IS" matches NULL to NULL (the event cells), "=" matches NULL to
    nothing (DOCEL's static object cells)."""
    return (
        f", (SELECT attribute_value FROM {kind}_attribute_values "
        f"WHERE {kind}_id {match} {outer} AND {kind}_attribute_id {match} ? "
        "ORDER BY id DESC, rowid DESC LIMIT 1)"
    ) * count


def display_name(alias: str, fallback: str) -> str:
    """SQL for a display name: the description of the row aliased ``alias``,
    else ``fallback``."""
    return f"coalesce(nullif({alias}.description, ''), {fallback})"


def write_csv(path, header, rows) -> int:
    """Write ``header`` and ``rows`` (None as "") to ``path`` through
    ``replacing``; returns the number of rows."""
    count = 0
    with (replacing(path) as temp,
          open(temp, "w", newline="", encoding="utf-8") as handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        for count, row in enumerate(rows, 1):
            writer.writerow(row)
    return count


def event_attribute_columns(store, reserved) -> list:
    """[(column name, event attribute id)] over all event types in (name,
    id) order, a name being the description, else the id; a name already
    taken (``reserved`` or an earlier column) gets a numeric suffix."""
    taken = set(reserved)
    return [
        (dedupe_name(name, taken), attr_id)
        for attr_id, name in store.connection().execute(
            f"SELECT id, {display_name('a', 'id')} AS name "
            "FROM event_attributes a ORDER BY name, id"
        )
    ]


__getattr__ = lazy_names(__name__, {
    "export_ocel2": "ochub.exporters.ocel2",
    "export_docel": "ochub.exporters.docel",
    "export_flat_csv": "ochub.exporters.flatcsv",
    "export_hub_csv": "ochub.exporters.hubcsv",
})

__all__ = [
    "ExportError",
    "ExportSummary",
    "replacing",
    "export_ocel2",
    "export_docel",
    "export_flat_csv",
    "export_hub_csv",
]
