"""Exporter to the hub-CSV interchange format (see ``ochub.importers.hubcsv``)."""

from __future__ import annotations

from itertools import chain
from pathlib import Path

from ochub.exporters import write_csv
from ochub.schema import TABLE_COLUMNS


def export_hub_csv(store, out_dir) -> dict:
    """Write a store's contents as a hub-CSV directory (the inverse of
    import_hub_csv). Only non-empty tables produce files. Returns row
    counts per file."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    counts = {}
    for table, columns in TABLE_COLUMNS.items():
        rows = store.connection().execute(
            f"SELECT {', '.join(columns)} FROM {table} ORDER BY id"
        )
        first = rows.fetchone()
        if first is not None:
            path = root / f"{table}.csv"
            counts[path.name] = write_csv(path, columns, chain([first], rows))
    return counts
