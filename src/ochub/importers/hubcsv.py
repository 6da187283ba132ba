"""Importer for the hub-CSV interchange format.

A hub-CSV directory contains up to twelve UTF-8 CSV files named exactly
after the schema tables, each with a header row carrying the exact column
names (a leading byte-order mark is ignored). Timestamps are RFC 3339;
an empty ``qualifier_value`` in ``object_to_object.csv`` encodes NULL
(relation termination).
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

from ochub.exporters import write_csv
from ochub.importers import AppendableBatch, ImportError_, read_csv
from ochub.schema import Batch, TABLE_COLUMNS, TIMESTAMP_COLUMNS
from ochub.util import TimestampError, normalize_timestamp

_TS_COLS = {table: col for table, col in TIMESTAMP_COLUMNS}


def import_hub_csv(directory) -> AppendableBatch:
    """Load a hub-CSV directory into a batch mirroring the files exactly."""
    root = Path(directory)
    if not root.is_dir():
        raise ImportError_(f"not a directory: {root}")

    expected = {f"{table}.csv": table for table in TABLE_COLUMNS}
    batch = Batch()

    for path in sorted(root.glob("*.csv")):
        table = expected.get(path.name)
        if table is None:
            raise ImportError_(f"unknown file name: {path.name}")
        columns = TABLE_COLUMNS[table]
        ts_col = _TS_COLS.get(table)
        header, rows = read_csv(path, path.name)
        missing = [c for c in columns if c not in header]
        extra = [c for c in header if c not in columns]
        if missing or extra:
            problem = (missing + extra)[0]
            raise ImportError_(f"{path.name}: header mismatch on column {problem!r}")
        at = [header[column] for column in columns]
        for line_no, cells in enumerate(rows, start=2):
            row = dict(zip(columns, map(cells.__getitem__, at)))
            if table == "object_to_object" and row["qualifier_value"] == "":
                row["qualifier_value"] = None
            if ts_col:
                try:
                    row[ts_col] = normalize_timestamp(row[ts_col] or "")
                except TimestampError as exc:
                    raise ImportError_(f"{path.name} line {line_no}: {exc}") from exc
            batch.rows[table].append(row)

    return AppendableBatch(batch=batch)


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
