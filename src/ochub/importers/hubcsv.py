"""Importer for the hub-CSV interchange format.

A hub-CSV directory contains up to twelve UTF-8 CSV files named exactly
after the schema tables, each with a header row carrying the exact column
names, each once (a leading byte-order mark is ignored). Timestamps are
RFC 3339; an empty ``qualifier_value`` in ``object_to_object.csv`` encodes
NULL (relation termination).
"""

from __future__ import annotations

from pathlib import Path

from ochub.importers import AppendableBatch, ImportError_, read_csv
from ochub.schema import Batch, TABLE_COLUMNS, TIMESTAMP_COLUMN_OF
from ochub.util import TimestampError, normalize_timestamp


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
        header, rows = read_csv(path, path.name)
        # a missing or repeated column, then one the table does not have
        missing = [c for c in columns if header.get(c) is None]
        extra = [c for c in header if c not in columns]
        if missing or extra:
            problem = (missing + extra)[0]
            raise ImportError_(f"{path.name}: header mismatch on column {problem!r}")
        at = [header[column] for column in columns]
        null_at = header["qualifier_value"] if table == "object_to_object" else None
        ts_at = header.get(TIMESTAMP_COLUMN_OF.get(table))
        out = batch.rows[table]
        for line_no, cells in rows:
            if null_at is not None and cells[null_at] == "":
                cells[null_at] = None
            if ts_at is not None:
                try:
                    cells[ts_at] = normalize_timestamp(cells[ts_at] or "")
                except TimestampError as exc:
                    raise ImportError_(f"{path.name} line {line_no}: {exc}") from exc
            out.append(tuple(map(cells.__getitem__, at)))

    return AppendableBatch(batch=batch)

