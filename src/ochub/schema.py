"""The twelve-table relational layout and the in-memory Batch.

The layout is process-agnostic: event/object types and attribute definitions
live in rows, never in table or column names, so ingesting a new process
changes row counts only. Every table has a text primary key ``id``; foreign
keys are ``<referenced table singular>_id`` columns. Attribute and qualifier
values are stored as text, with the declared datatype kept as metadata.
A Batch row is a tuple of its table's values in ``TABLE_COLUMNS`` order,
built by ``Batch.add`` or by an ``ochub.importers`` emitter.
"""

from __future__ import annotations

from itertools import groupby

TABLES = (
    "event_types",
    "event_attributes",
    "events",
    "event_attribute_values",
    "object_types",
    "object_attributes",
    "objects",
    "object_attribute_values",
    "relation_qualifiers",
    "object_to_object",
    "event_to_object",
    "event_to_object_attribute_value",
)

TABLE_COLUMNS = {
    "event_types": ("id", "description"),
    "event_attributes": ("id", "event_type_id", "description", "datatype"),
    "events": ("id", "event_type_id", "timestamp", "description"),
    "event_attribute_values": (
        "id",
        "event_id",
        "event_attribute_id",
        "attribute_value",
    ),
    "object_types": ("id", "description"),
    "object_attributes": ("id", "object_type_id", "description", "datatype"),
    "objects": ("id", "object_type_id", "description"),
    "object_attribute_values": (
        "id",
        "object_id",
        "object_attribute_id",
        "timestamp",
        "attribute_value",
    ),
    "relation_qualifiers": ("id", "description", "datatype"),
    "object_to_object": (
        "id",
        "source_object_id",
        "target_object_id",
        "timestamp",
        "qualifier_id",
        "qualifier_value",
    ),
    "event_to_object": (
        "id",
        "event_id",
        "object_id",
        "qualifier_id",
        "qualifier_value",
    ),
    "event_to_object_attribute_value": (
        "id",
        "event_id",
        "object_attribute_value_id",
        "qualifier_id",
        "qualifier_value",
    ),
}

# (table, column) -> referenced table. Checked at quality checkpoints, not at
# write time: late-arriving references are a feature of batch ingestion.
FOREIGN_KEYS = {
    ("event_attributes", "event_type_id"): "event_types",
    ("events", "event_type_id"): "event_types",
    ("event_attribute_values", "event_id"): "events",
    ("event_attribute_values", "event_attribute_id"): "event_attributes",
    ("object_attributes", "object_type_id"): "object_types",
    ("objects", "object_type_id"): "object_types",
    ("object_attribute_values", "object_id"): "objects",
    ("object_attribute_values", "object_attribute_id"): "object_attributes",
    ("object_to_object", "source_object_id"): "objects",
    ("object_to_object", "target_object_id"): "objects",
    ("object_to_object", "qualifier_id"): "relation_qualifiers",
    ("event_to_object", "event_id"): "events",
    ("event_to_object", "object_id"): "objects",
    ("event_to_object", "qualifier_id"): "relation_qualifiers",
    ("event_to_object_attribute_value", "event_id"): "events",
    (
        "event_to_object_attribute_value",
        "object_attribute_value_id",
    ): "object_attribute_values",
    ("event_to_object_attribute_value", "qualifier_id"): "relation_qualifiers",
}

TIMESTAMP_COLUMNS = (
    ("events", "timestamp"),
    ("object_attribute_values", "timestamp"),
    ("object_to_object", "timestamp"),
)
TIMESTAMP_COLUMN_OF = dict(TIMESTAMP_COLUMNS)  # table -> its timestamp column

DATATYPES = ("string", "integer", "float", "boolean", "timestamp")


def _row_id(row) -> str:
    return row[0] or ""


def _row_text(row) -> tuple:
    return tuple(map(str, row))


class Batch:
    """An in-memory set of rows for any subset of the twelve tables.

    The unit of ingestion. ``rows`` maps each table to its rows, each a
    tuple of the table's values in ``TABLE_COLUMNS`` order as ``Batch.add``
    builds it; a row put straight into ``rows`` must have that shape.
    Construction is permissive (duplicate ids and dangling references are
    caught by the staging checkpoint or by append_batch, not here).
    """

    def __init__(self):
        self.rows = {table: [] for table in TABLES}

    def add(self, table: str, **columns) -> tuple:
        """Append one row; missing columns become None."""
        cols = TABLE_COLUMNS.get(table)
        if cols is None:
            raise KeyError(f"unknown table: {table}")
        unknown = columns.keys() - set(cols)
        if unknown:
            raise KeyError(f"unknown columns for {table}: {', '.join(sorted(unknown))}")
        row = tuple(map(columns.get, cols))
        self.rows[table].append(row)
        return row

    def counts(self) -> dict:
        return {table: len(rows) for table, rows in self.rows.items() if rows}

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def canonicalize(self) -> "Batch":
        """Sort rows by id within each table and drop exact duplicates,
        in place. Rows sharing an id with different content are kept for
        the quality checks to flag. Returns self.

        The first of each set of duplicates is kept, and the sort is stable
        on (id, every value as text): rows are sorted by id, and only rows
        sharing an id are then ordered by their values as text.
        """
        for table in TABLES:
            unique = sorted(dict.fromkeys(self.rows[table]), key=_row_id)
            ids = list(map(_row_id, unique))
            if len(set(ids)) < len(ids):  # order each run of one id by text
                start = 0
                for _, run in groupby(ids):
                    end = start + len(list(run))
                    unique[start:end] = sorted(unique[start:end], key=_row_text)
                    start = end
            self.rows[table] = unique
        return self
