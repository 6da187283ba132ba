"""Durable hub store: append-only ingestion and the ordered queries.

Backed by a single SQLite file holding the twelve tables plus a small
meta table, ``hub_meta``: the layout version, the batch clock and, once
rows are known clean, ``CLEAN_KEY``, the per-table rowid up to which
every row passed the transform checks and the row count at that rowid
(see ``clean_watermark``), under a key named by ``CHECK_RULES``; after
an ingest, ``last_input``, the digest of the input it read and the
source rows it skipped. An ingest's ``append_batch`` writes both beside
its rows, in its one transaction: the store is append-only, so a batch
that passed the staging checks against staged union store passes the
transform checks once appended, and the watermark moves over it if it
stood at every table's top. All columns are text; referential integrity
is deliberately NOT enforced at write time so that tables can be
ingested in any order across batches. Rows are never updated or deleted.
A batch is staged once in TEMP tables of the same layout
(``temp.staged_<table>``); the quality checks and append_batch's
conflict detection are SQL over those tables and the store, and its
insert is one upsert per table that skips what those checks left:
identical repeats of an id. ``stage`` returns a ``StagedBatch`` handle
that the staging checkpoint and append_batch take in place of the batch,
so an ingest stages it only once; ``stage_placeholder_objects`` adds the
repair of missing objects to that stage, in place. Object histories come
from one ordered scan, ``timelines``, which both ``object_timeline`` and the
case graph read; event order (timestamp, event_type_id, id) is SQL's. Each
point read is one indexed statement: ``object_timeline`` is that scan for
one object (``idx_e2o_object``, ``idx_oav_object``), with the object's
``objects`` row as a first branch that tests it exists; ``o2o_valid_at``
reads three existence flags and the latest relation row at or before the
instant (``idx_o2o_source``) together.
"""

from __future__ import annotations

import json
import os
import sqlite3
from collections import namedtuple
from itertools import groupby
from operator import itemgetter
from typing import Iterator, Optional

from ochub.schema import TABLES, TABLE_COLUMNS, TIMESTAMP_COLUMN_OF
from ochub.util import (
    TimestampError,
    is_valid_timestamp,
    normalize_timestamp,
    row_dicts,
)

LAYOUT_VERSION = "1"
CHECK_RULES = 2  # the store checks' rules: bump when one tightens (quality.py)
CLEAN_KEY = f"transform_clean_v{CHECK_RULES}"  # hub_meta key of the watermark
INPUT_KEY = "last_input"  # hub_meta key of the latest recorded ingest input
UNKNOWN_OBJECT_TYPE_ID = "ot:unknown"  # the type of placeholder objects

# Each serves a lookup by its column. Stores of the same layout version
# made earlier may also hold idx_e2o_event and idx_e2oav_event; no
# statement needs them, so they stay where they are.
_INDEXES = (
    ("idx_e2o_object", "event_to_object", "object_id"),
    ("idx_oav_object", "object_attribute_values", "object_id"),
    ("idx_eav_event", "event_attribute_values", "event_id"),
    ("idx_o2o_source", "object_to_object", "source_object_id"),
)

# StatsReport field -> (table, column) whose rows it counts per value
_PER_VALUE_STATS = {
    "events_per_type": ("events", "event_type_id"),
    "objects_per_type": ("objects", "object_type_id"),
    "e2o_per_qualifier": ("event_to_object", "qualifier_id"),
    "o2o_per_qualifier": ("object_to_object", "qualifier_id"),
    "e2oav_per_qualifier": ("event_to_object_attribute_value", "qualifier_id"),
    "event_values_per_attribute": ("event_attribute_values", "event_attribute_id"),
    "object_values_per_attribute": ("object_attribute_values", "object_attribute_id"),
}


class StoreError(Exception):
    """Base class for store failures."""


class StoreNotFoundError(StoreError):
    """No store exists at the given path and create_if_missing is off."""


class StoreLayoutError(StoreError):
    """Existing file is not a hub store or has an unsupported layout."""


class UnknownIdError(StoreError):
    """A query referenced an id that does not exist in the store."""


class AppendConflictError(StoreError):
    """A batch row's id already exists with different content.

    Signals an upstream pipeline bug; the whole batch is rolled back.
    """

    def __init__(self, conflicts):
        self.conflicts = conflicts
        first = conflicts[0]
        suffix = f" (+{len(conflicts) - 1} more)" if len(conflicts) > 1 else ""
        super().__init__(
            f"id {first[1]!r} already exists in {first[0]} "
            f"with different content{suffix}"
        )


class StagedBatch:
    """Handle on the batch ``HubStore.stage`` put in the store's TEMP
    tables: the staged row count per table. It holds none of the batch's
    rows, so what it checks and appends is what was staged. Two handles
    are equal only if they are the same.

    What ``append_batch`` writes beside the rows: ``checked``, set once
    the staging checkpoint has passed on this handle, lets it move the
    clean-row watermark; ``last_input``, a JSON object an ingest sets, is
    recorded as the store's ``last_input``."""

    def __init__(self, counts: dict):
        self.counts = counts
        self.checked = False
        self.last_input = None

    def total_rows(self) -> int:
        return sum(self.counts.values())


def _staged_value(value):
    """``value`` normalized or, where it does not read (None too), verbatim."""
    try:
        return normalize_timestamp(value)
    except TimestampError:
        return value  # kept verbatim; the quality checkpoint flags it


def _staged_rows(rows, ts: int) -> list:
    """The rows, each distinct timestamp at index ``ts`` read once by
    ``_staged_value``; a row is rebuilt only if that changed its value."""
    try:
        read = {v: _staged_value(v) for v in {row[ts] for row in rows}}.__getitem__
    except TypeError:  # an unhashable value, such as a bytearray (a BLOB)
        read = _staged_value
    return [row if (value := read(row[ts])) is row[ts] else
            row[:ts] + (value,) + row[ts + 1:] for row in rows]


# One step in an object's history: an event participation (kind "event")
# or a standalone attribute update ("update"). Updates sharing a timestamp
# with a related event are merged into the event entries at that timestamp.
TimelineEntry = namedtuple("TimelineEntry", "kind timestamp event_id event_type_id "
                           "updated_attribute_ids value_ids",
                           defaults=(None, None, (), ()))


class StatsReport(namedtuple("StatsReport", (
        "table_counts", "events_per_type", "objects_per_type",
        "e2o_per_qualifier", "o2o_per_qualifier", "e2oav_per_qualifier",
        "e2o_per_type_pair", "event_values_per_attribute",
        "object_values_per_attribute"))):
    """Row counts broken down the way analysts ask for them, each a dict
    in key order as SQL gives it. A NULL key counts as "" (first), as the
    overview graph shows it, so it is not the type named ``None``; only the
    type pairs keep NULL."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields in order, each a copy; the type pairs as a list."""
        out = {name: dict(value) for name, value in zip(self._fields, self)}
        out["e2o_per_type_pair"] = [
            {"event_type_id": et, "object_type_id": ot, "count": n}
            for (et, ot), n in self.e2o_per_type_pair.items()
        ]
        return out


def _db_path(path: str) -> str:
    if os.path.isdir(path):
        return os.path.join(path, "hub.db")
    return path


def open_store(path: str, create_if_missing: bool = True) -> "HubStore":
    """Open (or create) a hub store at a filesystem location.

    ``path`` is the database file; an existing directory is also accepted,
    in which case ``hub.db`` inside it is used. With ``create_if_missing``,
    an existing file that holds no schema at all (say, an ``init`` killed
    before its layout committed) is laid out as a new store.
    """
    db_file = _db_path(path)
    exists = os.path.exists(db_file)
    if not exists and not create_if_missing:
        raise StoreNotFoundError(f"store not found: {path}")
    try:
        conn = sqlite3.connect(db_file)
    except sqlite3.Error as exc:
        raise StoreError(f"cannot open store at {path}: {exc}") from exc
    # the quality checkpoint's timestamp test, callable from its SQL
    conn.create_function(
        "is_valid_timestamp", 1, is_valid_timestamp, deterministic=True
    )
    try:
        if not exists or create_if_missing and _first_row(
                conn, db_file, "SELECT 1 FROM sqlite_master") is None:
            _create_layout(conn)
        else:
            _check_layout(conn, db_file)
    except Exception:
        conn.close()
        raise
    return HubStore(db_file, conn)


def _create_layout(conn: sqlite3.Connection) -> None:
    """Create the tables, indexes and ``hub_meta`` in one transaction:
    sqlite3 opens none before DDL, so each statement would commit alone."""
    with conn:
        conn.execute("BEGIN")
        for table, cols in TABLE_COLUMNS.items():
            defs = ", ".join(
                f"{col} TEXT PRIMARY KEY" if col == "id" else f"{col} TEXT"
                for col in cols
            )
            conn.execute(f"CREATE TABLE {table} ({defs})")
        for name, table, col in _INDEXES:
            conn.execute(f"CREATE INDEX {name} ON {table} ({col})")
        conn.execute("CREATE TABLE hub_meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute(
            "INSERT INTO hub_meta VALUES ('layout_version', ?), ('batch_clock', '0')",
            (LAYOUT_VERSION,),
        )


# SQLite's messages for SQLITE_BUSY and SQLITE_LOCKED (Python 3.10's
# sqlite3 errors carry no error code)
_LOCKED_MESSAGES = ("database is locked", "database table is locked")


def _first_row(conn: sqlite3.Connection, db_file: str, sql: str):
    """The first row of ``sql`` on a store file being opened; a busy or
    locked file is a StoreError saying so, any other SQLite error a
    StoreLayoutError."""
    try:
        return conn.execute(sql).fetchone()
    except sqlite3.Error as exc:
        if str(exc) in _LOCKED_MESSAGES:
            raise StoreError(
                f"store is locked by another connection: {db_file}") from exc
        raise StoreLayoutError(f"not a hub store: {db_file}") from exc


def _check_layout(conn: sqlite3.Connection, db_file: str) -> None:
    row = _first_row(
        conn, db_file, "SELECT value FROM hub_meta WHERE key = 'layout_version'")
    if row is None or row[0] != LAYOUT_VERSION:
        found = None if row is None else row[0]
        raise StoreLayoutError(
            f"unrecognized layout version {found!r} in {db_file}"
        )


class HubStore:
    """Handle on a durable twelve-table store.

    Writers may run concurrently: append_batch checks and inserts in one
    ``BEGIN IMMEDIATE`` transaction, so a second writer waits for the lock
    (the connection's busy timeout, then ``sqlite3.OperationalError``) and
    checks its batch against the first one's rows. Reads opened after
    append_batch returns see the new rows.
    """

    def __init__(self, path: str, conn: sqlite3.Connection):
        self.path = path
        self._conn = conn
        self._staged = None  # the handle of what temp.staged_<table> holds

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HubStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reads ----------------------------------------------------------

    def row_count(self, table: str) -> int:
        self._require_table(table)
        return self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    def table_rows(self, table: str) -> Iterator[dict]:
        """All rows of a table as dicts, ordered by id."""
        self._require_table(table)
        cursor = self._conn.execute(f"SELECT * FROM {table} ORDER BY id")
        yield from row_dicts(cursor)

    def get_row(self, table: str, row_id: str) -> Optional[dict]:
        self._require_table(table)
        cursor = self._conn.execute(
            f"SELECT * FROM {table} WHERE id = ?", (row_id,)
        )
        return next(row_dicts(cursor), None)

    def has_id(self, table: str, row_id: str) -> bool:
        self._require_table(table)
        return bool(self._conn.execute(
            f"SELECT EXISTS (SELECT 1 FROM {table} WHERE id = ?)", (row_id,)
        ).fetchone()[0])

    def id_set(self, table: str) -> set:
        self._require_table(table)
        return {r[0] for r in self._conn.execute(f"SELECT id FROM {table}")}

    def table_inventory(self) -> dict:
        """Physical table/column layout, for schema-immutability checks."""
        inventory = {}
        for table in TABLES:
            cols = self._conn.execute(f"PRAGMA table_info({table})").fetchall()
            inventory[table] = tuple(c[1] for c in cols)
        return inventory

    def batch_clock(self) -> int:
        return int(self._read_meta("batch_clock"))

    def connection(self) -> sqlite3.Connection:
        """Read-only use by sibling modules (queries, exports)."""
        return self._conn

    # -- append-only ingestion -------------------------------------------

    def stage(self, batch) -> "StagedBatch":
        """(Re)fill ``temp.staged_<table>`` with the batch's rows and return
        the handle that ``staged`` accepts until the next stage.

        Rows keep batch order (the staged rowid); a row of another width
        than its table's columns, or a value sqlite3 cannot bind, raises
        StoreError naming the table and its column count. Each timestamp
        is staged as ``normalize_timestamp`` gives it (canonical text as it
        is, each distinct value read once), and text that does not parse is
        kept verbatim for the quality checks to flag. Commits before
        returning, so a staged batch holds no lock on the store file.
        """
        self._staged = None  # an earlier handle goes stale, even on failure
        counts = {}
        with self._conn:
            for table in TABLES:
                cols = TABLE_COLUMNS[table]
                raws = batch.rows.get(table) or []
                column = TIMESTAMP_COLUMN_OF.get(table)
                ts = None if column is None else cols.index(column)
                self._conn.execute(f"DROP TABLE IF EXISTS temp.staged_{table}")
                self._conn.execute(
                    f"CREATE TEMP TABLE staged_{table} "
                    f"({', '.join(f'{col} TEXT' for col in cols)})"
                )
                try:
                    self._conn.executemany(
                        f"INSERT INTO temp.staged_{table} "
                        f"VALUES ({', '.join('?' for _ in cols)})",
                        raws if ts is None else _staged_rows(raws, ts),
                    )
                except (sqlite3.ProgrammingError, IndexError) as exc:
                    raise StoreError(f"cannot stage a {table} row of "
                                     f"{len(cols)} columns: {exc}") from exc
                self._conn.execute(
                    f"CREATE INDEX temp.staged_{table}_id ON staged_{table} (id)"
                )
                counts[table] = len(raws)
        self._staged = StagedBatch(counts)
        return self._staged

    def stage_placeholder_objects(self, object_ids) -> "StagedBatch":
        """Add a placeholder object per distinct id, in id order, to the
        latest stage and return its new handle; the old one goes stale.

        A placeholder has type ``ot:unknown`` and the missing id as its
        description, so the repair stays visible in the store. The
        ``ot:unknown`` type row is staged too unless the stage or the store
        holds it. Raises StoreError when nothing is staged.
        """
        if self._staged is None:
            raise StoreError("no staged batch to add placeholder objects to")
        ids = sorted(set(object_ids))
        counts = dict(self._staged.counts)
        self._staged = None
        with self._conn:
            if ids:
                counts["object_types"] += self._conn.execute(
                    "INSERT INTO temp.staged_object_types SELECT :id, 'unknown' "
                    "WHERE NOT EXISTS (SELECT 1 FROM temp.staged_object_types "
                    "WHERE id = :id) AND NOT EXISTS "
                    "(SELECT 1 FROM main.object_types WHERE id = :id)",
                    {"id": UNKNOWN_OBJECT_TYPE_ID},
                ).rowcount
            self._conn.executemany(
                "INSERT INTO temp.staged_objects VALUES (?, ?, ?)",
                ((object_id, UNKNOWN_OBJECT_TYPE_ID, object_id) for object_id in ids),
            )
            counts["objects"] += len(ids)
        self._staged = StagedBatch(counts)
        return self._staged

    def staged(self, batch) -> "StagedBatch":
        """The staged handle to check or append: a Batch is staged now; a
        StagedBatch is used as is if it is this store's latest stage, and
        raises StoreError if a later stage made it stale or another store
        made it."""
        if not isinstance(batch, StagedBatch):
            return self.stage(batch)
        if batch is not self._staged:
            raise StoreError(
                "staged batch is stale or from another store; stage it again")
        return batch

    def append_batch(self, batch) -> dict:
        """Append a batch atomically; returns rows-added counts per table.

        ``batch`` is a Batch, staged here, or the handle of this store's
        latest ``stage`` (see ``staged``), appended without restaging.
        Re-appending rows whose ids already exist with identical content is
        a no-op. A null or empty id, or an id that exists (in the store or
        elsewhere in the batch) with different content, aborts the whole
        batch.

        In the same transaction, a handle the staging checkpoint passed
        moves the clean-row watermark over the new rows if it stood at
        every table's top, and a handle's ``last_input`` replaces the one
        recorded. A plain Batch does neither.
        """
        staged = self.staged(batch)
        # checks and inserts in one write transaction: a concurrent writer
        # waits for the lock and then sees this batch's rows, so a conflict
        # between two writers is never lost
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            for table in TABLES:
                bad = self._conn.execute(
                    f"SELECT COUNT(*) FROM temp.staged_{table} "
                    "WHERE id IS NULL OR id = ''"
                ).fetchone()[0]
                if bad:
                    raise StoreError(
                        f"{bad} row(s) in {table} have a null or empty id")
            conflicts = []
            for table in TABLES:
                differs = " OR ".join(
                    f"s.{col} IS NOT o.{col}" for col in TABLE_COLUMNS[table][1:]
                )
                # the same id with different content: in a later row of the
                # batch, then in the store
                for other in (
                    f"temp.staged_{table} o ON o.id = s.id AND o.rowid > s.rowid",
                    f"main.{table} o ON o.id = s.id",
                ):
                    conflicts += [(table, row_id) for row_id, _ in self._conn.execute(
                        f"SELECT s.id, MIN(s.rowid) FROM temp.staged_{table} s "
                        f"JOIN {other} WHERE {differs} GROUP BY s.id ORDER BY 2"
                    )]
            if conflicts:
                raise AppendConflictError(conflicts)

            # read under the write lock, so no other writer's row slips
            # between the watermark and the rows appended above it
            clean = self._watermark_at_top() if staged.checked else None
            summary = {}
            for table in TABLES:
                cols = ", ".join(TABLE_COLUMNS[table])
                # the checks left only identical repeats, in the batch or
                # stored: the first in staged order goes in, the rest skip
                summary[table] = self._conn.execute(
                    f"INSERT INTO main.{table} ({cols}) SELECT {cols} "
                    f"FROM temp.staged_{table} WHERE true ORDER BY rowid "
                    "ON CONFLICT (id) DO NOTHING"
                ).rowcount
            self._conn.execute(
                "UPDATE hub_meta SET value = CAST(value AS INTEGER) + 1 "
                "WHERE key = 'batch_clock'"
            )
            if clean is not None:
                tops = self.max_rowids()
                self._write_meta(CLEAN_KEY, {
                    table: [tops[table], clean[table][1] + summary[table]]
                    for table in TABLES})
            if staged.last_input is not None:
                self._write_meta(INPUT_KEY, staged.last_input)
        return summary

    def last_input(self) -> Optional[dict]:
        """The ``last_input`` of the latest handle ``append_batch`` was
        given one with (``hub_meta`` key ``last_input``); None if there is
        none or it does not parse as a JSON object."""
        try:
            value = json.loads(self._read_meta(INPUT_KEY) or "null")
        except ValueError:
            return None
        return value if isinstance(value, dict) else None

    def _read_meta(self, key: str) -> Optional[str]:
        """The value ``hub_meta`` holds under ``key``, or None."""
        row = self._conn.execute(
            "SELECT value FROM hub_meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else row[0]

    def _write_meta(self, key: str, value) -> None:
        """Set ``hub_meta`` ``key`` to ``value`` as JSON, in the caller's
        transaction."""
        self._conn.execute("INSERT OR REPLACE INTO hub_meta VALUES (?, ?)",
                           (key, json.dumps(value)))

    # -- transform-check watermark -----------------------------------------

    def _recorded_watermark(self) -> dict:
        """{table: (rowid, row count)} as ``CLEAN_KEY`` records it;
        (0, 0) for a table whose entry is missing or not two integers, and
        for every table when the value is missing or not a JSON object."""
        try:
            marks = json.loads(self._read_meta(CLEAN_KEY) or "{}")
        except ValueError:
            marks = {}
        if not isinstance(marks, dict):
            marks = {}

        def mark(entry):
            if isinstance(entry, list) and len(entry) == 2 and all(
                    type(n) is int for n in entry):
                return tuple(entry)
            return (0, 0)

        return {table: mark(marks.get(table)) for table in TABLES}

    def clean_watermark(self) -> dict:
        """{table: (rowid, row count)}: every row at or below the rowid
        passed the transform checks, and the count is how many rows that
        was (``hub_meta`` key ``CLEAN_KEY``).

        (0, 0), meaning check the whole table, when the key or the table's
        entry is missing or unreadable (a store never checked clean, or a
        corrupt value), or when the count of rows at or below the rowid
        disagrees, as it would if the rowids were renumbered (``VACUUM``
        may do that to tables without an ``INTEGER PRIMARY KEY``).
        """
        watermark = self._recorded_watermark()
        for table, (rowid, count) in watermark.items():
            # at or below = a bare COUNT(*), which decodes no row, less those above
            if rowid and self._conn.execute(
                f"SELECT (SELECT COUNT(*) FROM main.{table}) - (SELECT COUNT(*) "
                f"FROM main.{table} WHERE rowid > ?)", (rowid,)
            ).fetchone()[0] != count:
                watermark[table] = (0, 0)
        return watermark

    def _watermark_at_top(self) -> Optional[dict]:
        """The recorded watermark if every table's rows are the rows at or
        below it: its rowid is the table's greatest (0 when empty) and its
        count the table's. None otherwise."""
        marks = self._recorded_watermark()
        found = self._conn.execute("SELECT " + ", ".join(
            f"(SELECT coalesce(MAX(rowid), 0) FROM main.{table}), "
            f"(SELECT COUNT(*) FROM main.{table})" for table in TABLES)).fetchone()
        tops = dict(zip(TABLES, zip(found[::2], found[1::2])))
        return marks if tops == marks else None

    def max_rowids(self) -> dict:
        """{table: its greatest rowid, 0 when empty}, read by one
        statement, so a batch committed meanwhile is in all tops or none."""
        return dict(zip(TABLES, self._conn.execute("SELECT " + ", ".join(
            f"(SELECT coalesce(MAX(rowid), 0) FROM main.{table})"
            for table in TABLES)).fetchone()))

    def set_clean_watermark(self, watermark: dict) -> None:
        """Record {table: (rowid, row count)} as ``clean_watermark``."""
        with self._conn:
            self._write_meta(
                CLEAN_KEY, {table: list(watermark[table]) for table in TABLES})

    # -- ordered queries --------------------------------------------------

    def timelines(self, object_id: Optional[str] = None) -> Iterator[tuple]:
        """Yield (object id, [TimelineEntry, ...]) in object-id order for
        every object with a timestamped event participation or attribute
        update; only ``object_id``'s when given, and UnknownIdError if that
        id is not in ``objects``.

        One ordered scan over both sources: participations by (timestamp,
        event_type_id, event_id), each event once, then the attribute
        updates at the same timestamp. Updates sharing a timestamp with a
        related event are merged into every event entry at that timestamp;
        the rest become one standalone entry per timestamp. SQLite's order
        puts NULL types and attribute ids first. Rows with a NULL timestamp
        are left out. For one object, a first branch yields its ``objects``
        row, which sorts first on its NULL timestamp: the existence test.
        """
        only = "" if object_id is None else " AND {} = :object_id"
        probe = "" if object_id is None else (
            "SELECT id, NULL, -1, NULL, NULL FROM objects WHERE id = :object_id "
            "UNION ALL ")
        rows = self._conn.execute(
            probe + "SELECT r.object_id, e.timestamp, 0, e.event_type_id, e.id "
            "FROM event_to_object r JOIN events e ON e.id = r.event_id "
            "WHERE e.timestamp IS NOT NULL" + only.format("r.object_id") +
            " UNION ALL SELECT object_id, timestamp, 1, object_attribute_id, id "
            "FROM object_attribute_values WHERE timestamp IS NOT NULL"
            + only.format("object_id") + " ORDER BY 1, 2, 3, 4, 5",
            {"object_id": object_id},
        )
        if object_id is not None:
            first = next(rows, None)
            if first is None or first[2] != -1:
                raise UnknownIdError(f"unknown object id: {object_id}")
        for owner, owned in groupby(rows, key=itemgetter(0)):
            entries = []
            for timestamp, rows_at in groupby(owned, key=itemgetter(1)):
                # dicts keep SQL's order and drop repeats: an event linked
                # to the object by several rows, an attribute updated twice
                events, attributes, value_ids = {}, {}, []
                for _, _, is_update, type_or_attribute, row_id in rows_at:
                    if is_update:
                        attributes[type_or_attribute] = None
                        value_ids.append(row_id)
                    else:
                        events[type_or_attribute, row_id] = None
                updated = (tuple(attributes), tuple(sorted(value_ids)))
                entries += [
                    TimelineEntry("event", timestamp, event_id, type_id, *updated)
                    for type_id, event_id in events
                ] or [TimelineEntry("update", timestamp, None, None, *updated)]
            yield owner, entries

    def object_timeline(self, object_id: str) -> list:
        """Ordered history of one object: its entries from ``timelines``
        (empty when it has none); UnknownIdError if it is not in
        ``objects``, even when other tables name it."""
        return [entry for _, entries in self.timelines(object_id) for entry in entries]

    def o2o_valid_at(
        self,
        source_object_id: str,
        target_object_id: str,
        qualifier_id: str,
        at,
    ) -> Optional[str]:
        """Qualifier value of the relation in force at the given instant.

        Returns None when no relation row exists at or before the instant,
        or when the latest such row carries a NULL value (termination).
        UnknownIdError names the first id missing from its table, in the
        order source object, target object, qualifier; only then does an
        ``at`` that is no timestamp raise TimestampError.
        """
        try:
            instant, bad_instant = normalize_timestamp(at), None
        except TimestampError as exc:
            instant, bad_instant = None, exc  # no row is at or before NULL
        ids = (source_object_id, target_object_id, qualifier_id)
        # one statement: the three existence flags and the latest row's value
        *found, value = self._conn.execute(
            "SELECT EXISTS (SELECT 1 FROM objects WHERE id = ?), "
            "EXISTS (SELECT 1 FROM objects WHERE id = ?), "
            "EXISTS (SELECT 1 FROM relation_qualifiers WHERE id = ?), "
            "(SELECT qualifier_value FROM object_to_object "
            "WHERE source_object_id = ? AND target_object_id = ? "
            "AND qualifier_id = ? AND timestamp <= ? "
            "ORDER BY timestamp DESC, id DESC LIMIT 1)",
            (*ids, *ids, instant),
        ).fetchone()
        for exists, (table, row_id) in zip(found, (
            ("objects", source_object_id),
            ("objects", target_object_id),
            ("relation_qualifiers", qualifier_id),
        )):
            if not exists:
                raise UnknownIdError(f"unknown {table} id: {row_id}")
        if bad_instant is not None:
            raise bad_instant
        return value

    def summary_stats(self) -> StatsReport:
        counts = {table: self.row_count(table) for table in TABLES}
        per_value = {
            attr: dict(self._conn.execute(
                f"SELECT coalesce({column}, ''), COUNT(*) FROM {table} "
                "GROUP BY 1 ORDER BY 1"
            ))
            for attr, (table, column) in _PER_VALUE_STATS.items()
        }
        pair_sql = (
            "SELECT e.event_type_id, o.object_type_id, COUNT(*) "
            "FROM event_to_object r "
            "JOIN events e ON e.id = r.event_id "
            "JOIN objects o ON o.id = r.object_id "
            "GROUP BY 1, 2 ORDER BY 1, 2"
        )
        return StatsReport(
            counts, e2o_per_type_pair={(et, ot): n for et, ot, n
                                       in self._conn.execute(pair_sql)},
            **per_value)

    # -- misc -------------------------------------------------------------

    @staticmethod
    def _require_table(table: str) -> None:
        if table not in TABLE_COLUMNS:
            raise KeyError(f"unknown table: {table}")

    def dump(self) -> dict:
        """Full contents as {table: sorted row list}; used for equality
        checks in tests and pipelines."""
        return {table: list(self.table_rows(table)) for table in TABLES}
