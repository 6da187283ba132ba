"""Automated data-quality checks and the three pipeline checkpoints.

Four structural checks guard the store and incoming batches (unique primary
keys, non-null foreign keys, referential integrity, timestamp validity); two
more guard graph exports (node id uniqueness, edge endpoints) over the
(nodes, edges) rows a graph export writes, or the rows an exported
directory's two CSVs hold, read by position with ``util.read_csv``, as
every CSV input is (the graph check loads no importer). Checks are
read-only and report every violation instead of failing fast. Repairing
missing objects is a separate, explicit step: the missing ids that the
referential-integrity check reports go to
``HubStore.stage_placeholder_objects``, which adds placeholder objects to
the staged batch, and the staging checkpoint runs again on the new handle.

The store checks are SQL, one statement per table, foreign key or timestamp
column, generated from the schema: ``GROUP BY id HAVING`` for duplicate ids,
an anti-join for referential integrity, and the registered
``is_valid_timestamp`` function for timestamps. The staging checkpoint runs
them over the batch staged in the store's TEMP tables (``HubStore.stage``),
resolving references against staged union store; given the handle ``stage``
returned, it checks what is staged without restaging, so an ingest stages
its batch once for both this checkpoint and ``append_batch``. The transform
checkpoint runs the same statements over a rowid window of each store
table. Its upper bounds are the tables' greatest rowids when the check
starts, read by one statement (``HubStore.max_rowids``), and references
resolve against the rows up to them: rows another connection appends
meanwhile are neither counted, checked nor matched.

The store is append-only and no id is rewritten, so a row that once passed
the store checks passes them for good: a later append can only resolve a
dangling reference, and ``id`` is the primary key. The full audit's window
starts at SQLite's smallest rowid. An ingest's check (``since_clean=True``)
starts above the store's clean-row watermark (``HubStore.clean_watermark``),
or at the smallest rowid for a table without one, so a legacy row at rowid
0 or below is checked too, and a clean report moves the watermark to the
window's top. Its violations equal the full audit's. A batch the staging
checkpoint passed is clean once appended, so ``HubStore.append_batch``
moves the watermark over it in its own transaction when the watermark
stood at every table's top (the handle's ``checked``), and the ingest's
check then finds an empty window and writes nothing. A change that tightens
a store check must drop the ``transform_clean`` key from ``hub_meta``, so
the next ingest checks every row again under the new rule.

All three checkpoints record their checks' status and violations through
one loop; ``cli`` and ``graph.export_graph_csv`` raise a failed report as
``util.QualityFailure``.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from pathlib import Path
from typing import Optional

from ochub.schema import FOREIGN_KEYS, TABLES, TIMESTAMP_COLUMNS, Batch
from ochub.store import HubStore, StagedBatch
from ochub.util import read_csv, replacing

CHECKPOINTS = ("staging", "transform", "graph")

STORE_CHECKS = (
    "unique_primary_keys",
    "foreign_keys_not_null",
    "referential_integrity",
    "timestamp_validity",
)
GRAPH_CHECKS = ("graph_node_uniqueness", "graph_edge_endpoints")

SMALLEST_ROWID = -(2 ** 63)


# table: table or file name; key: row id, duplicated or missing id; ref_table,
# ref_id: the referenced table and missing id of an integrity miss, else None
Violation = namedtuple("Violation", "check table key detail ref_table ref_id",
                       defaults=(None, None))


class QualityReport:
    def __init__(self, checkpoint: str):
        self.checkpoint = checkpoint
        self.check_status = {}  # check -> bool (passed)
        self.violations = []
        self.scanned = {}  # table/file -> rows checked

    @property
    def passed(self) -> bool:
        return not self.violations

    def write_json(self, path) -> None:
        """Write the report as JSON to ``path`` through ``replacing``."""
        with replacing(path) as temp:
            Path(temp).write_text(json.dumps({
                "checkpoint": self.checkpoint,
                "passed": self.passed,
                "checks": self.check_status,
                "scanned": self.scanned,
                "violations": [
                    {"checkpoint": self.checkpoint, "check": v.check,
                     "table": v.table, "key": v.key, "detail": v.detail}
                    for v in self.violations
                ],
            }, indent=2) + "\n", encoding="utf-8")

    def summary(self) -> str:
        lines = [f"checkpoint {self.checkpoint}: "
                 f"{'PASSED' if self.passed else 'FAILED'}"]
        for check, ok in sorted(self.check_status.items()):
            n = sum(1 for v in self.violations if v.check == check)
            lines.append(f"  {check}: {'ok' if ok else f'{n} violation(s)'}")
        for v in self.violations[:20]:
            lines.append(f"    [{v.check}] {v.table} key={v.key}: {v.detail}")
        if len(self.violations) > 20:
            lines.append(f"    ... {len(self.violations) - 20} more")
        return "\n".join(lines)


def _store_checks(store: HubStore, report: QualityReport,
                  window: Optional[dict] = None) -> tuple:
    """The four store checks' violations, one SQL statement per table,
    foreign key or timestamp column.

    Scans the batch staged by ``HubStore.stage`` in batch order (references
    resolve against staged union store), or with ``window`` ({table: (low,
    high)}) the store's rows with ``low <= rowid <= high`` in id order,
    references resolving against the store's rows up to ``high``.
    Every violation is reported; ids that are null or empty show as "".
    """
    conn = store.connection()
    scan = "temp.staged_{}" if window is None else "main.{}"
    pos = "rowid" if window is None else "id"  # the scan order

    def rows(sql):
        return conn.execute(sql).fetchall()

    def where(table, *conditions):
        """WHERE clause of the conditions and the window's rowid range;
        none when both are missing (only the staged scan's row count)."""
        if window is not None:
            low, high = window[table]
            conditions += (f"rowid BETWEEN {int(low)} AND {int(high)}",)
        return f" WHERE {' AND '.join(conditions)}" if conditions else ""

    for table in TABLES:
        report.scanned[table] = rows(
            f"SELECT COUNT(*) FROM {scan.format(table)}{where(table)}"
        )[0][0]

    # ids must be non-null, non-empty and unique: one violation per
    # null/empty-id row, then one per repeated id (not per extra row)
    unique = []
    for table in TABLES:
        src = scan.format(table)
        blank = rows(
            f"SELECT COUNT(*) FROM {src}"
            + where(table, "(id IS NULL OR id = '')")
        )[0][0]
        unique += [Violation(
            "unique_primary_keys", table, "", "null or empty primary key"
        )] * blank
        unique += [
            Violation("unique_primary_keys", table, row_id,
                      f"primary key appears {n} times")
            for row_id, n in rows(
                f"SELECT id, COUNT(*) FROM {src}" + where(table, "id <> ''")
                + f" GROUP BY id HAVING COUNT(*) > 1 ORDER BY MIN({pos})"
            )
        ]

    not_null = [
        Violation("foreign_keys_not_null", table, key, f"{column} is null")
        for table, column in FOREIGN_KEYS
        for (key,) in rows(
            f"SELECT coalesce(id, '') FROM {scan.format(table)}"
            + where(table, f"({column} IS NULL OR {column} = '')")
            + f" ORDER BY {pos}, rowid"
        )
    ]

    # every non-empty foreign key must resolve, against staged union store
    # or against the store's rows up to the window's top, those present
    # when the check started; grouped per missing id, in the order of the
    # first row referencing it
    integrity = []
    for (table, column), ref_table in sorted(FOREIGN_KEYS.items()):
        known = ([f"temp.staged_{ref_table}", f"main.{ref_table}"] if window is None
                 else [f"(SELECT id FROM main.{ref_table} "
                       f"WHERE rowid <= {int(window[ref_table][1])})"])
        unresolved = " AND ".join(
            f"NOT EXISTS (SELECT 1 FROM {src} r WHERE r.id = s.{column})"
            for src in known
        )
        integrity += [
            Violation(
                "referential_integrity", table, ref_id,
                f"{column} -> {ref_table}.{ref_id} does not resolve "
                f"({n} row(s), e.g. {first_row})",
                ref_table=ref_table, ref_id=ref_id,
            )
            # the bare first_row comes from the row holding MIN(seq)
            for _, ref_id, n, first_row in rows(
                f"SELECT MIN(seq), ref, COUNT(*), coalesce(id, '') FROM ("
                f"SELECT s.{column} AS ref, s.id, "
                f"ROW_NUMBER() OVER (ORDER BY s.{pos}, s.rowid) AS seq "
                f"FROM {scan.format(table)} s"
                + where(table, f"s.{column} <> ''", unresolved)
                + ") GROUP BY ref ORDER BY 1"
            )
        ]

    timestamps = [
        Violation("timestamp_validity", table, key, f"invalid {column}: {value!r}")
        for table, column in TIMESTAMP_COLUMNS
        for key, value in rows(
            f"SELECT coalesce(id, ''), {column} FROM {scan.format(table)}"
            + where(table, f"NOT is_valid_timestamp({column})")
            + f" ORDER BY {pos}, rowid"
        )
    ]

    return unique, not_null, integrity, timestamps


def _graph_rows(target):
    """(nodes.csv rows, edges.csv rows): the pair itself, or read from a
    directory holding both files by ``read_csv``. A row leads with its node
    id, or with its edge's start and end, a missing cell read as ""."""
    if not isinstance(target, (str, Path)):
        return target
    tables = []
    for name in ("nodes.csv", "edges.csv"):
        _, rows = read_csv(Path(target) / name, name)
        tables.append([[cell or "" for cell in (cells + ["", ""])[:2]]
                       for _, cells in rows])
    return tables


def check_graph_node_uniqueness(node_ids) -> list:
    return [
        Violation("graph_node_uniqueness", "nodes.csv", node_id,
                  f"node id appears {n} times")
        if node_id else
        Violation("graph_node_uniqueness", "nodes.csv", "", "empty node id")
        for node_id, n in Counter(node_ids).items()
        if n > 1 or not node_id
    ]


def check_graph_edge_endpoints(node_ids, edges) -> list:
    known = set(node_ids)
    return [
        Violation("graph_edge_endpoints", "edges.csv", endpoint,
                  f"edge ({start} -> {end}) references missing node")
        for start, end in edges
        for endpoint in (start, end)
        if endpoint not in known
    ]


def run_checkpoint(target, checkpoint: str, store: Optional[HubStore] = None,
                   *, since_clean: bool = False) -> QualityReport:
    """Run every check applicable to a pipeline checkpoint.

    staging   -- target is a Batch, staged in and validated against the
                 destination store (required), or the handle of that
                 store's latest ``HubStore.stage``, validated without
                 restaging (StoreError if stale): references resolve
                 against the union of the batch and the store. The
                 handle's ``checked`` records whether the report passed,
                 so that ``append_batch`` can move the watermark.
    transform -- target is a HubStore; the four checks rerun read-only
                 over the rows present when the check starts. With
                 ``since_clean`` (an ingest's check) only the rows above
                 the clean-row watermark (every rowid where a table has
                 none) are checked, the same violations the full audit
                 finds, and a clean report moves the watermark up to them;
                 one that finds nothing above it writes nothing.
    graph     -- target is a graph's (nodes, edges) rows as a pair (its
                 ``rows()``), or a directory with nodes.csv and edges.csv
                 (OSError if either is missing; ImportError_ naming the
                 file and line if one cannot be read).

    ``scanned`` counts the rows actually checked per table or file.
    """
    if checkpoint not in CHECKPOINTS:
        raise ValueError(f"unknown checkpoint: {checkpoint}")
    report = QualityReport(checkpoint=checkpoint)

    if checkpoint == "graph":
        nodes, edges = _graph_rows(target)
        report.scanned["nodes.csv"] = len(nodes)
        report.scanned["edges.csv"] = len(edges)
        node_ids = [row[0] for row in nodes]
        found = zip(GRAPH_CHECKS, (
            check_graph_node_uniqueness(node_ids),
            check_graph_edge_endpoints(node_ids, (row[:2] for row in edges)),
        ))
    elif checkpoint == "staging":
        if not isinstance(target, (Batch, StagedBatch)):
            raise TypeError("staging checkpoint expects a Batch or StagedBatch")
        if not isinstance(store, HubStore):
            raise TypeError("staging checkpoint needs the destination HubStore")
        staged = store.staged(target)
        found = zip(STORE_CHECKS, _store_checks(store, report))
    else:
        if not isinstance(target, HubStore):
            raise TypeError("transform checkpoint expects a HubStore")
        marks = (target.clean_watermark() if since_clean
                 else dict.fromkeys(TABLES, (0, 0)))
        high = target.max_rowids()  # rows committed later are not checked
        # (first rowid to check, rows passed below it); no watermark (rowid
        # 0) starts at SQLite's smallest rowid, so no legacy row is skipped
        start = {table: (rowid + 1, count) if rowid else (SMALLEST_ROWID, 0)
                 for table, (rowid, count) in marks.items()}
        found = zip(STORE_CHECKS, _store_checks(target, report, {
            table: (start[table][0], high[table]) for table in TABLES}))

    for check, violations in found:
        report.check_status[check] = not violations
        report.violations.extend(violations)
    if checkpoint == "staging":
        staged.checked = report.passed
    elif checkpoint == "transform" and since_clean and report.passed:
        clean = {table: (high[table], start[table][1] + report.scanned[table])
                 for table in TABLES}
        if clean != marks:  # an unmoved watermark takes no write lock
            target.set_clean_watermark(clean)
    return report
