"""Independent brute-force implementations used as test oracles.

These deliberately avoid the library's query and graph-building code: they
pull whole tables into memory and apply the rules naively (full scans,
explicit sorts), so a bug in the optimized path cannot hide in the oracle.
"""

from __future__ import annotations

from ochub.schema import FOREIGN_KEYS, TABLE_COLUMNS, TABLES, TIMESTAMP_COLUMNS
from ochub.store import TimelineEntry
from ochub.util import TimestampError, is_valid_timestamp, normalize_timestamp


def _all(store, table):
    return list(store.table_rows(table))


def _none_first(value):
    """Sort key that orders None before any text, as SQLite does."""
    return (value is not None, value or "")


def brute_timeline(store, object_id):
    """Every timeline entry of an object, by full scans: its events in
    (timestamp, type, id) order, each carrying the attribute updates at its
    timestamp, plus one standalone entry per other update timestamp. Rows
    without a timestamp are left out."""
    events = {
        e["id"]: e for e in _all(store, "events") if e["timestamp"] is not None
    }
    related = {
        r["event_id"]
        for r in _all(store, "event_to_object")
        if r["object_id"] == object_id and r["event_id"] in events
    }
    updates_at = {}
    for value in _all(store, "object_attribute_values"):
        if value["object_id"] == object_id and value["timestamp"] is not None:
            updates_at.setdefault(value["timestamp"], []).append(value)

    def updated(ts):
        values = updates_at.get(ts, [])
        attributes = {v["object_attribute_id"] for v in values}
        return (tuple(sorted(attributes, key=_none_first)),
                tuple(sorted((v["id"] for v in values), key=_none_first)))

    entries = []
    for event_id in related:
        event = events[event_id]
        entries.append(TimelineEntry("event", event["timestamp"], event_id,
                                     event["event_type_id"],
                                     *updated(event["timestamp"])))
    event_ts = {entry.timestamp for entry in entries}
    for ts in updates_at:
        if ts not in event_ts:
            entries.append(TimelineEntry("update", ts, None, None, *updated(ts)))
    entries.sort(key=lambda e: (e.timestamp, _none_first(e.event_type_id),
                                _none_first(e.event_id)))
    return entries


def brute_timeline_events(store, object_id):
    """Event ids related to an object, in (timestamp, type, id) order."""
    return [e.event_id for e in brute_timeline(store, object_id)
            if e.kind == "event"]


def brute_o2o_valid_at(store, source_id, target_id, qualifier_id, at):
    """Scan every relation row; latest row at or before the instant wins."""
    rows = [
        r
        for r in _all(store, "object_to_object")
        if r["source_object_id"] == source_id
        and r["target_object_id"] == target_id
        and r["qualifier_id"] == qualifier_id
        and r["timestamp"] is not None
        and r["timestamp"] <= at
    ]
    if not rows:
        return None
    rows.sort(key=lambda r: (r["timestamp"], r["id"]))
    return rows[-1]["qualifier_value"]


def brute_case_graph(store, object_ids):
    """Naive construction of the case-level graph.

    Returns (event_node_ids, snapshots, edges) where snapshots maps
    snapshot node id -> (object_id, timestamp, frozenset of updated
    attribute ids, previous event type or "START") and edges is a set of
    (kind, start, end, object_or_qualifier) tuples.
    """
    # a row without a timestamp has no place on a timeline
    events = {
        e["id"]: e for e in _all(store, "events") if e["timestamp"] is not None
    }
    e2o = _all(store, "event_to_object")
    oav = [v for v in _all(store, "object_attribute_values")
           if v["timestamp"] is not None]
    qualifier_names = {
        q["id"]: q["description"] or q["id"]
        for q in _all(store, "relation_qualifiers")
    }

    event_nodes = set()
    snapshots = {}
    edges = set()
    snapshot_owners = {}  # timestamp -> set of object ids

    for object_id in object_ids:
        my_events = sorted(
            {
                r["event_id"]
                for r in e2o
                if r["object_id"] == object_id and r["event_id"] in events
            },
            key=lambda eid: (
                events[eid]["timestamp"],
                _none_first(events[eid]["event_type_id"]),
                eid,
            ),
        )
        my_updates = [v for v in oav if v["object_id"] == object_id]
        attrs_at = {}
        for value in my_updates:
            attrs_at.setdefault(value["timestamp"], set()).add(
                value["object_attribute_id"]
            )
        event_ts = {events[eid]["timestamp"] for eid in my_events}
        if not my_events and not my_updates:
            continue

        # entry list: events in order, plus standalone update timestamps
        entries = [("event", events[eid]["timestamp"], eid) for eid in my_events]
        entries += [
            ("update", ts, None) for ts in attrs_at if ts not in event_ts
        ]
        entries.sort(
            key=lambda e: (
                e[1],
                _none_first(events[e[2]]["event_type_id"] if e[2] else None),
                e[2] or "",
            )
        )

        for ts in {e[1] for e in entries}:
            before = [
                eid
                for eid in my_events
                if events[eid]["timestamp"] <= ts
            ]
            prev = events[before[-1]]["event_type_id"] if before else "START"
            snap = f"s:{object_id}@{ts}"
            snapshots[snap] = (
                object_id,
                ts,
                frozenset(attrs_at.get(ts, set())),
                prev,
            )
            snapshot_owners.setdefault(ts, set()).add(object_id)

        for index, (kind, ts, eid) in enumerate(entries):
            snap = f"s:{object_id}@{ts}"
            if kind == "event":
                event_nodes.add(f"e:{eid}")
                edges.add(
                    ("DF_EVENT_TO_SNAPSHOT", f"e:{eid}", snap, object_id)
                )
            following = [e for e in entries[index + 1 :] if e[0] == "event"]
            if following:
                edges.add(
                    (
                        "DF_SNAPSHOT_TO_EVENT",
                        snap,
                        f"e:{following[0][2]}",
                        object_id,
                    )
                )

    scope = set(object_ids)
    triples = {
        (r["source_object_id"], r["target_object_id"], r["qualifier_id"])
        for r in _all(store, "object_to_object")
    }
    for source_id, target_id, qualifier_id in triples:
        if source_id not in scope or target_id not in scope:
            continue
        for ts, owners in snapshot_owners.items():
            if source_id not in owners or target_id not in owners:
                continue
            value = brute_o2o_valid_at(store, source_id, target_id, qualifier_id, ts)
            if value is None:
                continue
            edges.add(
                (
                    "O2O",
                    f"s:{source_id}@{ts}",
                    f"s:{target_id}@{ts}",
                    qualifier_names.get(qualifier_id, qualifier_id),
                )
            )

    return event_nodes, snapshots, edges


def _brute_rows(batch_or_store, store):
    """(rows by table, ids a reference may resolve against by table).

    A batch is read as append_batch would store it (timestamps normalized,
    unparseable text kept verbatim) and resolves against batch union store;
    a store is read in id order and resolves against itself.
    """
    rows, known = {}, {}
    for table, cols in TABLE_COLUMNS.items():
        known[table] = {r["id"] for r in _all(store, table)}
        if batch_or_store is store:
            rows[table] = _all(store, table)
            continue
        rows[table] = []
        for raw in batch_or_store.rows.get(table) or []:
            row = dict(zip(cols, raw))
            for ts_table, ts_col in TIMESTAMP_COLUMNS:
                if ts_table == table and row[ts_col] is not None:
                    try:
                        row[ts_col] = normalize_timestamp(row[ts_col])
                    except TimestampError:
                        pass
            rows[table].append(row)
            known[table].add(row["id"])
    return rows, known


def brute_checkpoint(batch_or_store, store):
    """The staging (a batch against ``store``) or transform (``store``
    itself) checkpoint by full scans and dicts.

    Returns (violations, check_status, scanned); a violation is the tuple
    (check, table, key, detail, ref_table, ref_id).
    """
    rows, known = _brute_rows(batch_or_store, store)
    found = {
        "unique_primary_keys": [],
        "foreign_keys_not_null": [],
        "referential_integrity": [],
        "timestamp_validity": [],
    }
    for table in TABLES:
        counts = {}
        for row in rows[table]:
            if not row["id"]:
                found["unique_primary_keys"].append(
                    ("unique_primary_keys", table, "",
                     "null or empty primary key", None, None))
            else:
                counts[row["id"]] = counts.get(row["id"], 0) + 1
        for row_id, n in counts.items():
            if n > 1:
                found["unique_primary_keys"].append(
                    ("unique_primary_keys", table, row_id,
                     f"primary key appears {n} times", None, None))
    for table, column in FOREIGN_KEYS:
        for row in rows[table]:
            if not row[column]:
                found["foreign_keys_not_null"].append(
                    ("foreign_keys_not_null", table, row["id"] or "",
                     f"{column} is null", None, None))
    for (table, column), ref_table in sorted(FOREIGN_KEYS.items()):
        missing = {}
        for row in rows[table]:
            if row[column] and row[column] not in known[ref_table]:
                missing.setdefault(row[column], []).append(row["id"] or "")
        for ref_id, row_ids in missing.items():
            found["referential_integrity"].append(
                ("referential_integrity", table, ref_id,
                 f"{column} -> {ref_table}.{ref_id} does not resolve "
                 f"({len(row_ids)} row(s), e.g. {row_ids[0]})",
                 ref_table, ref_id))
    for table, column in TIMESTAMP_COLUMNS:
        for row in rows[table]:
            if not is_valid_timestamp(row[column]):
                found["timestamp_validity"].append(
                    ("timestamp_validity", table, row["id"] or "",
                     f"invalid {column}: {row[column]!r}", None, None))
    violations = [v for check in found.values() for v in check]
    status = {check: not hits for check, hits in found.items()}
    scanned = {table: len(rows[table]) for table in TABLES}
    return violations, status, scanned


def brute_append(batch, store):
    """What append_batch must do with a batch: (conflicts, contents).

    conflicts is the set of (table, id) whose rows in the batch, or in the
    batch and the store, differ; contents is the store dump after a
    conflict-free append (the first row of each new id added).
    """
    rows, _ = _brute_rows(batch, store)
    conflicts = set()
    contents = {}
    for table, batch_rows in rows.items():
        stored = _all(store, table)
        first = {r["id"]: r for r in stored}
        added = []
        for row in batch_rows:
            if row["id"] not in first:
                first[row["id"]] = row
                added.append(row)
            elif first[row["id"]] != row:
                conflicts.add((table, row["id"]))
        contents[table] = sorted(
            stored + added, key=lambda r: (r["id"] is not None, r["id"] or ""))
    return conflicts, contents


def brute_canonicalize(batch):
    """``Batch.canonicalize`` as first written: every row read as a dict,
    keyed by its sorted items, then sorted by (id, every value as text).
    In place; returns the batch."""
    for table, cols in TABLE_COLUMNS.items():
        seen = set()
        unique = []
        for row in batch.rows[table]:
            values = dict(zip(cols, row))
            key = tuple(sorted(values.items()))
            if key in seen:
                continue
            seen.add(key)
            unique.append((values, row))
        unique.sort(
            key=lambda pair: (
                pair[0]["id"] or "",
                tuple(str(v) for v in pair[0].values()),
            )
        )
        batch.rows[table] = [row for _, row in unique]
    return batch
