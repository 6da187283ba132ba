"""The SQL store checks and append-conflict detection against the plain-loop
oracles in oracles.py, on seeded random hostile batches and stores."""

import json
import random

import pytest

from ochub.quality import run_checkpoint
from ochub.schema import FOREIGN_KEYS, TABLE_COLUMNS, TABLES, TIMESTAMP_COLUMNS, Batch
from ochub.store import AppendConflictError, StoreError, open_store
from oracles import brute_append, brute_checkpoint
from conftest import clean_fixture_batch

TIMESTAMPS = (
    "2024-01-01T10:00:00.000Z",
    "2024-01-01 11:00:00+01:00",  # valid, normalized on staging
    " 2024-02-29T00:00:00Z ",
    "2024-13-45T99:99:99.999Z",  # canonical-looking but invalid
    "not-a-time",
    "",
    None,
)
VALUES = ("v", "w", "", None)


def pool(table):
    return [f"{table[:4]}{i}" for i in range(4)]


def random_row(rng, table, ids):
    row = []
    for col in TABLE_COLUMNS[table]:
        ref = FOREIGN_KEYS.get((table, col))
        if col == "id":
            row.append(rng.choice(ids))
        elif ref is not None:
            row.append(rng.choice(pool(ref) + ["ghost", "", None]))
        elif (table, col) in TIMESTAMP_COLUMNS:
            row.append(rng.choice(TIMESTAMPS))
        else:
            row.append(rng.choice(VALUES))
    return tuple(row)


def hostile_batch(rng, store):
    """Null and empty ids ("nulls"), or ids from small pools that repeat
    with differing content ("clashes"), or else fresh ids, rows re-sent from
    the store and exact in-batch repeats ("clean"); in every mode foreign
    keys that are null, empty, dangling or resolve into the batch or the
    store, and valid, unparseable, empty and invalid timestamps."""
    mode = rng.choice(("nulls", "clashes", "clean"))
    batch = Batch()
    for table in TABLES:
        stored = list(store.table_rows(table))
        fresh = [i for i in pool(table) if not store.has_id(table, i)]
        rows = batch.rows[table]
        for _ in range(rng.randint(0, 4)):
            if mode != "clean":
                ids = pool(table) + (["", None] if mode == "nulls" else [])
                rows.append(random_row(rng, table, ids))
            elif stored and rng.random() < 0.25:
                rows.append(tuple(rng.choice(stored).values()))
            elif rows and rng.random() < 0.2:
                rows.append(tuple(list(rng.choice(rows))))  # an equal copy
            elif fresh:
                rows.append(random_row(rng, table, [fresh.pop()]))
    return batch


def hostile_store(rng):
    """A store holding dangling references and bad timestamps; sometimes a
    legacy row with a null or empty id, written past append_batch."""
    store = open_store(":memory:")
    base = Batch()
    for table in TABLES:
        for row_id in rng.sample(pool(table), rng.randint(0, 3)):
            base.rows[table].append(random_row(rng, table, [row_id]))
    store.append_batch(base)
    if rng.random() < 0.3:
        table = rng.choice(TABLES)
        row = random_row(rng, table, [None, None, ""])
        with store.connection() as conn:
            conn.execute(
                f"INSERT OR IGNORE INTO {table} VALUES ({', '.join('?' for _ in row)})",
                row,
            )
    return store


def as_brute(report):
    return (
        [tuple(v) for v in report.violations],
        report.check_status,
        report.scanned,
    )


@pytest.mark.parametrize("seed", range(300))
def test_checks_and_append_match_oracles(seed):
    rng = random.Random(seed)
    store = hostile_store(rng)
    try:
        assert as_brute(run_checkpoint(store, "transform")) == \
            brute_checkpoint(store, store)
        batch = hostile_batch(rng, store)
        assert as_brute(run_checkpoint(batch, "staging", store=store)) == \
            brute_checkpoint(batch, store)

        before = store.dump()
        conflicts, contents = brute_append(batch, store)
        if any(not row[0] for rows in batch.rows.values() for row in rows):
            with pytest.raises(StoreError, match="null or empty id"):
                store.append_batch(batch)
        elif conflicts:
            with pytest.raises(AppendConflictError) as raised:
                store.append_batch(batch)
            assert set(raised.value.conflicts) == conflicts
        else:
            store.append_batch(batch)
            assert store.dump() == contents
            assert as_brute(run_checkpoint(store, "transform")) == \
                brute_checkpoint(store, store)
            return
        assert store.dump() == before
    finally:
        store.close()


def test_hostile_cases_reach_every_outcome():
    """The seeds above produce violations of every check and every append
    outcome, so the comparison is not vacuous."""
    checks, outcomes = set(), set()
    for seed in range(300):
        rng = random.Random(seed)
        store = hostile_store(rng)
        batch = hostile_batch(rng, store)
        checks |= {v[0] for v in brute_checkpoint(batch, store)[0]}
        checks |= {v[0] for v in brute_checkpoint(store, store)[0]}
        conflicts, _ = brute_append(batch, store)
        if any(not row[0] for rows in batch.rows.values() for row in rows):
            outcomes.add("null id")
        else:
            outcomes.add("conflict" if conflicts else "appended")
        store.close()
    assert checks == {
        "unique_primary_keys", "foreign_keys_not_null",
        "referential_integrity", "timestamp_validity",
    }
    assert outcomes == {"null id", "conflict", "appended"}


# -- the ingest's transform check from the clean-row watermark ---------------

LATE_IDS = 10  # ids per table a late batch may use or reference


def late_id(table, n):
    return f"{table[:4]}{n}"


def late_row(rng, known, table, row_id, dirt):
    """A row whose foreign keys name a known id ({table: [id, ...]}), or
    with probability ``dirt`` (or when none is known) are null, empty or
    name an id that may arrive later; its timestamp is valid, or with
    probability ``dirt`` null or unparseable."""
    row = []
    for col in TABLE_COLUMNS[table]:
        ref = FOREIGN_KEYS.get((table, col))
        if col == "id":
            row.append(row_id)
        elif ref is not None:
            later = late_id(ref, rng.randrange(LATE_IDS))
            if known[ref] and rng.random() >= dirt:
                row.append(rng.choice(known[ref]))
            else:
                row.append(rng.choice([None, "", later]) if dirt else later)
        elif (table, col) in TIMESTAMP_COLUMNS:
            row.append(rng.choice(TIMESTAMPS[:3]) if rng.random() >= dirt
                       else rng.choice(TIMESTAMPS[3:]))
        else:
            row.append(rng.choice(VALUES))
    return tuple(row)


def stored_ids(store):
    return {table: sorted(store.id_set(table) - {None}) for table in TABLES}


def fresh_ids(rng, store, table, k):
    unused = [late_id(table, n) for n in range(LATE_IDS)
              if not store.has_id(table, late_id(table, n))]
    return rng.sample(unused, min(k, len(unused)))


def late_batch(rng, store, dirt, least=0):
    """Rows with unused ids, ``least`` to 2 per table, referring to the
    store and to the batch's earlier tables."""
    batch, known = Batch(), stored_ids(store)
    for table in TABLES:
        for row_id in fresh_ids(rng, store, table, rng.randint(least, 2)):
            batch.rows[table].append(late_row(rng, known, table, row_id, dirt))
            known[table].append(row_id)
    return batch


def write_past_append(rng, store, dirt):
    """A legacy writer's rows: inserted with rowid gaps, sometimes one with
    a null id."""
    table = rng.choice(TABLES)
    cols = TABLE_COLUMNS[table]
    known = stored_ids(store)
    ids = fresh_ids(rng, store, table, 2) + ([None] if rng.random() < 0.2 else [])
    with store.connection() as conn:
        for row_id in ids:
            row = late_row(rng, known, table, row_id, dirt)
            conn.execute(
                f"INSERT INTO {table} (rowid, {', '.join(cols)}) VALUES "
                f"((SELECT coalesce(MAX(rowid), 0) + ? FROM {table}), "
                f"{', '.join('?' for _ in cols)})",
                (rng.randint(2, 5), *row),
            )


def renumber(store):
    """Rewrite every table in rowid order, closing the rowid gaps, as a
    VACUUM that renumbers rowids would."""
    with store.connection() as conn:
        for table in TABLES:
            conn.execute(
                f"CREATE TEMP TABLE copy AS SELECT * FROM {table} ORDER BY rowid")
            conn.execute(f"DELETE FROM {table}")
            conn.execute(
                f"INSERT INTO {table} SELECT * FROM temp.copy ORDER BY rowid")
            conn.execute("DROP TABLE temp.copy")


def recorded_mark(store):
    row = store.connection().execute(
        "SELECT value FROM hub_meta WHERE key = 'transform_clean'").fetchone()
    return None if row is None else json.loads(row[0])


def replay_ingests(seed):
    """A seeded store, legacy and possibly dirty, then steps of library
    appends (checked by no one), legacy writes with rowid gaps, VACUUM,
    renumbered rowids and ingests (append, then the transform check from
    the watermark). After every ingest the incremental report must equal a
    full one and the oracle's, and the watermark moves exactly when it is
    clean. Returns tags of what the ingests exercised."""
    rng = random.Random(seed)
    dirt = rng.choice((0.0, 0.05, 0.25))
    store = open_store(":memory:")
    tags = set()
    try:
        store.append_batch(late_batch(rng, store, dirt, least=1))
        if rng.random() < 0.5:
            write_past_append(rng, store, dirt)
        for _ in range(10):
            step = rng.choice(("library", "legacy", "vacuum", "renumber",
                               "ingest", "ingest", "ingest"))
            if step == "legacy":
                write_past_append(rng, store, dirt)
            elif step == "vacuum":
                store.connection().execute("VACUUM")
            elif step == "renumber":
                renumber(store)
            else:
                store.append_batch(late_batch(rng, store, dirt))
            if step != "ingest":
                continue

            recorded, before = recorded_mark(store), store.clean_watermark()
            incremental = run_checkpoint(store, "transform", since_clean=True)
            full = run_checkpoint(store, "transform")
            assert (incremental.violations, incremental.check_status) == \
                (full.violations, full.check_status)
            assert as_brute(full)[:2] == brute_checkpoint(store, store)[:2]
            if incremental.passed:
                assert store.clean_watermark() == {
                    table: (rowid, store.row_count(table))
                    for table, rowid in store.max_rowids().items()
                }
            else:
                assert store.clean_watermark() == before
                assert recorded_mark(store) == recorded

            tags.add("clean" if incremental.passed else "dirty")
            if recorded is None:
                tags.add("never clean" if not incremental.passed else "first clean")
            elif any(recorded[t][0] and not before[t][0] for t in TABLES):
                tags.add("renumbered")
            elif any(before[t][0] for t in TABLES):
                tags.add("window found" if full.violations else "window clean")
    finally:
        store.close()
    return tags


REPLAYS = 100


@pytest.mark.parametrize("seed", range(REPLAYS))
def test_incremental_transform_matches_full(seed):
    replay_ingests(seed)


def test_incremental_cases_reach_every_outcome():
    """The seeds above check windows above a watermark that find violations
    and that do not, stores never clean, and rowids renumbered under a
    watermark."""
    every = {"clean", "dirty", "never clean", "first clean", "renumbered",
             "window found", "window clean"}
    tags = set()
    for seed in range(REPLAYS):
        tags |= replay_ingests(seed)
        if tags == every:
            break
    assert tags == every



@pytest.mark.parametrize("rowid", [0, -1, -(2 ** 63)])
@pytest.mark.parametrize("checked_before", [False, True])
@pytest.mark.parametrize("event_type", ["et:pick", "et:missing"])
def test_legacy_row_at_or_below_rowid_0(rowid, checked_before, event_type):
    """A legacy writer's event at rowid 0 or below, in a store never
    checked clean or one whose watermark it comes under: the incremental
    report equals the full one, and a clean one records every row."""
    store = open_store(":memory:")
    try:
        store.append_batch(clean_fixture_batch())
        if checked_before:
            assert run_checkpoint(store, "transform", since_clean=True).passed
        row = {"id": "ev:legacy", "event_type_id": event_type,
               "timestamp": "2024-03-01T07:00:00.000Z", "description": None}
        cols = TABLE_COLUMNS["events"]
        with store.connection() as conn:
            conn.execute(
                f"INSERT INTO events (rowid, {', '.join(cols)}) "
                f"VALUES (?, {', '.join('?' for _ in cols)})",
                (rowid, *(row[col] for col in cols)))

        full = run_checkpoint(store, "transform")
        incremental = run_checkpoint(store, "transform", since_clean=True)
        assert full.passed is (event_type == "et:pick")
        assert as_brute(incremental)[:2] == as_brute(full)[:2]
        assert incremental.scanned["events"] == store.row_count("events")
        if not checked_before:
            assert incremental.scanned == full.scanned
        if full.passed:
            assert store.clean_watermark() == {
                table: (rowid, store.row_count(table))
                for table, rowid in store.max_rowids().items()
            }
    finally:
        store.close()
