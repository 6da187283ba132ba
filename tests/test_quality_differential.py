"""The SQL store checks and append-conflict detection against the plain-loop
oracles in oracles.py, on seeded random hostile batches and stores."""

import random
from dataclasses import astuple

import pytest

from ochub.quality import run_checkpoint
from ochub.schema import FOREIGN_KEYS, TABLE_COLUMNS, TABLES, TIMESTAMP_COLUMNS, Batch
from ochub.store import AppendConflictError, StoreError, open_store
from oracles import brute_append, brute_checkpoint

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
    row = {}
    for col in TABLE_COLUMNS[table]:
        ref = FOREIGN_KEYS.get((table, col))
        if col == "id":
            row[col] = rng.choice(ids)
        elif ref is not None:
            row[col] = rng.choice(pool(ref) + ["ghost", "", None])
        elif (table, col) in TIMESTAMP_COLUMNS:
            row[col] = rng.choice(TIMESTAMPS)
        else:
            row[col] = rng.choice(VALUES)
    return row


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
                rows.append(dict(rng.choice(stored)))
            elif rows and rng.random() < 0.2:
                rows.append(dict(rng.choice(rows)))
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
        cols = TABLE_COLUMNS[table]
        with store.connection() as conn:
            conn.execute(
                f"INSERT OR IGNORE INTO {table} VALUES ({', '.join('?' for _ in cols)})",
                tuple(row[col] for col in cols),
            )
    return store


def as_brute(report):
    return (
        [astuple(v) for v in report.violations],
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
        if any(not row["id"] for rows in batch.rows.values() for row in rows):
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
        if any(not row["id"] for rows in batch.rows.values() for row in rows):
            outcomes.add("null id")
        else:
            outcomes.add("conflict" if conflicts else "appended")
        store.close()
    assert checks == {
        "unique_primary_keys", "foreign_keys_not_null",
        "referential_integrity", "timestamp_validity",
    }
    assert outcomes == {"null id", "conflict", "appended"}
