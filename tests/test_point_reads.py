"""The point reads ``HubStore.o2o_valid_at`` and ``HubStore.object_timeline``
against the brute-force oracles in oracles.py, on seeded hostile micro-stores:
NULL qualifier values, NULL and tied relation timestamps, dangling
qualifiers, relation and attribute rows for objects missing from
``objects``, and events with a NULL type or timestamp."""

import random
from datetime import datetime, timedelta, timezone

import pytest

from ochub.schema import Batch
from ochub.store import UnknownIdError, open_store
from ochub.util import TimestampError, normalize_timestamp
from oracles import brute_o2o_valid_at, brute_timeline

INSTANTS = [f"2024-01-01T{h:02d}:00:00.000Z" for h in range(1, 5)]
QUALIFIERS = ("q:r", "q:s")
GHOST_QUALIFIER = "q:ghost"  # named by relation rows, not in relation_qualifiers


def point_read_store(rng):
    """(store, stored object ids, ghost object ids): a micro-store whose
    rows name ghost objects and a ghost qualifier beside stored ones."""
    store = open_store(":memory:")
    b = Batch()
    for type_id in ("et:a", "et:b"):
        b.add("event_types", id=type_id, description=type_id)
    b.add("object_types", id="ot:x", description="x")
    for attribute in ("oa:x.a", "oa:x.b"):
        b.add("object_attributes", id=attribute, object_type_id="ot:x",
              description=attribute, datatype="string")
    for qualifier in QUALIFIERS:
        b.add("relation_qualifiers", id=qualifier, description=qualifier,
              datatype="string")
    objects = [f"obj:{i}" for i in range(rng.randint(1, 4))]
    ghosts = [f"obj:ghost{i}" for i in range(rng.randint(0, 2))]
    for object_id in objects:
        b.add("objects", id=object_id, object_type_id="ot:x")
    named = objects + ghosts
    for i in range(rng.randint(0, 8)):
        b.add("events", id=f"ev:{i}",
              event_type_id=rng.choice(["et:a", "et:b", None]),
              timestamp=rng.choice(INSTANTS + [None]))
        for object_id in named:
            for k in range(rng.choice((0, 0, 1, 1, 2))):  # 2: a repeated link
                b.add("event_to_object", id=f"e2o:{i}:{object_id}:{k}",
                      event_id=f"ev:{i}", object_id=object_id,
                      qualifier_id="q:r", qualifier_value="r")
    n = 0
    for object_id in named:
        for _ in range(rng.randint(0, 3)):
            b.add("object_attribute_values", id=f"oav:{n}", object_id=object_id,
                  object_attribute_id=rng.choice(["oa:x.a", "oa:x.b", None]),
                  timestamp=rng.choice(INSTANTS + [None]), attribute_value=f"v{n}")
            n += 1
    # ids o2o:0 … o2o:14 sort as text, so "o2o:10" < "o2o:9" on a tie
    for n in range(rng.randint(0, 15)):
        b.add("object_to_object", id=f"o2o:{n}",
              source_object_id=rng.choice(named),
              target_object_id=rng.choice(named),
              timestamp=rng.choice(INSTANTS + [None]),
              qualifier_id=rng.choice(QUALIFIERS + (GHOST_QUALIFIER,)),
              qualifier_value=rng.choice(["a", "b", None]))
    store.append_batch(b)
    return store, objects, ghosts


def just_before(timestamp):
    instant = datetime.fromisoformat(timestamp.replace("Z", "+00:00"))
    return normalize_timestamp(instant - timedelta(milliseconds=1))


def probe_instants(rng, stored):
    """(instant handed to o2o_valid_at, the same instant as canonical
    text): every stored timestamp, 1 ms before it, and random instants,
    some as a datetime or as text with an offset."""
    canonical = set(stored) | {just_before(ts) for ts in stored}
    canonical |= {f"2024-01-01T{rng.randint(0, 5):02d}:{rng.randint(0, 59):02d}"
                  f":00.000Z" for _ in range(4)}
    probes = []
    for at in sorted(canonical):
        instant = datetime.fromisoformat(at.replace("Z", "+00:00"))
        probes += [(at, at), (instant, at),
                   (instant.astimezone(timezone(timedelta(hours=1))).isoformat(), at)]
    return probes


def first_unknown(objects, source, target, qualifier):
    """The UnknownIdError message o2o_valid_at owes, or None."""
    for table, row_id, known in (("objects", source, objects),
                                 ("objects", target, objects),
                                 ("relation_qualifiers", qualifier, QUALIFIERS)):
        if row_id not in known:
            return f"unknown {table} id: {row_id}"
    return None


def point_read_outcomes(seed):
    """Compare both point reads with their oracles on one hostile store;
    returns the outcomes the comparison met."""
    rng = random.Random(seed)
    store, objects, ghosts = point_read_store(rng)
    outcomes = set()
    try:
        rows = list(store.table_rows("object_to_object"))
        stored = {r["timestamp"] for r in rows if r["timestamp"] is not None}
        triples = {(r["source_object_id"], r["target_object_id"], r["qualifier_id"])
                   for r in rows}
        # triples no row holds: the relation is absent at every instant
        triples |= {(rng.choice(objects), rng.choice(objects), rng.choice(QUALIFIERS))
                    for _ in range(2)}
        for triple in sorted(triples):
            unknown = first_unknown(objects, *triple)
            if unknown is not None:
                for at in ("2024-01-01T02:00:00.000Z", "not a time"):
                    with pytest.raises(UnknownIdError) as raised:
                        store.o2o_valid_at(*triple, at)
                    assert str(raised.value) == unknown, (seed, triple, at)
                outcomes.add(unknown.split(" id:")[0])
                continue
            for at, canonical in probe_instants(rng, stored):
                expected = brute_o2o_valid_at(store, *triple, canonical)
                assert store.o2o_valid_at(*triple, at) == expected, \
                    (seed, triple, at)
                latest = [r for r in rows
                          if (r["source_object_id"], r["target_object_id"],
                              r["qualifier_id"]) == triple
                          and r["timestamp"] is not None
                          and r["timestamp"] <= canonical]
                top = max((r["timestamp"] for r in latest), default=None)
                if expected is not None:
                    outcomes.add("value")
                elif latest:
                    outcomes.add("terminated")
                else:
                    outcomes.add("absent")
                if sum(r["timestamp"] == top for r in latest) > 1:
                    outcomes.add("tied timestamps")
        for object_id in objects:
            timeline = store.object_timeline(object_id)
            assert timeline == brute_timeline(store, object_id), (seed, object_id)
            outcomes.add("timeline" if timeline else "empty timeline")
            if any(e.kind == "event" and e.event_type_id is None for e in timeline):
                outcomes.add("null-type event")
        for object_id in ghosts:
            with pytest.raises(UnknownIdError) as raised:
                store.object_timeline(object_id)
            assert str(raised.value) == f"unknown object id: {object_id}"
            if brute_timeline(store, object_id):
                outcomes.add("ghost with rows")
    finally:
        store.close()
    return outcomes


@pytest.mark.parametrize("seed", range(100))
def test_point_reads_match_oracles(seed):
    point_read_outcomes(seed)


def test_hostile_cases_reach_every_outcome():
    """The seeds above meet every answer and every error, so the
    comparison is not vacuous."""
    met = set().union(*(point_read_outcomes(seed) for seed in range(100)))
    assert met == {
        "value", "terminated", "absent", "tied timestamps",
        "unknown objects", "unknown relation_qualifiers",
        "timeline", "empty timeline", "null-type event", "ghost with rows",
    }


class TestErrorPrecedence:
    """UnknownIdError names the first missing id in the order source,
    target, qualifier, and comes before any TimestampError."""

    @pytest.fixture
    def store(self):
        store = open_store(":memory:")
        b = Batch()
        b.add("object_types", id="ot:x", description="x")
        for object_id in ("a", "b"):
            b.add("objects", id=object_id, object_type_id="ot:x")
        b.add("relation_qualifiers", id="q:r", description="r", datatype="string")
        b.add("object_to_object", id="o2o:1", source_object_id="a",
              target_object_id="b", timestamp=INSTANTS[0], qualifier_id="q:r",
              qualifier_value="v")
        store.append_batch(b)
        yield store
        store.close()

    @pytest.mark.parametrize("ids, message", [
        (("x", "b", "q:r"), "unknown objects id: x"),
        (("a", "y", "q:r"), "unknown objects id: y"),
        (("a", "b", "q:z"), "unknown relation_qualifiers id: q:z"),
        (("x", "y", "q:z"), "unknown objects id: x"),
        (("a", "y", "q:z"), "unknown objects id: y"),
        (("x", "b", "q:z"), "unknown objects id: x"),
    ])
    @pytest.mark.parametrize("at", [INSTANTS[0], "not a time", None])
    def test_unknown_id_first(self, store, ids, message, at):
        with pytest.raises(UnknownIdError) as raised:
            store.o2o_valid_at(*ids, at)
        assert str(raised.value) == message

    @pytest.mark.parametrize("at", ["not a time", "", None, 5])
    def test_bad_instant_on_known_ids(self, store, at):
        with pytest.raises(TimestampError):
            store.o2o_valid_at("a", "b", "q:r", at)

    def test_known_ids_answer(self, store):
        assert store.o2o_valid_at("a", "b", "q:r", INSTANTS[0]) == "v"
        assert store.o2o_valid_at("b", "a", "q:r", INSTANTS[0]) is None
