"""Acceptance suite. One test per criterion; each prints a single
"[ACCEPTANCE] <criterion>: PASS|FAIL|SKIP" line (visible with pytest -s, or
in the captured-output section on failure).

The two criteria that need externally published datasets (the three public
OCEL 2.0 logs and the synthetic shop generator output) skip unless the
fixtures have been placed under tests/fixtures/.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from ochub.exporters import export_flat_csv, export_ocel2
from ochub.graph import (
    DF_SNAPSHOT_TO_EVENT,
    build_case_graph,
    build_overview_graph,
)
from ochub.importers import import_ocel2
from ochub.quality import run_checkpoint
from ochub.schema import (
    FOREIGN_KEYS, TABLE_COLUMNS, TABLES, TIMESTAMP_COLUMNS, Batch,
)
from ochub.store import open_store
from conftest import build_ocel2_sqlite, clean_fixture_batch, rows_of
from oracles import brute_case_graph, brute_timeline

FIXTURE_DIR = Path(__file__).parent / "fixtures"


class criterion:
    """Prints the one-line verdict for an acceptance criterion."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            status = "PASS"
        elif exc_type is pytest.skip.Exception:
            status = "SKIP"
        else:
            status = "FAIL"
        print(f"[ACCEPTANCE] {self.name}: {status}")
        return False


def copied(*batches):
    """A new batch holding every row of the given batches, in order."""
    out = Batch()
    for batch in batches:
        for table in TABLES:
            out.rows[table].extend(batch.rows[table])
    return out


def synthetic_process(prefix, base_hour):
    """A self-contained process with 3 event types, 3 object types, and all
    relation kinds, namespaced under `prefix` so two of them are disjoint."""
    b = Batch()
    ts = lambda i: f"2024-05-01T{base_hour + i:02d}:00:00.000Z"
    for name in ("create", "update", "close"):
        b.add("event_types", id=f"et:{prefix}.{name}", description=name)
    b.add("event_attributes", id=f"ea:{prefix}.create.n",
          event_type_id=f"et:{prefix}.create", description="n",
          datatype="integer")
    for name in ("ticket", "agent", "queue"):
        b.add("object_types", id=f"ot:{prefix}.{name}", description=name)
    b.add("object_attributes", id=f"oa:{prefix}.ticket.state",
          object_type_id=f"ot:{prefix}.ticket", description="state",
          datatype="string")
    b.add("relation_qualifiers", id=f"q:{prefix}.touches",
          description="touches", datatype="string")
    b.add("objects", id=f"obj:{prefix}.t1",
          object_type_id=f"ot:{prefix}.ticket", description=None)
    b.add("objects", id=f"obj:{prefix}.a1",
          object_type_id=f"ot:{prefix}.agent", description=None)
    b.add("objects", id=f"obj:{prefix}.q1",
          object_type_id=f"ot:{prefix}.queue", description=None)
    for i, name in enumerate(("create", "update", "close")):
        b.add("events", id=f"ev:{prefix}.{i}",
              event_type_id=f"et:{prefix}.{name}", timestamp=ts(i),
              description=None)
        b.add("event_to_object", id=f"e2o:{prefix}.{i}",
              event_id=f"ev:{prefix}.{i}", object_id=f"obj:{prefix}.t1",
              qualifier_id=f"q:{prefix}.touches", qualifier_value="touches")
    b.add("event_attribute_values", id=f"eav:{prefix}.0",
          event_id=f"ev:{prefix}.0", event_attribute_id=f"ea:{prefix}.create.n",
          attribute_value="1")
    b.add("object_attribute_values", id=f"oav:{prefix}.0",
          object_id=f"obj:{prefix}.t1",
          object_attribute_id=f"oa:{prefix}.ticket.state",
          timestamp=ts(1), attribute_value="open")
    b.add("object_to_object", id=f"o2o:{prefix}.0",
          source_object_id=f"obj:{prefix}.t1",
          target_object_id=f"obj:{prefix}.q1", timestamp=ts(0),
          qualifier_id=f"q:{prefix}.touches", qualifier_value="queued")
    b.add("event_to_object_attribute_value", id=f"e2oav:{prefix}.0",
          event_id=f"ev:{prefix}.1",
          object_attribute_value_id=f"oav:{prefix}.0",
          qualifier_id=f"q:{prefix}.touches", qualifier_value="sets")
    return b


def test_criterion_schema_robustness(store):
    """Two disjoint processes in one store without any schema mutation."""
    with criterion("schema robustness (disjoint processes, fixed layout)"):
        started = time.monotonic()
        before = store.table_inventory()
        store.append_batch(synthetic_process("helpdesk", 8))
        between = store.table_inventory()
        store.append_batch(synthetic_process("billing", 14))
        after = store.table_inventory()
        assert before == between == after
        assert set(before) == set(TABLES)
        assert run_checkpoint(store, "transform").passed
        # both processes fully present
        assert store.summary_stats().table_counts["events"] == 6
        assert time.monotonic() - started < 5


def test_criterion_append_order_independence(tmp_path):
    """≥100 random batch orderings of a fixed row set converge on the same
    store contents, conflict-free."""
    with criterion("append-only ingestion (100 random batch orderings)"):
        started = time.monotonic()
        base = copied(clean_fixture_batch(), synthetic_process("extra", 6))
        all_rows = [
            (table, row)
            for table in TABLES
            for row in base.rows[table]
        ]

        reference = None
        for ordering in range(100):
            rng = random.Random(ordering)
            rows = list(all_rows)
            rng.shuffle(rows)
            n_batches = rng.randint(1, 6)
            batches = [Batch() for _ in range(n_batches)]
            for table, row in rows:
                batches[rng.randrange(n_batches)].rows[table].append(row)

            store = open_store(tmp_path / f"run{ordering}.db",
                               create_if_missing=True)
            for batch in batches:
                store.append_batch(batch)  # raises on conflict
            contents = store.dump()
            store.close()
            if reference is None:
                reference = contents
            assert contents == reference
        assert time.monotonic() - started < 60


def mutate_random_value(rng):
    return f"mutated-{rng.randrange(10**9)}"


def replaced(table, row, column, value):
    """``row`` of ``table`` with ``value`` in ``column``."""
    at = TABLE_COLUMNS[table].index(column)
    return (*row[:at], value, *row[at + 1:])


def set_in_random_row(rng, batch, table, column, value):
    rows = batch.rows[table]
    i = rng.randrange(len(rows))
    rows[i] = replaced(table, rows[i], column, value)


def test_criterion_quality_detection(store):
    """Six check kinds x 50 single-violation injections, each detected
    exactly once; the clean fixture yields zero violations."""
    with criterion("quality detection (6 checks x 50 injections)"):
        started = time.monotonic()
        base = clean_fixture_batch()
        assert run_checkpoint(copied(base), "staging", store=store).passed

        populated = [t for t in TABLES if base.rows[t]]
        fk_choices = sorted(FOREIGN_KEYS)

        def run(batch):
            return run_checkpoint(batch, "staging", store=store)

        for trial in range(50):
            rng = random.Random(1000 + trial)

            # unique_primary_keys: re-add a row under an existing id with
            # different content
            batch = copied(base)
            table = rng.choice(populated)
            victim = rng.choice(batch.rows[table])
            protected = {"id"} \
                | {c for (t, c) in FOREIGN_KEYS if t == table} \
                | {c for (t, c) in TIMESTAMP_COLUMNS if t == table}
            key = next(k for k in TABLE_COLUMNS[table] if k not in protected)
            batch.rows[table].append(
                replaced(table, victim, key, mutate_random_value(rng)))
            report = run(batch)
            hits = [v for v in report.violations]
            assert len(hits) == 1 and hits[0].check == "unique_primary_keys"

            # foreign_keys_not_null: blank a random foreign key
            batch = copied(base)
            table, column = rng.choice(
                [(t, c) for (t, c) in fk_choices if base.rows[t]]
            )
            set_in_random_row(rng, batch, table, column, None)
            hits = run(batch).violations
            assert len(hits) == 1 and hits[0].check == "foreign_keys_not_null"

            # referential_integrity: point a random foreign key at a fresh
            # unknown id
            batch = copied(base)
            table, column = rng.choice(
                [(t, c) for (t, c) in fk_choices if base.rows[t]]
            )
            missing = f"missing:{trial}:{rng.randrange(10**6)}"
            set_in_random_row(rng, batch, table, column, missing)
            hits = run(batch).violations
            assert len(hits) == 1 and hits[0].check == "referential_integrity"
            assert hits[0].key == missing

            # timestamp_validity: corrupt a random timestamp
            batch = copied(base)
            table, column = rng.choice(
                [(t, c) for (t, c) in TIMESTAMP_COLUMNS if base.rows[t]]
            )
            bad = rng.choice(["never", "2024-13-01T00:00:00.000Z", "", None])
            set_in_random_row(rng, batch, table, column, bad)
            hits = run(batch).violations
            assert len(hits) == 1 and hits[0].check == "timestamp_validity"

        store.append_batch(base)
        clean_rows = build_case_graph(store).rows()
        assert run_checkpoint(clean_rows, "graph").passed
        all_nodes = clean_rows[0]

        for trial in range(50):
            rng = random.Random(2000 + trial)

            # graph_node_uniqueness: duplicate one node (in the rows: a
            # dict holds no repeated node)
            nodes, edges = build_case_graph(store).rows()
            node = rng.choice(all_nodes)
            nodes.append(node)
            hits = run_checkpoint((nodes, edges), "graph").violations
            assert len(hits) == 1 and hits[0].check == "graph_node_uniqueness"
            assert hits[0].key == node[0]

            # graph_edge_endpoints: point one edge at a missing node
            nodes, edges = build_case_graph(store).rows()
            edge = rng.choice(edges)
            ghost = f"ghost:{trial}"
            edges.append((ghost, *edge[1:]))
            hits = run_checkpoint((nodes, edges), "graph").violations
            assert len(hits) == 1 and hits[0].check == "graph_edge_endpoints"
            assert hits[0].key == ghost

        assert time.monotonic() - started < 60


def round_trip_logs():
    two_events = [("e1", "2024-01-01 10:00:00", {"amount": 5}),
                  ("e2", "2024-01-02 10:00:00", {"amount": None})]
    return [
        # attributes of every datatype on events and objects
        {
            "event_types": {"pay": {
                "attrs": {"amount": "INTEGER", "note": "TEXT",
                          "rate": "REAL", "rush": "BOOLEAN"},
                "events": [("e1", "2024-01-01 10:00:00",
                            {"amount": 3, "note": "ok", "rate": 0.5,
                             "rush": 1})],
            }},
            "object_types": {"invoice": {
                "attrs": {"total": "REAL"},
                "rows": [("i1", "2024-01-01 09:00:00", None, {"total": 9.5})],
            }},
            "event_object": [("e1", "i1", "settles")],
            "object_object": [],
        },
        # changed fields: several updates of the same attribute
        {
            "event_types": {"scan": {"attrs": {}, "events": [
                ("e1", "2024-01-01 10:00:00", {}),
            ]}},
            "object_types": {"parcel": {
                "attrs": {"status": "TEXT"},
                "rows": [
                    ("p1", "2024-01-01 09:00:00", None, {"status": "new"}),
                    ("p1", "2024-01-02 09:00:00", "status", {"status": "out"}),
                    ("p1", "2024-01-03 09:00:00", "status", {"status": "done"}),
                ],
            }},
            "event_object": [("e1", "p1", "scans")],
            "object_object": [],
        },
        # several qualifiers on E2O and O2O
        {
            "event_types": {"assign": {"attrs": {}, "events": [
                ("e1", "2024-01-01 10:00:00", {}),
            ]}},
            "object_types": {
                "task": {"attrs": {}, "rows": [
                    ("t1", "2024-01-01 09:00:00", None, {}),
                ]},
                "user": {"attrs": {}, "rows": [
                    ("u1", "2024-01-01 09:00:00", None, {}),
                ]},
            },
            "event_object": [("e1", "t1", "creates"), ("e1", "u1", "by"),
                             ("e1", "t1", "reviews")],
            "object_object": [("t1", "u1", "owned_by"), ("t1", "u1", "made_by")],
        },
        # multiple event types sharing a timestamp, object without updates
        {
            "event_types": {
                "a": {"attrs": {}, "events": [("e1", "2024-01-01 10:00:00", {})]},
                "b": {"attrs": {}, "events": [("e2", "2024-01-01 10:00:00", {})]},
            },
            "object_types": {"thing": {"attrs": {"v": "TEXT"}, "rows": [
                ("x1", "2024-01-01 09:00:00", None, {"v": None}),
            ]}},
            "event_object": [("e1", "x1", "r"), ("e2", "x1", "r")],
            "object_object": [],
        },
        # the 'null' text literal and an event with no objects
        {
            "event_types": {"ping": {
                "attrs": {"echo": "TEXT"},
                "events": two_events + [("e3", "2024-01-03 10:00:00",
                                         {"echo": "null"})],
            }},
            "object_types": {"node": {"attrs": {}, "rows": [
                ("n1", "2024-01-01 09:00:00", None, {}),
            ]}},
            "event_object": [("e1", "n1", "hits")],
            "object_object": [],
        },
    ]


def test_criterion_ocel2_round_trip(tmp_path):
    """import -> export -> import is a fixed point on ≥5 fixture logs."""
    with criterion("OCEL 2.0 round trip (5 fixture logs)"):
        started = time.monotonic()
        logs = round_trip_logs()
        assert len(logs) >= 5
        for n, log in enumerate(logs):
            source = tmp_path / f"in{n}.sqlite"
            build_ocel2_sqlite(source, log)
            first = import_ocel2(source).batch

            store = open_store(tmp_path / f"hub{n}.db", create_if_missing=True)
            store.append_batch(first)
            out = tmp_path / f"out{n}.sqlite"
            summary = export_ocel2(store, out)
            store.close()
            # the only documented losses: E2OAV rows, O2O temporality
            for note in summary.notes:
                assert ("event-to-object-attribute-value" in note
                        or "object-to-object" in note), note

            second = import_ocel2(out).batch
            assert second.rows == first.rows, f"fixture {n} not a fixed point"
        assert time.monotonic() - started < 30


PUBLISHED = {
    "order_management": FIXTURE_DIR / "order-management.sqlite",
    "container_logistics": FIXTURE_DIR / "container-logistics.sqlite",
    "procure_to_payment": FIXTURE_DIR / "procure-to-payment.sqlite",
}


@pytest.mark.skipif(
    not all(p.exists() for p in PUBLISHED.values()),
    reason="published OCEL 2.0 logs not present under tests/fixtures/",
)
def test_criterion_published_logs(tmp_path):
    """Container logistics and procure-to-payment carry dangling object
    references that the repair clears; order management imports clean."""
    with criterion("published-log referential integrity"):
        for name, path in PUBLISHED.items():
            store = open_store(tmp_path / f"{name}.db", create_if_missing=True)
            staged = store.stage(import_ocel2(path).batch)
            report = run_checkpoint(staged, "staging", store=store)
            object_refs = [
                v for v in report.violations
                if v.check == "referential_integrity" and v.ref_table == "objects"
            ]
            others = [v for v in report.violations if v not in object_refs]
            assert not others, (name, others[:3])
            if name == "order_management":
                assert not object_refs
            else:
                assert object_refs
                staged = store.stage_placeholder_objects(
                    v.ref_id for v in object_refs)
                assert run_checkpoint(staged, "staging", store=store).passed
            store.append_batch(staged)
            assert run_checkpoint(store, "transform").passed
            store.close()


JAFFLE_DIR = FIXTURE_DIR / "jaffle-shop"


@pytest.mark.skipif(
    not JAFFLE_DIR.exists(),
    reason="synthetic shop CSVs not present under tests/fixtures/jaffle-shop/",
)
def test_criterion_shop_scale_run(tmp_path):
    """Full mapped ingest + OCEL export of the generated shop data at the
    documented scale, within the documented wall-clock budget."""
    with criterion("shop-scale ingest and export"):
        from ochub.importers.mapped import MappingConfig, import_mapped_csv

        started = time.monotonic()
        config = MappingConfig.from_file(
            Path(__file__).parent.parent / "configs" / "jaffle_shop.yml"
        )
        store = open_store(tmp_path / "hub.db", create_if_missing=True)
        batch = import_mapped_csv(config, JAFFLE_DIR).batch
        store.append_batch(batch)
        counts = store.summary_stats().table_counts
        assert counts["events"] == 95_241
        assert counts["objects"] == 96_209
        assert counts["event_to_object"] == 263_383
        assert counts["object_to_object"] == 343_343
        assert counts["event_to_object_attribute_value"] == 929
        export_ocel2(store, tmp_path / "shop.sqlite")
        store.close()
        assert time.monotonic() - started < 180


def tiny_log(seed, n_objects=3, n_events=4, n_instants=3, ghosts=0,
             nulls=False):
    """A randomized micro-log: ≤n_events events, ≤n_objects objects,
    tie-prone timestamps, and event-to-object rows for `ghosts` objects that
    are missing from `objects`; with `nulls`, also events with a NULL type,
    a NULL timestamp or both."""
    rng = random.Random(seed)
    instants = [f"2024-01-01T{h:02d}:00:00.000Z" for h in range(1, n_instants + 1)]
    b = Batch()
    b.add("event_types", id="et:a", description="a")
    b.add("event_types", id="et:b", description="b")
    b.add("object_types", id="ot:x", description="x")
    b.add("object_attributes", id="oa:x.state", object_type_id="ot:x",
          description="state", datatype="string")
    b.add("relation_qualifiers", id="q:r", description="r", datatype="string")
    objects = [f"obj:{i}" for i in range(rng.randint(1, n_objects))]
    for object_id in objects:
        b.add("objects", id=object_id, object_type_id="ot:x", description=None)
    missing = [f"obj:ghost{i}" for i in range(ghosts)]
    for i in range(rng.randint(0, n_events)):
        b.add("events", id=f"ev:{i}", event_type_id=rng.choice(["et:a", "et:b"]),
              timestamp=rng.choice(instants), description=None)
        for object_id in objects + missing:
            if rng.random() < 0.6:
                b.add("event_to_object", id=f"e2o:{i}:{object_id}",
                      event_id=f"ev:{i}", object_id=object_id,
                      qualifier_id="q:r", qualifier_value="r")
    n = 0
    for object_id in objects:
        for ts in instants:
            if rng.random() < 0.3:
                b.add("object_attribute_values", id=f"oav:{n}",
                      object_id=object_id, object_attribute_id="oa:x.state",
                      timestamp=ts, attribute_value=f"v{n}")
                n += 1
    n = 0
    for source, target in itertools.permutations(objects, 2):
        for ts in instants:
            if rng.random() < 0.2:
                b.add("object_to_object", id=f"o2o:{n}",
                      source_object_id=source, target_object_id=target,
                      timestamp=ts, qualifier_id="q:r",
                      qualifier_value=rng.choice(["linked", None]))
                n += 1
    if nulls:
        for i, (type_id, ts) in enumerate((
            (None, rng.choice(instants)), (None, rng.choice(instants)),
            ("et:a", None), (None, None),
        )):
            b.add("events", id=f"ev:null{i}", event_type_id=type_id,
                  timestamp=ts, description=None)
            for object_id in objects:
                if rng.random() < 0.6:
                    b.add("event_to_object", id=f"e2o:null{i}:{object_id}",
                          event_id=f"ev:null{i}", object_id=object_id,
                          qualifier_id="q:r", qualifier_value="r")
    return b, objects


def test_criterion_graph_oracle_equivalence(tmp_path):
    """build_case_graph equals the brute-force constructor on ~200 tiny
    randomized logs and 30 larger ones (with NULL-type and NULL-timestamp
    events), for all objects and for a random subset, and every object's
    timeline equals the brute-force one; overview frequencies conserve case
    counts."""
    logs = [(f"s{seed}", tiny_log(seed)) for seed in range(200)] + [
        (f"l{seed}", tiny_log(seed, n_objects=8, n_events=16, n_instants=6,
                              ghosts=2, nulls=True))
        for seed in range(30)
    ]
    with criterion("graph oracle equivalence (230 micro-logs)"):
        started = time.monotonic()
        for name, (batch, objects) in logs:
            store = open_store(tmp_path / f"g{name}.db", create_if_missing=True)
            store.append_batch(batch)
            for object_id in objects:
                assert store.object_timeline(object_id) == \
                    brute_timeline(store, object_id), (name, object_id)

            rng = random.Random(name)
            subset = rng.sample(objects, rng.randint(1, len(objects)))
            for scope in (None, subset):
                graph = build_case_graph(store, object_ids=scope)
                event_ids, snapshots, edges = brute_case_graph(
                    store, sorted(scope or objects))
                assert set(graph.event_nodes) == event_ids, (name, scope)
                assert {
                    node_id: (object_id, timestamp, frozenset(attribute_ids),
                              prev_type)
                    for node_id, (object_id, _, timestamp, attribute_ids,
                                  prev_type) in graph.snapshot_nodes.items()
                } == snapshots, (name, scope)
                got_edges = {
                    (kind, start, end,
                     qualifier if kind == "O2O" else object_id)
                    for kind, start, end, object_id, qualifier in graph.edges
                }
                assert got_edges == edges, (name, scope)

                overview = build_overview_graph(graph)
                assert sum(edge[4] for edge in overview.edges) == \
                    len(graph.edges)
                assert sum(node[3] for node in overview.nodes) == \
                    len(graph.event_nodes) + len(graph.snapshot_nodes)
            store.close()
        assert time.monotonic() - started < 120


def test_criterion_tie_break_conformance(store, tmp_path):
    """Simultaneous events are ordered by (event_type_id, event_id) in the
    timeline, the flat export, and the graph."""
    with criterion("tie-break conformance (timeline, flat export, graph)"):
        ts = "2024-06-01T12:00:00.000Z"
        b = Batch()
        b.add("object_types", id="ot:c", description="case")
        b.add("objects", id="obj:c1", object_type_id="ot:c", description=None)
        b.add("relation_qualifiers", id="q:r", description="r",
              datatype="string")
        b.add("event_attributes", id="ea:marker", event_type_id="et:b",
              description="marker", datatype="string")
        # insertion order deliberately disagrees with both id order and
        # type order; expected order is et:a/ev:9, et:b/ev:1, et:b/ev:2
        for event_id, type_id in (("ev:2", "et:b"), ("ev:9", "et:a"),
                                  ("ev:1", "et:b")):
            if not any(r["id"] == type_id for r in rows_of(b, "event_types")):
                b.add("event_types", id=type_id, description=type_id[3:])
            b.add("events", id=event_id, event_type_id=type_id, timestamp=ts,
                  description=None)
            b.add("event_to_object", id=f"e2o:{event_id}", event_id=event_id,
                  object_id="obj:c1", qualifier_id="q:r", qualifier_value="r")
            b.add("event_attribute_values", id=f"eav:{event_id}",
                  event_id=event_id, event_attribute_id="ea:marker",
                  attribute_value=event_id)
        store.append_batch(b)
        expected = ["ev:9", "ev:1", "ev:2"]

        timeline = store.object_timeline("obj:c1")
        assert [entry.event_id for entry in timeline] == expected

        export_flat_csv(store, "ot:c", tmp_path / "flat.csv")
        import csv
        with open(tmp_path / "flat.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["marker"] for row in rows] == expected

        graph = build_case_graph(store)
        assert len(graph.snapshot_nodes) == 1
        [snapshot] = graph.snapshot_nodes.values()
        # ties are serialized: the snapshot's previous event is the last in
        # tie-break order (et:b / ev:2)
        assert snapshot[4] == "et:b"
        successors = {end for kind, _, end, _, _ in graph.edges
                      if kind == DF_SNAPSHOT_TO_EVENT}
        # ev:9 comes first, so it is never a directly-follows successor
        assert successors == {"e:ev:1", "e:ev:2"}
