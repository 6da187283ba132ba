import csv

import pytest

from ochub.graph import (
    DF_EVENT_TO_SNAPSHOT,
    DF_SNAPSHOT_TO_EVENT,
    EDGES_HEADER,
    NODES_HEADER,
    O2O,
    START,
    GraphExportError,
    SnapshotNode,
    build_case_graph,
    build_overview_graph,
    export_graph_csv,
)
from ochub.cli import EXIT_OK, run
from ochub.quality import run_checkpoint
from ochub.schema import Batch
from conftest import clean_fixture_batch
from oracles import brute_case_graph


def edge_tuples(graph):
    return {
        (e.kind, e.start, e.end, e.object_id if e.kind != O2O else e.qualifier)
        for e in graph.edges
    }


def minimal_batch():
    """One object, two events, no attribute updates."""
    b = Batch()
    b.add("event_types", id="et:a", description="a")
    b.add("event_types", id="et:b", description="b")
    b.add("object_types", id="ot:x", description="x")
    b.add("objects", id="obj:1", object_type_id="ot:x", description=None)
    b.add("relation_qualifiers", id="q:r", description="r", datatype="string")
    b.add("events", id="ev:1", event_type_id="et:a",
          timestamp="2024-01-01T10:00:00.000Z", description=None)
    b.add("events", id="ev:2", event_type_id="et:b",
          timestamp="2024-01-01T11:00:00.000Z", description=None)
    b.add("event_to_object", id="e2o:1", event_id="ev:1", object_id="obj:1",
          qualifier_id="q:r", qualifier_value="r")
    b.add("event_to_object", id="e2o:2", event_id="ev:2", object_id="obj:1",
          qualifier_id="q:r", qualifier_value="r")
    return b


class TestCaseGraph:
    def test_single_object_two_events(self, store):
        store.append_batch(minimal_batch())
        graph = build_case_graph(store)
        assert len(graph.event_nodes) == 2
        assert len(graph.snapshot_nodes) == 2
        assert edge_tuples(graph) == {
            (DF_EVENT_TO_SNAPSHOT, "e:ev:1",
             "s:obj:1@2024-01-01T10:00:00.000Z", "obj:1"),
            (DF_SNAPSHOT_TO_EVENT, "s:obj:1@2024-01-01T10:00:00.000Z",
             "e:ev:2", "obj:1"),
            (DF_EVENT_TO_SNAPSHOT, "e:ev:2",
             "s:obj:1@2024-01-01T11:00:00.000Z", "obj:1"),
        }

    def test_snapshot_prev_event_and_start(self, store):
        store.append_batch(minimal_batch())
        graph = build_case_graph(store)
        prev = {n.node_id: n.prev_event_type_id for n in graph.snapshot_nodes}
        assert prev["s:obj:1@2024-01-01T10:00:00.000Z"] == "et:a"
        assert prev["s:obj:1@2024-01-01T11:00:00.000Z"] == "et:b"

    def test_standalone_update_snapshot_has_start_prev(self, store):
        b = minimal_batch()
        b.add("object_attributes", id="oa:x.c", object_type_id="ot:x",
              description="c", datatype="string")
        b.add("object_attribute_values", id="oav:1", object_id="obj:1",
              object_attribute_id="oa:x.c",
              timestamp="2024-01-01T09:00:00.000Z", attribute_value="v")
        store.append_batch(b)
        graph = build_case_graph(store)
        snap = next(n for n in graph.snapshot_nodes
                    if n.timestamp == "2024-01-01T09:00:00.000Z")
        assert snap.prev_event_type_id == START
        assert snap.updated_attributes == frozenset({"oa:x.c"})
        # the update snapshot still points forward to the next event
        assert (DF_SNAPSHOT_TO_EVENT, snap.node_id, "e:ev:1", "obj:1") \
            in edge_tuples(graph)

    def test_multi_object_event_fans_out(self, store):
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:1", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        graph = build_case_graph(store)
        outgoing = [e for e in graph.edges
                    if e.kind == DF_EVENT_TO_SNAPSHOT and e.start == "e:ev:1"]
        assert {(e.end, e.object_id) for e in outgoing} == {
            ("s:obj:1@2024-01-01T10:00:00.000Z", "obj:1"),
            ("s:obj:2@2024-01-01T10:00:00.000Z", "obj:2"),
        }

    def test_snapshot_unique_per_object_timestamp(self, store):
        b = minimal_batch()
        # second event at the same instant as ev:1, same object
        b.add("events", id="ev:0", event_type_id="et:b",
              timestamp="2024-01-01T10:00:00.000Z", description=None)
        b.add("event_to_object", id="e2o:0", event_id="ev:0", object_id="obj:1",
              qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        graph = build_case_graph(store)
        at_ten = [n for n in graph.snapshot_nodes
                  if n.timestamp == "2024-01-01T10:00:00.000Z"]
        assert len(at_ten) == 1
        # both simultaneous events attach to the single snapshot; ties are
        # serialized (et:a sorts before et:b), so prev is the later one
        assert at_ten[0].prev_event_type_id == "et:b"

    def test_o2o_edge_between_same_timestamp_snapshots(self, store):
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:2", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        b.add("object_to_object", id="o2o:1", source_object_id="obj:1",
              target_object_id="obj:2", timestamp="2024-01-01T10:30:00.000Z",
              qualifier_id="q:r", qualifier_value="linked")
        store.append_batch(b)
        graph = build_case_graph(store)
        o2o = [e for e in graph.edges if e.kind == O2O]
        # only the 11:00 instant has snapshots for both objects
        assert [(e.start, e.end, e.qualifier) for e in o2o] == [
            ("s:obj:1@2024-01-01T11:00:00.000Z",
             "s:obj:2@2024-01-01T11:00:00.000Z", "r"),
        ]

    def test_terminated_o2o_produces_no_edge(self, store):
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:2", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        b.add("object_to_object", id="o2o:1", source_object_id="obj:1",
              target_object_id="obj:2", timestamp="2024-01-01T10:00:00.000Z",
              qualifier_id="q:r", qualifier_value="linked")
        b.add("object_to_object", id="o2o:2", source_object_id="obj:1",
              target_object_id="obj:2", timestamp="2024-01-01T10:30:00.000Z",
              qualifier_id="q:r", qualifier_value=None)
        store.append_batch(b)
        graph = build_case_graph(store)
        assert not any(e.kind == O2O for e in graph.edges)

    def test_unparseable_timestamp_still_builds(self, store):
        # append_batch keeps an unparseable timestamp verbatim (the transform
        # checkpoint flags it); the builder compares stored text as is
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("events", id="ev:3", event_type_id="et:a", timestamp="not-a-time",
              description=None)
        for object_id in ("obj:1", "obj:2"):
            b.add("event_to_object", id=f"e2o:3:{object_id}", event_id="ev:3",
                  object_id=object_id, qualifier_id="q:r", qualifier_value="r")
        b.add("object_to_object", id="o2o:1", source_object_id="obj:1",
              target_object_id="obj:2", timestamp="2024-01-01T10:30:00.000Z",
              qualifier_id="q:r", qualifier_value="linked")
        store.append_batch(b)
        graph = build_case_graph(store)
        event_ids, snapshots, edges = brute_case_graph(
            store, sorted(store.id_set("objects")))
        assert {n.node_id for n in graph.event_nodes} == event_ids
        assert {
            n.node_id: (n.object_id, n.timestamp, n.updated_attributes,
                        n.prev_event_type_id)
            for n in graph.snapshot_nodes
        } == snapshots
        assert edge_tuples(graph) == edges
        assert (O2O, "s:obj:1@not-a-time", "s:obj:2@not-a-time", "r") in edges

    def test_dangling_qualifier_draws_no_edge(self, store):
        # a relation whose qualifier is not in relation_qualifiers is the
        # transform checkpoint's violation; the graph skips it silently
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:2", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        b.add("object_to_object", id="o2o:1", source_object_id="obj:1",
              target_object_id="obj:2", timestamp="2024-01-01T10:30:00.000Z",
              qualifier_id="q:ghost", qualifier_value="linked")
        b.add("object_to_object", id="o2o:2", source_object_id="obj:2",
              target_object_id="obj:1", timestamp="2024-01-01T10:30:00.000Z",
              qualifier_id="q:r", qualifier_value="linked")
        store.append_batch(b)
        graph = build_case_graph(store)
        assert [(e.start, e.end, e.qualifier) for e in graph.edges
                if e.kind == O2O] == [
            ("s:obj:2@2024-01-01T11:00:00.000Z",
             "s:obj:1@2024-01-01T11:00:00.000Z", "r"),
        ]

    def test_relation_row_without_timestamp_is_ignored(self, store):
        # a NULL relation timestamp is never "at or before" an instant
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:2", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        b.add("object_to_object", id="o2o:1", source_object_id="obj:1",
              target_object_id="obj:2", timestamp=None,
              qualifier_id="q:r", qualifier_value="linked")
        store.append_batch(b)
        graph = build_case_graph(store)
        assert not any(e.kind == O2O for e in graph.edges)

    def test_rows_without_timestamp_are_left_out(self, store):
        # an event and an attribute update with a NULL timestamp beside
        # timestamped ones: no node, no timeline entry; the transform
        # checkpoint reports both rows
        b = minimal_batch()
        b.add("events", id="ev:3", event_type_id="et:a", timestamp=None,
              description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:3", object_id="obj:1",
              qualifier_id="q:r", qualifier_value="r")
        b.add("object_attributes", id="oa:x.size", object_type_id="ot:x",
              description="size", datatype="string")
        b.add("object_attribute_values", id="oav:1", object_id="obj:1",
              object_attribute_id="oa:x.size", timestamp=None,
              attribute_value="L")
        store.append_batch(b)
        graph = build_case_graph(store)
        event_ids, snapshots, edges = brute_case_graph(store, ["obj:1"])
        assert {n.node_id for n in graph.event_nodes} == event_ids == \
            {"e:ev:1", "e:ev:2"}
        assert {
            n.node_id: (n.object_id, n.timestamp, n.updated_attributes,
                        n.prev_event_type_id)
            for n in graph.snapshot_nodes
        } == snapshots
        assert edge_tuples(graph) == edges
        assert [e.event_id for e in store.object_timeline("obj:1")] == \
            ["ev:1", "ev:2"]
        report = run_checkpoint(store, "transform")
        assert {(v.table, v.key) for v in report.violations} == {
            ("events", "ev:3"), ("object_attribute_values", "oav:1"),
        }

    def test_object_scope_selection(self, store):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store, object_ids=["obj:i2"])
        assert [n.event_id for n in graph.event_nodes] == ["ev:2"]
        assert len(graph.snapshot_nodes) == 1

    def test_matches_brute_force_on_fixture(self, store):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        objects = sorted(store.id_set("objects"))
        event_ids, snapshots, edges = brute_case_graph(store, objects)
        assert {n.node_id for n in graph.event_nodes} == event_ids
        assert {
            n.node_id: (n.object_id, n.timestamp, n.updated_attributes,
                        n.prev_event_type_id)
            for n in graph.snapshot_nodes
        } == snapshots
        assert edge_tuples(graph) == edges


class TestOverviewGraph:
    def test_event_nodes_group_by_type(self, store):
        b = minimal_batch()
        b.add("events", id="ev:3", event_type_id="et:a",
              timestamp="2024-01-01T12:00:00.000Z", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:3", object_id="obj:1",
              qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        overview = build_overview_graph(build_case_graph(store))
        freq = {n.node_id: n.frequency for n in overview.nodes
                if n.kind == "event_type"}
        assert freq == {"et:et:a": 2, "et:et:b": 1}

    def test_snapshot_grouping_key(self, store):
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:1", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        overview = build_overview_graph(build_case_graph(store))
        groups = [n for n in overview.nodes if n.kind == "snapshot_group"]
        # obj:1@10:00 and obj:2@10:00 share (type, prev=et:a, attrs={}) and
        # collapse; obj:1@11:00 has prev=et:b and stays separate
        assert sorted((n.detail, n.frequency) for n in groups) == [
            ("ot:x|et:a|", 2),
            ("ot:x|et:b|", 1),
        ]

    def test_edge_frequencies_conserve_case_edges(self, store):
        store.append_batch(clean_fixture_batch())
        case = build_case_graph(store)
        overview = build_overview_graph(case)
        assert sum(e.frequency for e in overview.edges) == len(case.edges)
        assert sum(n.frequency for n in overview.nodes) == \
            len(case.event_nodes) + len(case.snapshot_nodes)

    def test_deterministic(self, store):
        store.append_batch(clean_fixture_batch())
        one = build_overview_graph(build_case_graph(store))
        two = build_overview_graph(build_case_graph(store))
        assert one.nodes == two.nodes
        assert one.edges == two.edges


class TestGraphCsvExport:
    def test_headers_and_types(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        out = tmp_path / "graph"
        export_graph_csv(graph, out)
        with open(out / "nodes.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == NODES_HEADER
        with open(out / "edges.csv", newline="") as handle:
            erows = list(csv.reader(handle))
        assert tuple(erows[0]) == EDGES_HEADER
        header = erows[0]
        types = {row[header.index(":TYPE")] for row in erows[1:]}
        assert types <= {"DF", "O2O"}
        assert "DF" in types

    def test_overview_export_carries_frequency(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        overview = build_overview_graph(build_case_graph(store))
        out = tmp_path / "overview"
        export_graph_csv(overview, out)
        with open(out / "edges.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(int(r["frequency"]) >= 1 for r in rows)

    def test_null_attribute_id_renders_empty_and_first(self, store, tmp_path):
        # two updates of obj:1 at ev:1's timestamp, one with a NULL
        # attribute id: the id renders empty and sorts first, as in SQL
        b = minimal_batch()
        b.add("object_attributes", id="oa:x.size", object_type_id="ot:x",
              description="size", datatype="string")
        for n, attribute_id in ((1, "oa:x.size"), (2, None)):
            b.add("object_attribute_values", id=f"oav:{n}", object_id="obj:1",
                  object_attribute_id=attribute_id,
                  timestamp="2024-01-01T10:00:00.000Z", attribute_value="L")
        store.append_batch(b)
        for fmt, node_id, detail in (
            ("graph-case", "s:obj:1@2024-01-01T10:00:00.000Z", ",oa:x.size"),
            ("graph-overview", "g:ot:x|et:a|,oa:x.size", "ot:x|et:a|,oa:x.size"),
        ):
            out = tmp_path / fmt
            assert run([
                "export", "--store", store.path, "--format", fmt, "--out", str(out),
            ]) == EXIT_OK
            with open(out / "nodes.csv", newline="") as handle:
                details = {row["id:ID"]: row["detail"] for row in csv.DictReader(handle)}
            assert details[node_id] == detail

    def test_checkpoint_aborts_before_writing(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        # duplicate node id -> graph checkpoint violation
        graph.snapshot_nodes.append(graph.snapshot_nodes[0])
        out = tmp_path / "graph"
        with pytest.raises(GraphExportError) as err:
            export_graph_csv(graph, out)
        assert err.value.report.violations
        assert not (out / "nodes.csv").exists()

    def test_dangling_edge_detected(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        broken = graph.edges[0].__class__(
            kind=graph.edges[0].kind, start="e:ghost",
            end=graph.edges[0].end, object_id="obj:i1",
        )
        graph.edges.append(broken)
        with pytest.raises(GraphExportError):
            export_graph_csv(graph, tmp_path / "graph")
