import csv

import pytest

from ochub.graph import (
    DF_EVENT_TO_SNAPSHOT,
    DF_SNAPSHOT_TO_EVENT,
    EDGES_HEADER,
    NODES_HEADER,
    O2O,
    START,
    CaseGraph,
    build_case_graph,
    build_overview_graph,
    export_graph_csv,
)
from ochub.cli import EXIT_OK, run
from ochub.exporters import write_csv
from ochub.quality import run_checkpoint
from ochub.schema import Batch
from ochub.store import open_store
from ochub.util import QualityFailure
from conftest import clean_fixture_batch
from oracles import brute_case_graph
from test_acceptance import tiny_log


def assert_same_checkpoint(rows, directory):
    from_graph = run_checkpoint(rows, "graph")
    from_files = run_checkpoint(directory, "graph")
    assert from_graph.scanned == from_files.scanned
    assert from_graph.violations == from_files.violations
    return from_graph


def edge_tuples(graph):
    return {
        (kind, start, end, object_id if kind != O2O else qualifier)
        for kind, start, end, object_id, qualifier in graph.edges
    }


def snapshot_fields(graph):
    """Snapshot node id -> (object id, timestamp, updated attribute ids,
    previous event type id), as ``brute_case_graph`` gives them."""
    return {
        node_id: (object_id, timestamp, frozenset(attribute_ids), prev_type)
        for node_id, (object_id, _, timestamp, attribute_ids, prev_type)
        in graph.snapshot_nodes.items()
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
        prev = {node_id: fields[4] for node_id, fields in graph.snapshot_nodes.items()}
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
        snap_id, snap = next((node_id, fields) for node_id, fields
                             in graph.snapshot_nodes.items()
                             if fields[2] == "2024-01-01T09:00:00.000Z")
        assert snap[4] == START
        assert frozenset(snap[3]) == frozenset({"oa:x.c"})
        # the update snapshot still points forward to the next event
        assert (DF_SNAPSHOT_TO_EVENT, snap_id, "e:ev:1", "obj:1") \
            in edge_tuples(graph)

    def test_multi_object_event_fans_out(self, store):
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:1", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        graph = build_case_graph(store)
        outgoing = [e for e in graph.edges
                    if e[0] == DF_EVENT_TO_SNAPSHOT and e[1] == "e:ev:1"]
        assert {(end, object_id) for _, _, end, object_id, _ in outgoing} == {
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
        at_ten = [fields for fields in graph.snapshot_nodes.values()
                  if fields[2] == "2024-01-01T10:00:00.000Z"]
        assert len(at_ten) == 1
        # both simultaneous events attach to the single snapshot; ties are
        # serialized (et:a sorts before et:b), so prev is the later one
        assert at_ten[0][4] == "et:b"

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
        o2o = [e for e in graph.edges if e[0] == O2O]
        # only the 11:00 instant has snapshots for both objects
        assert [(start, end, qualifier) for _, start, end, _, qualifier in o2o] == [
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
        assert not any(e[0] == O2O for e in graph.edges)

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
        assert set(graph.event_nodes) == event_ids
        assert snapshot_fields(graph) == snapshots
        assert edge_tuples(graph) == edges
        assert (O2O, "s:obj:1@not-a-time", "s:obj:2@not-a-time", "r") in edges

    def test_o2o_edge_carries_qualifier_display_name(self, store):
        """An O2O edge is named by its qualifier's description, else its id
        (an empty description counts as none), as the exporters name it."""
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:2", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        for qualifier_id, description in (("q:blank", ""), ("q:none", None)):
            b.add("relation_qualifiers", id=qualifier_id,
                  description=description, datatype="string")
        for qualifier_id in ("q:r", "q:blank", "q:none"):
            b.add("object_to_object", id=f"o2o:{qualifier_id}",
                  source_object_id="obj:1", target_object_id="obj:2",
                  timestamp="2024-01-01T10:30:00.000Z",
                  qualifier_id=qualifier_id, qualifier_value="linked")
        store.append_batch(b)
        graph = build_case_graph(store)
        assert sorted(qualifier for kind, _, _, _, qualifier in graph.edges
                      if kind == O2O) == ["q:blank", "q:none", "r"]

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
        assert [(start, end, qualifier)
                for kind, start, end, _, qualifier in graph.edges
                if kind == O2O] == [
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
        assert not any(e[0] == O2O for e in graph.edges)

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
        assert set(graph.event_nodes) == event_ids == {"e:ev:1", "e:ev:2"}
        assert snapshot_fields(graph) == snapshots
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
        assert [fields[0] for fields in graph.event_nodes.values()] == ["ev:2"]
        assert len(graph.snapshot_nodes) == 1

    def test_matches_brute_force_on_fixture(self, store):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        objects = sorted(store.id_set("objects"))
        event_ids, snapshots, edges = brute_case_graph(store, objects)
        assert set(graph.event_nodes) == event_ids
        assert snapshot_fields(graph) == snapshots
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
        freq = {node_id: n for node_id, kind, _, n in overview.nodes
                if kind == "event_type"}
        assert freq == {"et:et:a": 2, "et:et:b": 1}

    def test_snapshot_grouping_key(self, store):
        b = minimal_batch()
        b.add("objects", id="obj:2", object_type_id="ot:x", description=None)
        b.add("event_to_object", id="e2o:3", event_id="ev:1", object_id="obj:2",
              qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        overview = build_overview_graph(build_case_graph(store))
        groups = [node for node in overview.nodes if node[1] == "snapshot_group"]
        # obj:1@10:00 and obj:2@10:00 share (type, prev=et:a, attrs={}) and
        # collapse; obj:1@11:00 has prev=et:b and stays separate
        assert sorted((detail, n) for _, _, detail, n in groups) == [
            ("ot:x|et:a|", 2),
            ("ot:x|et:b|", 1),
        ]

    def test_null_type_is_not_the_text_none(self, store):
        """A NULL event type shows as empty in overview ids and details, as
        a NULL attribute id does, so it no longer shares a node with an
        event type whose id is the text ``None``."""
        b = minimal_batch()
        b.rows["events"] = []
        b.add("events", id="ev:1", event_type_id=None,
              timestamp="2024-01-01T10:00:00.000Z")
        b.add("events", id="ev:2", event_type_id="None",
              timestamp="2024-01-01T11:00:00.000Z")
        store.append_batch(b)
        nodes, _ = build_overview_graph(build_case_graph(store)).rows()
        assert [(row[0], row[4]) for row in nodes] == [
            ("et:", ""), ("et:None", "None"),
            ("g:ot:x|None|", "ot:x|None|"), ("g:ot:x||", "ot:x||"),
        ]

    def test_edge_frequencies_conserve_case_edges(self, store):
        store.append_batch(clean_fixture_batch())
        case = build_case_graph(store)
        overview = build_overview_graph(case)
        assert sum(edge[4] for edge in overview.edges) == len(case.edges)
        assert sum(node[3] for node in overview.nodes) == \
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

    @pytest.mark.parametrize("nulls", [False, True], ids=["plain", "nulls"])
    def test_rows_come_in_file_order(self, tmp_path, nulls):
        """Both graph kinds give their rows in the files' order, nodes by id
        and edges by (start, end, type, object, qualifier), so the export
        writes them as they come; the graph checkpoint finds the same in a
        graph as in its files, also with a repeated node and a dangling
        edge."""
        for seed in range(100):
            batch, _ = tiny_log(seed, n_objects=3 + seed % 6,
                                n_events=4 + seed % 13, nulls=nulls)
            with open_store(tmp_path / f"{seed}.db") as store:
                store.append_batch(batch)
                case = build_case_graph(store)
            for graph in (case, build_overview_graph(case)):
                nodes, edges = graph.rows()
                assert nodes == sorted(nodes, key=lambda row: row[0])
                assert edges == sorted(edges, key=lambda row: row[:5])
                out = tmp_path / f"{seed}-{type(graph).__name__}"
                export_graph_csv(graph, out)
                assert_same_checkpoint((nodes, edges), out)
                # a dict holds no repeated node: repeat the first snapshot
                # row of a case graph, or the first row of an overview
                first = len(graph.event_nodes) if isinstance(graph, CaseGraph) else 0
                if nodes[first:] and edges:
                    nodes.append(nodes[first])
                    edges.append(("ghost", *edges[0][1:]))
                    write_csv(out / "nodes.csv", NODES_HEADER, nodes)
                    write_csv(out / "edges.csv", EDGES_HEADER, edges)
                    report = assert_same_checkpoint((nodes, edges), out)
                    assert not any(report.check_status.values())

    @pytest.mark.parametrize("nulls", [False, True], ids=["plain", "nulls"])
    def test_cli_files_hold_the_graph_rows(self, tmp_path, nulls):
        """The CLI's files hold exactly the rows of ``build_case_graph``
        and ``build_overview_graph``, also with NULL types and timestamps
        and with objects missing from ``objects``."""
        for seed in range(100):
            batch, _ = tiny_log(seed, n_objects=3 + seed % 6,
                                n_events=4 + seed % 13, ghosts=seed % 3,
                                nulls=nulls)
            path = tmp_path / f"{seed}.db"
            with open_store(path) as store:
                store.append_batch(batch)
                case = build_case_graph(store)
            for fmt, graph in (("graph-case", case),
                               ("graph-overview", build_overview_graph(case))):
                out = tmp_path / f"{seed}-{fmt}"
                assert run(["export", "--store", str(path), "--format", fmt,
                            "--out", str(out)]) == EXIT_OK
                for name, rows in zip(("nodes.csv", "edges.csv"), graph.rows()):
                    with open(out / name, newline="") as handle:
                        written = list(csv.reader(handle))[1:]
                    assert written == [
                        ["" if value is None else str(value) for value in row]
                        for row in rows
                    ], (seed, fmt, name)

    def test_rows_built_once(self, store, tmp_path, monkeypatch):
        """The export checks the very rows it writes."""
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        calls = []
        rows = CaseGraph.rows
        monkeypatch.setattr(
            CaseGraph, "rows", lambda self: calls.append(self) or rows(self))
        export_graph_csv(graph, tmp_path / "graph")
        assert calls == [graph]

    def test_checkpoint_aborts_before_writing(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        # duplicate node id -> graph checkpoint violation; a dict holds no
        # repeated node, so the first snapshot row is repeated in the rows
        nodes, edges = graph.rows()
        graph.rows = lambda: (nodes + [nodes[len(graph.event_nodes)]], edges)
        out = tmp_path / "graph"
        with pytest.raises(QualityFailure) as err:
            export_graph_csv(graph, out)
        assert err.value.report.violations
        assert not (out / "nodes.csv").exists()

    def test_dangling_edge_detected(self, store, tmp_path):
        store.append_batch(clean_fixture_batch())
        graph = build_case_graph(store)
        kind, _, end, _, _ = graph.edges[0]
        graph.edges.append((kind, "e:ghost", end, "obj:i1", None))
        with pytest.raises(QualityFailure):
            export_graph_csv(graph, tmp_path / "graph")
