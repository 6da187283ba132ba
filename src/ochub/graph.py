"""Case-level snapshot graphs, overview aggregation, and bulk-import CSVs.

A case-level graph renders each object's timeline as an alternating chain of
event nodes and object-snapshot nodes connected by directly-follows edges:
every event points at the object's snapshot at its position, and every
snapshot points at the object's next timeline event. A snapshot exists per
(object, timestamp) whenever the object participates in an event or has an
attribute update at that instant; standalone update snapshots are spliced
into the chain at their timestamp. Object-to-object edges are added between
same-timestamp snapshots whose relation is valid at that instant.
Simultaneous events are serialized by (event_type_id, event_id), never
modeled as parallel.

The case graph (``CaseGraph``) comes from one walk (``build_case_graph``)
over two reads of the store: the store's timeline sweep
(``HubStore.timelines``, the entries ``object_timeline`` returns, for every
object at once) and one scan of object-to-object rows ordered by (source,
target, qualifier, timestamp, id). One pass along each object's entries
draws its nodes and directly-follows edges; an O2O edge costs one binary
search of the relation's history at each timestamp where both objects have
a snapshot. Rows with a NULL timestamp have no place on a timeline and are
left out; the transform checkpoint reports them. The graph keeps plain
tuples: nodes by id, and edges in a list. Each directly-follows edge is
drawn once; O2O edges pass through a set first, since two qualifier ids
can share a name (the exporters' ``display_name``: description, else id).

The overview graph merges cases: events map to their event type, snapshots
map to groups keyed by (object type, event type of the previous event or
START, set of updated attributes), and edge frequencies count the case-level
edges behind each overview edge. A NULL type shows as empty in overview ids
and details, as a NULL attribute id does. ``build_overview_graph`` counts it
straight from the case graph's tuples (``OverviewGraph``: node and edge
tuples with their frequencies).

The export takes nodes.csv and edges.csv rows in file order: nodes by id
(``e:`` before ``s:``), edges by (start, end, type, object, qualifier),
since at most one edge kind joins a (start, end) pair. ``CaseGraph.rows``
sorts the case graph's rows into that order once; ``OverviewGraph.rows``
gives its lists' rows, already in that order. The graph checkpoint checks
the rows the export writes, or reads them back with ``util.read_csv``; a
failed check raises ``util.QualityFailure``, the failure type of every
checkpoint, before any file is written.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from ochub.exporters import ExportSummary, display_name, write_csv
from ochub.store import HubStore, UnknownIdError
from ochub.util import QualityFailure

DF_EVENT_TO_SNAPSHOT = "DF_EVENT_TO_SNAPSHOT"
DF_SNAPSHOT_TO_EVENT = "DF_SNAPSHOT_TO_EVENT"
O2O = "O2O"

START = "START"

NODES_HEADER = ("id:ID", "kind", ":LABEL", "timestamp", "detail")
EDGES_HEADER = (":START_ID", ":END_ID", ":TYPE", "object", "qualifier", "frequency")


def _event_row(node_id, timestamp, event_type_id) -> tuple:
    return (node_id, "event", "Event", timestamp, event_type_id)


def _snapshot_row(node_id, timestamp, attribute_ids) -> tuple:
    return (node_id, "snapshot", "Snapshot", timestamp, _attribute_list(attribute_ids))


def _edge_row(kind, start, end, object_id, qualifier, frequency=1) -> tuple:
    return (start, end, "O2O" if kind == O2O else "DF", object_id or "",
            qualifier or "", frequency)


class OverviewGraph:
    """The overview graph: ``nodes`` holds (id, kind, detail, frequency)
    tuples and ``edges`` (kind, start, end, qualifier, frequency) tuples,
    both in file order."""

    def __init__(self, nodes: list, edges: list):
        self.nodes, self.edges = nodes, edges

    def rows(self):
        """(nodes.csv rows, edges.csv rows) in the order the lists hold them."""
        nodes = [
            (node_id, kind,
             "EventType" if kind == "event_type" else "SnapshotGroup", "", detail)
            for node_id, kind, detail, _ in self.nodes
        ]
        edges = [
            _edge_row(kind, start, end, None, qualifier, frequency)
            for kind, start, end, qualifier, frequency in self.edges
        ]
        return nodes, edges


class CaseGraph:
    """The case graph as plain tuples: ``event_nodes`` maps an event node
    id to (event id, event type id, timestamp), ``snapshot_nodes`` a
    snapshot node id to (object id, object type id, timestamp, updated
    attribute ids, previous event type id or START), and ``edges`` holds
    (kind, start, end, object id or None, qualifier or None) tuples, the
    object id set for the directly-follows kinds and the qualifier for O2O."""

    def __init__(self, event_nodes: dict, snapshot_nodes: dict, edges: list):
        self.event_nodes, self.snapshot_nodes = event_nodes, snapshot_nodes
        self.edges = edges

    def rows(self):
        """(nodes.csv rows, edges.csv rows), each sorted once into file
        order."""
        nodes = [
            _event_row(node_id, timestamp, event_type_id)
            for node_id, (_, event_type_id, timestamp)
            in sorted(self.event_nodes.items())
        ] + [
            _snapshot_row(node_id, timestamp, attribute_ids)
            for node_id, (_, _, timestamp, attribute_ids, _)
            in sorted(self.snapshot_nodes.items())
        ]
        edges = [_edge_row(*edge) for edge in self.edges]
        edges.sort()
        return nodes, edges


def _snapshot_id(object_id: str, timestamp: str) -> str:
    return f"s:{object_id}@{timestamp}"


def build_case_graph(store: HubStore, object_ids=None) -> CaseGraph:
    """Build the case graph for the selected objects (all by default) in
    one walk over the timelines and the O2O rows."""
    conn = store.connection()
    object_type_of = dict(conn.execute(
        "SELECT id, object_type_id FROM objects ORDER BY id"))
    if object_ids is None:
        selection = object_type_of.keys()
    else:
        selection = set(object_ids)
        for object_id in sorted(selection):
            if not store.has_id("objects", object_id):
                raise UnknownIdError(f"unknown object id: {object_id}")
    qualifier_names = dict(conn.execute(
        f"SELECT id, {display_name('q', 'id')} "
        "FROM relation_qualifiers q ORDER BY id"))
    events: dict = {}
    snapshots: dict = {}
    edges: list = []  # directly-follows edges, each drawn once
    snapshot_times: dict = {}  # object id -> timestamps of its snapshots
    for object_id, entries in store.timelines():
        if object_id not in selection:
            continue
        object_type_id = object_type_of[object_id]
        prev_type, pending = START, []  # pending: snapshots awaiting the next event
        for entry in entries:
            timestamp = entry.timestamp
            snap_id = _snapshot_id(object_id, timestamp)
            if entry.kind == "event":
                node_id = f"e:{entry.event_id}"
                prev_type = entry.event_type_id
                events[node_id] = (entry.event_id, prev_type, timestamp)
                edges += [
                    (DF_SNAPSHOT_TO_EVENT, waiting, node_id, object_id, None)
                    for waiting in pending
                ]
                edges.append((DF_EVENT_TO_SNAPSHOT, node_id, snap_id, object_id, None))
                pending = []
            snapshots[snap_id] = (
                object_id, object_type_id, timestamp,
                entry.updated_attribute_ids, prev_type,
            )
            pending.append(snap_id)
        snapshot_times[object_id] = {entry.timestamp for entry in entries}

    # O2O edges between same-timestamp snapshots: the relation row with the
    # greatest (timestamp, id) at or before the instant decides, and a NULL
    # value (termination) draws none. Stored text is compared as is, so a
    # timestamp kept verbatim because it did not parse orders like any text.
    o2o_edges: set = set()  # two qualifier ids can share a name
    for (source_id, target_id, qualifier_id), rows in groupby(
        conn.execute(
            "SELECT source_object_id, target_object_id, qualifier_id, timestamp, "
            "qualifier_value FROM object_to_object WHERE timestamp IS NOT NULL "
            "ORDER BY source_object_id, target_object_id, qualifier_id, timestamp, id"
        ),
        key=itemgetter(0, 1, 2),
    ):
        shared = snapshot_times.get(source_id, set()) & snapshot_times.get(target_id, set())
        # a dangling qualifier draws no edge; the transform checkpoint owns it
        if not shared or qualifier_id not in qualifier_names:
            continue
        rows = list(rows)
        instants = [row[3] for row in rows]
        for timestamp in shared:
            position = bisect_right(instants, timestamp)
            if position and rows[position - 1][4] is not None:
                o2o_edges.add((
                    O2O, _snapshot_id(source_id, timestamp),
                    _snapshot_id(target_id, timestamp), None,
                    qualifier_names[qualifier_id],
                ))

    edges.extend(o2o_edges)
    return CaseGraph(events, snapshots, edges)


def _attribute_list(attribute_ids) -> str:
    """Updated attribute ids as sorted, comma-separated text; a NULL id
    renders empty and sorts first, as SQL orders it."""
    return ",".join(sorted(attribute_id or "" for attribute_id in attribute_ids))


def build_overview_graph(case: CaseGraph) -> OverviewGraph:
    """The overview graph, counted from a case graph's nodes and edges."""
    groups = {  # case node id -> (overview node id, kind, detail)
        node_id: (f"et:{event_type_id or ''}", "event_type", event_type_id or "")
        for node_id, (_, event_type_id, _) in case.event_nodes.items()
    }
    for node_id, (_, object_type_id, _, attribute_ids, prev_type) \
            in case.snapshot_nodes.items():
        detail = (
            f"{object_type_id or ''}|{prev_type or ''}|"
            f"{_attribute_list(attribute_ids)}"
        )
        groups[node_id] = (f"g:{detail}", "snapshot_group", detail)
    # an overview id determines its kind and detail, so counting the
    # groups counts the case nodes behind each overview node
    node_freq = Counter(groups.values())
    edge_freq = Counter(
        (groups[start][0], groups[end][0], kind, qualifier)
        for kind, start, end, _, qualifier in case.edges
    )
    return OverviewGraph(
        nodes=[(*group, n) for group, n in sorted(node_freq.items())],
        edges=[
            (kind, start, end, qualifier, n)
            for (start, end, kind, qualifier), n in sorted(
                edge_freq.items(), key=lambda item: (*item[0][:3], item[0][3] or ""))
        ],
    )


def export_graph_csv(graph, out_dir) -> ExportSummary:
    """Write a case or overview graph's ``rows()`` as nodes.csv and
    edges.csv for the external bulk importer.

    The graph checkpoint (node uniqueness, edge endpoints) runs first, on
    those same rows; any violation raises ``util.QualityFailure`` before
    files are written.
    """
    from ochub.quality import run_checkpoint

    node_rows, edge_rows = rows = graph.rows()
    report = run_checkpoint(rows, "graph")
    if not report.passed:
        raise QualityFailure(report)

    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    summary = ExportSummary(path=str(root))
    summary.counts["nodes.csv"] = write_csv(root / "nodes.csv", NODES_HEADER, node_rows)
    summary.counts["edges.csv"] = write_csv(root / "edges.csv", EDGES_HEADER, edge_rows)
    return summary
