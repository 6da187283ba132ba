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

The case graph comes from two reads of the store: the store's timeline
sweep (``HubStore.timelines``, the entries ``object_timeline`` returns, for
every object at once) and one scan of object-to-object rows ordered by
(source, target, qualifier, timestamp, id). One pass along each object's
entries draws its nodes and directly-follows edges; an O2O edge costs one
binary search of the relation's history at each timestamp where both
objects have a snapshot. Rows with a NULL timestamp have no place on a
timeline and are left out; the transform checkpoint reports them.

The overview graph merges cases: events map to their event type, snapshots
map to groups keyed by (object type, event type of the previous event or
START, set of updated attributes), and edge frequencies count the case-level
edges behind each overview edge.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Optional

from ochub.store import HubStore, UnknownIdError

DF_EVENT_TO_SNAPSHOT = "DF_EVENT_TO_SNAPSHOT"
DF_SNAPSHOT_TO_EVENT = "DF_SNAPSHOT_TO_EVENT"
O2O = "O2O"

START = "START"

NODES_HEADER = ("id:ID", "kind", ":LABEL", "timestamp", "detail")
EDGES_HEADER = (":START_ID", ":END_ID", ":TYPE", "object", "qualifier", "frequency")


@dataclass(frozen=True)
class EventNode:
    node_id: str
    event_id: str
    event_type_id: str
    timestamp: str


@dataclass(frozen=True)
class SnapshotNode:
    node_id: str
    object_id: str
    object_type_id: str
    timestamp: str
    updated_attributes: frozenset
    prev_event_type_id: str  # START when no event precedes the snapshot


@dataclass(frozen=True)
class GraphEdge:
    kind: str  # DF_EVENT_TO_SNAPSHOT | DF_SNAPSHOT_TO_EVENT | O2O
    start: str
    end: str
    object_id: Optional[str] = None  # set for DF kinds
    qualifier: Optional[str] = None  # set for O2O


@dataclass
class SnapshotGraph:
    event_nodes: list = field(default_factory=list)
    snapshot_nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    def node_ids(self) -> set:
        return {n.node_id for n in self.event_nodes} | {
            n.node_id for n in self.snapshot_nodes
        }


@dataclass(frozen=True)
class OverviewNode:
    node_id: str
    kind: str  # "event_type" | "snapshot_group"
    detail: str
    frequency: int  # case-level nodes mapped onto this node


@dataclass(frozen=True)
class OverviewEdge:
    kind: str
    start: str
    end: str
    qualifier: Optional[str]
    frequency: int


@dataclass
class OverviewGraph:
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)


class GraphExportError(Exception):
    """The graph checkpoint failed; nothing was written."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"graph checkpoint failed with {len(report.violations)} violation(s)"
        )


def _snapshot_id(object_id: str, timestamp: str) -> str:
    return f"s:{object_id}@{timestamp}"


def build_case_graph(store: HubStore, object_ids=None) -> SnapshotGraph:
    """Build the case-level graph for the selected objects (all by default)."""
    if object_ids is None:
        selection = store.id_set("objects")
    else:
        selection = set(object_ids)
        for object_id in sorted(selection):
            if not store.has_id("objects", object_id):
                raise UnknownIdError(f"unknown object id: {object_id}")

    object_type_of = {
        row["id"]: row["object_type_id"] for row in store.table_rows("objects")
    }
    qualifier_names = {
        row["id"]: row["description"] or row["id"]
        for row in store.table_rows("relation_qualifiers")
    }
    event_nodes: dict = {}
    snapshot_nodes: dict = {}
    edges: set = set()
    snapshot_times: dict = {}  # object id -> timestamps of its snapshots
    for object_id, entries in store.timelines():
        if object_id not in selection:
            continue
        prev_type, pending = START, []  # pending: snapshots awaiting the next event
        for entry in entries:
            snap_id = _snapshot_id(object_id, entry.timestamp)
            if entry.kind == "event":
                node_id = f"e:{entry.event_id}"
                event_nodes[node_id] = EventNode(
                    node_id, entry.event_id, entry.event_type_id, entry.timestamp
                )
                edges.update(
                    GraphEdge(DF_SNAPSHOT_TO_EVENT, waiting, node_id, object_id)
                    for waiting in pending
                )
                edges.add(GraphEdge(DF_EVENT_TO_SNAPSHOT, node_id, snap_id, object_id))
                prev_type, pending = entry.event_type_id, []
            snapshot_nodes[snap_id] = SnapshotNode(
                snap_id, object_id, object_type_of[object_id], entry.timestamp,
                frozenset(entry.updated_attribute_ids), prev_type,
            )
            pending.append(snap_id)
        snapshot_times[object_id] = {entry.timestamp for entry in entries}

    # O2O edges between same-timestamp snapshots: the relation row with the
    # greatest (timestamp, id) at or before the instant decides, and a NULL
    # value (termination) draws none. Stored text is compared as is, so a
    # timestamp kept verbatim because it did not parse orders like any text.
    for (source_id, target_id, qualifier_id), rows in groupby(
        store.connection().execute(
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
                edges.add(GraphEdge(
                    O2O, _snapshot_id(source_id, timestamp),
                    _snapshot_id(target_id, timestamp),
                    qualifier=qualifier_names[qualifier_id],
                ))

    return SnapshotGraph(
        event_nodes=sorted(event_nodes.values(), key=lambda n: n.node_id),
        snapshot_nodes=sorted(snapshot_nodes.values(), key=lambda n: n.node_id),
        edges=sorted(
            edges,
            key=lambda e: (e.start, e.end, e.kind, e.object_id or "", e.qualifier or ""),
        ),
    )


def _attribute_list(attribute_ids) -> str:
    """Updated attribute ids as sorted, comma-separated text; a NULL id
    renders empty and sorts first, as SQL orders it."""
    return ",".join(sorted(attribute_id or "" for attribute_id in attribute_ids))


def build_overview_graph(case_graph: SnapshotGraph) -> OverviewGraph:
    """Aggregate a case-level graph into the overview graph."""
    mapping: dict = {}
    node_freq: dict = {}
    node_meta: dict = {}

    for node in case_graph.event_nodes:
        target = f"et:{node.event_type_id}"
        mapping[node.node_id] = target
        node_freq[target] = node_freq.get(target, 0) + 1
        node_meta[target] = ("event_type", node.event_type_id)
    for node in case_graph.snapshot_nodes:
        detail = (
            f"{node.object_type_id}|{node.prev_event_type_id}|"
            f"{_attribute_list(node.updated_attributes)}"
        )
        target = f"g:{detail}"
        mapping[node.node_id] = target
        node_freq[target] = node_freq.get(target, 0) + 1
        node_meta[target] = ("snapshot_group", detail)

    edge_freq: dict = {}
    for edge in case_graph.edges:
        key = (
            edge.kind,
            mapping[edge.start],
            mapping[edge.end],
            edge.qualifier,
        )
        edge_freq[key] = edge_freq.get(key, 0) + 1

    nodes = [
        OverviewNode(node_id=node_id, kind=kind, detail=detail, frequency=node_freq[node_id])
        for node_id, (kind, detail) in sorted(node_meta.items())
    ]
    edges = [
        OverviewEdge(kind=kind, start=start, end=end, qualifier=qualifier, frequency=n)
        for (kind, start, end, qualifier), n in sorted(
            edge_freq.items(), key=lambda item: (item[0][1], item[0][2], item[0][0], item[0][3] or "")
        )
    ]
    return OverviewGraph(nodes=nodes, edges=edges)


def export_graph_csv(graph, out_dir) -> "ExportSummary":
    """Write nodes.csv and edges.csv for the external bulk importer.

    The graph checkpoint (node uniqueness, edge endpoints) runs first; any
    violation aborts the export before files are written.
    """
    from ochub.exporters import ExportSummary
    from ochub.quality import run_checkpoint

    report = run_checkpoint(graph, "graph")
    if not report.passed:
        raise GraphExportError(report)

    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    if isinstance(graph, SnapshotGraph):
        node_rows = [
            (n.node_id, "event", "Event", n.timestamp, n.event_type_id)
            for n in graph.event_nodes
        ] + [
            (
                n.node_id,
                "snapshot",
                "Snapshot",
                n.timestamp,
                _attribute_list(n.updated_attributes),
            )
            for n in graph.snapshot_nodes
        ]
        edge_rows = [
            (
                e.start,
                e.end,
                "O2O" if e.kind == O2O else "DF",
                e.object_id or "",
                e.qualifier or "",
                1,
            )
            for e in graph.edges
        ]
    elif isinstance(graph, OverviewGraph):
        node_rows = [
            (n.node_id, n.kind, "EventType" if n.kind == "event_type" else "SnapshotGroup", "", n.detail)
            for n in graph.nodes
        ]
        edge_rows = [
            (
                e.start,
                e.end,
                "O2O" if e.kind == O2O else "DF",
                "",
                e.qualifier or "",
                e.frequency,
            )
            for e in graph.edges
        ]
    else:
        raise TypeError(f"not an exportable graph: {type(graph).__name__}")

    node_rows.sort(key=lambda r: r[0])
    edge_rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))

    summary = ExportSummary(format="graph-csv", path=str(root))
    with open(root / "nodes.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(NODES_HEADER)
        writer.writerows(node_rows)
    with open(root / "edges.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(EDGES_HEADER)
        writer.writerows(edge_rows)
    summary.counts["nodes.csv"] = len(node_rows)
    summary.counts["edges.csv"] = len(edge_rows)
    return summary
