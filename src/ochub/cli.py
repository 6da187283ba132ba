"""Command-line pipelines over the hub.

Commands: init, ingest, check, stats, export. Ingest runs the staging
checkpoint before appending and the transform checkpoint after, over the
rows added since the store's last clean check. ``check --checkpoint
transform`` is the full, read-only audit of the rows present when it
starts; ``--report`` replaces the report file, never rewriting it in place.
A failed checkpoint (ingest, check or a graph export) raises
``util.QualityFailure``, and ``run`` prints its summary once, on stdout,
and exits 1.

Each command imports only the modules it runs. The importers, exporters and
``run_checkpoint`` are names of this module imported on first use
(``__getattr__``), and the commands call them through the module, so a name
rebound here is the one called; the graph exports import ``ochub.graph``.

Exit codes: 0 success, 1 quality-check failure, 2 usage error, 3 I/O error
(including an unreadable, corrupt or locked store file, and an input that
cannot be read, named), 4 append conflict.
"""

from __future__ import annotations

import json
import sqlite3
import sys

import click

from ochub.store import (
    AppendConflictError,
    StoreError,
    StoreNotFoundError,
    open_store,
)
from ochub.util import FormatError, QualityFailure, lazy_names

__getattr__ = lazy_names(__name__, {
    "MappingConfig": "ochub.importers.mapped",
    "import_hub_csv": "ochub.importers.hubcsv",
    "import_mapped_csv": "ochub.importers.mapped",
    "import_ocel2": "ochub.importers.ocel2",
    "export_docel": "ochub.exporters.docel",
    "export_flat_csv": "ochub.exporters.flatcsv",
    "export_ocel2": "ochub.exporters.ocel2",
    "run_checkpoint": "ochub.quality",
})
_this = sys.modules[__name__]  # the commands reach the names above through it

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFLICT = 4


@click.group()
def cli():
    """Storage hub for object-centric process-event data."""


@cli.command("init")
@click.argument("path")
def cmd_init(path):
    """Create an empty store at PATH."""
    store = open_store(path, create_if_missing=True)
    store.close()
    click.echo(f"initialized store at {path}")


def _load_batch(fmt, input_path, mapping):
    if fmt == "hubcsv":
        return _this.import_hub_csv(input_path)
    if fmt == "ocel2":
        return _this.import_ocel2(input_path)
    if fmt == "mapped":
        if not mapping:
            raise click.UsageError("--mapping is required for --format mapped")
        return _this.import_mapped_csv(
            _this.MappingConfig.from_file(mapping), input_path)
    raise click.UsageError(f"unknown format: {fmt}")


@cli.command("ingest")
@click.option("--store", "store_path", required=True)
@click.option(
    "--format", "fmt", required=True,
    type=click.Choice(["hubcsv", "ocel2", "mapped"]),
)
@click.option("--input", "input_path", required=True)
@click.option("--mapping", default=None, help="mapping config for --format mapped")
@click.option(
    "--repair-missing-objects", is_flag=True,
    help="append placeholder objects for unresolved object references",
)
def cmd_ingest(store_path, fmt, input_path, mapping, repair_missing_objects):
    """Import INPUT, run the staging checkpoint, append, then re-verify."""
    store = open_store(store_path, create_if_missing=False)
    try:
        imported = _load_batch(fmt, input_path, mapping)
        # staged once: the staging checkpoint, the repair and the append
        # all work on the same TEMP tables
        staged = store.stage(imported.batch)
        report = _this.run_checkpoint(staged, "staging", store=store)
        if not report.passed and repair_missing_objects and all(
            v.check == "referential_integrity" and v.ref_table == "objects"
            for v in report.violations
        ):
            missing = {v.ref_id for v in report.violations}
            click.echo(f"repairing {len(missing)} missing object(s)")
            staged = store.stage_placeholder_objects(missing)
            report = _this.run_checkpoint(staged, "staging", store=store)
        if not report.passed:
            raise QualityFailure(report)
        summary = store.append_batch(staged)
        added = {t: n for t, n in summary.items() if n}
        click.echo(f"appended: {json.dumps(added) if added else 'nothing new'}")
        if imported.skipped:
            click.echo(f"skipped {len(imported.skipped)} source row(s)")
        post = _this.run_checkpoint(store, "transform", since_clean=True)
        if not post.passed:
            raise QualityFailure(post)
        click.echo("checkpoints passed")
    finally:
        store.close()


@cli.command("check")
@click.option("--store", "store_path", required=True)
@click.option(
    "--checkpoint", required=True,
    type=click.Choice(["staging", "transform", "graph"]),
)
@click.option(
    "--input", "input_path", default=None,
    help="batch directory (staging) or graph CSV directory (graph)",
)
@click.option(
    "--format", "fmt", default="hubcsv",
    type=click.Choice(["hubcsv", "ocel2", "mapped"]),
    help="input format for the staging checkpoint",
)
@click.option("--mapping", default=None)
@click.option("--report", "report_path", default=None, help="write a JSON report")
def cmd_check(store_path, checkpoint, input_path, fmt, mapping, report_path):
    """Run a quality checkpoint and report every violation."""
    if checkpoint == "graph":  # reads the graph files alone, not the store
        if not input_path:
            raise click.UsageError(
                "graph checkpoint needs --input (directory with nodes.csv/edges.csv)"
            )
        report = _this.run_checkpoint(input_path, "graph")
    else:
        store = open_store(store_path, create_if_missing=False)
        try:
            if checkpoint == "transform":
                report = _this.run_checkpoint(store, "transform")
            elif not input_path:
                raise click.UsageError("staging checkpoint needs --input")
            else:
                batch = _load_batch(fmt, input_path, mapping).batch
                report = _this.run_checkpoint(batch, "staging", store=store)
        finally:
            store.close()
    if report.passed:  # printed before the write, which may fail (exit 3)
        click.echo(report.summary())
    if report_path:
        report.write_json(report_path)
    if not report.passed:
        raise QualityFailure(report)


@cli.command("stats")
@click.option("--store", "store_path", required=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_stats(store_path, as_json):
    """Summarize event, object, relation, and attribute-value counts."""
    store = open_store(store_path, create_if_missing=False)
    try:
        report = store.summary_stats()
    finally:
        store.close()
    if as_json:
        click.echo(json.dumps(report.to_dict(), indent=2))
        return
    counts = report.table_counts
    click.echo(f"events: {counts['events']}")
    for type_id, n in report.events_per_type.items():
        click.echo(f"  {type_id}: {n}")
    click.echo(f"objects: {counts['objects']}")
    for type_id, n in report.objects_per_type.items():
        click.echo(f"  {type_id}: {n}")
    click.echo(f"event-to-object: {counts['event_to_object']}")
    click.echo(f"object-to-object: {counts['object_to_object']}")
    click.echo(
        "event-to-object-attribute-value: "
        f"{counts['event_to_object_attribute_value']}"
    )
    click.echo(f"event attribute values: {counts['event_attribute_values']}")
    click.echo(f"object attribute values: {counts['object_attribute_values']}")


@cli.command("export")
@click.option("--store", "store_path", required=True)
@click.option(
    "--format", "fmt", required=True,
    type=click.Choice(["ocel2", "docel", "flat", "graph-case", "graph-overview"]),
)
@click.option("--out", required=True)
@click.option("--case-type", default=None, help="case object type for --format flat")
def cmd_export(store_path, fmt, out, case_type):
    """Extract the store in an external format."""
    store = open_store(store_path, create_if_missing=False)
    try:
        if fmt == "ocel2":
            summary = _this.export_ocel2(store, out)
        elif fmt == "docel":
            summary = _this.export_docel(store, out)
        elif fmt == "flat":
            if not case_type:
                raise click.UsageError("--case-type is required for --format flat")
            summary = _this.export_flat_csv(store, case_type, out)
        else:
            from ochub import graph as graph_mod

            graph = graph_mod.build_case_graph(store)
            if fmt == "graph-overview":
                graph = graph_mod.build_overview_graph(graph)
            summary = graph_mod.export_graph_csv(graph, out)
    finally:
        store.close()
    click.echo(f"wrote {summary.path}: {json.dumps(summary.counts)}")
    for note in summary.notes:
        click.echo(f"note: {note}")


def run(argv) -> int:
    """Invoke the CLI programmatically; returns the exit code."""
    try:
        cli.main(args=list(argv), prog_name="ochub", standalone_mode=False)
        return EXIT_OK
    except QualityFailure as exc:  # its message is the report's summary
        click.echo(str(exc))
        return EXIT_QUALITY
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except AppendConflictError as exc:
        click.echo(f"append conflict: {exc}", err=True)
        return EXIT_CONFLICT
    except StoreNotFoundError as exc:
        click.echo(str(exc), err=True)
        return EXIT_IO
    except (StoreError, FormatError, OSError, sqlite3.Error) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
