"""Command-line pipelines over the hub.

Commands: init, ingest, check, stats, export. Ingest runs the staging
checkpoint before appending and the transform checkpoint after, over the
rows added since the store's last clean check. ``check --checkpoint
transform`` is the full, read-only audit of the rows present when it
starts; ``--report`` replaces the report file, never rewriting it in place.
A failed checkpoint (ingest, check or a graph export) raises
``util.QualityFailure``, and ``run`` prints its summary once, on stdout,
and exits 1.

Each command imports only the modules it runs: the standard library, ochub's
own and, for ``--format mapped``, PyYAML. ``argparse`` parses the command
line and ochub's records are plain classes or named tuples, so no command
pays for importing ``inspect``. The importers, exporters and
``run_checkpoint`` are names of this module imported on first use
(``__getattr__``), and the commands call them through the module, so a name
rebound here is the one called; the graph exports import ``ochub.graph``.
Each output line is flushed as it is written, so stdout and stderr keep
their order in one log.

Exit codes: 0 success, 1 quality-check failure, 2 usage error or interrupt,
3 I/O error (including an unreadable, corrupt or locked store file, and an
input that cannot be read, named), 4 append conflict.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys

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

INPUT_FORMATS = ("hubcsv", "ocel2", "mapped")


class UsageError(Exception):
    """A command line the CLI cannot run."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **options):  # ``--help`` but no ``-h``; no prefixes
        super().__init__(add_help=False, allow_abbrev=False, **options)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):  # raised for ``run`` to report, not exited
        raise UsageError(message)


def echo(text="", err=False) -> None:
    """Print one line on stdout, or stderr with ``err``, and flush it."""
    print(text, file=sys.stderr if err else sys.stdout, flush=True)


def cmd_init(path):
    """Create an empty store at PATH."""
    store = open_store(path, create_if_missing=True)
    store.close()
    echo(f"initialized store at {path}")


def _load_batch(fmt, input_path, mapping):
    if fmt == "hubcsv":
        return _this.import_hub_csv(input_path)
    if fmt == "ocel2":
        return _this.import_ocel2(input_path)
    if not mapping:  # --format mapped
        raise UsageError("--mapping is required for --format mapped")
    return _this.import_mapped_csv(
        _this.MappingConfig.from_file(mapping), input_path)


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
            echo(f"repairing {len(missing)} missing object(s)")
            staged = store.stage_placeholder_objects(missing)
            report = _this.run_checkpoint(staged, "staging", store=store)
        if not report.passed:
            raise QualityFailure(report)
        summary = store.append_batch(staged)
        added = {t: n for t, n in summary.items() if n}
        echo(f"appended: {json.dumps(added) if added else 'nothing new'}")
        if imported.skipped:
            echo(f"skipped {len(imported.skipped)} source row(s)")
        post = _this.run_checkpoint(store, "transform", since_clean=True)
        if not post.passed:
            raise QualityFailure(post)
        echo("checkpoints passed")
    finally:
        store.close()


def cmd_check(store_path, checkpoint, input_path, fmt, mapping, report_path):
    """Run a quality checkpoint and report every violation."""
    if checkpoint == "graph":  # reads the graph files alone, not the store
        if not input_path:
            raise UsageError(
                "graph checkpoint needs --input (directory with nodes.csv/edges.csv)"
            )
        report = _this.run_checkpoint(input_path, "graph")
    else:
        store = open_store(store_path, create_if_missing=False)
        try:
            if checkpoint == "transform":
                report = _this.run_checkpoint(store, "transform")
            elif not input_path:
                raise UsageError("staging checkpoint needs --input")
            else:
                batch = _load_batch(fmt, input_path, mapping).batch
                report = _this.run_checkpoint(batch, "staging", store=store)
        finally:
            store.close()
    if report.passed:  # printed before the write, which may fail (exit 3)
        echo(report.summary())
    if report_path:
        report.write_json(report_path)
    if not report.passed:
        raise QualityFailure(report)


def cmd_stats(store_path, as_json):
    """Summarize event, object, relation, and attribute-value counts."""
    store = open_store(store_path, create_if_missing=False)
    try:
        report = store.summary_stats()
    finally:
        store.close()
    if as_json:
        echo(json.dumps(report.to_dict(), indent=2))
        return
    counts = report.table_counts
    echo(f"events: {counts['events']}")
    for type_id, n in report.events_per_type.items():
        echo(f"  {type_id}: {n}")
    echo(f"objects: {counts['objects']}")
    for type_id, n in report.objects_per_type.items():
        echo(f"  {type_id}: {n}")
    echo(f"event-to-object: {counts['event_to_object']}")
    echo(f"object-to-object: {counts['object_to_object']}")
    echo("event-to-object-attribute-value: "
         f"{counts['event_to_object_attribute_value']}")
    echo(f"event attribute values: {counts['event_attribute_values']}")
    echo(f"object attribute values: {counts['object_attribute_values']}")


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
                raise UsageError("--case-type is required for --format flat")
            summary = _this.export_flat_csv(store, case_type, out)
        else:
            from ochub import graph as graph_mod

            graph = graph_mod.build_case_graph(store)
            if fmt == "graph-overview":
                graph = graph_mod.build_overview_graph(graph)
            summary = graph_mod.export_graph_csv(graph, out)
    finally:
        store.close()
    echo(f"wrote {summary.path}: {json.dumps(summary.counts)}")
    for note in summary.notes:
        echo(f"note: {note}")


def _parser() -> argparse.ArgumentParser:
    """The command line: each command's options, choices and defaults."""
    top = _Parser(prog="ochub",
                  description="Storage hub for object-centric process-event data.")
    commands = top.add_subparsers(title="commands", metavar="COMMAND",
                                  required=True)

    def command(name, function):
        """The ``add_argument`` of command ``name``, which runs ``function``;
        every command but init has a required ``--store``."""
        sub = commands.add_parser(name, help=function.__doc__,
                                  description=function.__doc__)
        sub.set_defaults(command=function)
        if name != "init":
            sub.add_argument("--store", dest="store_path", required=True)
        return sub.add_argument

    option = command("init", cmd_init)
    option("path", metavar="PATH")
    option = command("ingest", cmd_ingest)
    option("--format", dest="fmt", required=True, choices=INPUT_FORMATS)
    option("--input", dest="input_path", required=True)
    option("--mapping", help="mapping config for --format mapped")
    option("--repair-missing-objects", action="store_true",
           help="append placeholder objects for unresolved object references")
    option = command("check", cmd_check)
    option("--checkpoint", required=True,
           choices=("staging", "transform", "graph"))
    option("--input", dest="input_path",
           help="batch directory (staging) or graph CSV directory (graph)")
    option("--format", dest="fmt", default="hubcsv", choices=INPUT_FORMATS,
           help="input format for the staging checkpoint")
    option("--mapping")
    option("--report", dest="report_path", help="write a JSON report")
    option = command("stats", cmd_stats)
    option("--json", dest="as_json", action="store_true")
    option = command("export", cmd_export)
    option("--format", dest="fmt", required=True,
           choices=("ocel2", "docel", "flat", "graph-case", "graph-overview"))
    option("--out", required=True)
    option("--case-type", help="case object type for --format flat")
    return top


def run(argv) -> int:
    """Invoke the CLI programmatically; returns the exit code. An item of
    ``argv`` may be any path-like object."""
    try:
        args = vars(_parser().parse_args(list(map(os.fspath, argv))))
        args.pop("command")(**args)
        return EXIT_OK
    except SystemExit as exc:  # --help, once its text is printed
        return exc.code
    except QualityFailure as exc:  # its message is the report's summary
        echo(str(exc))
        return EXIT_QUALITY
    except UsageError as exc:
        echo(f"usage error: {exc}", err=True)
        return EXIT_USAGE
    except KeyboardInterrupt:
        echo(err=True)  # ends the line the interrupt left on a terminal
        return EXIT_USAGE
    except AppendConflictError as exc:
        echo(f"append conflict: {exc}", err=True)
        return EXIT_CONFLICT
    except StoreNotFoundError as exc:
        echo(str(exc), err=True)
        return EXIT_IO
    except (StoreError, FormatError, OSError, sqlite3.Error) as exc:
        echo(f"error: {exc}", err=True)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
