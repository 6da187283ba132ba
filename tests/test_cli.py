import csv
import io
import json
import os
import re
import sqlite3
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ochub
from ochub import graph as graph_mod
from ochub.cli import (
    EXIT_CONFLICT,
    EXIT_IO,
    EXIT_OK,
    EXIT_QUALITY,
    EXIT_USAGE,
    run,
)
from ochub.exporters import export_hub_csv
from ochub.schema import Batch, TABLES
from ochub.store import HubStore, open_store
from conftest import build_ocel2_sqlite, clean_fixture_batch, rows_of
from test_acceptance import tiny_log
from test_importers import (
    MALFORMED_CONFIGS, shop_mapping, shop_sources, simple_ocel_log,
)


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "hub.db"
    assert run(["init", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def batch_dir(tmp_path):
    """The clean fixture batch serialized as a hub CSV directory."""
    directory = tmp_path / "incoming"
    scratch = tmp_path / "scratch.db"
    store = open_store(scratch, create_if_missing=True)
    store.append_batch(clean_fixture_batch())
    export_hub_csv(store, directory)
    store.close()
    return directory


@pytest.fixture
def stage_calls(monkeypatch):
    """The batches HubStore.stage is called with, in call order."""
    calls = []
    stage = HubStore.stage

    def counted(store, batch):
        calls.append(batch)
        return stage(store, batch)

    monkeypatch.setattr(HubStore, "stage", counted)
    return calls


def read_rows(path, reader=csv.reader):
    with path.open() as handle:
        return list(reader(handle))


def append_rows(path, *rows):
    with path.open("a", newline="") as handle:
        csv.writer(handle).writerows(rows)


def ingest(store_path, batch_dir, *extra):
    return run([
        "ingest", "--store", str(store_path), "--format", "hubcsv",
        "--input", str(batch_dir), *extra,
    ])


# modules a graph command never needs
GRAPH_ABSENT = ["ochub.exporters.ocel2", "ochub.exporters.docel",
                "ochub.exporters.flatcsv", "yaml"]


def export_args(fmt, *extra):
    return ["export", "--store", "{store}", "--format", fmt, *extra]


# command line -> modules it must leave unimported beside click, dataclasses
# and inspect; {store} holds the clean fixture, {empty} is an empty store and
# {tmp} holds the inputs: batch/ (the fixture as hub CSV), log.sqlite,
# mapped/ with mapping.yml, and an empty graph in case/
IMPORT_GUARD = {
    "init": (["init", "{tmp}/new.db"], []),
    **{f"ingest-{fmt}": (["ingest", "--store", "{empty}", "--format", fmt,
                          "--input", source, *extra], ["ochub.exporters"])
       for fmt, source, *extra in (
           ("hubcsv", "{tmp}/batch"), ("ocel2", "{tmp}/log.sqlite"),
           ("mapped", "{tmp}/mapped", "--mapping", "{tmp}/mapping.yml"))},
    "check-staging": (["check", "--store", "{store}", "--checkpoint", "staging",
                       "--input", "{tmp}/batch"], ["ochub.exporters"]),
    "check-transform": (["check", "--store", "{store}", "--checkpoint",
                         "transform"], []),
    "stats": (["stats", "--store", "{store}"],
              ["ochub.importers", "ochub.exporters", "ochub.quality",
               "ochub.graph"]),
    "export-ocel2": (export_args("ocel2", "--out", "{tmp}/log.out.sqlite"), []),
    "export-docel": (export_args("docel", "--out", "{tmp}/docel"), []),
    "export-flat": (export_args("flat", "--case-type", "ot:item", "--out",
                                "{tmp}/flat.csv"), []),
    "graph-case": (export_args("graph-case", "--out", "{tmp}/case-out"),
                   ["ochub.importers", *GRAPH_ABSENT]),
    "graph-overview": (export_args("graph-overview", "--out", "{tmp}/overview"),
                       ["ochub.importers", *GRAPH_ABSENT]),
    "check-graph": (["check", "--store", "{store}", "--checkpoint", "graph",
                     "--input", "{tmp}/case"],
                    ["ochub.importers", "ochub.graph", *GRAPH_ABSENT]),
}

# command line ({store} a store) -> exit code
USAGE = {
    "no-arguments": ([], EXIT_USAGE),
    "help": (["--help"], EXIT_OK),
    "command-help": (["ingest", "--help"], EXIT_OK),
    "option-prefix": (["ingest", "--stor", "{store}", "--format", "hubcsv",
                       "--input", "x"], EXIT_USAGE),
    "extra-argument": (["stats", "--store", "{store}", "extra"], EXIT_USAGE),
    "choice-case": (["ingest", "--store", "{store}", "--format", "HUBCSV",
                     "--input", "x"], EXIT_USAGE),
    "option-equals": (["stats", "--store={store}"], EXIT_OK),
}


class TestBasics:
    def test_init_and_stats(self, store_path):
        assert run(["stats", "--store", str(store_path)]) == EXIT_OK
        assert run(["stats", "--store", str(store_path), "--json"]) == EXIT_OK

    @pytest.mark.parametrize("seed", range(6))
    def test_stats_with_null_event_types(self, tmp_path, capsys, seed):
        """Events of a NULL type beside typed ones, one of them the type
        whose id is the text ``None``: each breakdown lists NULL first, as
        "", then the ids in order, in text and JSON alike."""
        batch, _ = tiny_log(seed, n_objects=8, n_events=16, n_instants=6,
                            nulls=True)
        batch.add("event_types", id="None", description="None")
        batch.add("events", id="ev:named-None", event_type_id="None",
                  timestamp="2024-01-01T01:00:00.000Z")
        path = tmp_path / "hub.db"
        with open_store(path) as store:
            store.append_batch(batch)
        counts = Counter(row["event_type_id"] or ""
                         for row in rows_of(batch, "events"))
        types = sorted(counts)
        assert types[:2] == ["", "None"]
        capsys.readouterr()
        assert run(["stats", "--store", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        per_type = lines[1:lines.index(f"objects: {len(batch.rows['objects'])}")]
        assert [line.rsplit(":", 1) for line in per_type] == \
            [[f"  {type_id}", f" {counts[type_id]}"] for type_id in types]
        assert run(["stats", "--store", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["events_per_type"] == counts
        assert list(report["events_per_type"]) == types
        pairs = [(p["event_type_id"], p["object_type_id"])
                 for p in report["e2o_per_type_pair"]]
        assert pairs[0][0] is None and pairs[1:] == sorted(pairs[1:])

    def test_missing_store_is_io_error(self, tmp_path):
        assert run(["stats", "--store", str(tmp_path / "nope.db")]) == EXIT_IO

    def test_corrupt_store_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "hub.db"
        store = open_store(path)
        store.append_batch(clean_fixture_batch())
        store.close()
        # overwrite every page but the header and hub_meta's: the store
        # opens, and the first read of a data page fails
        conn = sqlite3.connect(path)
        keep = {1} | {row[0] for row in conn.execute(
            "SELECT rootpage FROM sqlite_master WHERE tbl_name = 'hub_meta'"
        )}
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        page_count = conn.execute("PRAGMA page_count").fetchone()[0]
        conn.close()
        with path.open("r+b") as handle:
            for page in set(range(1, page_count + 1)) - keep:
                handle.seek((page - 1) * page_size)
                handle.write(b"\xff" * page_size)
        capsys.readouterr()
        for args in (
            ["stats"],
            ["check", "--checkpoint", "transform"],
            ["export", "--format", "ocel2", "--out", str(tmp_path / "o.sqlite")],
        ):
            assert run([*args, "--store", str(path)]) == EXIT_IO, args
            assert "error: database disk image is malformed" in \
                capsys.readouterr().err

    def test_import_skips_yaml_and_graph(self):
        """Commands that read no mapping and build no graph do not pay for
        importing those modules."""
        env = dict(os.environ, PYTHONPATH=str(Path(ochub.__file__).parents[1]))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, ochub.cli; "
             "print(sorted({'yaml', 'ochub.graph'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert loaded.strip() == "[]"

    @pytest.mark.parametrize("command, absent", IMPORT_GUARD.values(),
                             ids=IMPORT_GUARD)
    def test_each_command_imports_what_it_runs(self, tmp_path, command, absent):
        """A command run in a fresh process leaves the modules it does not
        run unimported, and none loads click, dataclasses or inspect."""
        import yaml

        store = tmp_path / "hub.db"
        with open_store(store) as hub:
            hub.append_batch(clean_fixture_batch())
            export_hub_csv(hub, tmp_path / "batch")
        open_store(tmp_path / "empty.db").close()
        build_ocel2_sqlite(tmp_path / "log.sqlite", simple_ocel_log())
        (tmp_path / "mapped").mkdir()
        shop_sources(tmp_path / "mapped")
        (tmp_path / "mapping.yml").write_text(yaml.safe_dump(shop_mapping()))
        (tmp_path / "case").mkdir()
        for name, header in (("nodes.csv", "id:ID"), ("edges.csv", ":START_ID,:END_ID")):
            (tmp_path / "case" / name).write_text(header + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(ochub.__file__).parents[1]))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom ochub.cli import run\ncode = run(sys.argv[1:])\n"
             "print(*sorted(sys.modules))\nsys.exit(code)",
             *[arg.format(tmp=tmp_path, store=store, empty=tmp_path / "empty.db")
               for arg in command]],
            env=env, capture_output=True, text=True,
        )
        assert probe.returncode == EXIT_OK, probe.stdout + probe.stderr
        loaded = set(probe.stdout.splitlines()[-1].split())
        assert "ochub.cli" in loaded
        assert not loaded & {"click", "dataclasses", "inspect", *absent}

    def test_lazy_names_resolve(self):
        """Each public name imported on first use resolves, from the
        packages and from the CLI module; any other name is an
        AttributeError."""
        import ochub.cli as cli
        import ochub.exporters as exporters
        import ochub.importers as importers
        from ochub.exporters.docel import export_docel

        for module in (exporters, importers):
            for name in module.__all__:
                getattr(module, name)
        assert cli.export_docel is export_docel
        for module in (cli, exporters, importers):
            with pytest.raises(AttributeError):
                module.no_such_name

    def test_locked_store_is_io_error(self, tmp_path, capsys):
        """A store another connection holds an EXCLUSIVE lock on is an I/O
        error that says so once the busy timeout has passed, not a file
        that is no hub store."""
        path = tmp_path / "hub.db"
        with open_store(path) as store:
            store.append_batch(clean_fixture_batch())
        holder = sqlite3.connect(path, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            capsys.readouterr()
            assert run(["stats", "--store", str(path)]) == EXIT_IO
            err = capsys.readouterr().err
        finally:
            holder.close()
        assert err == f"error: store is locked by another connection: {path}\n"
        assert run(["stats", "--store", str(path)]) == EXIT_OK

    def test_bad_usage(self, store_path):
        assert run(["ingest", "--store", str(store_path)]) == EXIT_USAGE
        assert run(["no-such-command"]) == EXIT_USAGE
        assert run([
            "ingest", "--store", str(store_path), "--format", "mapped",
            "--input", "x",
        ]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, code", USAGE.values(), ids=USAGE)
    def test_usage(self, store_path, capsys, argv, code):
        """Help is printed on stdout and exits 0; a usage error says so on
        stderr and exits 2, an option prefix and a choice in another case
        among them."""
        capsys.readouterr()
        assert run([arg.format(store=store_path) for arg in argv]) == code
        out, err = capsys.readouterr()
        if code == EXIT_USAGE:
            assert out == "" and err.startswith("usage error: "), err
        elif "--help" in argv:
            assert out.lower().startswith("usage: ") and err == ""

    def test_path_item_in_argv(self, store_path):
        assert run(["stats", "--store", store_path]) == EXIT_OK

    def test_interrupt_exits_2(self, store_path, capsys, monkeypatch):
        """An interrupted command exits 2 with no traceback."""
        def interrupted(store):
            raise KeyboardInterrupt

        monkeypatch.setattr(HubStore, "summary_stats", interrupted)
        capsys.readouterr()
        assert run(["stats", "--store", str(store_path)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    def test_closed_stdout_is_io_error(self, store_path, capsys, monkeypatch):
        """Output to a reader that went away is an I/O error (exit 3)."""
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert run(["stats", "--store", str(store_path)]) == EXIT_IO
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


# input that cannot be read, and the message its ingest exits 3 with
UNREADABLE = {
    "yaml_syntax": r"mapping\.yml line \d+: ",
    "yaml_not_utf8": r"mapping\.yml line 2: byte 0xe9 is not UTF-8",
    "mapped_not_utf8": r"ticks\.csv line 3: byte 0xe9 is not UTF-8",
    "hubcsv_not_utf8": r"event_types\.csv line 2: byte 0xe9 is not UTF-8",
    "hubcsv_field_limit":
        r"events\.csv line 2: field larger than field limit \(131072\)",
}


class TestIngest:
    def test_clean_ingest_passes(self, store_path, batch_dir, capsys, stage_calls):
        assert ingest(store_path, batch_dir) == EXIT_OK
        assert "checkpoints passed" in capsys.readouterr().out
        # the staging checkpoint and the append share one stage
        assert len(stage_calls) == 1

    def test_mapped_ingest_stages_once(self, store_path, tmp_path, capsys,
                                       stage_calls):
        import yaml

        shop_sources(tmp_path)
        mapping = tmp_path / "mapping.yml"
        mapping.write_text(yaml.safe_dump(shop_mapping()))
        assert run([
            "ingest", "--store", str(store_path), "--format", "mapped",
            "--input", str(tmp_path), "--mapping", str(mapping),
        ]) == EXIT_OK
        assert "checkpoints passed" in capsys.readouterr().out
        assert len(stage_calls) == 1
        store = open_store(store_path)
        assert store.row_count("events") == 3
        store.close()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["object_types"].update({1: m["object_types"]["customer"]}),
         "error: object type 1 is not a string"),
        (lambda m: m["relations"]["object_to_object"].append(
            dict(m["relations"]["object_to_object"][0], qualifier=5)),
         "error: object_to_object relation: qualifier 5 is not a string"),
    ], ids=["object_type", "qualifier"])
    def test_non_string_mapping_name_exits_3(self, store_path, tmp_path,
                                              capsys, edit, message):
        """Beside string names, a numeric one used to end in a TypeError
        traceback and exit 1, the quality-failure code."""
        import yaml

        shop_sources(tmp_path)
        mapping = shop_mapping()
        edit(mapping)
        path = tmp_path / "mapping.yml"
        path.write_text(yaml.safe_dump(mapping))
        capsys.readouterr()
        assert run([
            "ingest", "--store", str(store_path), "--format", "mapped",
            "--input", str(tmp_path), "--mapping", str(path),
        ]) == EXIT_IO
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", MALFORMED_CONFIGS)
    def test_malformed_mapping_exits_3(self, store_path, tmp_path, capsys,
                                       text, message):
        """A config of the wrong shape used to end in a TypeError or
        AttributeError traceback and exit 1, the quality-failure code."""
        (tmp_path / "ticks.csv").write_text("id,at\nt1,2024-01-01T00:00:00Z\n")
        path = tmp_path / "mapping.yml"
        path.write_text(text)
        capsys.readouterr()
        assert run([
            "ingest", "--store", str(store_path), "--format", "mapped",
            "--input", str(tmp_path), "--mapping", str(path),
        ]) == EXIT_IO
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("probe", list(UNREADABLE))
    def test_undecodable_input_exits_3(self, store_path, tmp_path, capsys,
                                      probe):
        """Input that cannot be read as UTF-8 text, as CSV or as YAML is an
        import error naming the file and the line (exit 3). Each of these
        used to end in a traceback and exit 1, the quality-failure code."""
        source = tmp_path / "in"
        source.mkdir()
        mapping = tmp_path / "mapping.yml"
        mapping.write_text("event_types:\n  tick:\n    source: ticks.csv\n"
                           "    id_column: id\n    timestamp_column: at\n")
        args = ["--format", "mapped", "--mapping", str(mapping)]
        if probe.startswith("hubcsv"):
            args = ["--format", "hubcsv"]
        else:
            (source / "ticks.csv").write_text("id,at\nt1,2024-01-01T00:00:00Z\n")
        if probe == "yaml_syntax":
            mapping.write_text("tick: [unclosed\n")
        elif probe == "yaml_not_utf8":
            mapping.write_bytes(mapping.read_bytes().replace(b"tick", b"tick\xe9"))
        elif probe == "mapped_not_utf8":
            with (source / "ticks.csv").open("ab") as handle:
                handle.write(b"t\xe9,2024-01-02T00:00:00Z\n")
        elif probe == "hubcsv_not_utf8":
            (source / "event_types.csv").write_bytes(
                b"id,description\net:caf\xe9,caf\xe9\n")
        else:
            (source / "events.csv").write_text(
                "id,event_type_id,timestamp,description\n"
                f"ev:1,et:a,2024-01-01T00:00:00.000Z,{'x' * 131073}\n")
        capsys.readouterr()
        assert run(["ingest", "--store", str(store_path), "--input",
                    str(source), *args]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(UNREADABLE[probe], err), err
        assert "Traceback" not in err

    def test_ocel2_type_table_without_time_exits_3(self, store_path, tmp_path,
                                                  capsys):
        """An OCEL 2.0 per-type table without ``ocel_time`` is an import
        error naming the table and column (exit 3), and nothing is
        appended; it used to end in an IndexError and exit 1."""
        log = tmp_path / "log.sqlite"
        build_ocel2_sqlite(log, simple_ocel_log())
        conn = sqlite3.connect(log)
        with conn:
            conn.execute("ALTER TABLE event_ship DROP COLUMN ocel_time")
        conn.close()
        capsys.readouterr()
        assert run(["ingest", "--store", str(store_path), "--format", "ocel2",
                    "--input", str(log)]) == EXIT_IO
        assert capsys.readouterr().err == \
            "error: event_ship: no ocel_time column\n"
        with open_store(store_path, create_if_missing=False) as store:
            assert store.batch_clock() == 0

    @pytest.mark.parametrize("kind", ["text", "directory", "missing"])
    def test_ocel2_input_that_is_no_log_exits_3(self, store_path, tmp_path,
                                                capsys, kind):
        """A text file, a directory or a missing path given as an OCEL 2.0
        log is an import error naming it (exit 3); nothing is appended and
        no file is made."""
        log = tmp_path / "log#1.sqlite"
        if kind == "text":
            log.write_text("no SQLite here\n")
        elif kind == "directory":
            log.mkdir()
        capsys.readouterr()
        assert run(["ingest", "--store", str(store_path), "--format", "ocel2",
                    "--input", str(log)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(log) in err, err
        assert not (tmp_path / "log").exists()
        with open_store(store_path, create_if_missing=False) as store:
            assert store.batch_clock() == 0

    def test_ocel2_log_named_with_uri_characters(self, store_path, batch_dir,
                                                 tmp_path):
        """An exported log whose name holds '#' ingests into a new store,
        its three events included, and no file named by the part before
        '#' is made."""
        assert ingest(store_path, batch_dir) == EXIT_OK
        log = tmp_path / "log#1.sqlite"
        assert run(["export", "--store", str(store_path), "--format", "ocel2",
                    "--out", str(log)]) == EXIT_OK
        copy = tmp_path / "copy.db"
        assert run(["init", str(copy)]) == EXIT_OK
        assert run(["ingest", "--store", str(copy), "--format", "ocel2",
                    "--input", str(log)]) == EXIT_OK
        assert not (tmp_path / "log").exists()
        with open_store(copy, create_if_missing=False) as store:
            assert store.summary_stats().table_counts["events"] == 3

    def test_reingest_is_idempotent(self, store_path, batch_dir, capsys):
        assert ingest(store_path, batch_dir) == EXIT_OK
        capsys.readouterr()
        assert ingest(store_path, batch_dir) == EXIT_OK
        assert "nothing new" in capsys.readouterr().out

    def test_missing_object_fails_quality(self, store_path, batch_dir, capsys):
        path = batch_dir / "event_to_object.csv"
        rows = read_rows(path)
        rows.append(["e2o:9", "ev:1", "obj:ghost", "q:handles", "handles"])
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert ingest(store_path, batch_dir) == EXIT_QUALITY
        out = capsys.readouterr().out
        assert "referential_integrity" in out and "obj:ghost" in out
        # nothing was appended
        store = open_store(store_path)
        assert store.summary_stats().table_counts["events"] == 0
        store.close()

    def test_repair_missing_objects(self, store_path, batch_dir, capsys,
                                    stage_calls):
        path = batch_dir / "event_to_object.csv"
        rows = read_rows(path)
        rows.append(["e2o:9", "ev:1", "obj:ghost", "q:handles", "handles"])
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert ingest(store_path, batch_dir, "--repair-missing-objects") == EXIT_OK
        assert "repairing 1 missing object(s)" in capsys.readouterr().out
        # the placeholders join the one stage
        assert len(stage_calls) == 1
        store = open_store(store_path)
        assert store.has_id("objects", "obj:ghost")
        store.close()

    def test_repair_does_not_mask_other_failures(self, store_path, batch_dir):
        e2o = batch_dir / "event_to_object.csv"
        rows = read_rows(e2o)
        rows.append(["e2o:9", "ev:1", "obj:ghost", "q:handles", "handles"])
        with e2o.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        events = batch_dir / "events.csv"
        rows = read_rows(events)
        rows.append(["ev:9", "et:ghost", "2024-03-01T08:00:00.000Z", ""])
        with events.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert ingest(store_path, batch_dir, "--repair-missing-objects") \
            == EXIT_QUALITY

    def test_repair_beside_a_staged_unknown_type(self, store_path, batch_dir,
                                                 capsys):
        append_rows(batch_dir / "object_types.csv", ["ot:unknown", "unknown"])
        append_rows(batch_dir / "event_to_object.csv",
                    ["e2o:9", "ev:1", "obj:ghost", "q:handles", "handles"])
        assert ingest(store_path, batch_dir, "--repair-missing-objects") == EXIT_OK
        assert "repairing 1 missing object(s)" in capsys.readouterr().out
        store = open_store(store_path)
        assert [row["id"] for row in store.table_rows("object_types")
                if row["id"] == "ot:unknown"] == ["ot:unknown"]
        assert store.get_row("objects", "obj:ghost")["object_type_id"] == "ot:unknown"
        store.close()

    def test_repair_refuses_non_object_references(self, store_path, batch_dir,
                                                  capsys):
        append_rows(batch_dir / "events.csv",
                    ["ev:9", "et:ghost", "2024-03-01T08:00:00.000Z", ""])
        assert ingest(store_path, batch_dir, "--repair-missing-objects") \
            == EXIT_QUALITY
        out = capsys.readouterr().out
        assert "repairing" not in out and "et:ghost" in out

    def test_repair_refuses_other_checks(self, store_path, batch_dir, capsys):
        append_rows(batch_dir / "event_to_object.csv",
                    ["e2o:9", "ev:1", "obj:ghost", "q:handles", "handles"])
        append_rows(batch_dir / "event_types.csv", ["et:pick", "picked twice"])
        assert ingest(store_path, batch_dir, "--repair-missing-objects") \
            == EXIT_QUALITY
        out = capsys.readouterr().out
        assert "repairing" not in out and "unique_primary_keys" in out
        store = open_store(store_path)
        assert store.dump() == {table: [] for table in TABLES}
        store.close()

    def test_conflicting_reingest_exits_4(self, store_path, batch_dir, capsys):
        assert ingest(store_path, batch_dir) == EXIT_OK
        path = batch_dir / "events.csv"
        rows = read_rows(path)
        rows[1][2] = "2030-01-01T00:00:00.000Z"  # same id, new timestamp
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        store = open_store(store_path)
        before = store.dump(), store.batch_clock()
        store.close()
        capsys.readouterr()
        assert ingest(store_path, batch_dir) == EXIT_CONFLICT
        # the conflicting batch changed nothing
        store = open_store(store_path)
        after = store.dump(), store.batch_clock()
        store.close()
        assert after == before

    def test_dirty_store_fails_every_ingest(self, store_path, batch_dir,
                                            capsys):
        """A violation already in the store fails every later ingest, and
        never moves the clean-row watermark."""
        store = open_store(store_path)
        dirty = Batch()
        dirty.add("events", id="ev:bad", event_type_id="et:pick",
                  timestamp="not-a-time", description=None)
        store.append_batch(dirty)
        store.close()
        for _ in range(2):
            capsys.readouterr()
            assert ingest(store_path, batch_dir) == EXIT_QUALITY
            out = capsys.readouterr().out
            assert "timestamp_validity" in out and "ev:bad" in out
        assert clean_mark(store_path) is None

    def test_ingest_checks_only_rows_since_last_clean_check(
            self, store_path, batch_dir, tmp_path):
        assert ingest(store_path, batch_dir) == EXIT_OK
        store = open_store(store_path)
        marked = clean_mark(store_path)
        assert marked == {
            table: [store.max_rowids()[table], store.row_count(table)]
            for table in marked
        }
        # a library append above the watermark is checked by the next ingest
        late = Batch()
        late.add("events", id="ev:late", event_type_id="et:ghost",
                 timestamp="2024-03-02T08:00:00.000Z", description=None)
        store.append_batch(late)
        store.close()
        assert ingest(store_path, batch_dir) == EXIT_QUALITY
        report = tmp_path / "report.json"
        assert run([
            "check", "--store", str(store_path), "--checkpoint", "transform",
            "--report", str(report),
        ]) == EXIT_QUALITY
        assert [v["key"] for v in json.loads(report.read_text())["violations"]] \
            == ["et:ghost"]
        assert clean_mark(store_path) == marked

    def test_unreadable_input_exits_3(self, store_path, tmp_path):
        assert ingest(store_path, tmp_path / "missing-dir") == EXIT_IO

    def test_out_of_range_timestamp_exits_3(self, store_path, batch_dir,
                                            capsys):
        # the UTC instant of 0001-01-01T00:00:00+01:00 is before year 1
        path = batch_dir / "events.csv"
        rows = read_rows(path, csv.DictReader)
        rows[0]["timestamp"] = "0001-01-01T00:00:00+01:00"
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert ingest(store_path, batch_dir) == EXIT_IO
        assert "events.csv line 2: timestamp out of range" in \
            capsys.readouterr().err


def clean_mark(store_path):
    """The store's clean-row watermark as recorded, or None."""
    conn = sqlite3.connect(store_path)
    try:
        row = conn.execute(
            "SELECT value FROM hub_meta WHERE key = 'transform_clean'"
        ).fetchone()
    finally:
        conn.close()
    return None if row is None else json.loads(row[0])


class TestCheck:
    def test_staging_check_pass(self, store_path, batch_dir):
        assert run([
            "check", "--store", str(store_path), "--checkpoint", "staging",
            "--input", str(batch_dir),
        ]) == EXIT_OK

    def test_transform_check_after_ingest(self, store_path, batch_dir):
        assert ingest(store_path, batch_dir) == EXIT_OK
        assert run([
            "check", "--store", str(store_path), "--checkpoint", "transform",
        ]) == EXIT_OK

    def test_transform_check_is_read_only(self, tmp_path):
        path = tmp_path / "hub.db"
        store = open_store(path)
        store.append_batch(clean_fixture_batch())
        store.close()
        assert run([
            "check", "--store", str(path), "--checkpoint", "transform",
        ]) == EXIT_OK
        assert clean_mark(path) is None

    def test_check_writes_json_report(self, store_path, batch_dir, tmp_path):
        report = tmp_path / "report.json"
        assert run([
            "check", "--store", str(store_path), "--checkpoint", "staging",
            "--input", str(batch_dir), "--report", str(report),
        ]) == EXIT_OK
        assert report.exists()

    def test_failed_check_prints_its_summary_once(self, tmp_path, capsys):
        """A failed checkpoint's summary is printed once, on stdout, and
        its report is still written."""
        path = tmp_path / "hub.db"
        batch = Batch()
        batch.add("events", id="ev:1", event_type_id="et:missing",
                  timestamp="2024-01-01T00:00:00.000Z")
        with open_store(path) as store:
            store.append_batch(batch)
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["check", "--store", str(path), "--checkpoint", "transform",
                    "--report", str(report)]) == EXIT_QUALITY
        captured = capsys.readouterr()
        assert captured.out.count("checkpoint transform: FAILED") == 1
        assert "et:missing" in captured.out and captured.err == ""
        assert json.loads(report.read_text())["passed"] is False

    def test_failed_report_write_still_prints_a_passing_summary(
            self, store_path, tmp_path, capsys):
        """A passing check prints its summary before writing ``--report``,
        so a write that fails (exit 3) does not hide the result."""
        capsys.readouterr()
        assert run(["check", "--store", str(store_path), "--checkpoint",
                    "transform", "--report",
                    str(tmp_path / "no-such-dir" / "r.json")]) == EXIT_IO
        captured = capsys.readouterr()
        assert "checkpoint transform: PASSED" in captured.out
        assert "error:" in captured.err

    def test_graph_check_on_csv_dir(self, store_path, batch_dir, tmp_path):
        assert ingest(store_path, batch_dir) == EXIT_OK
        out = tmp_path / "graph"
        assert run([
            "export", "--store", str(store_path), "--format", "graph-case",
            "--out", str(out),
        ]) == EXIT_OK
        assert run([
            "check", "--store", str(store_path), "--checkpoint", "graph",
            "--input", str(out),
        ]) == EXIT_OK

    def test_graph_check_on_missing_files(self, store_path, batch_dir,
                                          tmp_path, capsys):
        """A missing directory, nodes.csv or edges.csv is an I/O error
        naming the file, not an empty graph that passes."""
        assert ingest(store_path, batch_dir) == EXIT_OK
        out = tmp_path / "graph"
        assert run([
            "export", "--store", str(store_path), "--format", "graph-case",
            "--out", str(out),
        ]) == EXIT_OK
        (out / "edges.csv").unlink()
        for directory, missing in ((tmp_path / "absent", "nodes.csv"),
                                   (out, "edges.csv")):
            capsys.readouterr()
            assert run([
                "check", "--store", str(store_path), "--checkpoint", "graph",
                "--input", str(directory),
            ]) == EXIT_IO
            captured = capsys.readouterr()
            assert str(directory / missing) in captured.err
            assert "PASSED" not in captured.out

    @pytest.mark.parametrize("name, data, message", [
        ("nodes.csv", b"id:ID\nn\xff\n",
         "nodes.csv line 2: byte 0xff is not UTF-8"),
        ("edges.csv", b":START_ID,:END_ID\nn1," + b"x" * 131073 + b"\n",
         "edges.csv line 2: field larger than field limit (131072)"),
    ], ids=["not_utf8", "field_limit"])
    def test_graph_check_on_unreadable_file_exits_3(self, tmp_path, capsys,
                                                    name, data, message):
        """A graph file that cannot be read is an import error naming the
        file and the line (exit 3), as for every CSV input; it used to end
        in a traceback and exit 1, the quality-failure code."""
        out = tmp_path / "graph"
        out.mkdir()
        (out / "nodes.csv").write_text("id:ID\nn1\n")
        (out / "edges.csv").write_text(":START_ID,:END_ID\nn1,n1\n")
        (out / name).write_bytes(data)
        assert run([
            "check", "--store", str(tmp_path / "none.db"), "--checkpoint",
            "graph", "--input", str(out),
        ]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "PASSED" not in captured.out

    def test_graph_check_opens_no_store(self, store_path, batch_dir, tmp_path):
        """The graph checkpoint reads only its files: a missing --store path
        does not fail it, and no store is created there."""
        assert ingest(store_path, batch_dir) == EXIT_OK
        out = tmp_path / "graph"
        assert run([
            "export", "--store", str(store_path), "--format", "graph-case",
            "--out", str(out),
        ]) == EXIT_OK
        absent = tmp_path / "none.db"
        assert run([
            "check", "--store", str(absent), "--checkpoint", "graph",
            "--input", str(out),
        ]) == EXIT_OK
        assert not absent.exists()


class TestExport:
    def test_all_formats(self, store_path, batch_dir, tmp_path):
        assert ingest(store_path, batch_dir) == EXIT_OK
        base = ["export", "--store", str(store_path)]
        assert run(base + ["--format", "ocel2",
                           "--out", str(tmp_path / "log.sqlite")]) == EXIT_OK
        assert run(base + ["--format", "docel",
                           "--out", str(tmp_path / "docel")]) == EXIT_OK
        assert run(base + ["--format", "flat", "--case-type", "ot:item",
                           "--out", str(tmp_path / "flat.csv")]) == EXIT_OK
        assert run(base + ["--format", "graph-overview",
                           "--out", str(tmp_path / "overview")]) == EXIT_OK
        assert (tmp_path / "overview" / "nodes.csv").exists()

    def test_failing_graph_export_exits_1(self, store_path, batch_dir,
                                          tmp_path, monkeypatch, capsys):
        assert ingest(store_path, batch_dir) == EXIT_OK
        rows = graph_mod.CaseGraph.rows

        def duplicated_node(graph):
            nodes, edges = rows(graph)
            return nodes + nodes[-1:], edges

        monkeypatch.setattr(graph_mod.CaseGraph, "rows", duplicated_node)
        out = tmp_path / "graph"
        capsys.readouterr()
        assert run([
            "export", "--store", str(store_path), "--format", "graph-case",
            "--out", str(out),
        ]) == EXIT_QUALITY
        captured = capsys.readouterr()
        assert "checkpoint graph: FAILED" in captured.out
        assert "graph_node_uniqueness: 1 violation(s)" in captured.out
        assert captured.err == ""
        assert not (out / "nodes.csv").exists()

    def test_graph_exports_call_the_builders(self, store_path, batch_dir,
                                             tmp_path, monkeypatch):
        """Both graph exports build through ``ochub.graph.build_case_graph``
        and the overview through ``build_overview_graph``, and write one
        row per node and edge of the case graph, or of the overview."""
        assert ingest(store_path, batch_dir) == EXIT_OK
        calls = []

        def recorded(name):
            original = getattr(graph_mod, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((name, result))
                return result
            return wrapper

        for name in ("build_case_graph", "build_overview_graph"):
            monkeypatch.setattr(graph_mod, name, recorded(name))
        for fmt, names in (("graph-case", ["build_case_graph"]),
                           ("graph-overview", ["build_case_graph",
                                               "build_overview_graph"])):
            calls.clear()
            out = tmp_path / fmt
            assert run(["export", "--store", str(store_path), "--format", fmt,
                        "--out", str(out)]) == EXIT_OK
            assert [name for name, _ in calls] == names
            graph = calls[-1][1]
            nodes = (len(graph.event_nodes) + len(graph.snapshot_nodes)
                     if fmt == "graph-case" else len(graph.nodes))
            assert len(read_rows(out / "nodes.csv")) - 1 == nodes > 0
            assert len(read_rows(out / "edges.csv")) - 1 == len(graph.edges) > 0

    def test_flat_needs_case_type(self, store_path, batch_dir, tmp_path):
        assert ingest(store_path, batch_dir) == EXIT_OK
        assert run([
            "export", "--store", str(store_path), "--format", "flat",
            "--out", str(tmp_path / "flat.csv"),
        ]) == EXIT_USAGE

    def test_pipeline_composability_fixed_point(self, store_path, batch_dir,
                                                 tmp_path):
        """ingest -> export ocel2 -> ingest into a fresh store -> identical
        stats; re-exporting produces an identical log."""
        assert ingest(store_path, batch_dir) == EXIT_OK
        first = tmp_path / "log1.sqlite"
        assert run(["export", "--store", str(store_path), "--format", "ocel2",
                    "--out", str(first)]) == EXIT_OK

        second_store = tmp_path / "hub2.db"
        assert run(["init", str(second_store)]) == EXIT_OK
        assert run(["ingest", "--store", str(second_store), "--format",
                    "ocel2", "--input", str(first)]) == EXIT_OK
        second = tmp_path / "log2.sqlite"
        assert run(["export", "--store", str(second_store), "--format",
                    "ocel2", "--out", str(second)]) == EXIT_OK

        def dump(path):
            conn = sqlite3.connect(path)
            tables = sorted(
                row[0] for row in
                conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
            )
            data = {
                t: sorted(map(tuple, conn.execute(f'SELECT * FROM "{t}"')))
                for t in tables
            }
            conn.close()
            return data

        assert dump(first) == dump(second)
