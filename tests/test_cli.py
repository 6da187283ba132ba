import csv
import sqlite3

import pytest

from ochub.cli import (
    EXIT_CONFLICT,
    EXIT_IO,
    EXIT_OK,
    EXIT_QUALITY,
    EXIT_USAGE,
    run,
)
from ochub.importers.hubcsv import export_hub_csv
from ochub.store import open_store
from conftest import clean_fixture_batch


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


def read_rows(path, reader=csv.reader):
    with path.open() as handle:
        return list(reader(handle))


def ingest(store_path, batch_dir, *extra):
    return run([
        "ingest", "--store", str(store_path), "--format", "hubcsv",
        "--input", str(batch_dir), *extra,
    ])


class TestBasics:
    def test_init_and_stats(self, store_path):
        assert run(["stats", "--store", str(store_path)]) == EXIT_OK
        assert run(["stats", "--store", str(store_path), "--json"]) == EXIT_OK

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

    def test_bad_usage(self, store_path):
        assert run(["ingest", "--store", str(store_path)]) == EXIT_USAGE
        assert run(["no-such-command"]) == EXIT_USAGE
        assert run([
            "ingest", "--store", str(store_path), "--format", "mapped",
            "--input", "x",
        ]) == EXIT_USAGE


class TestIngest:
    def test_clean_ingest_passes(self, store_path, batch_dir, capsys):
        assert ingest(store_path, batch_dir) == EXIT_OK
        assert "checkpoints passed" in capsys.readouterr().out

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

    def test_repair_missing_objects(self, store_path, batch_dir, capsys):
        path = batch_dir / "event_to_object.csv"
        rows = read_rows(path)
        rows.append(["e2o:9", "ev:1", "obj:ghost", "q:handles", "handles"])
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert ingest(store_path, batch_dir, "--repair-missing-objects") == EXIT_OK
        assert "repairing 1 missing object(s)" in capsys.readouterr().out
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

    def test_conflicting_reingest_exits_4(self, store_path, batch_dir, capsys):
        assert ingest(store_path, batch_dir) == EXIT_OK
        path = batch_dir / "events.csv"
        rows = read_rows(path)
        rows[1][2] = "2030-01-01T00:00:00.000Z"  # same id, new timestamp
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        capsys.readouterr()
        assert ingest(store_path, batch_dir) == EXIT_CONFLICT
        # the conflicting batch changed nothing
        store = open_store(store_path)
        clock = store.summary_stats().to_dict().get("batch_clock")
        store.close()

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

    def test_check_writes_json_report(self, store_path, batch_dir, tmp_path):
        report = tmp_path / "report.json"
        assert run([
            "check", "--store", str(store_path), "--checkpoint", "staging",
            "--input", str(batch_dir), "--report", str(report),
        ]) == EXIT_OK
        assert report.exists()

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
