import sqlite3
from pathlib import Path

import pytest

from ochub.quality import (
    check_graph_edge_endpoints,
    check_graph_node_uniqueness,
    run_checkpoint,
)
from ochub.schema import Batch, TABLES
from ochub.store import UNKNOWN_OBJECT_TYPE_ID, StoreError
from conftest import clean_fixture_batch


class TestRunCheckpoint:
    def test_clean_store_passes(self, store):
        store.append_batch(clean_fixture_batch())
        report = run_checkpoint(store, "transform")
        assert report.passed
        assert report.violations == []
        assert all(report.check_status.values())

    def test_missing_object_reference_flagged(self, store):
        store.append_batch(clean_fixture_batch())
        bad = Batch()
        bad.add("event_to_object", id="e2o:bad", event_id="ev:1",
                object_id="obj:ghost", qualifier_id="q:handles",
                qualifier_value="handles")
        report = run_checkpoint(bad, "staging", store=store)
        hits = [v for v in report.violations
                if v.check == "referential_integrity"]
        assert len(hits) == 1
        assert hits[0].ref_id == "obj:ghost"
        assert hits[0].table == "event_to_object"

    def test_duplicate_event_id_in_one_batch(self, store):
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        b.add("events", id="e1", event_type_id="et:a",
              timestamp="2024-01-01T00:00:00.000Z")
        b.add("events", id="e1", event_type_id="et:a",
              timestamp="2024-01-02T00:00:00.000Z")
        report = run_checkpoint(b, "staging", store=store)
        hits = [v for v in report.violations if v.check == "unique_primary_keys"]
        assert len(hits) == 1
        assert hits[0].key == "e1"

    def test_summary_lists_twenty_violations(self, store):
        """The summary lists the first 20 violations, then how many more."""
        b = Batch()
        for i in range(23):
            b.add("events", id=f"e{i:02}", event_type_id=f"et:{i:02}",
                  timestamp="2024-01-01T00:00:00.000Z")
        report = run_checkpoint(b, "staging", store=store)
        lines = report.summary().splitlines()
        assert lines[0] == "checkpoint staging: FAILED"
        assert "  referential_integrity: 23 violation(s)" in lines
        assert lines[-21:] == [
            f"    [referential_integrity] events key=et:{i:02}: event_type_id "
            f"-> event_types.et:{i:02} does not resolve (1 row(s), e.g. e{i:02})"
            for i in range(20)
        ] + ["    ... 3 more"]

    def test_batch_reference_into_store_resolves(self, store):
        store.append_batch(clean_fixture_batch())
        late = Batch()
        late.add("event_to_object", id="e2o:late", event_id="ev:1",
                 object_id="obj:i2", qualifier_id="q:handles",
                 qualifier_value="handles")
        report = run_checkpoint(late, "staging", store=store)
        assert report.passed

    def test_null_foreign_key_flagged_once(self, store):
        b = Batch()
        b.add("events", id="e1", event_type_id=None,
              timestamp="2024-01-01T00:00:00.000Z")
        report = run_checkpoint(b, "staging", store=store)
        by_check = {}
        for v in report.violations:
            by_check.setdefault(v.check, []).append(v)
        assert len(by_check["foreign_keys_not_null"]) == 1
        assert "referential_integrity" not in by_check

    def test_bad_timestamp_flagged(self, store):
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        b.add("events", id="e1", event_type_id="et:a", timestamp="whenever")
        report = run_checkpoint(b, "staging", store=store)
        hits = [v for v in report.violations if v.check == "timestamp_validity"]
        assert len(hits) == 1

    def test_no_early_exit_reports_everything(self, store):
        b = Batch()
        b.add("events", id="e1", event_type_id=None, timestamp=None)
        b.add("events", id="e1", event_type_id=None, timestamp=None)
        report = run_checkpoint(b, "staging", store=store)
        kinds = {v.check for v in report.violations}
        assert kinds == {
            "unique_primary_keys",
            "foreign_keys_not_null",
            "timestamp_validity",
        }

    def test_transform_checkpoint_sees_store_wide_problems(self, store):
        # dangling rows can accumulate across batches; the transform
        # checkpoint is the enforcement point
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        b.add("events", id="e1", event_type_id="et:a",
              timestamp="2024-01-01T00:00:00.000Z")
        b.add("relation_qualifiers", id="q:r", description="r", datatype="string")
        b.add("event_to_object", id="r1", event_id="e1", object_id="obj:never",
              qualifier_id="q:r", qualifier_value="r")
        store.append_batch(b)
        report = run_checkpoint(store, "transform")
        assert not report.passed
        assert report.check_status["referential_integrity"] is False

    @pytest.mark.parametrize("late, passes", [
        ("INSERT INTO events (id, event_type_id, timestamp) VALUES "
         "('ev:late', 'et:missing', '2024-03-02T00:00:00.000Z')", True),
        ("INSERT INTO event_types (id, description) VALUES "
         "('et:missing', 'late')", False),
    ], ids=["dangling-event", "missing-type"])
    def test_audit_checks_the_rows_present_at_its_start(self, store, late,
                                                        passes):
        """Another connection commits a row between two statements of the
        full audit: an event of a missing type is neither counted nor
        flagged, and the missing type itself resolves no reference, so the
        report is the one of the store as the audit found it."""
        store.append_batch(clean_fixture_batch())
        if not passes:
            batch = Batch()
            batch.add("events", id="ev:early", event_type_id="et:missing",
                      timestamp="2024-03-02T00:00:00.000Z")
            store.append_batch(batch)
        counts = {table: store.row_count(table) for table in TABLES}
        committed = []

        def before_statement(sql):
            # after the row counts, before the checks that read the rows
            if "GROUP BY" in sql and not committed:
                other = sqlite3.connect(store.path)
                try:
                    other.execute(late)
                    other.commit()
                finally:
                    other.close()
                committed.append(sql)

        store.connection().set_trace_callback(before_statement)
        try:
            report = run_checkpoint(store, "transform")
        finally:
            store.connection().set_trace_callback(None)
        assert committed
        assert report.passed is passes, report.summary()
        assert report.scanned == counts
        assert run_checkpoint(store, "transform").passed is not passes

    @pytest.mark.parametrize("since_clean", [False, True],
                             ids=["audit", "since-clean"])
    def test_window_tops_come_from_one_state(self, store, since_clean):
        """Another connection commits a new type with an event of it while
        the check reads its window's tops: the tops come from one state of
        the store, so the event is not checked against a type top that
        leaves its type out, and the clean store passes."""
        store.append_batch(clean_fixture_batch())
        assert run_checkpoint(store, "transform", since_clean=True).passed
        counts = {table: store.row_count(table) for table in TABLES}
        committed = []

        def before_statement(sql):
            # the read of the events table's top, which comes after the
            # event_types top's when each is read by a statement of its own
            if ("MAX(rowid)" in sql and "FROM main.events)" in sql
                    and not committed):
                other = sqlite3.connect(store.path)
                try:
                    other.execute("INSERT INTO event_types (id, description) "
                                  "VALUES ('et:new', 'new')")
                    other.execute("INSERT INTO events (id, event_type_id, "
                                  "timestamp) VALUES ('ev:new', 'et:new', "
                                  "'2024-03-02T00:00:00.000Z')")
                    other.commit()
                finally:
                    other.close()
                committed.append(sql)

        store.connection().set_trace_callback(before_statement)
        try:
            report = run_checkpoint(store, "transform", since_clean=since_clean)
        finally:
            store.connection().set_trace_callback(None)
        assert committed
        assert report.passed, report.summary()
        if not since_clean:  # the new type and its event, both or neither
            grown = dict(counts, events=counts["events"] + 1,
                         event_types=counts["event_types"] + 1)
            assert report.scanned in (counts, grown)
        assert run_checkpoint(store, "transform").passed
        assert run_checkpoint(store, "transform", since_clean=True).passed

    def test_report_serialization(self, store, tmp_path):
        b = Batch()
        b.add("events", id="e1", event_type_id=None, timestamp=None)
        report = run_checkpoint(b, "staging", store=store)
        out = tmp_path / "report.json"
        report.write_json(out)
        import json
        data = json.loads(out.read_text())
        assert data["passed"] is False
        assert data["violations"]
        assert "FAILED" in report.summary()


    def test_failed_report_write_keeps_the_earlier_report(self, store,
                                                          tmp_path, monkeypatch):
        """A report write that fails partway leaves the report written
        before as it was, and no temporary file."""
        out = tmp_path / "report.json"
        run_checkpoint(store, "transform").write_json(out)
        before = out.read_bytes()
        write_text = Path.write_text

        def half_then_fail(path, text, **kwargs):
            write_text(path, text[:len(text) // 2], **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        b = Batch()
        b.add("events", id="e1", event_type_id=None, timestamp=None)
        with pytest.raises(OSError, match="disk full"):
            run_checkpoint(b, "staging", store=store).write_json(out)
        assert out.read_bytes() == before
        assert not (tmp_path / "report.json.tmp").exists()

class TestGraphChecks:
    def test_duplicate_node_ids(self):
        hits = check_graph_node_uniqueness(["a", "b", "a"])
        assert len(hits) == 1
        assert hits[0].key == "a"

    def test_dangling_edge_endpoint(self):
        hits = check_graph_edge_endpoints(["a", "b"], [("a", "b"), ("a", "c")])
        assert len(hits) == 1
        assert hits[0].key == "c"

    def test_checkpoint_over_csv_directory(self, tmp_path):
        (tmp_path / "nodes.csv").write_text(
            "id:ID,kind,:LABEL,timestamp,detail\nn1,event,Event,,\nn1,event,Event,,\n"
        )
        (tmp_path / "edges.csv").write_text(
            ":START_ID,:END_ID,:TYPE,object,qualifier,frequency\nn1,nx,DF,,,1\n"
        )
        report = run_checkpoint(tmp_path, "graph")
        assert not report.passed
        kinds = sorted(v.check for v in report.violations)
        assert kinds == ["graph_edge_endpoints", "graph_node_uniqueness"]

    def test_checkpoint_needs_both_files(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("id:ID,kind,:LABEL,timestamp,detail\n")
        for target, missing in ((tmp_path / "absent", "nodes.csv"),
                                (tmp_path, "edges.csv")):
            with pytest.raises(FileNotFoundError) as err:
                run_checkpoint(target, "graph")
            assert err.value.filename == str(target / missing)


def missing_objects_batch():
    """The clean fixture plus references to two objects that never arrive,
    the greater id first."""
    b = clean_fixture_batch()
    for n, object_id in enumerate(("obj:gone2", "obj:gone1")):
        b.add("event_to_object", id=f"e2o:m{n}", event_id="ev:1",
              object_id=object_id, qualifier_id="q:handles",
              qualifier_value="handles")
    return b


def staged_rows(store, table):
    return [tuple(row) for row in store.connection().execute(
        f"SELECT * FROM temp.staged_{table} ORDER BY rowid")]


class TestStagePlaceholderObjects:
    def missing_ids(self, store, staged):
        report = run_checkpoint(staged, "staging", store=store)
        assert {(v.check, v.ref_table) for v in report.violations} == {
            ("referential_integrity", "objects")}
        return [v.ref_id for v in report.violations]

    def test_recheck_passes(self, store):
        staged = store.stage(missing_objects_batch())
        missing = self.missing_ids(store, staged)
        assert missing == ["obj:gone2", "obj:gone1"]
        repaired = store.stage_placeholder_objects(missing)
        assert repaired.counts["objects"] == staged.counts["objects"] + 2
        assert repaired.counts["object_types"] == staged.counts["object_types"] + 1
        assert repaired.total_rows() == staged.total_rows() + 3
        assert run_checkpoint(repaired, "staging", store=store).passed

    def test_placeholders_clear_the_violations(self, store):
        staged = store.stage(missing_objects_batch())
        store.append_batch(
            store.stage_placeholder_objects(self.missing_ids(store, staged)))
        assert run_checkpoint(store, "transform").passed
        assert store.get_row("objects", "obj:gone1") == {
            "id": "obj:gone1", "object_type_id": UNKNOWN_OBJECT_TYPE_ID,
            "description": "obj:gone1"}

    def test_placeholder_rows_follow_the_batch_in_id_order(self, store):
        batch = missing_objects_batch()
        store.stage(batch)
        store.stage_placeholder_objects(["obj:gone2", "obj:gone1", "obj:gone2"])
        placeholders = [(object_id, UNKNOWN_OBJECT_TYPE_ID, object_id)
                        for object_id in ("obj:gone1", "obj:gone2")]
        assert staged_rows(store, "objects") == batch.rows["objects"] + placeholders
        assert staged_rows(store, "object_types") == \
            batch.rows["object_types"] + [(UNKNOWN_OBJECT_TYPE_ID, "unknown")]

    def test_no_ids_adds_nothing(self, store):
        staged = store.stage(missing_objects_batch())
        assert store.stage_placeholder_objects([]).counts == staged.counts
        assert (UNKNOWN_OBJECT_TYPE_ID, "unknown") \
            not in staged_rows(store, "object_types")

    @pytest.mark.parametrize("where", ["staged", "stored"])
    def test_type_row_skipped_when_present(self, store, where):
        batch = missing_objects_batch()
        if where == "stored":
            known = Batch()
            known.add("object_types", id=UNKNOWN_OBJECT_TYPE_ID,
                      description="known before")
            store.append_batch(known)
        else:
            batch.add("object_types", id=UNKNOWN_OBJECT_TYPE_ID,
                      description="known before")
        staged = store.stage(batch)
        repaired = store.stage_placeholder_objects(self.missing_ids(store, staged))
        assert repaired.counts["object_types"] == staged.counts["object_types"]
        assert run_checkpoint(repaired, "staging", store=store).passed
        store.append_batch(repaired)
        assert [row for row in store.table_rows("object_types")
                if row["id"] == UNKNOWN_OBJECT_TYPE_ID] == [
            {"id": UNKNOWN_OBJECT_TYPE_ID, "description": "known before"}]

    def test_old_handle_goes_stale(self, store):
        staged = store.stage(missing_objects_batch())
        store.stage_placeholder_objects(["obj:gone1"])
        for use in (store.append_batch,
                    lambda h: run_checkpoint(h, "staging", store=store)):
            with pytest.raises(StoreError, match="stale"):
                use(staged)
        assert store.dump() == {table: [] for table in TABLES}

    def test_nothing_staged_raises(self, store):
        with pytest.raises(StoreError, match="no staged batch"):
            store.stage_placeholder_objects(["obj:gone1"])


class TestZeroFalsePositives:
    def test_clean_fixture_has_no_violations_at_both_checkpoints(self, store):
        batch = clean_fixture_batch()
        assert run_checkpoint(batch, "staging", store=store).passed
        store.append_batch(batch)
        assert run_checkpoint(store, "transform").passed
