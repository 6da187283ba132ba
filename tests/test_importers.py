import csv
import re
from pathlib import Path

import pytest
import yaml

from ochub.importers import (
    ImportError_, add_e2o, add_e2oav, add_event, add_event_value, add_o2o,
    add_object, add_object_value, add_qualifiers, add_type, import_hub_csv,
    import_ocel2, object_value_id,
)
from ochub.exporters import export_hub_csv
from ochub.importers.mapped import MappingConfig, MappingError, import_mapped_csv
from ochub.schema import TABLES, Batch
from ochub.store import open_store
from ochub.util import EPOCH_TS
from conftest import build_ocel2_sqlite, clean_fixture_batch, rows_of


def simple_ocel_log():
    return {
        "event_types": {
            "ship": {
                "attrs": {"carrier": "TEXT"},
                "events": [
                    ("e1", "2024-01-01 10:00:00", {"carrier": "dhl"}),
                    ("e2", "2024-01-02 10:00:00", {"carrier": None}),
                ],
            },
        },
        "object_types": {
            "parcel": {
                "attrs": {"weight": "REAL"},
                "rows": [
                    ("p1", "2024-01-01 09:00:00", None, {"weight": 1.5}),
                ],
            },
        },
        "event_object": [("e1", "p1", "ships"), ("e2", "p1", "ships")],
        "object_object": [],
    }


class TestImportOcel2:
    def test_basic_counts(self, tmp_path):
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, simple_ocel_log())
        batch = import_ocel2(path).batch
        assert len(batch.rows["event_types"]) == 1
        assert len(batch.rows["events"]) == 2
        assert len(batch.rows["objects"]) == 1
        assert len(batch.rows["event_to_object"]) == 2

    def test_namespaced_deterministic_ids(self, tmp_path):
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, simple_ocel_log())
        batch = import_ocel2(path).batch
        assert rows_of(batch, "event_types")[0]["id"] == "et:ship"
        assert {r["id"] for r in rows_of(batch, "events")} == {"ev:e1", "ev:e2"}
        again = import_ocel2(path).batch
        assert again.rows == batch.rows

    def test_changed_field_rows_yield_single_value(self, tmp_path):
        log = simple_ocel_log()
        log["object_types"]["parcel"]["attrs"]["status"] = "TEXT"
        log["object_types"]["parcel"]["rows"].append(
            ("p1", "2024-01-03 10:00:00", "status", {"status": "lost", "weight": 9.9})
        )
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, log)
        batch = import_ocel2(path).batch
        values = rows_of(batch, "object_attribute_values")
        # initial row -> weight only (status was NULL); change row -> status only
        assert len(values) == 2
        changed = [v for v in values if v["object_attribute_id"] == "oa:parcel.status"]
        assert len(changed) == 1
        assert changed[0]["attribute_value"] == "lost"
        assert changed[0]["timestamp"] == "2024-01-03T10:00:00.000Z"

    def test_text_null_literal_treated_as_absent(self, tmp_path):
        log = simple_ocel_log()
        log["event_types"]["ship"]["events"].append(
            ("e3", "2024-01-03 10:00:00", {"carrier": "null"})
        )
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, log)
        batch = import_ocel2(path).batch
        assert not any(
            r["event_id"] == "ev:e3" for r in rows_of(batch, "event_attribute_values")
        )

    def test_o2o_gets_epoch_sentinel_and_qualifier_string(self, tmp_path):
        log = simple_ocel_log()
        log["object_types"]["parcel"]["rows"].append(
            ("p2", "2024-01-01 09:00:00", None, {"weight": None})
        )
        log["object_object"] = [("p1", "p2", "follows")]
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, log)
        batch = import_ocel2(path).batch
        row = rows_of(batch, "object_to_object")[0]
        assert row["timestamp"] == EPOCH_TS
        assert row["qualifier_value"] == "follows"
        assert row["qualifier_id"] == "q:follows"

    def test_no_e2oav_rows_emitted(self, tmp_path):
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, simple_ocel_log())
        batch = import_ocel2(path).batch
        assert batch.rows["event_to_object_attribute_value"] == []

    def test_conservation_counts(self, tmp_path):
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, simple_ocel_log())
        batch = import_ocel2(path).batch
        import sqlite3
        conn = sqlite3.connect(path)
        assert len(batch.rows["events"]) == \
            conn.execute("SELECT COUNT(*) FROM event").fetchone()[0]
        assert len(batch.rows["objects"]) == \
            conn.execute("SELECT COUNT(*) FROM object").fetchone()[0]
        assert len(batch.rows["event_to_object"]) == \
            conn.execute("SELECT COUNT(*) FROM event_object").fetchone()[0]
        conn.close()

    def test_missing_tables_error(self, tmp_path):
        import sqlite3
        path = tmp_path / "bad.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE event (ocel_id TEXT, ocel_type TEXT)")
        conn.commit()
        conn.close()
        with pytest.raises(ImportError_, match="missing OCEL 2.0 tables"):
            import_ocel2(path)

    @pytest.mark.parametrize("name", ["log#1.sqlite", "log?x.sqlite",
                                      "log%41.sqlite"])
    def test_path_with_uri_characters(self, tmp_path, name):
        """A name holding '#', '?' or '%' opens that file, not a file named
        by the part before it: the same batch as a plain name, and no
        stray file left beside it."""
        plain, odd = tmp_path / "plain" / "log.sqlite", tmp_path / "odd" / name
        for path in (plain, odd):
            path.parent.mkdir()
            build_ocel2_sqlite(path, simple_ocel_log())
        assert import_ocel2(odd).batch.rows == import_ocel2(plain).batch.rows
        assert sorted(p.name for p in odd.parent.iterdir()) == [name]

    @pytest.mark.parametrize("kind", ["text", "directory"])
    def test_not_a_log_names_the_path(self, tmp_path, kind):
        path = tmp_path / "log.sqlite"
        if kind == "text":
            path.write_text("no SQLite here\n")
        else:
            path.mkdir()
        with pytest.raises(ImportError_, match=re.escape(str(path))):
            import_ocel2(path)

    def test_bad_timestamp_errors(self, tmp_path):
        log = simple_ocel_log()
        log["event_types"]["ship"]["events"][0] = ("e1", "not a time", {})
        path = tmp_path / "bad.sqlite"
        build_ocel2_sqlite(path, log)
        with pytest.raises(ImportError_, match="ocel_time"):
            import_ocel2(path)

    @pytest.mark.parametrize("table, dropped, named", [
        ("event_ship", ["ocel_time"], "ocel_time"),
        ("event_ship", ["ocel_id"], "ocel_id"),
        ("event_ship", ["ocel_id", "ocel_time"], "ocel_id"),
        ("object_parcel", ["ocel_time"], "ocel_time"),
    ])
    def test_per_type_table_needs_id_and_time(self, tmp_path, table, dropped,
                                              named):
        """A per-type table lacking ``ocel_id`` or ``ocel_time`` is an import
        error naming the table and the column; it used to end in an
        IndexError."""
        import sqlite3
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, simple_ocel_log())
        conn = sqlite3.connect(path)
        with conn:
            for column in dropped:
                conn.execute(f"ALTER TABLE {table} DROP COLUMN {column}")
        conn.close()
        with pytest.raises(ImportError_) as err:
            import_ocel2(path)
        assert str(err.value) == f"{table}: no {named} column"

    def test_changed_field_must_be_a_column(self, tmp_path):
        log = simple_ocel_log()
        log["object_types"]["parcel"]["rows"].append(
            ("p1", "2024-01-03 10:00:00", "colour", {"weight": 2.0})
        )
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, log)
        with pytest.raises(ImportError_) as err:
            import_ocel2(path)
        assert str(err.value) == \
            "object_parcel: changed field 'colour' is not a column"

    def test_repeated_master_id_gives_one_row_of_its_last_type(self, tmp_path):
        """An id listed twice in a master table is one event or object, of
        the type its last master row names."""
        log = simple_ocel_log()
        log["event_types"]["pack"] = {
            "attrs": {}, "events": [("e1", "2024-01-05 10:00:00", {})],
        }
        log["object_types"]["box"] = {
            "attrs": {}, "rows": [("p1", "2024-01-05 10:00:00", None, {})],
        }
        path = tmp_path / "log.sqlite"
        build_ocel2_sqlite(path, log)
        batch = import_ocel2(path).batch
        assert [(r["id"], r["event_type_id"]) for r in rows_of(batch, "events")] == \
            [("ev:e1", "et:pack"), ("ev:e2", "et:ship")]
        assert [(r["id"], r["object_type_id"]) for r in rows_of(batch, "objects")] == \
            [("obj:p1", "ot:box")]
        assert [r["id"] for r in rows_of(batch, "event_types")] == ["et:pack", "et:ship"]


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class TestImportHubCsv:
    def test_events_only_directory(self, tmp_path):
        write_csv(
            tmp_path / "events.csv",
            ["id", "event_type_id", "timestamp", "description"],
            [
                ["e1", "et:a", "2024-01-01T10:00:00.000Z", ""],
                ["e2", "et:a", "2024-01-01T11:00:00.000Z", "second"],
            ],
        )
        result = import_hub_csv(tmp_path)
        assert result.batch.counts() == {"events": 2}

    def test_empty_o2o_qualifier_value_is_null(self, tmp_path):
        write_csv(
            tmp_path / "object_to_object.csv",
            ["id", "source_object_id", "target_object_id", "timestamp",
             "qualifier_id", "qualifier_value"],
            [["r1", "a", "b", "2024-01-01T00:00:00.000Z", "q:x", ""]],
        )
        batch = import_hub_csv(tmp_path).batch
        assert rows_of(batch, "object_to_object")[0]["qualifier_value"] is None

    def test_unknown_file_name_errors(self, tmp_path):
        write_csv(tmp_path / "mystery.csv", ["id"], [["1"]])
        with pytest.raises(ImportError_, match="unknown file name"):
            import_hub_csv(tmp_path)

    def test_header_mismatch_names_file_and_column(self, tmp_path):
        write_csv(
            tmp_path / "events.csv",
            ["id", "timestamp", "description"],  # event_type_id missing
            [["e1", "2024-01-01T00:00:00.000Z", ""]],
        )
        with pytest.raises(ImportError_) as err:
            import_hub_csv(tmp_path)
        assert "events.csv" in str(err.value)
        assert "event_type_id" in str(err.value)

    def test_malformed_timestamp_errors_with_line(self, tmp_path):
        write_csv(
            tmp_path / "events.csv",
            ["id", "event_type_id", "timestamp", "description"],
            [["e1", "et:a", "soon", ""]],
        )
        with pytest.raises(ImportError_, match="line 2"):
            import_hub_csv(tmp_path)


def shop_sources(tmp_path):
    write_csv(
        tmp_path / "orders.csv",
        ["id", "customer_id", "store_id", "ordered_at", "subtotal"],
        [
            ["o1", "c1", "s1", "2024-02-01T10:00:00Z", "12.5"],
            ["o2", "c1", "s1", "2024-02-02T10:00:00Z", "7.0"],
        ],
    )
    write_csv(
        tmp_path / "stores.csv",
        ["id", "name", "opened_at", "tax_rate"],
        [["s1", "Main St", "2024-01-01T08:00:00Z", "0.06"]],
    )
    write_csv(
        tmp_path / "customers.csv",
        ["id", "name"],
        [["c1", "Ada"]],
    )
    write_csv(
        tmp_path / "store_counts.csv",
        ["store_id", "counted_at", "customer_count", "order_id"],
        [["s1", "2024-02-01T10:00:00Z", "1", "o1"]],
    )


def shop_mapping():
    return {
        "event_types": {
            "place_order": {
                "source": "orders.csv",
                "id_column": "id",
                "timestamp_column": "ordered_at",
            },
            "open_store": {
                "source": "stores.csv",
                "id_column": "id",
                "timestamp_column": "opened_at",
            },
        },
        "object_types": {
            "order": {
                "source": "orders.csv",
                "id_column": "id",
                "attribute_timestamp_column": "ordered_at",
                "attributes": {
                    "subtotal": {"column": "subtotal", "datatype": "float"},
                },
            },
            "store": {
                "source": "stores.csv",
                "id_column": "id",
                "description_column": "name",
                "attributes": {"tax_rate": "tax_rate"},
                "updates": [
                    {
                        "source": "store_counts.csv",
                        "id_column": "store_id",
                        "timestamp_column": "counted_at",
                        "attribute": "customer_count",
                        "value_column": "customer_count",
                    },
                ],
            },
            "customer": {
                "source": "customers.csv",
                "id_column": "id",
                "description_column": "name",
            },
        },
        "relations": {
            "event_to_object": [
                {
                    "source": "orders.csv", "event_type": "place_order",
                    "object_type": "order", "from_column": "id",
                    "to_column": "id", "qualifier": "new_order",
                },
                {
                    "source": "orders.csv", "event_type": "place_order",
                    "object_type": "store", "from_column": "id",
                    "to_column": "store_id", "qualifier": "order_placed_in",
                },
            ],
            "object_to_object": [
                {
                    "source": "orders.csv", "from_object_type": "order",
                    "to_object_type": "store", "from_column": "id",
                    "to_column": "store_id",
                    "qualifier": "order_placed_in_store",
                    "timestamp_column": "ordered_at",
                },
            ],
            "event_to_object_attribute_value": [
                {
                    "source": "store_counts.csv", "event_type": "place_order",
                    "object_type": "store", "attribute": "customer_count",
                    "from_column": "order_id", "to_column": "store_id",
                    "timestamp_column": "counted_at",
                    "qualifier": "first_store_visit",
                },
            ],
        },
    }


def shop_config():
    return MappingConfig.from_dict(shop_mapping())


def contract_sources(tmp_path):
    """Source files with a line for every skip reason of the mapped
    importer; ``contract_mapping`` maps them. A skipped line's timestamp
    cells are empty: they are not parsed."""
    write_csv(
        tmp_path / "orders.csv",
        ["id", "at", "colour", "store_id", "linked_at", "stray"],
        [
            ["o1", "2024-02-01T10:00:00Z", "red", "s1",
             "2024-02-01T10:05:00Z", "not a time"],
            ["", "", "blue", "s1", "", ""],
            ["o2", "2024-02-03T10:00:00Z", "", "", "", ""],
            [" ", "2024-02-04T10:00:00Z", "", "s2", "", ""],
        ],
    )
    write_csv(
        tmp_path / "stores.csv",
        ["id", "name", "since", "tax"],
        [
            ["s1", "Main St", "2024-01-01T08:00:00Z", "0.06"],
            ["", "Ghost", "", "0.1"],
            ["s2", "", "2024-01-02T08:00:00Z", ""],
        ],
    )
    write_csv(
        tmp_path / "counts.csv",
        ["store_id", "at", "count", "order_id", "visit_at"],
        [
            ["s1", "2024-02-01T10:00:00Z", "5", "o1", "2024-02-01T10:00:00Z"],
            ["", "2024-02-01T11:00:00Z", "6", "o2", "2024-02-01T11:00:00Z"],
            ["s2", "", "", "", "2024-02-01T12:00:00Z"],
            ["s2", "2024-02-01T13:00:00Z", " ", "o2", "2024-02-01T13:00:00Z"],
        ],
    )


def contract_mapping():
    return {
        "event_types": {"place_order": {
            "source": "orders.csv", "id_column": "id",
            "timestamp_column": "at", "attributes": {"colour": "colour"},
        }},
        "object_types": {"store": {
            "source": "stores.csv", "id_column": "id",
            "description_column": "name",
            "attribute_timestamp_column": "since",
            "attributes": {"tax_rate": "tax"},
            "updates": [{
                "source": "counts.csv", "id_column": "store_id",
                "timestamp_column": "at", "attribute": "visitors",
                "value_column": "count",
            }],
        }},
        "relations": {
            # the stray timestamp_column of an event_to_object spec is
            # ignored: its cell on orders.csv line 2 does not parse
            "event_to_object": [{
                "source": "orders.csv", "event_type": "place_order",
                "object_type": "store", "from_column": "id",
                "to_column": "store_id", "qualifier": "placed_in",
                "timestamp_column": "stray",
            }],
            "object_to_object": [{
                "source": "orders.csv", "from_object_type": "order",
                "to_object_type": "store", "from_column": "id",
                "to_column": "store_id", "qualifier": "located",
                "timestamp_column": "linked_at",
            }],
            "event_to_object_attribute_value": [{
                "source": "counts.csv", "event_type": "place_order",
                "object_type": "store", "attribute": "visitors",
                "from_column": "order_id", "to_column": "store_id",
                "timestamp_column": "visit_at", "qualifier": "first_visit",
            }],
        },
    }


TICK = """\
event_types:
  tick:
    source: ticks.csv
    id_column: id
    timestamp_column: at
"""

# mapping configs of a malformed shape, and the MappingError each gives
MALFORMED_CONFIGS = [
    pytest.param("event_types:\n  tick:\n",
                 "event type tick: spec None is not a mapping", id="no_spec"),
    pytest.param(TICK.replace("ticks.csv", "5"),
                 "event type tick: source 5 is not a string", id="source"),
    pytest.param(TICK + "    attributes: [a, b]\n",
                 "event type tick: attributes ['a', 'b'] is not a mapping",
                 id="attributes"),
    pytest.param("object_types:\n  thing:\n    source: ticks.csv\n"
                 "    id_column: id\n    updates: {a: b}\n",
                 "object type thing: updates {'a': 'b'} is not a list",
                 id="updates"),
    pytest.param("relations:\n  event_to_object: {source: ticks.csv}\n",
                 "relations: event_to_object {'source': 'ticks.csv'} "
                 "is not a list", id="relation_kind"),
    pytest.param("event_types: [1, 2]\n",
                 "event_types [1, 2] is not a mapping", id="event_types"),
    pytest.param("relations: [1]\n", "relations [1] is not a mapping",
                 id="relations"),
    pytest.param(TICK.replace("id_column: id", "id_column: [id]"),
                 "event type tick: id_column ['id'] is not a string",
                 id="id_column"),
    pytest.param(TICK + "    attributes:\n      a: {column: id, datatype: [x]}\n",
                 "attribute a: unknown datatype ['x']", id="datatype"),
]


class TestImportMappedCsv:
    def test_event_types_from_config(self, tmp_path):
        shop_sources(tmp_path)
        batch = import_mapped_csv(shop_config(), tmp_path).batch
        assert {r["id"] for r in rows_of(batch, "event_types")} == \
            {"et:place_order", "et:open_store"}
        assert len(batch.rows["events"]) == 3

    def test_one_o2o_row_per_source_row(self, tmp_path):
        shop_sources(tmp_path)
        batch = import_mapped_csv(shop_config(), tmp_path).batch
        o2o = rows_of(batch, "object_to_object")
        assert len(o2o) == 2  # one per order row
        assert all(r["qualifier_id"] == "q:order_placed_in_store" for r in o2o)

    def test_updates_and_e2oav_link_resolves(self, tmp_path, store):
        shop_sources(tmp_path)
        batch = import_mapped_csv(shop_config(), tmp_path).batch
        links = rows_of(batch, "event_to_object_attribute_value")
        assert len(links) == 1
        oav_ids = {r["id"] for r in rows_of(batch, "object_attribute_values")}
        assert links[0]["object_attribute_value_id"] in oav_ids
        # the full batch passes the staging checkpoint
        from ochub.quality import run_checkpoint
        assert run_checkpoint(batch, "staging", store=store).passed

    def test_deterministic_and_idempotent(self, tmp_path, store):
        shop_sources(tmp_path)
        first = import_mapped_csv(shop_config(), tmp_path).batch
        second = import_mapped_csv(shop_config(), tmp_path).batch
        assert first.rows == second.rows
        store.append_batch(first)
        assert sum(store.append_batch(second).values()) == 0

    @pytest.mark.parametrize("sources, mapping, keys", [
        (shop_sources, shop_mapping,
         {"orders.csv": "id", "stores.csv": "id", "customers.csv": "id",
          "store_counts.csv": "store_id"}),
        (contract_sources, contract_mapping,
         {"orders.csv": "id", "stores.csv": "id", "counts.csv": "store_id"}),
    ], ids=["shop", "contract"])
    def test_every_line_emits_or_is_skipped(self, tmp_path, sources, mapping,
                                            keys):
        """Totality: each line of each mapped source either yields a hub row
        whose id names the line's key, or is listed in ``skipped``."""
        sources(tmp_path)
        result = import_mapped_csv(MappingConfig.from_dict(mapping()), tmp_path)
        skipped = {(file, line) for file, line, _ in result.skipped}
        named = {part for table in TABLES for row in rows_of(result.batch, table)
                 for part in row["id"].split(":")}
        for file, key in keys.items():
            with open(tmp_path / file, newline="", encoding="utf-8") as handle:
                for line_no, row in enumerate(csv.DictReader(handle), start=2):
                    assert (file, line_no) in skipped or row[key] in named, \
                        (file, line_no)

    def test_empty_source_contributes_definitions_only(self, tmp_path):
        shop_sources(tmp_path)
        write_csv(tmp_path / "orders.csv",
                  ["id", "customer_id", "store_id", "ordered_at", "subtotal"], [])
        batch = import_mapped_csv(shop_config(), tmp_path).batch
        assert {r["id"] for r in rows_of(batch, "event_types")} == \
            {"et:place_order", "et:open_store"}
        assert all(r["event_type_id"] == "et:open_store"
                   for r in rows_of(batch, "events"))

    def test_missing_column_errors(self, tmp_path):
        shop_sources(tmp_path)
        write_csv(tmp_path / "stores.csv", ["id", "name"], [["s1", "x"]])
        with pytest.raises(MappingError, match="opened_at"):
            import_mapped_csv(shop_config(), tmp_path)

    @pytest.mark.parametrize("path, value, message", [
        (("object_types", "order", "attributes", "subtotal"), {"column": None},
         "orders.csv: missing source column None"),
        (("event_types", "place_order", "id_column"), None,
         "orders.csv: missing source column None"),
        (("event_types", "open_store", "timestamp_column"), None,
         "stores.csv: missing source column None"),
        (("object_types", "store", "updates", 0, "value_column"), None,
         "store_counts.csv: missing source column None"),
        (("relations", "event_to_object", 0, "from_column"), None,
         "orders.csv: missing source column None"),
        (("relations", "object_to_object", 0, "to_column"), None,
         "orders.csv: missing source column None"),
        (("object_types", "customer", "id_column"), "absent",
         "customers.csv: missing source column 'absent'"),
    ], ids=["null_attribute_column", "null_event_id", "null_timestamp",
            "null_update_value", "null_e2o_from", "null_o2o_to", "absent"])
    def test_unset_or_absent_column_errors(self, tmp_path, path, value,
                                           message):
        """A required column set to null, or absent from its source CSV,
        stops the import instead of skipping every row."""
        shop_sources(tmp_path)
        mapping = shop_mapping()
        *keys, last = path
        spec = mapping
        for key in keys:
            spec = spec[key]
        spec[last] = value
        with pytest.raises(MappingError, match=re.escape(message)):
            import_mapped_csv(MappingConfig.from_dict(mapping), tmp_path)

    def test_duplicate_source_ids_error(self, tmp_path):
        shop_sources(tmp_path)
        write_csv(
            tmp_path / "customers.csv", ["id", "name"],
            [["c1", "Ada"], ["c1", "Ada again"]],
        )
        with pytest.raises(MappingError, match="duplicate object id"):
            import_mapped_csv(shop_config(), tmp_path)

    def test_timestamp_failure_reports_file_and_row(self, tmp_path):
        shop_sources(tmp_path)
        write_csv(
            tmp_path / "stores.csv",
            ["id", "name", "opened_at", "tax_rate"],
            [["s1", "Main St", "opening day", "0.06"]],
        )
        with pytest.raises(MappingError, match=r"stores\.csv line 2"):
            import_mapped_csv(shop_config(), tmp_path)

    def test_config_from_yaml_file(self, tmp_path):
        shop_sources(tmp_path)
        config_path = tmp_path / "mapping.yml"
        config_path.write_text(yaml.safe_dump({
            "event_types": {
                "open_store": {
                    "source": "stores.csv",
                    "id_column": "id",
                    "timestamp_column": "opened_at",
                },
            },
        }))
        batch = import_mapped_csv(MappingConfig.from_file(config_path), tmp_path).batch
        assert len(batch.rows["events"]) == 1

    def test_event_attributes_skipped_lines_and_untimed_o2o(self, tmp_path):
        """Event attributes and descriptions, an empty event id, empty
        relation endpoints, and an object-to-object spec with no timestamp
        column whose empty value cell gives a NULL qualifier value."""
        write_csv(
            tmp_path / "orders.csv",
            ["id", "at", "note", "colour", "store_id", "kind"],
            [
                ["o1", "2024-02-01T10:00:00Z", "first", "red", "s1", "main"],
                ["", "2024-02-02T10:00:00Z", "", "blue", "s1", "main"],
                ["o2", "2024-02-03T10:00:00Z", "second", "", "", ""],
                ["o3", "2024-02-04T10:00:00Z", "third", "", "s2", ""],
            ],
        )
        config = MappingConfig.from_dict({
            "event_types": {"place_order": {
                "source": "orders.csv", "id_column": "id",
                "timestamp_column": "at", "description_column": "note",
                "attributes": {"colour": "colour"},
            }},
            "relations": {
                "event_to_object": [{
                    "source": "orders.csv", "event_type": "place_order",
                    "object_type": "store", "from_column": "id",
                    "to_column": "store_id", "qualifier": "placed_in",
                }],
                "object_to_object": [{
                    "source": "orders.csv", "from_object_type": "order",
                    "to_object_type": "store", "from_column": "id",
                    "to_column": "store_id", "qualifier": "located",
                    "value_column": "kind",
                }],
            },
        })
        result = import_mapped_csv(config, tmp_path)
        rows = {table: rows_of(result.batch, table) for table in TABLES}
        assert rows["event_attributes"] == [{
            "id": "ea:place_order.colour", "event_type_id": "et:place_order",
            "description": "colour", "datatype": "string",
        }]
        assert [(r["id"], r["description"]) for r in rows["events"]] == [
            ("ev:place_order:o1", "first"), ("ev:place_order:o2", "second"),
            ("ev:place_order:o3", "third"),
        ]
        assert rows["event_attribute_values"] == [{
            "id": "eav:place_order:o1:colour", "event_id": "ev:place_order:o1",
            "event_attribute_id": "ea:place_order.colour",
            "attribute_value": "red",
        }]
        assert [r["object_id"] for r in rows["event_to_object"]] == \
            ["obj:store:s1", "obj:store:s2"]
        assert [(r["target_object_id"], r["timestamp"], r["qualifier_value"])
                for r in rows["object_to_object"]] == [
            ("obj:store:s1", EPOCH_TS, "main"), ("obj:store:s2", EPOCH_TS, None),
        ]
        assert result.skipped == [
            ("orders.csv", 3, "empty endpoint for located"),
            ("orders.csv", 3, "empty endpoint for placed_in"),
            ("orders.csv", 3, "empty event id"),
            ("orders.csv", 4, "empty endpoint for located"),
            ("orders.csv", 4, "empty endpoint for placed_in"),
        ]

        write_csv(
            tmp_path / "orders.csv",
            ["id", "at", "note", "colour", "store_id", "kind"],
            [["o1", "2024-02-01T10:00:00Z", "", "", "s1", ""]] * 2,
        )
        with pytest.raises(MappingError,
                           match=r"orders\.csv line 3: duplicate event id 'o1'"):
            import_mapped_csv(config, tmp_path)

    def test_empty_qualifier_rejected(self):
        with pytest.raises(MappingError, match="empty qualifier"):
            MappingConfig.from_dict({
                "event_types": {}, "object_types": {},
                "relations": {"event_to_object": [{
                    "source": "x.csv", "event_type": "a", "object_type": "b",
                    "from_column": "f", "to_column": "t", "qualifier": " ",
                }]},
            })


class TestMappedImportContract:
    """What import_mapped_csv emits, skips and rejects, line by line."""

    def test_rows_and_skipped_lines(self, tmp_path):
        contract_sources(tmp_path)
        result = import_mapped_csv(
            MappingConfig.from_dict(contract_mapping()), tmp_path
        )
        ids = {table: [row["id"] for row in rows_of(result.batch, table)]
               for table, rows in result.batch.rows.items() if rows}
        assert ids == {
            "event_types": ["et:place_order"],
            "event_attributes": ["ea:place_order.colour"],
            "events": ["ev:place_order:o1", "ev:place_order:o2"],
            "event_attribute_values": ["eav:place_order:o1:colour"],
            "object_types": ["ot:store"],
            "object_attributes": ["oa:store.tax_rate", "oa:store.visitors"],
            "objects": ["obj:store:s1", "obj:store:s2"],
            "object_attribute_values": [
                "oav:store:s1:tax_rate:2024-01-01T08:00:00.000Z",
                "oav:store:s1:visitors:2024-02-01T10:00:00.000Z",
                "oav:store:s2:visitors:2024-02-01T13:00:00.000Z",
            ],
            "relation_qualifiers": ["q:first_visit", "q:located", "q:placed_in"],
            "event_to_object": [
                "e2o:place_order:o1:store:s1:placed_in",
            ],
            "object_to_object": [
                "o2o:order:o1:store:s1:located:2024-02-01T10:05:00.000Z",
            ],
            "event_to_object_attribute_value": [
                "e2oav:place_order:o1:"
                "oav:store:s1:visitors:2024-02-01T10:00:00.000Z:first_visit",
                "e2oav:place_order:o2:"
                "oav:store:s2:visitors:2024-02-01T13:00:00.000Z:first_visit",
            ],
        }
        values = {row["id"]: (row["object_id"], row["object_attribute_id"],
                              row["timestamp"], row["attribute_value"])
                  for row in rows_of(result.batch, "object_attribute_values")}
        assert values["oav:store:s2:visitors:2024-02-01T13:00:00.000Z"] == (
            "obj:store:s2", "oa:store.visitors", "2024-02-01T13:00:00.000Z",
            " ",
        )
        assert values["oav:store:s1:tax_rate:2024-01-01T08:00:00.000Z"] == (
            "obj:store:s1", "oa:store.tax_rate", "2024-01-01T08:00:00.000Z",
            "0.06",
        )
        assert result.skipped == [
            ("counts.csv", 3, "empty endpoint for first_visit"),
            ("counts.csv", 3, "empty object id"),
            ("counts.csv", 4, "empty endpoint for first_visit"),
            ("counts.csv", 4, "empty visitors value"),
            ("orders.csv", 3, "empty endpoint for located"),
            ("orders.csv", 3, "empty endpoint for placed_in"),
            ("orders.csv", 3, "empty event id"),
            ("orders.csv", 4, "empty endpoint for located"),
            ("orders.csv", 4, "empty endpoint for placed_in"),
            ("orders.csv", 5, "empty endpoint for located"),
            ("orders.csv", 5, "empty endpoint for placed_in"),
            ("orders.csv", 5, "empty event id"),
            ("stores.csv", 3, "empty object id"),
        ]

    @pytest.mark.parametrize("file, line, column, value, message", [
        ("orders.csv", 3, "id", "o1",
         "orders.csv line 3: duplicate event id 'o1'"),
        ("stores.csv", 4, "id", "s1",
         "stores.csv line 4: duplicate object id 's1'"),
        ("orders.csv", 4, "at", "soon",
         "orders.csv line 4: unparseable timestamp: 'soon'"),
        ("stores.csv", 2, "since", "",
         "stores.csv line 2: empty timestamp"),
        ("counts.csv", 5, "at", "2024-13-01",
         "counts.csv line 5: unparseable timestamp: '2024-13-01'"),
        ("orders.csv", 2, "linked_at", "later",
         "orders.csv line 2: unparseable timestamp: 'later'"),
        ("counts.csv", 2, "visit_at", "",
         "counts.csv line 2: empty timestamp"),
    ], ids=["duplicate_event", "duplicate_object", "event_timestamp",
            "object_attribute_timestamp", "update_timestamp", "o2o_timestamp",
            "e2oav_timestamp"])
    def test_fail_fast_errors(self, tmp_path, file, line, column, value,
                              message):
        contract_sources(tmp_path)
        path = tmp_path / file
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        rows[line - 1][rows[0].index(column)] = value
        write_csv(path, rows[0], rows[1:])
        with pytest.raises(MappingError) as err:
            import_mapped_csv(
                MappingConfig.from_dict(contract_mapping()), tmp_path
            )
        assert str(err.value) == message

    @pytest.mark.parametrize("path, message", [
        (("event_types", "place_order", "description_column"),
         "orders.csv: missing source column 'nmae'"),
        (("object_types", "store", "description_column"),
         "stores.csv: missing source column 'nmae'"),
        (("relations", "object_to_object", 0, "value_column"),
         "orders.csv: missing source column 'nmae'"),
    ], ids=["event_description", "object_description", "o2o_value"])
    def test_misspelt_optional_column_errors(self, tmp_path, path, message):
        """A misspelt description or relation value column stops the import
        instead of storing NULL (a NULL qualifier value would read as a
        terminated relation)."""
        contract_sources(tmp_path)
        mapping = contract_mapping()
        *keys, last = path
        spec = mapping
        for key in keys:
            spec = spec[key]
        spec[last] = "nmae"
        with pytest.raises(MappingError) as err:
            import_mapped_csv(MappingConfig.from_dict(mapping), tmp_path)
        assert str(err.value) == message

    @pytest.mark.parametrize("path, value, message", [
        (("object_types",), 1,
         "object type 1 is not a string"),
        (("event_types",), True,
         "event type True is not a string"),
        (("event_types", "place_order", "attributes"), 7,
         "event type place_order: attribute 7 is not a string"),
        (("object_types", "store", "attributes"), None,
         "object type store: attribute None is not a string"),
        (("object_types", "store", "updates", 0, "attribute"), 2,
         "object type store update: attribute 2 is not a string"),
        (("relations", "object_to_object", 0, "qualifier"), 5,
         "object_to_object relation: qualifier 5 is not a string"),
        (("relations", "event_to_object_attribute_value", 0, "object_type"),
         3, "event_to_object_attribute_value relation: object_type 3 "
            "is not a string"),
    ], ids=["object_type", "event_type", "event_attribute",
            "object_attribute", "update_attribute", "qualifier",
            "relation_type"])
    def test_non_string_names_rejected(self, path, value, message):
        """Type, attribute and qualifier names are text: YAML ``5:`` or
        ``qualifier: 5`` is a mapping error, not a sort that fails beside
        string names. A key names a new entry holding a copy of the first
        one; a value is replaced."""
        mapping = contract_mapping()
        *keys, last = path
        spec = mapping
        for key in keys:
            spec = spec[key]
        if isinstance(spec[last], dict):
            spec[last][value] = next(iter(spec[last].values()))
        else:
            spec[last] = value
        with pytest.raises(MappingError) as err:
            MappingConfig.from_dict(mapping)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", MALFORMED_CONFIGS)
    def test_malformed_config_shapes(self, text, message):
        """A spec that is no mapping, a section of the wrong shape and a
        source file or column that is no text are mapping errors naming the
        spec, not a TypeError or AttributeError from deeper down."""
        with pytest.raises(MappingError) as err:
            MappingConfig.from_dict(yaml.safe_load(text))
        assert str(err.value) == message

    def test_columns_checked_against_header(self, tmp_path):
        """A mapped column missing from the header stops the import also
        before the first data row arrives; a file without a header line has
        no columns, and a cell beyond the header is no column either."""
        config = MappingConfig.from_dict({"event_types": {"place_order": {
            "source": "orders.csv", "id_column": "id",
            "timestamp_column": "ordered_at",
        }}})
        write_csv(tmp_path / "orders.csv", ["id", "when"], [])
        with pytest.raises(MappingError) as err:
            import_mapped_csv(config, tmp_path)
        assert str(err.value) == "orders.csv: missing source column 'ordered_at'"
        (tmp_path / "orders.csv").write_text("")
        with pytest.raises(MappingError) as err:
            import_mapped_csv(config, tmp_path)
        assert str(err.value) == "orders.csv: missing source column 'id'"

        config.event_types["place_order"]["id_column"] = None
        write_csv(tmp_path / "orders.csv", ["id", "ordered_at"],
                  [["o1", "2024-02-01T10:00:00Z", "extra"]])
        with pytest.raises(MappingError) as err:
            import_mapped_csv(config, tmp_path)
        assert str(err.value) == "orders.csv: missing source column None"


TS = "2024-02-01T10:00:00.000Z"
OAV = f"oav:store:s1:count:{TS}"
# each emitter, its arguments for one key, and the rows it adds; the id
# scheme as the ochub.importers docstring tabulates it
EMITTED = {
    "type": (add_type, ("object", "order", [("total", "float")]), {
        "object_types": [{"id": "ot:order", "description": "order"}],
        "object_attributes": [{"id": "oa:order.total", "object_type_id": "ot:order",
                               "description": "total", "datatype": "float"}],
    }),
    "qualifiers": (add_qualifiers, ({"new_order"},), {"relation_qualifiers": [
        {"id": "q:new_order", "description": "new_order", "datatype": "string"}]}),
    "event": (add_event, ("place_order:o1", "place_order", TS), {"events": [
        {"id": "ev:place_order:o1", "event_type_id": "et:place_order",
         "timestamp": TS, "description": None}]}),
    "object": (add_object, ("order:o1", "order", "Order 1"), {"objects": [
        {"id": "obj:order:o1", "object_type_id": "ot:order",
         "description": "Order 1"}]}),
    "event_value": (add_event_value, ("place_order:o1", "place_order", "channel",
                                      "web"), {"event_attribute_values": [
        {"id": "eav:place_order:o1:channel", "event_id": "ev:place_order:o1",
         "event_attribute_id": "ea:place_order.channel", "attribute_value": "web"}]}),
    "object_value": (add_object_value, ("store:s1", "store", "count", TS, "3"), {
        "object_attribute_values": [
            {"id": OAV, "object_id": "obj:store:s1",
             "object_attribute_id": "oa:store.count", "timestamp": TS,
             "attribute_value": "3"}]}),
    "e2o": (add_e2o, ("place_order:o1", "order:o1", "new_order"), {"event_to_object": [
        {"id": "e2o:place_order:o1:order:o1:new_order",
         "event_id": "ev:place_order:o1", "object_id": "obj:order:o1",
         "qualifier_id": "q:new_order", "qualifier_value": "new_order"}]}),
    "e2oav": (add_e2oav, ("place_order:o1", OAV, "visit"), {
        "event_to_object_attribute_value": [
            {"id": f"e2oav:place_order:o1:{OAV}:visit",
             "event_id": "ev:place_order:o1", "object_attribute_value_id": OAV,
             "qualifier_id": "q:visit", "qualifier_value": "visit"}]}),
    "o2o_timed": (add_o2o, ("order:o1", "store:s1", "placed_in", "Main", TS), {
        "object_to_object": [
            {"id": f"o2o:order:o1:store:s1:placed_in:{TS}",
             "source_object_id": "obj:order:o1", "target_object_id": "obj:store:s1",
             "timestamp": TS, "qualifier_id": "q:placed_in",
             "qualifier_value": "Main"}]}),
    "o2o_untimed": (add_o2o, ("order:o1", "store:s1", "placed_in", None), {
        "object_to_object": [
            {"id": "o2o:order:o1:store:s1:placed_in",
             "source_object_id": "obj:order:o1", "target_object_id": "obj:store:s1",
             "timestamp": EPOCH_TS, "qualifier_id": "q:placed_in",
             "qualifier_value": None}]}),
}


@pytest.mark.parametrize("emitter, args, rows", EMITTED.values(), ids=EMITTED)
def test_emitter_rows(emitter, args, rows):
    """Each emitter adds exactly the rows of the id scheme, every column."""
    batch = Batch()
    emitter(batch, *args)
    assert {table: rows_of(batch, table) for table in TABLES
            if batch.rows[table]} == rows


def test_object_value_id_and_shared_qualifier_id():
    """The value id of an e2oav link is the one its value row carries, and
    every row of one qualifier holds the same qualifier id string."""
    assert object_value_id("store:s1", "count", TS) == OAV
    batch = Batch()
    add_e2o(batch, "a:1", "b:1", "new_" + "order")
    add_e2o(batch, "a:2", "b:2", "".join(["new_", "order"]))
    first, second = rows_of(batch, "event_to_object")
    assert first["qualifier_id"] is second["qualifier_id"]


def test_importers_agree_on_ids(tmp_path):
    """An OCEL 2.0 log whose ocel_ids are mapped keys gives the events,
    objects, values and E2O rows of the mapped import of the same data."""
    write_csv(tmp_path / "orders.csv", ["id", "ordered_at", "channel", "subtotal"],
              [["o1", "2024-02-01T10:00:00Z", "web", "12.5"],
               ["o2", "2024-02-02T10:00:00Z", "", "7.0"]])
    mapped = import_mapped_csv(MappingConfig.from_dict({
        "event_types": {"place_order": {
            "source": "orders.csv", "id_column": "id",
            "timestamp_column": "ordered_at", "attributes": {"channel": "channel"},
        }},
        "object_types": {"order": {
            "source": "orders.csv", "id_column": "id",
            "attribute_timestamp_column": "ordered_at",
            "attributes": {"subtotal": "subtotal"},
        }},
        "relations": {"event_to_object": [{
            "source": "orders.csv", "event_type": "place_order",
            "object_type": "order", "from_column": "id", "to_column": "id",
            "qualifier": "new_order",
        }]},
    }), tmp_path).batch
    build_ocel2_sqlite(tmp_path / "log.sqlite", {
        "event_types": {"place_order": {"attrs": {"channel": "TEXT"}, "events": [
            ("place_order:o1", "2024-02-01 10:00:00", {"channel": "web"}),
            ("place_order:o2", "2024-02-02 10:00:00", {"channel": None}),
        ]}},
        "object_types": {"order": {"attrs": {"subtotal": "TEXT"}, "rows": [
            ("order:o1", "2024-02-01 10:00:00", None, {"subtotal": "12.5"}),
            ("order:o2", "2024-02-02 10:00:00", None, {"subtotal": "7.0"}),
        ]}},
        "event_object": [("place_order:o1", "order:o1", "new_order"),
                         ("place_order:o2", "order:o2", "new_order")],
        "object_object": [],
    })
    ocel = import_ocel2(tmp_path / "log.sqlite").batch
    for table in ("events", "objects", "event_attribute_values",
                  "object_attribute_values", "event_to_object"):
        assert ocel.rows[table] == mapped.rows[table], table
        assert len(ocel.rows[table]) in (1, 2)


def test_byte_order_mark_is_ignored(tmp_path):
    """CSV sources that start with a UTF-8 byte-order mark (Excel's "CSV
    UTF-8") give the same batch and skipped lines as plain copies, for a
    hub-CSV batch and for a mapped source."""
    def with_bom(plain):
        marked = plain.parent / f"{plain.name}-bom"
        marked.mkdir()
        for path in plain.glob("*.csv"):
            (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return marked

    hub = tmp_path / "hub"
    with open_store(tmp_path / "hub.db") as store:
        store.append_batch(clean_fixture_batch())
        export_hub_csv(store, hub)
    mapped = tmp_path / "mapped"
    mapped.mkdir()
    contract_sources(mapped)
    config = MappingConfig.from_dict(contract_mapping())
    for read, plain, skips in ((import_hub_csv, hub, 0),
                               (lambda d: import_mapped_csv(config, d), mapped, 13)):
        expected, got = read(plain), read(with_bom(plain))
        assert got.batch.rows == expected.batch.rows
        assert got.skipped == expected.skipped
        assert expected.batch.rows["events"] and len(expected.skipped) == skips


def test_one_instant_spelt_two_ways_gives_one_text(tmp_path):
    """Timestamp text is parsed once per distinct text, and two spellings
    of one instant in two files still give one canonical text: the object
    value's id built from the update file equals the one the e2oav row
    builds from the other file."""
    contract_sources(tmp_path)
    write_csv(tmp_path / "counts.csv",
              ["store_id", "at", "count", "order_id", "visit_at"],
              [["s1", "2024-01-01T00:00:00Z", "5", "o1",
                "2024-01-01 00:00:00+00:00"]])
    batch = import_mapped_csv(
        MappingConfig.from_dict(contract_mapping()), tmp_path).batch
    value_id = "oav:store:s1:visitors:2024-01-01T00:00:00.000Z"
    assert value_id in {r["id"] for r in rows_of(batch, "object_attribute_values")}
    assert [r["object_attribute_value_id"]
            for r in rows_of(batch, "event_to_object_attribute_value")] == [value_id]


def test_unparseable_timestamp_stops_at_its_first_line(tmp_path):
    """A failed parse is not remembered: the same bad text on two lines
    stops the import naming the first of them, with the parser's message."""
    write_csv(tmp_path / "ticks.csv", ["id", "at"],
              [["t1", "2024-01-01T00:00:00Z"], ["t2", "soon"], ["t3", "soon"]])
    config = MappingConfig.from_dict(yaml.safe_load(TICK))
    with pytest.raises(MappingError) as err:
        import_mapped_csv(config, tmp_path)
    assert str(err.value) == "ticks.csv line 3: unparseable timestamp: 'soon'"


def test_pure_python_yaml_loader_reads_the_same_config(tmp_path, monkeypatch):
    """The shipped config loads to one MappingConfig with and without
    PyYAML's C loader, from the file and from a copy with a byte-order
    mark."""
    path = Path(__file__).parents[1] / "configs" / "jaffle_shop.yml"
    marked = tmp_path / "bom.yml"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = MappingConfig.from_file(path)
    assert loaded.event_types and loaded.relations["event_to_object"]
    assert MappingConfig.from_file(marked) == loaded
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert MappingConfig.from_file(path) == loaded
    assert MappingConfig.from_file(marked) == loaded


@pytest.mark.parametrize("text, message", [
    ("tick: [unclosed\n", r"mapping\.yml line \d+: "),
    ("a: *nowhere\n", r"mapping\.yml line 1: found undefined alias"),
    ("a: \x07\n", r"mapping\.yml: unacceptable character #x0007"),
], ids=["flow_sequence", "alias", "control_character"])
@pytest.mark.parametrize("c_loader", [True, False], ids=["c", "python"])
def test_malformed_yaml_is_a_mapping_error(tmp_path, monkeypatch, text,
                                           message, c_loader):
    """Both YAML loaders' errors read ``<file> line <n>: <problem>``, the
    line left out where the reader has none."""
    if not c_loader:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "mapping.yml"
    path.write_text(text)
    with pytest.raises(MappingError, match=message) as err:
        MappingConfig.from_file(path)
    assert str(err.value).startswith(str(path))
    assert "\n" not in str(err.value)


def test_sources_read_as_dict_reader_reads_them(tmp_path):
    """Blank lines give no row, a short row's missing cells are empty, cells
    beyond the header are ignored and a repeated header name the mapping
    does not read is accepted, in a mapped source and a hub-CSV file
    alike."""
    (tmp_path / "ticks.csv").write_text(
        "id,at,colour,note,note,,\n"
        "t1,2024-01-01T00:00:00Z,blue,a,b,,\n"
        ",2024-01-04T00:00:00Z\n"
        "\n"
        "t2,2024-01-02T00:00:00Z\n"
        "t3,2024-01-03T00:00:00Z,green,,,,,extra\n"
    )
    config = MappingConfig.from_dict(yaml.safe_load(
        TICK + "    attributes: {colour: colour}\n"))
    result = import_mapped_csv(config, tmp_path)
    assert [(r["event_id"], r["attribute_value"])
            for r in rows_of(result.batch, "event_attribute_values")] == \
        [("ev:tick:t1", "blue"), ("ev:tick:t3", "green")]
    assert [r["id"] for r in rows_of(result.batch, "events")] == \
        ["ev:tick:t1", "ev:tick:t2", "ev:tick:t3"]
    assert result.skipped == [("ticks.csv", 3, "empty event id")]

    hub = tmp_path / "hub"
    hub.mkdir()
    (hub / "events.csv").write_text(
        "id,event_type_id,timestamp,description\n"
        "ev:1,et:a,2024-01-01T00:00:00Z,x,y\n"
        "\n"
        "ev:2,et:a,2024-01-02T00:00:00Z\n"
    )
    assert rows_of(import_hub_csv(hub).batch, "events") == [
        {"id": "ev:1", "event_type_id": "et:a",
         "timestamp": "2024-01-01T00:00:00.000Z", "description": "x"},
        {"id": "ev:2", "event_type_id": "et:a",
         "timestamp": "2024-01-02T00:00:00.000Z", "description": None},
    ]


def test_lines_are_lines_of_the_file(tmp_path):
    """Skipped rows and errors name the line of the file a record starts
    on: blank lines and quoted fields spanning lines are counted."""
    (tmp_path / "ticks.csv").write_text(
        "id,at\n"
        "t1,2024-01-01T00:00:00Z\n"
        "\n"
        ",2024-01-02T00:00:00Z\n"
        '"t\n2",2024-01-03T00:00:00Z\n'
        ",2024-01-04T00:00:00Z\n"
    )
    config = MappingConfig.from_dict(yaml.safe_load(TICK))
    assert import_mapped_csv(config, tmp_path).skipped == [
        ("ticks.csv", 4, "empty event id"), ("ticks.csv", 7, "empty event id")]

    hub = tmp_path / "hub"
    hub.mkdir()
    (hub / "events.csv").write_text(
        "id,event_type_id,timestamp,description\n"
        'ev:1,et:a,2024-01-01T00:00:00Z,"two\nlines"\n'
        "ev:2,et:a,nope,\n"
    )
    with pytest.raises(ImportError_, match=r"^events\.csv line 4: "):
        import_hub_csv(hub)


def test_repeated_column_is_rejected(tmp_path):
    """A repeated column of a hub-CSV file is a header mismatch, and one a
    mapping reads is a MappingError naming the file and the column, so no
    cell is dropped silently. test_sources_read_as_dict_reader_reads_them
    accepts repeated columns that the mapping does not read."""
    hub = tmp_path / "hub"
    hub.mkdir()
    (hub / "event_types.csv").write_text(
        "id,description,description\net:a,first,second\n")
    with pytest.raises(ImportError_,
                       match="event_types.csv: header mismatch on column "
                             "'description'"):
        import_hub_csv(hub)

    (tmp_path / "ticks.csv").write_text(
        "id,at,colour,colour\nt1,2024-01-01T00:00:00Z,red,blue\n")
    config = MappingConfig.from_dict(yaml.safe_load(
        TICK + "    attributes: {colour: colour}\n"))
    with pytest.raises(MappingError,
                       match="^ticks.csv: repeated source column 'colour'$"):
        import_mapped_csv(config, tmp_path)
