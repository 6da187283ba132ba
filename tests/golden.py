"""The output corpus: the sha256 of every output of a fixed set of stores
and of a fixed command sequence, kept in ``golden.json`` beside this file.

``test_golden.py`` builds the corpus afresh and compares it entry by entry
with ``golden.json``, so a change that moves any output fails tier-1. A
change meant to move outputs rewrites the file by running this module,

    PYTHONPATH=src python tests/golden.py

and lists every changed entry in CHANGES.md with its reason.

The stores:
  - ``clean``: ``conftest.clean_fixture_batch``
  - ``nulls-<seed>``: ``test_acceptance.tiny_log`` with ghost objects and
    NULL-type and NULL-time events, plus
    ``test_exporters.add_null_column_rows``
  - ``hostile-<seed>``: ``test_quality_differential.hostile_store``
  - ``shop``: a 150-order mapped shop whose mapping declares event
    attributes, generated here from a fixed seed, ingested by the command
    sequence (the ``cli/`` entries) and then given a late hub-CSV batch
    whose two object-to-object rows tie on their timestamp, and a repaired
    placeholder object

Each store gives every export (OCEL 2.0, DOCEL, flat CSV, both graphs and
hub CSV), ``stats``, ``stats --json``, ``check --checkpoint transform
--report`` and its own schema and rows. The command sequence covers plain
ingest, re-send, a conflicting send, repair, skipped source lines, and the
inputs that exit 1, 2 and 3. The entry ``files`` lists every file the
corpus left behind.

An entry digests the exit code, stdout and stderr of its command and what
the command wrote: a file's bytes, a directory's files by name, and a
SQLite file (the OCEL 2.0 log, a store) as its schema SQL plus each table's
rows in rowid order, as the log's header changes from run to run. The work
directory is written ``<tmp>``. For exit 2 only the code and ochub's
``usage error:`` prefix count: the rest is argparse's wording, which
differs between Python versions.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sqlite3
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

if __name__ == "__main__":  # run as a script: the ochub of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ochub.cli import EXIT_USAGE, run
from ochub.exporters import export_hub_csv
from ochub.schema import TABLE_COLUMNS, Batch
from ochub.store import open_store
from conftest import clean_fixture_batch
from test_acceptance import tiny_log
from test_exporters import add_null_column_rows
from test_quality_differential import hostile_store

GOLDEN = Path(__file__).with_name("golden.json")

NULLS_SEEDS = (0, 1, 2, 3)
HOSTILE_SEEDS = (1, 2, 8, 9)
EXPORTS = (("ocel2", "log.sqlite"), ("docel", "docel"), ("flat", "flat.csv"),
           ("graph-case", "case"), ("graph-overview", "overview"))

SHOP_MAPPING = """\
event_types:
  place_order:
    source: orders.csv
    id_column: id
    timestamp_column: ordered_at
    attributes:
      channel: channel
      tip: {column: tip, datatype: float}
  open_store:
    source: stores.csv
    id_column: id
    timestamp_column: opened_at
object_types:
  order:
    source: orders.csv
    id_column: id
    attribute_timestamp_column: ordered_at
    attributes:
      subtotal: {column: subtotal, datatype: float}
    updates:
      - {source: status.csv, id_column: order_id, timestamp_column: at,
         attribute: status, value_column: status}
  customer:
    source: customers.csv
    id_column: id
    description_column: name
  store:
    source: stores.csv
    id_column: id
    description_column: name
    attributes:
      tax_rate: {column: tax_rate, datatype: float}
  product:
    source: products.csv
    id_column: sku
    description_column: name
    attributes:
      price: {column: price, datatype: float}
relations:
  event_to_object:
    - {source: orders.csv, event_type: place_order, object_type: order,
       from_column: id, to_column: id, qualifier: new_order}
    - {source: orders.csv, event_type: place_order, object_type: customer,
       from_column: id, to_column: customer, qualifier: order_placed_by}
    - {source: orders.csv, event_type: place_order, object_type: store,
       from_column: id, to_column: store, qualifier: order_placed_in}
    - {source: items.csv, event_type: place_order, object_type: product,
       from_column: order_id, to_column: sku, qualifier: ordered_product}
    - {source: stores.csv, event_type: open_store, object_type: store,
       from_column: id, to_column: id, qualifier: new_store}
  object_to_object:
    - {source: orders.csv, from_object_type: order, to_object_type: customer,
       from_column: id, to_column: customer, qualifier: placed_by,
       timestamp_column: ordered_at}
    - {source: orders.csv, from_object_type: order, to_object_type: store,
       from_column: id, to_column: store, qualifier: placed_in,
       timestamp_column: ordered_at}
    - {source: items.csv, from_object_type: order, to_object_type: product,
       from_column: order_id, to_column: sku, qualifier: contains}
  event_to_object_attribute_value:
    - {source: status.csv, event_type: place_order, object_type: order,
       attribute: status, from_column: order_id, to_column: order_id,
       timestamp_column: at, qualifier: sets_status}
"""


def write(path, data) -> None:
    """Write ``data`` (text as UTF-8, or bytes) to ``path``, making its
    directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data if isinstance(data, bytes) else data.encode())


def shop_sources(root, orders=150, seed=26):
    """The shop's source CSVs in ``root``: orders with their channel and
    tip (event attributes), tie-prone times in several offsets, customer
    names holding commas, quotes and accents, and lines without an id or
    an endpoint, which the import skips."""
    rng = random.Random(seed)
    names = ["Ada", "Zoë", "O'Brien, Pat", 'Kim "KC" Lee', "Émile", "Ng"]
    write(root / "customers.csv", "id,name\n" + "".join(
        f'c{i},"{names[i % len(names)].replace(chr(34), chr(34) * 2)} {i}"\n'
        for i in range(40)))
    write(root / "stores.csv", "id,name,opened_at,tax_rate\n"
          "s1,Main St,2023-12-01T08:00:00Z,0.06\n"
          's2,"Harbour, Pier 4",2023-12-15 09:30:00+01:00,0.07\n'
          "s3,Old Mill,2023-12-20T07:00:00.5Z,\n")
    skus = [f"sku-{n}" for n in range(1, 7)]
    write(root / "products.csv", "sku,name,price\n" + "".join(
        f"{sku},Product {n},{n * 1.25:.2f}\n" for n, sku in enumerate(skus, 1)))
    base = datetime(2024, 1, 1, 8, tzinfo=timezone.utc)
    order_rows, items, status = [], [], []
    for n in range(1, orders + 1):
        at = base + timedelta(minutes=15 * rng.randrange(0, 2000))
        shown = (at.astimezone(timezone(timedelta(hours=1))).isoformat()
                 if n % 7 == 0 else at.strftime("%Y-%m-%dT%H:%M:%SZ"))
        order_id = "" if n == 50 else f"o{n}"
        customer = "" if n % 37 == 0 else f"c{rng.randrange(40)}"
        tip = rng.choice(["", "0.50", "1", "2.25"])
        order_rows.append(f"{order_id},{customer},s{rng.randint(1, 3)},{shown},"
                          f"{rng.randint(300, 4000) / 100},"
                          f"{rng.choice(['web', 'app', 'till'])},{tip}\n")
        for sku in rng.sample(skus, rng.randint(1, 3)):
            items.append(f"{order_id},{'' if n == 90 else sku}\n")
        if order_id:
            status.append(f"{order_id},{at.strftime('%Y-%m-%dT%H:%M:%SZ')},placed\n")
            if rng.random() < 0.4:
                later = (at + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%SZ")
                status.append(f"{order_id},{later},shipped\n")
    write(root / "orders.csv", "id,customer,store,ordered_at,subtotal,"
          "channel,tip\n" + "".join(order_rows))
    write(root / "items.csv", "order_id,sku\n" + "".join(items))
    write(root / "status.csv", "order_id,at,status\n" + "".join(status))


def hub_csv(root, files):
    """A hub-CSV batch in ``root``: {table: its lines after the header}."""
    for table, lines in files.items():
        write(root / f"{table}.csv",
              "\n".join([",".join(TABLE_COLUMNS[table]), *lines]) + "\n")


def _digest(text: str, work, outputs=()) -> str:
    data = hashlib.sha256(text.replace(str(work), "<tmp>").encode())
    for path in outputs:
        for part in _contents(Path(path)):
            data.update(part)
    return data.hexdigest()


def _contents(path):
    """The bytes an output is compared by, in a fixed order."""
    if path.is_dir():
        for child in sorted(path.rglob("*")):
            if child.is_file():
                yield child.relative_to(path).as_posix().encode() + b"\0"
                yield from _contents(child)
    elif not path.is_file():
        yield b"<absent>"
    elif path.suffix in (".sqlite", ".db"):
        uri = f"{path.resolve().as_uri()}?mode=ro"
        with contextlib.closing(sqlite3.connect(uri, uri=True)) as conn:
            tables = []
            for kind, name, sql in conn.execute(
                    "SELECT type, name, sql FROM sqlite_master ORDER BY 1, 2"):
                yield f"{kind} {name}: {sql}\n".encode()
                tables += [name] if kind == "table" else []
            for name in tables:
                yield f"-- {name}\n".encode()
                for row in conn.execute(f'SELECT * FROM "{name}" ORDER BY rowid'):
                    yield repr(row).encode() + b"\n"
    else:
        yield path.read_bytes()


def command(work, argv, *outputs) -> str:
    """The digest of running ``argv`` through ``ochub.cli.run``: its exit
    code, stdout, stderr and ``outputs``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    if code == EXIT_USAGE and err.startswith("usage error:"):
        err = "usage error:"
    return _digest(f"exit {code}\n{out.getvalue()}\n--- stderr\n{err}", work,
                   outputs)


def store_outputs(entries, work, name, case_type) -> None:
    """Every output of the store ``<work>/<name>/hub.db``."""
    root = work / name
    db = root / "hub.db"
    for fmt, out in EXPORTS:
        extra = ["--case-type", case_type] if fmt == "flat" else []
        entries[f"{name}/export {fmt}"] = command(
            work, ["export", "--store", db, "--format", fmt, "--out", root / out,
                   *extra], root / out)
    with open_store(db, create_if_missing=False) as store:
        export_hub_csv(store, root / "hubcsv")
    entries[f"{name}/export hubcsv"] = _digest("", work, [root / "hubcsv"])
    entries[f"{name}/stats"] = command(work, ["stats", "--store", db])
    entries[f"{name}/stats --json"] = command(work, ["stats", "--store", db, "--json"])
    entries[f"{name}/check transform"] = command(
        work, ["check", "--store", db, "--checkpoint", "transform",
               "--report", root / "report.json"], root / "report.json")
    entries[f"{name}/store"] = _digest("", work, [db])


def library_stores(work):
    """Build each store that library calls make, and yield its name and
    the case type of its flat export."""
    for name, batch, case_type in (
        ("clean", clean_fixture_batch(), "ot:item"),
        *((f"nulls-{seed}", _nulls(seed), "ot:x") for seed in NULLS_SEEDS),
    ):
        (work / name).mkdir()
        with open_store(work / name / "hub.db") as store:
            store.append_batch(batch)
        yield name, case_type
    for seed in HOSTILE_SEEDS:
        name = f"hostile-{seed}"
        (work / name).mkdir()
        store = hostile_store(random.Random(seed))
        try:
            with contextlib.closing(sqlite3.connect(work / name / "hub.db")) as file:
                store.connection().backup(file)
        finally:
            store.close()
        yield name, "obje0"


def _nulls(seed) -> Batch:
    batch, _ = tiny_log(seed, n_objects=8, n_events=16, n_instants=6,
                        ghosts=2, nulls=True)
    add_null_column_rows(batch)
    return batch


def cli_sequence(entries, work) -> None:
    """The command sequence: the shop's ingests, the inputs that fail, the
    shop's outputs, graph checks and an OCEL 2.0 round trip."""
    shop = work / "shop" / "hub.db"
    shop.parent.mkdir()
    src = work / "shop-src"
    shop_sources(src)
    write(work / "shop.yml", SHOP_MAPPING)
    mapped = ["--format", "mapped", "--mapping", work / "shop.yml", "--input", src]
    late_at = "2024-02-01T12:00:00.000Z"
    late_e2o = [f"e2o:late:{obj},ev:late,obj:{obj},q:late,picked up"
                for obj in ("order:o1", "customer:c1")]
    hub_csv(work / "late", {
        "event_types": ["et:late_pickup,late pickup"],
        "events": [f"ev:late,et:late_pickup,{late_at},"],
        "relation_qualifiers": ["q:late,picked up by,string"],
        "event_to_object": late_e2o,
        # tied on their timestamp: the greater id, o2o:late:9, decides
        "object_to_object": [
            f"o2o:late:10,obj:order:o1,obj:customer:c1,{late_at},q:late,",
            f"o2o:late:9,obj:order:o1,obj:customer:c1,{late_at},q:late,picked up by",
        ],
    })
    hub_csv(work / "conflict", {
        "events": ["ev:late,et:late_pickup,2024-02-02T12:00:00.000Z,"]})
    hub_csv(work / "dangling", {
        "event_to_object": ["e2o:late:ghost,ev:late,obj:ghost,q:late,picked up"]})
    hub_csv(work / "twoline", {"events": [
        'ev:a,et:late_pickup,2024-01-01T00:00:00.000Z,"two\nlines"',
        "ev:b,et:late_pickup,nope,"]})
    write(work / "latin1" / "event_types.csv",
          b"id,description\net:caf\xe9,caf\xe9\n")
    write(work / "repeated" / "event_types.csv",
          "id,description,description\net:a,first,second\n")
    write(work / "unknown" / "notes.csv", "id\nx\n")
    write(work / "nospec.yml", "event_types:\n  tick:\n")
    write(work / "log.txt", "no SQLite here\n")
    write(work / "graph-latin1" / "nodes.csv", b"id:ID\nn\xff\n")
    write(work / "graph-latin1" / "edges.csv", ":START_ID,:END_ID\n")
    collide = Batch()
    collide.add("object_types", id="ot:x", description="x")
    for attr_id in ("oa:x.1", "oa:x.2"):
        collide.add("object_attributes", id=attr_id, object_type_id="ot:x",
                    description="x", datatype="string")
    with open_store(work / "collide.db") as store:
        store.append_batch(collide)

    numbers = itertools.count(1)

    def step(name, *argv, outputs=()):
        entries[f"cli/{next(numbers):02d} {name}"] = command(work, argv, *outputs)

    def ingest(name, batch, *extra, fmt="hubcsv", store=shop):
        step(name, "ingest", "--store", store, "--format", fmt, "--input",
             batch, *extra)

    step("init", "init", shop)
    step("stats --json empty", "stats", "--store", shop, "--json")
    step("ingest shop", "ingest", "--store", shop, *mapped)
    step("re-send shop", "ingest", "--store", shop, *mapped)
    ingest("ingest late", work / "late")
    ingest("conflicting send", work / "conflict")
    ingest("dangling", work / "dangling")
    ingest("repair", work / "dangling", "--repair-missing-objects")
    ingest("re-send repair", work / "dangling", "--repair-missing-objects")
    step("check staging", "check", "--store", shop, "--checkpoint", "staging",
         "--input", work / "late")
    step("missing store", "stats", "--store", work / "none.db")
    ingest("not utf-8", work / "latin1")
    ingest("bad time after two lines", work / "twoline")
    ingest("repeated column", work / "repeated")
    ingest("unknown file", work / "unknown")
    step("mapping without spec", "ingest", "--store", shop, "--format", "mapped",
         "--mapping", work / "nospec.yml", "--input", src)
    ingest("log not sqlite", work / "log.txt", fmt="ocel2")
    step("option prefix", "ingest", "--stor", shop, "--format", "hubcsv",
         "--input", work / "late")
    step("mapped without mapping", "ingest", "--store", shop, "--format",
         "mapped", "--input", src)
    step("flat without case type", "export", "--store", shop, "--format",
         "flat", "--out", work / "flat.csv")
    step("graph check without input", "check", "--store", shop,
         "--checkpoint", "graph")

    store_outputs(entries, work, "shop", "ot:order")
    case = work / "shop" / "case"
    step("graph check", "check", "--store", shop, "--checkpoint", "graph",
         "--input", case)
    step("graph check, no store", "check", "--store", work / "none.db",
         "--checkpoint", "graph", "--input", case)
    step("graph check, not utf-8", "check", "--store", shop, "--checkpoint",
         "graph", "--input", work / "graph-latin1")
    log = work / "log#1.sqlite"
    step("export log#1", "export", "--store", shop, "--format", "ocel2",
         "--out", log, outputs=[log])
    step("collision keeps the log", "export", "--store", work / "collide.db",
         "--format", "ocel2", "--out", log, outputs=[log])
    replica = work / "replica.db"
    step("init replica", "init", replica)
    ingest("ingest log", log, fmt="ocel2", store=replica)
    ingest("re-send log", log, fmt="ocel2", store=replica)
    step("export replica", "export", "--store", replica, "--format", "ocel2",
         "--out", work / "again.sqlite", outputs=[work / "again.sqlite"])
    no_time = work / "no-time.sqlite"
    with contextlib.closing(sqlite3.connect(log)) as source, \
            contextlib.closing(sqlite3.connect(no_time)) as target:
        source.backup(target)
        # none if the shop's ingest failed: the entries that differ tell
        for table, in target.execute("SELECT 'event_' || ocel_type_map FROM "
                                     "event_map_type ORDER BY 1 LIMIT 1"):
            target.execute(f'ALTER TABLE "{table}" DROP COLUMN ocel_time')
        target.commit()
    ingest("log without ocel_time", no_time, fmt="ocel2", store=replica)


def corpus(work) -> dict:
    """{entry: sha256} of every output, built in the empty directory
    ``work``."""
    work = Path(work)
    entries = {}
    cli_sequence(entries, work)
    for name, case_type in library_stores(work):
        store_outputs(entries, work, name, case_type)
    entries["files"] = _digest("\n".join(
        path.relative_to(work).as_posix() + "/" * path.is_dir()
        for path in sorted(work.rglob("*"))), work)
    return entries


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        entries = corpus(work)
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
