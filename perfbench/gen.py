"""Seeded generator of jaffle-shop-shaped sources, with the expectations
the benchmark checks ochub's outputs against.

``generate(seed, orders)`` draws one year of a coffee chain: stores,
products, supplies, customers, orders with items, tweets, and the derived
files ``configs/jaffle_shop.yml`` maps. ``write_mapped`` writes them as the
mapped-CSV directory that config expects. ``trickle_batches`` draws late
hub-CSV batches on top of the same shop.

Expectations never call ochub: ``Model`` re-derives the hub rows the
mapping should produce (one dict per table, keyed by row id), and from
those the table counts, export row counts, object timelines and case and
overview graph sizes. Every event timestamp is unique, so an object has at
most one event per instant and a timeline has one entry per distinct
timestamp.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

EPOCH = "1970-01-01T00:00:00.000Z"
YEAR_START = datetime(2017, 1, 1, tzinfo=timezone.utc)
LATE_START = datetime(2018, 1, 1, tzinfo=timezone.utc)
SECONDS_PER_YEAR = 365 * 86400

STORE_COUNT = 6
PRODUCTS = (
    ("JAF-001", "nutellaphone who dis?", "jaffle", 1100),
    ("JAF-002", "doctor stew", "jaffle", 1100),
    ("JAF-003", "the krautback", "jaffle", 1200),
    ("JAF-004", "flame impala", "jaffle", 1400),
    ("JAF-005", "mel-bun", "jaffle", 1200),
    ("BEV-001", "tangaroo", "beverage", 600),
    ("BEV-002", "chai and mighty", "beverage", 500),
    ("BEV-003", "vanilla ice", "beverage", 600),
    ("BEV-004", "for richer or pourover", "beverage", 700),
    ("BEV-005", "adele-ade", "beverage", 400),
)

# Attributes per object type, as configs/jaffle_shop.yml declares them.
OBJECT_ATTRIBUTES = {
    "order": ("item_count", "subtotal", "tax", "total"),
    "product": ("cost", "description", "margin_perc", "price", "type"),
    "tweet": ("content",),
    "store": ("customer_count", "tax_rate"),
    "ingredient": ("cost", "is_perishable"),
    "customer": ("tweet_count",),
}
QUALIFIERS = (
    "new_order", "ordered_product", "order_placed_in", "order_placed_by",
    "new_store", "new_tweet", "tweet_sent_by",
    "order_placed_in_store", "order_placed_by_customer",
    "order_contains_product", "ingredient_used_for_product",
    "tweet_by_customer", "customer_favorite_product", "customer_of_store",
    "another_tweet", "first_store_visit",
)


def ts_text(moment: datetime) -> str:
    """Canonical hub timestamp text (ms precision, UTC, 'Z')."""
    return moment.strftime("%Y-%m-%dT%H:%M:%S") + f".{moment.microsecond // 1000:03d}Z"


def raw_text(moment: datetime) -> str:
    """Source-file timestamp text: naive ISO, as jafgen writes it."""
    text = moment.strftime("%Y-%m-%dT%H:%M:%S")
    if moment.microsecond:
        text += f".{moment.microsecond // 1000:03d}"
    return text


class _Ids:
    """Distinct hex ids drawn from one random stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def __call__(self) -> str:
        while True:
            value = f"{self.rng.getrandbits(48):012x}"
            if value not in self.used:
                self.used.add(value)
                return value


@dataclass
class Model:
    """Hub rows the mapping should yield, one dict per table keyed by id.

    Values are the columns the expectations need: events (type, ts),
    objects type, oav (object, attribute, ts), e2o (event, object, qualifier),
    o2o (source, target, qualifier, ts), e2oav (event, oav id).
    """

    events: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict)
    oav: dict = field(default_factory=dict)
    e2o: dict = field(default_factory=dict)
    o2o: dict = field(default_factory=dict)
    e2oav: dict = field(default_factory=dict)

    # -- building --------------------------------------------------------

    def event(self, etype: str, raw_id: str, ts: str) -> str:
        event_id = f"ev:{etype}:{raw_id}"
        self.events[event_id] = (etype, ts)
        return event_id

    def obj(self, otype: str, raw_id: str) -> str:
        object_id = f"obj:{otype}:{raw_id}"
        self.objects[object_id] = otype
        return object_id

    def value(self, otype: str, raw_id: str, attr: str, ts: str) -> str:
        oav_id = f"oav:{otype}:{raw_id}:{attr}:{ts}"
        self.oav[oav_id] = (f"obj:{otype}:{raw_id}", attr, ts)
        return oav_id

    def link(self, etype, raw_event, otype, raw_object, qualifier) -> str:
        e2o_id = f"e2o:{etype}:{raw_event}:{otype}:{raw_object}:{qualifier}"
        self.e2o[e2o_id] = (
            f"ev:{etype}:{raw_event}", f"obj:{otype}:{raw_object}", qualifier
        )
        return e2o_id

    def relate(self, stype, raw_source, ttype, raw_target, qualifier, ts) -> str:
        o2o_id = f"o2o:{stype}:{raw_source}:{ttype}:{raw_target}:{qualifier}:{ts}"
        self.o2o[o2o_id] = (
            f"obj:{stype}:{raw_source}", f"obj:{ttype}:{raw_target}", qualifier, ts
        )
        return o2o_id

    def attribute_link(self, etype, raw_event, oav_id, qualifier) -> str:
        e2oav_id = f"e2oav:{etype}:{raw_event}:{oav_id}:{qualifier}"
        self.e2oav[e2oav_id] = (f"ev:{etype}:{raw_event}", oav_id)
        return e2oav_id

    # -- expectations ------------------------------------------------------

    def table_counts(self) -> dict:
        object_types = set(self.objects.values())
        return {
            "event_types": len({t for t, _ in self.events.values()}),
            "event_attributes": 0,
            "events": len(self.events),
            "event_attribute_values": 0,
            "object_types": len(object_types),
            "object_attributes": sum(
                len(OBJECT_ATTRIBUTES.get(t, ())) for t in object_types
            ),
            "objects": len(self.objects),
            "object_attribute_values": len(self.oav),
            "relation_qualifiers": len(QUALIFIERS),
            "object_to_object": len(self.o2o),
            "event_to_object": len(self.e2o),
            "event_to_object_attribute_value": len(self.e2oav),
        }

    def timelines(self) -> dict:
        """object id -> {ts: (event type or None, set of updated attributes)}."""
        out: dict = {}
        for event_id, object_id, _ in self.e2o.values():
            etype, ts = self.events[event_id]
            slot = out.setdefault(object_id, {}).setdefault(ts, [None, set()])
            slot[0] = etype
        for object_id, attr, ts in self.oav.values():
            out.setdefault(object_id, {}).setdefault(ts, [None, set()])[1].add(attr)
        return out

    def relation_starts(self) -> dict:
        """(source, target, qualifier) -> earliest relation timestamp."""
        out: dict = {}
        for source, target, qualifier, ts in self.o2o.values():
            key = (source, target, qualifier)
            if key not in out or ts < out[key]:
                out[key] = ts
        return out

    def export_counts(self) -> dict:
        """Row counts of the ocel2, docel and flat (case type order) exports."""
        values_per: dict = {}
        for object_id, attr, _ in self.oav.values():
            key = (self.objects[object_id], attr, object_id)
            values_per[key] = values_per.get(key, 0) + 1
        linked: dict = {}
        for _, oav_id in self.e2oav.values():
            linked[oav_id] = linked.get(oav_id, 0) + 1
        dynamic = {
            (otype, attr)
            for (otype, attr, _), n in values_per.items()
            if n > 1
        } | {
            (self.objects[self.oav[oav_id][0]], self.oav[oav_id][1])
            for oav_id in linked
        }
        dynamic_rows = sum(
            max(1, linked.get(oav_id, 0))
            for oav_id, (object_id, attr, _) in self.oav.items()
            if (self.objects[object_id], attr) in dynamic
        )
        return {
            "ocel2.event": len(self.events),
            "ocel2.object": len(self.objects),
            "ocel2.event_object": len(self.e2o),
            "ocel2.object_object": len(
                {(s, t, q) for s, t, q, _ in self.o2o.values()}
            ),
            "docel.events": len(self.events),
            "docel.objects": len(self.objects),
            "docel.dynamic": dynamic_rows,
            "flat.rows": len({
                (obj, ev) for ev, obj, _ in self.e2o.values()
                if self.objects.get(obj) == "order"
            }),
        }

    def graph_counts(self) -> dict:
        """Node and edge counts of the case and overview graphs."""
        timelines = self.timelines()
        groups: dict = {}  # snapshot node -> overview group
        edges = []  # (kind, start node, end node, qualifier)
        for object_id, entries in timelines.items():
            otype = self.objects[object_id]
            previous = "START"
            ordered = sorted(entries.items())
            next_event = [None] * len(ordered)
            upcoming = None
            for pos in range(len(ordered) - 1, -1, -1):
                next_event[pos] = upcoming
                if ordered[pos][1][0] is not None:
                    upcoming = ordered[pos][0]
            for pos, (ts, (etype, attrs)) in enumerate(ordered):
                snap = ("s", object_id, ts)
                if etype is not None:
                    previous = etype
                    edges.append(("DF", ("e", etype, ts), snap, None))
                groups[snap] = (otype, previous, frozenset(attrs))
                if next_event[pos] is not None:
                    nts = next_event[pos]
                    edges.append(("DF", snap, ("e", entries[nts][0], nts), None))
        snapshot_ts = {o: set(entries) for o, entries in timelines.items()}
        for (source, target, qualifier), start in self.relation_starts().items():
            common = snapshot_ts.get(source, set()) & snapshot_ts.get(target, set())
            for ts in common:
                if ts >= start:
                    edges.append(
                        ("O2O", ("s", source, ts), ("s", target, ts), qualifier)
                    )

        def group(node):
            return ("et", node[1]) if node[0] == "e" else groups[node]

        overview_edges = {
            (kind, group(start), group(end), qualifier)
            for kind, start, end, qualifier in edges
        }
        event_types = {etype for etype, _ in self.events.values()}
        return {
            "case.nodes": len(self.events) + len(groups),
            "case.edges": len(edges),
            "overview.nodes": len(event_types) + len(set(groups.values())),
            "overview.edges": len(overview_edges),
        }


@dataclass
class Shop:
    sources: dict  # file name -> (header, rows)
    model: Model
    customers: list
    stores: list  # (raw id, tax rate)
    tweet_counts: dict  # customer raw id -> tweets so far


def generate(seed: int, orders: int) -> Shop:
    """One year of a jaffle shop with ``orders`` orders, from ``seed``."""
    rng = random.Random(seed)
    new_id = _Ids(rng)
    model = Model()
    src: dict = {}

    def table(name, header):
        src[name] = (header, [])
        return src[name][1]

    customers_f = table("raw_customers.csv", ("id", "name"))
    orders_f = table(
        "raw_orders.csv",
        ("id", "customer", "ordered_at", "store_id", "subtotal", "tax_paid",
         "order_total"),
    )
    items_f = table("raw_items.csv", ("id", "order_id", "sku"))
    products_f = table(
        "raw_products.csv", ("sku", "name", "type", "price", "description")
    )
    supplies_f = table(
        "raw_supplies.csv", ("id", "name", "cost", "perishable", "sku")
    )
    stores_f = table("raw_stores.csv", ("id", "name", "opened_at", "tax_rate"))
    tweets_f = table(
        "raw_tweets.csv", ("id", "user_id", "tweeted_at", "content")
    )
    order_items_f = table(
        "derived_order_items.csv", ("order_id", "item_count", "ordered_at")
    )
    costs_f = table(
        "derived_product_costs.csv", ("sku", "cost", "margin_perc", "computed_at")
    )
    tweet_counts_f = table(
        "derived_tweet_counts.csv",
        ("customer_id", "tweeted_at", "tweet_count", "tweet_id"),
    )
    customer_counts_f = table(
        "derived_customer_counts.csv",
        ("store_id", "ordered_at", "customer_count", "order_id"),
    )
    favorites_f = table("derived_favorites.csv", ("customer_id", "sku", "since"))
    visits_f = table(
        "derived_store_visits.csv", ("customer_id", "store_id", "first_ordered_at")
    )

    stores = []
    for i in range(STORE_COUNT):
        store_id = new_id()
        opened = datetime(2016, 9, 1, 7, tzinfo=timezone.utc) + timedelta(days=19 * i)
        tax_rate = f"0.0{4 + i % 5}"
        stores.append((store_id, tax_rate))
        stores_f.append((store_id, f"Store {i}, downtown", raw_text(opened), tax_rate))
        model.event("open_store", store_id, ts_text(opened))
        model.obj("store", store_id)
        model.value("store", store_id, "tax_rate", ts_text(opened))
        model.link("open_store", store_id, "store", store_id, "new_store")

    prices = {}
    for sku, name, ptype, price in PRODUCTS:
        prices[sku] = price
        products_f.append((sku, name, ptype, f"{price / 100:.2f}", f'{name}, the "{ptype}"'))
        model.obj("product", sku)
        for attr in ("price", "type", "description"):
            model.value("product", sku, attr, EPOCH)
        for month in (1, 7):
            computed = datetime(2017, month, 1, 0, 0, 0, 500000, tzinfo=timezone.utc)
            cost = round(price * rng.uniform(0.3, 0.5))
            costs_f.append(
                (sku, f"{cost / 100:.2f}", f"{1 - cost / price:.3f}", raw_text(computed))
            )
            model.value("product", sku, "cost", ts_text(computed))
            model.value("product", sku, "margin_perc", ts_text(computed))
        for k in range(rng.randint(2, 4)):
            supply_id = f"SUP-{sku}-{k}"
            supplies_f.append(
                (supply_id, f"supply {k} for {sku}", f"{rng.randint(5, 90) / 100:.2f}",
                 rng.choice(("True", "False")), sku)
            )
            model.obj("ingredient", supply_id)
            model.value("ingredient", supply_id, "cost", EPOCH)
            model.value("ingredient", supply_id, "is_perishable", EPOCH)
            model.relate("ingredient", supply_id, "product", sku,
                         "ingredient_used_for_product", EPOCH)

    customers = [new_id() for _ in range(max(2, orders // 4))]
    for n, customer_id in enumerate(customers):
        customers_f.append((customer_id, f"Customer {n}"))
        model.obj("customer", customer_id)

    tweets = orders
    seconds = sorted(rng.sample(range(SECONDS_PER_YEAR), orders + tweets))
    rng.shuffle(seconds)
    order_secs = sorted(seconds[:orders])
    tweet_secs = sorted(seconds[orders:])

    visited: dict = {}  # (customer, store) -> first ts
    store_customers: dict = {}
    skus = [p[0] for p in PRODUCTS]
    for sec in order_secs:
        moment = YEAR_START + timedelta(seconds=sec)
        ts = ts_text(moment)
        order_id = new_id()
        customer_id = rng.choice(customers)
        store_id, tax_rate = rng.choice(stores)
        count = rng.choice((1, 1, 1, 2, 2, 3))
        picked = [rng.choice(skus) for _ in range(count)]
        subtotal = sum(prices[s] for s in picked)
        tax = round(subtotal * float(tax_rate))
        orders_f.append(
            (order_id, customer_id, raw_text(moment), store_id,
             f"{subtotal / 100:.2f}", f"{tax / 100:.2f}", f"{(subtotal + tax) / 100:.2f}")
        )
        order_items_f.append((order_id, str(count), raw_text(moment)))
        model.event("place_order", order_id, ts)
        model.obj("order", order_id)
        for attr in ("subtotal", "tax", "total", "item_count"):
            model.value("order", order_id, attr, ts)
        model.link("place_order", order_id, "order", order_id, "new_order")
        model.link("place_order", order_id, "store", store_id, "order_placed_in")
        model.link("place_order", order_id, "customer", customer_id, "order_placed_by")
        model.relate("order", order_id, "store", store_id, "order_placed_in_store", ts)
        model.relate("order", order_id, "customer", customer_id,
                     "order_placed_by_customer", ts)
        for sku in picked:
            items_f.append((new_id(), order_id, sku))
            model.link("place_order", order_id, "product", sku, "ordered_product")
            model.relate("order", order_id, "product", sku, "order_contains_product", EPOCH)
        if (customer_id, store_id) not in visited:
            visited[customer_id, store_id] = moment
            seen = store_customers.setdefault(store_id, set())
            seen.add(customer_id)
            customer_counts_f.append((store_id, raw_text(moment), str(len(seen)), order_id))
            oav_id = model.value("store", store_id, "customer_count", ts)
            model.attribute_link("place_order", order_id, oav_id, "first_store_visit")
            visits_f.append((customer_id, store_id, raw_text(moment)))
            model.relate("customer", customer_id, "store", store_id, "customer_of_store", ts)

    tweet_counts: dict = {}
    for sec in tweet_secs:
        moment = YEAR_START + timedelta(seconds=sec)
        ts = ts_text(moment)
        tweet_id = new_id()
        customer_id = rng.choice(customers)
        tweet_counts[customer_id] = tweet_counts.get(customer_id, 0) + 1
        tweets_f.append((tweet_id, customer_id, raw_text(moment),
                         f"jaffles, {rng.randint(1, 99)} times yes"))
        tweet_counts_f.append(
            (customer_id, raw_text(moment), str(tweet_counts[customer_id]), tweet_id)
        )
        model.event("send_tweet", tweet_id, ts)
        model.obj("tweet", tweet_id)
        model.value("tweet", tweet_id, "content", ts)
        model.link("send_tweet", tweet_id, "tweet", tweet_id, "new_tweet")
        model.link("send_tweet", tweet_id, "customer", customer_id, "tweet_sent_by")
        model.relate("tweet", tweet_id, "customer", customer_id, "tweet_by_customer", ts)
        oav_id = model.value("customer", customer_id, "tweet_count", ts)
        model.attribute_link("send_tweet", tweet_id, oav_id, "another_tweet")

    for customer_id in customers:
        for sec in sorted(rng.sample(range(SECONDS_PER_YEAR), rng.randint(3, 9))):
            since = YEAR_START + timedelta(seconds=sec, milliseconds=250)
            sku = rng.choice(skus)
            favorites_f.append((customer_id, sku, raw_text(since)))
            model.relate("customer", customer_id, "product", sku,
                         "customer_favorite_product", ts_text(since))

    return Shop(sources=src, model=model, customers=customers, stores=stores,
                tweet_counts=tweet_counts)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_mapped(shop: Shop, directory: Path) -> None:
    """Write the shop's source files for configs/jaffle_shop.yml."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in sorted(shop.sources.items()):
        write_csv(directory / name, header, rows)


# -- late hub-CSV batches ---------------------------------------------------

HUB_COLUMNS = {
    "events": ("id", "event_type_id", "timestamp", "description"),
    "objects": ("id", "object_type_id", "description"),
    "object_attribute_values": (
        "id", "object_id", "object_attribute_id", "timestamp", "attribute_value",
    ),
    "object_to_object": (
        "id", "source_object_id", "target_object_id", "timestamp",
        "qualifier_id", "qualifier_value",
    ),
    "event_to_object": (
        "id", "event_id", "object_id", "qualifier_id", "qualifier_value",
    ),
    "event_to_object_attribute_value": (
        "id", "event_id", "object_attribute_value_id", "qualifier_id",
        "qualifier_value",
    ),
}


@dataclass
class HubBatch:
    """Rows of one hub-CSV batch plus the model rows it adds."""

    name: str
    rows: dict  # table -> list of row tuples in HUB_COLUMNS order
    model: Model
    ghosts: list = field(default_factory=list)  # customer ids never created

    def counts(self) -> dict:
        return {table: len(rows) for table, rows in self.rows.items() if rows}

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for table, rows in self.rows.items():
            if rows:
                write_csv(directory / f"{table}.csv", HUB_COLUMNS[table], rows)

    def changed(self, name: str) -> "HubBatch":
        """The same batch with one attribute value altered."""
        rows = {table: list(r) for table, r in self.rows.items()}
        first = rows["object_attribute_values"][0]
        rows["object_attribute_values"][0] = first[:4] + (first[4] + "1",)
        return HubBatch(name=name, rows=rows, model=Model())


def _late_batch(shop: Shop, rng: random.Random, new_id, name: str,
                orders: int, ghosts: int, clock: list) -> HubBatch:
    model = Model()
    rows = {table: [] for table in HUB_COLUMNS}
    known = {}

    def add(table, row_id, *values):
        rows[table].append((row_id,) + values)

    ghost_ids = [f"ghost{new_id()}" for _ in range(ghosts)]
    buyers = [rng.choice(shop.customers) for _ in range(orders - ghosts)] + ghost_ids
    rng.shuffle(buyers)
    skus = [p[0] for p in PRODUCTS]
    prices = {p[0]: p[3] for p in PRODUCTS}
    for customer_id in buyers:
        clock[0] += timedelta(seconds=rng.randint(20, 600))
        ts = ts_text(clock[0])
        order_id = new_id()
        store_id, tax_rate = rng.choice(shop.stores)
        picked = sorted({rng.choice(skus) for _ in range(rng.choice((1, 1, 2, 3)))})
        subtotal = sum(prices[s] for s in picked)
        tax = round(subtotal * float(tax_rate))
        ev = model.event("place_order", order_id, ts)
        add("events", ev, "et:place_order", ts, "")
        ob = model.obj("order", order_id)
        add("objects", ob, "ot:order", "")
        for attr, value in (("subtotal", subtotal), ("tax", tax),
                            ("total", subtotal + tax), ("item_count", len(picked))):
            text = str(value) if attr == "item_count" else f"{value / 100:.2f}"
            oav = model.value("order", order_id, attr, ts)
            add("object_attribute_values", oav, ob, f"oa:order.{attr}", ts, text)
        links = [("order", order_id, "new_order"), ("store", store_id, "order_placed_in"),
                 ("customer", customer_id, "order_placed_by")]
        links += [("product", sku, "ordered_product") for sku in picked]
        for otype, raw, qualifier in links:
            e2o = model.link("place_order", order_id, otype, raw, qualifier)
            add("event_to_object", e2o, ev, f"obj:{otype}:{raw}", f"q:{qualifier}",
                qualifier)
        relations = [("store", store_id, "order_placed_in_store", ts),
                     ("customer", customer_id, "order_placed_by_customer", ts)]
        relations += [("product", sku, "order_contains_product", EPOCH) for sku in picked]
        for otype, raw, qualifier, at in relations:
            o2o = model.relate("order", order_id, otype, raw, qualifier, at)
            add("object_to_object", o2o, ob, f"obj:{otype}:{raw}", at,
                f"q:{qualifier}", qualifier)
        if customer_id in ghost_ids:
            continue
        # a tweet about every other order, from its customer
        if rng.random() < 0.5:
            clock[0] += timedelta(seconds=rng.randint(1, 20))
            tts = ts_text(clock[0])
            tweet_id = new_id()
            count = shop.tweet_counts.get(customer_id, 0) + known.get(customer_id, 0) + 1
            known[customer_id] = known.get(customer_id, 0) + 1
            tev = model.event("send_tweet", tweet_id, tts)
            add("events", tev, "et:send_tweet", tts, "")
            tob = model.obj("tweet", tweet_id)
            add("objects", tob, "ot:tweet", "")
            oav = model.value("tweet", tweet_id, "content", tts)
            add("object_attribute_values", oav, tob, "oa:tweet.content", tts,
                "late jaffle, still good")
            count_oav = model.value("customer", customer_id, "tweet_count", tts)
            add("object_attribute_values", count_oav, f"obj:customer:{customer_id}",
                "oa:customer.tweet_count", tts, str(count))
            for otype, raw, qualifier in (("tweet", tweet_id, "new_tweet"),
                                          ("customer", customer_id, "tweet_sent_by")):
                e2o = model.link("send_tweet", tweet_id, otype, raw, qualifier)
                add("event_to_object", e2o, tev, f"obj:{otype}:{raw}",
                    f"q:{qualifier}", qualifier)
            o2o = model.relate("tweet", tweet_id, "customer", customer_id,
                               "tweet_by_customer", tts)
            add("object_to_object", o2o, tob, f"obj:customer:{customer_id}", tts,
                "q:tweet_by_customer", "tweet_by_customer")
            link = model.attribute_link("send_tweet", tweet_id, count_oav, "another_tweet")
            add("event_to_object_attribute_value", link, tev, count_oav,
                "q:another_tweet", "another_tweet")
    for customer_id, n in known.items():
        shop.tweet_counts[customer_id] = shop.tweet_counts.get(customer_id, 0) + n
    for table in rows:
        rows[table].sort()
    return HubBatch(name=name, rows=rows, model=model,
                    ghosts=[f"obj:customer:{g}" for g in ghost_ids])


# The fixed trickle sequence: (kind, orders, ghost customers or, for
# "resend" and "conflict", the step whose batch is sent again). "resend"
# repeats that batch unchanged; "conflict" repeats it with one value changed.
TRICKLE_PLAN = (
    ("new", 40, 0),
    ("repair", 30, 3),
    ("new", 40, 0),
    ("resend", 0, 2),
    ("conflict", 0, 0),
    ("new", 40, 0),
)


def trickle_batches(shop: Shop, seed: int) -> list:
    """Late batches for ``TRICKLE_PLAN``: list of (kind, HubBatch).

    Batch orders come after the shop's year. Repair batches reference
    customers that never arrive, so their placeholders never conflict with
    a real object later.
    """
    rng = random.Random(seed * 7919 + 17)
    new_id = _Ids(rng)
    clock = [LATE_START]
    batches = []
    for step, (kind, orders, extra) in enumerate(TRICKLE_PLAN):
        name = f"b{step}-{kind}"
        if kind in ("new", "repair"):
            batch = _late_batch(shop, rng, new_id, name, orders, extra, clock)
        elif kind == "resend":
            batch = batches[extra][1]
        else:
            batch = batches[extra][1].changed(name)
        batches.append((kind, batch))
    return batches
