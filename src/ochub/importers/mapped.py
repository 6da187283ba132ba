"""Declarative source-to-target mapping importer for flat CSV sources.

A MappingConfig (YAML) declares, per event type, which source file and
columns carry event ids, timestamps, and attributes; per object type, the
id column, static attribute columns, and optional timestamped update files;
and the three relation kinds as (source file, from-column, to-column,
qualifier) specs. ``MappingConfig.from_dict`` checks each spec by one rule
(``_spec``): a mapping with the keys its kind requires, strings as names
and ``source``, a string or null as a column; each section is a mapping or
a list as expected. The importer walks the declarations and emits each hub
row through an emitter of ``ochub.importers``, an event or object keyed
``<type>:<source id>``. A source row without its key columns (an id, or
both relation endpoints) yields no hub row and is listed in ``skipped``
with the reason (no silent drops); a repeated source id, an unparseable
timestamp or a mapped column missing from a file's header or repeated in
it stops the import, naming the file and, where there is one, the line.
So does input that cannot be read: a byte that is not UTF-8 in the
mapping or a source, a CSV field over the csv module's size limit, or
malformed YAML. A source row's line is the line of the file its record
starts on, blank lines and quoted fields spanning lines counted. Each
distinct timestamp text is parsed once per import; a failed parse is not
remembered, so the first line holding the text is the one named.

Derived attributes (values not present as plain columns) must be
precomputed into the source CSVs upstream; the config stays declarative.
"""

from __future__ import annotations

from pathlib import Path

from ochub.importers import (
    AppendableBatch, ImportError_, add_e2o, add_e2oav, add_event,
    add_event_value, add_o2o, add_object, add_object_value, add_qualifiers,
    add_type, not_utf8, object_value_id, read_csv,
)
from ochub.schema import Batch, DATATYPES
from ochub.util import EPOCH_TS, TimestampError, normalize_timestamp


class MappingError(ImportError_):
    """The mapping config is invalid or does not fit the source files."""


_RELATION = ("source", "from_column", "to_column", "qualifier")
# spec kind -> the keys it must have, in the order they are looked for
_REQUIRED = {
    "event type": ("source", "id_column", "timestamp_column"),
    "object type": ("source", "id_column"),
    "update": ("source", "id_column", "timestamp_column", "attribute",
               "value_column"),
    "event_to_object": (*_RELATION, "event_type", "object_type"),
    "object_to_object": (*_RELATION, "from_object_type", "to_object_type"),
    "event_to_object_attribute_value": (
        *_RELATION, "event_type", "object_type", "attribute", "timestamp_column"),
}


def _name(value, what: str) -> str:
    """A type, attribute or qualifier name, a source file or a column of
    the mapping, which must be text: ids are built from names, and names of
    one kind are sorted."""
    if not isinstance(value, str):
        raise MappingError(f"{what} {value!r} is not a string")
    return value


def _section(data: dict, key, owner: str, kind: type):
    """``data[key]`` as a ``kind`` (dict or list); absent or empty is an
    empty one."""
    value = data.get(key) or kind()
    if not isinstance(value, kind):
        shape = "mapping" if kind is dict else "list"
        raise MappingError(f"{owner}{key} {value!r} is not a {shape}")
    return value


def _spec(spec, owner: str, kind: str) -> dict:
    """``spec`` if it is a mapping with every key its kind requires, text
    in each name and in ``source``, and a column given as text or null."""
    if not isinstance(spec, dict):
        raise MappingError(f"{owner}: spec {spec!r} is not a mapping")
    required = _REQUIRED[kind]
    for key in required:
        if key not in spec:
            raise MappingError(f"{owner}: missing {key}")
    for key, value in spec.items():
        column = str(key).endswith("_column")
        if (value is not None) if column else key in required:
            _name(value, f"{owner}: {key}")
    return spec


def _attributes(owner: str, spec: dict) -> dict:
    return {
        _name(attr, f"{owner}: attribute"): _attr_spec(attr, raw)
        for attr, raw in _section(spec, "attributes", f"{owner}: ", dict).items()
    }


def _attr_spec(name, raw):
    if isinstance(raw, str):
        return {"column": raw, "datatype": "string"}
    if isinstance(raw, dict) and "column" in raw:
        datatype = raw.get("datatype", "string")
        if datatype not in DATATYPES:
            raise MappingError(f"attribute {name}: unknown datatype {datatype!r}")
        return {"column": raw["column"], "datatype": datatype}
    raise MappingError(f"attribute {name}: expected column name or mapping")


class MappingConfig:
    """A mapping config's event types, object types and relations, as
    ``from_dict`` checks and completes them; equal configs map alike."""

    def __init__(self):
        self.event_types, self.object_types, self.relations = {}, {}, {}

    def __eq__(self, other):
        return isinstance(other, MappingConfig) and vars(self) == vars(other)

    @classmethod
    def from_dict(cls, data: dict) -> "MappingConfig":
        if not isinstance(data, dict):
            raise MappingError("mapping config must be a mapping")
        config = cls()
        for name, spec in _section(data, "event_types", "", dict).items():
            owner = f"event type {_name(name, 'event type')}"
            _spec(spec, owner, "event type")
            config.event_types[name] = {
                "description_column": None, **spec,
                "attributes": _attributes(owner, spec),
            }
        for name, spec in _section(data, "object_types", "", dict).items():
            owner = f"object type {_name(name, 'object type')}"
            _spec(spec, owner, "object type")
            updates = [
                dict(_spec(update, f"{owner} update", "update"))
                for update in _section(spec, "updates", f"{owner}: ", list)
            ]
            config.object_types[name] = {
                "description_column": None, "attribute_timestamp_column": None,
                **spec, "attributes": _attributes(owner, spec), "updates": updates,
            }
        relations = _section(data, "relations", "", dict)
        for kind in ("event_to_object", "object_to_object",
                     "event_to_object_attribute_value"):
            config.relations[kind] = []
            for spec in _section(relations, kind, "relations: ", list):
                _spec(spec, f"{kind} relation", kind)
                if not spec["qualifier"].strip():
                    raise MappingError(f"{kind} relation: empty qualifier")
                config.relations[kind].append(dict(spec))
        return config

    @classmethod
    def from_file(cls, path) -> "MappingConfig":
        """The config of the UTF-8 YAML file ``path``. Unreadable text or
        YAML is a MappingError naming the file and, where the reader knows
        it, the line."""
        return cls.from_yaml(Path(path).read_bytes(), path)

    @classmethod
    def from_yaml(cls, data: bytes, path) -> "MappingConfig":
        """The config of ``data``, the bytes of the file ``path``, read as
        ``from_file`` reads them."""
        import yaml  # only mapped ingests need it; keeps CLI start-up short

        try:
            loaded = yaml.load(data.decode("utf-8"),
                               Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except UnicodeDecodeError:
            raise MappingError(not_utf8(str(path), data)) from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" line {mark.line + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
            raise MappingError(f"{path}{where}: {problem}") from exc
        return cls.from_dict(loaded)

    def source_files(self, sources) -> list:
        """The files ``import_mapped_csv`` reads from the directory
        ``sources``, as (name, path) pairs: each source file a spec names,
        in name order."""
        specs = [*self.event_types.values(), *self.object_types.values(),
                 *(update for spec in self.object_types.values()
                   for update in spec["updates"]),
                 *(spec for specs in self.relations.values() for spec in specs)]
        root = Path(sources)
        return [(name, root / name)
                for name in sorted({spec["source"] for spec in specs})]


class _Sources:
    """Reads each source CSV once, for every spec that maps it, and lists
    the rows that a spec skips."""

    def __init__(self, paths: dict):
        self.paths = paths  # source name -> its path
        self.skipped: list = []
        self._cache: dict = {}

    def keyed(self, name: str, keys, reason: str, *columns):
        """(line number, key values, the values of ``columns``) of each row
        of ``name`` whose ``keys`` columns are all non-empty once stripped;
        every other row goes to ``skipped`` with ``reason``. The file's
        header must have each key and each of ``columns``, checked in that
        order."""
        if name not in self._cache:
            path = self.paths[name]
            if not path.exists():
                raise MappingError(f"missing source file: {name}")
            self._cache[name] = read_csv(path, name)
        header, rows = self._cache[name]
        for column in (*keys, *columns):
            if column not in header:
                raise MappingError(f"{name}: missing source column {column!r}")
            if header[column] is None:
                raise MappingError(f"{name}: repeated source column {column!r}")
        key_at = [header[key] for key in keys]
        value_at = [header[column] for column in columns]
        for line_no, row in rows:
            values = [(row[i] or "").strip() for i in key_at]
            if all(values):
                yield line_no, values, [row[i] for i in value_at]
            else:
                self.skipped.append((name, line_no, reason))

    def ids(self, name: str, kind: str, id_column: str, *columns):
        """(line number, id, the values of ``columns``) of each row of
        ``name`` that has an id in ``id_column``; a row without one is
        skipped, a repeated id stops the import."""
        seen: set = set()
        for line_no, (raw_id,), values in self.keyed(
            name, (id_column,), f"empty {kind} id", *columns
        ):
            if raw_id in seen:
                raise MappingError(
                    f"{name} line {line_no}: duplicate {kind} id {raw_id!r}"
                )
            seen.add(raw_id)
            yield line_no, raw_id, values


def import_mapped_csv(config: MappingConfig, sources) -> AppendableBatch:
    """Apply a mapping config to a directory of source CSVs."""
    root = Path(sources)
    if not root.is_dir():
        raise MappingError(f"not a directory: {root}")
    src = _Sources(dict(config.source_files(root)))
    batch = Batch()
    qualifiers: set = set()
    parsed: dict = {}  # timestamp text -> canonical text, one parse per text

    def ts(text, file: str, line_no: int) -> str:
        canonical = parsed.get(text)
        if canonical is None:
            try:
                canonical = parsed[text] = normalize_timestamp(text or "")
            except TimestampError as exc:
                raise MappingError(f"{file} line {line_no}: {exc}") from exc
        return canonical

    def related(spec, *columns):
        """(qualifier, the rows of the relation spec's source with both
        endpoints); notes the qualifier."""
        qualifier = spec["qualifier"]
        qualifiers.add(qualifier)
        return qualifier, src.keyed(
            spec["source"], (spec["from_column"], spec["to_column"]),
            f"empty endpoint for {qualifier}", *columns,
        )

    for name, spec in sorted(config.event_types.items()):
        add_type(batch, "event", name,
                 [(attr, attr_spec["datatype"])
                  for attr, attr_spec in sorted(spec["attributes"].items())])
        file, described = spec["source"], spec["description_column"]
        # (attribute, position of its value) in attribute order; the values
        # come in the order asked for: timestamp, attributes as declared
        slots = sorted((attr, 1 + i) for i, attr in enumerate(spec["attributes"]))
        for line_no, raw_id, values in src.ids(
            file, "event", spec["id_column"], spec["timestamp_column"],
            *(attr_spec["column"] for attr_spec in spec["attributes"].values()),
            *filter(None, [described]),
        ):
            key = f"{name}:{raw_id}"
            add_event(batch, key, name, ts(values[0], file, line_no),
                      values[-1] if described else None)
            for attr, slot in slots:
                if values[slot]:
                    add_event_value(batch, key, name, attr, values[slot])

    for name, spec in sorted(config.object_types.items()):
        datatypes = {attr: attr_spec["datatype"]
                     for attr, attr_spec in spec["attributes"].items()}
        for update in spec["updates"]:
            datatypes.setdefault(update["attribute"], "string")
        add_type(batch, "object", name, sorted(datatypes.items()))
        file, described = spec["source"], spec["description_column"]
        ts_column = spec["attribute_timestamp_column"]
        slots = sorted((attr, i) for i, attr in enumerate(spec["attributes"]))
        for line_no, raw_id, values in src.ids(
            file, "object", spec["id_column"],
            *(attr_spec["column"] for attr_spec in spec["attributes"].values()),
            *filter(None, [ts_column, described]),
        ):
            key = f"{name}:{raw_id}"
            add_object(batch, key, name, values[-1] if described else None)
            value_ts = EPOCH_TS
            if ts_column:
                value_ts = ts(values[len(slots)], file, line_no)
            for attr, slot in slots:
                if values[slot]:
                    add_object_value(batch, key, name, attr, value_ts, values[slot])
        for update in spec["updates"]:
            ufile = update["source"]
            attr = update["attribute"]
            for line_no, (raw_id,), (stamp, value) in src.keyed(
                ufile, (update["id_column"],), "empty object id",
                update["timestamp_column"], update["value_column"],
            ):
                if not value:
                    src.skipped.append((ufile, line_no, f"empty {attr} value"))
                    continue
                add_object_value(batch, f"{name}:{raw_id}", name, attr,
                                 ts(stamp, ufile, line_no), value)

    for spec in config.relations["event_to_object"]:
        qualifier, rows = related(spec)
        for _, (from_val, to_val), _ in rows:
            add_e2o(batch, f"{spec['event_type']}:{from_val}",
                    f"{spec['object_type']}:{to_val}", qualifier)

    for spec in config.relations["object_to_object"]:
        file, ts_column = spec["source"], spec.get("timestamp_column")
        value_column = spec.get("value_column")
        qualifier, rows = related(spec, *filter(None, [ts_column, value_column]))
        for line_no, (from_val, to_val), values in rows:
            timestamp = EPOCH_TS
            if ts_column:
                timestamp = ts(values[0], file, line_no)
            value = (values[-1] or None) if value_column else qualifier
            add_o2o(batch, f"{spec['from_object_type']}:{from_val}",
                    f"{spec['to_object_type']}:{to_val}", qualifier, value,
                    timestamp)

    for spec in config.relations["event_to_object_attribute_value"]:
        file = spec["source"]
        qualifier, rows = related(spec, spec["timestamp_column"])
        for line_no, (from_val, to_val), (stamp,) in rows:
            value_id = object_value_id(
                f"{spec['object_type']}:{to_val}", spec["attribute"],
                ts(stamp, file, line_no),
            )
            add_e2oav(batch, f"{spec['event_type']}:{from_val}", value_id,
                      qualifier)

    add_qualifiers(batch, qualifiers)

    return AppendableBatch(
        batch=batch.canonicalize(), skipped=sorted(src.skipped)
    )
