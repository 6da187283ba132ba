"""Declarative source-to-target mapping importer for flat CSV sources.

A MappingConfig (YAML) declares, per event type, which source file and
columns carry event ids, timestamps, and attributes; per object type, the
id column, static attribute columns, and optional timestamped update files;
and the three relation kinds as (source file, from-column, to-column,
qualifier) specs. The importer walks the declarations and emits hub rows
with deterministic namespaced ids, keeping per-row provenance and an
explicit skipped-rows summary (no silent drops).

Derived attributes (values not present as plain columns) must be
precomputed into the source CSVs upstream; the config stays declarative.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from ochub.importers import AppendableBatch, ImportError_
from ochub.schema import Batch, DATATYPES
from ochub.util import EPOCH_TS, TimestampError, normalize_timestamp


class MappingError(ImportError_):
    """The mapping config is invalid or does not fit the source files."""


def _attr_spec(name, raw):
    if isinstance(raw, str):
        return {"column": raw, "datatype": "string"}
    if isinstance(raw, dict) and "column" in raw:
        datatype = raw.get("datatype", "string")
        if datatype not in DATATYPES:
            raise MappingError(f"attribute {name}: unknown datatype {datatype!r}")
        return {"column": raw["column"], "datatype": datatype}
    raise MappingError(f"attribute {name}: expected column name or mapping")


@dataclass
class MappingConfig:
    event_types: dict = field(default_factory=dict)
    object_types: dict = field(default_factory=dict)
    relations: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "MappingConfig":
        if not isinstance(data, dict):
            raise MappingError("mapping config must be a mapping")
        config = cls(
            event_types={}, object_types={},
            relations={
                "event_to_object": [],
                "object_to_object": [],
                "event_to_object_attribute_value": [],
            },
        )
        for name, spec in (data.get("event_types") or {}).items():
            for required in ("source", "id_column", "timestamp_column"):
                if required not in spec:
                    raise MappingError(f"event type {name}: missing {required}")
            config.event_types[name] = {
                "source": spec["source"],
                "id_column": spec["id_column"],
                "timestamp_column": spec["timestamp_column"],
                "description_column": spec.get("description_column"),
                "attributes": {
                    attr: _attr_spec(attr, raw)
                    for attr, raw in (spec.get("attributes") or {}).items()
                },
            }
        for name, spec in (data.get("object_types") or {}).items():
            for required in ("source", "id_column"):
                if required not in spec:
                    raise MappingError(f"object type {name}: missing {required}")
            updates = []
            for update in spec.get("updates") or []:
                for required in ("source", "id_column", "timestamp_column",
                                 "attribute", "value_column"):
                    if required not in update:
                        raise MappingError(
                            f"object type {name} update: missing {required}"
                        )
                updates.append(dict(update))
            config.object_types[name] = {
                "source": spec["source"],
                "id_column": spec["id_column"],
                "description_column": spec.get("description_column"),
                "attribute_timestamp_column": spec.get("attribute_timestamp_column"),
                "attributes": {
                    attr: _attr_spec(attr, raw)
                    for attr, raw in (spec.get("attributes") or {}).items()
                },
                "updates": updates,
            }
        relations = data.get("relations") or {}
        for kind in config.relations:
            for spec in relations.get(kind) or []:
                required = ["source", "from_column", "to_column", "qualifier"]
                if kind == "event_to_object":
                    required += ["event_type", "object_type"]
                elif kind == "object_to_object":
                    required += ["from_object_type", "to_object_type"]
                else:
                    required += ["event_type", "object_type", "attribute",
                                 "timestamp_column"]
                for key in required:
                    if key not in spec:
                        raise MappingError(f"{kind} relation: missing {key}")
                if not str(spec["qualifier"]).strip():
                    raise MappingError(f"{kind} relation: empty qualifier")
                config.relations[kind].append(dict(spec))
        return config

    @classmethod
    def from_file(cls, path) -> "MappingConfig":
        import yaml  # only mapped ingests need it; keeps CLI start-up short

        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(yaml.safe_load(handle))


class _Sources:
    """Caches source CSVs and tracks which rows contributed hub rows."""

    def __init__(self, root: Path):
        self.root = root
        self._cache: dict = {}
        self.contributed: dict = {}

    def rows(self, name: str) -> list:
        if name not in self._cache:
            path = self.root / name
            if not path.exists():
                raise MappingError(f"missing source file: {name}")
            with open(path, newline="", encoding="utf-8") as handle:
                self._cache[name] = list(csv.DictReader(handle))
            self.contributed[name] = set()
        return self._cache[name]

    def lines(self, name: str, *columns):
        """(line number, row) of each row of ``name``, once the file is
        checked to have each of ``columns``, in the order given."""
        rows = self.rows(name)
        for column in columns:
            if rows and column not in rows[0]:
                raise MappingError(f"{name}: missing source column {column!r}")
        return enumerate(rows, start=2)

    def mark(self, name: str, line_no: int) -> None:
        self.contributed[name].add(line_no)


def _ts(value, context: str) -> str:
    try:
        return normalize_timestamp(value if value is not None else "")
    except TimestampError as exc:
        raise MappingError(f"{context}: {exc}") from exc


def import_mapped_csv(config: MappingConfig, sources) -> AppendableBatch:
    """Apply a mapping config to a directory of source CSVs."""
    if isinstance(config, (str, Path)):
        config = MappingConfig.from_file(config)
    root = Path(sources)
    if not root.is_dir():
        raise MappingError(f"not a directory: {root}")
    src = _Sources(root)
    batch = Batch()
    provenance: dict = {}
    skipped: list = []
    qualifiers: dict = {}

    def emit(table: str, file: str, line_no: int, **columns) -> None:
        row = batch.add(table, **columns)
        provenance[(table, row["id"])] = (file, line_no)
        src.mark(file, line_no)

    def add_qualifier(name: str) -> str:
        qualifiers[name] = True
        return f"q:{name}"

    for name, spec in sorted(config.event_types.items()):
        batch.add("event_types", id=f"et:{name}", description=name)
        for attr, attr_spec in sorted(spec["attributes"].items()):
            batch.add(
                "event_attributes",
                id=f"ea:{name}.{attr}",
                event_type_id=f"et:{name}",
                description=attr,
                datatype=attr_spec["datatype"],
            )
        file = spec["source"]
        seen_ids: set = set()
        for line_no, row in src.lines(
            file, spec["id_column"], spec["timestamp_column"],
            *(attr_spec["column"] for attr_spec in spec["attributes"].values()),
        ):
            raw_id = (row.get(spec["id_column"]) or "").strip()
            if not raw_id:
                skipped.append((file, line_no, "empty event id"))
                continue
            if raw_id in seen_ids:
                raise MappingError(
                    f"{file} line {line_no}: duplicate event id {raw_id!r}"
                )
            seen_ids.add(raw_id)
            timestamp = _ts(
                row.get(spec["timestamp_column"]), f"{file} line {line_no}"
            )
            description = None
            if spec["description_column"]:
                description = row.get(spec["description_column"])
            emit(
                "events", file, line_no,
                id=f"ev:{name}:{raw_id}",
                event_type_id=f"et:{name}",
                timestamp=timestamp,
                description=description,
            )
            for attr, attr_spec in sorted(spec["attributes"].items()):
                value = row.get(attr_spec["column"])
                if value is None or value == "":
                    continue
                emit(
                    "event_attribute_values", file, line_no,
                    id=f"eav:{name}:{raw_id}:{attr}",
                    event_id=f"ev:{name}:{raw_id}",
                    event_attribute_id=f"ea:{name}.{attr}",
                    attribute_value=value,
                )

    for name, spec in sorted(config.object_types.items()):
        batch.add("object_types", id=f"ot:{name}", description=name)
        declared_attrs = dict(spec["attributes"])
        for update in spec["updates"]:
            declared_attrs.setdefault(
                update["attribute"], {"column": None, "datatype": "string"}
            )
        for attr, attr_spec in sorted(declared_attrs.items()):
            batch.add(
                "object_attributes",
                id=f"oa:{name}.{attr}",
                object_type_id=f"ot:{name}",
                description=attr,
                datatype=attr_spec["datatype"],
            )
        file = spec["source"]
        seen_ids = set()
        for line_no, row in src.lines(
            file, spec["id_column"],
            *(attr_spec["column"] for attr_spec in spec["attributes"].values()),
            *filter(None, [spec["attribute_timestamp_column"]]),
        ):
            raw_id = (row.get(spec["id_column"]) or "").strip()
            if not raw_id:
                skipped.append((file, line_no, "empty object id"))
                continue
            if raw_id in seen_ids:
                raise MappingError(
                    f"{file} line {line_no}: duplicate object id {raw_id!r}"
                )
            seen_ids.add(raw_id)
            description = None
            if spec["description_column"]:
                description = row.get(spec["description_column"])
            emit(
                "objects", file, line_no,
                id=f"obj:{name}:{raw_id}",
                object_type_id=f"ot:{name}",
                description=description,
            )
            if spec["attribute_timestamp_column"]:
                value_ts = _ts(
                    row.get(spec["attribute_timestamp_column"]),
                    f"{file} line {line_no}",
                )
            else:
                value_ts = EPOCH_TS
            for attr, attr_spec in sorted(spec["attributes"].items()):
                value = row.get(attr_spec["column"])
                if value is None or value == "":
                    continue
                emit(
                    "object_attribute_values", file, line_no,
                    id=f"oav:{name}:{raw_id}:{attr}:{value_ts}",
                    object_id=f"obj:{name}:{raw_id}",
                    object_attribute_id=f"oa:{name}.{attr}",
                    timestamp=value_ts,
                    attribute_value=value,
                )
        for update in spec["updates"]:
            ufile = update["source"]
            attr = update["attribute"]
            for line_no, row in src.lines(
                ufile, update["id_column"], update["timestamp_column"],
                update["value_column"],
            ):
                raw_id = (row.get(update["id_column"]) or "").strip()
                if not raw_id:
                    skipped.append((ufile, line_no, "empty object id"))
                    continue
                value = row.get(update["value_column"])
                if value is None or value == "":
                    skipped.append((ufile, line_no, f"empty {attr} value"))
                    continue
                value_ts = _ts(
                    row.get(update["timestamp_column"]),
                    f"{ufile} line {line_no}",
                )
                emit(
                    "object_attribute_values", ufile, line_no,
                    id=f"oav:{name}:{raw_id}:{attr}:{value_ts}",
                    object_id=f"obj:{name}:{raw_id}",
                    object_attribute_id=f"oa:{name}.{attr}",
                    timestamp=value_ts,
                    attribute_value=value,
                )

    for spec in config.relations["event_to_object"]:
        file = spec["source"]
        qualifier_id = add_qualifier(spec["qualifier"])
        for line_no, row in src.lines(file, spec["from_column"], spec["to_column"]):
            from_val = (row.get(spec["from_column"]) or "").strip()
            to_val = (row.get(spec["to_column"]) or "").strip()
            if not from_val or not to_val:
                skipped.append(
                    (file, line_no, f"empty endpoint for {spec['qualifier']}")
                )
                continue
            emit(
                "event_to_object", file, line_no,
                id=f"e2o:{spec['event_type']}:{from_val}:"
                   f"{spec['object_type']}:{to_val}:{spec['qualifier']}",
                event_id=f"ev:{spec['event_type']}:{from_val}",
                object_id=f"obj:{spec['object_type']}:{to_val}",
                qualifier_id=qualifier_id,
                qualifier_value=spec["qualifier"],
            )

    for spec in config.relations["object_to_object"]:
        file = spec["source"]
        qualifier_id = add_qualifier(spec["qualifier"])
        for line_no, row in src.lines(
            file, spec["from_column"], spec["to_column"],
            *filter(None, [spec.get("timestamp_column")]),
        ):
            from_val = (row.get(spec["from_column"]) or "").strip()
            to_val = (row.get(spec["to_column"]) or "").strip()
            if not from_val or not to_val:
                skipped.append(
                    (file, line_no, f"empty endpoint for {spec['qualifier']}")
                )
                continue
            if spec.get("timestamp_column"):
                timestamp = _ts(
                    row.get(spec["timestamp_column"]), f"{file} line {line_no}"
                )
            else:
                timestamp = EPOCH_TS
            value = spec["qualifier"]
            if spec.get("value_column"):
                value = row.get(spec["value_column"]) or None
            emit(
                "object_to_object", file, line_no,
                id=f"o2o:{spec['from_object_type']}:{from_val}:"
                   f"{spec['to_object_type']}:{to_val}:"
                   f"{spec['qualifier']}:{timestamp}",
                source_object_id=f"obj:{spec['from_object_type']}:{from_val}",
                target_object_id=f"obj:{spec['to_object_type']}:{to_val}",
                timestamp=timestamp,
                qualifier_id=qualifier_id,
                qualifier_value=value,
            )

    for spec in config.relations["event_to_object_attribute_value"]:
        file = spec["source"]
        qualifier_id = add_qualifier(spec["qualifier"])
        for line_no, row in src.lines(
            file, spec["from_column"], spec["to_column"], spec["timestamp_column"],
        ):
            from_val = (row.get(spec["from_column"]) or "").strip()
            to_val = (row.get(spec["to_column"]) or "").strip()
            if not from_val or not to_val:
                skipped.append(
                    (file, line_no, f"empty endpoint for {spec['qualifier']}")
                )
                continue
            value_ts = _ts(
                row.get(spec["timestamp_column"]), f"{file} line {line_no}"
            )
            oav_id = (
                f"oav:{spec['object_type']}:{to_val}:"
                f"{spec['attribute']}:{value_ts}"
            )
            emit(
                "event_to_object_attribute_value", file, line_no,
                id=f"e2oav:{spec['event_type']}:{from_val}:{oav_id}:"
                   f"{spec['qualifier']}",
                event_id=f"ev:{spec['event_type']}:{from_val}",
                object_attribute_value_id=oav_id,
                qualifier_id=qualifier_id,
                qualifier_value=spec["qualifier"],
            )

    for name in sorted(qualifiers):
        batch.add(
            "relation_qualifiers", id=f"q:{name}", description=name,
            datatype="string",
        )

    # Totality: every source row either contributed or is in the summary.
    already = {(file, line) for file, line, _ in skipped}
    for file, marks in sorted(src.contributed.items()):
        total = len(src.rows(file))
        for line_no in range(2, total + 2):
            if line_no not in marks and (file, line_no) not in already:
                skipped.append((file, line_no, "no hub rows emitted"))

    batch.canonicalize()
    return AppendableBatch(
        batch=batch,
        format="mapped",
        source=str(root),
        provenance=provenance,
        skipped=sorted(skipped),
    )
