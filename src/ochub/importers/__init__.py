"""Converters from external formats into hub batches.

Importers are pure functions from input files to an AppendableBatch: the
same inputs always produce the same rows, and row ids are deterministic and
namespaced so re-importing (and re-appending) is a no-op.

Every row of the mapped CSV and OCEL 2.0 importers comes from the emitter
below that holds its part of the id scheme. An event's or object's key is
``<type>:<source id>`` in a mapped CSV import and its ``ocel_id`` in an
OCEL 2.0 import; ``<ts>`` is a normalized timestamp, ``<q>`` a qualifier.

  add_type          ``et:<type>``, ``ot:<type>``; attributes ``ea:<type>.<attr>``,
                    ``oa:<type>.<attr>``
  add_qualifiers    ``q:<q>``
  add_event         ``ev:<event>``
  add_object        ``obj:<object>``
  add_event_value   ``eav:<event>:<attr>``
  add_object_value  ``oav:<object>:<attr>:<ts>``, from ``object_value_id``
  add_e2o           ``e2o:<event>:<object>:<q>``
  add_e2oav         ``e2oav:<event>:<oav id>:<q>`` (mapped only)
  add_o2o           ``o2o:<object>:<object>:<q>``, then ``:<ts>`` if given
                    one (mapped); without one it starts at ``EPOCH_TS``

Hub CSV keeps the ids it carries. Each importer's module is imported on
first use of its name. ``read_csv``, ``not_utf8`` and ``ImportError_`` are
``ochub.util``'s, shared with the graph checkpoint.
"""

from __future__ import annotations

import sys

from ochub.schema import Batch
from ochub.util import EPOCH_TS, ImportError_, lazy_names, not_utf8, read_csv


class AppendableBatch:
    """A hub batch and the source rows that produced no hub row.

    ``skipped`` lists those rows as (source file, line, reason), so nothing
    is dropped silently.
    """

    def __init__(self, batch: Batch, skipped=None):
        self.batch = batch
        self.skipped = [] if skipped is None else skipped


def add_type(batch: Batch, kind: str, name: str, attributes) -> None:
    """Add the row of type ``name`` (``kind`` "event" or "object") and one
    attribute definition row per (attribute name, datatype) of
    ``attributes``, in the order given."""
    letter = kind[0]
    type_id = f"{letter}t:{name}"
    batch.add(f"{kind}_types", id=type_id, description=name)
    for attribute, datatype in attributes:
        batch.add(
            f"{kind}_attributes",
            id=f"{letter}a:{name}.{attribute}",
            description=attribute,
            datatype=datatype,
            **{f"{kind}_type_id": type_id},
        )


def _qualifier_id(qualifier) -> str:
    """``q:<qualifier>``, one shared string per qualifier for all its rows."""
    return sys.intern(f"q:{qualifier}")


def add_qualifiers(batch: Batch, names) -> None:
    """Add one relation qualifier row per name, in name order."""
    for name in sorted(names):
        batch.add(
            "relation_qualifiers", id=_qualifier_id(name), description=name,
            datatype="string",
        )


def add_event(batch: Batch, key: str, type_name: str, timestamp,
              description=None) -> None:
    batch.add("events", id=f"ev:{key}", event_type_id=f"et:{type_name}",
              timestamp=timestamp, description=description)


def add_object(batch: Batch, key: str, type_name: str, description=None) -> None:
    batch.add("objects", id=f"obj:{key}", object_type_id=f"ot:{type_name}",
              description=description)


def add_event_value(batch: Batch, key: str, type_name: str, attribute: str,
                    value) -> None:
    batch.add("event_attribute_values", id=f"eav:{key}:{attribute}",
              event_id=f"ev:{key}", event_attribute_id=f"ea:{type_name}.{attribute}",
              attribute_value=value)


def object_value_id(key: str, attribute: str, timestamp: str) -> str:
    return f"oav:{key}:{attribute}:{timestamp}"


def add_object_value(batch: Batch, key: str, type_name: str, attribute: str,
                     timestamp: str, value) -> None:
    batch.add("object_attribute_values", id=object_value_id(key, attribute, timestamp),
              object_id=f"obj:{key}", object_attribute_id=f"oa:{type_name}.{attribute}",
              timestamp=timestamp, attribute_value=value)


def add_e2o(batch: Batch, event_key: str, object_key: str, qualifier) -> None:
    batch.add("event_to_object", id=f"e2o:{event_key}:{object_key}:{qualifier}",
              event_id=f"ev:{event_key}", object_id=f"obj:{object_key}",
              qualifier_id=_qualifier_id(qualifier), qualifier_value=qualifier)


def add_e2oav(batch: Batch, event_key: str, value_id: str, qualifier) -> None:
    batch.add("event_to_object_attribute_value",
              id=f"e2oav:{event_key}:{value_id}:{qualifier}",
              event_id=f"ev:{event_key}", object_attribute_value_id=value_id,
              qualifier_id=_qualifier_id(qualifier), qualifier_value=qualifier)


def add_o2o(batch: Batch, source_key: str, target_key: str, qualifier, value,
            timestamp=None) -> None:
    row_id = f"o2o:{source_key}:{target_key}:{qualifier}"
    if timestamp is None:
        timestamp = EPOCH_TS
    else:
        row_id = f"{row_id}:{timestamp}"
    batch.add("object_to_object", id=row_id, source_object_id=f"obj:{source_key}",
              target_object_id=f"obj:{target_key}", timestamp=timestamp,
              qualifier_id=_qualifier_id(qualifier), qualifier_value=value)


__getattr__ = lazy_names(__name__, {
    "import_hub_csv": "ochub.importers.hubcsv",
    "import_ocel2": "ochub.importers.ocel2",
    "MappingConfig": "ochub.importers.mapped",
    "import_mapped_csv": "ochub.importers.mapped",
})

__all__ = [
    "AppendableBatch", "ImportError_", "MappingConfig", "add_e2o", "add_e2oav",
    "add_event", "add_event_value", "add_o2o", "add_object", "add_object_value",
    "add_qualifiers", "add_type", "import_hub_csv", "import_mapped_csv",
    "import_ocel2", "not_utf8", "object_value_id", "read_csv",
]
