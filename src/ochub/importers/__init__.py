"""Converters from external formats into hub batches.

Importers are pure functions from input files to an AppendableBatch: the
same inputs always produce the same rows, and row ids are deterministic and
namespaced so re-importing (and re-appending) is a no-op.

Ids are built as below. An event's or object's key is
``<type>:<source id>`` in a mapped CSV import and its ``ocel_id`` in an
OCEL 2.0 import; ``<ts>`` is a normalized timestamp, ``<q>`` a qualifier.

  types ``et:<type>``, ``ot:<type>``; attributes ``ea:<type>.<attr>``,
  ``oa:<type>.<attr>``; qualifiers ``q:<q>``; events ``ev:<event>``,
  objects ``obj:<object>``; values ``eav:<event>:<attr>``,
  ``oav:<object>:<attr>:<ts>``; relations ``e2o:<event>:<object>:<q>``,
  ``o2o:<object>:<object>:<q>`` (mapped: then ``:<ts>``) and
  ``e2oav:<event>:<oav id>:<q>`` (mapped only).

Hub CSV keeps the ids it carries. ``add_type`` and ``add_qualifiers`` emit
the type, attribute definition and qualifier rows of both other importers.
Each importer's module is imported on first use of its name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ochub.schema import Batch
from ochub.util import FormatError, lazy_names


class ImportError_(FormatError):
    """An input file does not match the expected layout or content."""


@dataclass
class AppendableBatch:
    """A hub batch and the source rows that produced no hub row.

    ``skipped`` lists those rows as (source file, line, reason), so nothing
    is dropped silently.
    """

    batch: Batch
    skipped: list = field(default_factory=list)


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


def add_qualifiers(batch: Batch, names) -> None:
    """Add one relation qualifier row per name, in name order."""
    for name in sorted(names):
        batch.add(
            "relation_qualifiers", id=f"q:{name}", description=name,
            datatype="string",
        )


__getattr__ = lazy_names(__name__, {
    "import_hub_csv": "ochub.importers.hubcsv",
    "import_ocel2": "ochub.importers.ocel2",
    "MappingConfig": "ochub.importers.mapped",
    "import_mapped_csv": "ochub.importers.mapped",
})

__all__ = [
    "AppendableBatch",
    "ImportError_",
    "add_qualifiers",
    "add_type",
    "import_hub_csv",
    "import_ocel2",
    "MappingConfig",
    "import_mapped_csv",
]
