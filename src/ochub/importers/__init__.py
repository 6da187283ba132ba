"""Converters from external formats into hub batches.

Importers are pure functions from input files to an AppendableBatch: the
same inputs always produce the same rows, and row ids are deterministic and
namespaced so re-importing (and re-appending) is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ochub.schema import Batch


class ImportError_(Exception):
    """An input file does not match the expected layout or content."""


@dataclass
class AppendableBatch:
    """A hub batch tagged with where it came from.

    ``provenance`` maps (table, row id) to (source file, row number) when
    the importer can say; ``skipped`` lists source rows that produced no hub
    row, with the reason, so nothing is dropped silently.
    """

    batch: Batch
    format: str
    source: str
    provenance: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)


from ochub.importers.hubcsv import import_hub_csv
from ochub.importers.ocel2 import import_ocel2
from ochub.importers.mapped import MappingConfig, import_mapped_csv

__all__ = [
    "AppendableBatch",
    "ImportError_",
    "import_hub_csv",
    "import_ocel2",
    "MappingConfig",
    "import_mapped_csv",
]
