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
    """A hub batch and the source rows that produced no hub row.

    ``skipped`` lists those rows as (source file, line, reason), so nothing
    is dropped silently.
    """

    batch: Batch
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
