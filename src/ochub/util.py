"""Timestamp handling, the CSV reader, file replacement, the shared
failure types and small helpers.

All timestamps inside the hub are stored as RFC 3339 UTC text with
millisecond precision ("2024-01-02T03:04:05.678Z"). The fixed-width format
makes lexicographic order equal to chronological order, which the ordered
queries rely on.

Every CSV input (hub CSV, mapped sources, graph directories) is read by
``read_csv``, with one set of rules and errors (``ImportError_``). Every
single output file (each CSV, the OCEL 2.0 log, a quality report) is
written through ``replacing``.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import os
import re
from datetime import datetime, timezone

EPOCH_TS = "1970-01-01T00:00:00.000Z"

_CANONICAL_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z\Z")
# a fraction of a second before the offset or the end: Python 3.10's
# fromisoformat reads only "." and 3 or 6 digits there, 3.11 and later also
# "," and any number of digits (cut to 6)
_FRACTION_RE = re.compile(r"(?<=\d\d)([.,])(\d+)(?=[+-]|\Z)")


class TimestampError(ValueError):
    """Raised when a value cannot be interpreted as a timestamp."""


class FormatError(Exception):
    """An input cannot be read, or an output cannot be written, in its
    interchange format (the importers' and exporters' errors)."""


class ImportError_(FormatError):
    """An input file does not match the expected layout or content."""


class QualityFailure(Exception):
    """A quality checkpoint failed; ``report`` is its QualityReport."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())


@contextlib.contextmanager
def replacing(path):
    """Yield a temporary path beside ``path`` to write, renamed onto
    ``path`` once the block completes; an exception removes it and leaves
    whatever ``path`` held before. A temporary file left by a killed run is
    deleted first, as SQLite would open it rather than start afresh."""
    temp = f"{os.fspath(path)}.tmp"
    with contextlib.suppress(FileNotFoundError):
        os.remove(temp)
    try:
        yield temp
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise


def not_utf8(name: str, data: bytes) -> str:
    """``<name> line <n>: byte 0x<hh> is not UTF-8`` for the first byte of
    ``data`` (the content of file ``name``) that UTF-8 cannot decode."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{name} line {line}: byte 0x{data[exc.start]:02x} is not UTF-8"
    return f"{name}: not UTF-8"


def read_csv(path, name: str) -> tuple:
    """(columns, rows) of the UTF-8 CSV file at Path ``path``, a leading
    byte-order mark ignored. ``columns`` maps each header name to the
    position of its cell, or to None for a name the header repeats.
    ``rows`` holds a (line, cells) pair per record, blank lines left out:
    ``line`` is the line of the file the record starts on, and ``cells`` a
    list at least as wide as the header, the cells a short record lacks
    None. A byte that is not UTF-8, or a record the csv module rejects (a
    field over its size limit), raises ImportError_ naming the file as
    ``name`` and the line."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            width = len(header)
            rows = []
            start = reader.line_num + 1
            for cells in reader:
                if cells:
                    if len(cells) < width:
                        cells += [None] * (width - len(cells))
                    rows.append((start, cells))
                start = reader.line_num + 1
        except UnicodeDecodeError:
            raise ImportError_(not_utf8(name, path.read_bytes())) from None
        except csv.Error as exc:
            raise ImportError_(f"{name} line {reader.line_num}: {exc}") from exc
    columns: dict = {}
    for i, column in enumerate(header):
        columns[column] = None if column in columns else i
    return columns, rows


def parse_timestamp(value) -> datetime:
    """Parse a timestamp into an aware UTC datetime.

    Accepts datetime objects and ISO-8601 / RFC 3339 text (with 'Z',
    an explicit offset, or no offset at all, in which case UTC is assumed).
    """
    if isinstance(value, datetime):
        dt = value
    elif isinstance(value, str):
        text = value.strip()
        if not text:
            raise TimestampError("empty timestamp")
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        fraction = _FRACTION_RE.search(text)
        if fraction and (fraction[1] == "," or len(fraction[2]) not in (3, 6)):
            # six digits, read as the same instant on every Python version
            text = (f"{text[:fraction.start()]}.{fraction[2][:6]:0<6}"
                    f"{text[fraction.end():]}")
        try:
            dt = datetime.fromisoformat(text)
        except ValueError as exc:
            raise TimestampError(f"unparseable timestamp: {value!r}") from exc
    else:
        raise TimestampError(
            f"unsupported timestamp type: {type(value).__name__}"
        )
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError as exc:  # the UTC instant falls outside years 1-9999
        raise TimestampError(f"timestamp out of range: {value!r}") from exc


def normalize_timestamp(value) -> str:
    """Render a timestamp as canonical RFC 3339 UTC text (ms precision,
    four-digit year). Canonical-looking text is still checked to parse."""
    dt = parse_timestamp(value)
    if isinstance(value, str) and _CANONICAL_RE.match(value):
        return value
    return dt.isoformat(timespec="milliseconds").replace("+00:00", "Z")


def is_valid_timestamp(value) -> bool:
    """Whether ``parse_timestamp`` reads ``value``. Canonical text is UTC
    already, with no offset and no fraction to rewrite, so reading its date
    and time is the whole test."""
    if not isinstance(value, str):
        return False
    if _CANONICAL_RE.match(value):
        try:
            datetime.fromisoformat(value[:-1])
        except ValueError:
            return False
        return True
    try:
        parse_timestamp(value)
    except TimestampError:
        return False
    return True


def row_dicts(cursor):
    """The rows of a sqlite3 cursor as dicts keyed by column name."""
    names = [column[0] for column in cursor.description]
    return (dict(zip(names, row)) for row in cursor)


def sanitize_name(name) -> str:
    """Lowercase a type name and map non-alphanumerics to underscores; an
    empty or None name (a store row with a NULL name) gives "unnamed"."""
    cleaned = re.sub(r"[^0-9a-zA-Z]+", "_", (name or "").strip().lower()).strip("_")
    return cleaned or "unnamed"


def dedupe_name(name: str, taken: set) -> str:
    """Resolve sanitization collisions with a numeric suffix."""
    candidate = name
    counter = 2
    while candidate in taken:
        candidate = f"{name}_{counter}"
        counter += 1
    taken.add(candidate)
    return candidate


def lazy_names(module: str, sources: dict):
    """A module-level ``__getattr__`` (PEP 562) for ``module`` that gives each
    name of ``sources`` from the module it maps to, imported on first use."""

    def __getattr__(name):
        if name not in sources:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(sources[name]), name)

    return __getattr__
