"""Timestamp handling, the CSV reader, file replacement, the shared
failure types and small helpers.

All timestamps inside the hub are stored as RFC 3339 UTC text with
millisecond precision ("2024-01-02T03:04:05.678Z"). The fixed-width format
makes lexicographic order equal to chronological order, which the ordered
queries rely on. ``normalize_timestamp`` is the hub's one timestamp reader,
the same on every supported Python; ``is_valid_timestamp`` is whether it reads.

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

_CANONICAL_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z\Z", re.ASCII)
# the grammar of all other timestamp text (``parse_timestamp``)
_TIMESTAMP_RE = re.compile(
    r"(\d{4}-\d{2}-\d{2})(?:[Tt ](\d{2}(?::\d{2}(?::\d{2})?)?)(?:[.,](\d+))?"
    r"([Zz]|[+-]\d{2}:\d{2}(?::\d{2}(?:\.\d{6})?)?)?)?", re.ASCII)


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
    """Parse a timestamp into an aware UTC datetime: a datetime (naive is
    UTC), or text of one grammar that every supported Python reads alike,
    surrounding white space ignored: ``YYYY-MM-DD``, then optionally "T",
    "t" or " " and ``HH[:MM[:SS]]``, a fraction ("." or "," and digits, cut
    to microseconds) and a zone ("Z", "z" or ``±HH:MM[:SS[.ffffff]]``; none
    is UTC)."""
    if isinstance(value, datetime):
        dt = value.replace(tzinfo=timezone.utc) if value.tzinfo is None else value
    elif isinstance(value, str):
        text = value.strip()
        match = _TIMESTAMP_RE.fullmatch(text)
        if match is None:
            raise TimestampError(f"unparseable timestamp: {value!r}" if text
                                 else "empty timestamp")
        date, time, fraction, zone = match.groups()
        time = f"{time or '00'}:00:00"[:8]
        zone = "+00:00" if zone in (None, "Z", "z") else zone
        try:  # the one form fromisoformat reads alike on every version
            dt = datetime.fromisoformat(f"{date}T{time}.{fraction or '':0<6.6}{zone}")
        except ValueError as exc:
            raise TimestampError(f"unparseable timestamp: {value!r}") from exc
    else:
        raise TimestampError(f"unsupported timestamp type: {type(value).__name__}")
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError as exc:  # the UTC instant falls outside years 1-9999
        raise TimestampError(f"timestamp out of range: {value!r}") from exc


def _read_timestamp(value):
    """``value`` itself if it is canonical text (UTC already: reading its
    date and time is the whole parse), else ``parse_timestamp(value)``."""
    if isinstance(value, str) and _CANONICAL_RE.match(value):
        try:
            datetime.fromisoformat(value[:-1])
            return value
        except ValueError:
            pass  # parse_timestamp raises for it
    return parse_timestamp(value)


def normalize_timestamp(value) -> str:
    """Render a timestamp as canonical RFC 3339 UTC text (ms precision,
    four-digit year); canonical text is returned as it is."""
    read = _read_timestamp(value)
    if isinstance(read, str):
        return read
    return read.isoformat(timespec="milliseconds").replace("+00:00", "Z")


def is_valid_timestamp(value) -> bool:
    """Whether ``normalize_timestamp`` reads the text ``value``, without
    formatting what it reads."""
    if not isinstance(value, str):
        return False
    try:
        _read_timestamp(value)
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
