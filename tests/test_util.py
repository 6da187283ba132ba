import random
import re
from datetime import datetime

import pytest

from ochub import util
from ochub.quality import run_checkpoint
from ochub.schema import Batch
from ochub.util import (
    TimestampError,
    is_valid_timestamp,
    normalize_timestamp,
    parse_timestamp,
)

# text whose UTC instant falls before year 1 or after year 9999
OUT_OF_RANGE = ("0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00")

# fractions of a second that only Python 3.11 and later read as they stand
FRACTIONS = [
    ("2023-12-20T07:00:00.5Z", "07:00:00.500000"),
    ("2023-12-20T07:00:00.25+01:00", "06:00:00.250000"),
    ("2023-12-20T07:00:00.1234Z", "07:00:00.123400"),
    ("2023-12-20T07:00:00.12345-00:30", "07:30:00.123450"),
    ("2023-12-20T07:00:00.1234567Z", "07:00:00.123456"),
    ("2023-12-20T07:00:00,5Z", "07:00:00.500000"),
    ("2023-12-20 07:00.5", "07:00:00.500000"),
]


class _Python310Datetime(datetime):
    """A datetime whose fromisoformat reads a fraction of a second as
    Python 3.10's does: "." and then 3 or 6 digits."""

    @classmethod
    def fromisoformat(cls, text):
        fraction = re.search(r"[.,](\d*)(?=[+-]|\Z)", text)
        if fraction and (fraction[0][0] == "," or len(fraction[1]) not in (3, 6)):
            raise ValueError(f"Invalid isoformat string: {text!r}")
        return datetime.fromisoformat(text)


class TestTimestamps:
    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_out_of_range_utc_instant_is_a_timestamp_error(self, text):
        with pytest.raises(TimestampError):
            parse_timestamp(text)
        with pytest.raises(TimestampError):
            normalize_timestamp(text)
        assert is_valid_timestamp(text) is False

    @pytest.mark.parametrize("text, time", FRACTIONS)
    def test_any_fraction_of_a_second_is_read(self, monkeypatch, text, time):
        instant = datetime.fromisoformat(f"2023-12-20T{time}+00:00")
        assert parse_timestamp(text) == instant
        # and read so under Python 3.10's fromisoformat too
        monkeypatch.setattr(util, "datetime", _Python310Datetime)
        assert parse_timestamp(text) == instant

    def test_canonical_looking_invalid_text_is_rejected(self):
        with pytest.raises(TimestampError):
            normalize_timestamp("2024-13-45T99:99:99.999Z")

    def test_trailing_newline_is_normalized_away(self):
        # canonical text up to a final newline is not canonical text
        assert normalize_timestamp("2024-01-01T00:00:00.000Z\n") == \
            "2024-01-01T00:00:00.000Z"

    def test_years_below_1000_are_zero_padded(self):
        assert normalize_timestamp("0999-01-01T00:00:00+00:00") == \
            "0999-01-01T00:00:00.000Z"
        # text order stays time order across the 1000 boundary
        assert normalize_timestamp("0999-12-31T23:59:59Z") < \
            normalize_timestamp("1000-01-01T00:00:00Z")

    def test_canonical_shaped_text_is_valid_as_the_full_parse_says(self):
        """``is_valid_timestamp`` reads canonical-shaped text by its date
        and time alone: seeded texts of that shape, with impossible dates,
        hour 24, second 60, year 0000 and a trailing newline or space,
        are valid exactly when ``parse_timestamp`` reads them."""
        rng = random.Random(27)

        def part(width, *edges):
            return rng.choice([*edges, f"{rng.randrange(10 ** width):0{width}d}"])

        texts = [
            f"{part(4, '0000', '0001', '2024', '2023', '9999')}-"
            f"{part(2, '00', '02', '12', '13')}-"
            f"{part(2, '00', '28', '29', '30', '31', '32')}T{part(2, '23', '24')}:"
            f"{part(2, '59', '60')}:{part(2, '59', '60')}.{part(3)}Z"
            f"{rng.choice(['', '', '', chr(10), ' '])}"
            for _ in range(400)
        ]

        def parses(text):
            try:
                parse_timestamp(text)
            except TimestampError:
                return False
            return True

        verdicts = [is_valid_timestamp(text) == parses(text) for text in texts]
        assert all(verdicts), [t for t, ok in zip(texts, verdicts) if not ok]
        assert 0 < sum(map(parses, texts)) < len(texts)

    def test_staging_flags_out_of_range_timestamp(self, store):
        b = Batch()
        b.add("event_types", id="et:a", description="a")
        for i, text in enumerate(OUT_OF_RANGE):
            b.add("events", id=f"ev:{i}", event_type_id="et:a",
                  timestamp=text, description=None)
        report = run_checkpoint(b, "staging", store=store)
        assert not report.passed
        assert {(v.check, v.table, v.key) for v in report.violations} == {
            ("timestamp_validity", "events", "ev:0"),
            ("timestamp_validity", "events", "ev:1"),
        }
