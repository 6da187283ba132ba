import pytest

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


class TestTimestamps:
    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_out_of_range_utc_instant_is_a_timestamp_error(self, text):
        with pytest.raises(TimestampError):
            parse_timestamp(text)
        with pytest.raises(TimestampError):
            normalize_timestamp(text)
        assert is_valid_timestamp(text) is False

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
