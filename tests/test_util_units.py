"""Tests for repro.util.units: pegasus-statistics style durations."""

from repro.util.units import format_duration


class TestFormatDuration:
    def test_paper_sandhills_n10_walltime(self):
        # 41,593 s is the paper's Sandhills n=10 wall time.
        assert format_duration(41593) == "11 hrs, 33 mins"

    def test_serial_100_hours(self):
        assert format_duration(360000) == "4 days, 4 hrs"

    def test_sub_minute(self):
        assert format_duration(42) == "42 secs"

    def test_sub_minute_precision(self):
        assert format_duration(59.44, precision=1) == "59.4 secs"

    def test_exact_minutes(self):
        assert format_duration(120) == "2 mins"

    def test_minutes_and_seconds(self):
        assert format_duration(150) == "2 mins, 30 secs"

    def test_exact_hours(self):
        assert format_duration(7200) == "2 hrs"

    def test_exact_days(self):
        assert format_duration(86400 * 2) == "2 days"

    def test_negative(self):
        assert format_duration(-120) == "-2 mins"

    def test_zero(self):
        assert format_duration(0) == "0 secs"
