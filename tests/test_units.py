"""Tests for SPICE value parsing and engineering formatting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.units import SUFFIX_SCALE, format_si, format_value, parse_value


class TestParseValue:
    @pytest.mark.parametrize("text,expected", [
        ("30p", 30e-12),
        ("30pF", 30e-12),
        ("1k", 1e3),
        ("4.7kohm", 4.7e3),
        ("2.5meg", 2.5e6),
        ("2.5MEG", 2.5e6),
        ("100n", 100e-9),
        ("10u", 10e-6),
        ("3m", 3e-3),
        ("7x", 7e6),
        ("1g", 1e9),
        ("2t", 2e12),
        ("5f", 5e-15),
        ("1a", 1e-18),
        ("1e-12", 1e-12),
        ("-3.3", -3.3),
        ("+2.0e3", 2000.0),
        (".5", 0.5),
        ("1mil", 25.4e-6),
    ])
    def test_suffixes(self, text, expected):
        assert parse_value(text) == pytest.approx(expected)

    def test_passthrough_numbers(self):
        assert parse_value(42) == 42.0
        assert parse_value(3.14) == 3.14

    def test_unknown_letter_ignored(self):
        # SPICE ignores unit letters it does not recognize.
        assert parse_value("10ohm") == 10.0
        assert parse_value("5V") == 5.0

    @pytest.mark.parametrize("text", ["", "abc", "1.2.3", "--3", "k10"])
    def test_invalid(self, text):
        with pytest.raises(ParseError):
            parse_value(text)

    def test_case_insensitive(self):
        assert parse_value("30P") == parse_value("30p")
        assert parse_value("1K") == parse_value("1k")


class TestFormatValue:
    @pytest.mark.parametrize("value,expected", [
        (0.0, "0"),
        (3.3e-12, "3.3p"),
        (1000.0, "1k"),
        (2.5e6, "2.5meg"),
        (1e-9, "1n"),
        (47e-15, "47f"),
    ])
    def test_roundtrippable_formats(self, value, expected):
        assert format_value(value) == expected

    def test_out_of_table_falls_back(self):
        text = format_value(1e30)
        assert "e+30" in text or "1e30" in text

    def test_format_si_with_unit(self):
        assert format_si(30e-12, "F") == "30pF"
        assert format_si(1e3) == "1k"

    def test_nan_inf(self):
        assert "inf" in format_value(float("inf"))
        assert "nan" in format_value(float("nan"))


class TestRoundTrip:
    @given(st.floats(min_value=1e-17, max_value=1e13),
           st.sampled_from(list("afpnumk") + ["meg", "g", "t"]))
    @settings(max_examples=150, deadline=None)
    def test_parse_of_formatted_suffix_values(self, mantissa, suffix):
        text = f"{mantissa:.12g}{suffix}"
        expected = mantissa * SUFFIX_SCALE[suffix]
        assert parse_value(text) == pytest.approx(expected, rel=1e-9)

    @given(st.floats(min_value=1e-15, max_value=1e12))
    @settings(max_examples=150, deadline=None)
    def test_format_then_parse(self, value):
        assert parse_value(format_value(value, digits=9)) == pytest.approx(
            value, rel=1e-6)
