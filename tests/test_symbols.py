"""Unit tests for Myrinet symbols and control-symbol decoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.myrinet.symbols import (
    GAP,
    GAP_VALUE,
    GO,
    GO_VALUE,
    IDLE,
    IDLE_VALUE,
    STOP,
    STOP_VALUE,
    Symbol,
    control_symbol,
    data_symbol,
    data_symbols,
    decode_control,
    hamming_distance,
    is_control,
    is_data,
    min_control_distance,
    symbol_bytes,
)


def test_paper_encodings():
    """Paper §4.3.1: STOP=0x0F, GO=0x03, GAP=0x0C."""
    assert STOP.value == 0x0F
    assert GO.value == 0x03
    assert GAP.value == 0x0C


def test_control_symbols_have_dc_bit_clear():
    for symbol in (STOP, GO, GAP, IDLE):
        assert is_control(symbol)
        assert not symbol.is_data


def test_data_symbols_interned():
    assert data_symbol(0x42) is data_symbol(0x42)
    assert data_symbol(0x42).is_data


def test_control_symbols_interned():
    assert control_symbol(STOP_VALUE) is STOP


def test_data_and_control_same_value_differ():
    assert data_symbol(STOP_VALUE) != STOP
    assert hash(data_symbol(STOP_VALUE)) != hash(STOP)


def test_symbol_immutable():
    with pytest.raises(AttributeError):
        STOP.value = 1  # type: ignore[misc]


def test_symbol_value_range():
    with pytest.raises(ValueError):
        Symbol(True, 256)
    with pytest.raises(ValueError):
        Symbol(False, -1)


def test_repr_and_name():
    assert repr(STOP) == "C(STOP)"
    assert STOP.name == "STOP"
    assert repr(data_symbol(0x18)) == "D(0x18)"
    assert control_symbol(0x55).name == "0x55"


def test_symbol_bytes_extracts_data_only():
    stream = [data_symbol(1), GAP, data_symbol(2), STOP, data_symbol(3)]
    assert symbol_bytes(stream) == bytes([1, 2, 3])


def test_data_symbols_builder():
    stream = data_symbols(b"\x01\x02")
    assert [s.value for s in stream] == [1, 2]
    assert all(s.is_data for s in stream)


def test_min_control_distance_at_least_two():
    """Paper: Hamming distance of at least two between control symbols."""
    assert min_control_distance() >= 2


def test_hamming_distance():
    assert hamming_distance(0x0F, 0x03) == 2
    assert hamming_distance(0xFF, 0x00) == 8
    assert hamming_distance(0x55, 0x55) == 0


class TestDecodeControl:
    def test_exact_values_decode(self):
        assert decode_control(STOP_VALUE) is STOP
        assert decode_control(GO_VALUE) is GO
        assert decode_control(GAP_VALUE) is GAP
        assert decode_control(IDLE_VALUE) is IDLE

    def test_paper_example_0x02_decodes_as_go(self):
        """Paper §4.3.1: "0x02 will be interpreted as GO"."""
        assert decode_control(0x02) is GO

    def test_0x08_decodes_as_gap_documenting_paper_erratum(self):
        """The paper says 0x08 reads as STOP, but 0x08 is a single 1->0
        fault of GAP (0x0C) and three flips from STOP (0x0F); the
        principled single-fault rule decodes it as GAP (see DESIGN.md)."""
        assert hamming_distance(0x08, GAP_VALUE) == 1
        assert hamming_distance(0x08, STOP_VALUE) == 3
        assert decode_control(0x08) is GAP

    def test_single_one_to_zero_faults_recoverable(self):
        for parent in (STOP_VALUE, GO_VALUE, GAP_VALUE):
            for bit in range(8):
                if not parent & (1 << bit):
                    continue
                faulted = parent & ~(1 << bit)
                decoded = decode_control(faulted)
                # Either recovered to the parent or ambiguous (None) —
                # never mis-decoded to a *different* parent that cannot
                # produce this value by a single 1->0 fault.
                if decoded is not None and decoded.value != parent:
                    assert hamming_distance(decoded.value, faulted) == 1
                    assert (decoded.value & faulted) == faulted

    def test_garbage_is_undecodable(self):
        assert decode_control(0xFF) is None
        assert decode_control(0xA5) is None

    @given(st.integers(min_value=0, max_value=255))
    def test_decode_never_raises(self, value):
        result = decode_control(value)
        assert result is None or is_control(result)


def test_decode_control_table_matches_rule_exhaustively():
    """The 256-entry lookup equals the single-1->0-fault rule it is
    built from, and out-of-range values stay undecodable."""
    from repro.myrinet.symbols import _decode_control_rule

    for value in range(256):
        assert decode_control(value) is _decode_control_rule(value), value
    for value in (-1, -256, 256, 0x1FF, 10**6):
        assert decode_control(value) is None
