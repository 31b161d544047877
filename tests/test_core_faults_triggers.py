"""Unit tests for fault-model constructors and trigger helpers."""

import pytest

from repro.core.faults import (
    bit_flip,
    control_symbol_swap,
    force_one,
    force_zero,
    replace_bytes,
    toggle_bits,
)
from repro.core.triggers import header_trigger, pattern_trigger
from repro.errors import ConfigurationError
from repro.hw.injector import FifoInjector
from repro.hw.registers import CorruptMode, MatchMode
from repro.myrinet.packet import PACKET_TYPE_MAPPING
from repro.myrinet.symbols import (
    GAP, GO, STOP, Burst, data_symbol,
)


def apply(config, data):
    injector = FifoInjector()
    injector.configure(config)
    return injector.process_burst(Burst(data, b"\x01" * len(data))).values


class TestFaultModels:
    def test_replace_bytes(self):
        config = replace_bytes(b"\x18\x18", b"\x19\x18",
                               match_mode=MatchMode.ON)
        assert apply(config, b"..\x18\x18..") == b"..\x19\x18.."

    def test_replace_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            replace_bytes(b"ab", b"abc")

    def test_toggle_bits(self):
        config = toggle_bits(b"\xf0", b"\xff", match_mode=MatchMode.ON)
        assert apply(config, b"\xf0\x0f") == b"\x0f\x0f"

    def test_bit_flip_single_bit(self):
        config = bit_flip(b"\x00\x00", 9, match_mode=MatchMode.ON)
        out = apply(config, b"\x00\x00\x55")
        assert out[0] == 0x02  # bit 9 lives in the second-newest byte
        assert config.corrupt_mode is CorruptMode.TOGGLE

    def test_bit_flip_range_validated(self):
        with pytest.raises(ConfigurationError):
            bit_flip(b"\x00", 8)

    def test_force_zero(self):
        config = force_zero(b"\xff", b"\x0f", match_mode=MatchMode.ON)
        assert apply(config, b"\xff") == b"\xf0"

    def test_force_one(self):
        config = force_one(b"\x00", b"\xf0", match_mode=MatchMode.ON)
        assert apply(config, b"\x00") == b"\xf0"

    def test_control_symbol_swap_only_hits_control(self):
        config = control_symbol_swap(GAP, GO)
        injector = FifoInjector()
        injector.configure(config)
        stream = [data_symbol(GAP.value), GAP, data_symbol(1)]
        out = injector.process_burst(Burst.from_symbols(stream)).symbols()
        assert out[0] == data_symbol(GAP.value)  # data byte untouched
        assert out[1] == GO                       # control corrupted
        assert out[2] == data_symbol(1)

    def test_control_symbol_swap_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            control_symbol_swap(data_symbol(1), GO)


class TestTriggers:
    def test_pattern_trigger_full_mask(self):
        data, mask = pattern_trigger(b"\xde\xad")
        assert data == 0xDEAD
        assert mask == 0xFFFF

    def test_pattern_trigger_custom_mask(self):
        """Paper §3.3: 'any arbitrary number of bits between 0 and 32'."""
        data, mask = pattern_trigger(b"\xde\xad", mask=b"\xff\x0f")
        assert mask == 0xFF0F
        assert data == 0xDE0D

    def test_pattern_trigger_mask_length_checked(self):
        with pytest.raises(ConfigurationError):
            pattern_trigger(b"ab", mask=b"x")

    def test_header_trigger_uses_significant_bytes(self):
        data, mask = header_trigger(PACKET_TYPE_MAPPING)
        assert data == 0x0005
        assert mask == 0xFFFF

    def test_header_trigger_width_validated(self):
        with pytest.raises(ConfigurationError):
            header_trigger(PACKET_TYPE_MAPPING, significant_bytes=0)
        with pytest.raises(ConfigurationError):
            header_trigger(PACKET_TYPE_MAPPING, significant_bytes=5)

    def test_header_trigger_matches_on_wire(self):
        from repro.hw.registers import InjectorConfig
        data, mask = header_trigger(PACKET_TYPE_MAPPING)
        config = InjectorConfig(match_mode=MatchMode.ON,
                                compare_data=data, compare_mask=mask,
                                corrupt_mode=CorruptMode.TOGGLE,
                                corrupt_data=0x00FF)
        wire = (0x0005).to_bytes(4, "big") + b"payload"
        out = apply(config, wire)
        assert out[3] == 0x05 ^ 0xFF
