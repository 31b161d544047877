"""Unit and property tests for the FIFO injector entity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.injector import DEFAULT_PIPELINE_DEPTH, FifoInjector
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.core.faults import replace_bytes, toggle_bits
from repro.myrinet.symbols import (
    Burst,
    GAP,
    STOP,
    Symbol,
    control_symbol,
    data_symbol,
    data_symbols,
    symbol_bytes,
)


def run_stream(injector, symbols):
    """Push a stream through step() and return the full output."""
    out = []
    for symbol in symbols:
        result = injector.step(symbol)
        if result is not None:
            out.append(result)
    out.extend(injector.fifo.drain())
    return out


class TestPipelineBasics:
    def test_transparent_when_disarmed(self):
        injector = FifoInjector()
        stream = data_symbols(b"network traffic goes through untouched")
        assert run_stream(injector, stream) == stream

    def test_pipeline_delay_in_symbols(self):
        injector = FifoInjector(pipeline_depth=8)
        outputs = [injector.step(data_symbol(i)) for i in range(10)]
        assert outputs[:8] == [None] * 8          # pipeline filling
        assert outputs[8].value == 0               # first symbol emerges
        assert outputs[9].value == 1

    def test_minimum_depth_enforced(self):
        with pytest.raises(ValueError):
            FifoInjector(pipeline_depth=3)

    def test_two_cycles_per_symbol(self):
        injector = FifoInjector()
        run_stream(injector, data_symbols(b"12345"))
        assert injector.clock.cycles == 10
        assert injector.symbols_processed == 5


class TestMatchAndCorrupt:
    def test_replace_scenario_from_paper(self):
        """Paper §3.3's typical scenario: match 0x1818, replace 0x1918."""
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\x18\x18", b"\x19\x18",
                                         match_mode=MatchMode.ON))
        stream = data_symbols(b"\x00\x01\x18\x18\x02\x03")
        out = run_stream(injector, stream)
        assert symbol_bytes(out) == b"\x00\x01\x19\x18\x02\x03"
        assert injector.injections == 1

    def test_toggle_mode_xors_bits(self):
        injector = FifoInjector()
        injector.configure(toggle_bits(b"\xaa", b"\x0f",
                                       match_mode=MatchMode.ON))
        out = run_stream(injector, data_symbols(b"\xaa\xbb"))
        assert symbol_bytes(out) == b"\xa5\xbb"

    def test_once_mode_fires_exactly_once(self):
        """Paper §3.3: once mode triggers on the first match and ignores
        all subsequent matches."""
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\x42", b"\x43",
                                         match_mode=MatchMode.ONCE))
        out = run_stream(injector, data_symbols(b"\x42\x00\x42\x00\x42"))
        assert symbol_bytes(out) == b"\x43\x00\x42\x00\x42"
        assert injector.injections == 1
        assert not injector.armed

    def test_rearming_once_mode(self):
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\x42", b"\x43",
                                         match_mode=MatchMode.ONCE))
        run_stream(injector, data_symbols(b"\x42"))
        injector.set_match_mode(MatchMode.ONCE)  # NFTAPE re-arms
        out = run_stream(injector, data_symbols(b"\x42"))
        assert symbol_bytes(out) == b"\x43"
        assert injector.injections == 2

    def test_off_mode_never_fires(self):
        injector = FifoInjector()
        config = replace_bytes(b"\x42", b"\x43", match_mode=MatchMode.ONCE)
        injector.configure(config.copy(match_mode=MatchMode.OFF))
        out = run_stream(injector, data_symbols(b"\x42\x42"))
        assert symbol_bytes(out) == b"\x42\x42"
        assert injector.injections == 0

    def test_on_mode_fires_every_match(self):
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\x42", b"\x43",
                                         match_mode=MatchMode.ON))
        out = run_stream(injector, data_symbols(b"\x42\x00\x42\x00\x42"))
        assert symbol_bytes(out) == b"\x43\x00\x43\x00\x43"
        assert injector.injections == 3

    def test_inject_now_forces_on_next_even_cycle(self):
        """Paper §3.3: inject now exercises the configuration on one
        32-bit segment during the next even clock cycle."""
        injector = FifoInjector()
        injector.configure(InjectorConfig(
            match_mode=MatchMode.OFF,
            corrupt_mode=CorruptMode.REPLACE,
            corrupt_data=0xFF, corrupt_mask=0xFF,
        ))
        injector.step(data_symbol(0x01))
        injector.inject_now()
        injector.step(data_symbol(0x02))  # corruption lands here (lane 0)
        out = injector.fifo.drain()
        assert [s.value for s in out] == [0x01, 0xFF]
        assert injector.forced_injections == 1

    def test_control_symbol_swap(self):
        from repro.core.faults import control_symbol_swap
        from repro.myrinet.symbols import GO
        injector = FifoInjector()
        injector.configure(control_symbol_swap(STOP, GO, MatchMode.ON))
        stream = [data_symbol(1), STOP, data_symbol(STOP.value), STOP]
        out = run_stream(injector, stream)
        assert out[0] == data_symbol(1)
        assert out[1] == GO                      # control STOP corrupted
        assert out[2] == data_symbol(STOP.value)  # data byte untouched
        assert out[3] == GO

    def test_corruption_can_flip_dc_bit(self):
        """A data symbol can be turned into a control symbol."""
        injector = FifoInjector()
        injector.configure(InjectorConfig(
            match_mode=MatchMode.ON,
            compare_data=0x5A, compare_mask=0xFF,
            compare_ctl=0x1, compare_ctl_mask=0x1,
            corrupt_mode=CorruptMode.REPLACE,
            corrupt_data=GAP.value, corrupt_mask=0xFF,
            corrupt_ctl=0x0, corrupt_ctl_mask=0x1,
        ))
        out = run_stream(injector, data_symbols(b"\x5a"))
        assert out == [GAP]

    def test_events_recorded(self):
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\x01", b"\x02",
                                         match_mode=MatchMode.ON))
        run_stream(injector, data_symbols(b"\x00\x01\x00"))
        assert len(injector.events) == 1
        event = injector.events[0]
        assert event.changed
        assert event.lanes_rewritten == 1
        assert not event.forced

    def test_injection_callback(self):
        injector = FifoInjector()
        seen = []
        injector.on_injection(seen.append)
        injector.configure(replace_bytes(b"\x01", b"\x02",
                                         match_mode=MatchMode.ON))
        run_stream(injector, data_symbols(b"\x01"))
        assert len(seen) == 1

    def test_reset_clears_everything(self):
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\x01", b"\x02",
                                         match_mode=MatchMode.ON))
        injector.step(data_symbol(0x01))
        injector.reset()
        assert injector.fifo.empty
        assert not injector.armed
        assert injector.config.match_mode is MatchMode.OFF


class TestProcessBurst:
    def test_fast_path_when_disarmed(self):
        injector = FifoInjector()
        burst = data_symbols(b"fast path burst")
        out = injector.process_burst(Burst.from_symbols(burst)).symbols()
        assert out == burst
        assert injector.clock.cycles == 0  # disarmed bypass skips the pipeline

    def test_burst_matches_step_output_when_armed(self):
        injector = FifoInjector()
        injector.configure(replace_bytes(b"abc", b"xyz",
                                         match_mode=MatchMode.ON))
        burst = data_symbols(b"...abc...abc.")
        out = injector.process_burst(Burst.from_symbols(burst)).symbols()
        assert symbol_bytes(out) == b"...xyz...xyz."

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=120),
        pattern=st.binary(min_size=1, max_size=4),
        replacement_seed=st.integers(min_value=0, max_value=255),
        mode=st.sampled_from([MatchMode.ON, MatchMode.ONCE]),
        corrupt_mode=st.sampled_from([CorruptMode.REPLACE,
                                      CorruptMode.TOGGLE]),
    )
    def test_fused_equals_cycle_accurate(self, data, pattern,
                                         replacement_seed, mode,
                                         corrupt_mode):
        """The fused burst path must be symbol-for-symbol identical to
        the explicit two-phase step path."""
        replacement = bytes((b ^ replacement_seed) & 0xFF for b in pattern)
        if corrupt_mode is CorruptMode.REPLACE:
            config = replace_bytes(pattern, replacement, match_mode=mode)
        else:
            config = toggle_bits(pattern, replacement, match_mode=mode)
        stream = data_symbols(data)

        stepped = FifoInjector()
        stepped.configure(config)
        expected = run_stream(stepped, stream)

        fused = FifoInjector()
        fused.configure(config)
        actual = fused.process_burst(Burst.from_symbols(stream)).symbols()

        assert actual == expected
        assert fused.injections == stepped.injections
        assert fused.compare.matches == stepped.compare.matches
        assert fused.symbols_processed == stepped.symbols_processed

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=255)),
        max_size=80,
    ))
    def test_fused_equals_step_with_control_symbols(self, data):
        from repro.core.faults import control_symbol_swap
        from repro.myrinet.symbols import GO
        stream = [
            data_symbol(v) if is_data else control_symbol(v)
            for is_data, v in data
        ]
        config = control_symbol_swap(STOP, GO, MatchMode.ON)

        stepped = FifoInjector()
        stepped.configure(config)
        expected = run_stream(stepped, stream)

        fused = FifoInjector()
        fused.configure(config)
        actual = fused.process_burst(Burst.from_symbols(stream)).symbols()
        assert actual == expected
        assert fused.injections == stepped.injections

    def test_stream_preserved_modulo_corruption(self):
        """Everything not matched passes byte-identically."""
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\xde\xad", b"\xbe\xef",
                                         match_mode=MatchMode.ON))
        data = bytes(range(256))
        out = injector.process_burst(
            Burst.from_symbols(data_symbols(data))).symbols()
        assert len(out) == len(data)
        mismatches = [
            i for i, (a, b) in enumerate(zip(symbol_bytes(out), data))
            if a != b
        ]
        # 0xDE 0xAD appears once in range(256)... it does not; no match.
        assert mismatches == []
