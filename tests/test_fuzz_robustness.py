"""Fuzz-style robustness properties: garbage in, no crashes out.

A device inserted into a production network must survive arbitrary line
noise and hostile command streams.  These properties drive each receiver
with random input and assert it neither raises nor violates its basic
conservation invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.decoder import CommandDecoder
from repro.hw.injector import FifoInjector
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet.interface import HostInterface
from repro.myrinet.addresses import MacAddress, McpAddress
from repro.myrinet.link import Link
from repro.myrinet.switch import MyrinetSwitch
from repro.myrinet.symbols import Burst, Symbol, control_symbol, data_symbol
from repro.sim import Simulator

symbols_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=255)),
    max_size=300,
).map(lambda items: [
    data_symbol(v) if is_data else control_symbol(v) for is_data, v in items
])


class _NullTarget:
    def __init__(self):
        self.injectors = {"L": FifoInjector("L"), "R": FifoInjector("R")}

    def injector(self, direction):
        return self.injectors[direction]

    def device_reset(self):
        pass

    def monitor_summary(self, direction):
        return "cap=0 sdram=0 drop=0"


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=400))
def test_command_decoder_survives_arbitrary_bytes(data):
    responses = []
    decoder = CommandDecoder(_NullTarget(), responses.append)
    for byte in data:
        decoder.on_char(byte)
    decoder.on_char(ord("\n"))  # flush whatever line state remains
    for response in responses:
        assert response.startswith(("OK", "ER"))
    # The decoder still works after the noise.
    decoder.on_char(ord("I"))
    decoder.on_char(ord("D"))
    decoder.on_char(ord("\n"))
    assert responses[-1].startswith("OK DSN2002")


@settings(max_examples=40, deadline=None)
@given(stream=symbols_strategy)
def test_switch_survives_arbitrary_symbol_streams(stream):
    sim = Simulator()
    switch = MyrinetSwitch(sim, num_ports=4)

    class _Sink:
        def on_burst(self, burst, channel):
            pass

    for port in range(3):
        link = Link(sim, f"l{port}", char_period_ps=12_500, propagation_ps=0)
        link.attach_a(_Sink())
        switch.attach_link(port, link, "b", flow_transport="symbols")
    switch._ports[0].link.a_to_b.send(Burst.from_symbols(stream))
    sim.run()
    # Conservation of accounting: drops and forwards are non-negative and
    # every received data symbol is accounted for somewhere.
    stats = switch.stats
    assert stats["symbols_dropped"] >= 0
    assert stats["routing_errors"] >= 0


@settings(max_examples=40, deadline=None)
@given(stream=symbols_strategy)
def test_host_interface_survives_arbitrary_symbol_streams(stream):
    sim = Simulator()
    interface = HostInterface(sim, "fuzzed", MacAddress(1), McpAddress(1))
    link = Link(sim, "l", char_period_ps=12_500, propagation_ps=0)
    interface.attach_link(link, "b")

    class _Sink:
        def on_burst(self, burst, channel):
            pass

    link.attach_a(_Sink())
    link.a_to_b.send(Burst.from_symbols(stream))
    sim.run()
    stats = interface.stats
    assert stats["frames_received"] >= 0


@settings(max_examples=40, deadline=None)
@given(codes=st.lists(st.integers(min_value=0, max_value=1023),
                      max_size=300))
def test_fc_port_survives_arbitrary_code_groups(codes):
    from repro.fc import FcPort
    from repro.fc.node import connect_fc
    sim = Simulator()
    a = FcPort(sim, "a", 1)
    b = FcPort(sim, "b", 2)
    connect_fc(sim, a, b)
    frames = []
    b.on_frame(lambda f: frames.append(f))
    # Drive raw (possibly invalid) code groups straight at b.
    a._tx_channel.send(codes)
    sim.run()
    stats = b.stats
    assert stats["code_errors"] + stats["disparity_errors"] >= 0


@settings(max_examples=50, deadline=None)
@given(
    stream=symbols_strategy,
    config=st.builds(
        InjectorConfig,
        match_mode=st.sampled_from(list(MatchMode)),
        compare_data=st.integers(min_value=0, max_value=0xFFFFFFFF),
        compare_mask=st.integers(min_value=0, max_value=0xFFFFFFFF),
        compare_ctl=st.integers(min_value=0, max_value=0xF),
        compare_ctl_mask=st.integers(min_value=0, max_value=0xF),
        corrupt_mode=st.sampled_from(list(CorruptMode)),
        corrupt_data=st.integers(min_value=0, max_value=0xFFFFFFFF),
        corrupt_mask=st.integers(min_value=0, max_value=0xFFFFFFFF),
        corrupt_ctl=st.integers(min_value=0, max_value=0xF),
        corrupt_ctl_mask=st.integers(min_value=0, max_value=0xF),
    ),
)
def test_injector_preserves_symbol_count_under_any_config(stream, config):
    """Whatever the configuration, the injector is a 1:1 symbol pipe —
    it may rewrite symbols but never creates or destroys them."""
    injector = FifoInjector()
    injector.configure(config)
    out = injector.process_burst(Burst.from_symbols(stream)).symbols()
    assert len(out) == len(stream)
