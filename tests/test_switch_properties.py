"""Property-based tests for the switch and network delivery invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.myrinet.crc8 import crc8
from repro.myrinet.link import Link
from repro.myrinet.packet import MyrinetPacket, PACKET_TYPE_DATA
from repro.myrinet.switch import MyrinetSwitch
from repro.myrinet.symbols import GAP, Burst, data_symbols
from repro.sim import Simulator


class _Endpoint:
    def __init__(self):
        self.frames = []
        self._current = []
        self.tx = None

    def on_burst(self, burst, channel):
        for symbol in burst.symbols():
            if symbol.is_data:
                self._current.append(symbol.value)
            elif symbol == GAP and self._current:
                self.frames.append(bytes(self._current))
                self._current = []

    def send_packet(self, packet):
        burst = data_symbols(packet.to_bytes())
        burst.append(GAP)
        self.tx.send(Burst.from_symbols(burst))


def _build(sim, ports):
    switch = MyrinetSwitch(sim, num_ports=8)
    endpoints = []
    for port in range(ports):
        endpoint = _Endpoint()
        link = Link(sim, f"l{port}", char_period_ps=12_500,
                    propagation_ps=0)
        endpoint.tx = link.attach_a(endpoint)
        switch.attach_link(port, link, "b", flow_transport="symbols")
        endpoints.append(endpoint)
    return switch, endpoints


@settings(max_examples=25, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),   # source port
            st.integers(min_value=0, max_value=3),   # destination port
            st.binary(min_size=1, max_size=60),      # payload
        ),
        min_size=1, max_size=25,
    )
)
def test_every_valid_packet_is_delivered_intact(plan):
    """Conservation: with clean links, every packet sent to a valid,
    different port arrives exactly once, CRC-intact, at the right
    endpoint, regardless of interleaving or contention."""
    sim = Simulator()
    switch, endpoints = _build(sim, 4)
    expected = {port: [] for port in range(4)}
    for src, dst, payload in plan:
        if src == dst:
            continue
        packet = MyrinetPacket.for_route([dst], PACKET_TYPE_DATA, payload)
        endpoints[src].send_packet(packet)
        expected[dst].append(payload)
    sim.run()
    for port in range(4):
        got = []
        for frame in endpoints[port].frames:
            assert crc8(frame) == 0
            got.append(MyrinetPacket.from_bytes(frame).payload)
        assert sorted(got) == sorted(expected[port])


@settings(max_examples=15, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=40),
                      min_size=1, max_size=30)
)
def test_single_flow_preserves_order(payloads):
    """FIFO per flow: one input to one output never reorders."""
    sim = Simulator()
    switch, endpoints = _build(sim, 2)
    for payload in payloads:
        endpoints[0].send_packet(
            MyrinetPacket.for_route([1], PACKET_TYPE_DATA, payload)
        )
    sim.run()
    got = [MyrinetPacket.from_bytes(f).payload
           for f in endpoints[1].frames]
    assert got == payloads


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_end_to_end_network_determinism(seed):
    """Same seed, same network, same message outcome — twice."""
    from repro.myrinet.network import build_paper_testbed
    from repro.sim.rng import DeterministicRng
    from repro.sim.timebase import MS

    def run():
        sim = Simulator()
        network = build_paper_testbed(sim, rng=DeterministicRng(seed))
        network.settle()
        pc = network.host("pc").interface
        sparc1 = network.host("sparc1").interface
        received = []
        sparc1.set_data_handler(lambda src, p: received.append(p))
        pc.send_to(sparc1.mac, seed.to_bytes(4, "big") * 4)
        sim.run_for(2 * MS)
        return received, sim.events_fired

    assert run() == run()
