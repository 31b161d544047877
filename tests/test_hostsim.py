"""Unit and property tests for the host protocol stack and workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError, ProtocolError
from repro.hostsim import (
    EchoResponder,
    FloodPing,
    HostStack,
    IpAddress,
    IpLiteHeader,
    MessageSink,
    PingPong,
    UdpDatagram,
    UdpGenerator,
    internet_checksum,
    verify_checksum,
)
from repro.hostsim.checksum import ones_complement_sum
from repro.myrinet.addresses import MacAddress
from repro.myrinet.network import build_paper_testbed
from repro.sim.timebase import MS, US


def _rfc1071_sum(data: bytes) -> int:
    """Reference: RFC 1071's word loop with end-around carry."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


_checksum_inputs = st.one_of(
    st.binary(max_size=200),
    st.integers(0, 64).map(lambda n: b"\x00" * n),
    st.integers(0, 64).map(lambda n: b"\xff" * n),
)


class TestChecksum:
    @given(_checksum_inputs)
    def test_closed_form_matches_rfc1071_loop(self, data):
        assert ones_complement_sum(data) == _rfc1071_sum(data)

    @given(st.binary(min_size=2, max_size=100),
           st.integers(min_value=0), st.integers(min_value=0))
    def test_closed_form_matches_loop_after_word_swap(self, data, i, j):
        """The §4.3.4 swap of two aligned 16-bit words, checked against
        the reference loop on both sides of the swap."""
        words = [data[k:k + 2] for k in range(0, len(data) - 1, 2)]
        i %= len(words)
        j %= len(words)
        words[i], words[j] = words[j], words[i]
        swapped = b"".join(words) + data[2 * len(words):]
        assert ones_complement_sum(swapped) == _rfc1071_sum(swapped)
        assert ones_complement_sum(swapped) == ones_complement_sum(data)

    def test_rfc1071_example(self):
        # RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert ones_complement_sum(data) == 0xDDF2
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_zero_checksum_transmitted_as_ffff(self):
        assert internet_checksum(b"\xff\xff") == 0xFFFF

    @given(st.binary(min_size=0, max_size=100))
    def test_verify_accepts_correct_checksum(self, data):
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        framed = data + checksum.to_bytes(2, "big")
        assert verify_checksum(framed)

    @given(st.binary(min_size=2, max_size=100),
           st.integers(min_value=0), st.integers(min_value=0))
    def test_swap_16_bits_apart_is_invisible(self, data, i, j):
        """The §4.3.4 blind spot: exchanging two aligned 16-bit words
        leaves the one's-complement checksum unchanged."""
        if len(data) % 2:
            data += b"\x00"
        words = [data[k:k + 2] for k in range(0, len(data), 2)]
        i %= len(words)
        j %= len(words)
        words[i], words[j] = words[j], words[i]
        swapped = b"".join(words)
        assert internet_checksum(swapped) == internet_checksum(data)

    def test_have_a_lot_of_fun(self):
        """The paper's exact example string."""
        original = b"Have a lot of fun"
        swapped = b"veHa a lot of fun"
        assert internet_checksum(original) == internet_checksum(swapped)
        # Whereas an arbitrary corruption changes it.
        assert internet_checksum(b"HAVE a lot of fun") != \
            internet_checksum(original)


class TestIpUdp:
    def _header(self):
        return IpLiteHeader(src=IpAddress.for_mac(MacAddress(0x0A)),
                            dst=IpAddress.for_mac(MacAddress(0x0B)))

    def test_ip_address_for_mac(self):
        address = IpAddress.for_mac(MacAddress(0x02_00_5E_00_01_02))
        assert str(address) == "10.0.1.2"

    def test_ip_header_roundtrip(self):
        header = self._header()
        header.total_length = 42
        parsed = IpLiteHeader.from_bytes(header.to_bytes())
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.total_length == 42

    def test_bad_version_rejected(self):
        raw = bytearray(self._header().to_bytes())
        raw[0] = 0x60
        with pytest.raises(ProtocolError):
            IpLiteHeader.from_bytes(bytes(raw))

    @given(st.binary(max_size=200),
           st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=0xFFFF))
    def test_udp_roundtrip(self, payload, src_port, dst_port):
        header = IpLiteHeader(src=IpAddress(1), dst=IpAddress(2))
        datagram = UdpDatagram(src_port, dst_port, payload)
        parsed = UdpDatagram.from_bytes(datagram.to_bytes(header), header)
        assert parsed.payload == payload
        assert parsed.src_port == src_port
        assert parsed.dst_port == dst_port

    def test_corruption_fails_checksum(self):
        header = self._header()
        raw = bytearray(UdpDatagram(1, 2, b"payload").to_bytes(header))
        raw[-1] ^= 0x01
        with pytest.raises(ChecksumError):
            UdpDatagram.from_bytes(bytes(raw), header)

    def test_pseudo_header_binds_addresses(self):
        """A datagram re-parsed under different IP addresses fails."""
        header = self._header()
        raw = UdpDatagram(1, 2, b"x").to_bytes(header)
        other = IpLiteHeader(src=IpAddress(9), dst=IpAddress(10))
        with pytest.raises(ChecksumError):
            UdpDatagram.from_bytes(raw, other)

    def test_length_field_checked(self):
        header = self._header()
        raw = UdpDatagram(1, 2, b"abc").to_bytes(header)
        with pytest.raises(ProtocolError):
            UdpDatagram.from_bytes(raw + b"extra", header)


@pytest.fixture
def network(sim):
    net = build_paper_testbed(sim)
    net.settle()
    return net


def stacks_for(sim, network, names=("pc", "sparc1")):
    return [HostStack(sim, network.host(n).interface) for n in names]


class TestHostStack:
    def test_udp_end_to_end(self, sim, network):
        pc, sparc1 = stacks_for(sim, network)
        got = []
        sparc1.bind(7777, lambda mac, ip, port, payload: got.append(
            (str(ip), payload)))
        pc.send_udp(sparc1.interface.mac, 7777, b"datagram")
        sim.run_for(2 * MS)
        assert got == [(str(pc.ip), b"datagram")]
        assert pc.udp_sent == 1
        assert sparc1.udp_delivered == 1

    def test_unbound_port_drops(self, sim, network):
        pc, sparc1 = stacks_for(sim, network)
        pc.send_udp(sparc1.interface.mac, 9999, b"nobody home")
        sim.run_for(2 * MS)
        assert sparc1.unbound_drops == 1

    def test_timestamp_quantized_to_tick(self, sim, network):
        stack = HostStack(sim, network.host("pc").interface,
                          timer_tick_ps=1 * US, timer_phase_ps=0)
        sim.run_for(1_500_000)  # advance off the tick boundary
        stamp = stack.timestamp()
        assert stamp % (1 * US) == 0
        assert 0 <= sim.now - stamp < 1 * US

    def test_per_port_send_accounting(self, sim, network):
        pc, sparc1 = stacks_for(sim, network)
        sparc1.bind(1111, lambda *a: None)
        pc.send_udp(sparc1.interface.mac, 1111, b"a")
        pc.send_udp(sparc1.interface.mac, 2222, b"b")
        sim.run_for(2 * MS)
        assert pc.udp_sent_by_port[1111] == 1
        assert pc.udp_sent_by_port[2222] == 1


class TestApps:
    def test_generator_and_sink(self, sim, network):
        pc, sparc1 = stacks_for(sim, network)
        sink = MessageSink(sparc1, 5000, store_limit=5)
        generator = UdpGenerator(sim, pc, sparc1.interface.mac, 5000,
                                 payload_size=32, interval_ps=100 * US,
                                 count=10)
        generator.start()
        sim.run_for(5 * MS)
        assert generator.sent == 10
        assert sink.received == 10
        assert len(sink.messages) == 5
        assert all(len(m) == 32 for m in sink.messages)

    def test_generator_respects_forbidden_bytes(self, sim, network):
        """Table 4: 'the symbol mask we corrupted did not appear in the
        message itself'."""
        pc, sparc1 = stacks_for(sim, network)
        sink = MessageSink(sparc1, 5000, store_limit=20)
        generator = UdpGenerator(sim, pc, sparc1.interface.mac, 5000,
                                 payload_size=64, interval_ps=50 * US,
                                 count=20, forbidden_bytes={0x41, 0x42})
        generator.start()
        sim.run_for(5 * MS)
        for message in sink.messages:
            assert 0x41 not in message
            assert 0x42 not in message

    def test_generator_stop(self, sim, network):
        pc, sparc1 = stacks_for(sim, network)
        generator = UdpGenerator(sim, pc, sparc1.interface.mac, 5000,
                                 interval_ps=100 * US)
        generator.start()
        sim.run_for(1 * MS)
        generator.stop()
        sent = generator.sent
        sim.run_for(2 * MS)
        assert generator.sent == sent

    def test_echo_and_flood_ping(self, sim, network):
        pc, sparc1 = stacks_for(sim, network)
        echo = EchoResponder(sparc1, 7)
        ping = FloodPing(sim, pc, sparc1.interface.mac, count=25)
        ping.start()
        sim.run_for(20 * MS)
        assert ping.sent == 25
        assert ping.replies == 25
        assert ping.timeouts == 0
        assert echo.echoed == 25

    def test_flood_ping_timeout_recovery(self, sim, network):
        pc, _ = stacks_for(sim, network)
        # Ping a host with no echo responder: every round times out.
        ping = FloodPing(sim, pc,
                         network.host("sparc2").interface.mac,
                         count=3, loss_timeout_ps=2 * MS)
        ping.start()
        sim.run_for(30 * MS)
        assert ping.sent == 3
        assert ping.timeouts == 3
        assert ping.replies == 0

    def test_pingpong_measures_per_packet_time(self, sim, network):
        pc, sparc1 = stacks_for(sim, network)
        results = []
        pingpong = PingPong(sim, pc, sparc1, count=50,
                            on_complete=results.append, record_rtts=True)
        pingpong.start()
        sim.run_for(100 * MS)
        assert results
        result = results[0]
        assert result.exchanges == 50
        # Per-packet time is dominated by host overheads (~40 us with
        # test defaults) and is strictly positive.
        assert result.avg_time_per_packet_ps > 10 * US
        assert len(result.rtts_ps) == 50
        assert pingpong.losses == 0
