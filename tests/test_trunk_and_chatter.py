"""Tests for trunk splicing, data-link chatter monitoring, and live
reconfiguration — §1/§3.2 capabilities beyond the basic campaigns."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FaultInjectorDevice, InjectorSession
from repro.core.crcfix import CrcFixupStage
from repro.core.faults import replace_bytes
from repro.hw.registers import MatchMode
from repro.myrinet.crc8 import crc8
from repro.myrinet.network import MyrinetNetwork, build_paper_testbed
from repro.myrinet.packet import PACKET_TYPE_DATA, PACKET_TYPE_MAPPING, MyrinetPacket
from repro.myrinet.symbols import GAP, Burst, data_symbols, symbol_bytes
from repro.sim.rng import DeterministicRng
from repro.sim.timebase import MS


def _two_switch_network(sim, device=None):
    network = MyrinetNetwork(sim, rng=DeterministicRng(3),
                             map_interval_ps=50 * MS)
    network.add_switch("s1")
    network.add_switch("s2")
    network.add_host("a")
    network.add_host("b")
    network.connect("a", "s1", 0)
    network.connect("b", "s2", 0)
    network.connect_switches("s1", 7, "s2", 7, device=device)
    network.settle(10 * MS)
    return network


class TestTrunkSplice:
    def test_mapping_crosses_trunk_device(self, sim):
        device = FaultInjectorDevice(sim)
        network = _two_switch_network(sim, device=device)
        mapper = network.mapper().mcp
        assert set(mapper.current_map.entries) == {"a"}
        # Both hosts hold cross-trunk routes.
        a = network.host("a").interface
        b = network.host("b").interface
        assert b.mac in a.routing_table
        assert a.mac in b.routing_table

    def test_cross_trunk_injection(self, sim):
        device = FaultInjectorDevice(sim)
        network = _two_switch_network(sim, device=device)
        a = network.host("a").interface
        b = network.host("b").interface
        received = []
        b.set_data_handler(lambda s, p: received.append(p))
        device.configure("R", replace_bytes(b"runk", b"RUNK",
                                            match_mode=MatchMode.ONCE,
                                            crc_fixup=True))
        a.send_to(b.mac, b"over the trunk link")
        sim.run_for(3 * MS)
        assert received == [b"over the tRUNK link"]

    def test_trunk_device_sees_interswitch_route_bytes(self, sim):
        """At the trunk, frames still carry a route byte — the injector
        can target the routing header itself."""
        device = FaultInjectorDevice(sim)
        network = _two_switch_network(sim, device=device)
        a = network.host("a").interface
        b = network.host("b").interface
        a.send_to(b.mac, b"observe me")
        sim.run_for(3 * MS)
        stats = device.statistics("R").stats
        assert stats.frames >= 1
        # The device's passive parser skipped the remaining route byte
        # and still classified the packet.
        assert stats.packet_types[PACKET_TYPE_DATA] >= 1


class TestDeviceChatterMonitoring:
    def test_statistics_count_mapping_chatter(self, sim):
        """§3.2: 'Information that is only accessible on the data-link
        layer (e.g., device chatter to set up routing tables) can also
        be monitored.'"""
        device = FaultInjectorDevice(sim)
        network = build_paper_testbed(sim, device=device,
                                      map_interval_ps=20 * MS)
        network.settle()
        sim.run_for(60 * MS)  # several mapping rounds
        chatter = device.statistics("R").stats.packet_types
        assert chatter[PACKET_TYPE_MAPPING] >= 3  # pc's scout replies

    def test_control_symbol_census(self, sim):
        device = FaultInjectorDevice(sim)
        network = build_paper_testbed(sim, device=device)
        network.settle()
        pc = network.host("pc").interface
        sparc1 = network.host("sparc1").interface
        for _index in range(4):
            pc.send_to(sparc1.mac, b"traffic")
        sim.run_for(3 * MS)
        controls = device.statistics("R").stats.control_symbols
        assert controls["GAP"] >= 4  # one trailing GAP per packet


class TestLiveReconfiguration:
    def test_reconfigure_while_inserted_in_the_network(self, sim):
        """§3.2: 'the FPGA can be reprogrammed while inserted in the
        network' — traffic keeps flowing during a serial upload."""
        device = FaultInjectorDevice(sim)
        network = build_paper_testbed(sim, device=device)
        session = InjectorSession(sim, device)
        network.settle()
        pc = network.host("pc").interface
        sparc1 = network.host("sparc1").interface
        received = []
        sparc1.set_data_handler(lambda s, p: received.append(p))

        session.configure("R", replace_bytes(b"zz", b"ZZ",
                                             match_mode=MatchMode.ONCE,
                                             crc_fixup=True))
        # Send continuously while the upload is in flight.
        for index in range(30):
            pc.send_to(sparc1.mac, b"live %02d" % index)
            sim.run_for(2 * MS)
        assert len(received) == 30  # nothing lost during reprogramming
        assert session.idle

        pc.send_to(sparc1.mac, b"now zz hits")
        sim.run_for(2 * MS)
        assert received[-1] == b"now ZZ hits"


class TestCrcFixupProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=80),
        position=st.integers(min_value=0, max_value=79),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_dirty_frames_always_leave_crc_valid(self, payload, position,
                                                 flip):
        """Whatever the injector did to a frame, the fix-up stage emits
        a frame whose trailing CRC-8 verifies."""
        packet = MyrinetPacket(route=[], packet_type=PACKET_TYPE_DATA,
                               payload=payload)
        raw = bytearray(packet.to_bytes())
        position %= len(raw) - 1
        raw[position] ^= flip  # corrupt anywhere but CRC
        stage = CrcFixupStage()
        burst = data_symbols(bytes(raw))
        burst.append(GAP)
        out = stage.feed(Burst.from_symbols(burst), enabled=True,
                         rewrites=[position]).symbols()
        assert crc8(symbol_bytes(out)) == 0
