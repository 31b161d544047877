"""Figures 6 and 8 — Myrinet packet structure and the symbol stream.

Exercises the wire format (arbitrary route | 4-byte type | payload |
CRC-8) and the GAP-delimited, control-interleaved symbol stream framing,
measuring encode/parse/assembly throughput.
"""

from benchmarks.conftest import record_result
from repro.myrinet.crc8 import crc8
from repro.myrinet.frames import FrameAssembler
from repro.myrinet.packet import MyrinetPacket, PACKET_TYPE_DATA
from repro.myrinet.symbols import GAP, GO, STOP, Burst, data_symbols

PACKETS = [
    MyrinetPacket.for_route([i % 8], PACKET_TYPE_DATA,
                            bytes([i % 251]) * (16 + i % 64))
    for i in range(1, 200)
]


def _stream():
    symbols = []
    for index, packet in enumerate(PACKETS):
        symbols.extend(data_symbols(packet.to_bytes()))
        if index % 3 == 0:
            symbols.append(STOP)   # interleaved control symbols (Fig. 8)
        if index % 5 == 0:
            symbols.append(GO)
        symbols.append(GAP)
        if index % 4 == 0:
            symbols.append(GAP)    # any positive number of GAPs
    return symbols


def test_fig6_packet_encode(benchmark):
    raws = benchmark(lambda: [p.to_bytes() for p in PACKETS])
    assert all(crc8(raw) == 0 for raw in raws)
    record_result(
        "fig68_packet_stream",
        f"Figure 6 wire format: {len(PACKETS)} packets, "
        f"{sum(len(r) for r in raws)} bytes, all CRC-8 clean; "
        f"stream framing recovers every packet with control symbols "
        f"interleaved (Figure 8)",
    )


def test_fig6_packet_parse(benchmark):
    raws = [p.to_bytes() for p in PACKETS]

    def run():
        return [MyrinetPacket.from_bytes(raw, route_len=1) for raw in raws]

    parsed = benchmark(run)
    assert [p.payload for p in parsed] == [p.payload for p in PACKETS]


def test_fig8_stream_assembly(benchmark):
    stream = _stream()
    burst = Burst.from_symbols(stream)

    def run():
        frames = []
        controls = []
        assembler = FrameAssembler(frames.append, controls.append)
        assembler.push_burst(burst)
        return frames, controls

    frames, controls = benchmark(run)
    assert len(frames) == len(PACKETS)
    assert len(controls) == sum(1 for s in stream if s in (STOP, GO))
    for frame, packet in zip(frames, PACKETS):
        assert frame == packet.to_bytes()
