"""The assembled fault-injector device (paper Figure 1).

A :class:`FaultInjectorDevice` is spliced into one link of the network:
symbols arriving on the left segment pass through the right-going FIFO
injector and are retransmitted on the right segment, and vice versa —
"the architecture supports bi-directional fault injection", with the two
directions independently configurable ("the injector can execute
different and independent commands on data traveling in different
directions", §3.3).

Per direction the data path is::

    PHY in -> FIFO injector -> CRC fix-up -> statistics/monitor -> PHY out

The device is transparent to the network except for a fixed transit
latency: the injector pipeline depth in character periods, both PHY
conversions, and (a modelling artifact documented in DESIGN.md) one
store-and-forward re-serialization of each burst on the output segment —
together a few hundred nanoseconds to ~1.4 µs, the same order as the
paper's Table 2 measurements.

Control arrives over RS-232 exactly as in hardware: serial line → UART
chip → SPI → communications handler → command decoder.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.hw.comm import CommunicationsHandler
from repro.hw.injector import DEFAULT_PIPELINE_DEPTH, FifoInjector
from repro.hw.phy import DEFAULT_PHY_LATENCY_PS, PhyTransceiver
from repro.hw.registers import InjectorConfig
from repro.hw.sdram import SdramBuffer
from repro.hw.uart import DEFAULT_BAUD, SerialLine
from repro.core.crcfix import CrcFixupStage
from repro.core.monitor import InjectionMonitor, MonitorConfig
from repro.core.stats import StatisticsGatherer
from repro.myrinet.link import Channel, Link
from repro.myrinet.symbols import Burst
from repro.sim.kernel import Simulator
from repro.capture import instrument as _capture
from repro.capture.state import CAPTURE as _CAPTURE
from repro.telemetry import instrument as _telemetry
from repro.telemetry.state import STATE as _TELEMETRY_STATE

#: Direction identifiers: R = left-to-right (toward the switch when the
#: device sits on a host link), L = right-to-left.
DIRECTIONS = ("R", "L")


class DeviceStats:
    """Aggregated view of one device's counters."""

    def __init__(self, device: "FaultInjectorDevice") -> None:
        self._device = device

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for direction in DIRECTIONS:
            injector = self._device.injector(direction)
            gatherer = self._device.statistics(direction)
            out[direction] = dict(injector.stats)
            out[direction]["frames_seen"] = gatherer.stats.frames
            out[direction]["crc_bad_frames"] = gatherer.stats.crc_bad_frames
        return out


class FaultInjectorDevice:
    """The in-path FPGA fault injector."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "fi",
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
        phy_latency_ps: int = DEFAULT_PHY_LATENCY_PS,
        serial_baud: int = DEFAULT_BAUD,
        monitor_config: Optional[MonitorConfig] = None,
        medium: str = "myrinet",
    ) -> None:
        self._sim = sim
        self.name = name
        self.pipeline_depth = pipeline_depth
        self.medium = medium

        self._injectors: Dict[str, FifoInjector] = {
            d: FifoInjector(name=f"{name}:{d}", pipeline_depth=pipeline_depth)
            for d in DIRECTIONS
        }
        self._crcfix: Dict[str, CrcFixupStage] = {
            d: CrcFixupStage() for d in DIRECTIONS
        }
        self._stats: Dict[str, StatisticsGatherer] = {
            d: StatisticsGatherer() for d in DIRECTIONS
        }
        self.sdram = SdramBuffer()
        self._monitors: Dict[str, InjectionMonitor] = {
            d: InjectionMonitor(d, self.sdram, monitor_config)
            for d in DIRECTIONS
        }
        self._out_labels = {d: f"{name}:{d}:out" for d in DIRECTIONS}
        for direction in DIRECTIONS:
            self._injectors[direction].on_injection(
                lambda event, d=direction: self._on_injection_event(d, event)
            )

        self.phy_left = PhyTransceiver(f"{name}:phy-left", medium,
                                       phy_latency_ps)
        self.phy_right = PhyTransceiver(f"{name}:phy-right", medium,
                                        phy_latency_ps)

        self.serial_line = SerialLine(sim, baud=serial_baud)
        self.comm = CommunicationsHandler(sim, self.serial_line, self)

        self._tx: Dict[str, Optional[Channel]] = {"left": None, "right": None}
        self._channel_direction: Dict[int, str] = {}
        self._char_period_ps = 12_500
        self.bursts_forwarded = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_left(self, link: Link, side: str) -> None:
        """Attach the segment toward the network's left endpoint (host)."""
        self._attach("left", link, side)

    def attach_right(self, link: Link, side: str) -> None:
        """Attach the segment toward the right endpoint (switch)."""
        self._attach("right", link, side)

    def _attach(self, where: str, link: Link, side: str) -> None:
        if self._tx[where] is not None:
            raise ConfigurationError(f"{self.name} {where} already attached")
        if side == "a":
            tx = link.attach_a(self)
            rx = link.b_to_a
        elif side == "b":
            tx = link.attach_b(self)
            rx = link.a_to_b
        else:
            raise ConfigurationError(f"link side must be 'a' or 'b': {side!r}")
        self._tx[where] = tx
        # Bursts received on the left segment travel right, and vice versa.
        self._channel_direction[id(rx)] = "R" if where == "left" else "L"
        self._char_period_ps = link.char_period_ps

    @property
    def attached(self) -> bool:
        return self._tx["left"] is not None and self._tx["right"] is not None

    @property
    def pipeline_latency_ps(self) -> int:
        """Transit latency excluding output re-serialization."""
        return (
            self.pipeline_depth * self._char_period_ps
            + self.phy_left.latency_ps
            + self.phy_right.latency_ps
        )

    # ------------------------------------------------------------------
    # decoder target protocol
    # ------------------------------------------------------------------

    def injector(self, direction: str) -> FifoInjector:
        """The FIFO injector for direction ``'R'`` or ``'L'``."""
        try:
            return self._injectors[direction]
        except KeyError:
            raise ConfigurationError(
                f"direction must be one of {DIRECTIONS}, got {direction!r}"
            ) from None

    def device_reset(self) -> None:
        """RS command: reset injectors, fix-up stages, and captures."""
        for direction in DIRECTIONS:
            self._injectors[direction].reset()
            self._crcfix[direction].flush()
            self._monitors[direction].flush()

    def monitor_summary(self, direction: str) -> str:
        """MO command: capture-memory summary for one direction."""
        monitor = self._monitors[direction]
        return (
            f"cap={monitor.captures_taken} "
            f"sdram={self.sdram.bytes_used} "
            f"drop={self.sdram.records_dropped_capacity}"
        )

    # ------------------------------------------------------------------
    # convenience configuration (programmatic path; campaigns normally
    # configure over the serial link through InjectorSession)
    # ------------------------------------------------------------------

    def configure(self, direction: str, config: InjectorConfig) -> None:
        """Load a register file directly (bypasses the serial link)."""
        self.injector(direction).configure(config)

    def monitor(self, direction: str) -> InjectionMonitor:
        return self._monitors[direction]

    def statistics(self, direction: str) -> StatisticsGatherer:
        return self._stats[direction]

    def crc_fixup_stage(self, direction: str) -> CrcFixupStage:
        return self._crcfix[direction]

    @property
    def stats(self) -> DeviceStats:
        return DeviceStats(self)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def _on_injection_event(self, direction: str, event) -> None:
        """Injector firing: open the monitor capture, log provenance."""
        self._monitors[direction].on_injection(self._sim.now, event)
        if _CAPTURE.active:
            _capture.injection(self._sim.now, self.name, direction, event)

    def on_burst(self, burst: Burst, channel: Channel) -> None:
        """Intercept a burst from one segment, retransmit on the other."""
        direction = self._channel_direction.get(id(channel))
        if direction is None:
            raise ConfigurationError(
                f"{self.name}: burst on unknown channel {channel.name}"
            )
        out_channel = self._tx["right"] if direction == "R" else self._tx["left"]
        if out_channel is None:
            raise ConfigurationError(f"{self.name}: output segment not attached")

        in_phy = self.phy_left if direction == "R" else self.phy_right
        out_phy = self.phy_right if direction == "R" else self.phy_left
        received = len(burst.values)
        in_phy.receive(received)

        injector = self._injectors[direction]
        output = injector.process_burst(burst)
        # Burst-relative positions the injector rewrote: the CRC stage
        # marks exactly the frames containing them dirty.
        rewrites = injector.last_burst_rewrites

        crcfix = self._crcfix[direction]
        fixup_enabled = injector.config.crc_fixup
        if fixup_enabled or not crcfix.idle:
            output = crcfix.feed(output, fixup_enabled, rewrites)

        self._stats[direction].feed(output)
        monitor = self._monitors[direction]
        if monitor.config.enabled:
            monitor.observe(output)

        sent = len(output.values)
        out_phy.drive(sent)
        self.bursts_forwarded += 1
        # One guarded call per burst (not per symbol): occupancy gauges,
        # throughput counters, and the added-latency histogram against
        # the paper's ~250 ns pipeline claim.
        if _TELEMETRY_STATE.active:
            _telemetry.device_burst(self, direction, received, sent)
        if _CAPTURE.active:
            _capture.device_transit(
                self._sim.now, self.name, direction, received, sent
            )
        if sent:
            latency = self.pipeline_latency_ps
            self._sim.schedule(
                latency,
                lambda: out_channel.send(output),
                label=self._out_labels[direction],
            )
