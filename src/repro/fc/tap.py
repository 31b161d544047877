"""Splicing the fault injector into a Fibre Channel link.

The core FPGA design "is general, and its use on a different network
would only require the redesign of the network interface logic" (paper
§1): the FCPHY transceivers deliver decoded characters (an 8-bit value
plus a data/control flag) to the FPGA, which is exactly the 9-bit symbol
alphabet the FIFO injector already processes.

:class:`FcInjectorTap` is that interface logic: per direction it decodes
the incoming 10-bit code groups (PHY receive), runs the characters
through the device's :class:`~repro.hw.injector.FifoInjector`, optionally
recomputes the frame's CRC-32 (the FC analogue of the Myrinet CRC fix-up),
re-encodes with a fresh running disparity (PHY transmit), and
retransmits on the opposite segment after the device's pipeline latency,
clocked at the FC link's code period.  This is the split of paper
footnote 1 (interface logic separated from injector logic) and the one
Fibre Channel device: Myrinet links use the device directly.

An injection that turns a character into an *undefined* control
character cannot be encoded; the PHY then emits an invalid code group on
the line, which the receiving port counts as a code error — the same
observable a real PHY driven out of spec would produce.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError, EncodingError
from repro.fc.crc32 import crc32
from repro.fc.encoding import Decoder8b10b, Encoder8b10b
from repro.fc.ordered_sets import classify_word, is_eof, is_sof
from repro.core.device import FaultInjectorDevice
from repro.myrinet.link import Channel, Link
from repro.myrinet.symbols import Burst, Symbol, control_symbol, data_symbol
from repro.sim.kernel import Simulator

#: An intentionally invalid 10-bit code group (run of six ones).
INVALID_CODE_GROUP = 0b1111110000

_K28_5_SYMBOL = control_symbol(0xBC)


class _DirectionState:
    """Per-direction PHY codecs and CRC fix-up frame tracking."""

    def __init__(self) -> None:
        self.decoder = Decoder8b10b()
        self.encoder = Encoder8b10b()
        self.word: List[Symbol] = []
        self.in_frame = False
        self.content: List[Symbol] = []
        self.frame_dirty = False
        self.out: List[Symbol] = []


class FcInjectorTap:
    """The device's Fibre Channel interface logic."""

    def __init__(self, sim: Simulator, device: FaultInjectorDevice) -> None:
        self._sim = sim
        self._device = device
        self._tx: Dict[str, Optional[Channel]] = {"left": None, "right": None}
        self._channel_direction: Dict[int, str] = {}
        self._states = {"R": _DirectionState(), "L": _DirectionState()}
        self.encode_failures = 0
        self.frames_crc_fixed = 0

    # ------------------------------------------------------------------
    # wiring (same contract as FaultInjectorDevice)
    # ------------------------------------------------------------------

    def attach_left(self, link: Link, side: str) -> None:
        self._attach("left", link, side)

    def attach_right(self, link: Link, side: str) -> None:
        self._attach("right", link, side)

    def _attach(self, where: str, link: Link, side: str) -> None:
        if self._tx[where] is not None:
            raise ConfigurationError(f"FC tap {where} already attached")
        if side == "a":
            tx = link.attach_a(self)
            rx = link.b_to_a
        elif side == "b":
            tx = link.attach_b(self)
            rx = link.a_to_b
        else:
            raise ConfigurationError(f"link side must be 'a' or 'b': {side!r}")
        self._tx[where] = tx
        self._channel_direction[id(rx)] = "R" if where == "left" else "L"
        # The device never attaches to a link itself: clock its pipeline
        # at the FC code period, as FaultInjectorDevice._attach does.
        self._device._char_period_ps = link.char_period_ps

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def on_burst(self, burst: List[int], channel: Channel) -> None:
        direction = self._channel_direction.get(id(channel))
        if direction is None:
            raise ConfigurationError("FC tap: burst on unknown channel")
        out_channel = (
            self._tx["right"] if direction == "R" else self._tx["left"]
        )
        if out_channel is None:
            raise ConfigurationError("FC tap: output segment not attached")
        state = self._states[direction]
        injector = self._device.injector(direction)

        # PHY receive: 10b -> (value, D/C) characters.
        values = bytearray()
        flags = bytearray()
        for code in burst:
            decoded = state.decoder.decode(code)
            if decoded is None:
                continue  # invalid group: character lost on the line
            value, is_k = decoded
            values.append(value)
            flags.append(0 if is_k else 1)

        events_before = injector.injections
        processed = injector.process_burst(Burst(bytes(values), bytes(flags)))
        dirty = injector.injections > events_before

        output = self._crc_fixup(state, processed.symbols(), dirty,
                                 injector.config.crc_fixup)

        # PHY transmit: characters -> 10b code groups.
        codes: List[int] = []
        for symbol in output:
            try:
                codes.append(
                    state.encoder.encode(symbol.value, not symbol.is_data)
                )
            except EncodingError:
                self.encode_failures += 1
                codes.append(INVALID_CODE_GROUP)
        if codes:
            latency = self._device.pipeline_latency_ps
            self._sim.schedule(
                latency,
                lambda: out_channel.send(codes),
                label=f"fc-tap:{direction}:out",
            )

    # ------------------------------------------------------------------
    # FC CRC-32 fix-up
    # ------------------------------------------------------------------

    def _crc_fixup(
        self,
        state: _DirectionState,
        symbols: List[Symbol],
        dirty: bool,
        enabled: bool,
    ) -> List[Symbol]:
        """Rewrite the CRC-32 of frames dirtied by an injection.

        The stage buffers frame content between SOF and EOF words; clean
        frames and all primitives pass through byte-identical.  When the
        stage is disabled and idle the burst is returned untouched.
        """
        if dirty:
            state.frame_dirty = True
        if not enabled and not state.in_frame and not state.word:
            return symbols
        out: List[Symbol] = []
        for symbol in symbols:
            if state.word:
                state.word.append(symbol)
                if len(state.word) == 4:
                    self._finish_word(state, out, enabled)
                continue
            if symbol == _K28_5_SYMBOL:
                state.word = [symbol]
                continue
            if state.in_frame:
                state.content.append(symbol)
            else:
                out.append(symbol)
        return out

    def _finish_word(self, state: _DirectionState, out: List[Symbol],
                     enabled: bool) -> None:
        word = state.word
        state.word = []
        characters = tuple(
            (s.value, not s.is_data) for s in word
        )
        ordered_set = classify_word(characters)
        if ordered_set is not None and is_sof(ordered_set):
            out.extend(word)
            state.in_frame = True
            state.content = []
            return
        if ordered_set is not None and is_eof(ordered_set) and state.in_frame:
            content = state.content
            state.in_frame = False
            state.content = []
            if enabled and state.frame_dirty and len(content) >= 4:
                body = bytes(
                    s.value for s in content[:-4] if s.is_data
                )
                fixed = crc32(body).to_bytes(4, "big")
                content = content[:-4] + [data_symbol(b) for b in fixed]
                self.frames_crc_fixed += 1
            state.frame_dirty = False
            out.extend(content)
            out.extend(word)
            return
        # Primitive signal or unclassifiable word: flush any frame in
        # flight (the line lost its framing) and pass the word through.
        if state.in_frame and ordered_set is None:
            out.extend(state.content)
            state.in_frame = False
            state.content = []
        out.extend(word)
