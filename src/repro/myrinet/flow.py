"""Myrinet link-level flow control (paper §4.1, §4.3.1 and Figure 9).

Each receiving port owns a slack buffer; crossing its high-water mark makes
the receiver signal STOP to the remote sender, and draining below the
low-water mark signals GO.  The remote sender also runs a *short-period
timeout*: its STOP state decays 16 character periods after the most recent
STOP symbol, so a sender stopped by an erroneous STOP "recovers fairly
quickly by acting as if it received a GO symbol" (paper §4.3.1).  Because
of the decay, a receiver that needs a sender to *stay* stopped refreshes
the STOP continuously; the refresher sends STOP symbols in configurable
bursts so the scheduler cost stays bounded.

Two transports are provided (see DESIGN.md):

* ``symbols`` — STOP/GO travel as real control symbols on the reverse
  channel, where an in-path fault injector can observe and corrupt them;
* ``direct`` — the receiver flips the remote sender's flow state through a
  shared registry with zero scheduler events.  Used on links that carry no
  injector, purely as a performance substitution.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.sim.kernel import Event, Simulator
from repro.myrinet.link import Channel
from repro.myrinet.symbols import GO, GO_VALUE, STOP, STOP_VALUE, Burst, Symbol

#: Short-period timeout: 16 character periods (paper §4.3.1).
SHORT_TIMEOUT_PERIODS = 16

#: Long-period timeout: ~4 million character periods, ~50 ms at 80 MB/s
#: (paper §4.3.1, "Corruption of GAP symbols").
LONG_TIMEOUT_PERIODS = 4_000_000

#: STOP symbols per refresh burst in ``symbols`` transport.  A burst of N
#: STOPs serializes over N character periods and is delivered as one
#: chunk, so consecutive bursts arrive N character periods apart; the
#: remote decay timer (16 periods) must cover that spacing, which bounds
#: the burst at the short-timeout length.  Back-to-back bursts then hold
#: the sender stopped continuously at one scheduler event per burst.
STOP_REFRESH_BURST = SHORT_TIMEOUT_PERIODS

#: The single GO that releases a stopped sender.
_GO_BURST = Burst(bytes([GO_VALUE]), b"\x00")


class TxFlowState:
    """Flow-control state gating one transmit direction.

    ``stopped`` is driven two ways: by STOP/GO symbols and by direct
    assertion (held until released).  The short-period timeout follows
    the paper literally: "The timeout counter is set to 16 character
    periods.  If a symbol is received, the counter is reset.  If the
    counter times out, the sender transitions itself to the GO stage."
    Any received symbol — data or control — re-arms the counter, so a
    STOP is *sticky* while the reverse channel carries traffic and only
    decays after 16 quiet character periods.  Receivers therefore report
    every burst through :meth:`note_activity`.

    Senders consult :meth:`blocked` before each burst and may register a
    callback to be poked when the state unblocks.
    """

    def __init__(self, sim: Simulator, char_period_ps: int,
                 short_timeout_periods: int = SHORT_TIMEOUT_PERIODS) -> None:
        self._sim = sim
        self._decay_ps = short_timeout_periods * char_period_ps
        self._stopped = False
        self._last_activity = 0
        self._held = False
        self._on_unblock: List[Callable[[], None]] = []
        self.stops_received = 0
        self.gos_received = 0
        self.timeout_recoveries = 0

    def on_stop_symbol(self) -> None:
        """A STOP symbol arrived: stop, and re-arm the timeout counter."""
        self.stops_received += 1
        self._stopped = True
        self._last_activity = self._sim.now

    def on_go_symbol(self) -> None:
        """A GO symbol arrived: resume immediately."""
        self.gos_received += 1
        if self._stopped:
            self._stopped = False
            if not self._held:
                self._notify()

    def note_activity(self) -> None:
        """Any symbol arrived on the receive side: reset the counter."""
        if self._stopped:
            self._last_activity = self._sim.now

    def on_control_symbol(self, symbol: Symbol) -> None:
        """Dispatch a decoded flow-control symbol."""
        if symbol == STOP:
            self.on_stop_symbol()
        elif symbol == GO:
            self.on_go_symbol()

    def hold(self) -> None:
        """Directly assert backpressure (``direct`` transport)."""
        self._held = True

    def release(self) -> None:
        """Directly release backpressure (``direct`` transport)."""
        if self._held:
            self._held = False
            if not self.blocked():
                self._notify()

    def _decay_check(self) -> None:
        if (
            self._stopped
            and self._sim.now - self._last_activity > self._decay_ps
        ):
            # Short-period timeout: transition to the GO stage.
            self._stopped = False
            self.timeout_recoveries += 1

    def blocked(self) -> bool:
        """True if the sender must not transmit right now."""
        if self._held:
            return True
        self._decay_check()
        return self._stopped

    def earliest_resume(self) -> Optional[int]:
        """A lower bound on when the STOP state can decay, or None if
        held directly (direct holds wake senders via the callback).

        The bound may move later if more symbols arrive; polling senders
        simply re-check and re-schedule.
        """
        if self._held:
            return None
        self._decay_check()
        if self._stopped:
            return self._last_activity + self._decay_ps + 1
        return self._sim.now

    def notify_unblocked(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever the state unblocks."""
        self._on_unblock.append(callback)

    def _notify(self) -> None:
        for callback in list(self._on_unblock):
            callback()


class StopRefresher:
    """Receiver-side STOP generator for the ``symbols`` transport.

    While active, sends bursts of STOP symbols on the reverse channel,
    sized and spaced so the remote decay timer never expires.  Stopping
    the refresher sends a single GO.
    """

    def __init__(self, sim: Simulator, channel: Channel,
                 burst_length: int = STOP_REFRESH_BURST) -> None:
        if burst_length < 1:
            raise ConfigurationError("STOP refresh burst must be >= 1 symbol")
        self._sim = sim
        self._channel = channel
        self._burst = Burst(bytes([STOP_VALUE]) * burst_length,
                            bytes(burst_length))
        self._period_ps = burst_length * channel.char_period_ps
        self._event: Optional[Event] = None
        self._active = False
        self.stop_bursts_sent = 0
        self.gos_sent = 0

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        """Begin asserting STOP.  Idempotent."""
        if self._active:
            return
        self._active = True
        self._send_burst()

    def stop(self) -> None:
        """Release: cancel the refresh and send one GO.  Idempotent."""
        if not self._active:
            return
        self._active = False
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._channel.send(_GO_BURST)
        self.gos_sent += 1

    def _send_burst(self) -> None:
        if not self._active:
            return
        self._channel.send(self._burst)
        self.stop_bursts_sent += 1
        self._event = self._sim.schedule(
            self._period_ps, self._send_burst, label="stop-refresh"
        )


class PortFlowControl:
    """Both halves of a port's flow control.

    * :attr:`tx_state` gates what *we* transmit out of this port; it is
      driven by control symbols we receive (or by the remote side's
      direct assertions).
    * :meth:`set_backpressure` signals the remote sender to stop/go,
      using whichever transport the link was configured with.
    """

    def __init__(
        self,
        sim: Simulator,
        tx_channel: Channel,
        transport: str = "symbols",
        remote_tx_state: Optional[TxFlowState] = None,
        remote_tx_state_getter: Optional[Callable[[], Optional[TxFlowState]]] = None,
        short_timeout_periods: int = SHORT_TIMEOUT_PERIODS,
        refresh_burst: int = STOP_REFRESH_BURST,
    ) -> None:
        if transport not in ("symbols", "direct"):
            raise ConfigurationError(f"unknown flow transport {transport!r}")
        if (
            transport == "direct"
            and remote_tx_state is None
            and remote_tx_state_getter is None
        ):
            raise ConfigurationError(
                "direct flow transport needs the remote TxFlowState "
                "(or a getter that resolves it at use time)"
            )
        self._sim = sim
        self._transport = transport
        self._remote_tx_state = remote_tx_state
        self._remote_getter = remote_tx_state_getter
        self.tx_state = TxFlowState(
            sim, tx_channel.char_period_ps, short_timeout_periods
        )
        self._refresher = StopRefresher(sim, tx_channel, refresh_burst)
        self._backpressure = False

    @property
    def transport(self) -> str:
        return self._transport

    @property
    def backpressure_active(self) -> bool:
        return self._backpressure

    @property
    def refresher(self) -> StopRefresher:
        return self._refresher

    def _resolve_remote(self) -> TxFlowState:
        if self._remote_tx_state is not None:
            return self._remote_tx_state
        if self._remote_getter is not None:
            state = self._remote_getter()
            if state is not None:
                return state
        raise ConfigurationError(
            "direct flow transport: remote TxFlowState not registered yet"
        )

    def on_control_symbol(self, symbol: Symbol) -> None:
        """Feed a received, decoded control symbol to our TX gate."""
        self.tx_state.on_control_symbol(symbol)

    def set_backpressure(self, active: bool) -> None:
        """Ask the remote sender to stop (True) or resume (False)."""
        if active == self._backpressure:
            return
        self._backpressure = active
        if self._transport == "direct":
            remote = self._resolve_remote()
            if active:
                remote.hold()
            else:
                remote.release()
        else:
            if active:
                self._refresher.start()
            else:
                self._refresher.stop()


def long_timeout_ps(char_period_ps: int,
                    periods: int = LONG_TIMEOUT_PERIODS) -> int:
    """The long-period timeout in picoseconds for a given character rate."""
    return periods * char_period_ps


def short_timeout_ps(char_period_ps: int,
                     periods: int = SHORT_TIMEOUT_PERIODS) -> int:
    """The short-period timeout in picoseconds for a given character rate."""
    return periods * char_period_ps
