"""The paper's primary contribution as a library.

:class:`FaultInjectorDevice` assembles the :mod:`repro.hw` entities into
the complete in-path device of paper Figure 1: bi-directional FIFO
injectors between PHY pairs, a CRC fix-up stage, monitoring capture into
SDRAM, statistics gathering, and the RS-232 command interface.  The
device is spliced into any Myrinet link (host link or inter-switch trunk)
and is transparent except for its fixed pipeline latency; on Fibre
Channel, :class:`repro.fc.tap.FcInjectorTap` wraps its injector core.

:class:`InjectorSession` is the external-system side of the serial link —
the paper's management host (NFTAPE) — offering a typed API over the
ASCII command protocol.  :mod:`repro.core.faults` provides the fault
models of §3.1/§3.2 as pre-packaged injector configurations.
"""

from repro.core.device import DeviceStats, FaultInjectorDevice
from repro.core.faults import (
    bit_flip,
    control_symbol_swap,
    force_one,
    force_zero,
    replace_bytes,
    toggle_bits,
)
from repro.core.monitor import CaptureRecord, MonitorConfig
from repro.core.session import InjectorSession, SessionError
from repro.core.stats import DirectionStats, StatisticsGatherer
from repro.core.triggers import header_trigger, pattern_trigger

__all__ = [
    "FaultInjectorDevice",
    "DeviceStats",
    "InjectorSession",
    "SessionError",
    "bit_flip",
    "force_zero",
    "force_one",
    "toggle_bits",
    "replace_bytes",
    "control_symbol_swap",
    "pattern_trigger",
    "header_trigger",
    "MonitorConfig",
    "CaptureRecord",
    "DirectionStats",
    "StatisticsGatherer",
]
