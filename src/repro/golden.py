"""The run-digest golden corpus: pinned simulation behaviour across commits.

Each pinned scenario runs end to end under telemetry and capture
sessions and is reduced to a :class:`RunArtifacts` record: digests of
the delivered symbol streams, the statistics tables, the filtered
telemetry snapshot and the raw ``.rcap`` capture artifact.
``tests/golden/<name>.digest`` holds blake2b digests of those
components, so any change to simulation behaviour — intended or not —
shows up as a digest mismatch, component by component.

Scenario classes:

* **paper** — the §4.3 nftape campaigns (throughput under flow-control
  faults, packet-type corruption, physical-address corruption, UDP
  checksum corruption), run through the full Figure 10 test bed at a
  reduced duration.
* **device** — the device driven directly over two links: fuzzed symbol
  soup (seeded, reproducible), pathological back-to-back triggers, and
  serial reconfiguration while traffic is in flight.

Telemetry is compared without the wall-clock-derived series
(``sim.events_per_s``, ``session.wall_s``): simulation results never
depend on the wall clock, but these two series report it by design.

Workflow::

    python -m repro golden --check            # CI gate
    python -m repro golden --regen            # after an intended change

The pytest gate is ``tests/test_golden_corpus.py``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.capture.session import CAPTURE_FILE_NAME, CaptureSession
from repro.core.device import FaultInjectorDevice
from repro.core.faults import control_symbol_swap, replace_bytes
from repro.core.monitor import MonitorConfig
from repro.core.session import InjectorSession
from repro.errors import ConfigurationError
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet.link import Channel, Link
from repro.myrinet.symbols import (
    GAP,
    Burst,
    GO,
    IDLE,
    STOP,
    Symbol,
    control_symbol,
    data_symbol,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.timebase import MS
from repro.telemetry import TelemetrySession

__all__ = [
    "GOLDEN_SCENARIOS",
    "CheckReport",
    "RunArtifacts",
    "artifact_digests",
    "check_corpus",
    "compute_digests",
    "read_digest_file",
    "regen_corpus",
    "run_scenario",
]

#: Telemetry series that report the host wall clock by design.
WALL_CLOCK_SERIES = frozenset({"sim.events_per_s", "session.wall_s"})


def _digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _filtered_metrics(registry) -> Dict[str, Any]:
    """A registry snapshot without the wall-clock series."""
    document = registry.to_dict()
    document["series"] = [
        series for series in document["series"]
        if series["name"] not in WALL_CLOCK_SERIES
    ]
    return document


@dataclass
class RunArtifacts:
    """Everything one scenario run produced, reduced to comparables."""

    #: blake2b over each delivered symbol stream (device scenarios) or
    #: over the rendered result tables (paper scenarios).
    stream_digests: Dict[str, str] = field(default_factory=dict)
    #: Statistics tables / counters, JSON-comparable.
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Rendered human-readable tables (paper scenarios).
    tables: str = ""
    #: Telemetry snapshot without the wall-clock series.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: blake2b over the raw bytes of the ``.rcap`` artifact.
    rcap_digest: str = ""

    def fingerprint(self) -> str:
        """One digest over every comparable field (golden corpus key)."""
        return _digest(
            json.dumps(
                {
                    "streams": self.stream_digests,
                    "stats": self.stats,
                    "tables": self.tables,
                    "telemetry": self.telemetry,
                    "rcap": self.rcap_digest,
                },
                sort_keys=True,
            ).encode("utf-8")
        )


# ----------------------------------------------------------------------
# device-level harness
# ----------------------------------------------------------------------


class _StreamTap:
    """Link endpoint that folds every delivered symbol into a digest."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self.symbols = 0

    def on_burst(self, burst: Burst, channel: Channel) -> None:
        # The wire image: each symbol's (D/C flag, value) byte pair.
        count = len(burst.values)
        image = bytearray(2 * count)
        image[0::2] = burst.flags
        image[1::2] = burst.values
        self.symbols += count
        self._hash.update(image)

    def digest(self) -> str:
        return f"{self._hash.hexdigest()}:{self.symbols}"


class _DeviceHarness:
    """The device alone on a bench: two links, two taps, one session."""

    def __init__(self, *, monitor: bool = False) -> None:
        self.sim = Simulator()
        config = (
            MonitorConfig(enabled=True, pre_symbols=64, post_symbols=64)
            if monitor else None
        )
        self.device = FaultInjectorDevice(
            self.sim, pipeline_depth=8, monitor_config=config,
        )
        left = Link(self.sim, "conf-left")
        right = Link(self.sim, "conf-right")
        self.device.attach_left(left, "b")
        self.device.attach_right(right, "a")
        # Left endpoint transmits rightward (direction R) and receives
        # the leftward (L) output; the right endpoint mirrors it.
        self.tap_l = _StreamTap()
        self.tap_r = _StreamTap()
        self.tx_r = left.attach_a(self.tap_l)
        self.tx_l = right.attach_b(self.tap_r)
        self.session = InjectorSession(self.sim, self.device)

    def send(self, direction: str, symbols: List[Symbol], at_ps: int) -> None:
        channel = self.tx_r if direction == "R" else self.tx_l
        burst = Burst.from_symbols(symbols)
        self.sim.schedule_at(at_ps, lambda: channel.send(burst), "conf-drive")

    def artifacts(self) -> RunArtifacts:
        stats: Dict[str, Any] = dict(self.device.stats.as_dict())
        stats["monitor"] = {
            d: self.device.monitor_summary(d) for d in ("L", "R")
        }
        stats["bursts_forwarded"] = self.device.bursts_forwarded
        stats["decoder"] = {
            "ok": self.device.comm.decoder.commands_ok,
            "error": self.device.comm.decoder.commands_error,
        }
        stats["serial"] = {
            "sent": self.session.commands_sent,
            "errors": self.session.errors_seen,
            "responses": list(self.session.responses),
        }
        return RunArtifacts(
            stream_digests={
                "L": self.tap_l.digest(),
                "R": self.tap_r.digest(),
            },
            stats=stats,
        )


def _with_sessions(
    name: str, drive: Callable[[], _DeviceHarness]
) -> RunArtifacts:
    """Run a device scenario under telemetry + capture sessions.

    The session labels are part of the digested artifacts, so they keep
    the ``conformance:`` prefix the corpus was first pinned with.
    """
    with tempfile.TemporaryDirectory() as tmp:
        with TelemetrySession(label=f"conformance:{name}") as tele:
            with CaptureSession(out_dir=tmp, label=f"conformance:{name}"):
                harness = drive()
        rcap_digest = _digest((Path(tmp) / CAPTURE_FILE_NAME).read_bytes())
    artifacts = harness.artifacts()
    artifacts.telemetry = _filtered_metrics(tele.registry)
    artifacts.rcap_digest = rcap_digest
    return artifacts


def _soup_burst(rng: DeterministicRng, length: int) -> List[Symbol]:
    """A burst of random data/control symbol soup."""
    specials = (GAP, IDLE, STOP, GO)
    burst: List[Symbol] = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.85:
            burst.append(data_symbol(rng.randint(0, 255)))
        elif roll < 0.97:
            burst.append(specials[rng.randint(0, 3)])
        else:
            burst.append(control_symbol(rng.randint(0, 255)))
    return burst


def _fuzz_config(rng: DeterministicRng) -> InjectorConfig:
    """A randomized register file: byte patterns, swaps, sparse masks."""
    kind = rng.randint(0, 3)
    if kind == 0:
        # Single-byte pattern: frequent-ish matches.
        match = bytes([rng.randint(0, 255)])
        replacement = bytes([rng.randint(0, 255)])
        return replace_bytes(
            match, replacement,
            match_mode=MatchMode.ON if rng.random() < 0.5 else MatchMode.ONCE,
            crc_fixup=rng.random() < 0.5,
        )
    if kind == 1:
        # Two-byte pattern: rarer matches, long pass-through stretches.
        match = bytes([rng.randint(0, 255), rng.randint(0, 255)])
        replacement = bytes([rng.randint(0, 255), rng.randint(0, 255)])
        return replace_bytes(
            match, replacement,
            match_mode=MatchMode.ON,
            crc_fixup=rng.random() < 0.5,
        )
    if kind == 2:
        # Control-symbol swap: matches on the D/C lane bits.
        symbols = (GAP, IDLE, STOP, GO)
        source = symbols[rng.randint(0, 3)]
        target = symbols[rng.randint(0, 3)]
        if target is source:
            target = symbols[(rng.randint(0, 3) + 1) % 4]
        return control_symbol_swap(source, target, MatchMode.ON)
    # Sparse mask: two compare bits, so matches are frequent and mostly
    # coincidental.
    return InjectorConfig(
        match_mode=MatchMode.ON,
        compare_data=rng.randint(0, 255),
        compare_mask=0x0000_0003,
        corrupt_mode=CorruptMode.TOGGLE,
        corrupt_data=0,
        corrupt_mask=0x0000_00FF,
    )


def _run_fuzz(seed: int, name: str) -> RunArtifacts:
    def drive() -> _DeviceHarness:
        rng = DeterministicRng(seed).fork("conformance")
        harness = _DeviceHarness(monitor=seed % 2 == 0)
        device = harness.device
        device.configure("R", _fuzz_config(rng.fork("config-R")))
        device.configure("L", _fuzz_config(rng.fork("config-L")))

        traffic = rng.fork("traffic")
        t = 0
        for index in range(40):
            direction = "R" if traffic.random() < 0.6 else "L"
            burst = _soup_burst(traffic, traffic.randint(80, 400))
            harness.send(direction, burst, t)
            # Mix back-to-back and gapped bursts.
            t += traffic.randint(1, 3) * len(burst) * 12_500
            if index % 10 == 9:
                # Re-arm a once-mode trigger mid-stream, as campaigns do.
                harness.sim.schedule_at(
                    t,
                    lambda d=direction: device.injector(d).set_match_mode(
                        MatchMode.ONCE
                    ),
                    "conf-rearm",
                )
        # Read the register file back over the serial link at the end.
        harness.session.read_stats("R", lambda values: None)
        harness.session.read_stats("L", lambda values: None)
        harness.sim.run()
        return harness

    return _with_sessions(name, drive)


def _drive_back_to_back() -> _DeviceHarness:
    harness = _DeviceHarness(monitor=True)
    device = harness.device
    # Phase 1: every symbol matches.  A full-byte lane-0 compare against
    # a constant stream.
    device.configure("R", InjectorConfig(
        match_mode=MatchMode.ON,
        compare_data=0x0000_00AA,
        compare_mask=0x0000_00FF,
        compare_ctl=0x1,        # lane 0 must be a *data* symbol
        compare_ctl_mask=0x1,
        corrupt_mode=CorruptMode.TOGGLE,
        corrupt_data=0,
        corrupt_mask=0x0000_0001,
    ))
    wall = [data_symbol(0xAA)] * 256
    t = 0
    for _ in range(6):
        harness.send("R", wall, t)
        t += 256 * 12_500  # back-to-back: next burst queues immediately
    # Phase 2: matches every 8th symbol, first at position 7.
    comb = []
    for index in range(512):
        comb.append(data_symbol(0x55 if index % 8 == 7 else 0x11))
    harness.sim.schedule_at(t, lambda: device.configure("R", InjectorConfig(
        match_mode=MatchMode.ON,
        compare_data=0x0000_0055,
        compare_mask=0x0000_00FF,
        compare_ctl=0x1,        # lane 0 must be a *data* symbol
        compare_ctl_mask=0x1,
        corrupt_mode=CorruptMode.REPLACE,
        corrupt_data=0x0000_0077,
        corrupt_mask=0x0000_00FF,
    )), "conf-reconfig")
    for _ in range(4):
        harness.send("R", comb, t)
        t += 512 * 12_500
    harness.sim.run()
    return harness


def _drive_mid_reconfig() -> _DeviceHarness:
    """Serial-command epochs: reconfigure over RS-232 mid-stream."""
    harness = _DeviceHarness()
    session = harness.session
    rng = DeterministicRng(99).fork("mid-reconfig")

    session.configure("R", replace_bytes(b"\x18\x18", b"\x19\x18",
                                         match_mode=MatchMode.ON,
                                         crc_fixup=False))
    traffic = rng.fork("traffic")
    t = 30 * MS  # let the serial upload (~10 ms) finish first
    for index in range(24):
        burst = _soup_burst(traffic, traffic.randint(120, 300))
        harness.send("R", burst, t)
        t += 2 * len(burst) * 12_500
        if index == 11:
            harness.sim.schedule_at(
                t,
                lambda: session.configure(
                    "R",
                    control_symbol_swap(STOP, GO, MatchMode.ON),
                ),
                "conf-reconfig",
            )
            t += 15 * MS  # serial upload pacing
    harness.sim.run()
    return harness


# ----------------------------------------------------------------------
# paper campaigns (§4.3.1–§4.3.4)
# ----------------------------------------------------------------------


def _render_tables(result: Any) -> str:
    if isinstance(result, tuple):  # sec433 returns (table, artifacts)
        table, artifacts = result
        extra = json.dumps(artifacts, sort_keys=True, default=str)
        return table.render() + "\n" + extra
    return result.render()


def _run_paper(name: str, entry: Callable[[], Any]) -> RunArtifacts:
    with tempfile.TemporaryDirectory() as tmp:
        with TelemetrySession(label=f"conformance:{name}") as tele:
            with CaptureSession(out_dir=tmp, label=f"conformance:{name}"):
                result = entry()
        rcap_digest = _digest((Path(tmp) / CAPTURE_FILE_NAME).read_bytes())
    tables = _render_tables(result)
    return RunArtifacts(
        stream_digests={"tables": _digest(tables.encode("utf-8"))},
        tables=tables,
        telemetry=_filtered_metrics(tele.registry),
        rcap_digest=rcap_digest,
    )


def _sec431() -> Any:
    from repro.nftape.paper import sec431_throughput
    return sec431_throughput(duration_ps=3 * MS)


def _sec432() -> Any:
    from repro.nftape.paper import sec432_packet_types
    return sec432_packet_types()


def _sec433() -> Any:
    from repro.nftape.paper import sec433_addresses
    return sec433_addresses()


def _sec434() -> Any:
    from repro.nftape.paper import sec434_udp_checksum
    return sec434_udp_checksum()


# ----------------------------------------------------------------------
# the corpus
# ----------------------------------------------------------------------

#: Scenario name -> runner.  The four §4.3 paper campaigns, three fuzz
#: seeds and the two pathological device drives.
_RUNNERS: Dict[str, Callable[[], RunArtifacts]] = {
    "sec431": lambda: _run_paper("sec431", _sec431),
    "sec432": lambda: _run_paper("sec432", _sec432),
    "sec433": lambda: _run_paper("sec433", _sec433),
    "sec434": lambda: _run_paper("sec434", _sec434),
    "fuzz_soup_1": lambda: _run_fuzz(1, "fuzz_soup_1"),
    "fuzz_soup_2": lambda: _run_fuzz(2, "fuzz_soup_2"),
    "fuzz_soup_3": lambda: _run_fuzz(3, "fuzz_soup_3"),
    "back_to_back": lambda: _with_sessions(
        "back_to_back", _drive_back_to_back),
    "mid_burst_reconfig": lambda: _with_sessions(
        "mid_burst_reconfig", _drive_mid_reconfig),
}

#: The pinned corpus, in check order.
GOLDEN_SCENARIOS: Tuple[str, ...] = tuple(_RUNNERS)

_COMPONENTS = ("streams", "stats", "tables", "telemetry", "rcap")

_HEADER = (
    "# repro golden digest — scenario {name}\n"
    "# blake2b over the run's delivered streams, stats, telemetry and\n"
    "# .rcap artifact.\n"
    "# regenerate after an *intended* behaviour change:\n"
    "#   python -m repro golden --regen\n"
)


def run_scenario(name: str) -> RunArtifacts:
    """Run one pinned scenario under telemetry + capture sessions."""
    (name,) = _select(name)
    return _RUNNERS[name]()


def artifact_digests(run: RunArtifacts) -> Dict[str, str]:
    """Component digests of one run (localizes mismatches)."""
    digests = {
        "streams": _digest(
            json.dumps(run.stream_digests, sort_keys=True).encode()
        ),
        "stats": _digest(json.dumps(run.stats, sort_keys=True).encode()),
        "tables": _digest(run.tables.encode("utf-8")),
        "telemetry": _digest(
            json.dumps(run.telemetry, sort_keys=True).encode()
        ),
        "rcap": run.rcap_digest or "-",
    }
    digests["fingerprint"] = run.fingerprint()
    return digests


def compute_digests(name: str) -> Dict[str, str]:
    """Run one golden scenario and reduce it to its digest record."""
    return artifact_digests(run_scenario(name))


def _digest_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.digest"


def read_digest_file(path: Path) -> Dict[str, str]:
    """Parse one ``*.digest`` file into its key/value record."""
    record: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        record[key] = value.strip()
    return record


def _write_digest_file(path: Path, name: str,
                       digests: Dict[str, str]) -> None:
    lines = [_HEADER.format(name=name)]
    lines.append(f"fingerprint {digests['fingerprint']}")
    for component in _COMPONENTS:
        lines.append(f"{component} {digests[component]}")
    path.write_text("\n".join(lines) + "\n")


def _select(only: Optional[str]) -> Tuple[str, ...]:
    if only is None:
        return GOLDEN_SCENARIOS
    if only not in GOLDEN_SCENARIOS:
        raise ConfigurationError(
            f"unknown golden scenario {only!r}; "
            f"choose from {', '.join(GOLDEN_SCENARIOS)}"
        )
    return (only,)


def regen_corpus(directory, only: Optional[str] = None) -> List[Path]:
    """Recompute the corpus and rewrite its files; returns the paths."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name in _select(only):
        path = _digest_path(root, name)
        _write_digest_file(path, name, compute_digests(name))
        written.append(path)
    return written


@dataclass
class CheckEntry:
    """One scenario's verdict against the committed corpus."""

    name: str
    ok: bool
    detail: str


@dataclass
class CheckReport:
    """The corpus-wide verdict, renderable for CLI and CI logs."""

    entries: List[CheckEntry]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def render(self) -> str:
        lines = ["golden corpus check"]
        for entry in self.entries:
            marker = "ok  " if entry.ok else "FAIL"
            lines.append(f"  {marker} {entry.name}  {entry.detail}")
        passed = sum(1 for e in self.entries if e.ok)
        lines.append(f"{passed}/{len(self.entries)} scenarios match")
        if not self.ok:
            lines.append(
                "mismatching components name the artifact that moved; "
                "regen only after confirming the change is intended "
                "(python -m repro golden --regen)"
            )
        return "\n".join(lines)


def check_corpus(directory, only: Optional[str] = None) -> CheckReport:
    """Recompute every digest and diff it against the corpus."""
    root = Path(directory)
    entries: List[CheckEntry] = []
    for name in _select(only):
        path = _digest_path(root, name)
        if not path.exists():
            entries.append(CheckEntry(
                name, False,
                f"missing {path} (run: python -m repro golden --regen)",
            ))
            continue
        expected = read_digest_file(path)
        actual = compute_digests(name)
        if actual.get("fingerprint") == expected.get("fingerprint"):
            entries.append(CheckEntry(
                name, True, f"fingerprint {actual['fingerprint']}"
            ))
            continue
        moved = [
            component for component in _COMPONENTS
            if actual.get(component) != expected.get(component)
        ]
        entries.append(CheckEntry(
            name, False, f"components moved: {', '.join(moved) or '?'}"
        ))
    return CheckReport(entries=entries)
