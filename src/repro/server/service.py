"""Monitoring-as-a-service: the multi-tenant campaign server.

The paper's architecture separates the *probe* (in the data path,
cannot stall) from the *analysis station* (off to the side, consuming
what the probe forwards).  :class:`MonitorServer` is the analysis
station for the reproduction's own campaigns: a stdlib-only asyncio
HTTP service that accepts :class:`~repro.runtime.spec.CampaignSpec`
JSON, queues it behind bounded back-pressure, executes it on a runner
thread, streams live lifecycle events from the
:class:`~repro.runtime.events.EventBus`, and serves the merged
artifacts plus the auto-run :mod:`repro.insight` verdict as JSON.

Architecture — three thread roles, all buffers bounded:

* the **asyncio loop thread** owns every socket.  Handlers never run
  simulations; the slowest thing they do is poll a bounded
  event-bus subscription between ``await asyncio.sleep`` ticks;
* the **runner thread(s)** drain the pending queue.  The default is one
  runner executing one campaign at a time; with ``runners > 1`` the
  queue drains N campaigns concurrently, and every record then runs on
  the :class:`~repro.runtime.executors.PooledExecutor` — whose
  experiments execute in *worker processes* — because the in-process
  observation session is process-wide state that two
  concurrent in-process campaigns would corrupt.  When the bounded queue is full,
  ``POST /campaigns`` answers ``429`` immediately — submission never
  blocks on execution;
* the **submitting client's** first event (``campaign_queued``) is
  published synchronously at accept time, so a follower attached right
  after the ``202`` sees the stream from seq 0 via history replay.

Determinism contract: the executor runs with ``label=None`` (the merged
artifact label stays ``spec.name``) and ``events_label=<campaign id>``
(the event stream is keyed by the server-unique id).  A spec submitted
over HTTP therefore produces byte-identical merged tables and insight
digests to the same spec run offline through :mod:`repro.api` — the
server only *observes*; tests pin this.

Tenancy: artifacts live under ``root/<tenant>/<campaign-id>/`` and every
campaign endpoint 404s unless the request's tenant (header ``X-Tenant``
or query ``?tenant=``, default ``default``) matches the owner.

Wall-clock note: this package carries the SIM001/FLOW101 scoped
allowance — the server reads host time for uptime, heartbeats and
latency metrics, never inside sim logic.
"""

from __future__ import annotations

import asyncio
import re
import threading
import time
from collections import deque
from pathlib import Path
from queue import Full
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.nftape.campaign import Campaign
from repro.runtime.events import (
    DEFAULT_HISTORY,
    EventBus,
    EventBusSession,
    TERMINAL_KINDS,
)
from repro.runtime.executors import PooledExecutor, SerialExecutor
from repro.runtime.spec import CampaignSpec
from repro.runtime.spec_codec import spec_from_json
from repro.scenario import compile_scenario, scenario_from_json
from repro.server.http import (
    BadRequest,
    Request,
    error_body,
    json_response,
    read_request,
    response,
    stream_headers,
)
from repro.telemetry.exporters import PROMETHEUS_CONTENT_TYPE, to_prometheus
from repro.telemetry.metrics import MetricsRegistry
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_QUEUE_LIMIT",
    "MonitorServer",
    "CampaignRecord",
]

#: Pending campaigns the server holds before answering 429.
DEFAULT_QUEUE_LIMIT = 8
#: How long the streaming poll sleeps between subscription drains.
STREAM_POLL_S = 0.05
#: Valid tenant names (also path-safe directory names).
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Campaign lifecycle states as the status endpoint reports them.
STATES = ("queued", "running", "completed", "failed")


class CampaignRecord:
    """One submitted campaign's server-side state."""

    def __init__(self, id: str, tenant: str, spec: CampaignSpec,
                 root: Path, workers: int) -> None:
        self.id = id
        self.tenant = tenant
        self.spec = spec
        self.workers = workers
        self.state = "queued"
        self.error: Optional[str] = None
        self.dir = root / tenant / id
        self.submitted_monotonic = time.monotonic()
        self.finished_monotonic: Optional[float] = None
        self.table_text: Optional[str] = None
        self.report_doc: Optional[Dict[str, Any]] = None
        self.report_digest: Optional[str] = None

    def status_doc(self, bus: EventBus) -> Dict[str, Any]:
        """The ``GET /campaigns/{id}`` body."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "name": self.spec.name,
            "experiments": len(self.spec),
            "workers": self.workers,
            "state": self.state,
            "events": bus.last_seq(self.id),
            "links": {
                "events": f"/campaigns/{self.id}/events",
                "report": f"/campaigns/{self.id}/report",
                "table": f"/campaigns/{self.id}/artifacts/table",
                "metrics": f"/campaigns/{self.id}/artifacts/metrics",
                "capture": f"/campaigns/{self.id}/artifacts/capture",
            },
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.report_digest is not None:
            doc["report_digest"] = self.report_digest
        return doc


class MonitorServer:
    """The asyncio campaign service (see module docstring).

    ::

        server = MonitorServer(root="srv")
        server.start()                 # binds, spawns loop + runner
        ... HTTP on server.address ...
        server.stop()

    ``port=0`` binds an ephemeral port; :attr:`address` is the bound
    ``(host, port)`` once :meth:`start` returns.
    """

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        history: int = DEFAULT_HISTORY,
        timeout_s: Optional[float] = None,
        runners: int = 1,
    ) -> None:
        self.root = Path(root)
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.queue_limit = max(1, queue_limit)
        self.timeout_s = timeout_s
        #: Concurrent campaign runner threads.  More than one forces
        #: every campaign onto the pooled executor (process-isolated
        #: experiments) — see the module docstring.
        self.runners = max(1, runners)
        self.bus = EventBus(history=history)
        self.address: Optional[Tuple[str, int]] = None

        self._records: Dict[str, CampaignRecord] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        #: Pending campaigns, FIFO; bounded by ``queue_limit`` at submit
        #: time.  A plain deque under the lock (not ``queue.Queue``) so
        #: the runner's gate check and its pop are one atomic decision —
        #: ``pause()`` deterministically freezes the queue depth.
        self._pending: Deque[CampaignRecord] = deque()
        self._counter = 0
        self._started_monotonic: Optional[float] = None
        self._stopping = threading.Event()
        #: Runner gate: cleared by :meth:`pause` (tests use this to pin
        #: the 429 path deterministically).
        self._gate = threading.Event()
        self._gate.set()
        self._runner_threads: List[threading.Thread] = []
        self._loop_thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._bus_session = EventBusSession(self.bus)
        # Self-metric counters (lock-protected).
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._disconnects = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "MonitorServer":
        """Bind, install the event bus, spawn loop + runner threads."""
        if self._loop_thread is not None:
            raise ConfigurationError("server already started")
        self.root.mkdir(parents=True, exist_ok=True)
        self._started_monotonic = time.monotonic()
        self._bus_session.__enter__()

        started = threading.Event()
        failure: List[BaseException] = []

        def _loop_main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                server = loop.run_until_complete(asyncio.start_server(
                    self._handle_connection, self.host, self.port))
            except OSError as exc:
                failure.append(exc)
                started.set()
                return
            self._asyncio_server = server
            sock = server.sockets[0].getsockname()
            self.address = (sock[0], sock[1])
            started.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                loop.run_until_complete(server.wait_closed())
                loop.close()

        self._loop_thread = threading.Thread(
            target=_loop_main, name="repro-server-loop", daemon=True)
        self._loop_thread.start()
        started.wait()
        if failure:
            self._loop_thread = None
            self._bus_session.__exit__(None, None, None)
            raise ConfigurationError(f"cannot bind server: {failure[0]}")

        self._runner_threads = [
            threading.Thread(
                target=self._runner_main,
                name=f"repro-server-runner-{slot}", daemon=True,
            )
            for slot in range(self.runners)
        ]
        for thread in self._runner_threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drain nothing, restore the previous bus."""
        self._stopping.set()
        self._gate.set()
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None
        for thread in self._runner_threads:
            thread.join(timeout=30.0)
        self._runner_threads = []
        self._bus_session.__exit__(None, None, None)

    def __enter__(self) -> "MonitorServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- test hooks ----------------------------------------------------

    def pause(self) -> None:
        """Stop the runner from dequeuing (submissions still accepted)."""
        self._gate.clear()

    def resume(self) -> None:
        """Undo :meth:`pause`."""
        self._gate.set()

    # ------------------------------------------------------------------
    # submission + runner
    # ------------------------------------------------------------------

    def submit(self, tenant: str, document: Any) -> CampaignRecord:
        """Validate, enqueue, and announce one campaign.

        Raises :class:`ConfigurationError` on a bad spec/tenant and
        :class:`queue.Full` when the job queue is at capacity (the HTTP
        layer maps those to 400 and 429).
        """
        if not _TENANT_RE.match(tenant):
            raise ConfigurationError(
                f"invalid tenant {tenant!r} (want [A-Za-z0-9][A-Za-z0-9_.-]*)"
            )
        workers = self.workers
        scenario_doc = None
        if isinstance(document, dict) and (
                "spec" in document or "scenario" in document):
            if "spec" in document and "scenario" in document:
                raise ConfigurationError(
                    "pass exactly one of 'spec' (a campaign spec) or "
                    "'scenario' (a scenario document to compile)"
                )
            extra = {k for k in document
                     if k not in ("spec", "scenario", "workers")}
            if extra:
                raise ConfigurationError(
                    f"unknown submission fields: {sorted(extra)}"
                )
            if "workers" in document:
                if not isinstance(document["workers"], int) \
                        or isinstance(document["workers"], bool) \
                        or document["workers"] < 1:
                    raise ConfigurationError(
                        "workers must be a positive integer"
                    )
                workers = document["workers"]
            scenario_doc = document.get("scenario")
            document = document.get("spec")
        if scenario_doc is not None:
            # Server-side compilation: the client ships the declarative
            # document and the server owns the document -> campaign
            # mapping.  ScenarioError subclasses ConfigurationError, so
            # bad documents answer 400 with the JSON-pointer location.
            spec = compile_scenario(scenario_from_json(scenario_doc))
        else:
            spec = spec_from_json(document)

        with self._lock:
            if len(self._pending) >= self.queue_limit:
                self._rejected += 1
                raise Full()
            self._counter += 1
            record = CampaignRecord(
                id=f"c{self._counter:04d}", tenant=tenant, spec=spec,
                root=self.root, workers=workers,
            )
            self._pending.append(record)
            self._records[record.id] = record
            self._order.append(record.id)
            self._submitted += 1
        self.bus.publish(record.id, "campaign_queued", tenant=tenant,
                         name=spec.name, experiments=len(spec))
        return record

    def _runner_main(self) -> None:
        while not self._stopping.is_set():
            if not self._gate.wait(timeout=0.1):
                continue
            with self._lock:
                record = (self._pending.popleft()
                          if self._pending else None)
            if record is None:
                time.sleep(0.02)
                continue
            self._run_record(record)

    def _run_record(self, record: CampaignRecord) -> None:
        record.state = "running"
        record.dir.mkdir(parents=True, exist_ok=True)
        try:
            if self.runners > 1 or record.workers > 1:
                # Concurrent runners: every campaign's experiments must
                # run in worker *processes*, because the ambient
                # observation session is process-wide — two
                # in-process campaigns in one server process would
                # interleave their instrumentation.
                executor: Any = PooledExecutor(
                    workers=record.workers,
                    timeout_s=self.timeout_s,
                    artifacts_dir=record.dir,
                    events_label=record.id,
                )
            else:
                executor = SerialExecutor(
                    artifacts_dir=record.dir,
                    events_label=record.id,
                )
            campaign = Campaign.from_spec(record.spec)
            table = campaign.run(executor=executor)
            record.table_text = table.render()
            (record.dir / "table.txt").write_text(
                record.table_text + "\n", encoding="utf-8")
            self._run_insight(record)
            record.state = "completed"
            with self._lock:
                self._completed += 1
        except Exception as exc:  # noqa: BLE001 - server must survive
            record.error = f"{type(exc).__name__}: {exc}"
            record.state = "failed"
            with self._lock:
                self._failed += 1
            if not self._terminal_published(record.id):
                self.bus.publish(record.id, "campaign_failed",
                                 error=record.error)
        finally:
            record.finished_monotonic = time.monotonic()

    def _run_insight(self, record: CampaignRecord) -> None:
        """Auto-run incident correlation; serve the verdict as JSON.

        Import is local so the server module stays importable even if
        the insight stack is unavailable; an insight failure degrades
        the campaign (no report) without failing it.
        """
        from repro.insight import analyze_artifacts

        report = analyze_artifacts(record.dir)
        record.report_doc = report.to_dict()
        record.report_digest = report.digest()
        (record.dir / "insight.json").write_text(
            report.canonical_json() + "\n", encoding="utf-8")
        self.bus.publish(record.id, "insight_ready",
                         digest=record.report_digest,
                         incidents=len(report.incidents))

    def _terminal_published(self, campaign_id: str) -> bool:
        return any(event.kind in TERMINAL_KINDS
                   for event in self.bus.history(campaign_id))

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                status, body = error_body(exc.status, str(exc))
                writer.write(response(status, body))
                await writer.drain()
                return
            if request is None:
                return
            await self._dispatch(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            self._disconnects += 1
        except Exception as exc:  # noqa: BLE001 - keep the loop alive
            try:
                status, body = error_body(500, f"{type(exc).__name__}: {exc}")
                writer.write(response(status, body))
                await writer.drain()
            except ConnectionError:
                self._disconnects += 1
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass  # simlint: disable=ERR001 -- best-effort teardown

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        path = request.path.rstrip("/") or "/"
        tenant = request.headers.get(
            "x-tenant", request.query.get("tenant", "default"))

        if path == "/healthz":
            await self._respond(writer, self._handle_healthz(request))
            return
        if path == "/metrics":
            await self._respond(writer, self._handle_metrics(request))
            return
        if path == "/campaigns":
            if request.method == "POST":
                await self._respond(
                    writer, self._handle_submit(request, tenant))
            elif request.method == "GET":
                await self._respond(writer, self._handle_list(tenant))
            else:
                status, body = error_body(405, "use GET or POST")
                await self._respond(writer, response(status, body))
            return

        match = re.match(r"^/campaigns/([^/]+)(?:/(.*))?$", path)
        if match:
            record = self._lookup(match.group(1), tenant)
            rest = match.group(2) or ""
            if record is None:
                status, body = error_body(
                    404, f"no campaign {match.group(1)!r} for "
                         f"tenant {tenant!r}")
                await self._respond(writer, response(status, body))
                return
            if request.method != "GET":
                status, body = error_body(405, "campaign routes are GET")
                await self._respond(writer, response(status, body))
                return
            if rest == "":
                await self._respond(
                    writer, json_response(200, record.status_doc(self.bus)))
            elif rest == "events":
                await self._stream_events(request, writer, record)
            elif rest == "report":
                await self._respond(writer, self._handle_report(record))
            elif rest.startswith("artifacts/"):
                await self._respond(
                    writer,
                    self._handle_artifact(record, rest[len("artifacts/"):]))
            else:
                status, body = error_body(404, f"unknown route {path!r}")
                await self._respond(writer, response(status, body))
            return

        status, body = error_body(404, f"unknown route {path!r}")
        await self._respond(writer, response(status, body))

    async def _respond(self, writer: asyncio.StreamWriter,
                       payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    def _lookup(self, campaign_id: str,
                tenant: str) -> Optional[CampaignRecord]:
        with self._lock:
            record = self._records.get(campaign_id)
        if record is None or record.tenant != tenant:
            return None
        return record

    # -- handlers ------------------------------------------------------

    def _handle_healthz(self, request: Request) -> bytes:
        if request.method != "GET":
            status, body = error_body(405, "healthz is GET")
            return response(status, body)
        with self._lock:
            queued = len(self._pending)
        return json_response(200, {
            "status": "ok",
            "queue_depth": queued,
            "queue_limit": self.queue_limit,
            "campaigns": len(self._order),
        })

    def _handle_metrics(self, request: Request) -> bytes:
        if request.method != "GET":
            status, body = error_body(405, "metrics is GET")
            return response(status, body)
        registry = self._self_metrics()
        body = to_prometheus(registry).encode("utf-8")
        return response(200, body, PROMETHEUS_CONTENT_TYPE)

    def _self_metrics(self) -> MetricsRegistry:
        """A fresh registry of server + process self-metrics per scrape."""
        registry = MetricsRegistry()
        with self._lock:
            submitted = self._submitted
            completed = self._completed
            failed = self._failed
            rejected = self._rejected
            disconnects = self._disconnects
            depth = len(self._pending)
            tenants = len({r.tenant for r in self._records.values()})
        registry.counter("server.campaigns_submitted").inc(submitted)
        registry.counter("server.campaigns_completed").inc(completed)
        registry.counter("server.campaigns_failed").inc(failed)
        registry.counter("server.campaigns_rejected").inc(rejected)
        registry.counter("server.client_disconnects").inc(disconnects)
        registry.gauge("server.queue_depth").set(depth)
        registry.gauge("server.queue_limit").set(self.queue_limit)
        registry.gauge("server.tenants").set(tenants)
        registry.counter("events.published").inc(self.bus.published)
        registry.counter("events.dropped").inc(self.bus.dropped)
        uptime = 0.0
        if self._started_monotonic is not None:
            uptime = time.monotonic() - self._started_monotonic
        registry.gauge("process.uptime_s").set(round(uptime, 3))
        registry.gauge("process.rss_bytes").set(_rss_bytes())
        return registry

    def _handle_submit(self, request: Request, tenant: str) -> bytes:
        try:
            document = request.json()
            record = self.submit(tenant, document)
        except BadRequest as exc:
            status, body = error_body(exc.status, str(exc))
            return response(status, body)
        except ConfigurationError as exc:
            status, body = error_body(400, str(exc))
            return response(status, body)
        except Full:
            status, body = error_body(
                429, f"job queue full ({self.queue_limit} pending); "
                     f"retry later")
            return response(status, body, extra={"Retry-After": "1"})
        return json_response(202, record.status_doc(self.bus))

    def _handle_list(self, tenant: str) -> bytes:
        with self._lock:
            records = [self._records[i] for i in self._order
                       if self._records[i].tenant == tenant]
        return json_response(200, {
            "tenant": tenant,
            "campaigns": [r.status_doc(self.bus) for r in records],
        })

    def _handle_report(self, record: CampaignRecord) -> bytes:
        if record.report_doc is None:
            status, body = error_body(
                404, f"campaign {record.id} has no insight report yet "
                     f"(state: {record.state})")
            return response(status, body)
        return json_response(200, {
            "id": record.id,
            "digest": record.report_digest,
            "report": record.report_doc,
        })

    def _handle_artifact(self, record: CampaignRecord, name: str) -> bytes:
        if name == "table":
            if record.table_text is None:
                status, body = error_body(
                    404, f"campaign {record.id} has no merged table yet "
                         f"(state: {record.state})")
                return response(status, body)
            return response(
                200, (record.table_text + "\n").encode("utf-8"),
                "text/plain; charset=utf-8")
        if name == "metrics":
            path = record.dir / "telemetry" / "metrics.json"
            if not path.exists():
                status, body = error_body(
                    404, f"campaign {record.id} has no merged metrics "
                         f"(telemetry not enabled for this spec?)")
                return response(status, body)
            return response(200, path.read_bytes(), "application/json")
        if name == "capture":
            path = record.dir / "capture" / "capture.rcap"
            if not path.exists():
                status, body = error_body(
                    404, f"campaign {record.id} has no merged capture "
                         f"(no monitor_config in the spec?)")
                return response(status, body)
            return response(200, path.read_bytes(),
                            "application/octet-stream")
        if name == "insight":
            path = record.dir / "insight.json"
            if not path.exists():
                status, body = error_body(
                    404, f"campaign {record.id} has no insight.json yet")
                return response(status, body)
            return response(200, path.read_bytes(), "application/json")
        status, body = error_body(
            404, f"unknown artifact {name!r} "
                 f"(want table|metrics|capture|insight)")
        return response(status, body)

    # -- event streaming ----------------------------------------------

    async def _stream_events(self, request: Request,
                             writer: asyncio.StreamWriter,
                             record: CampaignRecord) -> None:
        """NDJSON (default) or SSE live stream, replayed from seq 0.

        The stream closes once the campaign is terminal *and* every
        published event has been sent — ``insight_ready`` lands after
        ``campaign_finished``, so closure keys off the record state, not
        the terminal event kind.
        """
        sse = request.wants_sse()
        content_type = ("text/event-stream" if sse
                        else "application/x-ndjson")
        writer.write(stream_headers(content_type))
        await writer.drain()

        subscription = self.bus.subscribe(campaign=record.id, replay=True)
        sent_through = -1
        try:
            while True:
                events = subscription.drain()
                if events:
                    chunks = []
                    for event in events:
                        line = event.to_json()
                        if sse:
                            chunks.append(
                                f"event: {event.kind}\ndata: {line}\n\n")
                        else:
                            chunks.append(line + "\n")
                        sent_through = event.seq
                    writer.write("".join(chunks).encode("utf-8"))
                    await writer.drain()
                if record.state in ("completed", "failed") \
                        and sent_through + 1 >= self.bus.last_seq(record.id):
                    return
                if self._stopping.is_set():
                    return
                await asyncio.sleep(STREAM_POLL_S)
        finally:
            subscription.close()


def _rss_bytes() -> int:
    """Resident set size via /proc, falling back to getrusage."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass  # simlint: disable=ERR001 -- getrusage fallback below
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - non-posix fallback
        return 0
