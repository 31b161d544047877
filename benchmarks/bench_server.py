"""Monitoring-service throughput — sustained campaigns/s and
submit->first-event latency under many concurrent streaming clients.

One :class:`~repro.server.MonitorServer` (serial runner, the container
is 1-CPU) faces :data:`CLIENTS` concurrent threads, each repeatedly:

1. ``POST /campaigns`` with a 1-experiment, 1 ms-sim CampaignSpec;
2. opening ``GET /campaigns/{id}/events`` and blocking until the first
   NDJSON event arrives (the synchronously-published
   ``campaign_queued``, replayed from history at stream open);
3. recording the wall time from just before the POST to that first
   event line — the latency a live dashboard actually experiences.

The run then waits for every campaign to complete and reports

* **sustained campaigns/s** — completed campaigns over the wall time
  from first submission to last completion (execution is the
  bottleneck: one ~1 ms-sim campaign costs a few ms of host CPU, and
  the serial runner is deliberately a single thread);
* **p50/p99 submit->first-event latency** — dominated by the server's
  0.05 s stream poll tick, not by campaign execution.

Writes ``BENCH_server.json`` at the repo root; the committed snapshot
is the baseline (1-CPU container — absolute rates are modest and the
p99 includes scheduler noise from 100+ Python threads sharing one
core).
"""

import http.client
import json
import pathlib
import statistics
import threading
import time

from benchmarks.conftest import record_result, scaled_ps
from repro.runtime.spec import CampaignSpec, ExperimentSpec
from repro.runtime.spec_codec import spec_to_json
from repro.server import MonitorServer
from repro.sim.timebase import MS

#: Repo-root snapshot: {throughput: {...}, latency: {...}}.
BENCH_SERVER_PATH = (
    pathlib.Path(__file__).parent.parent / "BENCH_server.json"
)

#: Concurrent client threads (the ISSUE's floor is 100).
CLIENTS = 100
#: Campaigns submitted per client thread.
CAMPAIGNS_PER_CLIENT = 2
#: Wall-clock ceiling for the whole run.
DEADLINE_S = 600.0


def _bench_spec(index: int) -> CampaignSpec:
    duration_ps = max(1 * MS, scaled_ps(1 * MS))
    return CampaignSpec(
        f"bench-{index:04d}",
        [ExperimentSpec("only", duration_ps)],
        base_seed=index,
    )


def _submit_and_first_event(host, port, document):
    """POST one campaign, stream until the first event; return
    (campaign_id, latency_s, rejected_429_count)."""
    payload = json.dumps({"spec": document})
    rejections = 0
    start = time.perf_counter()
    while True:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        connection.request("POST", "/campaigns", body=payload)
        response = connection.getresponse()
        body = response.read()
        connection.close()
        if response.status == 202:
            campaign_id = json.loads(body)["id"]
            break
        if response.status == 429:
            rejections += 1
            time.sleep(0.05)
            continue
        raise AssertionError(f"submit failed: {response.status} {body!r}")

    connection = http.client.HTTPConnection(host, port, timeout=60)
    connection.request("GET", f"/campaigns/{campaign_id}/events")
    response = connection.getresponse()
    assert response.status == 200
    first = response.fp.readline()
    latency = time.perf_counter() - start
    connection.close()
    assert json.loads(first)["kind"] == "campaign_queued"
    return campaign_id, latency, rejections


def test_server_throughput_and_latency(benchmark, tmp_path):
    server = MonitorServer(
        root=str(tmp_path / "srv"),
        queue_limit=CLIENTS * CAMPAIGNS_PER_CLIENT,
    )
    server.start()
    host, port = server.address
    documents = [
        spec_to_json(_bench_spec(index))
        for index in range(CLIENTS * CAMPAIGNS_PER_CLIENT)
    ]

    latencies = []
    campaign_ids = []
    rejections = [0]
    errors = []
    lock = threading.Lock()

    def client_main(client_index):
        try:
            for round_index in range(CAMPAIGNS_PER_CLIENT):
                document = documents[
                    client_index * CAMPAIGNS_PER_CLIENT + round_index]
                campaign_id, latency, rejected = _submit_and_first_event(
                    host, port, document)
                with lock:
                    campaign_ids.append(campaign_id)
                    latencies.append(latency)
                    rejections[0] += rejected
        except Exception as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(f"client {client_index}: {exc}")

    def run_fleet():
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client_main, args=(index,))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=DEADLINE_S)
        # Wait for the runner to drain every accepted campaign.
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            states = {
                record.id: record.state
                for record in server._records.values()
            }
            if states and all(state in ("completed", "failed")
                              for state in states.values()):
                break
            time.sleep(0.05)
        return time.perf_counter() - start

    try:
        total_wall = benchmark.pedantic(run_fleet, rounds=1, iterations=1)
        assert not errors, errors[:3]
        completed = sum(
            1 for record in server._records.values()
            if record.state == "completed"
        )
        events_published = server.bus.published
        events_dropped = server.bus.dropped
    finally:
        server.stop()

    total = CLIENTS * CAMPAIGNS_PER_CLIENT
    assert completed == total
    assert len(latencies) == total

    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]

    throughput_row = {
        "clients": CLIENTS,
        "campaigns": total,
        "completed": completed,
        "wall_s": round(total_wall, 3),
        "campaigns_per_s": (
            round(completed / total_wall, 2) if total_wall else 0.0
        ),
        "rejected_429_retries": rejections[0],
        "events_published": events_published,
        "events_dropped": events_dropped,
    }
    latency_row = {
        "samples": len(latencies),
        "p50_ms": round(1000.0 * p50, 1),
        "p99_ms": round(1000.0 * p99, 1),
        "max_ms": round(1000.0 * ordered[-1], 1),
    }

    document = {
        "generated_by": "benchmarks/bench_server.py",
        "schema": "throughput -> fleet completion; latency -> "
                  "submit->first-event percentiles",
        "notes": "1-CPU container: the serial runner executes campaigns "
                 "one at a time while 100 client threads share the same "
                 "core as the asyncio loop, so campaigns/s measures the "
                 "whole machine, not the server alone; first-event "
                 "latency includes the 0.05s stream poll tick.",
        "throughput": throughput_row,
        "latency": latency_row,
    }
    BENCH_SERVER_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        "monitoring-service throughput "
        f"({CLIENTS} concurrent streaming clients)",
        f"  throughput: {completed}/{total} campaigns in "
        f"{throughput_row['wall_s']:.2f}s "
        f"({throughput_row['campaigns_per_s']:.2f} campaigns/s, "
        f"{rejections[0]} 429-retry(ies))",
        f"  latency:    submit->first-event p50 "
        f"{latency_row['p50_ms']:.0f} ms, p99 "
        f"{latency_row['p99_ms']:.0f} ms over "
        f"{latency_row['samples']} submissions",
        f"  events:     {events_published} published, "
        f"{events_dropped} dropped",
    ]
    record_result("server_throughput", "\n".join(lines))
