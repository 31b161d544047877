"""The monitoring-as-a-service HTTP server, end to end over sockets.

Every test drives a real :class:`MonitorServer` bound to an ephemeral
localhost port through stdlib ``http.client`` — no mocked transport.
Covered contracts:

* submit -> 202 -> live NDJSON/SSE stream -> completed status with the
  auto-run insight verdict;
* bounded back-pressure: a paused runner plus a full queue answers
  ``429`` (with ``Retry-After``) and recovers on resume;
* tenant isolation: listings are per-tenant, cross-tenant ids 404, and
  artifact trees never share a directory;
* ``/metrics`` speaks the Prometheus text exposition content type and
  carries the ``server.*`` / ``process.*`` self-metrics;
* **offline equivalence** — a spec submitted over HTTP produces the
  byte-identical merged table and insight digest of the same spec run
  offline through :mod:`repro.api`.
"""

import http.client
import json
import time

import pytest

from repro.nftape.campaign import Campaign
from repro.runtime.executors import MAX_RETRIES, SerialExecutor
from repro.runtime.spec_codec import spec_to_json
from repro.runtime.worker import HANG_PARAM
from repro.server import MonitorServer
from repro.telemetry.exporters import PROMETHEUS_CONTENT_TYPE

from tests.test_runtime import tiny_spec

#: Wall-clock ceiling for one tiny campaign to finish on a loaded CI box.
DEADLINE_S = 60.0


pytestmark = pytest.mark.usefixtures("observation_off")


@pytest.fixture()
def server(tmp_path):
    instance = MonitorServer(root=str(tmp_path / "srv"), queue_limit=3)
    instance.start()
    yield instance
    instance.stop()


class Client:
    """A minimal per-request HTTP client against the test server."""

    def __init__(self, server, tenant="default"):
        self.host, self.port = server.address
        self.tenant = tenant

    def request(self, method, path, body=None, headers=None, timeout=30):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout)
        merged = {"X-Tenant": self.tenant}
        merged.update(headers or {})
        connection.request(method, path, body=body, headers=merged)
        response = connection.getresponse()
        payload = response.read()
        connection.close()
        return response, payload

    def get_json(self, path, expect=200):
        response, payload = self.request("GET", path)
        assert response.status == expect, payload
        return json.loads(payload)

    def submit(self, spec, expect=202, **extra):
        document = {"spec": spec_to_json(spec), **extra}
        response, payload = self.request(
            "POST", "/campaigns", body=json.dumps(document))
        assert response.status == expect, payload
        return response, json.loads(payload)

    def wait_done(self, campaign_id):
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            status = self.get_json(f"/campaigns/{campaign_id}")
            if status["state"] in ("completed", "failed"):
                return status
            time.sleep(0.02)
        raise AssertionError(f"campaign {campaign_id} never finished")

    def stream_lines(self, campaign_id, headers=None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=DEADLINE_S)
        merged = {"X-Tenant": self.tenant}
        merged.update(headers or {})
        connection.request(
            "GET", f"/campaigns/{campaign_id}/events", headers=merged)
        response = connection.getresponse()
        assert response.status == 200
        content_type = response.getheader("Content-Type")
        lines = [line.decode("utf-8").rstrip("\n")
                 for line in response.fp if line.strip()]
        connection.close()
        return content_type, lines


# ----------------------------------------------------------------------
# submit / status / stream / report
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_scenario_document_compiled_server_side(self, server):
        """``POST /campaigns`` with ``{"scenario": ...}`` compiles and
        runs the document exactly as the offline compiler would."""
        from repro.scenario import (
            compile_scenario, load_scenario, scenario_to_json,
        )

        doc = load_scenario("paper-sec35")
        client = Client(server)
        response, submitted = client.request(
            "POST", "/campaigns",
            body=json.dumps({"scenario": scenario_to_json(doc)}))
        assert response.status == 202
        submitted = json.loads(submitted)
        assert submitted["name"] == "paper-sec35"
        assert submitted["experiments"] == len(
            compile_scenario(doc).experiments)
        status = client.wait_done(submitted["id"])
        assert status["state"] == "completed"

    def test_submit_stream_and_report(self, server):
        client = Client(server)
        _, submitted = client.submit(tiny_spec(n=2, name="svc campaign"))
        campaign_id = submitted["id"]
        assert submitted["state"] == "queued"
        assert submitted["links"]["events"] \
            == f"/campaigns/{campaign_id}/events"

        content_type, lines = client.stream_lines(campaign_id)
        assert content_type == "application/x-ndjson"
        events = [json.loads(line) for line in lines]
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "campaign_queued"
        assert "campaign_started" in kinds
        assert kinds.count("experiment_finished") == 2
        assert "campaign_finished" in kinds
        assert kinds[-1] == "insight_ready"
        # Replayed from seq 0, gapless, all keyed by the server id.
        assert [event["seq"] for event in events] \
            == list(range(len(events)))
        assert {event["campaign"] for event in events} == {campaign_id}

        status = client.wait_done(campaign_id)
        assert status["state"] == "completed"
        assert status["report_digest"]

        report = client.get_json(f"/campaigns/{campaign_id}/report")
        assert report["digest"] == status["report_digest"]
        assert report["report"]["campaign"]["name"] == "svc campaign"
        assert len(report["report"]["incidents"]) == 2

    def test_sse_stream_when_accept_asks_for_it(self, server):
        client = Client(server)
        _, submitted = client.submit(tiny_spec(n=1, name="sse campaign"))
        content_type, lines = client.stream_lines(
            submitted["id"], headers={"Accept": "text/event-stream"})
        assert content_type == "text/event-stream"
        assert any(line == "event: campaign_finished" for line in lines)
        data_lines = [line for line in lines if line.startswith("data: ")]
        first = json.loads(data_lines[0][len("data: "):])
        assert first["kind"] == "campaign_queued"

    def test_stream_of_finished_campaign_replays_and_closes(self, server):
        client = Client(server)
        _, submitted = client.submit(tiny_spec(n=1, name="late follower"))
        client.wait_done(submitted["id"])
        _, lines = client.stream_lines(submitted["id"])
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds[0] == "campaign_queued"
        assert kinds[-1] == "insight_ready"

    def test_artifacts_served(self, server):
        client = Client(server)
        _, submitted = client.submit(tiny_spec(n=1, name="artifact run"))
        client.wait_done(submitted["id"])
        response, payload = client.request(
            "GET", f"/campaigns/{submitted['id']}/artifacts/table")
        assert response.status == 200
        assert "artifact run" in payload.decode("utf-8")
        response, payload = client.request(
            "GET", f"/campaigns/{submitted['id']}/artifacts/capture")
        assert response.status == 200
        assert response.getheader("Content-Type") \
            == "application/octet-stream"
        response, _ = client.request(
            "GET", f"/campaigns/{submitted['id']}/artifacts/insight")
        assert response.status == 200

    def test_listing_and_healthz(self, server):
        client = Client(server)
        _, submitted = client.submit(tiny_spec(n=1, name="listed"))
        listing = client.get_json("/campaigns")
        assert [c["id"] for c in listing["campaigns"]] == [submitted["id"]]
        health = client.get_json("/healthz")
        assert health["status"] == "ok"
        assert health["queue_limit"] == 3


# ----------------------------------------------------------------------
# error paths: 400 / 404 / 405 / 429
# ----------------------------------------------------------------------

class TestErrors:
    def test_malformed_json_is_400(self, server):
        response, payload = Client(server).request(
            "POST", "/campaigns", body="{nope")
        assert response.status == 400
        assert "JSON" in json.loads(payload)["error"]

    def test_bad_spec_is_400_with_path(self, server):
        document = spec_to_json(tiny_spec(n=1))
        document["experiments"][0]["duration_ps"] = "fast"
        response, payload = Client(server).request(
            "POST", "/campaigns",
            body=json.dumps({"spec": document}))
        assert response.status == 400
        assert "duration_ps" in json.loads(payload)["error"]

    def test_string_bool_and_nested_kwargs_are_400_with_path(self, server):
        """Neither is queued to fail later in the runner: a string where
        a boolean belongs and a nested kwarg are rejected at submit."""
        client = Client(server)
        string_bool = spec_to_json(tiny_spec(n=2))
        string_bool["experiments"][1]["plan"]["use_serial"] = "false"
        nested = spec_to_json(tiny_spec(n=1))
        nested["experiments"][0]["testbed"] = {"host_kwargs": {"mtu": [1]}}
        for document, path in (
                (string_bool, "spec.experiments[1].plan.use_serial"),
                (nested, "spec.experiments[0].testbed.host_kwargs.mtu")):
            response, payload = client.request(
                "POST", "/campaigns", body=json.dumps({"spec": document}))
            assert response.status == 400, payload
            assert path in json.loads(payload)["error"]
        assert client.get_json("/campaigns")["campaigns"] == []

    def test_bad_scenario_is_400_with_pointer(self, server):
        document = {"scenario": {
            "scenario": 1, "name": "x",
            "topology": {"kind": "torus"},
            "experiments": [{"name": "e"}],
        }}
        response, payload = Client(server).request(
            "POST", "/campaigns", body=json.dumps(document))
        assert response.status == 400
        assert "/topology/kind" in json.loads(payload)["error"]

    def test_spec_and_scenario_together_is_400(self, server):
        document = {"spec": spec_to_json(tiny_spec(n=1)), "scenario": {}}
        response, payload = Client(server).request(
            "POST", "/campaigns", body=json.dumps(document))
        assert response.status == 400
        assert "exactly one" in json.loads(payload)["error"]

    def test_unknown_routes_and_methods(self, server):
        client = Client(server)
        response, _ = client.request("GET", "/nope")
        assert response.status == 404
        response, _ = client.request("DELETE", "/campaigns")
        assert response.status == 405
        response, _ = client.request("GET", "/campaigns/c9999")
        assert response.status == 404

    def test_back_pressure_answers_429_until_resumed(self, server):
        client = Client(server)
        server.pause()
        accepted = []
        for index in range(server.queue_limit):
            _, doc = client.submit(tiny_spec(n=1, name=f"queued-{index}"))
            accepted.append(doc["id"])

        response, payload = client.request(
            "POST", "/campaigns",
            body=json.dumps({"spec": spec_to_json(tiny_spec(n=1))}))
        assert response.status == 429
        assert response.getheader("Retry-After") == "1"
        assert "queue full" in json.loads(payload)["error"]

        server.resume()
        for campaign_id in accepted:
            assert client.wait_done(campaign_id)["state"] == "completed"
        # Capacity is back: the next submission is accepted.
        client.submit(tiny_spec(n=1, name="after resume"))


# ----------------------------------------------------------------------
# tenancy
# ----------------------------------------------------------------------

class TestTenancy:
    def test_two_tenants_are_isolated(self, server, tmp_path):
        alice = Client(server, tenant="alice")
        bob = Client(server, tenant="bob")
        _, doc_a = alice.submit(tiny_spec(n=1, name="shared name"))
        _, doc_b = bob.submit(tiny_spec(n=1, name="shared name"))
        alice.wait_done(doc_a["id"])
        bob.wait_done(doc_b["id"])

        # Listings are per-tenant.
        assert [c["id"] for c in alice.get_json("/campaigns")["campaigns"]] \
            == [doc_a["id"]]
        assert [c["id"] for c in bob.get_json("/campaigns")["campaigns"]] \
            == [doc_b["id"]]

        # Cross-tenant access is indistinguishable from absence.
        response, _ = alice.request("GET", f"/campaigns/{doc_b['id']}")
        assert response.status == 404
        response, _ = bob.request(
            "GET", f"/campaigns/{doc_a['id']}/events")
        assert response.status == 404

        # Artifact namespaces never overlap on disk.
        root = tmp_path / "srv"
        assert (root / "alice" / doc_a["id"] / "table.txt").exists()
        assert (root / "bob" / doc_b["id"] / "table.txt").exists()
        assert not (root / "alice" / doc_b["id"]).exists()

    def test_invalid_tenant_name_is_400(self, server):
        client = Client(server, tenant="../escape")
        response, payload = client.request(
            "POST", "/campaigns",
            body=json.dumps({"spec": spec_to_json(tiny_spec(n=1))}))
        assert response.status == 400
        assert "tenant" in json.loads(payload)["error"]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_prometheus_content_type_and_self_metrics(self, server):
        client = Client(server)
        _, submitted = client.submit(tiny_spec(n=1, name="metered"))
        client.wait_done(submitted["id"])
        response, payload = client.request("GET", "/metrics")
        assert response.status == 200
        assert response.getheader("Content-Type") == PROMETHEUS_CONTENT_TYPE
        text = payload.decode("utf-8")
        for series in (
            "repro_server_campaigns_submitted_total 1",
            "repro_server_campaigns_completed_total 1",
            "repro_server_queue_depth 0",
            "repro_events_dropped_total",
            "repro_process_uptime_s",
            "repro_process_rss_bytes",
        ):
            assert any(line.startswith(series)
                       for line in text.splitlines()), series
        # rss is a real, positive reading.
        rss = next(line for line in text.splitlines()
                   if line.startswith("repro_process_rss_bytes"))
        assert int(float(rss.split()[-1])) > 0


# ----------------------------------------------------------------------
# offline equivalence — the service only observes
# ----------------------------------------------------------------------

class TestOfflineEquivalence:
    def test_http_run_matches_offline_api_run(self, server, tmp_path):
        from repro.insight import analyze_artifacts

        spec = tiny_spec(n=2, name="equivalence campaign")

        client = Client(server)
        _, submitted = client.submit(spec)
        status = client.wait_done(submitted["id"])
        assert status["state"] == "completed"
        _, served_table = client.request(
            "GET", f"/campaigns/{submitted['id']}/artifacts/table")

        offline_root = tmp_path / "offline"
        offline_table = Campaign.from_spec(spec).run(
            executor=SerialExecutor(artifacts_dir=offline_root))
        assert served_table.decode("utf-8") \
            == offline_table.render() + "\n"

        offline_digest = analyze_artifacts(offline_root).digest()
        assert status["report_digest"] == offline_digest

        # And the merged capture artifact is byte-identical too.
        _, served_capture = client.request(
            "GET", f"/campaigns/{submitted['id']}/artifacts/capture")
        offline_capture = (
            offline_root / "capture" / "capture.rcap").read_bytes()
        assert served_capture == offline_capture


class TestConcurrentRunnerTimeout:
    def test_timeout_reaches_the_pooled_executor(self, tmp_path):
        """``serve --runners 2 --timeout-s``: every attempt of a hung
        experiment is killed at the deadline and re-issued until the
        retry budget is spent, so the campaign fails instead of hanging
        with the timeout silently dropped."""
        instance = MonitorServer(root=str(tmp_path / "srv"), runners=2,
                                 timeout_s=0.3)
        instance.start()
        try:
            client = Client(instance)
            _, submitted = client.submit(tiny_spec(
                n=1, name="hung campaign",
                extra_params={HANG_PARAM: 60.0}))
            status = client.wait_done(submitted["id"])
            assert status["state"] == "failed"
            _, lines = client.stream_lines(submitted["id"])
        finally:
            instance.stop()
        events = [json.loads(line) for line in lines]
        retried = [event for event in events
                   if event["kind"] == "experiment_retried"]
        assert len(retried) == MAX_RETRIES
        assert all("timed out" in event["reason"] for event in retried)
        assert events[-1]["kind"] == "campaign_failed"
