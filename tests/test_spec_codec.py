"""The spec codec: lossless round-trips and strict, path-qualified 400s.

``spec_from_json(spec_to_json(s)) == s`` is the service's determinism
anchor — a campaign submitted over HTTP is *the same spec object* the
offline API would run.  The decode side must reject malformed documents
with :class:`ConfigurationError` (the server's 400 body), never a bare
``KeyError``/``ValueError``.
"""

import argparse
import json

import pytest

from repro.cli import _campaign_spec
from repro.core.monitor import MonitorConfig
from repro.errors import ConfigurationError
from repro.nftape.experiment import TestbedOptions
from repro.nftape.paper import table4_spec
from repro.nftape.workload import WorkloadConfig
from repro.runtime.spec import CampaignSpec, ExperimentSpec
from repro.runtime.spec_codec import (
    SPEC_CODEC_VERSION,
    spec_from_json,
    spec_to_json,
)
from repro.sim.timebase import MS

from tests.test_runtime import tiny_spec


def _cli_args(**overrides):
    defaults = dict(experiments=3, duration_ms=2.0, seed=5)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [
        tiny_spec(n=3, base_seed=9, name="roundtrip"),
        table4_spec(duration_ps=2 * MS),
        CampaignSpec("bare", [ExperimentSpec("only", 1 * MS)]),
    ], ids=["tiny", "table4", "bare"])
    def test_spec_survives_the_codec(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_cli_campaign_spec_with_capture_survives(self):
        """The server runs exactly what the CLI would: the capture-
        enabled campaign (MonitorConfig in device_kwargs) round-trips."""
        spec = _campaign_spec(_cli_args(), capture_enabled=True)
        restored = spec_from_json(spec_to_json(spec))
        assert restored == spec
        monitor = restored.experiments[0].testbed.device_kwargs[
            "monitor_config"]
        assert isinstance(monitor, MonitorConfig)
        assert monitor.enabled and monitor.pre_symbols == 128

    def test_workload_and_testbed_details_survive(self):
        spec = CampaignSpec("detail", [ExperimentSpec(
            "loaded", 1 * MS,
            workload=WorkloadConfig(payload_size=96, flood_ping=True,
                                    forbidden_bytes={3, 1, 2}),
            testbed=TestbedOptions(seed=11, settle_ps=5000,
                                   host_kwargs={"mtu": 4}),
        )], base_seed=4)
        restored = spec_from_json(spec_to_json(spec))
        assert restored == spec
        assert restored.experiments[0].workload.forbidden_bytes == {1, 2, 3}

    def test_document_is_plain_json(self):
        document = spec_to_json(table4_spec(duration_ps=2 * MS))
        assert json.loads(json.dumps(document)) == document
        assert document["version"] == SPEC_CODEC_VERSION

    def test_retired_pipeline_key_still_decodes(self):
        spec = CampaignSpec("pl", [ExperimentSpec(
            "x", 1 * MS, testbed=TestbedOptions(seed=3),
        )])
        document = spec_to_json(spec)
        testbed = document["experiments"][0]["testbed"]
        assert "pipeline" not in testbed
        # Documents written while the key still selected a data path
        # decode to the same spec.
        for value in (None, "fast"):
            testbed["pipeline"] = value
            assert spec_from_json(document) == spec


class TestStrictDecode:
    def test_non_mapping_is_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            spec_from_json([1, 2, 3])

    def test_missing_name_is_rejected(self):
        with pytest.raises(ConfigurationError, match="spec.name"):
            spec_from_json({"experiments": []})

    def test_unsupported_version_is_rejected(self):
        with pytest.raises(ConfigurationError, match="version"):
            spec_from_json({"name": "x", "version": 99, "experiments": []})

    def test_unknown_experiment_field_is_path_qualified(self):
        doc = spec_to_json(tiny_spec(n=1))
        doc["experiments"][0]["surprise"] = 1
        with pytest.raises(ConfigurationError,
                           match=r"spec.experiments\[0\].*surprise"):
            spec_from_json(doc)

    def test_bad_enum_value_is_rejected(self):
        doc = spec_to_json(tiny_spec(n=2))
        plan = doc["experiments"][1]["plan"]
        plan["config"]["match_mode"] = "sometimes"
        with pytest.raises(ConfigurationError, match="MatchMode"):
            spec_from_json(doc)

    def test_non_integer_duration_is_rejected(self):
        doc = spec_to_json(tiny_spec(n=1))
        doc["experiments"][0]["duration_ps"] = "fast"
        with pytest.raises(ConfigurationError, match="duration_ps"):
            spec_from_json(doc)

    def test_bool_is_not_an_integer(self):
        doc = spec_to_json(tiny_spec(n=1))
        doc["experiments"][0]["duration_ps"] = True
        with pytest.raises(ConfigurationError, match="duration_ps"):
            spec_from_json(doc)

    def test_missing_duration_is_rejected(self):
        doc = spec_to_json(tiny_spec(n=1))
        del doc["experiments"][0]["duration_ps"]
        with pytest.raises(ConfigurationError, match="duration_ps"):
            spec_from_json(doc)

    def test_non_scalar_kwarg_fails_encode_with_path(self):
        spec = CampaignSpec("bad", [ExperimentSpec(
            "x", 1 * MS,
            testbed=TestbedOptions(host_kwargs={"hook": object()}),
        )])
        with pytest.raises(ConfigurationError, match="host_kwargs"):
            spec_to_json(spec)
