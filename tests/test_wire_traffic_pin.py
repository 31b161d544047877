"""Wire-traffic pin: what every Myrinet channel carried, end to end.

Three library scenarios run at seed 0, cut to 2 ms, through the serial
executor.  Every channel reachable from the test bed's network — both
directions of each host connection segment and of each switch-port link
(trunks included) — reports ``(name, symbols_carried, bursts_carried)``;
a blake2b over the sorted records is pinned per scenario.

This is the cross-layer check that how symbols are batched into bursts
and handed between components neither drops nor duplicates traffic: a
symbol lost or carried twice anywhere on the wire moves a count.
"""

import dataclasses
import hashlib

import pytest

from repro.api import Campaign, SerialExecutor, compile_scenario, load_scenario

#: blake2b-16 of each scenario's sorted channel records (seed 0, 2 ms).
PINS = {
    "paper-sec35": "7ddd25216f4545a64b3928274e4bfb7d",
    "paper-table4": "972b0027fb7e9e9358285237c3a42f9f",
    "fabric-congestion": "85abf3f6b0a80aa76f59b77be4a99f74",
}


def _channel_records(network):
    links = {}
    for connection in network.connections:
        for link in connection.links:
            links[id(link)] = link
    for switch in network.switches.values():
        for port in switch._ports:
            if port.link is not None:
                links[id(port.link)] = port.link
    return sorted(
        (channel.name, channel.symbols_carried, channel.bursts_carried)
        for link in links.values()
        for channel in (link.a_to_b, link.b_to_a)
    )


def _wire_digest(name):
    doc = load_scenario(name)
    doc = dataclasses.replace(
        doc, seed=0, duration_ms=2.0,
        experiments=tuple(
            dataclasses.replace(experiment, duration_ms=2.0)
            if experiment.duration_ms is not None else experiment
            for experiment in doc.experiments
        ),
    )
    table = Campaign.from_spec(compile_scenario(doc)).run(SerialExecutor())
    h = hashlib.blake2b(digest_size=16)
    for result in table.results:
        records = _channel_records(result.extras["testbed"].network)
        assert any(symbols for _name, symbols, _bursts in records)
        h.update(repr((result.name, records)).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_wire_traffic_is_pinned(name):
    assert _wire_digest(name) == PINS[name]
