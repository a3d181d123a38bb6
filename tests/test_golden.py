"""Golden digests: the exact JSON and CSV bytes of six small cells.

The same-seed tests compare two runs of one build; these digests pin the
bytes across builds, so a refactor of the engine that changes any output
shows up here.  A change that means to alter results updates the digests
and says so.  Two more pins cover what every output is named or built
from: each preset's config hash, and which links of a generated graph
carry keys.
"""

import hashlib
import json

import pytest

from qkdsim.config import PRESETS, GraphConfig, preset_config
from qkdsim.engine import simulate
from qkdsim.policy import BackpressureMode, MultilevelMode, SingleQueueMode, TandemMode
from qkdsim.topology import erdos_renyi
from qkdsim.traffic import (
    Anycast,
    Bernoulli,
    Broadcast,
    Multicast,
    TrafficClass,
    TruncatedPoisson,
    Unicast,
)


def _full_graph():
    return erdos_renyi(10, 0.35, seed=5)


def _mixed_graph():
    # keys on 60% of the links; a key-equipped spanning tree is kept
    return GraphConfig(kind="erdos_renyi", nodes=10, p=0.4, graph_seed=3, qkd_fraction=0.6).build()


def _tandem_classes():
    return [
        TrafficClass(0, 0, Unicast(7), Bernoulli(0.35)),
        TrafficClass(1, 3, Broadcast(), Bernoulli(0.08)),
        TrafficClass(2, 5, Multicast((1, 8)), Bernoulli(0.12)),
        TrafficClass(3, 9, Anycast((2, 4)), TruncatedPoisson(0.4, cap=3)),
    ]


def _mixed_classes():
    return [
        TrafficClass(0, 0, Unicast(6), Bernoulli(0.3), security="classical"),
        TrafficClass(1, 0, Unicast(6), Bernoulli(0.2), security="quantum", priority=1),
        TrafficClass(2, 0, Unicast(6), Bernoulli(0.2), security="quantum", priority=0),
        TrafficClass(3, 4, Broadcast(), Bernoulli(0.05), security="classical"),
        TrafficClass(4, 8, Multicast((1, 3)), Bernoulli(0.1), security="quantum"),
    ]


def _baseline_classes():
    return [
        TrafficClass(0, 0, Unicast(7), Bernoulli(0.5)),
        TrafficClass(1, 2, Unicast(9), TruncatedPoisson(0.6, cap=3)),
        TrafficClass(2, 6, Unicast(1), Bernoulli(0.3)),
    ]


CELLS = {
    "tandem-store": lambda: simulate(
        _full_graph(), _tandem_classes(), TandemMode(True),
        horizon=500, seed=11, series_stride=1, record_drift=True, queue_cap=2,
    ),
    "tandem-nostore": lambda: simulate(
        _full_graph(), _tandem_classes(), TandemMode(False),
        horizon=500, seed=12, series_stride=1,
    ),
    "multilevel-store": lambda: simulate(
        _mixed_graph(), _mixed_classes(), MultilevelMode(True), scheduler="ento",
        horizon=500, seed=13, series_stride=1,
    ),
    "multilevel-nostore": lambda: simulate(
        _mixed_graph(), _mixed_classes(), MultilevelMode(False),
        horizon=500, seed=14, series_stride=1, queue_cap=2,
    ),
    "single-queue": lambda: simulate(
        _full_graph(), _baseline_classes() + [TrafficClass(3, 9, Anycast((2, 4)), Bernoulli(0.3))],
        SingleQueueMode(), horizon=500, seed=15, series_stride=1, queue_cap=6,
    ),
    "backpressure": lambda: simulate(
        _full_graph(), _baseline_classes(), BackpressureMode(key_cap=5),
        horizon=500, seed=16, series_stride=1, queue_cap=6,
    ),
}

GOLDEN = {
    "backpressure": (
        "d2da0aaae1f7aafd6de942489645f88e4bf1f6740c94b51970df232d678ce693",
        "ebfb508c19ac1da963d98d0e1f7b36a3141795aeda550eeb1b49c6dd2d834408",
    ),
    "multilevel-nostore": (
        "b3a468bea3e599be21b70a05d8fd8ca55677b8f8215b706a8f0f90179fc63990",
        "94a6b24738db753f5df5d17f88ccaa6a933d4ff5f3acb35f32550fbc82f45e6f",
    ),
    "multilevel-store": (
        "a77a04c297ced8c670cd072588e7b585829f24209e0ddcd13f35205ab5572803",
        "7b65711ae9ca2d76e0c15d36d244873f4ef6ac642ef94123e4659c0d9460d824",
    ),
    "single-queue": (
        "050ea82af139192fdfb884fcbca4391781108344f8fbe76a6181592ebabecc7f",
        "cd58783998a4411314d4a6c7adcf6d7db4573495c938d7e01bcedf21c60c2840",
    ),
    "tandem-nostore": (
        "0b96f318e9d1e39c0d7fb9325557d051c3ae6bc093b6e3a4c553c981ed97226c",
        "6efa4706c86f5ef6985002785940384729c73bbe96ef815518ab275af48c9dd9",
    ),
    "tandem-store": (
        "3c7567d9f666bab06edf55003bd28f5db48553a414ddf18facbb7313b0990b9c",
        "e565b27c4082d88a5fdfcb652fd393b28f4ed5b37c415a60e246551ef9e8dfa9",
    ),
}


@pytest.mark.parametrize("label", sorted(CELLS))
def test_golden_bytes(label):
    r = CELLS[label]()
    assert r.policy == label
    got = (
        hashlib.sha256(r.to_json_bytes()).hexdigest(),
        hashlib.sha256(r.to_csv_bytes()).hexdigest(),
    )
    assert got == GOLDEN[label]


PRESET_HASHES = {
    "broadcast-sweep": "58e26d0a6f46",
    "counterexample": "be120215b436",
    "mixed-security": "154fc2c3ed85",
    "unicast-full": "3772b4230ca5",
    "unicast-sweep": "f7b49c9b3d62",
}


def test_preset_config_hashes():
    assert {name: preset_config(name).config_hash() for name in PRESETS} == PRESET_HASHES


# (nodes, p, graph_seed, qkd_fraction) -> sha256 of the (u, v, has_qkd) edge list
KEYED_EDGES = {
    (16, 0.35, 14, 0.7): "427cfcb19688f4867adb025770ac3ccce157ea8ab83b9cde3d22c0473952366f",  # mixed-security
    (10, 0.4, 3, 0.6): "01ebf6ec7a429be907ddffebb629e479927f715826dc41c09f744fe151cbe6c3",
    (12, 0.5, 1, 0.0): "0902c48f934030540d9c7e0c756af131f7f0f79c11d4d11e0be2bf831768e0ef",
    (20, 0.3, 7, 0.5): "ec55d10811440caaaf1f88552183a3a1e1356bf0fe8c02b88c199b1c9b636255",
    (8, 0.45, 11, 1.0): "d06ac34c51db63b820167e46db503ddd9ec6a1d6d7a524648812309dedb773a1",
    (30, 0.2, 5, 0.9): "ae294a0048098c0de7ba89343a350a73a0655d738aff0e3742a56f2adc999fdf",
}


@pytest.mark.parametrize("case", sorted(KEYED_EDGES), ids=str)
def test_generated_key_coverage(case):
    nodes, p, seed, fraction = case
    g = GraphConfig(kind="erdos_renyi", nodes=nodes, p=p, graph_seed=seed, qkd_fraction=fraction).build()
    edges = [(e.u, e.v, e.has_qkd) for e in g.edges]
    assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == KEYED_EDGES[case]
