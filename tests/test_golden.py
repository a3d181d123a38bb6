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
        "5480d81db7eb6de7bff7c5bc43d4e2096fa6c450a903945cc758fd29cc682f4b",
        "1ba63b8505a6fed0fb50be1b7faa2ec13c1ebd544108a968b8193c5151eb0444",
    ),
    "multilevel-nostore": (
        "c66c0da0e2dce8f353e286693cef9005d6bb269237cdff869423418cf0ca4207",
        "fa4aed054b2f28605646fa713a6adea9505ee55105baf7307f1f8763f96a74fd",
    ),
    "multilevel-store": (
        "6e82294ec879aac8544f7b73e047aecae34c01a1a5294d2131159daafa4d8fa3",
        "f366a8e2b158fb19170d90870267cc9539476b0f403f42417d4cb41666d09b8a",
    ),
    "single-queue": (
        "2c7f4790a985f343a27599446a7ac86ccc6b86c3049fdf4c24d396fcc846bd63",
        "4dfff6be5eec25b222b4c4b34fcce3a884a6c67f5fa924d59fbb2b2d87c38a3a",
    ),
    "tandem-nostore": (
        "82375f3e211458441044a73481cc8044eaaf1105d135b273a2fbfb4bea67f53c",
        "cc5817bc09982bc561e51e68034955b470e768bba98d1f13db71f95cbb62419d",
    ),
    "tandem-store": (
        "7d242e8e5018f82239710aa613ddef634f69c0c801b3c68239ccf20ad50b7fc2",
        "4e9d5dfc6b732dbf878cdb5c8a13f8ef3438a38097010eac945fb7a2708d620f",
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
    "broadcast-sweep": "d53d07c24157",
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
