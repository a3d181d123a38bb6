import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.config import ConfigError, GraphConfig
from qkdsim.topology import (
    EdgeSpec,
    TopologyError,
    build_graph,
    capacitated_transform,
    erdos_renyi,
)

from .oracles import edge_between, erdos_renyi_links, specs


def graph_to_dict(g) -> dict:
    return {
        "nodes": g.n,
        "edges": [
            {
                "u": s.u,
                "v": s.v,
                "gamma": s.gamma,
                "eta": s.eta,
                "has_qkd": s.has_qkd,
                "directed": s.directed,
            }
            for s in specs(g)
        ],
    }


def save_graph_file(g, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_single_directed_edge():
    g = build_graph(2, [EdgeSpec(0, 1, gamma=1, eta=0.5, directed=True)])
    assert g.m == 1
    assert g.edges[0].twin is None
    assert capacitated_transform(g) == [0.5]


def test_trivial_graph_no_edges():
    g = build_graph(1, [])
    assert g.m == 0 and g.n == 1


def test_self_loop_rejected():
    with pytest.raises(TopologyError, match="self-loop"):
        build_graph(3, [EdgeSpec(0, 0)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(TopologyError, match="out of range"):
        build_graph(2, [EdgeSpec(0, 5)])


def test_duplicate_edge_rejected():
    with pytest.raises(TopologyError, match="duplicate"):
        build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 0)])
    with pytest.raises(TopologyError, match="duplicate"):
        build_graph(3, [EdgeSpec(0, 1, directed=True), EdgeSpec(0, 1, directed=True)])


def test_bad_gamma_and_eta_rejected():
    with pytest.raises(TopologyError, match="gamma"):
        build_graph(2, [EdgeSpec(0, 1, gamma=0)])
    # a fractional capacity used to send a link's whole queue every slot
    with pytest.raises(TopologyError, match=r"^edges\[1\]: edge \(1,2\): gamma must be a whole number, got 1\.5$"):
        build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2, gamma=1.5)])
    with pytest.raises(TopologyError, match="eta"):
        build_graph(2, [EdgeSpec(0, 1, eta=0.0)])


@pytest.mark.parametrize("eta", [math.inf, math.nan])
def test_a_keyed_link_needs_a_finite_key_rate(eta):
    # an infinite rate's keys used to be drawn as 0 every slot
    with pytest.raises(TopologyError, match=r"^edges\[1\]: edge \(1,2\): eta must be finite and > 0 on QKD edges, got "):
        build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2, eta=eta)])
    # a keyless link's rate is never read
    assert build_graph(2, [EdgeSpec(0, 1, eta=eta, has_qkd=False)]).m == 2


def test_undirected_edge_mirrors():
    g = build_graph(2, [EdgeSpec(0, 1, gamma=2, eta=0.7)])
    assert g.m == 2
    assert g.edges[0].twin == 1 and g.edges[1].twin == 0
    assert g.edges[0].pair == g.edges[1].pair
    assert edge_between(g, 1, 0) == 1


def test_capacitated_transform_values():
    g = build_graph(
        3,
        [
            EdgeSpec(0, 1, gamma=1, eta=1.0, directed=True),
            EdgeSpec(1, 2, gamma=3, eta=2.7, directed=True),
        ],
    )
    assert capacitated_transform(g) == [1.0, 2.7]


def test_capacitated_transform_idempotent():
    g = erdos_renyi(12, 0.4, seed=3)
    assert capacitated_transform(g) == capacitated_transform(g)


def test_erdos_renyi_determinism():
    g1 = erdos_renyi(10, 0.5, seed=7)
    g2 = erdos_renyi(10, 0.5, seed=7)
    assert specs(g1) == specs(g2)
    g3 = erdos_renyi(10, 0.5, seed=8)
    assert specs(g1) != specs(g3)


@given(
    st.integers(1, 40),
    st.one_of(st.sampled_from([1.0, 0.5, 1e-9]), st.floats(0.001, 1.0)),
    st.one_of(st.sampled_from([(0.2, 1.0), (1, 3), (0.5, 0.5)]),
              st.tuples(st.floats(1e-6, 5.0), st.floats(0.0, 1e6)).map(lambda t: (t[0], t[0] + t[1]))),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.6, 0.0]),
)
@settings(max_examples=300, deadline=None)
def test_erdos_renyi_links_match_a_pair_by_pair_replay(n, p, eta_range, seed, fraction):
    g = erdos_renyi(n, p, eta_range=eta_range, seed=seed, qkd_fraction=fraction)
    assert [(s.u, s.v, s.eta) for s in specs(g)] == erdos_renyi_links(n, p, eta_range, seed)


def test_erdos_renyi_links_at_paper_scale_match_the_replay():
    g = erdos_renyi(150, 0.3, eta_range=(0.2, 1.0), seed=42)
    assert [(s.u, s.v, s.eta) for s in specs(g)] == erdos_renyi_links(150, 0.3, (0.2, 1.0), 42)


def test_erdos_renyi_edge_count_plausible():
    g = erdos_renyi(150, 0.3, seed=1)
    expected = 0.3 * 150 * 149 / 2
    assert 0.9 * expected < len(specs(g)) < 1.1 * expected


def test_erdos_renyi_forced_single_edge():
    g = erdos_renyi(2, 1.0, seed=0)
    assert len(specs(g)) == 1


def test_erdos_renyi_parameter_validation():
    with pytest.raises(TopologyError):
        erdos_renyi(5, 0.0)
    with pytest.raises(TopologyError):
        erdos_renyi(5, 0.5, eta_range=(0.0, 1.0))


@pytest.mark.parametrize("fields, error", [
    ({"p": 1.5}, r"^p: must be in \(0, 1\], got 1\.5"),
    ({"gamma": 0}, r"^gamma: must be >= 1, got 0"),
    ({"gamma": 1.5}, r"^gamma: must be a whole number, got 1\.5"),
    ({"eta_range": (0.5, 0.1)}, r"^eta_range: need 0 < low <= high, got \[0\.5, 0\.1\]"),
    ({"eta_range": (0.1, 0.2, 0.3)}, r"^eta_range: expected \[low, high\], got \[0\.1, 0\.2, 0\.3\]"),
    ({"eta_range": (0.5, math.inf)}, r"^eta_range: the bounds must be finite, got \[0\.5, inf\]"),
    ({"qkd_fraction": 2.5}, r"^qkd_fraction: must be in \[0, 1\], got 2\.5"),
    ({"qkd_fraction": -1.0}, r"^qkd_fraction: must be in \[0, 1\], got -1\.0"),
], ids=["p", "gamma", "fractional-gamma", "eta-range", "eta-range-three-values", "eta-range-infinite",
        "qkd-fraction-above-1",
        "qkd-fraction-negative"])
def test_erdos_renyi_errors_name_the_parameter(fields, error):
    # qkd_fraction 2.5 used to key every link, and gamma 0 was named as edges[0]
    with pytest.raises(TopologyError, match=error):
        erdos_renyi(**{"n": 5, "p": 0.5, **fields})


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_eta_within_range_and_omega_dominated(seed):
    g = erdos_renyi(8, 0.6, eta_range=(0.2, 1.0), seed=seed)
    omega = capacitated_transform(g)
    for e in g.edges:
        assert 0.2 <= e.eta <= 1.0
        assert omega[e.id] <= e.gamma
        assert omega[e.id] <= e.eta


def test_graph_json_round_trip(tmp_path):
    g = erdos_renyi(6, 0.5, seed=4)
    path = tmp_path / "net.json"
    save_graph_file(g, path)
    g2 = GraphConfig.from_dict({"kind": "file", "path": str(path)}).build()
    assert specs(g2) == specs(g)
    assert graph_to_dict(g2) == graph_to_dict(g)


def test_graph_from_dict_missing_field():
    with pytest.raises(ConfigError, match="nodes"):
        GraphConfig.from_dict({"kind": "inline", "edges": []})
    with pytest.raises(ConfigError, match=r"edges\[0\].*u"):
        GraphConfig.from_dict({"kind": "inline", "nodes": 2, "edges": [{"v": 1}]})


@pytest.mark.parametrize(
    "field, value",
    [("has_qkd", "false"), ("directed", "false"), ("gamma", 1.7), ("eta", True), ("u", "0"), ("has_keys", True)],
)
def test_graph_from_dict_checks_edge_fields(field, value):
    with pytest.raises(ConfigError, match=rf"edges\[0\]\.{field}"):
        GraphConfig.from_dict({"kind": "inline", "nodes": 2, "edges": [{"u": 0, "v": 1, field: value}]})


def test_key_mask_and_reachability():
    full = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2)])
    assert full.key_mask is None and full.reachable(0) == {0, 1, 2}
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2, has_qkd=False)])
    assert g.key_mask == (True, True, False, False)
    assert g.reachable(2, g.key_mask) == {2}
    assert g.connected() and not g.connected(g.key_mask)


@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
def test_erdos_renyi_key_coverage_keeps_a_keyed_spanning_tree(fraction):
    g = erdos_renyi(12, 0.5, seed=1, qkd_fraction=fraction)
    assert g.connected() and g.connected(g.key_mask)
    keyed = sum(s.has_qkd for s in specs(g))
    assert keyed == max(g.n - 1, round(fraction * len(specs(g))))


def test_graph_file_has_stable_bytes(tmp_path):
    g = erdos_renyi(5, 0.7, seed=9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph_file(g, p1)
    save_graph_file(g, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["nodes"] == 5
