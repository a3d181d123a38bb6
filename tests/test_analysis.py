import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.analysis import (
    constructed_uniform_boundary,
    stability_test,
    summarize,
    unicast_capacity,
)
from qkdsim.engine import simulate
from qkdsim.policy import TandemMode
from qkdsim.topology import EdgeSpec, build_graph, erdos_renyi
from qkdsim.traffic import Bernoulli, TrafficClass, Unicast

from .oracles import drift_bound, envelope_check, path_flow_max, specs


def _two_path_network():
    # 0->1->3 bottleneck 0.3, 0->2->3 bottleneck 0.4
    return build_graph(
        4,
        [
            EdgeSpec(0, 1, eta=0.3),
            EdgeSpec(1, 3, eta=0.9),
            EdgeSpec(0, 2, eta=0.4),
            EdgeSpec(2, 3, eta=0.9),
        ],
    )


# ---------------------------------------------------------------------------
# capacity

def test_single_link_capacity_exact():
    g = build_graph(2, [EdgeSpec(0, 1, gamma=1, eta=0.5, directed=True)])
    v = unicast_capacity(g, 0, 1)
    assert v.lambda_star == 0.5
    assert v.edge_loads == {0: 0.5}


def test_two_disjoint_paths_add():
    v = unicast_capacity(_two_path_network(), 0, 3)
    assert abs(v.lambda_star - 0.7) < 1e-12


def test_isolated_source_has_zero_capacity():
    g = build_graph(3, [EdgeSpec(1, 2)])
    assert unicast_capacity(g, 0, 2).lambda_star == 0.0


def test_capacity_rejects_equal_endpoints():
    g = build_graph(2, [EdgeSpec(0, 1)])
    with pytest.raises(ValueError):
        unicast_capacity(g, 1, 1)


def test_capacity_matches_path_flow_oracle_small_graphs():
    rng = np.random.default_rng(23)
    from qkdsim.topology import capacitated_transform

    done = 0
    while done < 5:
        n = int(rng.integers(4, 7))
        g = erdos_renyi(n, 0.55, seed=int(rng.integers(10_000)))
        if not g.connected() or not g.m:
            continue
        # snap rates to the oracle grid
        g = build_graph(
            n,
            [
                EdgeSpec(s.u, s.v, s.gamma, round(float(rng.integers(4, 21)) * 0.05, 2))
                for s in specs(g)
            ],
        )
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        got = unicast_capacity(g, s, t).lambda_star
        want = path_flow_max(g, capacitated_transform(g), s, t, resolution=0.01)
        assert abs(got - want) < 0.01
        done += 1


def test_constructed_boundary_two_paths():
    g = _two_path_network()
    classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(0.1))]
    rate, paths = constructed_uniform_boundary(g, classes)
    # single fixed min-hop path; tightest edge on it limits the rate
    assert rate in (0.3, 0.4)
    assert len(paths[0]) == 2


def test_constructed_boundary_shared_edge():
    g = build_graph(3, [EdgeSpec(0, 1, eta=0.8), EdgeSpec(1, 2, eta=0.8)])
    classes = [
        TrafficClass(0, 0, Unicast(2), Bernoulli(0.1)),
        TrafficClass(1, 0, Unicast(1), Bernoulli(0.1)),
    ]
    rate, _ = constructed_uniform_boundary(g, classes)
    assert rate == 0.4  # both classes load edge 0->1 of budget 0.8


# ---------------------------------------------------------------------------
# stability

def test_constant_series_is_stable():
    v = stability_test(np.full(2000, 7.0), window=1000, slope_tol=1e-3)
    assert v.verdict == "stable" and abs(v.slope) < 1e-9


def test_linear_growth_is_unstable():
    v = stability_test(np.arange(2000, dtype=float), window=1000, slope_tol=1e-3)
    assert v.verdict == "unstable"
    assert abs(v.slope - 1.0) < 1e-9


def test_between_thresholds_is_inconclusive():
    series = 5e-3 * np.arange(2000, dtype=float)
    v = stability_test(series, window=1000, slope_tol=1e-3)
    assert v.verdict == "inconclusive"


def test_series_too_short_raises():
    with pytest.raises(ValueError, match="too short"):
        stability_test(np.ones(100), window=1000)


@given(scale=st.floats(0.01, 1000.0), seed=st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_verdict_invariant_under_matched_scaling(scale, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(0.0005, 1.0, 3000)).clip(min=0)
    tol = 1e-3
    a = stability_test(series, window=1000, slope_tol=tol)
    b = stability_test(scale * series, window=1000, slope_tol=scale * tol)
    assert a.verdict == b.verdict


def test_envelope_check():
    ok, worst = envelope_check(np.full(100, 5.0), bound=100.0, epsilon=1.0)
    assert ok and worst == 5.0
    bad, _ = envelope_check(np.full(100, 500.0), bound=100.0, epsilon=1.0)
    assert not bad


def test_interior_run_sits_under_drift_envelope():
    # at a known distance from the boundary, the time-averaged virtual
    # backlog must stay under bound/(2 eps) for the whole run
    g = _two_path_network()
    lam = unicast_capacity(g, 0, 3).lambda_star
    rate = 0.9 * lam
    eps = lam - rate  # bottleneck-edge margin under the fixed split
    classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(rate))]
    r = simulate(g, classes, TandemMode(True), horizon=100_000, seed=2, series_stride=1)
    bound = drift_bound(g, a_max=1, k_max=20)
    holds, worst = envelope_check(r.series["backlog_sum"], bound, eps)
    assert holds
    assert worst < bound / (2 * eps)


# ---------------------------------------------------------------------------
# summaries

def _records(seeds, rate=0.3, horizon=4000):
    g = build_graph(2, [EdgeSpec(0, 1, gamma=1, eta=0.8, directed=True)])
    classes = [TrafficClass(0, 0, Unicast(1), Bernoulli(rate))]
    return [simulate(g, classes, TandemMode(), horizon=horizon, seed=s) for s in seeds]


def test_summarize_zero_deliveries_reports_absent_delay():
    records = _records([1], rate=0.0)
    s = summarize(records)
    assert s.mean_delay_mean is None
    assert s.delivered_rate_mean == 0.0


def test_summarize_mean_and_stderr_match_manual_statistics():
    records = _records(range(1, 11))
    s = summarize(records)
    rates = [r.total_delivered / r.horizon for r in records]
    mean = sum(rates) / len(rates)
    var = sum((x - mean) ** 2 for x in rates) / (len(rates) - 1)
    assert s.delivered_rate_mean == pytest.approx(mean)
    assert s.delivered_rate_se == pytest.approx(math.sqrt(var / len(rates)))
    assert s.seeds == tuple(range(1, 11))


def test_summarize_rejects_mixed_policies():
    records = _records([1])
    other = _records([1])[0]
    other.policy = "backpressure"
    with pytest.raises(ValueError, match="mix"):
        summarize(records + [other])


def test_residual_key_series_average_matches_csv_export():
    # spreadsheet-style oracle: parse the CSV column and average it by hand
    record = _records([5])[0]
    lines = record.to_csv_bytes().decode().strip().split("\n")
    header = lines[0].split(",")
    idx = header.index("keys_sum")
    values = [float(row.split(",")[idx]) for row in lines[1:]]
    assert sum(values) / len(values) == pytest.approx(record.mean_residual_keys)
