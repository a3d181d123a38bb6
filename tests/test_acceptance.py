"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here and nowhere else."""

import time

import numpy as np

from qkdsim.analysis import stability_test, unicast_capacity
from qkdsim.cli import run_experiment
from qkdsim.config import ExperimentConfig
from qkdsim.engine import simulate
from qkdsim.keying import bb84_round
from qkdsim.policy import BackpressureMode, MultilevelMode, SingleQueueMode, TandemMode
from qkdsim.routing import (
    min_weight_path,
    min_weight_spanning_tree,
    steiner_tree_approx,
)
from qkdsim.topology import EdgeSpec, build_graph, capacitated_transform, erdos_renyi
from qkdsim.traffic import Bernoulli, Broadcast, TrafficClass, TruncatedPoisson, Unicast

from .oracles import (
    best_path_label,
    route_nodes,
    specs,
    min_spanning_tree_weight,
    path_flow_max,
    route_weight,
    steiner_optimum_weight,
    validate_route,
    virtual_queue_trace,
)


def _report(num: int, desc: str, ok: bool) -> bool:
    from .conftest import acceptance_lines

    line = f"ACCEPTANCE {num} [{desc}]: {'PASS' if ok else 'FAIL'}"
    print(line)
    acceptance_lines.append(line)
    return ok


def _single_link():
    return build_graph(2, [EdgeSpec(0, 1, gamma=1, eta=0.5, directed=True)])


def _two_path_network():
    return build_graph(
        4,
        [
            EdgeSpec(0, 1, eta=0.3),
            EdgeSpec(1, 3, eta=0.9),
            EdgeSpec(0, 2, eta=0.4),
            EdgeSpec(2, 3, eta=0.9),
        ],
    )


def _random_routing_instance(rng, p=0.5):
    while True:
        n = int(rng.integers(4, 9))
        g = erdos_renyi(n, p, seed=int(rng.integers(1_000_000)))
        if g.m and g.connected():
            break
    w = [int(rng.integers(0, 41)) / 8 for _ in range(g.m)]
    for e in g.edges:  # symmetric weights for the tree checks
        if e.twin is not None and e.twin < e.id:
            w[e.id] = w[e.twin]
    return g, w


def test_criterion_1_single_link_counterexample():
    g = _single_link()
    classes = [TrafficClass(0, 0, Unicast(1), Bernoulli(0.45))]
    t0 = time.perf_counter()
    single = simulate(g, classes, SingleQueueMode(), horizon=100_000, seed=1, series_stride=1)
    store = simulate(g, classes, TandemMode(True), horizon=100_000, seed=1, series_stride=1)
    nostore = simulate(g, classes, TandemMode(False), horizon=100_000, seed=1, series_stride=1)
    elapsed = time.perf_counter() - t0

    import math

    saturation = 1 - math.exp(-0.5)
    single_ok = abs(single.delivered_rate(0) - saturation) < 0.010
    growth = stability_test(single.series["backlog_sum"], window=20_000, slope_tol=1e-3)
    linear_ok = growth.verdict == "unstable"
    tandem_ok = True
    for r in (store, nostore):
        v = stability_test(r.series["backlog_sum"], window=20_000, slope_tol=1e-3)
        tandem_ok &= abs(r.delivered_rate(0) - 0.45) < 0.010 and v.verdict == "stable"
    ok = single_ok and linear_ok and tandem_ok and elapsed < 5.0
    assert _report(
        1,
        f"counterexample: single-queue {single.delivered_rate(0):.4f} vs {saturation:.4f}, "
        f"tandem {store.delivered_rate(0):.4f}, {elapsed:.1f}s",
        ok,
    )


def test_criterion_2_capacity_oracle():
    g = _single_link()
    exact_ok = unicast_capacity(g, 0, 1).lambda_star == 0.5

    rng = np.random.default_rng(202)
    checked = 0
    worst = 0.0
    while checked < 5:
        n = int(rng.integers(4, 7))
        base = erdos_renyi(n, 0.55, seed=int(rng.integers(10_000)))
        if not base.connected() or not base.m:
            continue
        g2 = build_graph(
            n,
            [
                EdgeSpec(s.u, s.v, s.gamma, round(float(rng.integers(4, 21)) * 0.05, 2))
                for s in specs(base)
            ],
        )
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        got = unicast_capacity(g2, s, t).lambda_star
        want = path_flow_max(g2, capacitated_transform(g2), s, t, resolution=0.01)
        worst = max(worst, abs(got - want))
        checked += 1
    ok = exact_ok and worst < 0.01
    assert _report(2, f"capacity oracle: single link exact, worst gap {worst:.4f}", ok)


def test_criterion_3_lindley_exactness():
    # ten directed edges: an undirected 5-ring
    g = build_graph(5, [EdgeSpec(i, (i + 1) % 5, eta=0.25 + 0.15 * i) for i in range(5)])
    assert g.m == 10
    classes = [
        TrafficClass(0, 0, Unicast(2), Bernoulli(0.5)),
        TrafficClass(1, 3, Unicast(1), TruncatedPoisson(0.6, cap=3)),
        TrafficClass(2, 4, Unicast(2), Bernoulli(0.35)),
    ]
    with virtual_queue_trace() as trace:
        simulate(g, classes, TandemMode(True), horizon=1000, seed=33)
    a = trace["arrivals"].astype(int)
    kappa = trace["kappa"].astype(int)
    gamma = [e.gamma for e in g.edges]
    x = [0] * g.m
    y = [0] * g.m
    exact = True
    for t in range(1000):
        for e in range(g.m):
            x[e] = max(0, x[e] + a[t, e] - kappa[t, e])
            y[e] = max(0, y[e] + a[t, e] - gamma[e])
        exact &= all(float(x[e]) == trace["x_tilde"][t, e] for e in range(g.m))
        exact &= all(float(y[e]) == trace["y_tilde"][t, e] for e in range(g.m))
    assert _report(3, "virtual queues equal the scalar replay exactly", exact)


def test_criterion_4_invariant_suite():
    ok = True
    g = erdos_renyi(6, 0.6, seed=5)
    classes = [
        TrafficClass(0, 0, Unicast(4), Bernoulli(0.2)),
        TrafficClass(1, 2, Broadcast(), Bernoulli(0.08)),
        TrafficClass(2, 5, Unicast(1), TruncatedPoisson(0.15, cap=4)),
    ]
    for seed in range(1, 51):
        r = simulate(
            g, classes, TandemMode(True), horizon=10_000, seed=seed,
            check_invariants=True, record_series=False,
        )
        ok &= r.total_arrivals == r.total_delivered + r.total_dropped + r.in_flight
    assert _report(4, "dominance, idle-key product, conservation, ledgers: 50 runs", ok)


def test_criterion_5_stability_boundary():
    g = _two_path_network()
    lam = unicast_capacity(g, 0, 3).lambda_star
    assert abs(lam - 0.7) < 1e-12
    ok = True
    for mult, want in ((0.9, "stable"), (1.1, "unstable")):
        for seed in (1, 2, 3, 4, 5):
            classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(lam * mult))]
            r = simulate(g, classes, TandemMode(True), horizon=100_000, seed=seed, series_stride=1)
            v = stability_test(r.series["backlog_sum"], window=20_000, slope_tol=1e-3)
            ok &= v.verdict == want
    assert _report(5, f"stable at 0.9*{lam:.2f}, unstable at 1.1*{lam:.2f}, 5/5 seeds", ok)


def test_criterion_6_routing_oracles():
    rng = np.random.default_rng(606)
    path_ok = tree_ok = steiner_ok = True
    for _ in range(100):
        g, w = _random_routing_instance(rng)
        s, t = (int(v) for v in rng.choice(g.n, size=2, replace=False))
        route = min_weight_path(g, w, s, t)
        validate_route(g, route)
        weight, hops, nodes = best_path_label(g, w, s, t)
        path_ok &= route_weight(g, w, route) == weight and route_nodes(g, route) == nodes

        tree = min_weight_spanning_tree(g, w, root=s)
        validate_route(g, tree)
        pair_weight = sum(w[e] + w[g.edges[e].twin] for e in tree.edges)
        tree_ok &= pair_weight == min_spanning_tree_weight(g, w)

        k = int(rng.integers(1, min(4, g.n - 1) + 1))
        terminals = {int(v) for v in rng.choice(np.arange(1, g.n), size=k, replace=False)}
        if 0 in terminals:
            terminals.discard(0)
        if terminals:
            st_tree = steiner_tree_approx(g, w, 0, terminals)
            validate_route(g, st_tree)
            got = sum(w[e] + w[g.edges[e].twin] for e in st_tree.edges)
            steiner_ok &= got <= 2 * steiner_optimum_weight(g, w, 0, terminals) + 1e-9
    ok = path_ok and tree_ok and steiner_ok
    assert _report(6, "path/tree exact, Steiner within 2x, 100 instances each", ok)


def _sweep_classes(rate):
    # fixed desk-scale unicast pattern on the N=20 graph below
    pairs = [(11, 4), (13, 4), (10, 14), (17, 1), (19, 6), (18, 9)]
    return [TrafficClass(i, s, Unicast(d), Bernoulli(rate)) for i, (s, d) in enumerate(pairs)]


def test_criterion_7_policy_ordering_desk_scale():
    from qkdsim.analysis import constructed_uniform_boundary, summarize

    g = erdos_renyi(20, 0.3, seed=7)
    boundary, _ = constructed_uniform_boundary(g, _sweep_classes(0.1))
    ok = True
    detail = []
    for frac in (0.3, 0.5, 0.7):
        classes = _sweep_classes(boundary * frac)
        stats = {}
        for mode, label in (
            (TandemMode(True), "store"),
            (TandemMode(False), "nostore"),
            (BackpressureMode(), "bp"),
        ):
            records = [
                simulate(g, classes, mode, horizon=10_000, seed=s, record_series=False)
                for s in (1, 2, 3)
            ]
            summ = summarize(records)
            stats[label] = (summ.mean_delay_mean, summ.residual_keys_mean)
        delays_ordered = stats["store"][0] <= stats["nostore"][0] <= stats["bp"][0]
        keys_ordered = stats["store"][1] > stats["bp"][1]
        ok &= delays_ordered and keys_ordered
        detail.append(f"{frac:g}: {stats['store'][0]:.2f}<={stats['nostore'][0]:.2f}<={stats['bp'][0]:.2f}")
    assert _report(7, "delay and residual-key ordering: " + "; ".join(detail), ok)


def test_criterion_8_mixed_security_ordering():
    from qkdsim.config import preset_config

    cfg = preset_config("mixed-security")
    g = cfg.graph.build()
    classes = cfg.build_classes()
    ok = True
    for seed in (1, 2, 3, 4, 5):
        r = simulate(g, classes, MultilevelMode(True), horizon=12_000, seed=seed, record_series=False)

        def group_delay(sel):
            delay = sum(r.class_delay_sum[c.id] for c in classes if sel(c))
            count = sum(r.class_delivered[c.id] for c in classes if sel(c))
            return delay / count

        plain = group_delay(lambda c: c.security == "classical")
        high = group_delay(lambda c: c.security == "quantum" and c.priority == 1)
        low = group_delay(lambda c: c.security == "quantum" and c.priority == 0)
        ok &= plain < high < low
    assert _report(8, "plain < encrypted-high < encrypted-low, 5/5 seeds", ok)


def test_criterion_9_bb84_toy():
    rng = np.random.default_rng(909)
    sifted = photons = 0
    for _ in range(100):
        r = bb84_round(1000, 0.0, 0.0, rng)
        sifted += r.sifted
        photons += 1000
    sift_ok = abs(sifted / photons - 0.5) < 0.02

    checked = mismatched = 0
    while checked < 100_000:
        r = bb84_round(256, 1.0, 0.5, rng)
        checked += r.checked
        mismatched += r.mismatches
    mismatch_ok = abs(mismatched / checked - 0.25) < 0.02

    detected = qualifying = 0
    for _ in range(2000):
        r = bb84_round(256, 1.0, 0.4, rng)
        if r.checked >= 32:
            qualifying += 1
            detected += r.detected
    detect_ok = qualifying > 1000 and detected / qualifying > 0.99
    ok = sift_ok and mismatch_ok and detect_ok
    assert _report(
        9,
        f"sift {sifted / photons:.3f}, mismatch {mismatched / checked:.3f}, "
        f"detection {detected / qualifying:.4f}",
        ok,
    )


def test_criterion_10_byte_determinism(tmp_path):
    doc = {
        "name": "determinism",
        "graph": {"kind": "erdos_renyi", "nodes": 8, "p": 0.5, "graph_seed": 3},
        "classes": [
            {"id": 0, "source": 0, "kind": "unicast", "destinations": [5],
             "arrival": {"process": "bernoulli", "rate": 0.2}},
            {"id": 1, "source": 2, "kind": "broadcast", "destinations": [],
             "arrival": {"process": "bernoulli", "rate": 0.05}},
        ],
        "policies": [{"mode": "tandem", "key_storage": True}],
        "horizon": 20_000,
        "seeds": [11],
        "rate_scales": [1.0],
    }
    cfg = ExperimentConfig.from_dict(doc)
    snapshots = []
    for i in range(3):
        out = tmp_path / f"rep{i}"
        run_experiment(cfg, out)
        snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
    ok = snapshots[0] == snapshots[1] == snapshots[2]
    names = sorted(snapshots[0])
    ok &= any(n.endswith(".csv") for n in names) and "manifest.json" in names
    assert _report(10, f"3/3 identical byte-for-byte ({len(names)} files)", ok)
