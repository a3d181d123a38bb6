from unittest import mock

import numpy as np
import pytest

from qkdsim.analysis import stability_test
from qkdsim.config import GraphConfig, preset_config
from qkdsim.engine import Copy, EntoQueue, InvariantViolation, PacketRecord, _Engine, _Router, simulate
from qkdsim.keying import KeySampler, KeySpec
from qkdsim.policy import BackpressureMode, MultilevelMode, SingleQueueMode, TandemMode
from qkdsim.routing import Route, RoutingError
from qkdsim.topology import EdgeSpec, build_graph, erdos_renyi
from qkdsim.traffic import Bernoulli, Broadcast, Multicast, TrafficClass, TruncatedPoisson, Unicast

from .oracles import virtual_queue_trace


def _single_link():
    return build_graph(2, [EdgeSpec(0, 1, gamma=1, eta=0.5, directed=True)])


def _counterexample_classes(rate=0.45):
    return [TrafficClass(0, 0, Unicast(1), Bernoulli(rate))]


AMPLE_KEYS = KeySpec(kind="deterministic", value=10)


# ---------------------------------------------------------------------------
# basics

def test_zero_arrivals_leave_everything_empty():
    r = simulate(_single_link(), _counterexample_classes(0.0), TandemMode(), horizon=500, seed=1)
    assert r.total_arrivals == 0
    assert r.mean_delay() is None
    assert r.final_backlog == 0.0
    assert (r.series["x_sum"] == 0).all() and (r.series["y_sum"] == 0).all()


def test_single_link_tandem_delivers_offered_load():
    r = simulate(_single_link(), _counterexample_classes(), TandemMode(), horizon=30_000, seed=3)
    assert abs(r.delivered_rate(0) - 0.45) < 0.015


def test_single_link_singlequeue_saturates_below_offered_load():
    r = simulate(_single_link(), _counterexample_classes(), SingleQueueMode(), horizon=30_000, seed=3)
    assert r.delivered_rate(0) < 0.42
    # backlog keeps climbing
    backlog = r.series["backlog_sum"]
    assert backlog[-1] > backlog[len(backlog) // 2] > backlog[len(backlog) // 4]


def test_broadcast_singlequeue_saturates_where_tandem_is_stable():
    # the counterexample on trees: two broadcast roots at 0.20 per class, 48%
    # of their two-root bound of 0.4178, judged as `qkdsim run` judges a cell
    cfg = preset_config("broadcast-sweep")
    g, classes = cfg.graph.build(), cfg.build_classes(2.0)
    store, single = (simulate(g, classes, mode, horizon=10_000, seed=1, series_stride=10)
                     for mode in (TandemMode(), SingleQueueMode()))
    for r, verdict in ((store, "stable"), (single, "unstable")):
        assert stability_test(r.series["backlog_sum"], window=500, slope_tol=1e-2).verdict == verdict
    assert single.total_delivered < 0.7 * single.total_arrivals


def test_same_seed_gives_identical_bytes():
    a = simulate(_single_link(), _counterexample_classes(), TandemMode(), horizon=2000, seed=9)
    b = simulate(_single_link(), _counterexample_classes(), TandemMode(), horizon=2000, seed=9)
    assert a.to_json_bytes() == b.to_json_bytes()
    assert a.to_csv_bytes() == b.to_csv_bytes()
    c = simulate(_single_link(), _counterexample_classes(), TandemMode(), horizon=2000, seed=10)
    assert a.to_json_bytes() != c.to_json_bytes()


def test_one_hop_delay_zero_with_ample_keys():
    r = simulate(
        _single_link(), [TrafficClass(0, 0, Unicast(1), Bernoulli(0.3))],
        TandemMode(), keys=AMPLE_KEYS, horizon=5000, seed=4,
    )
    assert r.mean_delay(0) == 0.0
    assert r.delivered_rate(0) == r.total_arrivals / 5000


# ---------------------------------------------------------------------------
# scheduling

def test_ento_orders_by_hops_traversed():
    q = EntoQueue()
    for hops, pid in ((2, 0), (0, 1), (1, 2)):
        rec = PacketRecord(pid, 0, 0, 1)
        q.push(Copy(rec, None, hops))
    order = [q.pop_live().hops for _ in range(3)]
    assert order == [0, 1, 2]


def test_ento_ties_break_by_packet_id():
    q = EntoQueue()
    for pid in (7, 3, 5):
        q.push(Copy(PacketRecord(pid, 0, 0, 1), None, 1))
    assert [q.pop_live().record.id for _ in range(3)] == [3, 5, 7]


def test_ento_scheduler_runs_end_to_end():
    g = erdos_renyi(8, 0.5, seed=2)
    classes = [TrafficClass(0, 0, Unicast(5), Bernoulli(0.2))]
    r = simulate(g, classes, TandemMode(), scheduler="ento", horizon=4000, seed=5,
                 check_invariants=True)
    assert r.class_delivered[0] > 0


# ---------------------------------------------------------------------------
# trees

@pytest.mark.parametrize("scheduler", ["fifo", "ento"])
def test_broadcast_forks_and_counts_single_delivery(scheduler):
    # star around node 0, broadcast from leaf 1: one fork at the hub
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(0, 2), EdgeSpec(0, 3)])
    classes = [TrafficClass(0, 1, Broadcast(), Bernoulli(1.0))]
    r = simulate(g, classes, TandemMode(), keys=AMPLE_KEYS, scheduler=scheduler, horizon=2000, seed=6,
                 check_invariants=True)
    # every arrival eventually delivered exactly once (to all three nodes)
    assert r.total_arrivals == 2000
    assert r.class_delivered[0] >= 1995
    # hub hop crossed in the arrival slot, leaves one slot later
    assert r.mean_delay(0) == 1.0


@pytest.mark.parametrize("mode, security", [(SingleQueueMode(), "quantum"), (MultilevelMode(False), "classical")],
                         ids=["single-queue", "multilevel-nostore"])
def test_drops_do_not_depend_on_edge_numbering(mode, security):
    # a path whose first link sends two packets a slot into queues of two:
    # a full queue is judged after its own sends, whichever link id is lower
    specs = [EdgeSpec(0, 1, gamma=2, directed=True), EdgeSpec(1, 2, directed=True), EdgeSpec(2, 3, directed=True)]
    classes = [TrafficClass(0, 0, Unicast(3), TruncatedPoisson(1.2, cap=3), security=security)]
    outcomes = []
    for order in (specs, specs[::-1]):
        r = simulate(build_graph(4, order), classes, mode, keys=KeySpec(kind="deterministic", value=5),
                     horizon=2000, seed=3, queue_cap=2, check_invariants=True)
        outcomes.append((r.total_delivered, r.total_dropped, r.mean_delay()))
    assert outcomes[0][1] > 0
    assert outcomes[0] == outcomes[1]


def test_copies_of_a_packet_dropped_in_the_same_slot_go_no_further():
    # broadcast tree 0 -> {1, 4}, 1 -> {2, 3}, 4 -> {5}; both copies cross in one slot,
    # and the fork toward 3 meets a full queue, so the copy at 4 takes no place toward 5
    g = build_graph(6, [EdgeSpec(0, 1), EdgeSpec(1, 2), EdgeSpec(1, 3), EdgeSpec(0, 4), EdgeSpec(4, 5)])
    eng = _Engine(_Router(g, [TrafficClass(0, 0, Broadcast(), Bernoulli(0.0))]), TandemMode(), AMPLE_KEYS, "fifo",
                  1, 0, 1, False, 1, False, False)
    route = Route(0, (0, 2, 4, 6, 8), {0: (0, 6), 1: (2, 4), 4: (8,)}, frozenset(range(1, 6)))
    rec = PacketRecord(0, 0, 0, 5)
    assert eng._place(Copy(PacketRecord(1, 0, 0, 5), route, 1), 4, True)  # fills the queue toward 3
    for e in (0, 6):  # the transmission queues of 0->1 and 0->4
        assert eng._place(Copy(rec, route, 0), e, False)
    eng._serve_edges(0)
    assert rec.dead and eng.class_dropped[0] == 1
    assert eng.x_len[2] == 1  # placed toward 2 before the fork dropped
    assert eng.x_len[8] == 0


def test_queue_totals_match_the_queues():
    # queues of one drop many tree packets; the dead copies pop_live skips
    # leave the transmission queue, so y_sum must stop counting them
    g = GraphConfig(kind="erdos_renyi", nodes=10, p=0.4, graph_seed=3, qkd_fraction=0.6).build()
    classes = [
        TrafficClass(0, 0, Unicast(6), Bernoulli(0.3), security="classical"),
        TrafficClass(1, 4, Broadcast(), Bernoulli(0.3), security="classical"),
        TrafficClass(2, 8, Multicast((1, 3)), Bernoulli(0.3), security="quantum"),
        TrafficClass(3, 2, Broadcast(), Bernoulli(0.2), security="classical"),
    ]
    engines = []
    metrics = _Engine._metrics
    with mock.patch.object(_Engine, "_metrics", lambda self: engines.append(self) or metrics(self)):
        # check_invariants also compares the totals with the queues every slot
        r = simulate(g, classes, MultilevelMode(False), horizon=2000, seed=14, queue_cap=1, check_invariants=True)
    (eng,) = engines
    assert r.total_dropped > 0
    assert r.series["x_sum"][-1] == sum(eng.x_len)
    assert r.series["y_sum"][-1] == sum(map(len, eng.y_q.values()))


def test_simulate_rejects_an_override_on_a_missing_link():
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2)])
    keys = KeySpec(overrides=(((0, 2), KeySpec(kind="deterministic", value=0)),))
    classes = [TrafficClass(0, 0, Unicast(2), Bernoulli(0.5))]
    with pytest.raises(ValueError, match=r"^keys\.overrides\[0\]: \(0, 2\) is not a link of the graph$"):
        simulate(g, classes, TandemMode(), keys=keys, horizon=100, seed=0)


@pytest.mark.parametrize("g, kind", [
    (build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2, directed=True)]), Broadcast()),
    (build_graph(4, [EdgeSpec(0, 1), EdgeSpec(2, 3)]), Multicast((1, 3))),
], ids=["broadcast-one-way-link", "multicast-terminal-out-of-reach"])
def test_unroutable_tree_classes_are_named(g, kind):
    with pytest.raises(RoutingError, match="^class 0: "):
        simulate(g, [TrafficClass(0, 0, kind, Bernoulli(0.5))], TandemMode(), horizon=10, seed=0)


def test_broadcast_delivery_rate_tracks_arrivals_at_interior_load():
    g = erdos_renyi(6, 0.6, seed=8)
    classes = [TrafficClass(0, 0, Broadcast(), Bernoulli(0.15))]
    r = simulate(g, classes, TandemMode(), horizon=20_000, seed=7)
    assert abs(r.delivered_rate(0) - 0.15) < 0.01


def test_multicast_and_anycast_end_to_end():
    from qkdsim.traffic import Anycast, Multicast

    g = erdos_renyi(7, 0.5, seed=9)
    classes = [
        TrafficClass(0, 0, Multicast((2, 5)), Bernoulli(0.1)),
        TrafficClass(1, 3, Anycast((0, 6)), Bernoulli(0.15)),
    ]
    r = simulate(g, classes, TandemMode(), horizon=15_000, seed=22, check_invariants=True)
    assert abs(r.delivered_rate(0) - 0.1) < 0.01
    assert abs(r.delivered_rate(1) - 0.15) < 0.01


def test_anycast_runs_when_only_one_candidate_is_reachable():
    from qkdsim.traffic import Anycast

    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(2, 3)])
    classes = [TrafficClass(0, 0, Anycast((1, 3)), Bernoulli(0.3))]
    r = simulate(g, classes, TandemMode(), horizon=300, seed=5, check_invariants=True)
    assert r.total_delivered > 0 and r.total_dropped == 0
    assert r.total_delivered + r.in_flight == r.total_arrivals


def test_per_edge_key_override_changes_service():
    # starve the lone link through an override despite a generous default
    g = _single_link()
    classes = [TrafficClass(0, 0, Unicast(1), Bernoulli(0.5))]
    starved = KeySpec(kind="deterministic", value=10,
                      overrides=(((0, 1), KeySpec(kind="deterministic", value=0)),))
    r = simulate(g, classes, TandemMode(), keys=starved, horizon=500, seed=23)
    assert r.total_delivered == 0
    r2 = simulate(g, classes, TandemMode(), keys=KeySpec(kind="deterministic", value=10),
                  horizon=500, seed=23)
    assert r2.total_delivered > 0


def test_overriding_every_link_with_the_default_process_keeps_the_bytes():
    # every link's override read from the map, named in either direction
    g = erdos_renyi(12, 0.5, seed=4)
    links = [(e.u, e.v) if e.pair % 2 else (e.v, e.u) for e in g.edges[::2]]
    same = KeySpec(overrides=tuple((link, KeySpec(photons=9)) for link in links))  # photons: unread by Poisson
    classes = [TrafficClass(0, 0, Unicast(7), Bernoulli(0.4)), TrafficClass(1, 3, Unicast(10), Bernoulli(0.3))]
    runs = [simulate(g, classes, TandemMode(), keys=keys, horizon=400, seed=5) for keys in (KeySpec(), same)]
    assert runs[0].to_json_bytes() == runs[1].to_json_bytes()
    assert runs[0].to_csv_bytes() == runs[1].to_csv_bytes()
    numbered = KeySpec(overrides=tuple((link, KeySpec(kind="deterministic", value=i)) for i, link in enumerate(links)))
    sampler = KeySampler(numbered, g.edges, np.random.default_rng(0), np.random.SeedSequence(0))
    assert sampler.constant.tolist() == [e.pair for e in g.edges]


@pytest.mark.parametrize("mode, scheduler, classes", [
    (TandemMode(), "fifo", [TrafficClass(0, 0, Unicast(17), Bernoulli(0.3)),
                            TrafficClass(1, 2, Unicast(9), Bernoulli(0.3))]),
    (MultilevelMode(), "ento", [TrafficClass(0, 0, Unicast(17), Bernoulli(0.3)),
                                TrafficClass(1, 2, Multicast((9, 20)), Bernoulli(0.3), security="classical")]),
], ids=["tandem-store", "multilevel-ento"])
def test_idle_links_hold_no_queue(mode, scheduler, classes):
    # queues are made at a link's first copy: a link no route crosses holds none
    g = erdos_renyi(24, 0.4, seed=6)
    crossed, engines = set(), []
    routes, metrics = _Router.routes, _Engine._metrics

    def recording_routes(router, *args):
        chosen = routes(router, *args)
        crossed.update(e for route in chosen.values() for e in route.edges)
        return chosen

    with mock.patch.object(_Router, "routes", recording_routes), \
            mock.patch.object(_Engine, "_metrics", lambda self: engines.append(self) or metrics(self)):
        r = simulate(g, classes, mode, scheduler=scheduler, horizon=300, seed=2, check_invariants=True)
    (eng,) = engines
    held = set(eng.x_q) | set(eng.y_q)
    assert r.total_delivered > 0
    assert held and held <= crossed
    assert len(held) < g.m // 4


# ---------------------------------------------------------------------------
# invariants and conservation

def test_instrumented_run_passes_invariants():
    g = erdos_renyi(6, 0.6, seed=1)
    classes = [
        TrafficClass(0, 0, Unicast(4), Bernoulli(0.25)),
        TrafficClass(1, 2, Broadcast(), Bernoulli(0.1)),
    ]
    r = simulate(g, classes, TandemMode(), horizon=3000, seed=11, check_invariants=True)
    assert r.total_arrivals == r.total_delivered + r.total_dropped + r.in_flight


@pytest.mark.parametrize(
    "mode", [TandemMode(), TandemMode(key_storage=False), MultilevelMode(), MultilevelMode(key_storage=False),
             SingleQueueMode(), BackpressureMode()],
    ids=lambda m: m.label,
)
def test_conservation_holds_with_drops(mode):
    g = build_graph(3, [EdgeSpec(0, 1, eta=0.4), EdgeSpec(1, 2, eta=0.4)])
    classes = [TrafficClass(0, 0, Unicast(2), TruncatedPoisson(2.0, cap=8))]
    trees = not isinstance(mode, BackpressureMode)  # every edge-queue mode runs trees
    if trees:
        # sourced at the middle node, both trees fork there, so a drop can land at the fork
        classes += [TrafficClass(1, 1, Broadcast(), TruncatedPoisson(1.0, cap=4)),
                    TrafficClass(2, 1, Multicast((0, 2)), Bernoulli(0.5))]
    r = simulate(g, classes, mode, horizon=3000, seed=12, queue_cap=5,
                 check_invariants=True)
    assert r.total_dropped > 0
    if trees:
        assert r.class_dropped[1] > 0 and r.class_dropped[2] > 0
    assert r.total_arrivals == r.total_delivered + r.total_dropped + r.in_flight


def test_no_storage_discards_residual_keys():
    r = simulate(_single_link(), _counterexample_classes(0.1), TandemMode(key_storage=False),
                 horizon=4000, seed=13, check_invariants=True)
    assert (r.series["keys_sum"] == 0).all()
    assert r.mean_residual_keys == 0.0
    r2 = simulate(_single_link(), _counterexample_classes(0.1), TandemMode(key_storage=True),
                  horizon=4000, seed=13)
    assert r2.mean_residual_keys > 100  # surplus rate 0.4/slot accumulates


def test_storage_beats_no_storage_on_delay():
    g = erdos_renyi(8, 0.5, seed=3)
    classes = [TrafficClass(0, 1, Unicast(6), Bernoulli(0.2))]
    store = simulate(g, classes, TandemMode(True), horizon=20_000, seed=14)
    nostore = simulate(g, classes, TandemMode(False), horizon=20_000, seed=14)
    assert store.mean_delay(0) < nostore.mean_delay(0)


# ---------------------------------------------------------------------------
# virtual-queue trace replay (miniature of the acceptance check)

def test_trace_matches_scalar_replay():
    g = erdos_renyi(5, 0.6, seed=4)
    classes = [
        TrafficClass(0, 0, Unicast(3), Bernoulli(0.4)),
        TrafficClass(1, 2, Unicast(0), TruncatedPoisson(0.5, cap=4)),
    ]
    with virtual_queue_trace() as trace:
        simulate(g, classes, TandemMode(), horizon=300, seed=15)
    a = trace["arrivals"]
    kappa = trace["kappa"]
    x = np.zeros(g.m)
    y = np.zeros(g.m)
    gamma = np.array([e.gamma for e in g.edges])
    for t in range(300):
        x = np.maximum(0, x + a[t] - kappa[t])
        y = np.maximum(0, y + a[t] - gamma)
        assert (x == trace["x_tilde"][t]).all()
        assert (y == trace["y_tilde"][t]).all()


def test_drift_series_matches_trace():
    g = erdos_renyi(5, 0.6, seed=4)
    classes = [
        TrafficClass(0, 0, Unicast(3), Bernoulli(0.6)),
        TrafficClass(1, 2, Unicast(0), TruncatedPoisson(0.8, cap=4)),
    ]
    with virtual_queue_trace() as trace:
        r = simulate(g, classes, TandemMode(), keys=KeySpec(kind="deterministic", value=0),
                     horizon=300, seed=15, record_drift=True, series_stride=1)
    lyap = (trace["x_tilde"] ** 2).sum(axis=1) + (trace["y_tilde"] ** 2).sum(axis=1)
    assert lyap[-1] > 0
    assert (r.series["lyapunov"] == lyap).all()
    assert (r.series["drift"] == np.diff(lyap, prepend=0.0)).all()


# ---------------------------------------------------------------------------
# multilevel mode

def _mixed_line():
    # QKD backbone 0-1-2 plus plain shortcut 0-2
    return build_graph(
        3,
        [EdgeSpec(0, 1, eta=0.6), EdgeSpec(1, 2, eta=0.6), EdgeSpec(0, 2, eta=1.0, has_qkd=False)],
    )


def test_multilevel_classical_skips_encryption():
    g = _mixed_line()
    classes = [
        TrafficClass(0, 0, Unicast(2), Bernoulli(0.3), security="quantum"),
        TrafficClass(1, 0, Unicast(2), Bernoulli(0.3), security="classical"),
    ]
    r = simulate(g, classes, MultilevelMode(), horizon=20_000, seed=16, check_invariants=True)
    assert r.mean_delay(1) < r.mean_delay(0)
    # plain class rides the shortcut, so it never waits for keys at all
    assert r.mean_delay(1) == 0.0


def test_multilevel_classical_on_qkd_edge_uses_no_keys():
    # the only 0->1 link is key-equipped; plain traffic crosses it keyless
    g = _mixed_line()
    classes = [TrafficClass(0, 0, Unicast(1), Bernoulli(0.4), security="classical")]
    r = simulate(g, classes, MultilevelMode(), horizon=10_000, seed=21, check_invariants=True)
    assert r.mean_delay(0) == 0.0
    assert abs(r.delivered_rate(0) - 0.4) < 0.02


def test_multilevel_priorities_order_encryption():
    g = build_graph(2, [EdgeSpec(0, 1, gamma=5, eta=0.45, directed=True)])
    classes = [
        TrafficClass(0, 0, Unicast(1), Bernoulli(0.2), security="quantum", priority=1),
        TrafficClass(1, 0, Unicast(1), Bernoulli(0.2), security="quantum", priority=0),
    ]
    r = simulate(g, classes, MultilevelMode(), horizon=30_000, seed=17, check_invariants=True)
    assert r.mean_delay(0) < r.mean_delay(1)


def test_multilevel_rejects_nothing_but_tandem_rejects_mixed():
    g = _mixed_line()
    classes = [TrafficClass(0, 0, Unicast(2), Bernoulli(0.1), security="classical")]
    with pytest.raises(ValueError):
        simulate(g, classes, TandemMode(), horizon=10, seed=0)
    r = simulate(g, classes, MultilevelMode(), horizon=10, seed=0)
    assert r.policy == "multilevel-store"


# ---------------------------------------------------------------------------
# baseline engines

def test_backpressure_rejects_broadcast():
    g = _single_link()
    classes = [TrafficClass(0, 0, Broadcast(), Bernoulli(0.1))]
    with pytest.raises(ValueError, match="unicast"):
        simulate(g, classes, BackpressureMode(), horizon=10, seed=0)


def test_backpressure_caps_key_banks():
    g = build_graph(3, [EdgeSpec(0, 1, eta=1.0), EdgeSpec(1, 2, eta=1.0)])
    classes = [TrafficClass(0, 0, Unicast(2), Bernoulli(0.1))]
    r = simulate(g, classes, BackpressureMode(key_cap=10), horizon=5000, seed=18)
    assert r.series["keys_sum"].max() <= 10 * g.m
    assert r.class_delivered[0] > 0


def test_backpressure_mode_rejects_a_negative_key_cap():
    # a negative cap used to pass every check and fail in slot 0, naming no field
    with pytest.raises(ValueError, match=r"^key_cap: must be >= 0, got -1$"):
        BackpressureMode(key_cap=-1)


def test_backpressure_delivers_on_two_path_network():
    g = build_graph(4, [EdgeSpec(0, 1, eta=0.9), EdgeSpec(1, 3, eta=0.9),
                        EdgeSpec(0, 2, eta=0.9), EdgeSpec(2, 3, eta=0.9)])
    classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(0.3))]
    r = simulate(g, classes, BackpressureMode(), horizon=20_000, seed=19)
    assert r.delivered_rate(0) > 0.25
    assert r.total_arrivals == r.total_delivered + r.total_dropped + r.in_flight


def test_baselines_reject_classical_classes():
    g = _single_link()
    classes = [TrafficClass(0, 0, Unicast(1), Bernoulli(0.1), security="classical")]
    for mode in (SingleQueueMode(), BackpressureMode()):
        with pytest.raises(ValueError, match="key-encrypted traffic only"):
            simulate(g, classes, mode, horizon=10, seed=0)


def test_single_queue_honours_ento():
    # at 1->2 the one-hop class has crossed no link yet, the two-hop class one
    g = build_graph(3, [EdgeSpec(0, 1, directed=True), EdgeSpec(1, 2, directed=True)])
    classes = [
        TrafficClass(0, 0, Unicast(2), Bernoulli(0.4)),
        TrafficClass(1, 1, Unicast(2), Bernoulli(0.45)),
    ]
    keys = KeySpec(kind="deterministic", value=1)
    fifo = simulate(g, classes, SingleQueueMode(), keys=keys, horizon=20_000, seed=24)
    ento = simulate(g, classes, SingleQueueMode(), keys=keys, scheduler="ento",
                    horizon=20_000, seed=24, check_invariants=True)
    assert (fifo.scheduler, ento.scheduler) == ("fifo", "ento")
    assert ento.total_arrivals == fifo.total_arrivals
    assert ento.mean_delay(1) < fifo.mean_delay(1)
    assert ento.mean_delay(0) > fifo.mean_delay(0)


def test_backpressure_rejects_ento():
    g = _single_link()
    with pytest.raises(ValueError, match="fifo"):
        simulate(g, _counterexample_classes(), BackpressureMode(), scheduler="ento",
                 horizon=10, seed=0)


@pytest.mark.parametrize(
    "mode", [TandemMode(), MultilevelMode(), SingleQueueMode(), BackpressureMode()],
    ids=lambda m: m.label,
)
def test_unknown_scheduler_rejected_under_every_mode(mode):
    with pytest.raises(ValueError, match="lifo"):
        simulate(_single_link(), _counterexample_classes(), mode, scheduler="lifo",
                 horizon=10, seed=0)


def test_single_queue_multi_hop():
    g = build_graph(3, [EdgeSpec(0, 1, eta=2.0), EdgeSpec(1, 2, eta=2.0)])
    classes = [TrafficClass(0, 0, Unicast(2), Bernoulli(0.3))]
    r = simulate(g, classes, SingleQueueMode(), horizon=20_000, seed=20)
    assert abs(r.delivered_rate(0) - 0.3) < 0.02


def test_engine_argument_validation():
    g = _single_link()
    with pytest.raises(ValueError):
        simulate(g, _counterexample_classes(), TandemMode(), horizon=0, seed=0)
    with pytest.raises(ValueError):
        simulate(g, [], TandemMode(), horizon=10, seed=0)
    with pytest.raises(ValueError):
        simulate(g, _counterexample_classes(), TandemMode(), scheduler="lifo", horizon=10, seed=0)


@pytest.mark.parametrize("source, destination", [(5, 1), (-1, 1), (0, 3), (0, -2)])
def test_class_endpoint_outside_the_graph_rejected(source, destination):
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2)])
    classes = [TrafficClass(7, source, Unicast(destination), Bernoulli(0.1))]
    with pytest.raises(ValueError, match="class 7: node -?[0-9]+ is not in the 3-node graph"):
        simulate(g, classes, TandemMode(), horizon=10, seed=0)


def test_repeated_class_ids_rejected():
    # two classes of one id would share one arrival stream and one set of counters
    classes = [TrafficClass(0, 0, Unicast(1), Bernoulli(0.5)), TrafficClass(0, 0, Unicast(1), Bernoulli(0.5))]
    with pytest.raises(ValueError, match="class id 0 is repeated"):
        simulate(_single_link(), classes, TandemMode(), horizon=1_000, seed=0)


@pytest.mark.parametrize("arg", ["series_stride", "queue_cap"])
def test_engine_rejects_stride_and_queue_cap_below_1(arg):
    # a stride of 0 would be read as 1 and a queue cap of 0 would drop every packet
    with pytest.raises(ValueError, match=arg):
        simulate(_single_link(), _counterexample_classes(), TandemMode(), horizon=10, seed=0, **{arg: 0})


# ---------------------------------------------------------------------------
# streamed draws: the block size never changes a run

def _streaming_cell(mode):
    from qkdsim.config import GraphConfig
    from qkdsim.traffic import PPBP

    if isinstance(mode, MultilevelMode):
        g = GraphConfig(kind="erdos_renyi", nodes=7, p=0.6, graph_seed=4, qkd_fraction=0.6).build()
        plain = "classical"
    else:
        g = erdos_renyi(7, 0.6, seed=4)
        plain = "quantum"
    classes = [
        TrafficClass(0, 0, Unicast(5), PPBP(sources=3, hurst=0.7, mean_burst_slots=3.0, mean_sleep_slots=6.0)),
        TrafficClass(1, 2, Unicast(6), TruncatedPoisson(0.5, cap=2), security=plain),
        TrafficClass(2, 4, Unicast(1), Bernoulli(0.3)),
    ]
    e0, e1 = g.edges[0], g.edges[3]
    key_specs = (
        KeySpec(kind="bb84", photons=6, eavesdrop_prob=0.2, check_fraction=0.3,
                overrides=(((e0.u, e0.v), KeySpec(kind="deterministic", value=1)),)),
        KeySpec(k_max=3, overrides=(((e1.u, e1.v), KeySpec(kind="deterministic", value=0)),
                                    ((e0.u, e0.v), KeySpec(kind="bb84", photons=4)))),
    )
    return g, classes, key_specs


@pytest.mark.parametrize("mode", [TandemMode(True), TandemMode(False), SingleQueueMode(), BackpressureMode(key_cap=4),
                                  MultilevelMode(True), MultilevelMode(False)], ids=lambda m: m.label)
def test_block_size_never_changes_a_run(mode, monkeypatch):
    import hashlib

    import qkdsim.engine as engine

    g, classes, key_specs = _streaming_cell(mode)
    horizon = 80
    digests = set()
    for slots in (1, 3, horizon, 2 * horizon):
        monkeypatch.setattr(engine, "_BLOCK_CELLS", slots * g.m)
        h = hashlib.sha256()
        for keys in key_specs:
            with virtual_queue_trace() as trace:
                r = simulate(g, classes, mode, keys=keys, horizon=horizon, seed=7, queue_cap=6,
                             check_invariants=True, record_drift=True)
            h.update(r.to_json_bytes() + r.to_csv_bytes())
            for name in sorted(trace):
                h.update(trace[name].tobytes())
        digests.add(h.hexdigest())
    assert len(digests) == 1


def test_a_cell_spawns_one_key_stream_and_one_per_bb84_link():
    import qkdsim.engine as engine

    g = erdos_renyi(6, 0.6, seed=2)
    e = g.edges[0]
    keys = KeySpec(overrides=(((e.u, e.v), KeySpec(kind="bb84", photons=4)),))  # two directed BB84 links
    classes = [TrafficClass(3, 0, Unicast(5), Bernoulli(0.4)), TrafficClass(1, 2, Unicast(4), Bernoulli(0.3))]
    with mock.patch.object(engine, "_spawn_streams", wraps=engine._spawn_streams) as spawn:
        eng = _Engine(_Router(g, classes), TandemMode(), keys, "fifo", 20, 9, 100, False, 1, False, False)
    spawn.assert_called_once_with(9, 2)
    # the class streams are the seed's first children, whatever else is spawned;
    # after the key and misc streams, the BB84 links take one child each
    children = np.random.SeedSequence(9).spawn(6)
    assert [s.rng.random() for s in eng.arrival_samplers.values()] == [
        np.random.default_rng(s).random() for s in children[:2]
    ]
    assert [e for e, _, _ in eng.key_sampler.bb84] == [0, 1]
    assert [r.random() for _, _, r in eng.key_sampler.bb84] == [np.random.default_rng(s).random() for s in children[4:]]


def test_keyless_links_bank_no_keys():
    g = GraphConfig(kind="erdos_renyi", nodes=10, p=0.4, graph_seed=3, qkd_fraction=0.6).build()
    keyless = [e.id for e in g.edges if not e.has_qkd]
    e = g.edges[keyless[0]]
    # even an override gives a keyless link no keys
    keys = KeySpec(overrides=(((e.u, e.v), KeySpec(kind="deterministic", value=5)),))
    classes = [
        TrafficClass(0, 0, Unicast(6), Bernoulli(0.3), security="classical"),
        TrafficClass(1, 0, Unicast(6), Bernoulli(0.2)),
        TrafficClass(2, 8, Multicast((1, 3)), Bernoulli(0.1)),
    ]
    eng = _Engine(_Router(g, classes), MultilevelMode(True), keys, "fifo", 300, 4, 100, False, 1, True, False)
    eng.run()
    generated = eng.bank.generated_total
    assert keyless and not generated[keyless].any()
    assert generated[list(g.qkd_edge_ids())].all()


# ---------------------------------------------------------------------------
# backpressure: the service phase's outputs, pinned across builds

def _backpressure_net():
    # gamma 2 and key rates up to 3 let a link send two packets a slot, so one
    # link can drain or refill a source queue that a later link reads; class
    # ids 1 and 2 are unused rows of the queue table
    g = erdos_renyi(9, 0.4, gamma=2, eta_range=(0.5, 3.0), seed=21)
    classes = [
        TrafficClass(0, 0, Unicast(8), TruncatedPoisson(1.2, cap=4)),
        TrafficClass(3, 5, Unicast(1), Bernoulli(0.8)),
        TrafficClass(4, 0, Unicast(5), Bernoulli(0.6)),
    ]
    return g, classes


def _backpressure_cell(key_cap):
    g, classes = _backpressure_net()
    return simulate(g, classes, BackpressureMode(key_cap=key_cap), horizon=400, seed=30 + key_cap,
                    queue_cap=4, check_invariants=True)


BACKPRESSURE_DIGESTS = {
    0: (
        "5084fbae49adeebf2fe4dad1a0833ba95601a15170b4c355ec1bdb1190e8104e",
        "99baa74b483e433341ea50216794b7c70e9f4e0efd78287f809070677d640799",
    ),
    1: (
        "a9a0b73acc55143f241228efdd34e955e0e9efc4491dcc4447b9a65860a7477b",
        "cc6399a8b379df611a14e969b7ec18cfb23ff3097046208aa495a50c195fec8d",
    ),
    50: (
        "e339aad210436aee2e51783ea4a45a24f86f9c3c882266abda9d1d04a61cf20f",
        "bc6dfdfd19f1fefc25e3ecfce3327f6c500c05ea97e12a8d60436c5e304a203e",
    ),
}


@pytest.mark.parametrize("key_cap", sorted(BACKPRESSURE_DIGESTS))
def test_backpressure_bytes_pinned(key_cap):
    import hashlib

    r = _backpressure_cell(key_cap)
    got = (hashlib.sha256(r.to_json_bytes()).hexdigest(), hashlib.sha256(r.to_csv_bytes()).hexdigest())
    assert got == BACKPRESSURE_DIGESTS[key_cap]


def test_backpressure_runs_links_whose_capacity_exceeds_int64():
    # gamma 2**63 made the engine's capacity array uint64 and the caps
    # floats, which crashed the walk; 10**30 made it an object array.  A cap
    # is min(gamma, residual) and the residual is at most key_cap, so every
    # byte matches gamma 10**6
    _, classes = _backpressure_net()
    digests = set()
    for gamma in (10**6, 2**63, 10**30):
        g = erdos_renyi(9, 0.4, gamma=gamma, eta_range=(0.5, 3.0), seed=21)
        r = simulate(g, classes, BackpressureMode(), horizon=300, seed=31, queue_cap=4, check_invariants=True)
        assert r.total_delivered > 0
        digests.add((r.to_json_bytes(), r.to_csv_bytes()))
    assert len(digests) == 1


def _backpressure_engine(horizon):
    g, classes = _backpressure_net()
    return _Engine(_Router(g, classes), BackpressureMode(), KeySpec(), "fifo", horizon, 7, 4, False, 1, True, False)


def test_each_backpressure_slot_calls_the_kernel_once():
    import qkdsim.engine as engine
    import qkdsim.policy as policy

    # the kernel the policy tests check is the one the slot loop runs
    assert engine.backpressure_activations is policy.backpressure_activations
    eng = _backpressure_engine(57)
    with mock.patch.object(engine, "backpressure_activations", wraps=policy.backpressure_activations) as kernel:
        r = eng.run()
    assert kernel.call_count == 57
    assert r.total_delivered > 0


@pytest.mark.parametrize("order, sent, held", [
    # 0->1 drains node 0, so 0->2 sends nothing and spends no keys; 3->0 refills it
    ([0, 1, 2], [3, 0, 2], {0: [3, 4], 2: [], 3: [5, 6, 7]}),
    # 3->0 refills node 0 before 0->2 runs, which then sends its whole cap
    ([0, 2, 1], [3, 2, 2], {0: [], 2: [3, 4], 3: [5, 6, 7]}),
    # 0->2 leaves one packet, so 0->1 is clamped from its cap of 3 to 1
    ([1, 0, 2], [1, 2, 2], {0: [3, 4], 2: [0, 1], 3: [5, 6, 7]}),
], ids=["drained", "refilled", "clamped"])
def test_backpressure_walk_clamps_each_send_by_the_live_source_queue(order, sent, held):
    # one hand-built slot: node 0 holds packets 0-2 of the class, node 3
    # packets 3-7.  On the start-of-slot table every link picks the class,
    # and each send is clamped by what its source queue holds when the walk
    # reaches the link
    g = build_graph(4, [EdgeSpec(0, 1, gamma=3, directed=True), EdgeSpec(0, 2, gamma=2, directed=True),
                        EdgeSpec(3, 0, gamma=2, directed=True)])
    classes = [TrafficClass(0, 3, Unicast(1), Bernoulli(0.5))]
    eng = _Engine(_Router(g, classes), BackpressureMode(), KeySpec(), "fifo", 1, 7, 10, False, 1, True, False)
    for node, count in ((0, 3), (3, 5)):
        for _ in range(count):
            eng.node_q[node].append(eng._new_record(0, 0, 1))
            eng.lens[node] += 1
    eng.class_arrivals[0] = eng.arrivals_cum = 8
    eng.bank.deposit(np.array([3, 2, 2]))
    eng.keys_total = 7
    eng.misc_rng = mock.Mock(permutation=lambda m: np.array(order))
    eng._serve_nodes(0)
    assert eng.bank.consumed_total.tolist() == sent
    assert eng.class_delivered[0] == sent[0]  # node 1 is the class's destination
    assert {u: [rec.id for rec in eng.node_q[u]] for u in held} == held
    eng._check_invariants(0)


@pytest.mark.parametrize("corrupt", ["held+1", "held-1", "unmade+1"])
def test_a_corrupt_backpressure_length_table_raises(corrupt):
    eng = _backpressure_engine(200)
    eng.run()  # checks every slot, the length table included
    held = [key for key, dq in eng.node_q.items() if dq]
    unmade = [key for key in range(len(eng.lens)) if key not in eng.node_q]
    assert held and unmade
    key = unmade[0] if corrupt.startswith("unmade") else held[0]
    eng.lens[key] += 1 if corrupt.endswith("+1") else -1
    # packet conservation still holds; only the length table is wrong
    with pytest.raises(InvariantViolation, match=f"class {key // eng.g.n} at node {key % eng.g.n}"):
        eng._check_invariants(eng.horizon)
