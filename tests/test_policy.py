import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkdsim import policy
from qkdsim.config import GraphConfig
from qkdsim.engine import _Router, simulate
from qkdsim.keying import KeySpec
from qkdsim.policy import (
    TandemMode,
    VirtualQueues,
    assign_weights,
    backpressure_activations,
    multilevel_select_routes,
    select_routes,
    single_queue_service,
)
from qkdsim.routing import UnreachableError, anycast_route, min_weight_path
from qkdsim.topology import EdgeSpec, build_graph, erdos_renyi
from qkdsim.traffic import Anycast, Bernoulli, Broadcast, Multicast, TrafficClass, TruncatedPoisson, Unicast

from .oracles import (
    assert_path_tree,
    assert_tree_shape,
    backpressure_scan,
    drift_bound,
    edge_between,
    route_nodes,
    shuffled_edge_ids,
    virtual_queue_trace,
)


# ---------------------------------------------------------------------------
# weights

def test_assign_weights_zero():
    assert assign_weights(VirtualQueues([0.0] * 3, [0.0] * 3)) == [0.0, 0.0, 0.0]


def test_assign_weights_sum():
    vq = VirtualQueues([3.0, 1.0], [4.0, 0.5])
    assert assign_weights(vq) == [7.0, 1.5]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_assign_weights_elementwise_oracle(pairs):
    vq = VirtualQueues([float(a) for a, _ in pairs], [float(b) for _, b in pairs])
    got = assign_weights(vq)
    for i, (a, b) in enumerate(pairs):
        assert got[i] == a + b


# ---------------------------------------------------------------------------
# recursions (run in place by the engine; recorded by virtual_queue_trace)

def _saturated_link(arrivals_per_slot, gamma, keys_per_slot, horizon=5):
    """The run's record and its virtual-queue trace."""
    g = build_graph(2, [EdgeSpec(0, 1, gamma=gamma, eta=0.5, directed=True)])
    classes = [TrafficClass(i, 0, Unicast(1), Bernoulli(1.0)) for i in range(arrivals_per_slot)]
    with virtual_queue_trace() as trace:
        r = simulate(g, classes, TandemMode(), keys=KeySpec(kind="deterministic", value=keys_per_slot),
                     horizon=horizon, seed=0, record_drift=True)
    return r, trace


def test_virtual_update_clamps_at_zero():
    # 2 arrivals against 5 keys and capacity 1: X clamps, Y grows
    _, trace = _saturated_link(2, gamma=1, keys_per_slot=5)
    assert trace["x_tilde"][0, 0] == 0.0
    assert trace["y_tilde"][0, 0] == 1.0


def test_virtual_update_arithmetic():
    # 3 arrivals, 1 key and capacity 2 per slot: X grows by 2, Y by 1
    _, trace = _saturated_link(3, gamma=2, keys_per_slot=1)
    assert trace["x_tilde"][:, 0].tolist() == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert trace["y_tilde"][:, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_lyapunov_values():
    # X = 2(t+1) and Y = t+1 above, so the sum of squares is 5(t+1)^2
    assert _saturated_link(3, gamma=2, keys_per_slot=1)[0].series["lyapunov"].tolist() == [
        5.0, 20.0, 45.0, 80.0, 125.0
    ]
    assert (_saturated_link(1, gamma=1, keys_per_slot=1)[0].series["lyapunov"] == 0.0).all()


@given(
    seed=st.integers(0, 10_000),
    rate=st.floats(0.0, 1.5),
    keys=st.integers(0, 3),
)
@settings(max_examples=15, deadline=None)
def test_virtual_update_matches_scalar_replay(seed, rate, keys):
    g = erdos_renyi(5, 0.6, seed=seed % 7)
    classes = [
        TrafficClass(0, 0, Unicast(3), TruncatedPoisson(rate, cap=4)),
        TrafficClass(1, 4, Unicast(1), Bernoulli(min(rate, 1.0))),
    ]
    with virtual_queue_trace() as trace:
        simulate(g, classes, TandemMode(), keys=KeySpec(kind="deterministic", value=keys), horizon=60, seed=seed)
    # independent replay with plain integers
    x_ref = [0] * g.m
    y_ref = [0] * g.m
    for t in range(60):
        for e in range(g.m):
            a = int(trace["arrivals"][t, e])
            x_ref[e] = max(0, x_ref[e] + a - int(trace["kappa"][t, e]))
            y_ref[e] = max(0, y_ref[e] + a - g.edges[e].gamma)
        assert trace["x_tilde"][t].tolist() == [float(v) for v in x_ref]
        assert trace["y_tilde"][t].tolist() == [float(v) for v in y_ref]


def test_drift_bound_single_edge():
    g = build_graph(2, [EdgeSpec(0, 1, gamma=1, eta=0.5, directed=True)])
    assert drift_bound(g, a_max=1, k_max=20) == 403.0


# ---------------------------------------------------------------------------
# single-queue baseline

def test_single_queue_service_rules():
    assert single_queue_service(queue_len=5, gamma=1, fresh_keys=0) == 0
    assert single_queue_service(queue_len=3, gamma=2, fresh_keys=1) == 1
    assert single_queue_service(queue_len=0, gamma=3, fresh_keys=9) == 0


def test_single_queue_saturation_rate():
    # saturated queue served at E min(1, K) with K ~ Poisson(1/2)
    rng = np.random.default_rng(0)
    keys = np.minimum(rng.poisson(0.5, 100_000), 20)
    served = sum(single_queue_service(10, 1, int(k)) for k in keys)
    assert abs(served / len(keys) - (1 - math.exp(-0.5))) < 0.01


# ---------------------------------------------------------------------------
# backpressure kernel

def _line_graph():
    return build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2)])


def _flat(table):
    """A class-major table (``table[c][u]``) as the engine's flat list, keyed ``c * n + u``."""
    return [x for row in table for x in row]


def _activations(table, g, kappa, class_ids, order=None):
    """The kernel called as ``_serve_nodes`` calls it, on the class-major
    queue table (one row per class id, one column per node).  Returns its
    walk as (edge id, class id, cap) triples, and checks that each flat key
    is its link's tail queue."""
    tails, heads, gamma = (np.array([getattr(e, f) for e in g.edges]) for f in ("u", "v", "gamma"))
    order = np.arange(g.m) if order is None else np.asarray(order)
    walk, keys, caps = backpressure_activations(np.array(table, dtype=np.int64), tails, heads,
                                                np.minimum(gamma, kappa), class_ids, order)
    acts = []
    for eid, key, k in zip(walk, keys, caps):
        c, u = divmod(key, g.n)
        assert u == g.edges[eid].u
        acts.append((eid, c, k))
    return acts


def test_backpressure_no_transmission_on_equal_backlog():
    g = _line_graph()
    table = [[5, 5, 0]]
    acts = _activations(table, g, kappa=[9] * g.m, class_ids=[0])
    assert all(g.edges[e].u != 0 or g.edges[e].v != 1 for e, _, _ in acts)


def test_backpressure_forwards_downhill():
    g = _line_graph()
    table = [[10, 0, 0]]
    acts = _activations(table, g, kappa=[9] * g.m, class_ids=[0])
    assert (edge_between(g, 0, 1), 0, 1) in acts


def test_backpressure_respects_gamma_and_keys():
    g = build_graph(2, [EdgeSpec(0, 1, gamma=3)])
    table = [[10, 0]]
    acts = _activations(table, g, kappa=[2, 2], class_ids=[0])
    assert acts == [(edge_between(g, 0, 1), 0, 2)]


def test_backpressure_picks_every_link_on_the_snapshot():
    # two links leave node 0 and both pick class 0 on the snapshot, each up
    # to its cap: the kernel reads no live queue (the engine's walk clamps,
    # see test_engine's test_backpressure_walk_clamps_each_send_by_the_live_source_queue)
    g = build_graph(3, [EdgeSpec(0, 1, gamma=2, directed=True), EdgeSpec(0, 2, gamma=2, directed=True)])
    snapshot = [[3, 0, 0], [0, 0, 0]]
    assert _activations(snapshot, g, kappa=[5, 5], class_ids=[0, 1]) == [(0, 0, 2), (1, 0, 2)]


def test_backpressure_commodity_choice_exhaustive():
    # two commodities: max differential wins, ties to the lower class id
    g = build_graph(2, [EdgeSpec(0, 1, gamma=1, eta=1.0, directed=True)])
    for q0 in range(4):
        for q1 in range(4):
            table = [[q0, 0], [q1, 0]]
            acts = _activations(table, g, kappa=[5], class_ids=[0, 1])
            expect_cls = None
            if q0 or q1:
                expect_cls = 0 if q0 >= q1 else 1
            if expect_cls is None:
                assert acts == []
            else:
                assert acts == [(0, expect_cls, 1)]


class _ByNode:
    """``view[u][c]`` reads ``flat[c * n + u]``: the engine's flat table as the
    scalar oracle indexes its node-major one."""

    def __init__(self, flat, n, u=None):
        self.flat, self.n, self.u = flat, n, u

    def __getitem__(self, i):
        if self.u is None:
            return _ByNode(self.flat, self.n, i)
        return self.flat[i * self.n + self.u]


def _serve(activations, g, live, dest, queue_cap):
    """Apply each activation to the flat ``live`` list before asking for the
    next, as ``_serve_nodes`` does: the source loses what the link sends,
    and the head gains what fits unless it is the class's destination."""
    out = []
    for eid, c, n in activations:
        out.append((eid, c, n))
        e = g.edges[eid]
        live[c * g.n + e.u] -= n
        if e.v != dest[c]:
            head = c * g.n + e.v
            live[head] += min(n, queue_cap - live[head])
    return out


def _clamped(walk, g, live):
    """The kernel's walk as ``_serve_nodes`` sends it: each link's cap
    clamped by its source queue's live length, read as the link is reached;
    a drained source sends nothing."""
    for eid, c, k in walk:
        held = live[c * g.n + g.edges[eid].u]
        if held:
            yield eid, c, min(k, held)


def _both_scans(g, class_ids, table, kappa, order, dest, queue_cap):
    """(activations, final flat live table) of the scalar oracle, then of the
    kernel's walk clamped as the engine clamps it.  The oracle reads the
    table node-major, as it always has."""
    runs = []
    for vector in (False, True):
        live = _flat(table)
        if vector:
            acts = _clamped(_activations(table, g, kappa, class_ids, order), g, live)
        else:
            by_node = [list(col) for col in zip(*table)]
            acts = backpressure_scan(by_node, g, kappa, class_ids, order, _ByNode(live, g.n))
        runs.append((_serve(acts, g, live, dest, queue_cap), live))
    return runs


# one-row chunks, chunks of a few rows (with a partial last chunk) and the default
_CHUNK_BOUNDS = (1, 7, 20, policy._PICK_CELLS)


def test_backpressure_refilled_source_sends_more_than_its_snapshot():
    # 0->1 runs first and refills node 1, so 1->2 sends three packets
    # although node 1 held one at the start of the slot
    g = build_graph(3, [EdgeSpec(0, 1, gamma=2, directed=True), EdgeSpec(1, 2, gamma=3, directed=True)])
    oracle, vector = _both_scans(g, [0], [[3, 1, 0]], [5, 5], [0, 1], {0: 2}, queue_cap=5)
    assert oracle == vector
    assert vector[0] == [(0, 0, 2), (1, 0, 3)]


@pytest.mark.parametrize("k", range(1, 11))
def test_backpressure_ties_go_to_the_lowest_id_at_every_class_count(k):
    # k classes with gapped ids (B = 1, 2, 4, 8, 16 as k grows), passed in
    # reverse: on link 0->1 every class but the highest ties, on 1->0 and
    # 0->2 only the highest id's differential is positive
    g = build_graph(3, [EdgeSpec(0, 1, gamma=9, directed=True), EdgeSpec(1, 0, gamma=9, directed=True),
                        EdgeSpec(0, 2, gamma=9, directed=True)])
    ids = [3 * i + 1 for i in range(k)]
    table = [[0, 0, 0] for _ in range(max(ids) + 1)]
    for c in ids:
        table[c] = [4, 1, 4]
    table[ids[-1]] = [4, 6, 3]
    for cells in _CHUNK_BOUNDS:
        with mock.patch.object(policy, "_PICK_CELLS", cells):
            acts = _activations(table, g, kappa=[9] * g.m, class_ids=ids[::-1])
            # each link sends up to its cap, 9, of the source queue's snapshot length
            if k == 1:
                assert acts == [(1, ids[0], 9), (2, ids[0], 9)]
                assert list(_clamped(acts, g, _flat(table))) == [(1, ids[0], 6), (2, ids[0], 4)]
            else:
                assert acts == [(0, ids[0], 9), (1, ids[-1], 9), (2, ids[-1], 9)]
                assert list(_clamped(acts, g, _flat(table))) == [(0, ids[0], 4), (1, ids[-1], 6), (2, ids[-1], 4)]
            oracle, vector = _both_scans(g, ids, table, [9] * g.m, range(g.m), {c: 2 for c in ids}, queue_cap=10)
            assert vector == oracle


@pytest.mark.parametrize("cells", [1, 9, 12, policy._PICK_CELLS])
def test_backpressure_unused_class_rows_never_win(cells):
    # ids 1, 4 and 5 on a six-row table: with three links a 9-cell bound
    # takes rows 1-3 then 4-5 (unused rows end a chunk), a 12-cell bound rows
    # 1-4 then 5 (unused rows inside a chunk).  An unused row encodes 0, so on
    # 0->2, where every class's differential is negative, no class is picked
    g = build_graph(3, [EdgeSpec(0, 1, gamma=9, directed=True), EdgeSpec(1, 0, gamma=9, directed=True),
                        EdgeSpec(0, 2, gamma=9, directed=True)])
    table = [[0, 0, 0] for _ in range(6)]
    table[1] = [3, 1, 5]  # 0->1 by two
    table[4] = [5, 2, 6]  # 0->1 by three: it wins
    table[5] = [0, 4, 1]  # 1->0 by four
    with mock.patch.object(policy, "_PICK_CELLS", cells):
        acts = _activations(table, g, kappa=[9] * g.m, class_ids=[5, 1, 4])
        assert acts == [(0, 4, 9), (1, 5, 9)]
        oracle, vector = _both_scans(g, [1, 4, 5], table, [9] * g.m, [2, 1, 0], {1: 2, 4: 2, 5: 0}, queue_cap=9)
        assert vector == oracle


def test_backpressure_kernel_handles_queues_near_2_to_the_40():
    # ten classes (B = 16): lengths near 2**40 times B stay far inside int64,
    # and differentials of 0 and 1 at that size are still told apart
    g = build_graph(2, [EdgeSpec(0, 1, gamma=3, directed=True), EdgeSpec(1, 0, gamma=3, directed=True)])
    big = 2**40
    ids = list(range(0, 20, 2))
    table = [[0, 0] for _ in range(max(ids) + 1)]
    for c in ids:
        table[c] = [big + 5, big + 5]  # differential 0 both ways
    table[6] = [big + 7, big + 6]  # 0->1 by one
    table[14] = [big + 6, big + 5]  # 0->1 by one, a higher id
    table[18] = [big - 3, big]  # 1->0 by three
    table[2] = [big - 1, big + 2]  # 1->0 by three, a lower id: it wins the tie
    acts = _activations(table, g, kappa=[5, 5], class_ids=ids)
    assert acts == [(0, 6, 3), (1, 2, 3)]
    oracle, vector = _both_scans(g, ids, table, [5, 5], [1, 0], {c: 1 for c in ids}, queue_cap=2**41)
    assert vector == oracle


@st.composite
def _backpressure_slots(draw):
    """A random directed graph and one slot's class-major queue table, key
    counts, link order and destinations.  Up to ten classes with gapped ids,
    so the kernel's tie bits span B = 1 to 16; small queues make tied
    differentials and shared, drained and refilled source queues common."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    links = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=14, unique=True))
    g = build_graph(n, [EdgeSpec(u, v, gamma=draw(st.integers(1, 3)), directed=True) for u, v in links])
    class_ids = draw(st.lists(st.integers(0, 13), min_size=1, max_size=10, unique=True))
    queue_cap = draw(st.integers(1, 5))
    table = [
        [draw(st.integers(0, queue_cap)) if c in class_ids else 0 for _ in range(n)]
        for c in range(max(class_ids) + 1)
    ]
    kappa = draw(st.lists(st.integers(0, 3), min_size=g.m, max_size=g.m))
    order = draw(st.permutations(range(g.m)))
    dest = {c: draw(st.integers(0, n - 1)) for c in class_ids}
    return g, class_ids, table, kappa, order, dest, queue_cap


@given(_backpressure_slots())
@settings(max_examples=400, deadline=None)
def test_backpressure_kernel_matches_scalar_scan(slot):
    for cells in _CHUNK_BOUNDS:
        with mock.patch.object(policy, "_PICK_CELLS", cells):
            oracle, vector = _both_scans(*slot)
        assert vector == oracle


# ---------------------------------------------------------------------------
# route selection

def _diamond():
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(1, 3), EdgeSpec(0, 2), EdgeSpec(2, 3)])
    return g


def test_select_routes_empty_without_arrivals():
    g = _diamond()
    classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(0.5))]
    assert select_routes(g, [0.0] * g.m, {}, classes) == {}
    assert select_routes(g, [0.0] * g.m, {0: 0}, classes) == {}


def test_select_routes_avoids_congested_path():
    g = _diamond()
    classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(0.5))]
    w = [0.0] * g.m
    w[edge_between(g, 0, 1)] = 9.0  # congest the upper path
    routes = select_routes(g, w, {0: 1}, classes)
    assert route_nodes(g, routes[0]) == (0, 2, 3)


def test_select_routes_broadcast_returns_tree():
    g = _diamond()
    classes = [TrafficClass(0, 0, Broadcast(), Bernoulli(0.5))]
    routes = select_routes(g, [1.0] * g.m, {0: 2}, classes)
    assert_tree_shape(g, routes[0], 0, {1, 2, 3}, None)
    assert len(routes[0].children[0]) == 2  # not a path


@given(seed=st.integers(0, 2000), scale=st.floats(0.01, 50.0))
@example(seed=620, scale=23.772036255832603)  # equal path sums that rounding split
@example(seed=90, scale=19.8975397913702)
@settings(max_examples=40, deadline=None)
def test_selected_routes_invariant_under_scaling(seed, scale):
    g = _diamond()
    rng = np.random.default_rng(seed)
    classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(0.5))]
    vq = VirtualQueues([float(v) for v in rng.integers(0, 20, g.m)],
                       [float(v) for v in rng.integers(0, 20, g.m)])
    w = assign_weights(vq)
    a = select_routes(g, w, {0: 1}, classes)
    b = select_routes(g, [scale * x for x in w], {0: 1}, classes)
    assert a == b
    assert_path_tree(g, a[0])
    assert_path_tree(g, b[0])


# ---------------------------------------------------------------------------
# multilevel route selection

def _mixed_graph():
    # 0-1-2 all QKD, plus a plain shortcut 0-2
    return build_graph(
        3,
        [
            EdgeSpec(0, 1, eta=0.8),
            EdgeSpec(1, 2, eta=0.8),
            EdgeSpec(0, 2, eta=1.0, has_qkd=False),
        ],
    )


def test_multilevel_reduces_to_plain_selection_on_full_qkd():
    g = _diamond()
    classes = [TrafficClass(0, 0, Unicast(3), Bernoulli(0.5), security="quantum")]
    vq = VirtualQueues([1.0] * g.m, [2.0] * g.m)
    plain = select_routes(g, assign_weights(vq), {0: 1}, classes)
    multi = multilevel_select_routes(g, vq, {0: 1}, classes)
    assert plain == multi


def test_multilevel_quantum_confined_to_qkd_subgraph():
    g = _mixed_graph()
    classes = [TrafficClass(0, 0, Unicast(2), Bernoulli(0.5), security="quantum")]
    routes = multilevel_select_routes(g, VirtualQueues([0.0] * g.m, [0.0] * g.m), {0: 1}, classes)
    assert route_nodes(g, routes[0]) == (0, 1, 2)  # may not use the plain shortcut


def test_multilevel_classical_ignores_encryption_backlog():
    g = _mixed_graph()
    classes = [TrafficClass(0, 0, Unicast(2), Bernoulli(0.5), security="classical")]
    vq = VirtualQueues([0.0] * g.m, [0.0] * g.m)
    # huge encryption backlog on the shortcut must not deter a plain class
    vq.x_tilde[edge_between(g, 0, 2)] = 1000.0
    routes = multilevel_select_routes(g, vq, {0: 1}, classes)
    assert route_nodes(g, routes[0]) == (0, 2)
    # but transmission backlog does
    vq.y_tilde[edge_between(g, 0, 2)] = 50.0
    routes = multilevel_select_routes(g, vq, {0: 1}, classes)
    assert route_nodes(g, routes[0]) == (0, 1, 2)


def test_multilevel_quantum_unreachable_inside_qkd_subgraph():
    g = build_graph(3, [EdgeSpec(0, 1, eta=0.5), EdgeSpec(1, 2, eta=1.0, has_qkd=False)])
    classes = [TrafficClass(0, 0, Unicast(2), Bernoulli(0.5), security="quantum")]
    with pytest.raises(UnreachableError):
        multilevel_select_routes(g, VirtualQueues([0.0] * g.m, [0.0] * g.m), {0: 1}, classes)


# ---------------------------------------------------------------------------
# zero-weight shortcut: a path class takes the fewest-hop path over the links
# that weigh 0 without the router; the router would have picked the same route

def _busy(x, y):
    """The links with weight: x̃ or ỹ above 0."""
    return {e for e, (a, b) in enumerate(zip(x, y)) if a or b}


def _mostly_zero(rng, m):
    return np.where(rng.random(m) < 0.75, 0.0, rng.integers(1, 41, m) / 8).tolist()


def _tie(g, s, allowed):
    """Two out-neighbours a < b of s whose edge to b has the smaller id."""
    heads = {g.edges[e].v: e for e in g.out_edges[s] if allowed is None or allowed[e]}
    for a in sorted(heads):
        for b in sorted(heads):
            if a < b and heads[b] < heads[a]:
                return a, b
    return None


@given(seed=st.integers(0, 10**6), masked=st.booleans(), case=st.sampled_from(("detour", "fallback", "tie")))
@example(seed=0, masked=False, case="tie")
@example(seed=10, masked=True, case="tie")
@settings(max_examples=150, deadline=None)
def test_zero_weight_shortcut_matches_the_router(seed, masked, case):
    """``detour``: the idle route carries weight; ``fallback``: every link out
    of the source does, so no zero-weight path exists; ``tie``: the anycast
    candidates are two out-neighbours of the source reached over idle links,
    the larger id by the smaller edge id."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    g = GraphConfig(kind="erdos_renyi", nodes=n, p=0.5, graph_seed=seed,
                    qkd_fraction=0.6 if masked else 1.0).build()
    if not g.connected():
        return
    g = shuffled_edge_ids(g, rng)
    s, d, c1, c2 = (int(v) for v in rng.choice(n, size=4, replace=False))
    levels = ("quantum", "classical") if masked else ("quantum",)
    classes = []
    for sec in levels:
        cands = (c1, c2)
        if case == "tie":
            cands = _tie(g, s, g.key_mask if sec == "quantum" else None)
            assume(cands is not None)
        classes.append(TrafficClass(len(classes), s, Unicast(d), Bernoulli(0.1), security=sec))
        classes.append(TrafficClass(len(classes), s, Anycast(cands), Bernoulli(0.1), security=sec))
    router = _Router(g, classes)
    keyed = g.key_mask or [True] * g.m
    for cls in classes:
        idle = router.idle_routes[cls.id]
        # a keyless link never holds encryption backlog
        x = [w if k else 0.0 for w, k in zip(_mostly_zero(rng, g.m), keyed)]
        y = _mostly_zero(rng, g.m)
        if case == "detour":
            y[idle.edges[int(rng.integers(len(idle.edges)))]] = 1.0
        elif case == "fallback":
            for e in g.out_edges[s]:
                y[e] = 1.0
        elif isinstance(cls.kind, Anycast):
            for e in g.out_edges[s]:
                if g.edges[e].v in cls.kind.candidates:
                    x[e] = y[e] = 0.0
        if cls.security == "quantum":
            w, allowed = [a + b for a, b in zip(x, y)], g.key_mask
        else:
            w, allowed = y, None
        if isinstance(cls.kind, Unicast):
            want = min_weight_path(g, w, s, d, allowed)
        else:
            want = anycast_route(g, w, s, cls.kind.candidates, allowed)
        with mock.patch("qkdsim.engine.min_weight_path", wraps=min_weight_path) as path_router, \
                mock.patch("qkdsim.engine.anycast_route", wraps=anycast_route) as anycast_router:
            got = router.routes({cls.id: 1}, VirtualQueues(x, y), _busy(x, y))[cls.id]
        assert got == want
        assert_path_tree(g, want)
        assert_path_tree(g, got)
        zero_links = [not w[e] and (allowed is None or allowed[e]) for e in range(g.m)]
        zero_path = bool(cls.destination_nodes(g.n) & g.reachable(s, zero_links))
        # the idle route is handed out itself, the detour and the router make new ones
        assert (got is idle) == (not any(w[e] for e in idle.edges))
        assert path_router.call_count + anycast_router.call_count == (not zero_path)
        if case == "fallback":
            assert not zero_path
        if case == "tie" and isinstance(cls.kind, Anycast):
            assert route_nodes(g, got) == (s, min(cls.kind.candidates))


def test_zero_weight_shortcut_skips_the_router_when_idle():
    g = erdos_renyi(8, 0.5, seed=3)
    classes = [TrafficClass(0, 0, Unicast(5), Bernoulli(0.1)), TrafficClass(1, 2, Anycast((6, 7)), Bernoulli(0.1))]
    router = _Router(g, classes)
    zeros = [0.0] * g.m
    routes = router.routes({0: 1, 1: 2}, VirtualQueues(zeros, zeros), set())
    assert routes[0] is router.idle_routes[0] and routes[1] is router.idle_routes[1]
    assert routes[0] == min_weight_path(g, [0.0] * g.m, 0, 5)
    assert routes[1] == anycast_route(g, [0.0] * g.m, 2, (6, 7))



# ---------------------------------------------------------------------------
# idle trees: a tree class that sees no weight takes the tree the router
# built on all-zero weights, the same object every time

@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("security", ["quantum", "classical"])
@pytest.mark.parametrize("kind", [Broadcast(), Multicast((2, 5, 7))])
def test_idle_tree_is_reused_while_the_class_sees_no_weight(kind, security, masked):
    g = GraphConfig(kind="erdos_renyi", nodes=8, p=0.5, graph_seed=5,
                    qkd_fraction=0.6 if masked else 1.0).build()
    cls = TrafficClass(0, 1, kind, Bernoulli(0.1), security=security)
    router = _Router(g, [cls])
    allowed = g.key_mask if security == "quantum" else None
    terminals = set(range(g.n)) if isinstance(kind, Broadcast) else set(kind.destinations)
    rng = np.random.default_rng(7)
    x, y = [0.0] * g.m, [0.0] * g.m
    # weight only where the class cannot see it: ỹ on keyless links for an
    # encrypted class, x̃ on keyed links for a plain one
    for e in range(g.m):
        if security == "quantum" and masked and not g.key_mask[e]:
            y[e] = float(rng.integers(1, 9))
        elif security == "classical" and (g.key_mask is None or g.key_mask[e]):
            x[e] = float(rng.integers(1, 9))

    def routes():
        with mock.patch("qkdsim.engine.select_routes", wraps=select_routes) as plain_selector, \
                mock.patch("qkdsim.engine.multilevel_select_routes", wraps=multilevel_select_routes) as selector:
            got = router.routes({0: 1}, VirtualQueues(list(x), list(y)), _busy(x, y))[0]
        want = multilevel_select_routes(g, VirtualQueues(list(x), list(y)), {0: 1}, [cls])[0]
        assert got == want
        assert_tree_shape(g, got, cls.source, terminals, allowed)
        return got, plain_selector.call_count + selector.call_count

    idle = router.idle_routes[cls.id]
    for _ in range(2):
        got, router_calls = routes()
        assert got is idle and router_calls == 0
    y[idle.edges[0]] = 1.0  # one weight the class sees
    got, router_calls = routes()
    assert got is not idle and router_calls == 1
