import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim.routing import (
    Route,
    RoutingError,
    UnreachableError,
    anycast_route,
    fewest_hop_path,
    min_weight_path,
    min_weight_spanning_tree,
    steiner_tree_approx,
)
from qkdsim.topology import EdgeSpec, build_graph, erdos_renyi

from .oracles import (
    assert_path_tree,
    best_path_label,
    edge_between,
    min_spanning_tree_weight,
    route_nodes,
    route_weight,
    shuffled_edge_ids,
    steiner_optimum_weight,
    validate_route,
)


def _random_graph(rng, n=None, p=0.55):
    """Connected undirected graph with dyadic-rational weights (exact sums)."""
    while True:
        n_nodes = n or int(rng.integers(4, 9))
        g = erdos_renyi(n_nodes, p, seed=int(rng.integers(1_000_000)))
        if g.m and g.connected():
            break
    w = [int(rng.integers(0, 41)) / 8 for _ in range(g.m)]
    return g, w


def _symmetrize(g, w):
    out = list(w)
    for e in g.edges:
        if e.twin is not None and e.twin < e.id:
            out[e.id] = out[e.twin]
    return out


# ---------------------------------------------------------------------------
# paths

def test_path_source_equals_destination_rejected():
    g = build_graph(2, [EdgeSpec(0, 1)])
    with pytest.raises(RoutingError, match="degenerate"):
        min_weight_path(g, [0.0, 0.0], 1, 1)


def test_path_unreachable():
    g = build_graph(3, [EdgeSpec(0, 1)])
    with pytest.raises(UnreachableError):
        min_weight_path(g, [0.0, 0.0], 0, 2)


def test_diamond_graph_picks_cheaper_side():
    # s=0, a=1, b=2, t=3; weights s-a:1, a-t:1, s-b:3, b-t:0
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(1, 3), EdgeSpec(0, 2), EdgeSpec(2, 3)])
    w = [0.0] * g.m
    w[edge_between(g, 0, 1)] = w[edge_between(g, 1, 0)] = 1.0
    w[edge_between(g, 1, 3)] = w[edge_between(g, 3, 1)] = 1.0
    w[edge_between(g, 0, 2)] = w[edge_between(g, 2, 0)] = 3.0
    w[edge_between(g, 2, 3)] = w[edge_between(g, 3, 2)] = 0.0
    route = min_weight_path(g, w, 0, 3)
    assert route_nodes(g, route) == (0, 1, 3)
    assert route_weight(g, w, route) == 2.0
    assert best_path_label(g, w, 0, 3)[0] == 2.0


def test_zero_weights_fall_back_to_fewest_hops():
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(1, 3), EdgeSpec(0, 2), EdgeSpec(2, 3), EdgeSpec(0, 3)])
    route = min_weight_path(g, [0.0] * g.m, 0, 3)
    assert route_nodes(g, route) == (0, 3)


def test_uniform_positive_weights_give_fewest_hops():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g, _ = _random_graph(rng)
        w = [0.375] * g.m
        nodes = sorted(rng.choice(g.n, size=2, replace=False))
        route = min_weight_path(g, w, int(nodes[0]), int(nodes[1]))
        hop_route = min_weight_path(g, [1.0] * g.m, int(nodes[0]), int(nodes[1]))
        assert len(route.edges) == len(hop_route.edges)


def test_equal_weight_ties_prefer_lexicographic_nodes():
    # two 2-hop routes 0-1-3 and 0-2-3 with equal weight: pick 0-1-3
    g = build_graph(4, [EdgeSpec(0, 2), EdgeSpec(2, 3), EdgeSpec(0, 1), EdgeSpec(1, 3)])
    route = min_weight_path(g, [1.0] * g.m, 0, 3)
    assert route_nodes(g, route) == (0, 1, 3)


def test_min_weight_path_matches_brute_force_100():
    rng = np.random.default_rng(42)
    done = 0
    while done < 100:
        g, w = _random_graph(rng)
        s, t = rng.choice(g.n, size=2, replace=False)
        s, t = int(s), int(t)
        route = min_weight_path(g, w, s, t)
        validate_route(g, route)
        weight, hops, nodes = best_path_label(g, w, s, t)
        assert route_weight(g, w, route) == weight
        assert (len(route.edges), route_nodes(g, route)) == (hops, nodes)
        done += 1


@given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
@example(seed=129, scale=1 / 3)  # a 1-hop/2-hop tie that rounding used to split
@example(seed=969, scale=37.03988904888903)
@settings(max_examples=40, deadline=None)
def test_path_invariant_under_positive_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    g, w = _random_graph(rng)
    s, t = rng.choice(g.n, size=2, replace=False)
    base = min_weight_path(g, w, int(s), int(t))
    scaled = min_weight_path(g, [scale * x for x in w], int(s), int(t))
    assert base == scaled
    assert_path_tree(g, base)
    assert_path_tree(g, scaled)


# ---------------------------------------------------------------------------
# spanning trees

def test_triangle_spanning_tree():
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2), EdgeSpec(0, 2)])
    w = [0.0] * g.m
    w[edge_between(g, 0, 1)] = w[edge_between(g, 1, 0)] = 1.0
    w[edge_between(g, 1, 2)] = w[edge_between(g, 2, 1)] = 2.0
    w[edge_between(g, 0, 2)] = w[edge_between(g, 2, 0)] = 3.0
    tree = min_weight_spanning_tree(g, w, root=0)
    validate_route(g, tree)
    assert route_weight(g, w, tree) == 3.0  # edges weighted 1 and 2
    assert min_spanning_tree_weight(g, w) == 6.0  # both directions counted


def test_single_edge_spanning_tree():
    g = build_graph(2, [EdgeSpec(0, 1)])
    tree = min_weight_spanning_tree(g, [1.0, 1.0], root=0)
    assert tree.edges == (edge_between(g, 0, 1),)
    assert tree.terminals == frozenset({1})


def test_spanning_tree_disconnected_graph():
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(2, 3)])
    with pytest.raises(UnreachableError):
        min_weight_spanning_tree(g, [0.0] * g.m, root=0)


def test_spanning_tree_equal_weights_tie_break_by_edge_id():
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2), EdgeSpec(0, 2)])
    tree = min_weight_spanning_tree(g, [1.0] * g.m, root=0)
    # first two pairs by id win the tie
    assert {g.edges[e].pair for e in tree.edges} == {0, 1}
    assert tree == min_weight_spanning_tree(g, [1.0] * g.m, root=0)


def test_spanning_tree_matches_brute_force_100():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g, w = _random_graph(rng, p=0.5)
        w = _symmetrize(g, w)
        tree = min_weight_spanning_tree(g, w, root=0)
        validate_route(g, tree)
        pair_weight = sum(w[e] + w[g.edges[e].twin] for e in tree.edges)
        assert pair_weight == min_spanning_tree_weight(g, w)


# ---------------------------------------------------------------------------
# Steiner trees

def test_steiner_with_all_terminals_behaves_like_spanning_tree():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g, w = _random_graph(rng, n=6)
        w = _symmetrize(g, w)
        tree = steiner_tree_approx(g, w, 0, set(range(1, g.n)))
        validate_route(g, tree)
        full = min_spanning_tree_weight(g, w)
        got = sum(w[e] + w[g.edges[e].twin] for e in tree.edges)
        assert got <= 2 * full


def test_steiner_star_graph_exact():
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(0, 2), EdgeSpec(0, 3)])
    w = [1.0] * g.m
    tree = steiner_tree_approx(g, w, 1, {2})
    validate_route(g, tree)
    # only route is 1-0-2
    assert {g.edges[e].pair for e in tree.edges} == {0, 1}


def test_steiner_approx_within_two_of_optimum_100():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g, w = _random_graph(rng, p=0.5)
        w = _symmetrize(g, w)
        k = int(rng.integers(1, min(4, g.n - 1) + 1))
        terminals = set(int(v) for v in rng.choice(np.arange(1, g.n), size=k, replace=False))
        tree = steiner_tree_approx(g, w, 0, terminals)
        validate_route(g, tree)
        assert terminals <= {g.edges[e].v for e in tree.edges} | {0}
        got = sum(w[e] + w[g.edges[e].twin] for e in tree.edges)
        opt = steiner_optimum_weight(g, w, 0, terminals)
        assert got <= 2 * opt + 1e-9


def test_steiner_requires_terminals():
    g = build_graph(2, [EdgeSpec(0, 1)])
    with pytest.raises(RoutingError):
        steiner_tree_approx(g, [0.0, 0.0], 0, set())


def test_steiner_unreachable_terminal():
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(2, 3)])
    with pytest.raises(UnreachableError):
        steiner_tree_approx(g, [0.0] * g.m, 0, {3})


# ---------------------------------------------------------------------------
# anycast

def test_anycast_single_candidate_equals_path():
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2)])
    w = [1.0] * g.m
    assert anycast_route(g, w, 0, {2}) == min_weight_path(g, w, 0, 2)


def test_anycast_picks_cheaper_destination():
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(0, 2), EdgeSpec(2, 3)])
    w = [0.0] * g.m
    w[edge_between(g, 0, 1)] = 5.0
    w[edge_between(g, 0, 2)] = 1.0
    w[edge_between(g, 2, 3)] = 2.0
    route = anycast_route(g, w, 0, {1, 3})
    assert route_nodes(g, route) == (0, 2, 3)


def test_anycast_zero_weight_neighbor():
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(0, 2)])
    w = [1.0] * g.m
    w[edge_between(g, 0, 2)] = 0.0
    route = anycast_route(g, w, 0, {1, 2})
    assert route_nodes(g, route) == (0, 2) and len(route.edges) == 1


def test_anycast_no_reachable_candidate():
    g = build_graph(3, [EdgeSpec(0, 1)])
    with pytest.raises(UnreachableError):
        anycast_route(g, [0.0, 0.0], 0, {2})


def test_anycast_matches_min_over_destinations():
    """The route is the smallest (weight, hops, node sequence) label over the
    candidates.  Positive weights on a coarse k/8 grid sum exactly, so two
    candidates often tie on weight and the hop and sequence rules decide."""
    rng = np.random.default_rng(17)
    ties = 0
    for _ in range(100):
        g, _ = _random_graph(rng)
        w = [int(rng.integers(1, 5)) / 8 for _ in range(g.m)]
        cands = {int(v) for v in rng.choice(np.arange(1, g.n), size=3, replace=False)}
        labels = sorted(best_path_label(g, w, 0, t) for t in cands)
        route = anycast_route(g, w, 0, cands)
        validate_route(g, route)
        assert (route_weight(g, w, route), len(route.edges), route_nodes(g, route)) == labels[0]
        ties += labels[0][0] == labels[1][0]
    assert ties >= 15


# ---------------------------------------------------------------------------
# fewest hops over the links that weigh 0

def test_fewest_hop_anycast_tie_goes_to_the_smaller_candidate():
    # 0 reaches 2 by edge id 0 and 1 by edge id 2: both are one hop away
    g = build_graph(3, [EdgeSpec(0, 2), EdgeSpec(0, 1)])
    assert edge_between(g, 0, 2) < edge_between(g, 0, 1)
    route = fewest_hop_path(g, 0, (2, 1))
    assert route_nodes(g, route) == (0, 1) and route.edges == (edge_between(g, 0, 1),)
    assert route == anycast_route(g, [0.0] * g.m, 0, (1, 2))
    assert route_nodes(g, fewest_hop_path(g, 0, (1, 2), blocked={edge_between(g, 0, 1)})) == (0, 2)
    assert fewest_hop_path(g, 0, (1,), allowed=[True, True, False, True]) is None


@given(seed=st.integers(0, 10**6), anycast=st.booleans(), masked=st.booleans())
@settings(max_examples=150, deadline=None)
def test_fewest_hop_path_is_the_router_route_on_zero_weights(seed, anycast, masked):
    """Links outside ``blocked`` weigh 0, links in it weigh more: the search
    finds the router's route exactly when that route weighs 0."""
    rng = np.random.default_rng(seed)
    g = shuffled_edge_ids(erdos_renyi(int(rng.integers(4, 10)), 0.5, seed=seed), rng)
    allowed = None
    if masked:
        keep = rng.random(g.m) < 0.7
        allowed = [bool(keep[min(e.id, e.twin)]) for e in g.edges]
    blocked = {e for e in range(g.m) if rng.random() < 0.3}
    w = [int(rng.integers(1, 41)) / 8 if e in blocked else 0.0 for e in range(g.m)]
    s, *targets = (int(v) for v in rng.choice(g.n, size=3 if anycast else 2, replace=False))
    got = fewest_hop_path(g, s, targets, allowed, blocked)
    try:
        if anycast:
            want = anycast_route(g, w, s, targets, allowed)
        else:
            want = min_weight_path(g, w, s, targets[0], allowed)
    except UnreachableError:
        want = None
    if want is None or route_weight(g, w, want) > 0:
        assert got is None
    else:
        assert got == want
        validate_route(g, got)
        assert_path_tree(g, got)


# ---------------------------------------------------------------------------
# validators

def test_validate_rejects_broken_path():
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2)])
    e01, e12 = edge_between(g, 0, 1), edge_between(g, 1, 2)
    with pytest.raises(RoutingError):  # edge 1->2 hung under node 0
        validate_route(g, Route(0, (e12,), {0: (e12,)}, frozenset({2})))
    with pytest.raises(RoutingError):  # no edge
        validate_route(g, Route(0, (), {}, frozenset({0})))
    with pytest.raises(AssertionError):  # edges out of path order
        assert_path_tree(g, Route(0, (e12, e01), {0: (e01,), 1: (e12,)}, frozenset({2})))
    assert_path_tree(g, Route(0, (e01, e12), {0: (e01,), 1: (e12,)}, frozenset({2})))


def test_validate_rejects_bad_tree():
    g = build_graph(3, [EdgeSpec(0, 1), EdgeSpec(1, 2)])
    e01 = edge_between(g, 0, 1)
    e10 = edge_between(g, 1, 0)
    with pytest.raises(RoutingError):  # edge oriented toward the root
        validate_route(g, Route(0, (e10,), {0: (e10,)}, frozenset({1})))
    with pytest.raises(RoutingError):  # terminal not covered
        validate_route(g, Route(0, (e01,), {0: (e01,)}, frozenset({2})))


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_tree_outputs_always_validate(seed):
    rng = np.random.default_rng(seed)
    g, w = _random_graph(rng, p=0.5)
    validate_route(g, min_weight_spanning_tree(g, w, root=int(rng.integers(g.n))))
