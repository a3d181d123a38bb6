"""Independent brute-force oracles used by the tests.

Everything here is written against the problem statement, not against the
library internals: path enumeration by DFS, tree enumeration by edge-subset
scan, Steiner optimum by node-subset scan, max-flow by exhaustive
fractional path-flow search on a fixed grid.  Keep it that way; these are
the second route for every dual-checked computation.  The one exception
is ``virtual_queue_trace``, which reads engine internals to record the
rows that the scalar replays of the virtual queues check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
from typing import Sequence
from unittest import mock

import numpy as np

from qkdsim.engine import _Engine
from qkdsim.keying import KeySpec, bb84_round
from qkdsim.routing import Route, RoutingError
from qkdsim.topology import EdgeSpec, build_graph


def edge_between(g, u: int, v: int) -> int | None:
    """The id of the edge from ``u`` to ``v``, or None."""
    for eid in g.out_edges[u]:
        if g.edges[eid].v == v:
            return eid
    return None


def specs(g) -> tuple[EdgeSpec, ...]:
    """The input links of ``g``, one per pair or one-way edge, rebuilt from
    the pair's first edge."""
    return tuple(
        EdgeSpec(e.u, e.v, e.gamma, e.eta, e.has_qkd, directed=e.twin is None)
        for e in (g.edges[eid] for eid, _ in g.pairs())
    )


def route_nodes(g, route: Route) -> tuple[int, ...]:
    """A path's node sequence, read by walking ``children`` from the root."""
    nodes = [route.root]
    while nodes[-1] in route.children and len(nodes) <= len(route.edges):
        (eid,) = route.children[nodes[-1]]
        nodes.append(g.edges[eid].v)
    return tuple(nodes)


def simple_paths(g, s: int, t: int) -> list[tuple[int, ...]]:
    """All simple s-t node sequences, via DFS over the directed edges."""
    out: list[tuple[int, ...]] = []
    stack = [(s, (s,))]
    while stack:
        u, path = stack.pop()
        if u == t:
            out.append(path)
            continue
        for eid in g.out_edges[u]:
            v = g.edges[eid].v
            if v not in path:
                stack.append((v, path + (v,)))
    return out


def best_path_label(g, w: Sequence[float], s: int, t: int):
    """Minimal (weight, hops, node sequence) over all simple s-t paths."""
    best = None
    for nodes in simple_paths(g, s, t):
        weight = sum(w[edge_between(g, u, v)] for u, v in zip(nodes, nodes[1:]))
        label = (weight, len(nodes) - 1, nodes)
        if best is None or label < best:
            best = label
    return best


def _pair_list(g):
    """(pair id, u, v, weight callable input ids) for every undirected link."""
    pairs = []
    for fwd, twin in g.pairs():
        assert twin is not None
        e = g.edges[fwd]
        pairs.append((e.pair, e.u, e.v, fwd, twin))
    return pairs


def _is_spanning_tree(n: int, links: list[tuple[int, int]]) -> bool:
    if len(links) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in links:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def min_spanning_tree_weight(g, w: Sequence[float]) -> float:
    """Minimum total pair weight over all spanning trees, by enumeration."""
    pairs = _pair_list(g)
    best = None
    for subset in itertools.combinations(pairs, g.n - 1):
        if not _is_spanning_tree(g.n, [(p[1], p[2]) for p in subset]):
            continue
        weight = sum(w[p[3]] + w[p[4]] for p in subset)
        if best is None or weight < best:
            best = weight
    assert best is not None, "graph is disconnected"
    return best


def steiner_optimum_weight(g, w: Sequence[float], root: int, terminals: set[int]) -> float:
    """Exact Steiner minimum: scan node supersets, spanning-tree each one."""
    required = set(terminals) | {root}
    optional = [v for v in range(g.n) if v not in required]
    pairs = _pair_list(g)
    best = None
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            nodes = required | set(extra)
            links = [p for p in pairs if p[1] in nodes and p[2] in nodes]
            k = len(nodes) - 1
            if len(links) < k:
                continue
            for subset in itertools.combinations(links, k):
                touched = {p[1] for p in subset} | {p[2] for p in subset}
                if touched != nodes:
                    continue
                if not _is_spanning_tree_over(nodes, [(p[1], p[2]) for p in subset]):
                    continue
                weight = sum(w[p[3]] + w[p[4]] for p in subset)
                if best is None or weight < best:
                    best = weight
    assert best is not None, "terminals not connected"
    return best


def _is_spanning_tree_over(nodes: set[int], links: list[tuple[int, int]]) -> bool:
    idx = {v: i for i, v in enumerate(sorted(nodes))}
    return _is_spanning_tree(len(nodes), [(idx[u], idx[v]) for u, v in links])


def path_flow_max(g, omega: Sequence[float], s: int, t: int, resolution: float = 0.01) -> float:
    """Max total s-t flow by exhaustive grid search over simple-path flows.

    Capacities are quantized at ``resolution``; the search walks every
    allocation vector on that grid, with a sound bottleneck-sum bound for
    pruning.
    """
    unit = resolution
    cap = [int(round(c / unit)) for c in omega]
    paths = []
    for nodes in simple_paths(g, s, t):
        paths.append([edge_between(g, u, v) for u, v in zip(nodes, nodes[1:])])
    # wide-bottleneck paths first so the bound bites early
    paths.sort(key=lambda p: -min(cap[e] for e in p))
    best = 0
    residual = cap[:]

    def dfs(i: int, total: int) -> None:
        nonlocal best
        if total > best:
            best = total
        if i == len(paths):
            return
        headroom = sum(min(residual[e] for e in p) for p in paths[i:])
        if total + headroom <= best:
            return
        p = paths[i]
        b = min(residual[e] for e in p)
        for f in range(b, -1, -1):
            for e in p:
                residual[e] -= f
            dfs(i + 1, total + f)
            for e in p:
                residual[e] += f

    dfs(0, 0)
    return best * unit


def route_weight(g, w: Sequence[float], route) -> float:
    """Total weight over the oriented edges a packet on this route crosses."""
    return sum(w[e] for e in route.edges)


def assert_path_tree(g, route: Route) -> None:
    """A path is a tree of one branch: from the root each node has one child
    edge, which leads to the next node, ``edges`` lists them in path order,
    and the last node is the one terminal."""
    validate_route(g, route)
    nodes = route_nodes(g, route)
    assert len(nodes) == len(route.edges) + 1
    assert route.edges == tuple(route.children[u][0] for u in nodes[:-1])
    assert route.terminals == {nodes[-1]}


def shuffled_edge_ids(g, rng):
    """The same links with their edge ids in a random order and orientation,
    so that an out-edge's id says nothing about its head's node id."""
    links = [dataclasses.replace(sp, u=sp.v, v=sp.u) if rng.random() < 0.5 else sp for sp in specs(g)]
    return build_graph(g.n, [links[i] for i in rng.permutation(len(links))])


def assert_tree_shape(g, route, root: int, terminals, allowed) -> None:
    """A broadcast or multicast tree: rooted at ``root``, oriented away from
    it, over links ``allowed`` admits in both directions, reaching exactly
    ``terminals`` (every other node for broadcast) with no spare leaf."""
    validate_route(g, route)
    assert route.root == root
    assert route.terminals == frozenset(terminals) - {root}
    for eid in route.edges:
        e = g.edges[eid]
        assert allowed is None or (allowed[eid] and allowed[e.twin])


def validate_route(g, route: Route) -> None:
    """Structural check of a rooted route, path or tree; raises RoutingError
    on any violation."""
    if not route.edges:
        raise RoutingError("route has no edge")
    if route.root in route.terminals:
        raise RoutingError("route delivers to its own root")
    if len(set(route.edges)) != len(route.edges):
        raise RoutingError("route repeats an edge")
    flat = [eid for kids in route.children.values() for eid in kids]
    if sorted(flat) != sorted(route.edges):
        raise RoutingError("children map inconsistent with edge set")
    seen = {route.root}
    queue = [route.root]
    while queue:
        u = queue.pop()
        for eid in route.children.get(u, ()):
            e = g.edges[eid]
            if e.u != u:
                raise RoutingError(f"edge {eid} not oriented away from {u}")
            if e.v in seen:
                raise RoutingError(f"route revisits node {e.v}")
            seen.add(e.v)
            queue.append(e.v)
    if len(seen) != len(route.edges) + 1:
        raise RoutingError("route edges unreachable from root")
    if not route.terminals <= seen:
        raise RoutingError("route does not reach all terminals")
    # every leaf should serve a terminal, otherwise the route carries waste
    child_nodes = {g.edges[e].v for e in route.edges}
    leaves = {v for v in child_nodes if v not in route.children}
    if not leaves <= route.terminals:
        raise RoutingError("route has a leaf that is not a terminal")


def drift_bound(g, a_max: int, k_max: int) -> float:
    """Constant upper-bound term of the one-step quadratic drift."""
    gamma_max = max(e.gamma for e in g.edges)
    return g.m * (2.0 * a_max**2 + float(k_max) ** 2 + float(gamma_max) ** 2)


def envelope_check(series, bound: float, epsilon: float) -> tuple[bool, float]:
    """Is the running time-average of the series below bound/(2*epsilon)?

    Returns (holds, worst running average).  Used as a sanity envelope on
    the total virtual backlog when the distance to the boundary is known.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    arr = np.asarray(series, dtype=float)
    running = np.cumsum(arr) / np.arange(1, len(arr) + 1)
    worst = float(running.max())
    return worst <= bound / (2 * epsilon), worst


def backpressure_scan(queue_lens, g, kappa, class_ids, edge_order, live):
    """Backpressure's link-by-link scan, one edge and one class at a time.

    ``queue_lens[node][class]`` is the start-of-slot table.  Each link, in
    ``edge_order``, picks the class with the largest positive differential
    on the table (ties to the lower class id) and serves up to
    min(gamma, kappa) of it, clamped by ``live[node][class]``, which is read
    as each activation is produced.  Yields (edge id, class id, count).
    """
    cids = sorted(class_ids)
    for eid in edge_order:
        e = g.edges[eid]
        here, there = queue_lens[e.u], queue_lens[e.v]
        if not any(here):
            continue
        best_c = -1
        best_diff = 0
        for c in cids:
            diff = here[c] - there[c]
            if diff > best_diff:
                best_diff = diff
                best_c = c
        if best_c < 0:
            continue
        n = min(e.gamma, kappa[eid], live[e.u][best_c])
        if n > 0:
            yield eid, best_c, n


def erdos_renyi_links(n: int, p: float, eta_range, seed: int) -> list[tuple[int, int, float]]:
    """The G(n, p) links ``erdos_renyi`` draws, replayed pair by pair with
    two scalar Generator calls: for each pair in order, ``random() < p``
    links it, and a linked pair's key rate is the next ``uniform(lo, hi)``.
    Returns (u, v, eta) per link, u < v, in pair order."""
    rng = np.random.default_rng(seed)
    lo, hi = eta_range
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                links.append((i, j, float(rng.uniform(lo, hi))))
    return links


def edge_key_spec(spec: KeySpec, edge) -> KeySpec | None:
    """The key spec that one edge runs, resolved on its own: None on a
    keyless edge, else the override that names the edge's link in either
    direction (a scan of every override), or ``spec`` when none does."""
    if not edge.has_qkd:
        return None
    for (a, b), sub in spec.overrides:
        if {a, b} == {edge.u, edge.v}:
            return sub
    return spec


def truncated_poisson_pmf(rate: float, cap: int) -> list[float]:
    """P(min(X, cap) = k), k = 0..cap, for X ~ Poisson(rate), term by term."""
    pmf = [math.exp(-rate) * rate**k / math.factorial(k) for k in range(cap)]
    return pmf + [max(0.0, 1.0 - sum(pmf))]


def key_counts_replay(spec: KeySpec, edges, nslots: int, rng, seeds) -> np.ndarray:
    """The first ``nslots`` slots of every edge's key counts, replayed edge by edge.

    Each edge runs ``edge_key_spec``.  The truncated-Poisson edges take
    ``rng``'s uniforms in slot order, then edge order; each counts the
    terms of its own rate's and cap's CDF that its uniform reaches.  Each
    BB84 edge runs one round per slot on its own generator, spawned from
    ``seeds`` in edge order, and keeps at most ``k_max`` keys.
    Deterministic edges count their value, keyless edges 0.
    """
    resolved = [edge_key_spec(spec, e) for e in edges]
    kinds = [None if s is None else s.kind for s in resolved]
    out = np.zeros((nslots, len(edges)), dtype=np.int64)
    poisson = [i for i, k in enumerate(kinds) if k == "truncated_poisson"]
    u = rng.random((nslots, len(poisson)))
    for j, i in enumerate(poisson):
        cdf = np.cumsum(truncated_poisson_pmf(edges[i].eta, resolved[i].k_max)[:-1])
        out[:, i] = [sum(x >= c for c in cdf) for x in u[:, j]]
    bb84 = [i for i, k in enumerate(kinds) if k == "bb84"]
    for i, seed in zip(bb84, seeds.spawn(len(bb84))):
        s, own = resolved[i], np.random.default_rng(seed)
        out[:, i] = [
            min(bb84_round(s.photons, s.eavesdrop_prob, s.check_fraction, own).sifted_keys, s.k_max)
            for _ in range(nslots)
        ]
    for i, k in enumerate(kinds):
        if k == "deterministic":
            out[:, i] = resolved[i].value
    return out


@contextlib.contextmanager
def virtual_queue_trace():
    """Record every slot's virtual-queue row of the one run made in the block.

    Wraps ``_Engine._reserve_and_encrypt``, the key phase that advances
    the virtual queues.  The yielded dict is filled on exit with (horizon,
    m) arrays: ``arrivals`` (each link's virtual arrivals, all classes) and
    ``kappa`` (the keys the x̃ update reads: the bank after the slot's
    deposit with storage, the fresh keys without), both read before the
    call, and ``x_tilde`` and ``y_tilde`` after it.  It stays empty under
    the baselines, which keep no virtual queues.
    """
    rows = {"arrivals": [], "kappa": [], "x_tilde": [], "y_tilde": []}
    reserve = _Engine._reserve_and_encrypt

    def reserve_and_record(eng, fresh, fresh_sum):
        rows["arrivals"].append([eng.a_q.get(e, 0) + eng.a_c.get(e, 0) for e in range(eng.g.m)])
        # fresh is a view of the engine's block buffer; both forms copy it
        rows["kappa"].append(fresh + eng.bank.residual if eng.storage else fresh.astype(np.int64))
        reserve(eng, fresh, fresh_sum)
        rows["x_tilde"].append(list(eng.x_tilde))
        rows["y_tilde"].append(list(eng.y_tilde))

    trace: dict[str, np.ndarray] = {}
    with mock.patch.object(_Engine, "_reserve_and_encrypt", reserve_and_record):
        yield trace
    if rows["kappa"]:
        trace.update(
            (name, np.array(r, dtype=np.float64 if name.endswith("_tilde") else np.int64))
            for name, r in rows.items()
        )
