"""Minimum-weight route computation for paths and trees.

Every route is one ``Route``, a tree rooted at the source; a path is a
tree of one branch.

Paths are computed on the directed graph with per-edge weights.  Trees
(broadcast/multicast) treat the graph as undirected: a link's weight is the
sum of both directions' weights, the tree is chosen on those pair weights
and then oriented away from the root.  Keeping tree selection symmetric is
what preserves the metric-closure 2-approximation bound for Steiner trees.

All tie-breaking is deterministic: paths prefer lower total weight (weights
within a relative 1e-12 count as equal, so rounding cannot split a tie), then
fewer hops, then the lexicographically smallest node sequence; tree edges
tie-break on edge id.  Identical inputs always yield identical routes.

Every path comes from one walk, ``_walk``: a layered breadth-first search
that applies the hop and node-sequence rules.  Weighed, it follows only the
tight links of one Dijkstra pass (``_distances``); that is
``min_weight_path``, ``anycast_route`` and each Steiner expansion.
Unweighed, over the links outside a blocked set, it is ``fewest_hop_path``,
the route the weighed walk takes when those links weigh 0.  Callers try it
first and weigh the graph only when it finds no path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .topology import NetworkGraph, _UnionFind

__all__ = [
    "RoutingError",
    "UnreachableError",
    "Route",
    "min_weight_path",
    "fewest_hop_path",
    "min_weight_spanning_tree",
    "steiner_tree_approx",
    "anycast_route",
]


class RoutingError(ValueError):
    pass


class UnreachableError(RoutingError):
    pass


@dataclass(frozen=True)
class Route:
    """A route rooted at ``root``: ``children`` maps a node to its outgoing
    route edge ids, and a packet is delivered at each of ``terminals``.

    A path is a tree of one branch: its ``edges`` are in path order, each
    node but the last has its path edge as its one child, and the last node
    is the one terminal.  A tree's ``edges`` are sorted by id.
    """

    root: int
    edges: tuple[int, ...]
    children: dict[int, tuple[int, ...]]
    terminals: frozenset[int]


# Path weights within this relative distance count as equal, so that a tie
# stays a tie after the weights are rescaled and the sums round differently.
_TIE_RTOL = 1e-12


def _distances(
    g: NetworkGraph,
    w: Sequence[float],
    s: int,
    allowed: Sequence[bool] | None = None,
    target: int | None = None,
) -> dict[int, float]:
    """Minimum weight from ``s`` to each node it reaches (Dijkstra); with a
    ``target``, only the nodes settled up to it and any tied with it."""
    edges = g.edges
    out = g.out_edges
    dist: dict[int, float] = {}
    best = {s: 0.0}
    heap: list[tuple[float, int]] = [(0.0, s)]
    stop = None
    while heap:
        d, u = heapq.heappop(heap)
        if stop is not None and d > stop:
            break
        if u in dist:
            continue
        dist[u] = d
        if u == target:
            stop = d + _TIE_RTOL * d
        for eid in out[u]:
            if allowed is not None and not allowed[eid]:
                continue
            v = edges[eid].v
            dv = d + w[eid]
            if stop is not None and dv > stop:
                continue
            if v not in dist and dv < best.get(v, float("inf")):
                best[v] = dv
                heapq.heappush(heap, (dv, v))
    return dist


def _walk(
    g: NetworkGraph,
    s: int,
    targets: Collection[int],
    allowed: Sequence[bool] | None = None,
    blocked: Collection[int] = (),
    dist: dict[int, float] | None = None,
    w: Sequence[float] = (),
) -> Route | None:
    """The fewest-hop, smallest-node-sequence path from ``s`` to a target,
    or None when no target is reached.

    Links that ``allowed`` refuses or ``blocked`` holds are skipped.  Given
    ``dist`` (from ``_distances`` on weights ``w``), only tight links are
    walked, those on a minimum-weight path up to ``_TIE_RTOL``, so the path
    is the fewest-hop, smallest-sequence one among the minimum-weight paths.
    The walk goes layer by layer; a layer is ordered by (parent's rank, node
    id), which sorts it by node sequence, and each node's out-edges are
    scanned in edge-id order.  The first parent that reaches a target
    finishes its out-edges, and the smallest target id among those it
    reached wins.
    """
    edges, out = g.edges, g.out_edges
    via = {s: -1}  # node -> the edge it was reached by
    layer = [s]
    while layer:
        nxt: list[int] = []
        for u in layer:
            if dist is not None:
                du = dist[u]
            new = []
            hit = -1
            for eid in out[u]:
                if (allowed is not None and not allowed[eid]) or eid in blocked:
                    continue
                v = edges[eid].v
                if v in via:
                    continue
                if dist is not None:
                    dv = dist.get(v)
                    if dv is None or du + w[eid] > dv + _TIE_RTOL * dv:
                        continue
                via[v] = eid
                new.append(v)
                if v in targets and (hit < 0 or v < hit):
                    hit = v
            if hit >= 0:
                path = [via[hit]]
                while edges[path[-1]].u != s:
                    path.append(via[edges[path[-1]].u])
                path.reverse()
                return Route(s, tuple(path), {edges[e].u: (e,) for e in path}, frozenset((hit,)))
            new.sort()
            nxt += new
        layer = nxt
    return None


def fewest_hop_path(
    g: NetworkGraph,
    s: int,
    targets: Iterable[int],
    allowed: Sequence[bool] | None = None,
    blocked: Collection[int] = (),
) -> Route | None:
    """Fewest-hop path from ``s`` to the nearest target over the links that
    ``allowed`` admits and ``blocked`` does not hold, ties to the smallest
    node sequence; None when no target is reachable that way.

    It is the walk ``min_weight_path`` and ``anycast_route`` make, with
    nothing weighed, and so their route whenever the links outside
    ``blocked`` weigh exactly 0 and some target is reachable over them.
    Weights are never negative, so the nearest targets then lie at
    distance 0, and under ``_TIE_RTOL`` only an exact 0 ties with 0.  A
    link between two nodes at distance 0 is tight exactly when it weighs
    0, and no tight link leads back to distance 0 from a node beyond it;
    so on the nodes this search reaches, the weighed walk takes the same
    links in the same order.
    """
    return _walk(g, s, set(targets), allowed, blocked)


def min_weight_path(
    g: NetworkGraph,
    w: Sequence[float],
    s: int,
    t: int,
    allowed: Sequence[bool] | None = None,
) -> Route:
    """Cheapest s-t path; ties go to fewer hops, then smallest node sequence."""
    if s == t:
        raise RoutingError(f"degenerate route request: source equals destination ({s})")
    route = _walk(g, s, (t,), allowed, dist=_distances(g, w, s, allowed, target=t), w=w)
    if route is None:
        raise UnreachableError(f"node {t} unreachable from {s}")
    return route


def anycast_route(
    g: NetworkGraph,
    w: Sequence[float],
    s: int,
    candidates: Iterable[int],
    allowed: Sequence[bool] | None = None,
) -> Route:
    """Cheapest path to any one of the candidate destinations."""
    cands = set(candidates) - {s}
    if not cands:
        raise RoutingError("anycast needs at least one candidate destination")
    dist = _distances(g, w, s, allowed)
    reached = {t: dist[t] for t in cands if t in dist}
    if not reached:
        raise UnreachableError(f"no anycast candidate reachable from {s}")
    d_min = min(reached.values())
    nearest = {t for t, d in reached.items() if d <= d_min + _TIE_RTOL * d_min}
    route = _walk(g, s, nearest, allowed, dist=dist, w=w)
    assert route is not None  # a minimum-weight path's links are all tight
    return route


# ---------------------------------------------------------------------------
# trees

def _undirected_pairs(
    g: NetworkGraph, w: Sequence[float], allowed: Sequence[bool] | None
) -> list[tuple[float, int, int, int, int, int]]:
    """(pair weight, pair id, u, v, fwd edge, rev edge) per usable link."""
    pairs = []
    for fwd, twin in g.pairs():
        if twin is None:
            raise RoutingError("tree routing needs a bidirectional graph")
        if allowed is not None and not (allowed[fwd] and allowed[twin]):
            continue
        e = g.edges[fwd]
        pairs.append((w[fwd] + w[twin], e.pair, e.u, e.v, fwd, twin))
    return pairs


def _orient_tree(
    g: NetworkGraph,
    root: int,
    links: list[tuple[int, int, int, int]],
    terminals: frozenset[int],
) -> Route:
    """Orient undirected links (u, v, fwd, rev) away from root."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, fwd, rev in links:
        adj.setdefault(u, []).append((v, fwd))
        adj.setdefault(v, []).append((u, rev))
    children: dict[int, list[int]] = {}
    edges: list[int] = []
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v, eid in sorted(adj.get(u, []), key=lambda item: item[1]):
            if v in seen:
                continue
            seen.add(v)
            children.setdefault(u, []).append(eid)
            edges.append(eid)
            queue.append(v)
    if len(edges) != len(links):
        raise RoutingError("tree links do not form a connected tree around the root")
    return Route(
        root=root,
        edges=tuple(sorted(edges)),
        children={u: tuple(kids) for u, kids in children.items()},
        terminals=terminals,
    )


def min_weight_spanning_tree(
    g: NetworkGraph,
    w: Sequence[float],
    root: int,
    allowed: Sequence[bool] | None = None,
) -> Route:
    """Minimum-weight spanning tree oriented away from root (Kruskal)."""
    pairs = sorted(_undirected_pairs(g, w, allowed), key=lambda p: (p[0], p[1]))
    uf = _UnionFind(g.n)
    links = []
    for _, _, u, v, fwd, rev in pairs:
        if uf.union(u, v):
            links.append((u, v, fwd, rev))
    if len(links) != g.n - 1:
        raise UnreachableError("graph is disconnected; no spanning tree exists")
    terminals = frozenset(range(g.n)) - {root}
    return _orient_tree(g, root, links, terminals)


def steiner_tree_approx(
    g: NetworkGraph,
    w: Sequence[float],
    root: int,
    terminals: Iterable[int],
    allowed: Sequence[bool] | None = None,
) -> Route:
    """Steiner tree via metric-closure MST; weight <= 2x the optimum.

    Shortest paths between required nodes are computed on the symmetrized
    weights, a spanning tree of the closure is expanded back to graph
    links, cycles are broken and non-terminal leaves pruned.
    """
    required = sorted(set(terminals) - {root})
    if not required:
        raise RoutingError("multicast needs at least one terminal besides the root")
    terms = [root] + required
    if not g.is_bidirectional:
        raise RoutingError("tree routing needs a bidirectional graph")
    ws = [w[e.id] + w[e.twin] for e in g.edges]
    dists = {a: _distances(g, ws, a, allowed) for a in terms}
    for t in required:
        if t not in dists[root]:
            raise UnreachableError(f"terminal {t} unreachable from root {root}")

    # MST of the closure over the required nodes (Prim, deterministic ties).
    in_tree = {terms[0]}
    closure_links: list[tuple[int, int]] = []
    while len(in_tree) < len(terms):
        best = None
        for a in terms:
            if a not in in_tree:
                continue
            for b in terms:
                if b in in_tree or b not in dists[a]:
                    continue
                cand = (dists[a][b], a, b)
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise UnreachableError("terminals not mutually reachable")
        _, a, b = best
        in_tree.add(b)
        closure_links.append((a, b))

    pair_links: dict[int, tuple[int, int, int, int]] = {}
    for a, b in closure_links:
        for eid in _walk(g, a, (b,), allowed, dist=dists[a], w=ws).edges:
            e = g.edges[eid]
            if e.pair not in pair_links:
                fwd, rev = sorted((eid, e.twin))
                pair_links[e.pair] = (g.edges[fwd].u, g.edges[fwd].v, fwd, rev)

    # The union of expansion paths may contain cycles: keep a spanning
    # forest of the touched nodes (cheapest links first), then prune
    # branches that do not end in a required node.
    cand = sorted(
        pair_links.items(), key=lambda kv: (w[kv[1][2]] + w[kv[1][3]], kv[0])
    )
    uf = _UnionFind(g.n)
    links = [link for _, link in cand if uf.union(link[0], link[1])]

    needed = set(terms)
    while True:
        degree: dict[int, int] = {}
        for u, v, _, _ in links:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        removable = [
            link
            for link in links
            if (degree[link[0]] == 1 and link[0] not in needed)
            or (degree[link[1]] == 1 and link[1] not in needed)
        ]
        if not removable:
            break
        links = [link for link in links if link not in removable]

    return _orient_tree(g, root, links, frozenset(required))
