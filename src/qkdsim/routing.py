"""Minimum-weight route computation for paths and trees.

Paths are computed on the directed graph with per-edge weights.  Trees
(broadcast/multicast) treat the graph as undirected: a link's weight is the
sum of both directions' weights, the tree is chosen on those pair weights
and then oriented away from the root.  Keeping tree selection symmetric is
what preserves the metric-closure 2-approximation bound for Steiner trees.

All tie-breaking is deterministic: paths prefer lower total weight (weights
within a relative 1e-12 count as equal, so rounding cannot split a tie), then
fewer hops, then the lexicographically smallest node sequence; tree edges
tie-break on edge id.  Identical inputs always yield identical routes.

``fewest_hop_path`` is a breadth-first search that takes no weights: over
the links left after a blocked set, it returns the route the path routers
return when those links weigh 0 and the blocked ones more.  Callers use it
first and weigh the graph only when it finds no path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence, Union

from .topology import NetworkGraph, _UnionFind

__all__ = [
    "RoutingError",
    "UnreachableError",
    "PathRoute",
    "TreeRoute",
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
class PathRoute:
    """A node chain and its edge ids, also read as a one-branch tree: each
    node but the last has its path edge as its one child, and the last node
    is the one terminal."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    root: int = field(init=False, compare=False, repr=False)
    children: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)
    terminals: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "root", self.nodes[0])
        object.__setattr__(self, "children", {u: (e,) for u, e in zip(self.nodes, self.edges)})
        object.__setattr__(self, "terminals", frozenset(self.nodes[-1:]))


@dataclass
class TreeRoute:
    """Rooted tree: ``children`` maps a node to its outgoing tree edge ids."""

    root: int
    edges: tuple[int, ...]
    children: dict[int, tuple[int, ...]]
    terminals: frozenset[int]


Route = Union[PathRoute, TreeRoute]


# Path weights within this relative distance count as equal, so that a tie
# stays a tie after the weights are rescaled and the sums round differently.
_TIE_RTOL = 1e-12


def _dijkstra_labels(
    g: NetworkGraph,
    w: Sequence[float],
    s: int,
    allowed: Sequence[bool] | None = None,
    target: int | None = None,
) -> dict[int, tuple[float, int, tuple[int, ...]]]:
    """Labels (weight, hops, node sequence), lexicographic preference.

    Dijkstra first settles the minimum weight of every node (up to
    ``target``, and any node tied with it).  An edge is tight when it lies
    on a minimum-weight path up to ``_TIE_RTOL``; a breadth-first pass over
    tight edges, expanding each layer in order of its best node sequence,
    then picks the fewest hops and the smallest node sequence.
    """
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

    labels = {s: (0.0, 0, (s,))}
    layer = [s]
    h = 0
    while layer:
        h += 1
        found: list[tuple[int, int]] = []
        for rank, u in enumerate(layer):
            du = dist[u]
            for eid in out[u]:
                if allowed is not None and not allowed[eid]:
                    continue
                v = edges[eid].v
                dv = dist.get(v)
                if dv is None or v in labels or du + w[eid] > dv + _TIE_RTOL * dv:
                    continue
                labels[v] = (dv, h, labels[u][2] + (v,))
                if v == target:
                    return labels
                found.append((rank, v))
        found.sort()
        layer = [v for _, v in found]
    return labels


def fewest_hop_path(
    g: NetworkGraph,
    s: int,
    targets: Iterable[int],
    allowed: Sequence[bool] | None = None,
    blocked: Collection[int] = (),
) -> PathRoute | None:
    """Fewest-hop path from ``s`` to the nearest target over the links that
    ``allowed`` admits and ``blocked`` does not hold; None when no target is
    reachable that way.

    The search goes layer by layer.  Each layer is ordered by (parent's
    rank, node id), and each node's out-edges are scanned in edge-id order.
    The first parent that reaches a target finishes its out-edges, and the
    smallest target id among those it reached wins.  Among the fewest-hop
    paths this is the smallest node sequence, since a layer in that order
    is sorted by node sequence.

    It is the route ``min_weight_path`` (one target) and ``anycast_route``
    return whenever the links outside ``blocked`` weigh exactly 0 and some
    target is reachable over them.  Weights are never negative, so the
    minimum weight is then 0, and under ``_TIE_RTOL`` only an exact 0 ties
    with it: the winner is the fewest-hop, smallest-sequence path among the
    zero-weight ones.  In ``_dijkstra_labels`` an edge into a node at
    distance 0 is tight only when it leaves another such node and weighs 0,
    so on those nodes the tight-edge pass is this search, in this order.
    """
    targets = set(targets)
    edges, out = g.edges, g.out_edges
    via = {s: -1}  # node -> the edge it was reached by
    layer = [s]
    while layer:
        nxt: list[int] = []
        for u in layer:
            new = []
            hit = -1
            for eid in out[u]:
                if (allowed is not None and not allowed[eid]) or eid in blocked:
                    continue
                v = edges[eid].v
                if v not in via:
                    via[v] = eid
                    new.append(v)
                    if v in targets and (hit < 0 or v < hit):
                        hit = v
            if hit >= 0:
                path = [via[hit]]
                while edges[path[-1]].u != s:
                    path.append(via[edges[path[-1]].u])
                path.reverse()
                return PathRoute(nodes=(s, *(edges[e].v for e in path)), edges=tuple(path))
            new.sort()
            nxt += new
        layer = nxt
    return None


def _edges_of_node_path(g: NetworkGraph, nodes: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for u, v in zip(nodes, nodes[1:]):
        eid = g.edge_between(u, v)
        assert eid is not None
        out.append(eid)
    return tuple(out)


def min_weight_path(
    g: NetworkGraph,
    w: Sequence[float],
    s: int,
    t: int,
    allowed: Sequence[bool] | None = None,
) -> PathRoute:
    """Cheapest s-t path; ties go to fewer hops, then smallest node sequence."""
    if s == t:
        raise RoutingError(f"degenerate route request: source equals destination ({s})")
    labels = _dijkstra_labels(g, w, s, allowed, target=t)
    if t not in labels:
        raise UnreachableError(f"node {t} unreachable from {s}")
    _, _, nodes = labels[t]
    return PathRoute(nodes=nodes, edges=_edges_of_node_path(g, nodes))


def anycast_route(
    g: NetworkGraph,
    w: Sequence[float],
    s: int,
    candidates: Iterable[int],
    allowed: Sequence[bool] | None = None,
) -> PathRoute:
    """Cheapest path to any one of the candidate destinations."""
    cands = sorted(set(candidates) - {s})
    if not cands:
        raise RoutingError("anycast needs at least one candidate destination")
    labels = _dijkstra_labels(g, w, s, allowed)
    reached = [labels[t] for t in cands if t in labels]
    if not reached:
        raise UnreachableError(f"no anycast candidate reachable from {s}")
    d_min = min(lab[0] for lab in reached)
    _, nodes = min(
        (lab[1], lab[2])
        for lab in reached
        if lab[0] <= d_min + _TIE_RTOL * d_min
    )
    return PathRoute(nodes=nodes, edges=_edges_of_node_path(g, nodes))


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
) -> TreeRoute:
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
    return TreeRoute(
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
) -> TreeRoute:
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
) -> TreeRoute:
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
    label_maps = {}
    for a in terms:
        label_maps[a] = _dijkstra_labels(g, ws, a, allowed)
    for t in required:
        if t not in label_maps[root]:
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
                if b in in_tree or b not in label_maps[a]:
                    continue
                cand = (label_maps[a][b][0], a, b)
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise UnreachableError("terminals not mutually reachable")
        _, a, b = best
        in_tree.add(b)
        closure_links.append((a, b))

    pair_links: dict[int, tuple[int, int, int, int]] = {}
    for a, b in closure_links:
        nodes = label_maps[a][b][2]
        for u, v in zip(nodes, nodes[1:]):
            fwd = g.edge_between(u, v)
            rev = g.edges[fwd].twin
            pair = g.edges[fwd].pair
            if pair not in pair_links:
                uu, vv = (u, v) if fwd < rev else (v, u)
                ff = min(fwd, rev)
                pair_links[pair] = (uu, vv, ff, max(fwd, rev))

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
