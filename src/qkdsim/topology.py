"""Network model: nodes joined by capacity/key-rate edges.

Edges are stored directed; an undirected input link becomes two mirrored
directed edges (a "pair") so that routing stays directional.  Each direction
has its own independent key counts and bank: pad material of a pairwise secret is
partitioned per direction, so the endpoints never reuse key bits.  Edge ids
are list positions and stay stable for the lifetime of a graph, which keeps
seeded runs reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

__all__ = [
    "TopologyError",
    "EdgeSpec",
    "Edge",
    "NetworkGraph",
    "build_graph",
    "erdos_renyi",
    "capacitated_transform",
]


class TopologyError(ValueError):
    """Raised for invalid graph construction input."""


@dataclass(frozen=True)
class EdgeSpec:
    """One input link: endpoints, classical capacity, key-generation rate."""

    u: int
    v: int
    gamma: int = 1
    eta: float = 1.0
    has_qkd: bool = True
    directed: bool = False


@dataclass(slots=True)
class Edge:
    """A stored directed edge.  ``twin`` is the mirrored direction, if any.

    Read-only by convention: nothing writes an edge after ``build_graph``.
    Not frozen, because a graph stores thousands of edges and a frozen
    dataclass takes about four times as long to build."""

    id: int
    u: int
    v: int
    gamma: int
    eta: float
    has_qkd: bool
    twin: int | None
    pair: int


class NetworkGraph:
    """Validated directed multigraph with an adjacency index.

    Immutable after construction; safe to share across concurrent runs.
    """

    def __init__(self, n: int, edges: list[Edge]):
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(edges)
        out: list[list[int]] = [[] for _ in range(n)]
        for e in self.edges:
            out[e.u].append(e.id)
        self.out_edges: tuple[tuple[int, ...], ...] = tuple(tuple(o) for o in out)
        # which links generate keys; None when all do, which is what the
        # routers' ``allowed=None`` means
        mask = tuple(e.has_qkd for e in self.edges)
        self.key_mask: tuple[bool, ...] | None = None if all(mask) else mask

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def is_bidirectional(self) -> bool:
        """True when every stored edge has a mirrored twin."""
        return all(e.twin is not None for e in self.edges)

    def qkd_edge_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.edges if e.has_qkd)

    def pairs(self) -> list[tuple[int, int | None]]:
        """One (edge_id, twin_id) entry per undirected pair / lone edge."""
        seen: set[int] = set()
        out: list[tuple[int, int | None]] = []
        for e in self.edges:
            if e.pair in seen:
                continue
            seen.add(e.pair)
            out.append((e.id, e.twin))
        return out

    def reachable(self, s: int, allowed: Sequence[bool] | None = None) -> set[int]:
        """Nodes reachable from ``s`` over the edges ``allowed`` admits (all when None)."""
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for eid in self.out_edges[u]:
                if allowed is not None and not allowed[eid]:
                    continue
                v = self.edges[eid].v
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def connected(self, allowed: Sequence[bool] | None = None) -> bool:
        """Connectivity over mirrored pairs (treated as undirected links)."""
        return len(self.reachable(0, allowed)) == self.n


class _UnionFind:
    """Disjoint node sets with path halving; ``union`` says whether it merged."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def build_graph(n: int, specs: list[EdgeSpec] | tuple[EdgeSpec, ...]) -> NetworkGraph:
    """Validate edge specs and build the directed internal representation.

    Each error names the spec as ``edges[i]``, its position in ``specs``.
    """
    if n < 1:
        raise TopologyError(f"nodes: must be >= 1, got {n}")
    edges: list[Edge] = []
    seen: set[int] = set()
    for i, spec in enumerate(specs):
        u, v, gamma, eta, has_qkd = spec.u, spec.v, spec.gamma, spec.eta, spec.has_qkd
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"edges[{i}]: edge ({u},{v}) endpoint out of range for n={n}")
        if u == v:
            raise TopologyError(f"edges[{i}]: self-loop at node {u} is forbidden")
        if gamma < 1:
            raise TopologyError(f"edges[{i}]: edge ({u},{v}): gamma must be >= 1, got {gamma}")
        # a link sends whole packets; the exact-int test spares most links the slower ABC check
        if type(gamma) is not int and not isinstance(gamma, Integral):
            raise TopologyError(f"edges[{i}]: edge ({u},{v}): gamma must be a whole number, got {gamma}")
        # an infinite rate's Poisson CDF is NaN, which no uniform reaches: the link would draw no keys
        if has_qkd and not 0 < eta < math.inf:
            raise TopologyError(f"edges[{i}]: edge ({u},{v}): eta must be finite and > 0 on QKD edges, got {eta}")
        # directed edge (a, b) is seen as a * n + b
        if u * n + v in seen:
            raise TopologyError(f"edges[{i}]: duplicate edge {(u, v)}")
        seen.add(u * n + v)
        if not spec.directed:
            if v * n + u in seen:
                raise TopologyError(f"edges[{i}]: duplicate edge {(v, u)}")
            seen.add(v * n + u)
        # a spec's edges share its position as their pair id
        eid = len(edges)
        if spec.directed:
            edges.append(Edge(eid, u, v, gamma, eta, has_qkd, None, i))
        else:
            edges.append(Edge(eid, u, v, gamma, eta, has_qkd, eid + 1, i))
            edges.append(Edge(eid + 1, v, u, gamma, eta, has_qkd, eid, i))
    return NetworkGraph(n, edges)


def erdos_renyi(
    n: int,
    p: float,
    gamma: int = 1,
    eta_range: tuple[float, float] = (0.2, 1.0),
    seed: int = 0,
    qkd_fraction: float = 1.0,
) -> NetworkGraph:
    """Random undirected topology: each node pair linked with probability p.

    Key rates are drawn uniformly from ``eta_range``.  Below a
    ``qkd_fraction`` of 1, only some links generate keys: a random spanning
    forest keeps them, so key-encrypted traffic stays routable wherever the
    graph is connected, and random extra links are added up to that
    fraction of all links.  Fixed seeds give byte-identical edge lists.
    """
    if not 0 < p <= 1:
        raise TopologyError(f"p: must be in (0, 1], got {p}")
    if gamma < 1:
        raise TopologyError(f"gamma: must be >= 1, got {gamma}")
    if not isinstance(gamma, Integral):
        raise TopologyError(f"gamma: must be a whole number, got {gamma}")
    if len(eta_range) != 2:
        raise TopologyError(f"eta_range: expected [low, high], got {list(eta_range)}")
    lo, hi = eta_range
    if not 0 < lo <= hi:
        raise TopologyError(f"eta_range: need 0 < low <= high, got {list(eta_range)}")
    if not hi < math.inf:
        raise TopologyError(f"eta_range: the bounds must be finite, got {list(eta_range)}")
    if not 0 <= qkd_fraction <= 1:
        raise TopologyError(f"qkd_fraction: must be in [0, 1], got {qkd_fraction}")
    # One double per node pair, in pair order, says whether it is linked; a
    # linked pair's key rate takes the next double.  The stream is local to
    # this call, so drawing the most it can use at once changes no draw.
    # Node i's pairs read at most two doubles each, and only those become
    # Python floats at a time, so the walk's temporaries stay small.
    draws = np.random.default_rng(seed).random(n * (n - 1))
    lo, span = float(lo), float(hi) - float(lo)
    links = []
    k = 0
    for i in range(n):
        row = draws[k:k + 2 * (n - 1 - i)].tolist()
        r = 0
        for j in range(i + 1, n):
            if row[r] < p:
                links.append((i, j, lo + span * row[r + 1]))
                r += 2
            else:
                r += 1
        k += r
    keyed = range(len(links))
    if qkd_fraction < 1.0:
        order = list(np.random.default_rng(seed + 1).permutation(len(links)))
        forest = _UnionFind(n)
        keyed = {i for i in order if forest.union(links[i][0], links[i][1])}
        target = max(len(keyed), int(round(qkd_fraction * len(links))))
        for i in order:
            if len(keyed) >= target:
                break
            keyed.add(i)
    return build_graph(n, [EdgeSpec(u, v, gamma, eta, i in keyed) for i, (u, v, eta) in enumerate(links)])


def capacitated_transform(g: NetworkGraph) -> list[float]:
    """Per-edge effective capacity: min(gamma, eta) where keys constrain.

    Edges without a key generator carry no key constraint, so their
    effective capacity is the classical capacity alone.
    """
    return [min(float(e.gamma), e.eta) if e.has_qkd else float(e.gamma) for e in g.edges]
