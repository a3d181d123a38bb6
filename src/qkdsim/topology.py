"""Network model: nodes joined by capacity/key-rate edges.

Edges are stored directed; an undirected input link becomes two mirrored
directed edges (a "pair") so that routing stays directional.  Each direction
carries its own key generator and bank: pad material of a pairwise secret is
partitioned per direction, so the endpoints never reuse key bits.  Edge ids
are list positions and stay stable for the lifetime of a graph, which keeps
seeded runs reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TopologyError",
    "EdgeSpec",
    "Edge",
    "NetworkGraph",
    "build_graph",
    "erdos_renyi",
    "capacitated_transform",
    "graph_from_dict",
    "load_graph_file",
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


@dataclass(frozen=True)
class Edge:
    """A stored directed edge.  ``twin`` is the mirrored direction, if any."""

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

    def __init__(self, n: int, edges: list[Edge], specs: tuple[EdgeSpec, ...]):
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.specs = specs
        out: list[list[int]] = [[] for _ in range(n)]
        index: dict[tuple[int, int], int] = {}
        for e in self.edges:
            out[e.u].append(e.id)
            index[(e.u, e.v)] = e.id
        self.out_edges: tuple[tuple[int, ...], ...] = tuple(tuple(o) for o in out)
        self._index = index

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_between(self, u: int, v: int) -> int | None:
        return self._index.get((u, v))

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

    def connected(self, allowed: set[int] | None = None) -> bool:
        """Connectivity over mirrored pairs (treated as undirected links)."""
        if self.n <= 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            if allowed is not None and e.id not in allowed:
                continue
            adj[e.u].append(e.v)
        stack, seen = [0], {0}
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


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
    """Validate edge specs and build the directed internal representation."""
    if n < 1:
        raise TopologyError(f"node count must be >= 1, got {n}")
    edges: list[Edge] = []
    seen_directed: set[tuple[int, int]] = set()
    pair = 0
    for spec in specs:
        if not (0 <= spec.u < n and 0 <= spec.v < n):
            raise TopologyError(f"edge ({spec.u},{spec.v}) endpoint out of range for n={n}")
        if spec.u == spec.v:
            raise TopologyError(f"self-loop at node {spec.u} is forbidden")
        if spec.gamma < 1:
            raise TopologyError(f"edge ({spec.u},{spec.v}): gamma must be >= 1, got {spec.gamma}")
        if spec.has_qkd and not spec.eta > 0:
            raise TopologyError(f"edge ({spec.u},{spec.v}): eta must be > 0 on QKD edges")
        keys = [(spec.u, spec.v)] if spec.directed else [(spec.u, spec.v), (spec.v, spec.u)]
        for k in keys:
            if k in seen_directed:
                raise TopologyError(f"duplicate edge {k}")
            seen_directed.add(k)
        eid = len(edges)
        if spec.directed:
            edges.append(Edge(eid, spec.u, spec.v, spec.gamma, spec.eta, spec.has_qkd, None, pair))
        else:
            edges.append(Edge(eid, spec.u, spec.v, spec.gamma, spec.eta, spec.has_qkd, eid + 1, pair))
            edges.append(Edge(eid + 1, spec.v, spec.u, spec.gamma, spec.eta, spec.has_qkd, eid, pair))
        pair += 1
    return NetworkGraph(n, edges, tuple(specs))


def erdos_renyi(
    n: int,
    p: float,
    gamma: int = 1,
    eta_range: tuple[float, float] = (0.2, 1.0),
    seed: int = 0,
    has_qkd: bool = True,
) -> NetworkGraph:
    """Random undirected topology: each node pair linked with probability p.

    Key rates are drawn uniformly from ``eta_range``.  Fixed seeds give
    byte-identical edge lists.
    """
    if not 0 < p <= 1:
        raise TopologyError(f"connection probability must be in (0, 1], got {p}")
    lo, hi = eta_range
    if not (0 < lo <= hi):
        raise TopologyError(f"eta_range must be a positive interval, got {eta_range}")
    rng = np.random.default_rng(seed)
    specs: list[EdgeSpec] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                eta = float(rng.uniform(lo, hi))
                specs.append(EdgeSpec(i, j, gamma=gamma, eta=eta, has_qkd=has_qkd))
    return build_graph(n, specs)


def capacitated_transform(g: NetworkGraph) -> list[float]:
    """Per-edge effective capacity: min(gamma, eta) where keys constrain.

    Edges without a key generator carry no key constraint, so their
    effective capacity is the classical capacity alone.
    """
    return [min(float(e.gamma), e.eta) if e.has_qkd else float(e.gamma) for e in g.edges]


def graph_from_dict(doc: dict) -> NetworkGraph:
    try:
        n = int(doc["nodes"])
        raw = doc["edges"]
    except KeyError as exc:
        raise TopologyError(f"graph document missing field {exc.args[0]!r}") from None
    specs = []
    for i, item in enumerate(raw):
        try:
            specs.append(
                EdgeSpec(
                    u=int(item["u"]),
                    v=int(item["v"]),
                    gamma=int(item.get("gamma", 1)),
                    eta=float(item.get("eta", 1.0)),
                    has_qkd=bool(item.get("has_qkd", True)),
                    directed=bool(item.get("directed", False)),
                )
            )
        except KeyError as exc:
            raise TopologyError(f"edges[{i}] missing field {exc.args[0]!r}") from None
    return build_graph(n, specs)


def load_graph_file(path: str | Path) -> NetworkGraph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))
