"""Workload generators: each turns a seed into one qkdsim experiment config.

The benchmark draws topology, classes and rates itself, from its own
random streams, and hands qkdsim nothing but the resulting JSON config
(an inline graph).  Hop distances used by the output checks come from the
benchmark's own BFS on the same generated graph, not from qkdsim.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# The preset unicast-full arrival process (qkdsim config.preset_unicast_full).
PPBP_PRESET = {
    "sources": 2,
    "burst_rate": 1,
    "hurst": 0.8,
    "mean_burst_slots": 5.0,
    "mean_sleep_slots": 25.0,
    "max_packets_per_burst": 5000,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int
    links: int  # undirected links; each becomes two directed edges
    qkd_fraction: float
    policies: tuple[dict, ...]
    horizon: int
    stride: int
    scheduler: str = "fifo"
    # delivered / arrivals that every tandem-* and multilevel-* cell must reach
    min_delivered_share: float = 0.95


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full-unicast",
            why="N=150, 6,716 edges, 15 PPBP unicast classes: per-edge key loop and Dijkstra dominate",
            nodes=150,
            links=3358,
            qkd_fraction=1.0,
            policies=({"mode": "tandem", "key_storage": True}, {"mode": "backpressure"}),
            horizon=50,
            stride=10,
            min_delivered_share=0.9,
        ),
        Workload(
            name="desk-unicast",
            why="N=20, 6 Bernoulli unicast classes at 0.9 of the boundary, 4 policies: per-packet and per-slot work, series and CSV",
            nodes=20,
            links=53,
            qkd_fraction=1.0,
            policies=(
                {"mode": "tandem", "key_storage": True},
                {"mode": "tandem", "key_storage": False},
                {"mode": "backpressure"},
                {"mode": "single_queue"},
            ),
            horizon=5_000,
            stride=1,
        ),
        Workload(
            name="desk-multiclass",
            why="N=16, keys on 70% of links, broadcast/multicast/anycast/unicast, mixed security: tree routing and the ento queue",
            nodes=16,
            links=42,
            qkd_fraction=0.7,
            policies=(
                {"mode": "multilevel", "key_storage": True},
                {"mode": "multilevel", "key_storage": False},
            ),
            horizon=5_000,
            stride=1,
            scheduler="ento",
        ),
    )
}

# full-unicast keeps the preset's 15 PPBP classes, but pins what makes
# per-slot cost swing between seeds.  Over a few hundred slots the volume
# of heavy-tailed ON/OFF traffic varies by tens of percent between
# simulation seeds, so every workload seed replays the same simulation seed
# (the seed still draws graph, key rates and pairs).  With zero weights a
# route to a node two hops away took 2-5 times longer than one to a
# neighbour (0.5-2.4 ms against 2.8-5.2 ms), so the pairs keep the expected
# hop profile of G(150, 0.3): 5 at one hop, 10 at two.
FULL_UNICAST_SIM_SEED = 1
FULL_UNICAST_HOPS = {1: 5, 2: 10}

DESK_UNICAST_SCALE = 0.9
# Offered packet-hops per slot at scale 1 (boundary rate x the classes'
# summed hop distances).  Unconditioned it ranges over 1.5-4.5 between
# seeds, and run time with it; draws outside this band around its median
# are rejected, so every seed asks for about the same work.
DESK_UNICAST_LOAD = (2.4, 2.8)

# desk-multiclass rates.  Quantum rates sum to 0.16, below 0.8 of the
# smallest key rate (0.2) even if every quantum route crossed one edge;
# all rates sum to 0.43 < gamma = 1.  So each load is interior to the
# capacity region whatever routes the policy picks.
MULTICLASS_RATES = {
    ("broadcast", "quantum"): 0.02,
    ("multicast", "quantum"): 0.03,
    ("anycast", "quantum"): 0.05,
    ("unicast", "quantum"): 0.06,
    ("broadcast", "classical"): 0.04,
    ("multicast", "classical"): 0.05,
    ("anycast", "classical"): 0.08,
    ("unicast", "classical"): 0.10,
}
MULTICLASS_PRIORITY = {"broadcast": 0, "multicast": 1, "anycast": 0, "unicast": 1}
ETA_RANGE = (0.2, 1.0)


# ---------------------------------------------------------------------------
# graph helpers (own implementations, independent of qkdsim)

def adjacency(n: int, edges: list[dict], qkd_only: bool = False) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        if qkd_only and not e["has_qkd"]:
            continue
        adj[e["u"]].append(e["v"])
        adj[e["v"]].append(e["u"])
    for row in adj:
        row.sort()
    return adj


def bfs(adj: list[list[int]], s: int) -> list[int]:
    """Hop distance from s to every node; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _connected(adj: list[list[int]]) -> bool:
    return min(bfs(adj, 0)) >= 0


def random_graph(rng: np.random.Generator, w: Workload) -> list[dict]:
    """Connected G(n, M) graph with uniform key rates and a connected key layer.

    The link count is fixed so every seed has the preset's edge count.
    Keys go on a random spanning tree first, then on random extra links up
    to ``qkd_fraction`` of all links (as qkdsim's own ``_strip_qkd`` does).
    """
    n = w.nodes
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        pick = sorted(rng.choice(len(all_pairs), size=w.links, replace=False).tolist())
        links = [all_pairs[k] for k in pick]
        edges = [
            {"u": u, "v": v, "gamma": 1, "eta": float(rng.uniform(*ETA_RANGE)),
             "has_qkd": True, "directed": False}
            for u, v in links
        ]
        if _connected(adjacency(n, edges)):
            break
    if w.qkd_fraction < 1.0:
        order = rng.permutation(len(edges)).tolist()
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        keep: set[int] = set()
        for i in order:
            a, b = find(edges[i]["u"]), find(edges[i]["v"])
            if a != b:
                parent[a] = b
                keep.add(i)
        target = max(len(keep), round(w.qkd_fraction * len(edges)))
        for i in order:
            if len(keep) >= target:
                break
            keep.add(i)
        for i, e in enumerate(edges):
            e["has_qkd"] = i in keep
    return edges


def pairs_by_distance(rng: np.random.Generator, edges: list[dict], n: int,
                      quota: dict[int, int]) -> list[tuple[int, int]]:
    """Distinct random pairs, ``quota[h]`` of them at hop distance h, ordered by h."""
    adj = adjacency(n, edges)
    picked: dict[int, list[tuple[int, int]]] = {h: [] for h in quota}
    while any(len(picked[h]) < k for h, k in quota.items()):
        s, d = (int(x) for x in rng.integers(n, size=2))
        h = bfs(adj, s)[d]
        if s != d and h in picked and len(picked[h]) < quota[h] and (s, d) not in picked[h]:
            picked[h].append((s, d))
    return [pair for h in sorted(quota) for pair in picked[h]]


def distinct_pairs(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        s, d = (int(x) for x in rng.integers(n, size=2))
        if s != d and (s, d) not in pairs:
            pairs.append((s, d))
    return pairs


def min_hop_path(adj: list[list[int]], s: int, t: int) -> list[int]:
    """Fewest-hop path, lexicographically smallest node sequence among ties."""
    dist_t = bfs(adj, t)
    path = [s]
    while path[-1] != t:
        u = path[-1]
        path.append(next(v for v in adj[u] if dist_t[v] == dist_t[u] - 1))
    return path


def uniform_boundary(n: int, edges: list[dict], pairs: list[tuple[int, int]]) -> float:
    """Largest uniform rate the classes can carry on fixed min-hop paths.

    Each class is pinned to its fewest-hop path; a directed edge loaded by
    k classes supports k * rate <= min(gamma, eta).  The boundary is the
    smallest min(gamma, eta) / k over loaded edges.
    """
    adj = adjacency(n, edges)
    cap = {}
    for e in edges:
        c = min(float(e["gamma"]), e["eta"])
        cap[(e["u"], e["v"])] = cap[(e["v"], e["u"])] = c
    load: dict[tuple[int, int], int] = {}
    for s, d in pairs:
        p = min_hop_path(adj, s, d)
        for u, v in zip(p, p[1:]):
            load[(u, v)] = load.get((u, v), 0) + 1
    return min(cap[uv] / k for uv, k in load.items())


# ---------------------------------------------------------------------------
# configs

def _unicast_class(cid: int, s: int, d: int, arrival: dict) -> dict:
    return {"id": cid, "source": s, "kind": "unicast", "destinations": [d],
            "arrival": arrival, "security": "quantum", "priority": 0}


def make_config(name: str, seed: int, horizon: int | None = None) -> dict:
    """The qkdsim config for one workload; the same seed gives the same config."""
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    n = w.nodes
    edges = random_graph(rng, w)
    rate_scales = [1.0]
    sim_seeds = [seed]
    if name == "full-unicast":
        classes = [
            _unicast_class(i, s, d, {"process": "ppbp", **PPBP_PRESET})
            for i, (s, d) in enumerate(pairs_by_distance(rng, edges, n, FULL_UNICAST_HOPS))
        ]
        sim_seeds = [FULL_UNICAST_SIM_SEED]
    elif name == "desk-unicast":
        while True:
            pairs = distinct_pairs(rng, n, 6)
            rate = min(uniform_boundary(n, edges, pairs), 1.0)
            adj = adjacency(n, edges)
            load = rate * sum(bfs(adj, s)[d] for s, d in pairs)
            if DESK_UNICAST_LOAD[0] <= load <= DESK_UNICAST_LOAD[1]:
                break
            edges = random_graph(rng, w)
        classes = [
            _unicast_class(i, s, d, {"process": "bernoulli", "rate": rate})
            for i, (s, d) in enumerate(pairs)
        ]
        rate_scales = [DESK_UNICAST_SCALE]
    else:
        classes = []
        for security in ("quantum", "classical"):
            for kind in ("broadcast", "multicast", "anycast", "unicast"):
                src = int(rng.integers(n))
                others = [v for v in range(n) if v != src]
                if kind == "broadcast":
                    dests = []
                elif kind == "unicast":
                    dests = [int(rng.choice(others))]
                else:
                    dests = sorted(int(v) for v in rng.choice(others, size=3, replace=False))
                classes.append({
                    "id": len(classes), "source": src, "kind": kind, "destinations": dests,
                    "arrival": {"process": "bernoulli", "rate": MULTICLASS_RATES[(kind, security)]},
                    "security": security,
                    "priority": MULTICLASS_PRIORITY[kind] if security == "quantum" else 0,
                })
    return {
        "name": name,
        "graph": {"kind": "inline", "nodes": n, "edges": edges},
        "classes": classes,
        "policies": list(w.policies),
        "keys": {"process": "truncated_poisson", "k_max": 20},
        "scheduler": w.scheduler,
        "horizon": horizon or w.horizon,
        "seeds": sim_seeds,
        "rate_scales": rate_scales,
        "queue_cap": 10_000,
        "metrics": {"series": True, "stride": w.stride, "drift": False},
    }


def hop_bounds(doc: dict) -> dict[int, int]:
    """Per class: fewest hops any copy of its packets must cross to finish.

    Unicast and anycast: hop distance (to the nearest candidate).
    Multicast: largest hop distance to a terminal.  Broadcast: the source's
    eccentricity.  Quantum classes may only use key-equipped links, so
    their distances are taken on that subgraph.
    """
    n = doc["graph"]["nodes"]
    edges = doc["graph"]["edges"]
    adj_all = adjacency(n, edges)
    adj_qkd = adjacency(n, edges, qkd_only=True)
    out = {}
    for c in doc["classes"]:
        dist = bfs(adj_qkd if c["security"] == "quantum" else adj_all, c["source"])
        if c["kind"] == "broadcast":
            out[c["id"]] = max(dist)
        elif c["kind"] == "anycast":
            out[c["id"]] = min(dist[d] for d in c["destinations"])
        else:
            out[c["id"]] = max(dist[d] for d in c["destinations"])
    return out
