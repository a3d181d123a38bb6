"""Routing policies over the virtual-queue state.

The tandem policy keeps two counters per edge: one for packets notionally
waiting for keys, one for packets notionally waiting for link capacity.
Edge weights are the sum of the two, routes are minimum-weight routes of
the class's kind, and both counters evolve by clamped (Lindley) recursions
driven by the same per-slot arrival counts.  The multilevel policy is the
tandem policy on a partly keyed network: only the links in the graph's
``key_mask`` generate keys, and plain classes skip encryption.  Baselines:
a single-queue policy that only ever spends freshly generated keys, and a
differential-backlog (backpressure) policy with a capped key bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .routing import (
    Route,
    anycast_route,
    min_weight_path,
    min_weight_spanning_tree,
    steiner_tree_approx,
)
from .topology import NetworkGraph
from .traffic import Anycast, Broadcast, Multicast, TrafficClass, Unicast

__all__ = [
    "VirtualQueues",
    "TandemMode",
    "SingleQueueMode",
    "BackpressureMode",
    "MultilevelMode",
    "PolicyMode",
    "assign_weights",
    "select_routes",
    "multilevel_select_routes",
    "single_queue_service",
    "backpressure_activations",
]


# ---------------------------------------------------------------------------
# policy modes

@dataclass(frozen=True)
class TandemMode:
    key_storage: bool = True

    mode = "tandem"

    @property
    def label(self) -> str:
        return f"{self.mode}-store" if self.key_storage else f"{self.mode}-nostore"


@dataclass(frozen=True)
class SingleQueueMode:
    mode = "single_queue"
    label = "single-queue"


@dataclass(frozen=True)
class BackpressureMode:
    key_cap: int = 50

    mode = "backpressure"
    label = "backpressure"

    def __post_init__(self):
        if self.key_cap < 0:
            raise ValueError(f"key_cap: must be >= 0, got {self.key_cap}")


@dataclass(frozen=True)
class MultilevelMode(TandemMode):
    """The tandem policy on a partly keyed network: it may run where some
    links generate no keys and some classes skip encryption."""

    mode = "multilevel"


PolicyMode = Union[TandemMode, SingleQueueMode, BackpressureMode, MultilevelMode]


# ---------------------------------------------------------------------------
# virtual queues

@dataclass
class VirtualQueues:
    x_tilde: list[float]
    y_tilde: list[float]


def assign_weights(vq: VirtualQueues) -> list[float]:
    """Per-edge weight: sum of both virtual queues."""
    return [x + y for x, y in zip(vq.x_tilde, vq.y_tilde)]


# ---------------------------------------------------------------------------
# route selection

def _route_for_class(
    g: NetworkGraph,
    weights: Sequence[float],
    cls: TrafficClass,
    allowed: Sequence[bool] | None,
) -> Route:
    kind = cls.kind
    if isinstance(kind, Unicast):
        return min_weight_path(g, weights, cls.source, kind.destination, allowed)
    if isinstance(kind, Broadcast):
        return min_weight_spanning_tree(g, weights, cls.source, allowed)
    if isinstance(kind, Multicast):
        return steiner_tree_approx(g, weights, cls.source, kind.destinations, allowed)
    if isinstance(kind, Anycast):
        return anycast_route(g, weights, cls.source, kind.candidates, allowed)
    raise TypeError(f"unknown traffic kind {kind!r}")


def select_routes(
    g: NetworkGraph,
    weights: Sequence[float],
    arrivals: Mapping[int, int],
    classes: Sequence[TrafficClass],
) -> dict[int, Route]:
    """Minimum-weight route per class that has at least one arrival.

    All packets of a class arriving in the same slot share one route.
    """
    by_id = {c.id: c for c in classes}
    return {cid: _route_for_class(g, weights, by_id[cid], None) for cid in sorted(arrivals) if arrivals[cid] >= 1}


def multilevel_select_routes(
    g: NetworkGraph,
    vq: VirtualQueues,
    arrivals: Mapping[int, int],
    classes: Sequence[TrafficClass],
) -> dict[int, Route]:
    """Route selection under mixed security levels.

    Key-encrypted classes are confined to the key-equipped subgraph
    (``g.key_mask``) and see both queue counters; plain classes roam the
    whole graph but only the transmission counter matters to them (they
    skip the encryption stage).  On a fully keyed network with only
    encrypted classes this is ``select_routes`` on ``assign_weights``.
    """
    w_quantum = assign_weights(vq)
    by_id = {c.id: c for c in classes}
    routes: dict[int, Route] = {}
    for cid in sorted(arrivals):
        if arrivals[cid] >= 1:
            cls = by_id[cid]
            if cls.security == "quantum":
                routes[cid] = _route_for_class(g, w_quantum, cls, g.key_mask)
            else:
                routes[cid] = _route_for_class(g, vq.y_tilde, cls, None)
    return routes


# ---------------------------------------------------------------------------
# baselines

def single_queue_service(queue_len: int, gamma: int, fresh_keys: int) -> int:
    """Packets served this slot when only fresh keys may be spent."""
    return min(queue_len, gamma, fresh_keys)


def backpressure_activations(
    queue_lens: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    cap: np.ndarray,
    class_ids: Sequence[int],
    edge_order: np.ndarray,
    live: Sequence[int],
) -> Iterator[tuple[int, int, int]]:
    """Per-link service decisions from differential backlogs.

    ``queue_lens`` is the start-of-slot queue table, class-major: row c
    holds class c's queue length at every node, so the queue of class c at
    node u has the flat key ``c * n + u`` (n nodes).  Edge e runs from
    ``tails[e]`` to ``heads[e]`` with ``cap[e]`` sendable packets
    (min(gamma, kappa)).  Every link picks, on the table, the commodity
    with the largest positive backlog differential, ties to the lower
    class id.  The pick is one running maximum over the classes of the
    encoded differential ``B * (q[c, tail] - q[c, head]) + B - 1 - rank(c)``,
    where B is the smallest power of two at least the number of classes
    and rank(c) is c's position among the sorted ids: the low bits rank
    equal differentials, lower ids higher, and a link has a commodity iff
    its maximum is at least B (a positive differential); its class is read
    back from the low bits.  Each class costs two gathers from its
    contiguous rows of the scaled table, a subtraction and a maximum, over
    only the links with a positive cap whose tail holds a packet (no other
    link can send).  A queue holds packets kept in memory, far fewer than
    2**63 / B, so ``B * q`` cannot overflow int64.  Then only the links
    with a commodity are walked, in ``edge_order`` (a permutation of the
    edge ids): each serves up to its cap of its commodity, clamped by the
    source queue's live length ``live[key]``.  Yields (edge id, the source
    queue's flat key, count).  ``live`` is read as each activation is
    produced, so a caller that applies an activation before asking for the
    next sees a link drain or refill a source queue that a later link reads.
    """
    nodes = queue_lens.shape[1]
    cids = sorted(class_ids)
    # a link can send only from a node that holds a packet, with a positive cap
    links = edge_order[(queue_lens.any(axis=0)[tails] & (cap > 0))[edge_order]]  # in walk order
    B = 1 << (len(cids) - 1).bit_length()
    low = [0] * len(queue_lens)  # each class's low bits: higher for lower ids
    first_key = [0] * B  # the low bits -> the class's first flat key, c * n
    for rank, c in enumerate(cids):
        low[c] = B - 1 - rank
        first_key[B - 1 - rank] = c * nodes
    head_table = queue_lens * B
    tail_table = head_table + np.array(low)[:, None]
    link_tails, link_heads = tails[links], heads[links]
    best = np.empty(len(links), dtype=np.int64)
    enc = np.empty_like(best)
    at_head = np.empty_like(best)
    for rank, c in enumerate(cids):
        out = enc if rank else best
        tail_table[c].take(link_tails, out=out, mode="clip")
        head_table[c].take(link_heads, out=at_head, mode="clip")
        np.subtract(out, at_head, out=out)
        if rank:
            np.maximum(best, enc, out=best)
    has = best >= B
    walk = links[has]
    keys = np.array(first_key)[best[has] & (B - 1)] + link_tails[has]
    walk = zip(walk.tolist(), keys.tolist(), cap[walk].tolist())
    # Free the edge-sized arrays before the walk: the caller's queue growth
    # during the walk would otherwise pin their heap space (with glibc
    # malloc, a 1,000-slot unicast-full cell's peak RSS grew by 4 MB).
    del links, link_tails, link_heads, best, enc, at_head, has, keys, cap, edge_order, queue_lens
    del head_table, tail_table
    for eid, key, k in walk:
        n = live[key]  # never negative; a test is cheaper than a min() call
        if n:
            yield eid, key, k if k < n else n
