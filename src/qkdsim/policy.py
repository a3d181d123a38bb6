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

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

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


# each of a pick chunk's two gather buffers holds at most this many cells, or one row of links
_PICK_CELLS = 1 << 13


@functools.lru_cache(maxsize=16)
def _class_layout(class_ids: tuple[int, ...], rows: int, nodes: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Backpressure's encoding of a set of classes on a (rows, nodes) table:
    B, the low-bits column (B - 1 - rank(c) in class c's row, 0 in an
    unused row) and the low bits -> the class's first flat key, c * n.  It
    is the same in every slot of a cell, so it is computed once."""
    cids = sorted(class_ids)
    B = 1 << (len(cids) - 1).bit_length()
    low = np.zeros((rows, 1), dtype=np.int64)
    first_key = np.zeros(B, dtype=np.int64)
    for rank, c in enumerate(cids):
        low[c] = B - 1 - rank
        first_key[B - 1 - rank] = c * nodes
    low.flags.writeable = first_key.flags.writeable = False
    return B, low, first_key


def backpressure_activations(
    queue_lens: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    cap: np.ndarray,
    class_ids: Sequence[int],
    edge_order: np.ndarray,
) -> tuple[list[int], list[int], list[int]]:
    """Every link's commodity, picked on differential backlogs: the walk.

    ``queue_lens`` is the start-of-slot queue table, class-major: row c
    holds class c's queue length at every node, so the queue of class c at
    node u has the flat key ``c * n + u`` (n nodes).  Edge e runs from
    ``tails[e]`` to ``heads[e]`` with ``cap[e]`` sendable packets
    (min(gamma, kappa)).  Every link picks, on the table, the commodity
    with the largest positive backlog differential, ties to the lower
    class id.  The pick is one running maximum of the encoded differential
    ``B * (q[c, tail] - q[c, head]) + B - 1 - rank(c)``, where B is the
    smallest power of two at least the number of classes and rank(c) is
    c's position among the sorted ids: the low bits rank equal
    differentials, lower ids higher, and a link has a commodity iff its
    maximum is at least B (a positive differential); its class is read
    back from the low bits.  A queue holds packets kept in memory, far
    fewer than 2**63 / B, so ``B * q`` cannot overflow int64.

    Only the links with a positive cap whose tail holds a packet take part
    (no other link can send).  The table's rows from the lowest class id to
    the highest are taken in chunks of as many rows as fit ``_PICK_CELLS``
    gathered cells (at least one row).  A chunk gathers both scaled tables
    at the links' tails and heads into two preallocated (rows, links)
    buffers, subtracts them and folds its column maximum into the running
    maximum: five numpy calls whatever its row count, four for one row.  So
    a slot pays numpy calls per chunk, not per class: at N=20 all six
    classes of a sweep go in one chunk.  A loaded N=150 slot, where more
    than 4,096 of the 6,716 links take part, takes one row per chunk: its
    two buffers and the running maximum are three link-sized arrays, as a
    one-class-at-a-time pick needs; with fewer links each buffer holds at
    most 2**13 cells (64 KB).  An unused row between the ids encodes 0,
    below B, so it never wins.

    Returns the walk, three lists in ``edge_order`` (a permutation of the
    edge ids) over the links with a commodity: the edge id, the flat key
    of its source queue and its cap.  The kernel reads only the snapshot;
    the caller clamps each send by the source queue's live length, which
    an earlier link of the walk may have drained or refilled.
    """
    rows, nodes = queue_lens.shape
    B, low, first_key = _class_layout(tuple(class_ids), rows, nodes)
    # a link can send only from a node that holds a packet, with a positive cap
    links = edge_order[(queue_lens.any(axis=0)[tails] & (cap > 0))[edge_order]]  # in walk order
    if not len(links):
        return [], [], []
    lo, hi = min(class_ids), max(class_ids) + 1
    head_table = queue_lens[lo:hi] * B
    tail_table = head_table + low[lo:hi]
    link_tails, link_heads = tails[links], heads[links]
    step = min(hi - lo, max(1, _PICK_CELLS // len(links)))  # rows per chunk
    at_tail = np.empty((step, len(links)), dtype=np.int64)
    at_head = np.empty_like(at_tail)
    for r in range(0, hi - lo, step):
        k = min(step, hi - lo - r)
        enc, sub = at_tail[:k], at_head[:k]
        tail_table[r : r + k].take(link_tails, axis=1, out=enc, mode="clip")
        head_table[r : r + k].take(link_heads, axis=1, out=sub, mode="clip")
        np.subtract(enc, sub, out=enc)
        # the chunk's column maximum (a one-row chunk's row) folds into the running maximum
        if not r:
            best = enc.max(axis=0) if k > 1 else enc[0].copy()
        else:
            np.maximum(best, enc.max(axis=0, out=sub[0]) if k > 1 else enc[0], out=best)
    has = best >= B
    walk = links[has]
    keys = first_key[best[has] & (B - 1)] + link_tails[has]
    caps = cap[walk]
    # free the link-sized arrays (with the caller's unnamed table, caps and
    # order) before the lists are built: a 1,000-slot unicast-full cell's
    # largest transient then falls from 1,143 to 680 KB
    del queue_lens, cap, edge_order, head_table, tail_table, links, link_tails, link_heads
    del at_tail, at_head, enc, sub, best, has
    return walk.tolist(), keys.tolist(), caps.tolist()
