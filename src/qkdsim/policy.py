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
    live: Sequence[Sequence[int]],
) -> Iterator[tuple[int, int, int]]:
    """Per-link service decisions from differential backlogs.

    ``queue_lens`` is the start-of-slot (node, class) queue table, and edge
    e runs from ``tails[e]`` to ``heads[e]`` with ``cap[e]`` sendable
    packets (min(gamma, kappa)).  Every link picks, on the table, the
    commodity with the largest positive backlog differential (ties to the
    lower class id); this is one vector step per class over all links.
    Then only the links with a commodity and a positive cap are walked, in
    ``edge_order`` (a permutation of the edge ids): each serves up to its
    cap of its commodity, clamped by the source queue in ``live``.  Yields
    (edge id, class id, count).  ``live`` is read as each activation is
    produced, so a caller that applies an activation before asking for the
    next sees a link drain or refill a source queue that a later link reads.
    """
    best_c = np.full(len(tails), -1)
    best_diff = np.zeros(len(tails), dtype=queue_lens.dtype)
    diff = np.empty_like(best_diff)
    for c in sorted(class_ids):  # a later class wins only with a strictly larger differential
        col = queue_lens[:, c]
        np.subtract(col[tails], col[heads], out=diff)
        np.putmask(best_c, diff > best_diff, c)
        np.maximum(best_diff, diff, out=best_diff)
    walk = edge_order[((best_c >= 0) & (cap > 0))[edge_order]]
    walk = zip(walk.tolist(), tails[walk].tolist(), best_c[walk].tolist(), cap[walk].tolist())
    # Free the edge-sized arrays before the walk: the caller's queue growth
    # during the walk would otherwise pin their heap space (with glibc
    # malloc, a 1,000-slot unicast-full cell's peak RSS grew by 4 MB).
    del best_c, best_diff, diff, cap, edge_order, queue_lens
    for eid, u, c, k in walk:
        n = live[u][c]  # never negative; a test is cheaper than a min() call
        if n:
            yield eid, c, k if k < n else n
