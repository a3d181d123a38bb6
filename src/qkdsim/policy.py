"""Routing policies over the virtual-queue state.

The tandem policy keeps two counters per edge: one for packets notionally
waiting for keys, one for packets notionally waiting for link capacity.
Edge weights are the sum of the two, routes are minimum-weight routes of
the class's kind, and both counters evolve by clamped (Lindley) recursions
driven by the same per-slot arrival counts.  Baselines: a single-queue
policy that only ever spends freshly generated keys, and a differential-
backlog (backpressure) policy with a capped key bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

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
        return "tandem-store" if self.key_storage else "tandem-nostore"


@dataclass(frozen=True)
class SingleQueueMode:
    mode = "single_queue"
    label = "single-queue"


@dataclass(frozen=True)
class BackpressureMode:
    key_cap: int = 50

    mode = "backpressure"
    label = "backpressure"


@dataclass(frozen=True)
class MultilevelMode:
    """Mixed security levels: only some links generate keys, only some
    classes require key encryption; the rest skip the encryption queue."""

    key_storage: bool = True

    mode = "multilevel"

    @property
    def label(self) -> str:
        return "multilevel-store" if self.key_storage else "multilevel-nostore"


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
    allowed: Sequence[bool] | None = None,
) -> dict[int, Route]:
    """Minimum-weight route per class that has at least one arrival.

    All packets of a class arriving in the same slot share one route.
    """
    by_id = {c.id: c for c in classes}
    routes: dict[int, Route] = {}
    for cid in sorted(arrivals):
        if arrivals[cid] >= 1:
            routes[cid] = _route_for_class(g, weights, by_id[cid], allowed)
    return routes


def multilevel_select_routes(
    g: NetworkGraph,
    vq: VirtualQueues,
    arrivals: Mapping[int, int],
    classes: Sequence[TrafficClass],
) -> dict[int, Route]:
    """Route selection under mixed security levels.

    Key-encrypted classes are confined to the key-equipped subgraph and see
    both queue counters; plain classes roam the whole graph but only the
    transmission counter matters to them (they skip the encryption stage).
    """
    qkd_mask = [e.has_qkd for e in g.edges]
    w_quantum = assign_weights(vq)
    w_classical = list(vq.y_tilde)
    by_id = {c.id: c for c in classes}
    routes: dict[int, Route] = {}
    for cid in sorted(arrivals):
        if arrivals[cid] < 1:
            continue
        cls = by_id[cid]
        if cls.security == "quantum":
            routes[cid] = _route_for_class(g, w_quantum, cls, qkd_mask)
        else:
            routes[cid] = _route_for_class(g, w_classical, cls, None)
    return routes


# ---------------------------------------------------------------------------
# baselines

def single_queue_service(queue_len: int, gamma: int, fresh_keys: int) -> int:
    """Packets served this slot when only fresh keys may be spent."""
    return min(queue_len, gamma, fresh_keys)


def backpressure_activations(
    queue_lens: Sequence[Sequence[int]],
    g: NetworkGraph,
    kappa: Sequence[int],
    class_ids: Sequence[int],
    edge_order: Iterable[int] | None = None,
    live: Sequence[Sequence[int]] | None = None,
) -> Iterator[tuple[int, int, int]]:
    """Per-link service decisions from differential backlogs.

    ``queue_lens[node][class]`` is a start-of-slot snapshot.  Each link, in
    ``edge_order``, picks the commodity with the largest positive backlog
    differential on the snapshot (ties to the lower class id) and serves up
    to min(gamma, kappa) of it, clamped by the source queue in ``live``
    (default: the snapshot).  Yields (edge id, class id, count).  ``live``
    is read as each activation is produced, so a caller that applies an
    activation before asking for the next sees a link drain a source queue
    that a later link shares.
    """
    live = queue_lens if live is None else live
    order = range(g.m) if edge_order is None else edge_order
    cids = sorted(class_ids)
    edges = g.edges
    for eid in order:
        e = edges[eid]
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
