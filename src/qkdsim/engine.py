"""Slotted-time simulation loop: physical queues, encryption, forwarding.

Each slot runs the same phase sequence: route assignment for fresh
arrivals, the key phase (key generation, the virtual-queue update, and
encryption: unencrypted queue -> encrypted queue, one key per packet),
link transmission, and delivery bookkeeping.  The virtual queues read only
the slot's arrivals, keys and link capacities, never the physical
service, so they advance in the key phase's pass over the links.  A
fresh packet may pass straight through its first edge (arrive, encrypt,
transmit) within one slot.  The copies a slot's links send join their
next queues only once every link has sent, so a forwarded copy waits
one slot per hop and a full queue is judged after its own sends.  Every
policy runs this one loop; the baselines skip the phases they do not
have (see ``_Engine``).  Multilevel is tandem under another name: the
engine never asks which of the two it runs, it reads the graph's
``key_mask`` and the classes' security levels.

Where keys are carried between slots (tandem and multilevel with key
storage, and backpressure), one key ledger (``KeyBank``) holds every
link's keys as arrays; without storage a slot spends only its fresh keys,
so no ledger is kept.  With key storage, a link's keys are debited by its
virtual unencrypted demand each slot; debited keys are held per link
("escrow") until a physical packet consumes them at encryption.  This is
what keeps the residual and the virtual backlog from being positive at
the same time, exactly, slot by slot.

A slot costs what its traffic costs.  Queues are made at a link's first
copy (backpressure's at a (class, node)'s first packet), so a link that no
route crosses holds none.  Arrivals and keys are drawn in blocks of slots
(at most ``_BLOCK_CELLS`` key counts at a time), so memory does not grow
with the horizon.  Each class draws from its own generator; every
link's keys come from one ``KeySampler``, whose truncated-Poisson links all
share one generator, so a cell makes a handful of generators, not one per
link.  A slot's deposit is one vector step, and Python work
is done only on the links that hold packets, virtual backlog or this slot's
arrivals.  Backpressure keeps its queue lengths in one flat, class-major
table (class c's queue at node u has the key ``c * n + u``), picks every
link's commodity with one running maximum, in a few numpy calls whatever
the class count, and walks only the links that can send, clamping each
send by its live source queue (see ``_Engine._serve_nodes``).
Routes go over the zero-weight links first.  A class that sees no weight
on its links takes its idle route, kept per class: the fewest-hop path, or
the tree the router built once on zero weights.  A path class whose idle
route is busy takes the fewest-hop path around the busy links.  The routing
kernels run only when backlog leaves no zero-weight route (see
``_Router``, the TQD route rule, which the engine holds and calls; building
it is every ``simulate`` call's routability check).
"""

from __future__ import annotations

import heapq
import io
import json
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .keying import KeyBank, KeySampler, KeySpec
from .policy import (
    BackpressureMode,
    MultilevelMode,
    PolicyMode,
    SingleQueueMode,
    TandemMode,
    VirtualQueues,
    assign_weights,
    backpressure_activations,
    multilevel_select_routes,
    select_routes,
    single_queue_service,
)
from .routing import (
    Route,
    RoutingError,
    UnreachableError,
    anycast_route,
    fewest_hop_path,
    min_weight_path,
)
from .topology import NetworkGraph
from .traffic import ArrivalSampler, Broadcast, Multicast, TrafficClass, Unicast

__all__ = ["MetricsRecord", "simulate", "InvariantViolation"]


class InvariantViolation(AssertionError):
    pass


# ---------------------------------------------------------------------------
# packets

class PacketRecord:
    __slots__ = ("id", "cls_id", "birth", "remaining", "dead")

    def __init__(self, pid: int, cls_id: int, birth: int, remaining: int):
        self.id = pid
        self.cls_id = cls_id
        self.birth = birth
        self.remaining = remaining
        self.dead = False


class Copy:
    """One physical instance of a packet sitting at (or crossing) an edge."""

    __slots__ = ("record", "route", "hops")

    def __init__(self, record: PacketRecord, route, hops: int):
        self.record = record
        self.route = route
        self.hops = hops


class FifoQueue(deque):
    """Serve copies in arrival order."""

    __slots__ = ()

    push = deque.append

    def pop_live(self) -> Copy | None:
        while self:
            copy = self.popleft()
            if not copy.record.dead:
                return copy
        return None


class EntoQueue:
    """Serve the copy that has traversed the fewest hops; ties by packet id.

    A packet crosses each link at most once, so (hops, packet id) never
    ties within one queue and the heap never compares two copies.
    """

    __slots__ = ("heap",)

    def __init__(self):
        self.heap: list[tuple[int, int, Copy]] = []

    def push(self, copy: Copy) -> None:
        heapq.heappush(self.heap, (copy.hops, copy.record.id, copy))

    def pop_live(self) -> Copy | None:
        while self.heap:
            copy = heapq.heappop(self.heap)[2]
            if not copy.record.dead:
                return copy
        return None

    def __len__(self) -> int:
        return len(self.heap)

    def __iter__(self):
        for entry in self.heap:
            yield entry[2]


# ---------------------------------------------------------------------------
# metrics

@dataclass
class MetricsRecord:
    """Aggregates plus optional per-slot series for one simulation run."""

    policy: str
    scheduler: str
    horizon: int
    seed: int
    nodes: int
    edge_count: int
    class_arrivals: dict[int, int]
    class_delivered: dict[int, int]
    class_dropped: dict[int, int]
    class_delay_sum: dict[int, int]
    in_flight: int
    mean_residual_keys: float
    mean_backlog: float
    final_backlog: float
    series: dict[str, np.ndarray] | None = None

    @property
    def total_arrivals(self) -> int:
        return sum(self.class_arrivals.values())

    @property
    def total_delivered(self) -> int:
        return sum(self.class_delivered.values())

    @property
    def total_dropped(self) -> int:
        return sum(self.class_dropped.values())

    def delivered_rate(self, cls_id: int | None = None) -> float:
        if cls_id is None:
            return self.total_delivered / self.horizon
        return self.class_delivered[cls_id] / self.horizon

    def mean_delay(self, cls_id: int | None = None) -> float | None:
        """Mean delivery delay in slots; None when nothing was delivered."""
        if cls_id is None:
            delivered = self.total_delivered
            delay = sum(self.class_delay_sum.values())
        else:
            delivered = self.class_delivered[cls_id]
            delay = self.class_delay_sum[cls_id]
        return delay / delivered if delivered else None

    def to_json_dict(self) -> dict:
        per_class = {
            str(cid): {
                "arrivals": self.class_arrivals[cid],
                "delivered": self.class_delivered[cid],
                "dropped": self.class_dropped[cid],
                "delay_sum": self.class_delay_sum[cid],
                "delivered_rate": self.class_delivered[cid] / self.horizon,
                "mean_delay": self.mean_delay(cid),
            }
            for cid in sorted(self.class_arrivals)
        }
        return {
            "policy": self.policy,
            "scheduler": self.scheduler,
            "horizon": self.horizon,
            "seed": self.seed,
            "nodes": self.nodes,
            "edge_count": self.edge_count,
            "classes": per_class,
            "totals": {
                "arrivals": self.total_arrivals,
                "delivered": self.total_delivered,
                "dropped": self.total_dropped,
                "in_flight": self.in_flight,
                "delivered_rate": self.total_delivered / self.horizon,
                "mean_delay": self.mean_delay(),
            },
            "mean_residual_keys": self.mean_residual_keys,
            "mean_backlog": self.mean_backlog,
            "final_backlog": self.final_backlog,
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n").encode()

    def to_csv_bytes(self) -> bytes:
        if self.series is None:
            raise ValueError("run was executed without per-slot series recording")
        buf = io.StringIO()
        buf.write(",".join(self.series) + "\n")
        for row in zip(*(a.tolist() for a in self.series.values())):
            buf.write(",".join(map(repr, row)) + "\n")
        return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# shared helpers

def _spawn_streams(seed: int, n_classes: int):
    """A cell's generators: one per class, one for every truncated-Poisson
    link's keys and one for backpressure's link order; then the seed's
    sequence, whose next children are the BB84 links' generators (the
    ``KeySampler`` spawns one per BB84 link once it has counted them)."""
    seeds = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in seeds.spawn(n_classes + 2)]
    return rngs[:n_classes], rngs[n_classes], rngs[n_classes + 1], seeds


# The per-slot series columns and their dtypes; the last two are recorded
# only with drift.
_SERIES = (
    ("slot", np.int64), ("arrivals_cum", np.int64), ("delivered_cum", np.int64),
    ("dropped_cum", np.int64), ("backlog_sum", float), ("vq_sum", float), ("x_sum", np.int64),
    ("y_sum", np.int64), ("keys_sum", np.int64), ("lyapunov", float), ("drift", float),
)


# ---------------------------------------------------------------------------
# the engine

_QUEUES = {"fifo": FifoQueue, "ento": EntoQueue}
# Key counts drawn per block: 4 MiB as int32.  A block holds
# _BLOCK_CELLS // m slots (at least one); every stream draws in slot
# order, so the block size never changes a draw.
_BLOCK_CELLS = 1 << 20


def _validate(g: NetworkGraph, classes: Sequence[TrafficClass], mode: PolicyMode, scheduler: str) -> _Router:
    """Check a run's arguments and return its router, whose building is the routability check."""
    if scheduler not in _QUEUES:
        raise ValueError(f"unknown scheduler {scheduler!r}; expected 'fifo' or 'ento'")
    if isinstance(mode, BackpressureMode) and scheduler == "ento":
        raise ValueError("backpressure queues hold no hop counts; it runs the 'fifo' scheduler only")
    if isinstance(mode, BackpressureMode) and any(not isinstance(c.kind, Unicast) for c in classes):
        raise ValueError(f"{mode.label} baseline supports unicast classes only")
    if not isinstance(mode, MultilevelMode):
        if g.key_mask is not None:
            raise ValueError(f"{mode.label} needs key generation on every edge; use multilevel mode")
        if any(c.security != "quantum" for c in classes):
            raise ValueError(f"{mode.label} carries key-encrypted traffic only; use multilevel mode")
    for i, c in enumerate(classes):
        if any(d.id == c.id for d in classes[:i]):
            raise ValueError(f"class id {c.id} is repeated; each class needs its own id")
        for node in (c.source, *(c.destination_nodes(None) or ())):
            if not 0 <= node < g.n:
                raise ValueError(f"class {c.id}: node {node} is not in the {g.n}-node graph")
    return _Router(g, classes)


def _check_overrides(g: NetworkGraph, keys: KeySpec) -> None:
    """Every key override must name a link of the graph, in either direction."""
    if not keys.overrides:
        return
    links = {(e.u, e.v) for e in g.edges}
    for i, ((u, v), _) in enumerate(keys.overrides):
        if (u, v) not in links and (v, u) not in links:
            raise ValueError(f"keys.overrides[{i}]: ({u}, {v}) is not a link of the graph")


class _Router:
    """TQD's route rule: each arriving class's minimum-weight route.

    An encrypted class weighs x̃ + ỹ on the keyed links, a plain one ỹ on
    every link.  Most of these weigh 0 in most slots, so the routing
    kernels run only when backlog forces them.  The router builds each
    class's idle route when it is made, so a class with no route over the
    links it may use raises a ``RoutingError`` that names it.  Everything
    else it reads from the virtual queues and the busy links (those with
    x̃ or ỹ above 0) it is passed.
    """

    def __init__(self, g: NetworkGraph, classes: Sequence[TrafficClass]):
        self.g = g
        self.classes = classes
        self.by_id = {c.id: c for c in classes}
        self.mixed = g.key_mask is not None or any(c.security != "quantum" for c in classes)
        # a path class's destinations: its one destination, or its anycast candidates
        self.path_dests = {
            c.id: c.destination_nodes(g.n) for c in classes if not isinstance(c.kind, (Broadcast, Multicast))
        }
        # each class's route while no link it may use carries weight
        self.idle_routes: dict[int, Route] = {c.id: self._idle(c) for c in classes}

    def _idle(self, cls: TrafficClass) -> Route:
        """The class's route while no link it may use carries weight, and
        single-queue's fixed route for every kind.

        A unicast or anycast class takes its fewest-hop route
        (``fewest_hop_path`` with nothing blocked: the walk every path
        router makes, unweighed).
        A broadcast or multicast class takes the router's tree on all-zero
        weights, built once through the selectors.  That tree is the
        router's answer whenever every weight the class sees is 0, for two
        reasons.  First, the only weights a tree router reads are those of
        links it may use: trees are refused on a graph with a one-way link,
        and a link's two directions share ``has_qkd``, so the key mask
        keeps or drops a link whole.  Second, on zero weights Kruskal's
        order, the Steiner closure and its pruning depend only on node and
        link ids.
        """
        targets = self.path_dests.get(cls.id)
        if targets is None:
            zeros = [0.0] * self.g.m
            try:
                return self._select({cls.id: 1}, VirtualQueues(zeros, zeros))[cls.id]
            except RoutingError as exc:
                raise type(exc)(f"class {cls.id}: {exc}") from None
        allowed = self.g.key_mask if cls.security == "quantum" else None  # encrypted: keyed links only
        route = fewest_hop_path(self.g, cls.source, targets, allowed)
        if route is None:
            raise UnreachableError(f"class {cls.id}: no destination reachable on its allowed subgraph")
        return route

    def _select(self, counts: dict[int, int], vq: VirtualQueues) -> dict[int, Route]:
        """The selector's routes on ``vq``; multilevel's wherever some link
        is keyless or some class plain."""
        if self.mixed:
            return multilevel_select_routes(self.g, vq, counts, self.classes)
        return select_routes(self.g, assign_weights(vq), counts, self.classes)

    def routes(self, counts: dict[int, int], vq: VirtualQueues, busy: set[int]) -> dict[int, Route]:
        """The route of each class in ``counts`` on the virtual queues ``vq``,
        whose links with weight are ``busy``:

        - a class takes its idle route (``idle_routes``) when no link on it
          carries weight; a tree class, when no link it may use does;
        - otherwise a path class takes the fewest-hop path that avoids the
          links with weight.  The router walks the same way over its tight
          links, and when that path exists the tight links among the nodes
          at distance 0 are the zero-weight ones, so it is the router's
          route (see ``fewest_hop_path``);
        - otherwise the router runs on the class's weights: a path class
          calls ``min_weight_path`` or ``anycast_route``, and the tree
          classes go to the selector together.
        """
        g, y_tilde = self.g, vq.y_tilde
        routes: dict[int, Route] = {}
        trees: dict[int, int] = {}
        w_quantum = None
        for cid, n in counts.items():
            cls = self.by_id[cid]
            route = self.idle_routes[cid]
            encrypted = cls.security == "quantum"
            allowed = g.key_mask if encrypted else None
            targets = self.path_dests.get(cid)
            if targets is None:
                # a busy link weighs x̃ + ỹ > 0 to an encrypted class, but maybe only x̃ to a plain one
                if any((allowed is None or allowed[e]) and (encrypted or y_tilde[e]) for e in busy):
                    trees[cid] = n
                else:
                    routes[cid] = route
                continue
            if busy.isdisjoint(route.edges) if encrypted else not any(y_tilde[e] for e in route.edges):
                routes[cid] = route
                continue
            # keyless links are not allowed to an encrypted class, so it may block all of busy
            heavy = busy if encrypted else {e for e in busy if y_tilde[e]}
            route = fewest_hop_path(g, cls.source, targets, allowed, heavy)
            if route is None:
                if encrypted and w_quantum is None:
                    w_quantum = assign_weights(vq)
                w = w_quantum if encrypted else y_tilde
                if isinstance(cls.kind, Unicast):
                    route = min_weight_path(g, w, cls.source, cls.kind.destination, allowed)
                else:
                    route = anycast_route(g, w, cls.source, targets, allowed)
            routes[cid] = route
        if trees:
            routes.update(self._select(trees, vq))
        return routes


class _Engine:
    """One slot loop for every policy.

    Each slot admits the arrivals, runs the key phase, serves the links
    and records the slot.  The policy supplies only what differs:

    - route choice: ``_Router``'s minimum-weight routes over the virtual
      queues (tandem, multilevel), its idle routes, fewest-hop paths and
      zero-weight trees (single-queue), or none (backpressure keeps
      per-(node, class) queues instead of edge queues);
    - the key phase: tandem reserves keys for the virtual demand (with
      storage) or spends the slot's fresh keys (without), advances the
      virtual queues and encrypts, backpressure caps each link's keys,
      single-queue banks nothing;
    - the service: a link sends up to its capacity (tandem), up to
      ``single_queue_service`` (single-queue), or what
      ``backpressure_activations`` picks, clamped by the live source queue
      (backpressure).
    """

    def __init__(
        self,
        router: _Router,
        mode: PolicyMode,
        keys: KeySpec,
        scheduler: str,
        horizon: int,
        seed: int,
        queue_cap: int,
        record_series: bool,
        series_stride: int,
        check_invariants: bool,
        record_drift: bool,
    ):
        self.router = router
        g = self.g = router.g
        self.classes = sorted(router.classes, key=lambda c: c.id)
        self.mode = mode
        self.scheduler = scheduler
        self.horizon = horizon
        self.seed = seed
        self.queue_cap = queue_cap
        self.check = check_invariants
        self.virtual = isinstance(mode, TandemMode)
        self.fresh_only = isinstance(mode, SingleQueueMode)

        m = g.m
        class_rngs, key_rng, misc_rng, seeds = _spawn_streams(seed, len(self.classes))
        self.arrival_samplers = {
            cls.id: ArrivalSampler(cls.arrival, class_rngs[i]) for i, cls in enumerate(self.classes)
        }
        self.key_sampler = KeySampler(keys, g.edges, key_rng, seeds)
        self.block_slots = min(horizon, max(1, _BLOCK_CELLS // max(1, m)))
        self.bank = None  # the key ledger, kept only where keys are carried between slots
        self.gamma = [e.gamma for e in g.edges]

        ids = [c.id for c in self.classes]
        self.by_id = {c.id: c for c in self.classes}
        self.class_arrivals = dict.fromkeys(ids, 0)
        self.class_delivered = dict.fromkeys(ids, 0)
        self.class_dropped = dict.fromkeys(ids, 0)
        self.class_delay = dict.fromkeys(ids, 0)
        self.next_pid = 0
        self.arrivals_cum = 0
        self.delivered_cum = 0
        self.dropped_cum = 0
        self.keys_total = 0  # banked keys (residual + escrow) across edges
        self.keys_running = 0.0
        self.backlog_running = 0.0
        self.lyap = 0.0
        self.lyap_prev = 0.0
        self.rows: list | None = [] if record_series else None  # the recorded slots' rows, end to end
        self.stride = series_stride
        self.drift = record_series and record_drift and self.virtual

        self.key_cap = None
        self.node_q = None
        if isinstance(mode, BackpressureMode):
            self.bank = KeyBank(m)
            self.key_cap = mode.key_cap
            self.misc_rng = misc_rng
            self.ids = ids
            # the (class, node) queues, class-major: class c's queue at node u
            # has the flat key c * n + u, in the length table and in node_q
            n, width = g.n, max(ids) + 1
            self.table_shape = (width, n)
            self.src_key = {c.id: c.id * n + c.source for c in self.classes}
            self.sink = [False] * (width * n)  # a class's destination: packets delivered, never queued
            for c in self.classes:
                self.sink[c.id * n + c.kind.destination] = True
            self.node_q: dict[int, deque] = defaultdict(deque)  # flat key -> its packets
            self.lens = [0] * (width * n)
            self.tails = np.array([e.u for e in g.edges])
            self.heads = np.array([e.v for e in g.edges])
            # a source key + shift[e] is the key at e's head; the list shares one int per value in
            # (-n, n), so at N=150 it costs 100 KB less than one int per edge
            self.shift = np.array(range(1 - n, n), dtype=object)[self.heads - self.tails + (n - 1)].tolist()
            # a cap is min(gamma, residual) and the residual is int64, so clipping gamma there changes no send
            top = 2**63 - 1
            self.gammas = np.array(self.gamma if max(self.gamma) <= top else [min(x, top) for x in self.gamma],
                                   dtype=np.int64)
            return

        # edge queues, made at an edge's first copy: an encryption queue per
        # priority level, then the transmission queue
        self.encrypted = {c.id: self.virtual and c.security == "quantum" for c in self.classes}
        prios = sorted({c.priority for c in self.classes}, reverse=True)
        self.prio_rank = {p: i for i, p in enumerate(prios)}
        self.x_q: dict[int, list[deque]] = defaultdict(lambda: [deque() for _ in prios])
        self.x_len = [0] * m
        self.active_x: set[int] = set()
        self.y_q: dict[int, FifoQueue | EntoQueue] = defaultdict(_QUEUES[scheduler])
        self.active_y: set[int] = set()
        self.x_total = 0
        self.y_total = 0
        self.transmitted_encrypted = [0] * m
        if self.fresh_only:
            return

        self.storage = mode.key_storage
        if self.storage:
            self.bank = KeyBank(m)
        self.x_tilde = [0.0] * m
        self.y_tilde = [0.0] * m
        self.vq = VirtualQueues(self.x_tilde, self.y_tilde)
        self.active_vq: set[int] = set()
        self.vq_total = 0.0
        self.a_q: dict[int, int] = {}  # virtual arrivals per edge, encrypted classes
        self.a_c: dict[int, int] = {}  # virtual arrivals per edge, plain classes
        self.escrow = [0] * m
        self.moved_total = [0] * m
        self.x_post_enc: dict[int, int] = {}

    # -- main loop ----------------------------------------------------------

    def run(self) -> MetricsRecord:
        backpressure = self.node_q is not None
        for t0 in range(0, self.horizon, self.block_slots):
            arr, fresh_block, fresh_sums = self._draw_block(min(self.block_slots, self.horizon - t0))
            for i, fresh_sum in enumerate(fresh_sums):
                t = t0 + i
                fresh = fresh_block[i]
                counts = {cid: row[i] for cid, row in arr.items() if row[i] > 0}
                if counts:
                    for cid, n in counts.items():
                        self.class_arrivals[cid] += n
                        self.arrivals_cum += n
                    if backpressure:
                        self._enqueue_at_sources(counts, t)
                    else:
                        self._route_and_admit(counts, t)
                if backpressure:
                    self._cap_banks(fresh)
                    self._serve_nodes(t)
                elif self.virtual:
                    self._reserve_and_encrypt(fresh, fresh_sum)
                    self._serve_edges(t)
                else:
                    self._serve_edges(t, fresh)
                self._record(t)
        return self._metrics()

    def _draw_block(self, nslots: int) -> tuple[dict[int, list[int]], np.ndarray, list[int]]:
        """The next ``nslots`` slots of every stream: arrivals per class, the
        fresh keys as an (nslots, m) array, and each slot's key total."""
        arr = {cid: s.sample_batch(nslots).tolist() for cid, s in self.arrival_samplers.items()}
        fresh = self.key_sampler.sample_batch(nslots)
        return arr, fresh, fresh.sum(axis=1).tolist()

    # -- packet bookkeeping ---------------------------------------------------

    def _new_record(self, cid: int, slot: int, remaining: int) -> PacketRecord:
        rec = PacketRecord(self.next_pid, cid, slot, remaining)
        self.next_pid += 1
        return rec

    def _drop(self, rec: PacketRecord) -> None:
        if rec.dead:
            return
        rec.dead = True
        self.class_dropped[rec.cls_id] += 1
        self.dropped_cum += 1

    def _deliver(self, rec: PacketRecord, slot: int) -> None:
        self.class_delivered[rec.cls_id] += 1
        self.delivered_cum += 1
        self.class_delay[rec.cls_id] += slot - rec.birth

    # -- admission -------------------------------------------------------------

    def _route_and_admit(self, counts: dict[int, int], slot: int) -> None:
        router = self.router
        routes = router.idle_routes if self.fresh_only else router.routes(counts, self.vq, self.active_vq)
        for cid, n in counts.items():
            route = routes[cid]
            encrypted = self.encrypted[cid]
            if self.virtual:
                tgt = self.a_q if encrypted else self.a_c
                for e in route.edges:
                    tgt[e] = tgt.get(e, 0) + n
            root_edges = route.children[route.root]
            for _ in range(n):
                rec = self._new_record(cid, slot, len(route.terminals))
                for child in root_edges:
                    if not self._place(Copy(rec, route, 0), child, encrypted):
                        break

    def _enqueue_at_sources(self, counts: dict[int, int], slot: int) -> None:
        lens = self.lens
        for cid, n in counts.items():
            key = self.src_key[cid]
            dq = self.node_q[key]
            for _ in range(n):
                rec = self._new_record(cid, slot, 1)
                if lens[key] >= self.queue_cap:
                    self._drop(rec)
                    continue
                dq.append(rec)
                lens[key] += 1

    def _place(self, copy: Copy, eid: int, encrypted: bool) -> bool:
        """Enqueue a copy at an edge; drops the packet when the queue is full."""
        if encrypted:
            if self.x_len[eid] >= self.queue_cap:
                self._drop(copy.record)
                return False
            self.x_q[eid][self.prio_rank[self.by_id[copy.record.cls_id].priority]].append(copy)
            self.x_len[eid] += 1
            self.x_total += 1
            self.active_x.add(eid)
        else:
            q = self.y_q[eid]
            if len(q) >= self.queue_cap:
                self._drop(copy.record)
                return False
            q.push(copy)
            self.y_total += 1
            self.active_y.add(eid)
        return True

    # -- keys ---------------------------------------------------------------

    def _cap_banks(self, fresh: np.ndarray) -> None:
        """Backpressure's key phase: bank the fresh keys, cap every link's keys."""
        bank = self.bank
        bank.deposit(fresh)
        bank.discard_residual(self.key_cap)
        self.keys_total = int(bank.residual.sum())

    def _reserve_and_encrypt(self, fresh: np.ndarray, fresh_sum: int) -> None:
        """Tandem's key phase: take the fresh keys, advance the virtual
        queues and encrypt.

        With storage, the fresh keys go into the ledger, keys are reserved
        for the virtual unencrypted demand and encryption spends the
        reservation; without storage, no ledger is kept: encryption spends
        the slot's fresh keys and the rest are lost.  The virtual
        queues read only the slot's arrivals, its keys kappa (the bank
        after the deposit with storage, the fresh keys without) and gamma,
        so they advance in the reservation's pass over the edges with
        virtual backlog or arrivals.  Only edges with a non-empty
        encryption queue can encrypt.
        """
        bank, storage, escrow, busy = self.bank, self.storage, self.escrow, self.active_vq
        x_tilde, y_tilde, a_q, a_c, gamma = self.x_tilde, self.y_tilde, self.a_q, self.a_c, self.gamma
        if storage:
            bank.deposit(fresh)
            self.keys_total += fresh_sum
            keys = bank.residual
        else:
            keys = fresh  # nothing is banked, so keys_total stays 0
        for e in busy.union(a_q, a_c):
            aq = a_q.get(e, 0)
            x_old, y_old = x_tilde[e], y_tilde[e]
            # kappa is read before the reservation; a keyless link has kappa 0
            # and no encrypted arrivals, so its x̃ stays 0
            x_new = x_tilde[e] = max(0.0, x_old + aq - keys.item(e))
            y_new = y_tilde[e] = max(0.0, y_old + (aq + a_c.get(e, 0)) - gamma[e])
            demand = int(x_old) + aq
            if storage and demand:
                escrow[e] += bank.withdraw(e, demand)
            self.vq_total += (x_new - x_old) + (y_new - y_old)
            if self.drift:
                self.lyap += x_new * x_new - x_old * x_old + y_new * y_new - y_old * y_old
            if x_new or y_new:
                busy.add(e)
            else:
                busy.discard(e)
        a_q.clear()
        a_c.clear()
        for e in list(self.active_x):
            avail = escrow[e] if storage else fresh.item(e)
            if not avail:
                continue
            moved = self._encrypt(e, avail)
            if storage:
                escrow[e] -= moved
                self.keys_total -= moved
            self.moved_total[e] += moved
        if self.check:
            self.x_post_enc = {
                e: sum(0 if c.record.dead else 1 for level in self.x_q[e] for c in level)
                for e in self.active_x
            }

    def _encrypt(self, eid: int, budget: int) -> int:
        """Move up to ``budget`` waiting copies into the encrypted queue."""
        moved = 0
        q = self.y_q[eid]
        for level in self.x_q[eid]:
            while level and moved < budget:
                copy = level.popleft()
                self.x_len[eid] -= 1
                self.x_total -= 1
                if copy.record.dead:
                    continue
                q.push(copy)
                self.y_total += 1
                moved += 1
            if moved >= budget:
                break
        if not self.x_len[eid]:
            self.active_x.discard(eid)
        if moved and len(q):
            self.active_y.add(eid)
        return moved

    # -- service --------------------------------------------------------------

    def _serve_edges(self, t: int, fresh: np.ndarray | None = None) -> None:
        """Each link sends up to its budget from its transmission queue;
        single-queue passes the slot's ``fresh`` keys.

        The sent copies arrive once every link has sent, in send order (links
        by id, each link's copies as popped), so a copy waits one slot per
        hop and a full queue is judged after its own sends.
        """
        sent = []
        for e in sorted(self.active_y):
            q = self.y_q[e]
            before = len(q)
            if self.fresh_only:
                budget = single_queue_service(before, self.gamma[e], fresh.item(e))
            else:
                budget = self.gamma[e]
            while budget:
                copy = q.pop_live()
                if copy is None:
                    break
                budget -= 1
                if self.encrypted[copy.record.cls_id]:
                    self.transmitted_encrypted[e] += 1
                sent.append((copy, e))
            # the dead copies that pop_live skipped leave the queue too
            left = len(q)
            self.y_total -= before - left
            if not left:
                self.active_y.discard(e)
        for copy, e in sent:
            self._arrive(copy, e, t)

    def _arrive(self, copy: Copy, eid: int, slot: int) -> None:
        """Count a terminal at the edge's head, then place the copy at the
        head's first child edge and fork a copy for each other one.  A copy
        whose packet was dropped while the slot's copies arrived goes no
        further."""
        rec = copy.record
        if rec.dead:
            return
        v = self.g.edges[eid].v
        copy.hops += 1
        route = copy.route
        if v in route.terminals:
            rec.remaining -= 1
            if rec.remaining == 0:
                self._deliver(rec, slot)
        kids = route.children.get(v)
        if not kids:
            return
        encrypted = self.encrypted[rec.cls_id]
        if self._place(copy, kids[0], encrypted):
            for child in kids[1:]:
                if not self._place(Copy(rec, route, copy.hops), child, encrypted):
                    break

    def _serve_nodes(self, t: int) -> None:
        """Backpressure's service: links in random order, commodities by differential backlog.

        ``backpressure_activations`` picks every link's commodity on the
        start-of-slot (class, node) length table, in a few numpy calls
        whatever the class count, and returns the walk: each link with a
        commodity, in a random order, with its source queue's flat key and
        its cap.  Each link appears once in the order and spends only its
        own keys, so its cap min(gamma, residual) is read before the walk.
        The walk clamps each send by the live source queue, which an
        earlier link may have drained (a drained queue sends nothing) or
        refilled; the head's key is ``key + shift[eid]``, the same class's
        entry at the link's head.  The slot's withdrawals are booked at its
        end in one vector step.
        """
        node_q, lens, shift, sink, queue_cap = self.node_q, self.lens, self.shift, self.sink, self.queue_cap
        # unnamed here, so the kernel can free the table, caps and order before it builds the walk
        walk, keys, caps = backpressure_activations(
            np.array(lens, dtype=np.int64).reshape(self.table_shape), self.tails, self.heads,
            np.minimum(self.gammas, self.bank.residual), self.ids, self.misc_rng.permutation(self.g.m),
        )
        sent_edges, sent = [], []
        for eid, key, n in zip(walk, keys, caps):
            held = lens[key]
            if not held:
                continue
            if held < n:
                n = held
            sent_edges.append(eid)
            sent.append(n)
            src = node_q[key]
            lens[key] = held - n
            head = key + shift[eid]
            if sink[head]:
                for _ in range(n):
                    self._deliver(src.popleft(), t)
                continue
            # the queue at the head only grows during the loop: the first packets fit, the rest drop
            room = queue_cap - lens[head]
            kept = n if n < room else room
            lens[head] += kept
            dst = node_q[head]
            if kept == 1:  # a gamma-1 link's every send: no loop to set up
                dst.append(src.popleft())
            else:
                for _ in range(kept):
                    dst.append(src.popleft())
            if kept < n:
                for _ in range(n - kept):
                    self._drop(src.popleft())
        if sent_edges:
            self.keys_total -= self.bank.withdraw_many(sent_edges, sent)

    # -- recording ----------------------------------------------------------------

    def _record(self, t: int) -> None:
        # tandem and multilevel report the virtual backlog, the baselines
        # the packets in flight
        self.keys_running += self.keys_total
        if self.virtual:
            backlog = vq = self.vq_total
            x, y = self.x_total, self.y_total
        else:
            x = self.arrivals_cum - self.delivered_cum - self.dropped_cum
            backlog, vq, y = float(x), 0.0, 0
        self.backlog_running += backlog
        if self.rows is not None and not t % self.stride:
            self.rows += (t, self.arrivals_cum, self.delivered_cum, self.dropped_cum, backlog, vq, x, y,
                          self.keys_total)
            if self.drift:
                self.rows += (self.lyap, self.lyap - self.lyap_prev)
        self.lyap_prev = self.lyap
        if self.check:
            self._check_invariants(t)

    def _metrics(self) -> MetricsRecord:
        in_flight = self.arrivals_cum - self.delivered_cum - self.dropped_cum
        series = None
        if self.rows is not None:
            width = len(_SERIES) if self.drift else len(_SERIES) - 2
            series = {
                name: np.asarray(self.rows[i::width], dtype=dtype) for i, (name, dtype) in enumerate(_SERIES[:width])
            }
        return MetricsRecord(
            policy=self.mode.label,
            scheduler=self.scheduler,
            horizon=self.horizon,
            seed=self.seed,
            nodes=self.g.n,
            edge_count=self.g.m,
            class_arrivals=self.class_arrivals,
            class_delivered=self.class_delivered,
            class_dropped=self.class_dropped,
            class_delay_sum=self.class_delay,
            in_flight=in_flight,
            mean_residual_keys=self.keys_running / self.horizon,
            mean_backlog=self.backlog_running / self.horizon,
            final_backlog=self.vq_total if self.virtual else float(in_flight),
            series=series,
        )

    # -- invariants ----------------------------------------------------------

    def _queued_records(self):
        if self.node_q is not None:
            for dq in self.node_q.values():
                yield from dq
            return
        for levels in self.x_q.values():
            for level in levels:
                for c in level:
                    yield c.record
        for q in self.y_q.values():
            for c in q:
                yield c.record

    def _check_invariants(self, t: int) -> None:
        live_by_class = dict.fromkeys(self.class_arrivals, 0)
        seen: set[int] = set()
        for rec in self._queued_records():
            if rec.dead or rec.id in seen:
                continue
            seen.add(rec.id)
            live_by_class[rec.cls_id] += 1

        for cid in self.class_arrivals:
            total = self.class_delivered[cid] + self.class_dropped[cid] + live_by_class[cid]
            if total != self.class_arrivals[cid]:
                raise InvariantViolation(
                    f"slot {t}: class {cid} conservation broke: "
                    f"{self.class_arrivals[cid]} arrivals vs {total} accounted"
                )

        bank = self.bank
        if bank is not None:
            bank.check_ledger()
        # backpressure's length table counts the packets each (class, node) queue holds
        if self.node_q is not None:
            n = self.g.n
            for key, length in enumerate(self.lens):
                if length != len(self.node_q.get(key, ())):
                    raise InvariantViolation(
                        f"slot {t}: the length table holds {length} for class {key // n} at node {key % n}, "
                        f"whose queue holds {len(self.node_q.get(key, ()))}"
                    )
        # the edge queues' running totals count the copies they hold, dead or alive
        elif (self.x_total, self.y_total) != (sum(self.x_len), sum(map(len, self.y_q.values()))):
            raise InvariantViolation(f"slot {t}: the queue totals differ from the copies the queues hold")
        if not self.virtual:
            return
        for e in self.g.qkd_edge_ids():
            if self.transmitted_encrypted[e] > self.moved_total[e]:
                raise InvariantViolation(f"slot {t}: edge {e} transmitted more than was encrypted")
            if self.storage:
                residual = bank.residual.item(e)
                if self.escrow[e] != bank.consumed_total.item(e) - self.moved_total[e]:
                    raise InvariantViolation(f"slot {t}: edge {e} escrow ledger broke")
                if self.x_tilde[e] > 0 and residual > 0:
                    raise InvariantViolation(
                        f"slot {t}: edge {e} has virtual backlog {self.x_tilde[e]} "
                        f"with {residual} idle banked keys"
                    )
                x_post = self.x_post_enc.get(e, 0)
                if x_post > self.x_tilde[e]:
                    raise InvariantViolation(
                        f"slot {t}: edge {e} physical backlog {x_post} "
                        f"exceeds virtual {self.x_tilde[e]}"
                    )


# ---------------------------------------------------------------------------
# entry point

def simulate(
    g: NetworkGraph,
    classes: Sequence[TrafficClass],
    mode: PolicyMode,
    *,
    keys: KeySpec | None = None,
    scheduler: str = "fifo",
    horizon: int = 10_000,
    seed: int = 0,
    queue_cap: int = 10_000,
    record_series: bool = True,
    series_stride: int = 1,
    check_invariants: bool = False,
    record_drift: bool = False,
) -> MetricsRecord:
    """Run one seeded simulation and return its metrics.

    Runs are deterministic: identical arguments yield identical records,
    including series bytes.  Every call checks its arguments in full, and
    the run routes with the router that ``_validate`` built.
    """
    for name, value in (("horizon", horizon), ("series_stride", series_stride), ("queue_cap", queue_cap)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if not classes:
        raise ValueError("at least one traffic class is required")
    if not isinstance(mode, (TandemMode, SingleQueueMode, BackpressureMode)):
        raise TypeError(f"unknown policy mode {mode!r}")
    router = _validate(g, sorted(classes, key=lambda c: c.id), mode, scheduler)
    keys = keys or KeySpec()
    _check_overrides(g, keys)
    return _Engine(
        router, mode, keys, scheduler, horizon, seed, queue_cap,
        record_series, series_stride, check_invariants, record_drift,
    ).run()
