"""Capacity oracle, stability detection, and run statistics.

The supportable-rate boundary for a single unicast class is the s-t
max-flow of the graph capacitated at min(gamma, eta) per edge.  Stability
verdicts come from the least-squares slope of a trailing window of the
backlog series.  Multi-class experiments use constructed feasible flows
(fixed min-hop paths, uniform rate scaled to the tightest edge) so the
distance to the boundary is known by construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import MetricsRecord
from .routing import UnreachableError, fewest_hop_path
from .topology import NetworkGraph, capacitated_transform
from .traffic import TrafficClass, Unicast

__all__ = [
    "CapacityVerdict",
    "unicast_capacity",
    "StabilityVerdict",
    "stability_test",
    "constructed_uniform_boundary",
    "RunSummary",
    "summarize",
]


# ---------------------------------------------------------------------------
# capacity oracle

@dataclass(frozen=True)
class CapacityVerdict:
    lambda_star: float
    edge_loads: dict[int, float]


def unicast_capacity(g: NetworkGraph, s: int, t: int) -> CapacityVerdict:
    """Boundary rate for one s-t unicast class: max-flow at min(gamma, eta)."""
    if s == t:
        raise ValueError("source and destination must differ")
    omega = capacitated_transform(g)
    cap: dict[int, dict[int, float]] = {v: {} for v in range(g.n)}
    for e in g.edges:
        cap[e.u][e.v] = cap[e.u].get(e.v, 0.0) + omega[e.id]
        cap[e.v].setdefault(e.u, 0.0)
    flow = {u: dict.fromkeys(nbrs, 0.0) for u, nbrs in cap.items()}

    def bfs_augmenting_path() -> list[int] | None:
        parent = {s: s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in cap[u]:
                if v not in parent and cap[u][v] - flow[u][v] > 1e-12:
                    parent[v] = u
                    if v == t:
                        path = [t]
                        while path[-1] != s:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(v)
        return None

    value = 0.0
    while True:
        path = bfs_augmenting_path()
        if path is None:
            break
        bottleneck = min(cap[u][v] - flow[u][v] for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            flow[u][v] += bottleneck
            flow[v][u] -= bottleneck
        value += bottleneck

    loads = {}
    for e in g.edges:
        f = flow[e.u][e.v]
        if f > 1e-12:
            loads[e.id] = f
    return CapacityVerdict(lambda_star=value, edge_loads=loads)


def constructed_uniform_boundary(
    g: NetworkGraph, classes: Sequence[TrafficClass]
) -> tuple[float, dict[int, list[int]]]:
    """Largest uniform per-class rate feasible on fixed min-hop paths.

    Returns (rate, per-class edge lists).  Any uniform rate strictly below
    the returned value is interior by construction.  Key-encrypted classes
    consume min(gamma, eta) budget; plain classes only link capacity.
    """
    omega = capacitated_transform(g)
    paths: dict[int, list[int]] = {}
    for cls in classes:
        if not isinstance(cls.kind, Unicast):
            raise ValueError("constructed boundary supports unicast classes only")
        allowed = g.key_mask if cls.security == "quantum" else None
        route = fewest_hop_path(g, cls.source, (cls.kind.destination,), allowed)
        if route is None:
            raise UnreachableError(f"class {cls.id}: node {cls.kind.destination} unreachable from {cls.source}")
        paths[cls.id] = list(route.edges)
    q_load = [0] * g.m
    all_load = [0] * g.m
    for cls in classes:
        for e in paths[cls.id]:
            all_load[e] += 1
            if cls.security == "quantum":
                q_load[e] += 1
    rate = math.inf
    for e in range(g.m):
        if q_load[e]:
            rate = min(rate, omega[e] / q_load[e])
        if all_load[e]:
            rate = min(rate, g.edges[e].gamma / all_load[e])
    if not math.isfinite(rate):
        raise ValueError("no class loads any edge")
    return rate, paths


# ---------------------------------------------------------------------------
# stability

@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "unstable" | "inconclusive"
    slope: float


def stability_test(
    series: Sequence[float] | np.ndarray,
    window: int = 20_000,
    slope_tol: float = 1e-3,
) -> StabilityVerdict:
    """Classify a backlog series by its trailing-window least-squares slope.

    Stable when the slope is below ``slope_tol`` (packets per row),
    unstable above ten times that, inconclusive in between.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if len(arr) < 2 * window:
        raise ValueError(f"series too short: need at least {2 * window} points, got {len(arr)}")
    tail = arr[-window:]
    x = np.arange(window, dtype=float)
    slope = float(np.polyfit(x, tail, 1)[0])
    if slope < slope_tol:
        verdict = "stable"
    elif slope > 10 * slope_tol:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict=verdict, slope=slope)


# ---------------------------------------------------------------------------
# run statistics

@dataclass(frozen=True)
class RunSummary:
    policy: str
    seeds: tuple[int, ...]
    per_class: dict[int, dict[str, float | None]]
    delivered_rate_mean: float
    delivered_rate_se: float
    mean_delay_mean: float | None
    mean_delay_se: float | None
    residual_keys_mean: float
    residual_keys_se: float
    dropped_total: int

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "seeds": list(self.seeds),
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "delivered_rate_mean": self.delivered_rate_mean,
            "delivered_rate_se": self.delivered_rate_se,
            "mean_delay_mean": self.mean_delay_mean,
            "mean_delay_se": self.mean_delay_se,
            "residual_keys_mean": self.residual_keys_mean,
            "residual_keys_se": self.residual_keys_se,
            "dropped_total": self.dropped_total,
        }


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if len(arr) < 2:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def summarize(records: Sequence[MetricsRecord]) -> RunSummary:
    """Aggregate independent seeded runs of the same experiment cell.

    Delay means are reported as None (absent) when nothing was delivered,
    never as zero.
    """
    if not records:
        raise ValueError("need at least one record")
    policy = records[0].policy
    if any(r.policy != policy for r in records):
        raise ValueError("records mix different policies")
    for r in records:
        if r.total_arrivals != r.total_delivered + r.total_dropped + r.in_flight:
            raise ValueError(f"record (seed {r.seed}) does not conserve packets")

    per_class: dict[int, dict[str, float | None]] = {}
    for cid in sorted(records[0].class_arrivals):
        rates = [r.class_delivered[cid] / r.horizon for r in records]
        delays = [r.mean_delay(cid) for r in records if r.mean_delay(cid) is not None]
        rate_m, rate_se = _mean_se(rates)
        delay_m, delay_se = _mean_se(delays) if delays else (None, None)
        per_class[cid] = {
            "delivered_rate_mean": rate_m,
            "delivered_rate_se": rate_se,
            "mean_delay_mean": delay_m,
            "mean_delay_se": delay_se,
        }

    rate_m, rate_se = _mean_se([r.delivered_rate() for r in records])
    delays = [r.mean_delay() for r in records if r.mean_delay() is not None]
    delay_m, delay_se = _mean_se(delays) if delays else (None, None)
    keys_m, keys_se = _mean_se([r.mean_residual_keys for r in records])
    return RunSummary(
        policy=policy,
        seeds=tuple(r.seed for r in records),
        per_class=per_class,
        delivered_rate_mean=rate_m,
        delivered_rate_se=rate_se,
        mean_delay_mean=delay_m,
        mean_delay_se=delay_se,
        residual_keys_mean=keys_m,
        residual_keys_se=keys_se,
        dropped_total=sum(r.total_dropped for r in records),
    )
