"""Traffic classes and slotted arrival-process generators.

Three processes are provided: Bernoulli and truncated-Poisson i.i.d.
arrivals, and a bursty self-similar generator built from superposed
Pareto ON/OFF sources (the usual slotted realization of a Poisson-Pareto
burst process).  Every process is hard-capped per slot, and every stream
owns its RNG state so runs are reproducible and streams independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Unicast",
    "Broadcast",
    "Multicast",
    "Anycast",
    "TrafficKind",
    "Bernoulli",
    "TruncatedPoisson",
    "PPBP",
    "ArrivalProcess",
    "TrafficClass",
    "ArrivalSampler",
    "ppbp_state_advance",
    "truncated_pareto_mean",
]


# ---------------------------------------------------------------------------
# traffic kinds

@dataclass(frozen=True)
class Unicast:
    destination: int


@dataclass(frozen=True)
class Broadcast:
    """Deliver to every node except the source."""


@dataclass(frozen=True)
class Multicast:
    destinations: tuple[int, ...]


@dataclass(frozen=True)
class Anycast:
    candidates: tuple[int, ...]


TrafficKind = Union[Unicast, Broadcast, Multicast, Anycast]


# ---------------------------------------------------------------------------
# arrival processes

@dataclass(frozen=True)
class Bernoulli:
    """At most one packet per slot, with probability ``rate``."""

    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"Bernoulli rate must be in [0,1], got {self.rate}")

    @property
    def mean(self) -> float:
        return self.rate

    @property
    def cap(self) -> int:
        return 1


@dataclass(frozen=True)
class TruncatedPoisson:
    """Poisson(rate) counts clipped at ``cap`` to keep arrivals bounded."""

    rate: float
    cap: int = 4

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    @property
    def mean(self) -> float:
        # E min(X, cap) = sum_{k=0..cap-1} P(X > k); exact, so tests can
        # compare against the truncation-adjusted value.
        lam = self.rate
        total = 0.0
        tail = 1.0 - math.exp(-lam)
        pmf = math.exp(-lam)
        for k in range(self.cap):
            total += tail
            pmf = pmf * lam / (k + 1)
            tail -= pmf
        return total


def truncated_pareto_mean(shape: float, scale: float, cap: int) -> float:
    """Exact mean of min(ceil(X), cap) for X ~ Pareto(shape, scale)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    total = 0.0
    for k in range(cap):
        total += 1.0 if k < scale else (scale / k) ** shape
    return total


@dataclass(frozen=True)
class PPBP:
    """Superposition of Pareto ON/OFF sources emitting bursty traffic.

    Each source alternates ON periods (Pareto shape ``3 - 2*hurst``) and OFF
    periods (Pareto shape ``off_shape``) and emits ``burst_rate`` packets per
    ON slot, at most ``max_packets_per_burst`` per burst.  Periods are
    ceiled to whole slots and truncated at ``on_cap``/``off_cap`` so the
    implied mean rate is exactly computable.
    """

    sources: int = 4
    burst_rate: int = 1
    hurst: float = 0.8
    off_shape: float = 1.2
    mean_burst_slots: float = 5.0
    mean_sleep_slots: float = 25.0
    max_packets_per_burst: int = 5000
    off_cap: int = 10_000
    slot_cap: int = 64

    def __post_init__(self):
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(f"hurst must be in (0.5, 1), got {self.hurst}")
        if self.sources < 1 or self.burst_rate < 1:
            raise ValueError("sources and burst_rate must be >= 1")
        if self.max_packets_per_burst < 1:
            raise ValueError("max_packets_per_burst must be >= 1")

    @property
    def on_shape(self) -> float:
        return 3.0 - 2.0 * self.hurst

    @property
    def on_cap(self) -> int:
        # A burst cannot outlive its packet budget.
        return max(1, -(-self.max_packets_per_burst // self.burst_rate))

    @property
    def on_scale(self) -> float:
        return self.mean_burst_slots * (self.on_shape - 1.0) / self.on_shape

    @property
    def off_scale(self) -> float:
        return self.mean_sleep_slots * (self.off_shape - 1.0) / self.off_shape

    @property
    def mean(self) -> float:
        # Exact when max_packets_per_burst is a multiple of burst_rate
        # (a budget remainder trims the final slot of capped bursts).
        e_on = truncated_pareto_mean(self.on_shape, self.on_scale, self.on_cap)
        e_off = truncated_pareto_mean(self.off_shape, self.off_scale, self.off_cap)
        return self.sources * self.burst_rate * e_on / (e_on + e_off)

    @property
    def cap(self) -> int:
        return min(self.slot_cap, self.sources * self.burst_rate)


ArrivalProcess = Union[Bernoulli, TruncatedPoisson, PPBP]


# ---------------------------------------------------------------------------
# traffic classes

@dataclass(frozen=True)
class TrafficClass:
    id: int
    source: int
    kind: TrafficKind
    arrival: ArrivalProcess
    security: str = "quantum"  # "quantum" | "classical"
    priority: int = 0

    def __post_init__(self):
        if self.security not in ("quantum", "classical"):
            raise ValueError(f"security must be 'quantum' or 'classical', got {self.security!r}")
        dests = self.destination_nodes(n=None)
        if dests is not None:
            if not dests:
                raise ValueError(f"class {self.id}: destination set is empty")
            if self.source in dests:
                raise ValueError(f"class {self.id}: destination set contains the source")

    def destination_nodes(self, n: int | None) -> frozenset[int] | None:
        """Destination set; broadcast needs the node count (None if unknown)."""
        if isinstance(self.kind, Unicast):
            return frozenset((self.kind.destination,))
        if isinstance(self.kind, Multicast):
            return frozenset(self.kind.destinations)
        if isinstance(self.kind, Anycast):
            return frozenset(self.kind.candidates)
        if n is None:
            return None
        return frozenset(range(n)) - {self.source}


# ---------------------------------------------------------------------------
# samplers

def _pareto_slots(rng: np.random.Generator, shape: float, scale: float, cap: int) -> int:
    # Inverse-CDF Pareto, ceiled to whole slots and truncated.
    x = scale / rng.random() ** (1.0 / shape)
    return min(int(math.ceil(x)), cap)


@dataclass
class _SourceState:
    on: bool
    remaining: int
    burst_budget: int


def _fresh_source(proc: PPBP, rng: np.random.Generator) -> _SourceState:
    return _SourceState(
        on=False,
        remaining=_pareto_slots(rng, proc.off_shape, proc.off_scale, proc.off_cap),
        burst_budget=0,
    )


def ppbp_state_advance(
    proc: PPBP, states: list[_SourceState], rng: np.random.Generator
) -> tuple[list[_SourceState], int]:
    """Advance every source one slot; returns (states, packet count)."""
    count = 0
    for st in states:
        if st.remaining <= 0:
            if st.on:
                st.on = False
                st.remaining = _pareto_slots(rng, proc.off_shape, proc.off_scale, proc.off_cap)
            else:
                st.on = True
                st.remaining = _pareto_slots(rng, proc.on_shape, proc.on_scale, proc.on_cap)
                st.burst_budget = proc.max_packets_per_burst
        if st.on:
            emit = min(proc.burst_rate, st.burst_budget)
            st.burst_budget -= emit
            count += emit
        st.remaining -= 1
    return states, min(count, proc.cap)


class ArrivalSampler:
    """Stateful per-class arrival stream bound to one seeded generator."""

    def __init__(self, process: ArrivalProcess, rng: np.random.Generator):
        self.process = process
        self.rng = rng
        if isinstance(process, PPBP):
            self._states = [_fresh_source(process, rng) for _ in range(process.sources)]

    def sample_batch(self, nslots: int) -> np.ndarray:
        """Arrival counts of the next ``nslots`` slots."""
        p = self.process
        if isinstance(p, Bernoulli):
            return (self.rng.random(nslots) < p.rate).astype(np.int64)
        if isinstance(p, TruncatedPoisson):
            return np.minimum(self.rng.poisson(p.rate, nslots), p.cap).astype(np.int64)
        out = np.empty(nslots, dtype=np.int64)
        for t in range(nslots):
            self._states, out[t] = ppbp_state_advance(p, self._states, self.rng)
        return out
