"""Key generation processes, the key ledger, and a toy BB84 sampler.

Keys are fungible counters: one key unit encrypts exactly one packet.  One
``KeyBank`` holds the ledger of every edge (residual / generated / consumed
/ discarded) as arrays, so conservation can be checked after every
operation.  A ``KeySpec`` names each link's key process: truncated
Poisson at the link's own rate, a deterministic count, or toy BB84 rounds.
``KeySampler`` resolves every edge's process from the spec in one pass over
the edges, with no object per link, and computes each truncated-Poisson
link's inverse-CDF thresholds once, shared by its two directions.  The
BB84 backend models only basis sifting and intercept-resend detection; it
is an alternative source of per-slot key counts, not a cryptographic
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .topology import Edge

__all__ = [
    "KeyBank",
    "KeySpec",
    "KeySampler",
    "BB84Round",
    "bb84_round",
]


# ---------------------------------------------------------------------------
# key ledger

class KeyBank:
    """Counter-based store of unconsumed symmetric keys, for every edge at once.

    ``residual[e]`` holds edge e's banked keys; ``generated_total``,
    ``consumed_total`` and ``discarded_total`` count what went in and out,
    so residual = generated - consumed - discarded on every edge.  All four
    are int64 arrays over the edges.  Deposits and discards act on the
    whole vector in a fixed number of numpy steps.  ``withdraw`` names one
    edge, so per-edge work is paid only where keys are spent;
    ``withdraw_many`` books the withdrawals of many distinct edges (a
    slot's backpressure sends) as one vector step.
    """

    def __init__(self, m: int):
        ledger = np.zeros((4, m), dtype=np.int64)
        self.residual, self.generated_total, self.consumed_total, self.discarded_total = ledger
        self._banked = ledger[:2]  # residual and generated grow together on a deposit

    def deposit(self, counts: np.ndarray) -> None:
        """Add ``counts[e]`` fresh keys to every edge e."""
        if counts.min() < 0:
            raise ValueError("deposit counts must be >= 0")
        self._banked += counts

    def withdraw(self, edge: int, requested: int) -> int:
        """Grant min(requested, residual) at one edge; never overdraws."""
        if requested < 0:
            raise ValueError(f"withdraw count must be >= 0, got {requested}")
        granted = min(int(requested), self.residual.item(edge))
        if granted:
            self.residual[edge] -= granted
            self.consumed_total[edge] += granted
        return granted

    def withdraw_many(self, edges, requested) -> int:
        """Grant min(requested[i], residual) at each of the distinct ``edges``
        in one vector step; returns the total granted."""
        edges = np.asarray(edges, dtype=np.intp)
        requested = np.asarray(requested, dtype=np.int64)
        if requested.min(initial=0) < 0:
            raise ValueError("withdraw counts must be >= 0")
        granted = np.minimum(requested, self.residual[edges])
        self.residual[edges] -= granted
        self.consumed_total[edges] += granted
        return int(granted.sum())

    def discard_residual(self, keep: int = 0) -> None:
        """Throw away every edge's keys above ``keep``: backpressure's key
        cap, where 0 empties every bank."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        kept = np.minimum(self.residual, keep)
        self.discarded_total += self.residual - kept
        self.residual[:] = kept

    def check_ledger(self) -> None:
        assert np.array_equal(
            self.residual, self.generated_total - self.consumed_total - self.discarded_total
        )
        assert self.residual.min(initial=0) >= 0


# ---------------------------------------------------------------------------
# key processes

@dataclass(frozen=True)
class KeySpec:
    """Config-level selection of the per-edge key generation backend.

    ``truncated_poisson`` uses each edge's own mean rate; ``deterministic``
    needs an explicit value; ``bb84`` derives counts from toy protocol
    rounds and ignores the edge rate.  ``overrides`` swaps the backend for
    individual links, keyed by endpoint pair (either direction).
    """

    kind: str = "truncated_poisson"
    k_max: int = 20
    value: int | None = None
    photons: int = 8
    eavesdrop_prob: float = 0.0
    check_fraction: float = 0.0
    overrides: tuple[tuple[tuple[int, int], "KeySpec"], ...] = ()

    def __post_init__(self):
        # each message names the config field, as ``keys.<field>`` reads it
        if self.kind not in ("truncated_poisson", "deterministic", "bb84"):
            raise ValueError(f"process: unknown key process {self.kind!r}")
        if self.kind == "deterministic" and (self.value is None or self.value < 0):
            raise ValueError("value: deterministic keys need a value >= 0")
        if self.k_max < 1:
            raise ValueError("k_max: must be >= 1")
        if self.photons < 0:
            raise ValueError(f"photons: must be >= 0, got {self.photons}")
        for key in ("eavesdrop_prob", "check_fraction"):
            if not 0 <= getattr(self, key) <= 1:
                raise ValueError(f"{key}: must be in [0, 1], got {getattr(self, key)}")
        links: dict[frozenset, int] = {}  # each overridden link, either direction -> its first index
        for i, ((u, v), _) in enumerate(self.overrides):
            first = links.setdefault(frozenset((u, v)), i)
            if first != i:
                raise ValueError(f"overrides[{i}]: link ({u}, {v}) is already overridden by overrides[{first}]")


# ---------------------------------------------------------------------------
# BB84

@dataclass(frozen=True)
class BB84Round:
    sifted: int
    checked: int
    mismatches: int
    detected: bool
    sifted_keys: int


def bb84_round(
    photons: int,
    eavesdrop_prob: float,
    check_fraction: float,
    rng: np.random.Generator,
) -> BB84Round:
    """One prepare-and-measure round: sift on basis match, sample-check bits.

    Each photon survives sifting with probability 1/2 (independent uniform
    bases).  An intercept-resend eavesdropper flips each checked sifted bit
    with probability 1/4; any mismatch discards the whole round's key.
    """
    if photons < 0:
        raise ValueError("photons must be >= 0")
    if photons == 0:
        return BB84Round(0, 0, 0, False, 0)
    alice_bases = rng.integers(0, 2, photons)
    bob_bases = rng.integers(0, 2, photons)
    sifted_mask = alice_bases == bob_bases
    n_sifted = int(sifted_mask.sum())
    if n_sifted == 0:
        return BB84Round(0, 0, 0, False, 0)
    # Sifted bits are wrong only when Eve measured in the conjugate basis
    # (prob 1/2 given interception) and Bob's remeasurement came out flipped
    # (prob 1/2): a 1/4 error rate per intercepted bit.
    intercepted = rng.random(n_sifted) < eavesdrop_prob
    eve_wrong_basis = rng.integers(0, 2, n_sifted) == 1
    flipped = rng.integers(0, 2, n_sifted) == 1
    errors = intercepted & eve_wrong_basis & flipped
    checked = rng.random(n_sifted) < check_fraction
    n_checked = int(checked.sum())
    n_mismatch = int((checked & errors).sum())
    detected = n_mismatch > 0
    keys = 0 if detected else n_sifted - n_checked
    return BB84Round(n_sifted, n_checked, n_mismatch, detected, keys)


# ---------------------------------------------------------------------------
# samplers

# Uniforms drawn at a time for the truncated-Poisson links: whole slot rows
# of at most this many cells, so the temporaries stay small at any block
# size.  Chunking by whole rows never changes a draw.
_CHUNK_CELLS = 1 << 15


def _poisson_cdf_rows(rates: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Thresholds ``T[k, j] = P(X_j <= k)`` for X_j ~ Poisson(rates[j]),
    k < caps[j], as a (rows, links) array; every other entry is 2.0, which
    no uniform in [0, 1) reaches.

    Rows stop where a link's Poisson tail is far below a uniform's
    resolution (rate + 12 sqrt(rate) + 40), so an absurd cap costs no
    memory: the tail beyond is folded into the last row's count.  The bound
    is capped in floats before its cast, so a huge rate keeps its cap's rows.
    """
    ends = np.minimum(caps, np.minimum(np.ceil(rates + 12.0 * np.sqrt(rates)) + 40, 2.0**62).astype(np.int64))
    k = np.arange(int(ends.max(initial=0)))[:, None]
    lgam = np.array([math.lgamma(i + 1.0) for i in range(len(k))]).reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # k log(rate) is 0 * -inf at k = 0 for a rate-0 link, whose pmf is 1 there
        log_pmf = np.where(k == 0, 0.0, k * np.log(rates)) - rates - lgam
    rows = np.cumsum(np.exp(log_pmf), axis=0)
    rows[k >= ends] = 2.0
    return rows


class KeySampler:
    """Every link's key stream: the counts of all edges, slot by slot.

    Each edge's process is resolved from ``spec`` in one pass over
    ``edges``, a graph's edges in id order (an edge's id is its column of
    the block): none on a keyless edge (its count is always 0), else the
    process of its link's override (either direction) or of ``spec``.  A
    truncated-Poisson link's inverse-CDF thresholds P(X <= k), k < cap, are
    computed once per link: the edges that share a ``pair`` (an undirected
    link's two directions, with one rate and one override) share one
    threshold column, copied to each edge's column of the block.

    Every truncated-Poisson edge draws from the one generator ``rng``: one
    uniform per (slot, edge), in slot order and edge order within a slot,
    turned into a count by inverse CDF (the number of its thresholds that
    the uniform reaches).  So the edges' counts are independent
    truncated-Poisson draws, and drawing n slots then n' gives what drawing
    n + n' at once gives.  A deterministic edge needs no stream; each BB84
    edge runs its toy rounds on its own generator, spawned from ``seeds``
    once the pass has counted them, one per BB84 edge in edge order.
    """

    __slots__ = ("rng", "bb84", "poisson_cols", "thresholds", "row_min", "count_dtype", "constant", "dtype", "block")

    def __init__(self, spec: KeySpec, edges: Sequence[Edge], rng: np.random.Generator,
                 seeds: np.random.SeedSequence):
        self.rng = rng
        by_link = {(min(a, b), max(a, b)): sub for (a, b), sub in spec.overrides}
        self.constant = np.zeros(len(edges), dtype=np.int64)  # keyless and deterministic edges' counts
        ids, cols, rates, caps, bb84 = [], [], [], [], []
        link_col: dict[int, int] = {}  # a truncated-Poisson link's pair -> its threshold column
        for e in edges:
            if not e.has_qkd:
                continue
            col = link_col.get(e.pair)
            if col is None:
                sub = by_link.get((e.u, e.v) if e.u < e.v else (e.v, e.u), spec)
                if sub.kind == "deterministic":
                    self.constant[e.id] = sub.value
                    continue
                if sub.kind == "bb84":
                    bb84.append((e.id, sub))
                    continue
                col = link_col[e.pair] = len(rates)
                rates.append(e.eta)
                caps.append(sub.k_max)
            ids.append(e.id)
            cols.append(col)
        self.bb84 = [(e, sub, np.random.default_rng(s)) for (e, sub), s in zip(bb84, seeds.spawn(len(bb84)))]
        # their columns of the block, as a slice when they run unbroken (a faster write)
        # (ids rise, so they run unbroken when they span no more than their count)
        self.poisson_cols = slice(ids[0], ids[-1] + 1) if ids and ids[-1] - ids[0] == len(ids) - 1 else ids
        per_link = _poisson_cdf_rows(np.array(rates, dtype=float), np.array(caps, dtype=np.int64))
        # take keeps the rows contiguous (per_link[:, cols] would not), which each slot's row compares read
        self.thresholds = per_link.take(cols, axis=1)
        self.row_min = per_link.min(axis=1, initial=2.0)
        # a slot's count never exceeds its process's cap; int32 holds every cap but absurd ones
        cap = max(max(caps, default=0), max((sub.k_max for _, sub in bb84), default=0), self.constant.max(initial=0))
        self.dtype = np.int32 if cap < 2**31 else np.int64
        # a count never exceeds the threshold rows, so a byte holds it unless a cap is absurd
        self.count_dtype = np.uint8 if len(per_link) < 256 else self.dtype
        self.block = np.empty((0, len(edges)), dtype=self.dtype)

    def sample_batch(self, nslots: int) -> np.ndarray:
        """Key counts of the next ``nslots`` slots, an (nslots, edges) array.

        The array is the sampler's own buffer, overwritten by the next call.
        """
        if nslots > len(self.block):
            self.block = np.empty((nslots, len(self.constant)), dtype=self.dtype)
            self.block[:] = self.constant
        block = self.block[:nslots]
        ids, thresholds = self.poisson_cols, self.thresholds
        width = thresholds.shape[1]
        if width:
            step = max(1, _CHUNK_CELLS // width)
            for t0 in range(0, nslots, step):
                u = self.rng.random((min(step, nslots - t0), width))
                top = u.max()
                counts = np.zeros(u.shape, dtype=self.count_dtype)
                for row, low in zip(thresholds, self.row_min):
                    if low > top:  # no uniform reaches this row, nor any row after it
                        break
                    counts += u >= row
                block[t0 : t0 + len(u), ids] = counts
        for e, sub, rng in self.bb84:
            for t in range(nslots):
                block[t, e] = min(bb84_round(sub.photons, sub.eavesdrop_prob, sub.check_fraction, rng).sifted_keys,
                                  sub.k_max)
        return block
