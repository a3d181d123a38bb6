"""Key generation processes, the key ledger, and a toy BB84 sampler.

Keys are fungible counters: one key unit encrypts exactly one packet.  One
``KeyBank`` holds the ledger of every edge (residual / generated / consumed
/ discarded) as arrays, so conservation can be checked after every
operation.  The BB84 backend models only basis
sifting and intercept-resend detection; it is an alternative source of
per-slot key counts, not a cryptographic implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .topology import Edge
from .traffic import TruncatedPoisson

__all__ = [
    "KeyBank",
    "DeterministicKeys",
    "BB84Toy",
    "KeyProcess",
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
class DeterministicKeys:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value must be >= 0")

    @property
    def mean(self) -> float:
        return float(self.value)

    @property
    def cap(self) -> int:
        return self.value


@dataclass(frozen=True)
class BB84Toy:
    """Per-slot key counts from repeated toy BB84 rounds."""

    photons: int = 8
    eavesdrop_prob: float = 0.0
    check_fraction: float = 0.0
    cap: int = 20

    def __post_init__(self):
        if self.photons < 0:
            raise ValueError("photons must be >= 0")
        if not 0.0 <= self.eavesdrop_prob <= 1.0:
            raise ValueError("eavesdrop_prob must be in [0,1]")
        if not 0.0 <= self.check_fraction <= 1.0:
            raise ValueError("check_fraction must be in [0,1]")

    @property
    def mean(self) -> float:
        # Sifting keeps half the photons; checked bits are revealed and, if
        # eavesdropping was detected, the whole round is discarded.
        p_clean_bit = 1.0 - self.eavesdrop_prob * 0.25 * self.check_fraction
        p_round_clean = p_clean_bit ** (self.photons * 0.5)
        return 0.5 * self.photons * (1.0 - self.check_fraction) * p_round_clean


KeyProcess = Union[DeterministicKeys, TruncatedPoisson, BB84Toy]


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

    def process_for(self, eta: float) -> KeyProcess:
        if self.kind == "truncated_poisson":
            return TruncatedPoisson(eta, self.k_max)
        if self.kind == "deterministic":
            return DeterministicKeys(self.value)
        return BB84Toy(self.photons, self.eavesdrop_prob, self.check_fraction, self.k_max)

    def processes(self, edges: Sequence[Edge]) -> list[KeyProcess | None]:
        """Each edge's key process, for a graph's edges in id order: ``None``
        on a keyless edge, else the process of its link's override (either
        direction) or of this spec.

        One pass over the edges, with the overrides read from a map by
        unordered endpoint pair.  A link's two directions share its eta and
        its override, so the second takes the first's (immutable) process.
        """
        by_link = {(min(a, b), max(a, b)): spec for (a, b), spec in self.overrides}
        out: list[KeyProcess | None] = []
        for e in edges:
            if not e.has_qkd:
                out.append(None)
            elif e.twin is not None and e.twin < e.id:
                out.append(out[e.twin])
            else:
                out.append(by_link.get((e.u, e.v) if e.u < e.v else (e.v, e.u), self).process_for(e.eta))
        return out


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
    memory: the tail beyond is folded into the last row's count.
    """
    ends = np.minimum(caps, np.ceil(rates + 12.0 * np.sqrt(rates)).astype(np.int64) + 40)
    k = np.arange(int(ends.max(initial=0)))[:, None]
    lgam = np.array([math.lgamma(i + 1.0) for i in range(len(k))]).reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # k log(rate) is 0 * -inf at k = 0 for a rate-0 link, whose pmf is 1 there
        log_pmf = np.where(k == 0, 0.0, k * np.log(rates)) - rates - lgam
    rows = np.cumsum(np.exp(log_pmf), axis=0)
    rows[k >= ends] = 2.0
    return rows


class KeySampler:
    """Every link's key stream: the counts of all links, slot by slot.

    ``processes`` holds one entry per link (``None`` for a keyless link,
    whose count is always 0).  Every truncated-Poisson link draws from the
    one generator ``rng``: one uniform per (slot, link), in slot order and
    link order within a slot, turned into a count by inverse CDF (the
    number of the link's thresholds P(X <= k), k < cap, that it reaches).
    So the links' counts are independent truncated-Poisson draws, and
    drawing n slots then n' gives what drawing n + n' at once gives.  A
    deterministic link needs no stream; each BB84 link runs its toy rounds
    on its own generator from ``bb84_rngs``, one per BB84 link in link
    order.
    """

    __slots__ = ("rng", "bb84", "poisson_cols", "thresholds", "row_min", "count_dtype", "constant", "dtype", "block")

    def __init__(self, processes: Sequence[KeyProcess | None], rng: np.random.Generator,
                 bb84_rngs: Sequence[np.random.Generator] = ()):
        self.rng = rng
        # sort the links into the Poisson columns, the BB84 links and the constant counts in one pass
        ids, rates, caps, bb84 = [], [], [], []
        self.constant = np.zeros(len(processes), dtype=np.int64)  # keyless and deterministic links' counts
        for e, p in enumerate(processes):
            if isinstance(p, TruncatedPoisson):
                ids.append(e)
                rates.append(p.rate)
                caps.append(p.cap)
            elif isinstance(p, BB84Toy):
                bb84.append((e, p))
            elif p is not None:
                self.constant[e] = p.value
        if len(bb84) != len(bb84_rngs):
            raise ValueError(f"{len(bb84)} BB84 links need as many generators, got {len(bb84_rngs)}")
        self.bb84 = [(e, p, r) for (e, p), r in zip(bb84, bb84_rngs)]
        # their columns of the block, as a slice when they run unbroken (a faster write)
        self.poisson_cols = slice(ids[0], ids[-1] + 1) if ids and ids == list(range(ids[0], ids[-1] + 1)) else ids
        self.thresholds = _poisson_cdf_rows(np.array(rates, dtype=float), np.array(caps, dtype=np.int64))
        self.row_min = self.thresholds.min(axis=1, initial=2.0)
        # a slot's count never exceeds its process's cap; int32 holds every cap but absurd ones
        cap = max(max(caps, default=0), max((p.cap for _, p in bb84), default=0), self.constant.max(initial=0))
        self.dtype = np.int32 if cap < 2**31 else np.int64
        # a count never exceeds the threshold rows, so a byte holds it unless a cap is absurd
        self.count_dtype = np.uint8 if len(self.thresholds) < 256 else self.dtype
        self.block = np.empty((0, len(processes)), dtype=self.dtype)

    def sample_batch(self, nslots: int) -> np.ndarray:
        """Key counts of the next ``nslots`` slots, an (nslots, links) array.

        The array is the sampler's own buffer, overwritten by the next call.
        """
        if nslots > len(self.block):
            self.block = np.empty((nslots, len(self.constant)), dtype=self.dtype)
            self.block[:] = self.constant
        block = self.block[:nslots]
        ids, thresholds = self.poisson_cols, self.thresholds
        links = thresholds.shape[1]
        if links:
            step = max(1, _CHUNK_CELLS // links)
            for t0 in range(0, nslots, step):
                u = self.rng.random((min(step, nslots - t0), links))
                top = u.max()
                counts = np.zeros(u.shape, dtype=self.count_dtype)
                for row, low in zip(thresholds, self.row_min):
                    if low > top:  # no uniform reaches this row, nor any row after it
                        break
                    counts += u >= row
                block[t0 : t0 + len(u), ids] = counts
        for e, p, rng in self.bb84:
            for t in range(nslots):
                block[t, e] = min(bb84_round(p.photons, p.eavesdrop_prob, p.check_fraction, rng).sifted_keys, p.cap)
        return block
