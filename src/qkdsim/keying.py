"""Key generation processes, the key ledger, and a toy BB84 sampler.

Keys are fungible counters: one key unit encrypts exactly one packet.  One
``KeyBank`` holds the ledger of every edge (residual / generated / consumed
/ discarded) as arrays, so conservation can be checked after every
operation.  The BB84 backend models only basis
sifting and intercept-resend detection; it is an alternative source of
per-slot key counts, not a cryptographic implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

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

    def process_for_edge(self, u: int, v: int, eta: float) -> KeyProcess:
        for (a, b), spec in self.overrides:
            if {a, b} == {u, v}:
                return spec.process_for(eta)
        return self.process_for(eta)


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

class KeySampler:
    """Stateful per-edge key stream bound to one seeded generator."""

    __slots__ = ("process", "rng")

    def __init__(self, process: KeyProcess, rng: np.random.Generator):
        self.process = process
        self.rng = rng

    def sample_batch(self, nslots: int) -> np.ndarray:
        """Key counts of the next ``nslots`` slots."""
        p = self.process
        if isinstance(p, DeterministicKeys):
            return np.full(nslots, p.value, dtype=np.int64)
        if isinstance(p, TruncatedPoisson):
            return np.minimum(self.rng.poisson(p.rate, nslots), p.cap).astype(np.int64)
        out = np.empty(nslots, dtype=np.int64)
        for t in range(nslots):
            out[t] = min(bb84_round(p.photons, p.eavesdrop_prob, p.check_fraction, self.rng).sifted_keys, p.cap)
        return out
