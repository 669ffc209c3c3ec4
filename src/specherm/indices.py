"""Multi-index bookkeeping for the twisted-Laplacian eigenbasis.

A basis mode is labelled by a pair of multi-indices (mu, nu); the
eigenvalue of the mode depends only on |nu| and the dimension.
Truncations enumerate all pairs up to a degree cap in a fixed
graded-lexicographic order so that matrix layouts are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np


@dataclass(frozen=True)
class MultiIndex:
    """An element of N_0^n."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("multi-index must have at least one entry")
        if any((not isinstance(e, int)) or e < 0 for e in self.entries):
            raise ValueError(f"multi-index entries must be non-negative ints, got {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)


@dataclass(frozen=True)
class MultiIndexPair:
    """Label (mu, nu) of a twisted-Laplacian eigenmode; eigenvalue 2|nu| + n."""

    mu: MultiIndex
    nu: MultiIndex

    def __post_init__(self):
        if self.mu.n != self.nu.n:
            raise ValueError(f"dimension mismatch: {self.mu.n} vs {self.nu.n}")

    @property
    def n(self) -> int:
        return self.mu.n

    def eigenvalue(self) -> int:
        return 2 * self.nu.degree + self.n


def multi_indices(n: int, k_max: int) -> list[MultiIndex]:
    """All multi-indices of length ``n`` and degree <= ``k_max``, graded-lex ordered."""
    if n < 1 or k_max < 0:
        raise ValueError("need n >= 1 and k_max >= 0")
    out = []
    for deg in range(k_max + 1):
        for combo in product(range(deg + 1), repeat=n):
            if sum(combo) == deg:
                out.append(MultiIndex(combo))
    return out


@dataclass(frozen=True)
class Truncation:
    """Every mode with |mu|, |nu| <= k_max, in deterministic order.

    Equality and hashing see only (n, k_max), from which the index set follows.
    The order is graded-lexicographic in mu, then in nu, so the layout of
    coefficient vectors and Gram matrices is reproducible across runs.
    """

    n: int
    k_max: int

    def __post_init__(self):
        self.index_set  # an invalid (n, k_max) raises here, at construction

    @cached_property
    def index_set(self) -> tuple[MultiIndexPair, ...]:
        singles = multi_indices(self.n, self.k_max)
        return tuple(MultiIndexPair(mu, nu) for mu in singles for nu in singles)

    def __len__(self) -> int:
        return len(self.index_set)

    def position(self, pair: MultiIndexPair) -> int:
        return self.index_set.index(pair)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue 2|nu| + n of every pair, in order: one read-only array shared by every caller."""
        return self._eigenvalues

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        lam = np.array([p.eigenvalue() for p in self.index_set], dtype=np.int64)
        lam.setflags(write=False)
        return lam

    @cached_property
    def level_blocks(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The distinct eigenvalues in ascending order and the positions of the pairs at each: read-only, shared."""
        lam = self._eigenvalues
        levels = np.unique(lam)
        blocks = tuple(np.flatnonzero(lam == level) for level in levels)
        for a in (levels, *blocks):
            a.setflags(write=False)
        return levels, blocks


def enumerate_pairs(n: int, k_max: int) -> Truncation:
    """Truncation holding every pair (mu, nu) with |mu|, |nu| <= k_max."""
    return Truncation(n, k_max)
