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

from .grids import _read_only


def multi_indices(n: int, k_max: int) -> np.ndarray:
    """All multi-indices of length ``n`` and degree <= ``k_max``, graded-lex ordered, one per row."""
    if n < 1 or k_max < 0:
        raise ValueError("need n >= 1 and k_max >= 0")
    rows = [combo for deg in range(k_max + 1) for combo in product(range(deg + 1), repeat=n) if sum(combo) == deg]
    return np.array(rows, dtype=np.int64)


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
        self.mu  # an invalid (n, k_max) raises here, at construction

    @cached_property
    def mu(self) -> np.ndarray:
        """First multi-index of every pair, one row each (the slower-varying one): read-only, shared."""
        singles = multi_indices(self.n, self.k_max)
        return _read_only(np.repeat(singles, len(singles), axis=0))

    @cached_property
    def nu(self) -> np.ndarray:
        """Second multi-index of every pair, one row each: read-only, shared."""
        singles = multi_indices(self.n, self.k_max)
        return _read_only(np.tile(singles, (len(singles), 1)))

    def __len__(self) -> int:
        return len(self.mu)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue 2|nu| + n of every pair, in order: one read-only array shared by every caller."""
        return self._eigenvalues

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        return _read_only(2 * self.nu.sum(axis=1) + self.n)

    @cached_property
    def level_blocks(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The distinct eigenvalues in ascending order and the positions of the pairs at each: read-only, shared."""
        lam = self._eigenvalues
        levels = _read_only(np.unique(lam))
        return levels, tuple(_read_only(np.flatnonzero(lam == level)) for level in levels)


def enumerate_pairs(n: int, k_max: int) -> Truncation:
    """Truncation holding every pair (mu, nu) with |mu|, |nu| <= k_max."""
    return Truncation(n, k_max)
