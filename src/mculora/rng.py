"""Deterministic random number streams.

Built on numpy's counter-based Philox generator, so a given seed produces the
same stream on every platform and every run. An :class:`Rng` is not meant to
be shared between threads; derive a named child stream per worker instead.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, name: str) -> int:
    """Stable 64-bit child seed for (seed, name)."""
    digest = hashlib.sha256(f"{int(seed)}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Rng:
    """Seeded Philox stream with named child derivation."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))

    def child(self, name: str) -> "Rng":
        """Independent stream keyed by name; stable across runs and platforms."""
        return Rng(derive_seed(self.seed, name))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def standard_normal(self, out: np.ndarray) -> np.ndarray:
        """Fill the float64 array `out` with the draws ``normal(size=out.shape)`` gives; returns it."""
        return self._gen.standard_normal(out=out)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def categorical(self, weights: np.ndarray) -> int:
        """Draw an index proportionally to nonnegative weights."""
        w = np.asarray(weights, dtype=np.float64)
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            raise ValueError("categorical weights must sum to a positive finite value")
        edges = np.cumsum(w / total)
        return int(np.searchsorted(edges, self._gen.uniform(0.0, 1.0), side="right").clip(0, len(w) - 1))
