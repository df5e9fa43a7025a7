"""Deterministic random number streams.

An :class:`Rng` is numpy's ``Generator`` on the counter-based Philox bit
generator seeded by ``SeedSequence(seed)``, so a given seed produces the same
stream on every platform and every run; every draw is numpy's own method. It
adds named child streams and a categorical draw. An :class:`Rng` is not meant
to be shared between threads; derive a named child stream per worker instead.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, name: str) -> int:
    """Stable 64-bit child seed for (seed, name)."""
    digest = hashlib.sha256(f"{int(seed)}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Rng(np.random.Generator):
    """Seeded Philox stream with named child derivation."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        super().__init__(np.random.Philox(np.random.SeedSequence(self.seed)))

    def child(self, name: str) -> "Rng":
        """Independent stream keyed by name; stable across runs and platforms."""
        return Rng(derive_seed(self.seed, name))

    def categorical(self, weights: np.ndarray) -> int:
        """Draw an index proportionally to nonnegative weights."""
        w = np.asarray(weights, dtype=np.float64)
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            raise ValueError("categorical weights must sum to a positive finite value")
        edges = np.cumsum(w / total)
        return int(np.searchsorted(edges, self.uniform(0.0, 1.0), side="right").clip(0, len(w) - 1))
