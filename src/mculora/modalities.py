"""Modalities and modality combinations.

Three modalities are supported: audio ``a``, text ``t``, vision ``v``.
A :class:`Combo` is a nonempty subset of them, stored as a bitmask, so there
are exactly seven valid combinations. Vectors indexed by combination (sampling
probabilities, separability scores, metric tables) all use the canonical order
``a, t, v, av, at, tv, atv``: the three singletons, the three pairs, then the
full set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError

MODALITIES = ("a", "t", "v")

_BITS = {"a": 1, "t": 2, "v": 4}


@dataclass(frozen=True, order=True)
class Combo:
    """Nonempty subset of {a, t, v} identified by a bitmask (a=1, t=2, v=4)."""

    mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.mask <= 7:
            raise ContractError(f"combination mask must be in 1..7, got {self.mask}")

    @staticmethod
    def from_modalities(mods) -> "Combo":
        """The combination of the modalities `mods`, an iterable such as ('t', 'v') or 'tv'."""
        mask = 0
        for m in mods:
            if m not in _BITS:
                raise ContractError(f"unknown modality {m!r}")
            mask |= _BITS[m]
        return Combo(mask)

    @property
    def modalities(self) -> tuple[str, ...]:
        return tuple(m for m in MODALITIES if self.mask & _BITS[m])

    @property
    def name(self) -> str:
        return "".join(self.modalities)

    def __contains__(self, modality: str) -> bool:
        return bool(self.mask & _BITS.get(modality, 0))

    def __len__(self) -> int:
        return len(self.modalities)

    def __iter__(self):
        return iter(self.modalities)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Combo({self.name!r})"


A = Combo.from_modalities("a")
T = Combo.from_modalities("t")
V = Combo.from_modalities("v")
AV = Combo.from_modalities("av")
AT = Combo.from_modalities("at")
TV = Combo.from_modalities("tv")
FULL = Combo.from_modalities("atv")

#: Canonical combination order used for every 7-vector in the package.
ALL_COMBINATIONS = (A, T, V, AV, AT, TV, FULL)

#: The six conditions that enter the "Average" column (full set reported apart).
INCOMPLETE_COMBINATIONS = ALL_COMBINATIONS[:6]
