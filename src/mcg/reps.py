"""Homology and permutation data used as filters and fingerprints.

The homology basis is the generator order of the surface group: handle
classes first, puncture-loop classes after.  Inner automorphisms act
trivially on homology, so these are genuine mapping-class invariants;
they are necessary conditions only, never proof of equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import abelianized
from .catalog import MappingClass

HomologyMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Fingerprint:
    matrix: HomologyMatrix
    perm: tuple[int, ...]
    sign: int

    def as_dict(self) -> dict:
        return {
            "matrix": [list(row) for row in self.matrix],
            "perm": list(self.perm),
            "sign": self.sign,
        }


def homology(F: MappingClass) -> HomologyMatrix:
    """Induced matrix on first homology; multiplicative under composition."""
    return abelianized(F.aut)


def fingerprint(F: MappingClass) -> Fingerprint:
    return Fingerprint(homology(F), F.perm, F.sign)
