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


def symplectic_form(g: int) -> HomologyMatrix:
    """Block-diagonal pairing with one hyperbolic block per handle."""
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for i in range(g):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    return tuple(tuple(row) for row in J)


def matmul(A: HomologyMatrix, B: HomologyMatrix) -> HomologyMatrix:
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def transpose(A: HomologyMatrix) -> HomologyMatrix:
    n = len(A)
    return tuple(tuple(A[j][i] for j in range(n)) for i in range(n))


def det(A: HomologyMatrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(A)
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def genus_block(F: MappingClass) -> HomologyMatrix:
    """Induced map on homology modulo the span of the puncture classes.

    The puncture span is invariant (peripheral classes map to signed
    peripheral classes), so the top-left handle block is well defined.
    """
    g = F.model.genus
    M = homology(F)
    for j in range(2 * g, F.model.rank):
        for i in range(2 * g):
            if M[i][j] != 0:
                raise AssertionError("puncture span is not invariant")
    return tuple(tuple(M[i][j] for j in range(2 * g)) for i in range(2 * g))


def fingerprint(F: MappingClass) -> Fingerprint:
    return Fingerprint(homology(F), F.perm, F.sign)
