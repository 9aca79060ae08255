"""Surface presentation data and the named curve catalog.

A genus-g surface with p punctures carries the free fundamental group of
rank n = 2g+p-1 described in :mod:`mcg._tables`: handle pairs a_i, b_i and
puncture loops g_k, with the loop around the last puncture given by the
derived word making the product of all handle commutators and puncture
loops trivial.

Free-homotopy classes of unoriented closed curves are represented by
:class:`CurveClass`: the lexicographically least tuple among all rotations
of the cyclically reduced core and of its inverse.  Two curve words name
the same class exactly when their canonical forms are equal tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _tables as tables
from .words import (Word, apply_aut, cyclic_reduce, invert, least_rotation,
                    reduce_word)

_CURVE_VOCAB = "a1..a{2g}, b, delta, e0..e{p-1}, n1..n{p-1}"


@dataclass(frozen=True)
class CurveClass:
    """Canonical cyclic word of an unoriented free-homotopy class."""

    word: Word

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("a curve class needs a non-empty core")


@dataclass(frozen=True)
class SurfaceModel:
    genus: int
    punctures: int
    rank: int

    def labels(self) -> tuple[str, ...]:
        out = []
        for i in range(1, self.genus + 1):
            out.extend((f"a{i}", f"b{i}"))
        out.extend(f"g{k}" for k in range(1, self.punctures))
        return tuple(out)


def build(g: int, p: int) -> SurfaceModel:
    """Validate (g, p) and assemble the presentation data."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    if p < 1:
        raise ValueError("need at least one puncture")
    n = tables.rank_of(g, p)
    if n < 2:
        raise ValueError("rank must be at least 2")
    # defining relation: all handle commutators then all puncture loops
    relation = list(tables.handle_commutators(g))
    relation.extend(tables.g_letter(g, k) for k in range(1, p))
    relation.extend(tables.last_puncture_word(g, p))
    if reduce_word(relation):
        raise AssertionError("defining relation failed to reduce")
    return SurfaceModel(g, p, n)


def canonicalize(raw: Sequence[int]) -> CurveClass:
    """Canonical form of a raw cyclic word; rotation and inversion invariant."""
    core, _ = cyclic_reduce(reduce_word(raw))
    if not core:
        raise ValueError("empty word does not name a curve")
    best = min(least_rotation(core), least_rotation(invert(core)))
    return CurveClass(best)


def peripheral(model: SurfaceModel, k: int) -> CurveClass:
    """The class of the loop around the k-th puncture."""
    g, p = model.genus, model.punctures
    if not 1 <= k <= p:
        raise ValueError(f"puncture index {k} out of range 1..{p}")
    if k < p:
        return canonicalize((tables.g_letter(g, k),))
    return canonicalize(tables.last_puncture_word(g, p))


def curve_names(model: SurfaceModel) -> tuple[str, ...]:
    """Every catalog curve name of the surface, in catalog order."""
    g, p = model.genus, model.punctures
    return (tuple(f"a{i}" for i in range(1, 2 * g + 1)) + ("b", "delta")
            + tuple(f"e{j}" for j in range(p))
            + tuple(f"n{j}" for j in range(1, p)))


def check_curve_name(model: SurfaceModel, name: str) -> None:
    """Raise ValueError unless name is one of curve_names(model)."""
    if name not in curve_names(model):
        raise ValueError(f"unknown curve {name!r}; expected one of {_CURVE_VOCAB}")


def curve(model: SurfaceModel, name: str) -> CurveClass:
    """Look up a named catalog curve.

    Names: a1..a{2g} the chain, b the extra handle curve, delta the
    separating curve, e0..e{p-1} the rotating family, n{j} the boundary
    of a neighborhood of punctures j, j+1.
    """
    check_curve_name(model, name)
    g, p = model.genus, model.punctures
    if name == "b":
        return curve(model, "a1") if g == 1 else canonicalize((tables.a_letter(2),))
    if name == "delta":
        return canonicalize(tables.handle_commutators(g))
    kind, idx = name[:1], int(name[1:])
    if kind == "a":
        return canonicalize(_chain_word(idx))
    if kind == "e":
        return canonicalize(_family_word(g, p, idx))
    return canonicalize(_two_puncture_word(g, p, idx))


def _chain_word(idx: int) -> Word:
    if idx == 1:
        return (1,)
    if idx % 2 == 0:
        return (-tables.b_letter(idx // 2),)
    i = (idx - 1) // 2
    return (
        -tables.a_letter(i),
        -tables.b_letter(i),
        tables.a_letter(i + 1),
        tables.b_letter(i),
    )


def _family_word(g: int, p: int, j: int) -> Word:
    seed: Word = (-tables.b_letter(1),)
    if j == 0:
        return seed
    return apply_aut(tables.rotation_power(g, p, j), seed)


def _two_puncture_word(g: int, p: int, j: int) -> Word:
    if j <= p - 2:
        return (tables.g_letter(g, j), tables.g_letter(g, j + 1))
    prefix = tuple(-tables.g_letter(g, k) for k in range(p - 2, 0, -1))
    return prefix + tuple(invert(tables.handle_commutators(g)))
