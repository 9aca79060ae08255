"""Seeded command generator for the query-mix workload.

Generator and curve names come from the documented naming rule of the
catalog, not from ``mcg.catalog.vocabulary``, so the program under test
receives only generated inputs.  Every command carries the exit code it
must produce, known from how the command was built:

* eq made true by inserting a relation that holds in the mapping class
  group (braid, half-twist square, rotation of the E family, involution);
* eq made false by appending a non-separating twist, which the homology
  filter rejects;
* eq made false by appending DELTA or N_j, separating twists that pass the
  sign, permutation and homology filters, so only the exact
  ``inner_witness`` check rejects them;
* eval and act, which always succeed.

Words have 2 to 4 generators, each with exponent +1 or -1, and at most one
composite generator (T, TP, RHO1, RHO2, R, E_j for j >= 1), whose tables
are the long ones; a command holds composites from one source only, its
word or its inserted relation.  The length of a composed table grows
roughly as the product of its factors' lengths, so exponent +-2, six-letter
words or several composites made single commands take seconds to minutes,
and a session's total time then depended more on its seed than on the
program.  For the same reason every session holds the same number of
commands of each kind, relation and composite on each surface.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# Surfaces of the session.  Genus >= 2 with p >= 3 is left out: the curve
# rotation is not implemented there yet (ROADMAP open item 1).
SURFACES = ((1, 2), (1, 4), (2, 2), (3, 2))

# (kind, weight in commands out of 20)
MIX = (("eq-true", 7), ("eq-filter", 5), ("eq-inner", 4), ("eval", 2),
       ("act", 2))

EXIT_OK = 0
EXIT_FAILED = 2

# Relations X = Y that hold on every surface of the session, as words.
RELATIONS = (
    ("A1 A2 A1", "A2 A1 A2"),      # braid relation of adjacent chain twists
    ("H12 H12", "N1"),             # half-twist square is the N1 twist
    ("T E0 T^-1", "E1"),           # T carries E0 to E1
    ("RHO1 RHO1", ""),             # the first half-turn is an involution
)

# Orientation-reversing generators; every other generator has sign +1.
REVERSING = frozenset({"R", "TP"})


def generator_names(g: int, p: int) -> tuple[str, ...]:
    """A1..A2g, B, DELTA, E0.., H{j}{j+1}, N{j}, H1p, RHO1, RHO2, T, R, TP, S."""
    names = [f"A{i}" for i in range(1, 2 * g + 1)] + ["B", "DELTA"]
    names += [f"E{j}" for j in range(p)]
    names += [f"H{j}{j + 1}" for j in range(1, p)]
    names += [f"N{j}" for j in range(1, p)]
    if p >= 2:
        names += ["H1p", "RHO1", "RHO2", "T", "R", "TP"]
    names.append("S")
    return tuple(names)


def curve_names(g: int, p: int) -> tuple[str, ...]:
    """a1..a2g, b, delta, e0..e{p-1}, n1..n{p-1}."""
    return tuple([f"a{i}" for i in range(1, 2 * g + 1)] + ["b", "delta"]
                 + [f"e{j}" for j in range(p)]
                 + [f"n{j}" for j in range(1, p)])


def is_composite(name: str) -> bool:
    """Generators built from the rotation or the half-turns: T, TP, RHO1,
    RHO2, R and E_j for j >= 1.  Their tables are the long ones."""
    return name in ("T", "TP", "RHO1", "RHO2", "R") or \
        (name.startswith("E") and name != "E0")


def nonseparating_twists(g: int) -> tuple[str, ...]:
    """Twists about non-separating curves, each of which moves first
    homology; the composite E_j (j >= 1) are left to the words."""
    return tuple(f"A{i}" for i in range(1, 2 * g + 1)) + ("B", "E0")


def separating_twists(g: int, p: int) -> tuple[str, ...]:
    """Twists about separating curves; trivial on homology, non-trivial."""
    return ("DELTA",) + tuple(f"N{j}" for j in range(1, p))


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    expect_code: int
    # eval: the orientation sign of the word, known from its letters
    expect_sign: Optional[int] = None


def _letter(rng: random.Random, names: tuple[str, ...]) -> str:
    name = rng.choice(names)
    return name if rng.random() < 0.5 else f"{name}^-1"


def _word(rng: random.Random, names: tuple[str, ...],
          composite: Optional[str]) -> list[str]:
    """2 to 4 letters; ``composite``, if given, is one of them."""
    simple = tuple(n for n in names if not is_composite(n))
    out = [_letter(rng, (composite,) if composite else simple)]
    out += [_letter(rng, simple) for _ in range(rng.randint(1, 3))]
    rng.shuffle(out)
    return out


def _base(letter: str) -> str:
    return letter.split("^")[0]


def _sign(letters: list[str]) -> int:
    return (-1) ** sum(_base(x) in REVERSING for x in letters)


def make_command(rng: random.Random, kind: str, g: int, p: int,
                 index: int) -> Command:
    """The ``index``-th command of its kind on surface (g, p).

    Odd indices hold no composite generator and even ones take the
    composites in turn, and eq-true commands take the relations in turn, so
    every session holds the same number of each shape of command; the seed
    picks the other letters and their order.
    """
    names = generator_names(g, p)
    surface = ("--g", str(g), "--p", str(p), "--json")
    composites = tuple(n for n in names if is_composite(n))
    composite = composites[index // 2 % len(composites)] \
        if index % 2 == 0 else None
    if kind == "eq-true":
        x, y = RELATIONS[index // 2 % len(RELATIONS)]
        if any(is_composite(_base(z)) for z in (x + " " + y).split()):
            composite = None
        w = _word(rng, names, composite)
        k = rng.randint(0, len(w))
        left = w[:k] + x.split() + w[k:]
        right = w[:k] + y.split() + w[k:]
        return Command(kind, ("eq",) + surface + (" ".join(left), " ".join(right)),
                       EXIT_OK)
    w = _word(rng, names, composite)
    if kind in ("eq-filter", "eq-inner"):
        pool = nonseparating_twists(g) if kind == "eq-filter" \
            else separating_twists(g, p)
        left = w + [_letter(rng, pool)]
        return Command(kind, ("eq",) + surface + (" ".join(left), " ".join(w)),
                       EXIT_FAILED)
    if kind == "eval":
        return Command(kind, ("eval",) + surface + (" ".join(w),), EXIT_OK,
                       expect_sign=_sign(w))
    if kind == "act":
        c = rng.choice(curve_names(g, p))
        return Command(kind, ("act",) + surface + (" ".join(w), c), EXIT_OK)
    raise ValueError(f"unknown command kind {kind!r}")


def generate(seed: int | str, per_surface: int) -> list[Command]:
    """A shuffled session with ``per_surface`` commands on each surface.

    Each surface gets the same share of every kind (per_surface must be a
    multiple of 20), so sessions from different seeds differ in their words,
    not in how much of each kind of work they hold.
    """
    if per_surface % 20:
        raise ValueError("per_surface must be a multiple of 20")
    rng = random.Random(seed)
    out = []
    for g, p in SURFACES:
        for kind, weight in MIX:
            for index in range(weight * per_surface // 20):
                out.append(make_command(rng, kind, g, p, index))
    rng.shuffle(out)
    return out
