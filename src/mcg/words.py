"""Reduced words and automorphisms of finitely generated free groups.

A word over the free group F_n is a tuple of nonzero ints: letter ``i``
(1-based) is the i-th generator, ``-i`` its inverse.  Every function here
returns freely reduced words, and assumes its inputs are reduced unless
stated otherwise.

Automorphisms are carried as an :class:`AutPair`, the images of the
generators under the map together with the images under its inverse.
Keeping the inverse explicit makes inversion free, composition cheap, and
turns invertibility into a construction-time certificate instead of a
search.  ``compose``/``inverse`` preserve the mutual-inverse invariant by
construction; use :func:`make_aut` when building a pair from raw tables.
``compose`` builds the forward table at once and the inverse table on its
first read, since most products only have their forward table read.
Substitution remembers long cancelling runs within a call, and equality
of matching forward tables reads no inverse table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import neg
from typing import Iterable, Optional, Sequence

Word = tuple[int, ...]

# cancelling runs this long are looked up before they are scanned (see
# _substitute); 4, 8 and 16 time alike on the perfbench workloads
_RUN = 8


def reduce_word(letters: Iterable[int]) -> Word:
    """Freely reduce a sequence of letters."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_reduced(w: Sequence[int]) -> bool:
    return all(w[k] != -w[k + 1] for k in range(len(w) - 1)) and 0 not in w


def invert(w: Sequence[int]) -> Word:
    return tuple(map(neg, reversed(w)))


def concat(*parts: Sequence[int]) -> Word:
    """Reduced product of several words."""
    chained: list[int] = []
    for p in parts:
        chained.extend(p)
    return reduce_word(chained)


def power(w: Sequence[int], k: int) -> Word:
    if k < 0:
        w, k = invert(w), -k
    return concat(*([tuple(w)] * k)) if k else ()


def conjugate(w: Sequence[int], by: Sequence[int]) -> Word:
    """Return by . w . by^-1, reduced."""
    return concat(by, w, invert(by))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conj . core . conj^-1 with core cyclically reduced.

    Returns (core, conj).
    """
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def least_rotation(w: Word) -> Word:
    """The lexicographically least rotation of w; () for ()."""
    return min(w[r:] + w[:r] for r in range(len(w))) if w else ()


# ---------------------------------------------------------------------------
# automorphisms


def _substitute(table: Sequence[Word],
                words: Iterable[Sequence[int]]) -> list[Word]:
    """Images of words under the endomorphism sending generator i to table[i-1].

    Precondition: every table image is freely reduced (the tables of an
    AutPair always are).  The output built so far is reduced too, so
    appending the image of one more letter can cancel letters only where
    the two meet: the run of k letters at the end of the output that the
    first k letters of the image invert.  Each image is therefore cut in
    with one slice and one extend.  The words themselves need not be
    reduced.  The image of a negative letter is inverted the first time it
    is used and shared by every word of the call.

    A pair of consecutive letters tends to cancel the same long run again,
    so once a scan reaches _RUN letters the call looks up what that pair
    cancelled last time.  If those letters end the output and the letter
    before them does not cancel (or nothing is left), that is the run, with
    no scan; otherwise the run is scanned to its end and remembered.
    """
    images = dict(enumerate(table, start=1))
    runs: dict[tuple[int, int], list[int]] = {}
    result: list[Word] = []
    for w in words:
        out: list[int] = []
        prev = 0
        for x in w:
            img = images.get(x)
            if img is None:
                img = images[x] = invert(table[-x - 1])
            m = len(out)
            k, stop = 0, min(m, len(img))
            lim = stop if stop < _RUN else _RUN
            while k < lim and out[m - 1 - k] == -img[k]:
                k += 1
            if k == _RUN < stop:
                run = runs.get((prev, x), [])
                r = len(run)
                if (_RUN < r <= stop and (r == stop or out[m - 1 - r] != -img[r])
                        and out[m - r:] == run):
                    k = r
                else:
                    while k < stop and out[m - 1 - k] == -img[k]:
                        k += 1
                    runs[prev, x] = out[m - k:]
            if k:
                del out[m - k:]
                out.extend(img[k:])
            else:
                out.extend(img)
            prev = x
        result.append(tuple(out))
    return result


class _Pending:
    """A table not built yet: ``_substitute(outer, inner)``, where each side
    is a built table or another pending one."""

    __slots__ = ("outer", "inner", "table")

    def __init__(self, outer, inner) -> None:
        self.outer, self.inner, self.table = outer, inner, None

    def force(self) -> tuple[Word, ...]:
        """Build this table and those it waits on, with an explicit stack: a
        product of n factors leaves a chain of n pending tables."""
        stack = [self]
        while stack:
            node = stack[-1]
            if node.table is None:
                sides = (node.outer, node.inner)
                waiting = [s for s in sides
                           if type(s) is _Pending and s.table is None]
                if waiting:
                    stack.extend(waiting)
                    continue
                outer, inner = (s.table if type(s) is _Pending else s
                                for s in sides)
                node.table = tuple(_substitute(outer, inner))
                node.outer = node.inner = None
            stack.pop()
        return self.table


@dataclass(frozen=True)
class AutPair:
    """Automorphism of F_rank: generator images of the map and its inverse.

    The inverse table may be given pending (see :func:`compose`); ``bwd``
    builds it on first read and keeps it.  ``fwd`` determines ``bwd``, so
    equality and hashing are on ``(rank, fwd)``.
    """

    rank: int
    fwd: tuple[Word, ...]
    _bwd: object = field(compare=False, repr=False)

    @property
    def bwd(self) -> tuple[Word, ...]:
        if type(self._bwd) is _Pending:
            object.__setattr__(self, "_bwd", self._bwd.force())
        return self._bwd


def identity_aut(rank: int) -> AutPair:
    table = tuple((i,) for i in range(1, rank + 1))
    return AutPair(rank, table, table)


def make_aut(fwd: Sequence[Sequence[int]], bwd: Sequence[Sequence[int]]) -> AutPair:
    """Build an AutPair from raw tables, checking the mutual-inverse law."""
    rank = len(fwd)
    if len(bwd) != rank:
        raise ValueError("tables of unequal rank")
    f = tuple(reduce_word(w) for w in fwd)
    b = tuple(reduce_word(w) for w in bwd)
    for table in (f, b):
        for w in table:
            for x in w:
                if not 1 <= abs(x) <= rank:
                    raise ValueError(f"letter {x} out of range for rank {rank}")
    ident = [(i,) for i in range(1, rank + 1)]
    if _substitute(f, b) != ident or _substitute(b, f) != ident:
        raise ValueError("tables are not mutually inverse")
    return AutPair(rank, f, b)


def apply_aut(f: AutPair, w: Sequence[int]) -> Word:
    return _substitute(f.fwd, (w,))[0]


def compose(f: AutPair, g: AutPair) -> AutPair:
    """f after g (g is applied first); the inverse table is built when read."""
    if f.rank != g.rank:
        raise ValueError("rank mismatch")
    return AutPair(f.rank, tuple(_substitute(f.fwd, g.fwd)),
                   _Pending(g._bwd, f._bwd))


def inverse(f: AutPair) -> AutPair:
    return AutPair(f.rank, f.bwd, f.fwd)


def ad_aut(rank: int, w: Sequence[int]) -> AutPair:
    """Inner automorphism x -> w x w^-1."""
    wi = invert(w)
    return AutPair(
        rank,
        tuple(concat(w, (i,), wi) for i in range(1, rank + 1)),
        tuple(concat(wi, (i,), w) for i in range(1, rank + 1)),
    )


def is_identity_aut(f: AutPair) -> bool:
    return all(f.fwd[i] == (i + 1,) for i in range(f.rank))


def abelianized(f: AutPair) -> tuple[tuple[int, ...], ...]:
    """Matrix of f on Z^rank; entry (i, j) counts generator i in f(x_j).

    Columns are images, so abelianized(compose(f, g)) is the matrix product
    abelianized(f) @ abelianized(g).
    """
    n = f.rank
    cols = []
    for j in range(n):
        col = [0] * n
        for x in f.fwd[j]:
            col[abs(x) - 1] += 1 if x > 0 else -1
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def inner_witness(f: AutPair, g: Optional[AutPair] = None) -> Optional[Word]:
    """A word w with f = ad(w) g, or None when f, g differ as outer classes.

    g defaults to the identity.  Reduced tables determine the automorphism,
    so equal forward tables give w = () at once, and g's inverse table is
    not read.  Otherwise, inner automorphisms form a normal subgroup, so
    f = ad(w) g exactly when f(x_i) = w g(x_i) w^-1 for every generator;
    of f g^-1 only the images of x_1 and x_2 are built.  After the homology
    filter, f g^-1 (x_1) = w x_1 w^-1 is solved by cyclic reduction: the
    core must be the single letter x_1, which pins w up to a right factor
    x_1^k.  The power k is read off from the equation for x_2, and the
    candidate is verified on every generator.  Requires rank >= 2 (the
    centralizer argument needs a second generator).
    """
    if f.rank < 2:
        raise ValueError("inner_witness needs rank >= 2")
    if g is None:
        g = identity_aut(f.rank)
    elif g.rank != f.rank:
        raise ValueError("rank mismatch")
    if f.fwd == g.fwd:
        return ()
    if abelianized(f) != abelianized(g):
        return None
    d1, d2 = _substitute(f.fwd, (g.bwd[0], g.bwd[1]))
    core, conj = cyclic_reduce(d1)
    if core != (1,):
        return None
    # candidates are conj . x_1^k; match d2 = conj x_1^k x_2 x_1^-k conj^-1
    v = concat(invert(conj), d2, conj)
    if v == (2,):
        k = 0
    else:
        s = 1 if v[0] > 0 else -1
        if abs(v[0]) != 1:
            return None
        t = 0
        while t < len(v) and v[t] == s:
            t += 1
        k = s * t
        if v != (s,) * t + (2,) + (-s,) * t:
            return None
    w = concat(conj, power((1,), k))
    wi = invert(w)
    for i in range(f.rank):
        if f.fwd[i] != concat(w, g.fwd[i], wi):
            return None
    return w
