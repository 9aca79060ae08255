"""Frozen generator-image tables for the catalog mapping classes.

Basis layout for the rank-n free group attached to the genus-g, p-puncture
surface (n = 2g+p-1): letters 2i-1 and 2i are the i-th handle pair
(written a_i, b_i below) for 1 <= i <= g, and letter 2g+k is the loop
around the k-th puncture (g_k) for 1 <= k <= p-1.  The loop around the
last puncture is not a free letter; it is carried by the derived word

    g_p = ( [a_1,b_1]...[a_g,b_g] g_1...g_{p-1} )^-1

so that the product of all handle commutators and puncture loops is 1.

This module is the one source of every generator table.  The twists,
half twists, pushes and the mirror were derived once from an explicit
planar realization (handles in a row, punctures in a row, basepoint below
both rows) by tracking each generator arc across the support annulus of
the class, and are frozen as data; every other table is a product of them.
The rotation T is such a product taken up to an inner automorphism: its
stored table is a short representative of the product's outer class, and
every table built on T (the family twists, rho2, T') inherits it.
Correctness is enforced by the relation suite in the catalog module, which
exercises braid, chain, disjointness, involution, and peripheral laws over
the test grid; the tables themselves make no appeal to the drawing.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache, reduce
from typing import Sequence

from .words import (
    AutPair,
    Word,
    _Pending,
    ad_aut,
    compose,
    concat,
    inverse,
    invert,
    make_aut,
)


def rank_of(g: int, p: int) -> int:
    return 2 * g + p - 1


def a_letter(i: int) -> int:
    return 2 * i - 1


def b_letter(i: int) -> int:
    return 2 * i


def g_letter(g: int, k: int) -> int:
    return 2 * g + k


def handle_commutators(g: int) -> Word:
    """[a_1,b_1]...[a_g,b_g], the handle-side boundary word."""
    out: list[int] = []
    for i in range(1, g + 1):
        out.extend((a_letter(i), b_letter(i), -a_letter(i), -b_letter(i)))
    return tuple(out)


def last_puncture_word(g: int, p: int) -> Word:
    """The derived loop g_p around the last puncture."""
    body = list(handle_commutators(g))
    body.extend(g_letter(g, k) for k in range(1, p))
    return invert(tuple(body))


def _conj_word(g: int) -> Word:
    # U = (prod [a_i,b_i])^-1, the word conjugating disk loops past the
    # handle block; equals the boundary word read from the other side.
    return invert(handle_commutators(g))


def _ident_tables(n: int) -> list[Word]:
    return [(i,) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# twists about the frozen curve catalog


@lru_cache(maxsize=None)
def tw_hole(g: int, p: int, i: int) -> AutPair:
    """Right twist about the circle around the i-th handle's near foot.

    i = 1 is the first chain curve; i = 2 is the extra generator curve
    used alongside the chain when g >= 2.
    """
    if not 1 <= i <= g:
        raise ValueError("handle index out of range")
    n = rank_of(g, p)
    A, B = a_letter(i), b_letter(i)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    fwd[B - 1] = (B, -A)
    bwd[B - 1] = (B, A)
    return make_aut(fwd, bwd)


@lru_cache(maxsize=None)
def tw_through(g: int, p: int, i: int) -> AutPair:
    """Right twist about the circle running through the i-th handle."""
    if not 1 <= i <= g:
        raise ValueError("handle index out of range")
    n = rank_of(g, p)
    A, B = a_letter(i), b_letter(i)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    fwd[A - 1] = (A, B)
    bwd[A - 1] = (A, -B)
    return make_aut(fwd, bwd)


@lru_cache(maxsize=None)
def tw_pair(g: int, p: int, i: int) -> AutPair:
    """Right twist about the circle enclosing the feet of handles i, i+1."""
    if not 1 <= i <= g - 1:
        raise ValueError("pair index out of range")
    n = rank_of(g, p)
    A, B = a_letter(i), b_letter(i)
    C, D = a_letter(i + 1), b_letter(i + 1)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    fwd[B - 1] = (B, -A, -B, C, B)
    fwd[C - 1] = (B, -A, -B, C, B, A, -B)
    fwd[D - 1] = (D, -C, B, A, -B)
    bwd[B - 1] = (-C, B, A)
    bwd[C - 1] = (-C, B, A, -B, C, B, -A, -B, C)
    bwd[D - 1] = (D, B, -A, -B, C)
    return make_aut(fwd, bwd)


@lru_cache(maxsize=None)
def tw_separating(g: int, p: int) -> AutPair:
    """Right twist about the curve separating handles from punctures."""
    n = rank_of(g, p)
    U = _conj_word(g)
    Ui = invert(U)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    for k in range(1, p):
        gk = g_letter(g, k)
        fwd[gk - 1] = concat(U, (gk,), Ui)
        bwd[gk - 1] = concat(Ui, (gk,), U)
    return make_aut(fwd, bwd)


@lru_cache(maxsize=None)
def half_twist(g: int, p: int, j: int) -> AutPair:
    """Half twist swapping punctures j and j+1 along the puncture row."""
    if not 1 <= j <= p - 1:
        raise ValueError("half-twist index out of range")
    n = rank_of(g, p)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    if j <= p - 2:
        gj, gj1 = g_letter(g, j), g_letter(g, j + 1)
        fwd[gj - 1] = (gj, gj1, -gj)
        fwd[gj1 - 1] = (gj,)
        bwd[gj - 1] = (gj1,)
        bwd[gj1 - 1] = (-gj1, gj, gj1)
    else:
        # the through-the-last-position swap consumes the derived loop g_p
        gl = g_letter(g, p - 1)
        U = _conj_word(g)
        pref = tuple(-g_letter(g, k) for k in range(p - 2, 0, -1))
        fwd[gl - 1] = concat(pref, U, (-gl,))
        bwd[gl - 1] = concat((-gl,), pref, U)
    return make_aut(fwd, bwd)


@lru_cache(maxsize=None)
def tw_two_puncture(g: int, p: int, j: int) -> AutPair:
    """Right twist about the boundary of a neighborhood of punctures j, j+1.

    Equals the square of half_twist(g, p, j); kept as an independent frozen
    table so the square law is a real check, not a definition.
    """
    if not 1 <= j <= p - 1:
        raise ValueError("boundary-twist index out of range")
    n = rank_of(g, p)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    if j <= p - 2:
        gj, gj1 = g_letter(g, j), g_letter(g, j + 1)
        c = (gj, gj1)
        ci = invert(c)
        for x in (gj, gj1):
            fwd[x - 1] = concat(c, (x,), ci)
            bwd[x - 1] = concat(ci, (x,), c)
    else:
        gl = g_letter(g, p - 1)
        pref = tuple(-g_letter(g, k) for k in range(p - 2, 0, -1))
        c = concat(pref, _conj_word(g))
        ci = invert(c)
        fwd[gl - 1] = concat(c, (gl,), ci)
        bwd[gl - 1] = concat(ci, (gl,), c)
    return make_aut(fwd, bwd)


# ---------------------------------------------------------------------------
# point pushes of the first puncture


@lru_cache(maxsize=None)
def push_over(g: int, p: int, i: int) -> AutPair:
    """Push puncture 1 around the loop over the i-th handle."""
    if not 1 <= i <= g:
        raise ValueError("handle index out of range")
    n = rank_of(g, p)
    A = a_letter(i)
    g1 = g_letter(g, 1)
    w = (g1, A, -g1, -A)
    wi = invert(w)
    wp = (-A, -g1, A, g1)
    wpi = invert(wp)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    for j in range(1, i):
        for x in (a_letter(j), b_letter(j)):
            fwd[x - 1] = concat(w, (x,), wi)
            bwd[x - 1] = concat(wp, (x,), wpi)
    fwd[A - 1] = (g1, A, -g1)
    bwd[A - 1] = concat(wp, (A,))
    fwd[b_letter(i) - 1] = (b_letter(i), -g1)
    bwd[b_letter(i) - 1] = (b_letter(i), -A, g1, A)
    fwd[g1 - 1] = (g1, A, g1, -A, -g1)
    bwd[g1 - 1] = (-A, g1, A)
    for k in range(2, p):
        gk = g_letter(g, k)
        fwd[gk - 1] = concat(w, (gk,), wi)
        bwd[gk - 1] = concat(wp, (gk,), wpi)
    return make_aut(fwd, bwd)


@lru_cache(maxsize=None)
def push_through(g: int, p: int, i: int) -> AutPair:
    """Push puncture 1 around the loop through the i-th handle."""
    if not 1 <= i <= g:
        raise ValueError("handle index out of range")
    n = rank_of(g, p)
    B = b_letter(i)
    g1 = g_letter(g, 1)
    v = (g1, -B, -g1, B)
    vi = invert(v)
    vp = (B, -g1, -B, g1)
    vpi = invert(vp)
    fwd, bwd = _ident_tables(n), _ident_tables(n)
    for j in range(1, i):
        for x in (a_letter(j), b_letter(j)):
            fwd[x - 1] = concat(v, (x,), vi)
            bwd[x - 1] = concat(vp, (x,), vpi)
    fwd[a_letter(i) - 1] = concat(v, (a_letter(i), -g1))
    bwd[a_letter(i) - 1] = concat(vp, (a_letter(i), B, g1, -B))
    fwd[B - 1] = (g1, B, -g1)
    bwd[B - 1] = (B, -g1, B, g1, -B)
    fwd[g1 - 1] = (g1, -B, g1, B, -g1)
    bwd[g1 - 1] = (B, g1, -B)
    for k in range(2, p):
        gk = g_letter(g, k)
        fwd[gk - 1] = concat(v, (gk,), vi)
        bwd[gk - 1] = concat(vp, (gk,), vpi)
    return make_aut(fwd, bwd)


# ---------------------------------------------------------------------------
# the orientation-reversing mirror


@lru_cache(maxsize=None)
def mirror(g: int, p: int) -> AutPair:
    """The reflection of the row picture; an exact table-level involution."""
    n = rank_of(g, p)
    tab = _ident_tables(n)
    for k in range(1, p):
        gk = g_letter(g, k)
        pref = tuple(g_letter(g, t) for t in range(1, k))
        tab[gk - 1] = concat(pref, (-gk,), invert(pref))
    for i in range(1, g + 1):
        A, B = a_letter(i), b_letter(i)
        q: list[int] = []
        for t in range(g, i, -1):
            q.extend((b_letter(t), a_letter(t), -b_letter(t), -a_letter(t)))
        Q = tuple(q)
        Qi = invert(Q)
        tab[A - 1] = concat(Q, (B, A, -B, -A, B, -A, -B), Qi)
        tab[B - 1] = concat(Q, (B, A, A, B, -A, -B), Qi)
    return make_aut(tab, tab)


# ---------------------------------------------------------------------------
# derived products


def fold(items: Sequence[AutPair]) -> AutPair:
    """Compose left to right: the last item acts first."""
    return reduce(compose, items)


def power_aut(f: AutPair, k: int) -> AutPair:
    """f^k for k != 0."""
    if k < 0:
        return power_aut(inverse(f), -k)
    return fold([f] * k)


def chain_twist(g: int, p: int, i: int) -> AutPair:
    """The i-th twist of the 2g-long chain: hole, through, pair, through, ..."""
    if not 1 <= i <= 2 * g:
        raise ValueError("chain index out of range")
    if i % 2 == 0:
        return tw_through(g, p, i // 2)
    if i == 1:
        return tw_hole(g, p, 1)
    return tw_pair(g, p, (i - 1) // 2)


@lru_cache(maxsize=None)
def chain_product(g: int, p: int) -> AutPair:
    """Product of the whole chain, ordered so conjugation shifts the chain.

    The top twist acts first; this is the order for which the product
    carries the i-th chain curve to the (i+1)-st.
    """
    return fold([chain_twist(g, p, i) for i in range(1, 2 * g + 1)])


@lru_cache(maxsize=None)
def stair_product(g: int, p: int) -> AutPair:
    """The positive half-twist cascade reversing the puncture row."""
    items: list[AutPair] = []
    for k in range(1, p):
        for j in range(k, 0, -1):
            items.append(half_twist(g, p, j))
    return fold(items)


@lru_cache(maxsize=None)
def row_rotation(g: int, p: int) -> AutPair:
    """Product of adjacent half twists cycling the punctures by one step."""
    return fold([half_twist(g, p, j) for j in range(1, p)])


@lru_cache(maxsize=None)
def annulus_rotation(g: int, p: int) -> AutPair:
    """The row rotation, then puncture 1 pushed through handles 1..g in turn.

    This is the 1/p turn of an annulus whose core runs along the puncture
    row and returns through every handle: each step moves every puncture
    one place along the core, and the p-th power pushes the whole row once
    around it, which fixes every curve inside the annulus.  The chain and
    stair half-turn reverses the core, so it inverts this rotation.
    """
    pushes = [push_through(g, p, i) for i in range(g, 0, -1)]
    return fold(pushes + [row_rotation(g, p)])


@lru_cache(maxsize=None)
def annulus_frame(g: int, p: int) -> AutPair:
    """A class carrying b_1 (the curve e0) to a core curve of the annulus.

    The push of puncture 1 over handle 1 acts first and moves puncture 1
    across b_1.  The twists A1, A3^-1, ..., A2g^-1 and the inverse hole
    twist of handle g follow; the hole twist braids with A2g and commutes
    with A1..A2g-1, so it extends the chain by one curve.  The carried
    curve lies inside the annulus of annulus_rotation and is moved by it,
    so its images close up after p steps and are pairwise distinct.
    Needs g >= 2.
    """
    twists = [inverse(tw_hole(g, p, g))]
    twists += [inverse(chain_twist(g, p, i)) for i in range(2 * g, 2, -1)]
    twists += [chain_twist(g, p, 1), push_over(g, p, 1)]
    return fold(twists)


def _short(f: AutPair) -> AutPair:
    """ad(w) f, for a word w grown on the left one letter at a time while
    the total length of the forward table drops.

    Conjugating by a letter c cancels one letter at each image that starts
    with c^-1 and one at each image that ends with c, and adds one at every
    other end, so a step reads only the first and last letters of the
    images.  Each of the 2n ends counts for one letter, and a letter
    shortens the table when more than n count for it, so at most one letter
    does at each step.  The result is one no single letter shortens, so
    _short is idempotent.  It is the same outer class as f, so it induces
    the same puncture permutation and sign; its inverse table is f's
    inverse table after ad(w)^-1, built when read.
    """
    images = [deque(u) for u in f.fwd]
    n = f.rank
    steps: list[int] = []
    while True:
        ends = Counter([-u[0] for u in images] + [u[-1] for u in images])
        c = max(ends, key=ends.get)
        if ends[c] <= n:
            break
        for u in images:
            start, end = u[0] == -c, u[-1] == c
            if start:
                u.popleft()
            else:
                u.appendleft(c)
            if end:
                u.pop()
            else:
                u.append(-c)
        steps.append(c)
    if not steps:
        return f
    return AutPair(n, tuple(map(tuple, images)),
                   _Pending(f._bwd, ad_aut(n, steps[::-1])._bwd))


def _in_annulus_frame(g: int, p: int, f: AutPair) -> AutPair:
    frame = annulus_frame(g, p)
    return fold([inverse(frame), f, frame])


@lru_cache(maxsize=None)
def front_involution(g: int, p: int) -> AutPair:
    """The half-turn built from the chain monodromy and the stair cascade.

    chain_product^(2g+1) realizes the half turn of the handle block; the
    inverse stair cascade matches it on the puncture row.  The product is
    an involution up to inner automorphism (checked by the catalog suite).
    For g = 1 or p = 2 this product is the table.  For g >= 2, p >= 3 the
    table is the product conjugated into the annulus frame, the frame in
    which curve_rotation is built; there it no longer fixes e0.
    """
    theta = power_aut(chain_product(g, p), 2 * g + 1)
    turn = compose(theta, inverse(stair_product(g, p)))
    if g == 1 or p == 2:
        return turn
    return _in_annulus_frame(g, p, turn)


@lru_cache(maxsize=None)
def back_involution(g: int, p: int) -> AutPair:
    """The companion half-turn rho2 = rho1^-1 T, so that T = rho1 rho2.

    It is an involution exactly when rho1 inverts the rotation:
    rho2^2 = 1 is equivalent to rho1 T rho1 = T^-1.  See curve_rotation
    for which construction covers which (g, p).
    """
    return compose(inverse(front_involution(g, p)), curve_rotation(g, p))


@lru_cache(maxsize=None)
def curve_rotation(g: int, p: int) -> AutPair:
    """The rotation class: cycles punctures and the attached curve family.

    The family is e_j = T^j(e0) with e0 = b_1; it closes when T^p fixes e0.
    Which construction covers which (g, p):

    * g = 1: the push of puncture 1 over the handle after the row rotation.
    * g >= 2, p = 2: the frozen point-push recipe below.
    * g >= 2, p >= 3: annulus_rotation taken in annulus_frame, with rho1
      taken in the same frame.  Then T^p is annulus_rotation^p in that
      frame, and it fixes e0 because the frame carries e0 inside the
      annulus.

    For g = 1 and for p = 2, rho1 fixes e0.  Given rho2^2 = 1, rho1 and
    rho2 then act on the family by e_j -> e_-j and e_j -> e_(-1-j), and
    closure is equivalent to: rho2 fixes e_((p-1)/2) for odd p, rho1
    fixes e_(p/2) for even p.  For g >= 2, p >= 3 rho1 does not fix e0.
    The plain chain and stair product does fix e0, and at g = 2 with p
    odd no involution rho2 pairs with it to a rotation whose family
    closes with p distinct curves: the plain annulus_rotation is such a
    pair, and its family collapses to e0 alone.

    Every branch returns _short of its product: the same outer class, so
    the same puncture permutation and sign, with a forward table of 740
    letters in place of 3,214 at (10,2).  The twists E_j, rho2 and T' are
    built through T and come out short with it.  Nothing else is shortened.
    E_j must stay T E_(j-1) T^-1 exactly, since witnesses built that way
    are checked by identical tables; rho1 shortened makes rho2 = rho1^-1 T
    longer (494 -> 934 letters at (8,2)); and the SigmaOnly and DiskOnly
    guards of the catalog compare the exact letters of E0, the chain
    twists, S and the disk classes.
    """
    if p < 2:
        raise ValueError("rotation needs at least two punctures")
    drot = row_rotation(g, p)
    pa1 = push_over(g, p, 1)
    if g == 1:
        return _short(compose(pa1, drot))
    if p == 2:
        core = fold([pa1, drot, inverse(pa1), inverse(push_through(g, p, 1))])
        z = fold([inverse(push_through(g, p, i)) for i in range(2, g + 1)])
        return _short(fold([inverse(z), core, z]))
    return _short(_in_annulus_frame(g, p, annulus_rotation(g, p)))


@lru_cache(maxsize=None)
def family_twist(g: int, p: int, j: int) -> AutPair:
    """The twist about e_j = T^j(e0): E0 is the twist through handle 1,
    and E_j is (T E_{j-1}) T^-1, two composes on the cached E_{j-1}."""
    if j == 0:
        return tw_through(g, p, 1)
    rot = curve_rotation(g, p)
    return compose(compose(rot, family_twist(g, p, j - 1)), inverse(rot))


@lru_cache(maxsize=None)
def reflected_rotation(g: int, p: int) -> AutPair:
    """The orientation-reversing rotation T', the mirror after rho2."""
    return compose(mirror(g, p), back_involution(g, p))


@lru_cache(maxsize=None)
def swap_1p(g: int, p: int) -> AutPair:
    """Half twist along the long arc joining the first and last punctures.

    Realized by carrying puncture 1 below the row past 2..p-1, swapping
    with the last position, and carrying it back.
    """
    if p < 2:
        raise ValueError("needs at least two punctures")
    if p == 2:
        return half_twist(g, p, 1)
    carry = fold([half_twist(g, p, j) for j in range(p - 2, 0, -1)])
    return fold([inverse(carry), half_twist(g, p, p - 1), carry])
