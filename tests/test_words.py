import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mcg._tables import _short
from mcg.words import (
    AutPair,
    _Pending,
    _substitute,
    abelianized,
    ad_aut,
    apply_aut,
    compose,
    concat,
    cyclic_reduce,
    identity_aut,
    inner_witness,
    inverse,
    invert,
    least_rotation,
    make_aut,
    power,
    reduce_word,
)


def naive_reduce(letters):
    # quadratic rescan oracle, kept independent of the stack implementation
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for k in range(len(out) - 1):
            if out[k] == -out[k + 1]:
                del out[k : k + 2]
                changed = True
                break
    return tuple(out)


letters = st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=40)


def reduced_words(max_size=30):
    return raw_words.map(reduce_word)


def test_reduce_frozen_examples():
    assert reduce_word([1, 2, -2, 3]) == (1, 3)
    assert reduce_word([1, -1]) == ()
    assert reduce_word([2, 1, -1, -2, 3]) == (3,)
    assert reduce_word([]) == ()
    with pytest.raises(ValueError):
        reduce_word([1, 0])


@given(raw_words)
def test_reduce_matches_naive_oracle(w):
    assert reduce_word(w) == naive_reduce(w)


@given(raw_words)
def test_reduce_output_is_reduced(w):
    u = reduce_word(w)
    assert reduce_word(u) == u


@given(reduced_words())
def test_word_times_inverse_cancels(w):
    assert concat(w, invert(w)) == ()
    assert concat(invert(w), w) == ()


@given(reduced_words())
def test_invert_is_involution(w):
    assert invert(invert(w)) == w


def test_power_frozen():
    assert power((1, 2), 3) == (1, 2, 1, 2, 1, 2)
    assert power((1, 2), -1) == (-2, -1)
    assert power((1, 2), 0) == ()
    # non cyclically reduced base collapses across copies
    assert power((1, 2, -1), 3) == (1, 2, 2, 2, -1)


def test_cyclic_reduce_frozen():
    assert cyclic_reduce((1, 2, 3, -2, -1)) == ((3,), (1, 2))
    assert cyclic_reduce((3, 1, -3)) == ((1,), (3,))
    assert cyclic_reduce((1, 2)) == ((1, 2), ())
    assert cyclic_reduce(()) == ((), ())
    # a word like x1 x2 x1^-1 x2 stops at the first non-matching pair
    assert cyclic_reduce((1, 2, -1, 2)) == ((1, 2, -1, 2), ())


def test_least_rotation_frozen():
    assert least_rotation(()) == ()
    assert least_rotation((3, 1, 2)) == (1, 2, 3)
    assert least_rotation((2, -1, 2, -1)) == (-1, 2, -1, 2)


@given(reduced_words(), reduced_words())
def test_cyclic_reduce_reassembles(w, c):
    u = concat(c, w, invert(c))
    core, conj = cyclic_reduce(u)
    assert concat(conj, core, invert(conj)) == u
    assert core == () or core[0] != -core[-1] or len(core) == 1


# ---------------------------------------------------------------------------
# automorphisms


def transvection(rank=3):
    # x1 -> x1 x2, rest fixed
    fwd = [(1, 2)] + [(i,) for i in range(2, rank + 1)]
    bwd = [(1, -2)] + [(i,) for i in range(2, rank + 1)]
    return make_aut(fwd, bwd)


def test_make_aut_rejects_bad_tables():
    with pytest.raises(ValueError):
        make_aut([(1, 2), (2,)], [(1, 2), (2,)])
    with pytest.raises(ValueError):
        make_aut([(1,), (3,)], [(1,), (3,)])  # letter out of range for rank 2


def test_apply_frozen():
    f = transvection()
    assert apply_aut(f, (1,)) == (1, 2)
    assert apply_aut(f, (-1,)) == (-2, -1)
    assert apply_aut(f, (1, -2, -1)) == (1, -2, -1)  # x1 x2 . x2^-1 . x2^-1 x1^-1
    assert apply_aut(inverse(f), apply_aut(f, (1, 3, -2))) == (1, 3, -2)


@given(reduced_words(), reduced_words())
def test_ad_compose_matches_product(a, b):
    # ad(a) . ad(b) = ad(ab)
    f = compose(ad_aut(5, a), ad_aut(5, b))
    g = ad_aut(5, concat(a, b))
    assert f.fwd == g.fwd and f.bwd == g.bwd


@given(reduced_words())
def test_aut_roundtrip_on_words(w):
    f = compose(transvection(5), ad_aut(5, (3, -4)))
    assert apply_aut(inverse(f), apply_aut(f, w)) == w
    assert apply_aut(f, apply_aut(inverse(f), w)) == w


def test_compose_associative_sample():
    rng = random.Random(7)
    auts = [transvection(4), ad_aut(4, (2, -3, 1)), inverse(transvection(4))]
    for _ in range(50):
        f, g, h = (rng.choice(auts) for _ in range(3))
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert left.fwd == right.fwd and left.bwd == right.bwd


def test_abelianized_frozen():
    f = transvection(2)
    assert abelianized(f) == ((1, 0), (1, 1))
    assert abelianized(identity_aut(3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert abelianized(ad_aut(3, (1, 2, -3))) == abelianized(identity_aut(3))


def test_abelianized_multiplicative():
    f = transvection(3)
    g = make_aut(
        [(2,), (1,), (3,)],
        [(2,), (1,), (3,)],
    )
    fg = compose(f, g)
    mf, mg = abelianized(f), abelianized(g)
    prod = tuple(
        tuple(sum(mf[i][k] * mg[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    assert abelianized(fg) == prod


def test_inner_witness_frozen():
    f = ad_aut(3, (2, -1, 3))
    assert inner_witness(f) == (2, -1, 3)
    assert inner_witness(identity_aut(2)) == ()
    assert inner_witness(transvection()) is None
    # non-inner with identity abelianization: x1 -> x2^-1 x1 x2 only
    g = make_aut(
        [(-2, 1, 2), (2,), (3,)],
        [(2, 1, -2), (2,), (3,)],
    )
    assert inner_witness(g) is None
    with pytest.raises(ValueError):
        inner_witness(identity_aut(1))


def test_inner_witness_recovers_random_conjugators():
    rng = random.Random(12345)
    for _ in range(300):
        rank = rng.randint(2, 9)
        length = rng.randint(0, 30)
        w = reduce_word(
            [x for x in (rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(length))]
        )
        f = ad_aut(rank, w)
        got = inner_witness(f)
        assert got is not None
        g = ad_aut(rank, got)
        assert g.fwd == f.fwd


@given(st.integers(min_value=2, max_value=6), reduced_words())
def test_inner_witness_property(rank, w):
    w = reduce_word([x for x in w if abs(x) <= rank])
    got = inner_witness(ad_aut(rank, w))
    assert got is not None
    assert ad_aut(rank, got).fwd == ad_aut(rank, w).fwd


def test_identity_aut_is_identity():
    ident = identity_aut(4)
    assert ident.fwd == ident.bwd == ((1,), (2,), (3,), (4,))
    assert transvection().fwd != identity_aut(transvection().rank).fwd


# ---------------------------------------------------------------------------
# the substitution kernel against a letter-by-letter oracle


def letter_image(f, x):
    return f.fwd[x - 1] if x > 0 else invert(f.fwd[-x - 1])


def oracle_apply(f, w):
    return concat(*(letter_image(f, x) for x in w))


def elementary_transvection(rank, i, j, e):
    # x_i -> x_i x_j^e, rest fixed; i != j
    fwd = [(k,) for k in range(1, rank + 1)]
    bwd = list(fwd)
    fwd[i - 1] = (i, e * j)
    bwd[i - 1] = (i, -e * j)
    return make_aut(fwd, bwd)


RANK = 5
indices = st.integers(min_value=1, max_value=RANK)
transvections = st.tuples(indices, indices, st.sampled_from((1, -1))).filter(
    lambda t: t[0] != t[1]).map(lambda t: elementary_transvection(RANK, *t))
inner = st.lists(letters, max_size=6).map(lambda w: ad_aut(RANK, reduce_word(w)))
automorphisms = st.lists(st.one_of(transvections, inner), min_size=1,
                         max_size=5).map(
    lambda fs: functools.reduce(compose, fs, identity_aut(RANK)))


@settings(max_examples=200)
@given(automorphisms, raw_words)
def test_apply_matches_oracle_on_unreduced_words(f, w):
    assert apply_aut(f, w) == oracle_apply(f, w)


@settings(max_examples=100)
@given(automorphisms, reduced_words())
def test_apply_cancels_word_times_inverse(f, w):
    assert apply_aut(f, w + invert(w)) == oracle_apply(f, w + invert(w)) == ()
    assert apply_aut(f, invert(w) + w) == ()


@settings(max_examples=200)
@given(automorphisms, automorphisms)
def test_compose_matches_oracle(f, g):
    fg = compose(f, g)
    assert fg.fwd == tuple(oracle_apply(f, u) for u in g.fwd)
    assert fg.bwd == tuple(oracle_apply(inverse(g), u) for u in f.bwd)
    assert compose(fg, inverse(fg)).fwd == identity_aut(fg.rank).fwd


def test_apply_partial_cancellation_at_the_junction():
    f = ad_aut(RANK, (1, 2))
    # x3 -> 1 2 3 -2 -1 and x4 -> 1 2 4 -2 -1 cancel two letters where they meet
    assert apply_aut(f, (3, 4)) == (1, 2, 3, 4, -2, -1)
    # x3 x4^-1: the inverse image of x4 meets the output the same way
    assert apply_aut(f, (3, -4)) == (1, 2, 3, -4, -2, -1)
    # the same negative letter twice reuses one inverse image
    assert apply_aut(f, (-3, -3)) == (1, 2, -3, -3, -2, -1)
    t = elementary_transvection(RANK, 1, 2, 1)
    # x1 x2^-1 -> (1 2)(-2): the image of x2^-1 cancels only part of (1 2)
    assert apply_aut(t, (1, -2)) == (1,)
    for w in ((3, 4), (3, -4), (-3, -3), (1, -2, 1, 1)):
        assert apply_aut(f, w) == oracle_apply(f, w)
        assert apply_aut(t, w) == oracle_apply(t, w)


# images c f(x) c^-1 with c longer than 8 letters: consecutive images cancel
# long runs, and the same letter pair meets different output tails within
# one call, across its words and inside unreduced ones
long_conjugators = st.lists(letters, min_size=8 + 1, max_size=30).map(
    reduce_word).filter(lambda c: len(c) > 8)


@settings(max_examples=200)
@given(automorphisms, long_conjugators, st.lists(raw_words, min_size=1, max_size=4))
def test_substitute_matches_oracle_on_long_runs(f, c, words):
    h = compose(ad_aut(RANK, c), f)
    assert _substitute(h.fwd, words) == [oracle_apply(h, w) for w in words]


def test_substitute_remembered_run_wrong_both_ways():
    c = (3, 4) * 5
    f = ad_aut(4, c)
    # the pair (1, 2) cancels c^-1 c (10 letters) in the first word; in the
    # second the run goes on through x2^-1 and the whole conjugator (21
    # letters), so the remembered 10 is not maximal; in the third it is 10
    # again, so the remembered 21 does not match the output's tail
    words = [(1, 2), (-2, -1, 1, 2), (3, 1, 2), (1, 2)]
    assert 8 < len(c)
    ci = invert(c)
    assert _substitute(f.fwd, words) == [
        concat(c, (1, 2), ci), (), concat(c, (3, 1, 2), ci),
        concat(c, (1, 2), ci)]


def table_image(table, x):
    return table[x - 1] if x > 0 else invert(table[-x - 1])


# short images over three letters: within one call a pair of letters meets
# more, as many and fewer surviving letters of its first image than it
# cancels, so cuts are recorded, reused and refused alike
short_tables = st.lists(st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)),
                                 max_size=6).map(reduce_word),
                        min_size=3, max_size=3)
small_words = st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), max_size=30)


@settings(max_examples=300)
@given(short_tables, st.lists(small_words, min_size=1, max_size=4))
def test_substitute_cut_reuse_matches_oracle(table, words):
    assert _substitute(table, words) == [
        concat(*(table_image(table, x) for x in w)) for w in words]


def test_substitute_cut_reuse_boundary():
    table = [(4, 6, 3), (-3, 5), (-5, -6, -4), (4,), (5,), (6,)]
    # (1, 2) cuts 1 letter with all 3 of x1's image left: the cut is recorded
    # and reused in the third word.  In the second, x3 leaves 1 letter of
    # x1's image, as many as the cut, so (1, 2) scans and cancels 2, past
    # x1's image into x3's; that cut is not the pair's, and is not recorded
    words = [(1, 2), (3, 1, 2), (1, 2)]
    want = [(4, 6, 5), (), (4, 6, 5)]
    assert [concat(*(table_image(table, x) for x in w)) for w in words] == want
    assert _substitute(table, words) == want


def test_make_aut_rejects_empty_image():
    with pytest.raises(ValueError):
        make_aut([(), (2,)], [(1,), (2,)])
    with pytest.raises(ValueError):
        make_aut([(1,), (2,)], [(1,), ()])


# ---------------------------------------------------------------------------
# outer equality of a pair, and inverse tables built on first read


# x1 -> x2^-1 x1 x2, rest fixed: trivial on homology, not inner at rank >= 3
partial_conjugation = make_aut(
    [(-2, 1, 2)] + [(i,) for i in range(2, RANK + 1)],
    [(2, 1, -2)] + [(i,) for i in range(2, RANK + 1)],
)


@settings(max_examples=200)
@given(automorphisms, automorphisms, st.lists(letters, max_size=6),
       st.sampled_from(("any", "inner", "homology-only")))
def test_inner_witness_of_pair_matches_composite(f, h, w, kind):
    ad = ad_aut(RANK, reduce_word(w))
    g = {"any": h, "inner": compose(ad, f),
         "homology-only": compose(ad, compose(partial_conjugation, f))}[kind]
    got = inner_witness(f, g)
    assert got == inner_witness(compose(f, inverse(g)))
    if kind == "inner":
        assert got == invert(reduce_word(w))
    if kind == "homology-only":
        assert abelianized(f) == abelianized(g) and got is None


def test_inner_witness_of_pair_frozen():
    t = transvection()
    assert inner_witness(compose(ad_aut(3, (2, -3)), t), t) == (2, -3)
    assert inner_witness(t, t) == ()
    assert inner_witness(t, identity_aut(3)) is None
    with pytest.raises(ValueError):
        inner_witness(t, identity_aut(4))


def test_inner_witness_of_identical_tables_reads_no_inverse():
    t = transvection()
    f, g = compose(t, t), compose(t, t)
    assert f.fwd == g.fwd and f is not g
    assert inner_witness(f, g) == ()
    assert type(g._bwd) is _Pending and type(f._bwd) is _Pending
    with pytest.raises(ValueError):
        inner_witness(identity_aut(1), identity_aut(1))
    # different tables still take the path through g^-1
    h = compose(ad_aut(3, (2, -3)), g)
    assert inner_witness(h, g) == (2, -3) == inner_witness(compose(h, inverse(g)))


@settings(max_examples=100)
@given(automorphisms, automorphisms)
def test_composed_inverse_table_on_first_read(f, g):
    c = compose(f, g)
    assert c.bwd == tuple(_substitute(g.bwd, f.bwd))
    built = make_aut(c.fwd, c.bwd)
    assert built == c and hash(built) == hash(compose(f, g))


def test_deep_pending_chain_forces_without_recursion():
    # every factor leaves one pending inverse table, on either side
    t, ti = transvection(), inverse(transvection())
    right = left = identity_aut(3)
    for k in range(3000):
        right = compose(right, t if k % 2 else ti)
        left = compose(ti if k % 2 else t, left)
    ident = identity_aut(3).bwd
    assert right.bwd == ident and left.bwd == ident


# ---------------------------------------------------------------------------
# short inner representatives


def table_length(f):
    return sum(map(len, f.fwd))


def test_short_frozen():
    # x -> (1 2) x (1 2)^-1 shortens to the identity in two steps
    assert _short(ad_aut(RANK, (1, 2))).fwd == identity_aut(RANK).fwd
    # a table no letter shortens comes back as it is
    t = transvection()
    assert _short(t) is t
    # ad(3) cancels five letters and adds one; after it no letter shortens
    f = compose(ad_aut(3, (-3,)), elementary_transvection(3, 1, 3, 1))
    assert f.fwd == ((-3, 1, 3, 3), (-3, 2, 3), (3,))
    s = _short(f)
    assert s.fwd == ((1, 3), (2,), (3,))
    assert type(s._bwd) is _Pending and s.bwd == ((1, -3), (2,), (3,))


@settings(max_examples=200)
@given(automorphisms)
def test_short_is_a_short_inner_representative(f):
    s = _short(f)
    # the same outer class, with mutually inverse tables
    assert inner_witness(s, f) is not None
    assert make_aut(s.fwd, s.bwd) == s
    assert table_length(s) <= table_length(f)
    # idempotent, and no single letter shortens it
    assert _short(s).fwd == s.fwd
    letters = [c for c in range(-RANK, RANK + 1) if c]
    for c in letters:
        assert table_length(compose(ad_aut(RANK, (c,)), s)) >= table_length(s)
    # at most one letter shortens f, so the descent has no ties to break
    assert sum(table_length(compose(ad_aut(RANK, (c,)), f)) < table_length(f)
               for c in letters) <= 1
