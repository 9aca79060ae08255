import random

import pytest
from hypothesis import given, settings, strategies as st

from mcg.words import (
    AutPair,
    abelianized,
    ad_aut,
    apply_aut,
    compose,
    concat,
    conjugacy_witness,
    conjugate,
    cyclic_reduce,
    identity_aut,
    inner_witness,
    inverse,
    invert,
    is_identity_aut,
    is_reduced,
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
    assert is_reduced(reduce_word(w))


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
    u = conjugate(w, c)
    core, conj = cyclic_reduce(u)
    assert conjugate(core, conj) == u
    assert core == () or core[0] != -core[-1] or len(core) == 1


@given(reduced_words(), reduced_words())
def test_conjugacy_witness_on_conjugate_pairs(w, c):
    u = conjugate(w, c)
    got = conjugacy_witness(u, w)
    assert got is not None
    assert conjugate(w, got) == u


def test_conjugacy_witness_frozen():
    u = (2, 1, 3, -1, -2)
    w = conjugacy_witness(u, (3,))
    assert w is not None and conjugate((3,), w) == u
    assert conjugacy_witness((1,), (2,)) is None
    assert conjugacy_witness((1,), (-1,)) is None
    assert conjugacy_witness((), ()) == ()
    assert conjugacy_witness((1, 2), (2, 1)) is not None


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
    assert is_identity_aut(identity_aut(4))
    assert not is_identity_aut(transvection())
