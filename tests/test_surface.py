import pytest
from hypothesis import given, strategies as st

from mcg.surface import CurveClass, build, canonicalize, curve, curve_names
from mcg.words import concat, invert, reduce_word


def test_build_validates_input():
    m = build(2, 3)
    assert (m.genus, m.punctures, m.rank) == (2, 3, 6)
    with pytest.raises(ValueError):
        build(0, 2)
    with pytest.raises(ValueError):
        build(1, 0)


def test_rank_two_boundary():
    # (1,1) is the smallest admissible surface here
    assert build(1, 1).rank == 2


letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, min_size=1, max_size=20).map(reduce_word).filter(
    lambda w: len(w) > 0)


@given(words)
def test_canonicalize_rotation_invariant(w):
    base = canonicalize(w)
    for r in range(len(w)):
        assert canonicalize(w[r:] + w[:r]) == base


@given(words)
def test_canonicalize_inversion_invariant(w):
    assert canonicalize(w) == canonicalize(invert(w))


@given(words, st.lists(letters, max_size=10))
def test_canonicalize_kills_conjugation(w, c):
    c = reduce_word(c)
    u = concat(c, w, invert(c))
    if reduce_word(u):
        assert canonicalize(u) == canonicalize(w)


def test_canonicalize_rejects_trivial():
    with pytest.raises(ValueError):
        canonicalize([1, -1])
    with pytest.raises(ValueError):
        canonicalize([])


def test_curve_frozen_values_torus_two_punctures():
    m = build(1, 2)
    assert curve(m, "a1").word == (-1,)
    assert curve(m, "a2").word == (-2,)  # the b1^-1 class
    assert curve(m, "b") == curve(m, "a1")  # single handle: isotopic
    assert curve(m, "delta").word == canonicalize((1, 2, -1, -2)).word
    assert curve(m, "e0").word == (-2,)
    assert curve(m, "n1") == curve(m, "delta")  # both punctures together


def test_curve_frozen_values_genus_two():
    m = build(2, 2)
    assert curve(m, "a1").word == (-1,)
    assert curve(m, "a2").word == (-2,)
    assert curve(m, "a3").word == canonicalize((-1, -2, 3, 2)).word
    assert curve(m, "a4").word == (-4,)
    assert curve(m, "b").word == (-3,)  # parallel to the second handle loop


def test_curve_names_catalog_order():
    assert curve_names(build(1, 2)) == ("a1", "a2", "b", "delta", "e0", "e1",
                                        "n1")
    names = curve_names(build(2, 3))
    assert names[:6] == ("a1", "a2", "a3", "a4", "b", "delta")
    assert names[6:] == ("e0", "e1", "e2", "n1", "n2")


def test_curve_unknown_name():
    m = build(1, 2)
    for bad in ("a0", "a3", "e2", "n0", "n2", "zz"):
        with pytest.raises(ValueError):
            curve(m, bad)


def test_family_curves_are_distinct():
    for g, p in ((1, 2), (1, 3), (2, 2)):
        m = build(g, p)
        family = [curve(m, f"e{j}") for j in range(p)]
        assert len(set(family)) == p


def test_curveclass_requires_content():
    with pytest.raises(ValueError):
        CurveClass(())
