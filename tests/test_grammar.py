"""evaluate_ast against a left-fold oracle, its shared memo, and its cost."""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from mcg import catalog, certify, grammar
from mcg.catalog import compose_mc, power_mc
from mcg.grammar import Term, evaluate_ast
from mcg.surface import build

_NAMES = st.sampled_from(["B", "SH1p", "T"])
_EXPS = st.sampled_from([1, -1, 2, -2, 3, -3])
_LEAF = st.lists(st.builds(Term, _NAMES, _EXPS), min_size=1,
                 max_size=2).map(tuple)


def _grow(words):
    """A word mirrored by x^a (the power spelled as one term or as two),
    a parenthesised group (any power of a leaf, a word to the power ±1, so
    tables stay small), or two words joined."""
    def mirror(x, a, inner, split):
        head = (Term(x, a), Term(x, a)) if split else (Term(x, 2 * a),)
        return head + inner + (Term(x, -2 * a),)
    return st.one_of(
        st.builds(mirror, _NAMES, st.sampled_from([1, -1]), words,
                  st.booleans()),
        st.builds(lambda x, a, inner: (Term(x, a),) + inner + (Term(x, -a),),
                  _NAMES, _EXPS, words),
        st.builds(lambda inner, e: (Term(inner, e),), _LEAF, _EXPS),
        st.builds(lambda inner, e: (Term(inner, e),), words,
                  st.sampled_from([1, -1])),
        st.builds(lambda u, v: u + v, words, words),
    )


_WORDS = st.recursive(_LEAF, _grow, max_leaves=5)
_SURFACES = {gp: (build(*gp), certify._thm_generators(build(*gp)))
             for gp in [(1, 3), (2, 2)]}


def _fold(word, gens):
    return reduce(compose_mc, [
        power_mc(gens[t.base] if isinstance(t.base, str)
                 else _fold(t.base, gens), t.exp) for t in word])


def _same(got, want) -> bool:
    return (got.aut.fwd, got.perm, got.sign) == (want.aut.fwd, want.perm, want.sign)


@pytest.mark.parametrize("gp", list(_SURFACES))
@settings(max_examples=40, deadline=None)
@given(word=_WORDS)
def test_evaluate_matches_left_fold(gp, word):
    m, gens = _SURFACES[gp]
    assert _same(evaluate_ast(word, gens, m), _fold(word, gens))


@pytest.mark.parametrize("gp", list(_SURFACES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shared_memo_matches_fresh_evaluation(gp, data):
    m, gens = _SURFACES[gp]
    core = data.draw(_WORDS)
    x = data.draw(_NAMES)
    # x^a core x^-a, x^a spelled as one term and, for |a| > 1, also as
    # x^±1 x^(a∓1): the same layer under two keys
    conjugates = []
    for a in data.draw(st.lists(_EXPS, max_size=3)):
        conjugates.append((Term(x, a),) + core + (Term(x, -a),))
        if abs(a) > 1:
            unit = a // abs(a)
            conjugates.append((Term(x, unit), Term(x, a - unit)) + core
                              + (Term(x, -a),))
    words = data.draw(st.permutations(
        [core] + conjugates + data.draw(st.lists(_WORDS, max_size=2))))
    memo: dict = {}
    for word in words:
        assert _same(evaluate_ast(word, gens, m, memo),
                     evaluate_ast(word, gens, m))


@pytest.fixture
def compose_calls(monkeypatch):
    """A one-element list counting compose_mc calls from every module that
    binds it."""
    calls = [0]

    def counted(F, G):
        calls[0] += 1
        return compose_mc(F, G)

    for module in (catalog, grammar, certify):
        monkeypatch.setattr(module, "compose_mc", counted)
    return calls


def test_conjugate_by_large_power_stays_logarithmic(compose_calls):
    m = build(1, 2)
    gens = certify._thm_generators(m)
    word = (Term("T", 1000), Term("B", 1), Term("T", -1000))
    compose_calls[0] = 0
    got = evaluate_ast(word, gens, m)
    assert compose_calls[0] <= 30
    assert _same(got, _fold(word, gens))


def test_deep_mirrored_words_need_no_recursion():
    m = build(1, 2)
    gens = certify._thm_generators(m)
    n = 1500
    run = (Term("B", 1),) * n + (Term("SH1p", 1),) + (Term("B", -1),) * n
    power = (Term("B", n), Term("SH1p", 1), Term("B", -n))
    assert evaluate_ast(run, gens, m).aut.fwd \
        == evaluate_ast(power, gens, m).aut.fwd
    # n layers of one letter each, peeled by the loop
    alternating = (Term("B", 1), Term("B", -1)) * (n // 2)
    got = evaluate_ast(alternating + (Term("SH1p", 1),) + alternating,
                       gens, m)
    assert got.aut.fwd == gens["SH1p"].aut.fwd


def test_verify_builds_each_conjugate_once(compose_calls):
    cert = certify.certify_thm9(build(8, 2))
    compose_calls[0] = 0
    assert certify.verify(cert)
    assert compose_calls[0] <= 120
