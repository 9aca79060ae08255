import hashlib
import itertools
import json
import math
import random
from functools import reduce

import pytest

from mcg import catalog
from mcg.catalog import (GLOBAL, _mk, _peripheral_action, act_on_curve,
                         compose_mc, equal, generator, generator_names,
                         identity_mc, inverse_mc, power_mc, validate,
                         vocabulary)
from mcg import _tables as tables
from mcg.surface import build, canonicalize, curve, curve_names
from mcg.words import (apply_aut, compose, concat, inner_witness, inverse,
                       invert)

GRID = [(1, 2), (1, 3), (2, 2), (2, 3)]


@pytest.fixture(scope="module", params=GRID, ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def model(request):
    return build(*request.param)


def test_twist_acts_trivially_on_disjoint_curve():
    m = build(2, 2)
    A1 = generator(m, "A1")
    for nm in ("a3", "a4"):
        c = curve(m, nm)
        assert act_on_curve(A1, c) == c


def test_twist_moves_the_crossing_curve():
    m = build(1, 2)
    A1 = generator(m, "A1")
    a2 = curve(m, "a2")
    assert act_on_curve(A1, a2) != a2


def test_twist_fixes_its_own_curve(model):
    g, p = model.genus, model.punctures
    names = [f"a{i}" for i in range(1, 2 * g + 1)] + ["b", "delta"] + \
            [f"e{j}" for j in range(p)]
    for nm in names:
        F = generator(model, nm.upper())
        c = curve(model, nm)
        assert act_on_curve(F, c) == c, nm


def test_identity_and_inverse_laws(model):
    ident = identity_mc(model)
    vocab = vocabulary(model)
    for name in ("A1", "B", "T", "H1p"):
        F = vocab[name]
        assert equal(compose_mc(F, inverse_mc(F)), ident)
        assert equal(compose_mc(inverse_mc(F), F), ident)
        assert equal(power_mc(F, 3), compose_mc(F, compose_mc(F, F)))
        assert equal(power_mc(F, -2), inverse_mc(compose_mc(F, F)))


def test_equal_separates_distinct_classes(model):
    vocab = vocabulary(model)
    assert not equal(vocab["A1"], vocab["A2"])
    assert not equal(vocab["T"], identity_mc(model))
    assert not equal(vocab["B"], vocab["DELTA"])


def test_equal_ignores_provenance_strings(model):
    # same class reached along two composition routes
    vocab = vocabulary(model)
    F = compose_mc(vocab["A1"], vocab["A2"])
    G = inverse_mc(compose_mc(inverse_mc(vocab["A2"]), inverse_mc(vocab["A1"])))
    assert equal(F, G)


def test_half_twist_square_is_two_puncture_twist():
    m = build(1, 3)
    for j in (1, 2):
        H = generator(m, f"H{j}{j + 1}")
        assert H.perm[j - 1] == j + 1 and H.perm[j] == j
        assert equal(compose_mc(H, H), generator(m, f"N{j}"))


def test_half_twist_1p_swaps_outer_punctures():
    m = build(1, 3)
    H = generator(m, "H1p")
    assert H.perm == (3, 2, 1)
    sq = compose_mc(H, H)
    assert sq.perm == (1, 2, 3)


def test_rotation_perm_is_long_cycle(model):
    p = model.punctures
    T = generator(model, "T")
    assert T.perm == tuple(list(range(2, p + 1)) + [1])
    assert T.sign == 1


def test_rotation_power_p_is_pure(model):
    p = model.punctures
    Tp = power_mc(generator(model, "T"), p)
    assert Tp.perm == tuple(range(1, p + 1))


def test_involutions(model):
    ident = identity_mc(model)
    for F in (generator(model, "RHO1"), generator(model, "RHO2")):
        assert F.sign == 1
        assert equal(compose_mc(F, F), ident)


def test_rho_composition_recovers_rotation(model):
    # the front and back involutions multiply to the rotation
    T = generator(model, "T")
    got = compose_mc(generator(model, "RHO1"), generator(model, "RHO2"))
    assert equal(got, T)


def test_rho_perms_reverse(model):
    p = model.punctures
    r1 = generator(model, "RHO1")
    assert r1.perm == tuple(range(p, 0, -1))


def test_s_conjugation_climbs_the_chain(model):
    S = generator(model, "S")
    g = model.genus
    for i in range(1, 2 * g):
        A = generator(model, f"A{i}")
        lhs = compose_mc(S, compose_mc(A, inverse_mc(S)))
        assert equal(lhs, generator(model, f"A{i + 1}"))


def test_rotation_conjugates_curve_family(model):
    p = model.punctures
    T = generator(model, "T")
    for j in range(p):
        image = act_on_curve(T, curve(model, f"e{j}"))
        assert image == curve(model, f"e{(j + 1) % p}")


def test_rotation_conjugates_twist_family(model):
    p = model.punctures
    T = generator(model, "T")
    for j in range(p):
        E = generator(model, f"E{j}")
        lhs = compose_mc(T, compose_mc(E, inverse_mc(T)))
        assert equal(lhs, generator(model, f"E{(j + 1) % p}"))


@pytest.mark.parametrize("gp", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 3)],
                         ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def test_curve_family_does_not_collapse(gp):
    # a rotation that fixes e0 passes every relation but leaves the kernel
    # set without the twists that involve the punctures
    m = build(*gp)
    p = m.punctures
    family = [curve(m, f"e{j}") for j in range(p)]
    assert len(set(family)) == p, family
    E = [generator(m, f"E{j}") for j in range(p)]
    for i, j in itertools.combinations(range(p), 2):
        assert not equal(E[i], E[j]), (i, j)


@pytest.mark.parametrize("gp", [(1, 3), (1, 4), (1, 5), (2, 2)],
                         ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def test_closure_condition_where_rho1_fixes_e0(gp):
    # the condition stated in the curve_rotation docstring for g = 1, p = 2
    m = build(*gp)
    p = m.punctures
    r1, r2 = generator(m, "RHO1"), generator(m, "RHO2")
    e = [curve(m, f"e{j}") for j in range(p)]
    assert act_on_curve(r1, e[0]) == e[0]
    for j in range(p):
        assert act_on_curve(r1, e[j]) == e[-j % p], j
        assert act_on_curve(r2, e[j]) == e[(-1 - j) % p], j
    if p % 2:
        assert act_on_curve(r2, e[(p - 1) // 2]) == e[(p - 1) // 2]
    else:
        assert act_on_curve(r1, e[p // 2]) == e[p // 2]


@pytest.mark.parametrize("gp", [(2, 3), (2, 4), (3, 3)],
                         ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def test_annulus_frame_pieces(gp):
    # the facts the annulus_rotation / annulus_frame docstrings rely on
    g, p = gp
    m = build(g, p)
    rot = _mk(m, tables.annulus_rotation(g, p), "T0", GLOBAL)
    frame = tables.annulus_frame(g, p)
    plain_turn = _mk(m, tables.fold([frame, tables.front_involution(g, p),
                                     inverse(frame)]), "RHO1", GLOBAL)
    assert equal(compose_mc(plain_turn, compose_mc(rot, plain_turn)),
                 inverse_mc(rot))
    e0 = curve(m, "e0")
    assert act_on_curve(plain_turn, e0) == e0
    assert act_on_curve(rot, e0) == e0
    assert act_on_curve(generator(m, "RHO1"), e0) != e0
    inside = canonicalize(apply_aut(frame, e0.word))
    assert act_on_curve(rot, inside) != inside
    assert act_on_curve(power_mc(rot, p), inside) == inside
    hole = _mk(m, tables.tw_hole(g, p, g), "HOLE", GLOBAL)
    A = {i: generator(m, f"A{i}") for i in range(1, 2 * g + 1)}
    assert equal(compose_mc(hole, compose_mc(A[2 * g], hole)),
                 compose_mc(A[2 * g], compose_mc(hole, A[2 * g])))
    for i in range(1, 2 * g):
        assert equal(compose_mc(hole, A[i]), compose_mc(A[i], hole)), i


def test_validation_suite_green(model):
    report = validate(model)
    bad = [it for it in report.items if not it.passed]
    assert report.ok and not bad, bad[:5]


def test_twist_commutation_on_disjoint_pairs():
    m = build(2, 2)
    vocab = vocabulary(m)
    pairs = [("A1", "A3"), ("A1", "A4"), ("A2", "A4"), ("A4", "E0")]
    for x, y in pairs:
        F, G = vocab[x], vocab[y]
        assert equal(compose_mc(F, G), compose_mc(G, F)), (x, y)


def test_braid_relation_on_chain():
    m = build(2, 2)
    vocab = vocabulary(m)
    for x, y in itertools.pairwise([f"A{i}" for i in range(1, 5)]):
        F, G = vocab[x], vocab[y]
        assert equal(compose_mc(F, compose_mc(G, F)),
                     compose_mc(G, compose_mc(F, G))), (x, y)


def test_peripheral_structure_of_catalog(model):
    # stored puncture data must agree with the automorphism action
    for name, F in sorted(vocabulary(model).items()):
        assert _peripheral_action(model, F.aut) == (F.perm, F.sign), name


def test_products_keep_their_peripheral_action(model):
    # compose_mc, inverse_mc and power_mc carry perm and sign by algebra,
    # not by reading the table; the two must agree
    vocab = vocabulary(model)
    p = model.punctures
    products = [compose_mc(vocab["RHO1"], vocab["RHO2"]),
                compose_mc(vocab["R"], vocab["RHO2"])]
    products += [power_mc(vocab["T"], k) for k in range(-p, p + 1)]
    sh1p = compose_mc(vocab["S"], vocab["H1p"])
    products += [power_mc(sh1p, k) for k in range(-3, 4)]
    rng = random.Random(1000 * model.genus + p)
    names = sorted(vocab)
    for _ in range(20):
        factors = [vocab[n] if rng.random() < 0.5 else inverse_mc(vocab[n])
                   for n in rng.choices(names, k=3)]
        products.append(reduce(compose_mc, factors))
    assert {F.sign for F in products} == {1, -1}
    assert len({F.perm for F in products}) == math.factorial(p)
    for F in products:
        assert _peripheral_action(model, F.aut) == (F.perm, F.sign)


def test_support_guards():
    m = build(1, 2)
    A1 = generator(m, "A1")
    H = generator(m, "H1p")
    # sigma-side classes fix every puncture loop letter; disk-side classes
    # fix every handle letter
    for k in (3,):
        assert apply_aut(A1.aut, (k,)) == (k,)
    for k in (1, 2):
        assert apply_aut(H.aut, (k,)) == (k,)


def test_compose_rejects_mixed_surfaces():
    with pytest.raises(ValueError):
        compose_mc(generator(build(1, 2), "A1"), generator(build(1, 3), "A1"))
    with pytest.raises(ValueError):
        equal(generator(build(1, 2), "A1"), generator(build(2, 2), "A1"))


FAMILY_GRID = [(1, 2), (1, 5), (2, 2), (3, 3)]


@pytest.mark.parametrize("gp", FAMILY_GRID)
def test_family_twist_matches_power_aut(gp):
    # E_j is built on E_{j-1}; the power of T gives it in one conjugation
    g, p = gp
    rot, e0 = tables.curve_rotation(g, p), tables.family_twist(g, p, 0)
    assert e0 == tables.tw_through(g, p, 1)
    for j in range(1, p):
        want = tables.fold([tables.power_aut(rot, j), e0,
                            tables.power_aut(rot, -j)])
        got = tables.family_twist(g, p, j)
        assert got.fwd == want.fwd and got.bwd == want.bwd, j


@pytest.mark.parametrize("gp", FAMILY_GRID)
def test_family_curve_matches_power_aut(gp):
    # e_j is T applied to e_{j-1}; the power of T gives it from the seed b_1
    m = build(*gp)
    rot = tables.curve_rotation(*gp)
    seed = (-tables.b_letter(1),)
    assert curve(m, "e0") == canonicalize(seed)
    for j in range(1, gp[1]):
        assert curve(m, f"e{j}") == canonicalize(
            apply_aut(tables.power_aut(rot, j), seed)), j


def test_twist_rejects_unknown_names_like_curve(model):
    # an unknown curve name names no twist generator either
    names = set(curve_names(model))
    for nm in ("a0", f"a{2 * model.genus + 1}", f"e{model.punctures}", "n0",
               "zz", "a01"):
        assert nm not in names
        with pytest.raises(ValueError, match=f"^unknown curve {nm!r}"):
            curve(model, nm)
        with pytest.raises(ValueError, match=f"^unknown generator "
                                             f"{nm.upper()!r}$"):
            generator(model, nm.upper())


@pytest.mark.parametrize("gp", [(1, 2), (1, 3), (2, 2), (2, 3), (1, 11), (1, 1),
                                (2, 1)])
def test_generator_names_and_generator_match_vocabulary(gp):
    m = build(*gp)
    vocab = vocabulary(m)
    names = generator_names(m)
    assert list(vocab) == names
    for nm in names:
        assert generator(m, nm) == vocab[nm], nm
    if gp == (1, 11):
        assert {"H910", "H1011", "N10", "E10"} <= set(names)


def test_generator_rejects_unknown_names():
    m = build(1, 3)
    for nm in ("A0", "H13", "A3", "E3", "N0", "H1", "zz", "a1"):
        with pytest.raises(ValueError):
            generator(m, nm)


def test_generator_built_once_per_surface():
    m = build(1, 3)
    for nm in generator_names(m):
        assert generator(build(1, 3), nm) is generator(m, nm), nm
    vocab = vocabulary(m)
    assert all(vocab[nm] is generator(m, nm) for nm in vocab)
    # nothing caches an exception: an unknown name raises on every call
    for _ in range(2):
        for nm in ("A0", "H13"):
            with pytest.raises(ValueError):
                generator(m, nm)


@pytest.mark.parametrize("gp", [(1, 2), (2, 2)])
def test_power_mc_matches_repeated_compose(gp):
    m = build(*gp)
    sh1p = compose_mc(generator(m, "S"), generator(m, "H1p"))
    for F in (generator(m, "B"), generator(m, "T"), sh1p):
        for k in range(1, 14):
            assert power_mc(F, k) == reduce(compose_mc, [F] * k), k
            inv = inverse_mc(F)
            assert power_mc(F, -k) == reduce(compose_mc, [inv] * k), -k


def test_power_mc_squares(monkeypatch):
    calls = []
    real = catalog.compose_mc

    def counted(F, G):
        calls.append(1)
        return real(F, G)
    monkeypatch.setattr(catalog, "compose_mc", counted)
    B = generator(build(1, 2), "B")
    B1000 = power_mc(B, 1000)
    assert len(calls) <= 2 * math.ceil(math.log2(1000))
    assert B1000.aut.fwd == tables.power_aut(B.aut, 1000).fwd


def unshortened_rotation(g, p):
    # the product curve_rotation takes before _short picks its representative
    drot, pa1 = tables.row_rotation(g, p), tables.push_over(g, p, 1)
    if g == 1:
        return compose(pa1, drot)
    if p == 2:
        core = tables.fold([pa1, drot, inverse(pa1),
                            inverse(tables.push_through(g, p, 1))])
        z = tables.fold([inverse(tables.push_through(g, p, i))
                         for i in range(2, g + 1)])
        return tables.fold([inverse(z), core, z])
    frame = tables.annulus_frame(g, p)
    return tables.fold([inverse(frame), tables.annulus_rotation(g, p), frame])


@pytest.mark.parametrize("gp", [(1, 2), (1, 5), (2, 2), (7, 2), (2, 3), (3, 3)],
                         ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def test_rotation_is_outer_equal_to_its_product(gp):
    m = build(*gp)
    T, raw = generator(m, "T"), unshortened_rotation(*gp)
    assert inner_witness(T.aut, raw) is not None
    assert (T.perm, T.sign) == _peripheral_action(m, raw)
    assert sum(map(len, T.aut.fwd)) <= sum(map(len, raw.fwd))


def reduced_words_upto(n, k):
    words = [()]
    for w in words:
        if len(w) < k:
            words.extend(w + (x,) for x in range(-n, n + 1)
                         if x and (not w or x != -w[-1]))
    return words


@pytest.mark.parametrize("gp", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)],
                         ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def test_no_short_conjugator_shortens_rotation(gp):
    T = tables.curve_rotation(*gp)
    least = sum(map(len, T.fwd))
    for w in reduced_words_upto(T.rank, 4):
        wi = invert(w)
        assert sum(len(concat(w, u, wi)) for u in T.fwd) >= least, w


# sha256 of the sorted-key JSON of {name: (fwd, bwd, perm, sign)} over the
# vocabulary, taken after curve_rotation stored T by a short inner
# representative (g3p3 kept its tables); a change to any generator table
# changes its digest.
FROZEN_TABLES = {
    (1, 2): "efd72edbac35c14e1877ac189f2a5759851d54a53cc40f4799cc60ece41f781a",
    (2, 2): "ae4de9b077b7dd2ac4642e0404a49ebe8460f3f9fe3669f04fe6d0b9cfd0eff7",
    (2, 3): "0648f76fcbc0ec4a5267c1367106a8c2a81ceb95dfeafdcb77504665eb00349c",
    (7, 2): "a3bb168d8bf1f0b8d9483a7430b923d41179041d1e63f223f2a9e7ad96c66950",
    (1, 5): "61c483f5df17a4b802cdc5bf5ff998e712962f1b6bef5f0ac8d791813a2796a4",
    (3, 3): "865cedbd71fcea2605d7d39c89cdfa147dc38428d6a6aa97fbbbc256ad8ee613",
}


@pytest.mark.parametrize("gp", sorted(FROZEN_TABLES),
                         ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def test_vocabulary_tables_frozen(gp):
    tables_of = {name: (F.aut.fwd, F.aut.bwd, F.perm, F.sign)
                 for name, F in vocabulary(build(*gp)).items()}
    text = json.dumps(tables_of, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_TABLES[gp]


# sha256 of the sorted-key JSON of validate's report: item names, order,
# verdicts and details; a renamed, reordered or added item changes it.
FROZEN_REPORTS = {
    (1, 2): "0b406d398ac47e28192e80f301d014677dc8aee62c3535ea465041dbf9850e8a",
    (2, 3): "abc4b0ada250ae0bed61fa330b377a4e1876d87a19401ef515e65c5cdf20632e",
    (3, 3): "9142da7a83bbd3665255ffa9459fc5a39559e1fb4164e408d57842593beed0fd",
}


@pytest.mark.parametrize("gp", sorted(FROZEN_REPORTS),
                         ids=lambda gp: f"g{gp[0]}p{gp[1]}")
def test_validate_reports_frozen(gp):
    text = json.dumps(validate(build(*gp)).as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_REPORTS[gp]
