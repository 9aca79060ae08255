import random

import pytest
from sympy import Matrix, diag, eye

from mcg import reps
from mcg.catalog import (compose_mc, generator, identity_mc, power_mc,
                         vocabulary)
from mcg.surface import build

GRID = [(1, 2), (1, 3), (2, 2), (2, 3)]


def random_products(model, count, max_len, seed):
    rng = random.Random(seed)
    vocab = vocabulary(model)
    names = sorted(vocab)
    for _ in range(count):
        F = identity_mc(model)
        for _ in range(rng.randint(1, max_len)):
            F = compose_mc(F, power_mc(vocab[rng.choice(names)],
                                       rng.choice([-1, 1])))
        yield F


def symplectic_form(g):
    """One hyperbolic block per handle, in the handle order a_i, b_i."""
    return diag(*[Matrix([[0, 1], [-1, 0]])] * g)


def assert_form_laws(F, g, where):
    """det = +-1, puncture classes map into the puncture span, and the
    handle block M satisfies M^T J M = sign(F) J."""
    H = Matrix(reps.homology(F))
    assert H.det() in (-1, 1), where
    assert H[:2 * g, 2 * g:].is_zero_matrix, where
    M, J = H[:2 * g, :2 * g], symplectic_form(g)
    assert M.T * J * M == F.sign * J, where


def test_twist_homology_is_transvection():
    m = build(2, 2)
    J = symplectic_form(2)
    # cycle coordinates of the twisting curves in the handle basis; columns
    # are images, v -> v + <v,c> c with <v,c> = v^T J c
    cycles = {"A1": (1, 0, 0, 0), "A2": (0, 1, 0, 0),
              "A4": (0, 0, 0, 1), "B": (0, 0, 1, 0)}
    for name, c in cycles.items():
        c = Matrix(c)
        M = Matrix(reps.homology(generator(m, name)))[:4, :4]
        assert M == eye(4) + c * (J * c).T, name


@pytest.mark.parametrize("g,p", GRID, ids=lambda v: str(v))
def test_catalog_elements_preserve_form(g, p):
    for name, F in sorted(vocabulary(build(g, p)).items()):
        assert_form_laws(F, g, name)


@pytest.mark.parametrize("g,p", GRID, ids=lambda v: str(v))
def test_random_products_preserve_form(g, p):
    m = build(g, p)
    for k, F in enumerate(random_products(m, 30, 8, seed=g * 100 + p)):
        assert_form_laws(F, g, k)


def test_homology_multiplicative():
    m = build(1, 3)
    vocab = vocabulary(m)
    F, G = vocab["A1"], vocab["T"]
    assert Matrix(reps.homology(compose_mc(F, G))) == \
        Matrix(reps.homology(F)) * Matrix(reps.homology(G))


def test_fingerprint_fields():
    m = build(1, 2)
    F = vocabulary(m)["T"]
    fp = reps.fingerprint(F)
    assert fp.perm == F.perm and fp.sign == F.sign
    d = fp.as_dict()
    assert set(d) == {"matrix", "perm", "sign"}
    assert d["perm"] == [2, 1]


def test_fingerprint_constant_on_equal_classes():
    # suite-proven equal pairs carry identical fingerprints
    m = build(1, 3)
    vocab = vocabulary(m)
    S = vocab["S"]
    from mcg.catalog import equal, inverse_mc
    lhs = compose_mc(S, compose_mc(vocab["A1"], inverse_mc(S)))
    rhs = vocab["A2"]
    assert equal(lhs, rhs)
    assert reps.fingerprint(lhs) == reps.fingerprint(rhs)
