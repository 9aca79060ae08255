"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line; the grid covers the four
surfaces (1,2), (1,3), (2,2), (2,3).  Tolerances: relation suite under
60 s per surface, witness synthesis end to end under 600 s; everything
else is exact equality.
"""

import json
import random
import time

import pytest

from mcg import certify, cli, reps
from mcg.catalog import (act_on_curve, compose_mc, equal, identity_mc,
                         inverse_mc, power_mc, twist, validate, vocabulary)
from mcg.grammar import evaluate_ast
from mcg.surface import build, curve
from mcg.words import ad_aut, inner_witness, reduce_word

GRID = [(1, 2), (1, 3), (2, 2), (2, 3)]


def report(n, ok, detail=""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, detail


def test_criterion_01_relation_suite():
    worst = 0.0
    for g, p in GRID:
        t0 = time.time()
        rep = validate(build(g, p))
        dt = time.time() - t0
        worst = max(worst, dt)
        bad = [it.name for it in rep.items if not it.passed]
        if bad or dt >= 60:
            report(1, False, f"({g},{p}): {bad[:3]} in {dt:.1f}s")
    report(1, True, f"4 surfaces, worst {worst:.1f}s")


def test_criterion_02_rotation_puncture_action():
    for g, p in GRID:
        T = vocabulary(build(g, p))["T"]
        want = tuple(list(range(2, p + 1)) + [1])
        if T.perm != want or T.sign != 1:
            report(2, False, f"({g},{p}): perm {T.perm}")
    report(2, True, "perm(T) is the long cycle on the grid")


def test_criterion_03_rotation_curve_family():
    for g, p in GRID:
        m = build(g, p)
        T = vocabulary(m)["T"]
        for i in range(p):
            if act_on_curve(T, curve(m, f"e{i}")) != \
                    curve(m, f"e{(i + 1) % p}"):
                report(3, False, f"({g},{p}): e{i}")
    report(3, True, "T carries e_i to e_(i+1 mod p) on the grid")


def test_criterion_04_conjugate_twist_family():
    for g, p in GRID:
        m = build(g, p)
        vocab = vocabulary(m)
        T = vocab["T"]
        for j in range(p):
            lhs = compose_mc(power_mc(T, j),
                             compose_mc(vocab["E0"], power_mc(T, -j)))
            if not equal(lhs, vocab[f"E{j}"]):
                report(4, False, f"({g},{p}): j={j}")
    report(4, True, "T^j E0 T^-j = E_j on the grid")


def test_criterion_05_quotient_step():
    fact = 1
    for p in range(2, 9):
        fact = 1
        for i in range(2, p + 1):
            fact *= i
        m = build(1, p)
        vocab = vocabulary(m)
        sh1p = compose_mc(vocab["S"], vocab["H1p"])
        swap = list(range(1, p + 1))
        swap[0], swap[-1] = p, 1
        cycle = tuple(list(range(2, p + 1)) + [1])
        if sh1p.perm != tuple(swap) or vocab["T"].perm != cycle:
            report(5, False, f"p={p}: catalog images off")
        generates, order = certify.sym_gen_check([sh1p.perm, vocab["T"].perm],
                                                 p)
        if not generates or order != fact:
            report(5, False, f"p={p}: order {order}")
        if p <= 6:
            from test_certify import brute_force_order
            if brute_force_order([sh1p.perm, vocab["T"].perm], p) != order:
                report(5, False, f"p={p}: brute force disagrees")
    report(5, True, "S_p closure for p=2..8, brute force agrees to 6")


def test_criterion_06_membership_witnesses():
    t0 = time.time()
    m = build(1, 2)
    vocab = vocabulary(m)
    gens = certify._thm_generators(m)
    for name in ("A1", "A2", "E0", "E1"):
        got = certify.synthesize(m, name, gens)
        if got is None:
            report(6, False, f"{name}: no witness")
        word, cert = got
        evaluated = evaluate_ast(word, gens, m)
        if not (equal(evaluated, vocab[name]) and cert.valid
                and certify.verify(cert)):
            report(6, False, f"{name}: witness fails the gate")
    cert9 = certify.certify_thm9(m)
    dt = time.time() - t0
    ok = cert9.valid and certify.verify(cert9) and dt < 600
    report(6, ok, f"4 witnesses + certify-thm9 in {dt:.1f}s")


def test_criterion_07_extended_group():
    for g in (1, 2):
        m = build(g, 2)
        vocab = vocabulary(m)
        tp, r, rho2 = vocab["TP"], vocab["R"], vocab["RHO2"]
        if tp.sign != -1:
            report(7, False, f"g={g}: sign(T') = {tp.sign}")
        if not equal(compose_mc(tp, inverse_mc(rho2)), r):
            report(7, False, f"g={g}: R != T' rho2^-1")
        if not equal(compose_mc(r, r), identity_mc(m)):
            report(7, False, f"g={g}: R^2 != 1")
        cert = certify.certify_thm10(m)
        if not (cert.valid and certify.verify(cert)):
            report(7, False, f"g={g}: certificate invalid")
    report(7, True, "sign(T')=-1, R = T' rho2^-1, R^2 = 1, certs valid")


def test_criterion_08_equality_engine():
    rng = random.Random(424242)
    for k in range(1000):
        rank = rng.randint(2, 9)
        raw = [rng.choice([-1, 1]) * rng.randint(1, rank)
               for _ in range(rng.randint(0, 30))]
        w = reduce_word(raw)
        got = inner_witness(ad_aut(rank, w))
        if got is None or ad_aut(rank, got).fwd != ad_aut(rank, w).fwd:
            report(8, False, f"recovery {k} failed")
    m = build(1, 3)
    vocab = vocabulary(m)
    if equal(vocab["A1"], vocab["A2"]) or equal(vocab["T"], identity_mc(m)):
        report(8, False, "equal() fails to separate")
    S, T = vocab["S"], vocab["T"]
    proven = [(compose_mc(S, compose_mc(vocab["A1"], inverse_mc(S))),
               vocab["A2"])]
    proven += [(compose_mc(T, compose_mc(vocab[f"E{j}"], inverse_mc(T))),
                vocab[f"E{(j + 1) % 3}"]) for j in range(3)]
    for lhs, rhs in proven:
        if not equal(lhs, rhs) or \
                reps.fingerprint(lhs) != reps.fingerprint(rhs):
            report(8, False, "fingerprint disagrees on an equal pair")
    report(8, True, "1000 recoveries, separations, fingerprints consistent")


def test_criterion_09_representation_laws():
    checked = 0
    for g, p in GRID:
        m = build(g, p)
        J = reps.symplectic_form(g)
        vocab = vocabulary(m)
        for name in sorted(vocab):
            F = vocab[name]
            if reps.det(reps.homology(F)) not in (-1, 1):
                report(9, False, f"({g},{p}) {name}: det")
            M = reps.genus_block(F)
            want = tuple(tuple(F.sign * x for x in row) for row in J)
            if reps.matmul(reps.transpose(M), reps.matmul(J, M)) != want:
                report(9, False, f"({g},{p}) {name}: form")
        rng = random.Random(1000 * g + p)
        names = sorted(vocab)
        for _ in range(50):
            F = identity_mc(m)
            for _ in range(rng.randint(1, 12)):
                F = compose_mc(F, power_mc(vocab[rng.choice(names)],
                                           rng.choice([-1, 1])))
            checked += 1
            if reps.det(reps.homology(F)) not in (-1, 1):
                report(9, False, f"({g},{p}) random product: det")
            M = reps.genus_block(F)
            want = tuple(tuple(F.sign * x for x in row) for row in J)
            if reps.matmul(reps.transpose(M), reps.matmul(J, M)) != want:
                report(9, False, f"({g},{p}) random product: form")
    report(9, True, f"all catalog elements + {checked} random products")


def test_criterion_10_determinism(capsys, tmp_path):
    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out

    runs = []
    for _ in range(2):
        runs.append(run("suite", "--g", "1", "--p", "3", "--json"))
    if runs[0] != runs[1]:
        report(10, False, "suite output differs")
    runs = []
    for _ in range(2):
        runs.append(run("certify-thm9", "--g", "1", "--p", "2", "--json",
                        "--seed", "3"))
    if runs[0] != runs[1]:
        report(10, False, "certificate output differs")
    cert = certify.certify_thm10(build(1, 2))
    if cert.to_json() != certify.certify_thm10(build(1, 2)).to_json():
        report(10, False, "thm10 JSON differs across runs")
    report(10, True, "byte-identical reports and certificates")
