import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from mcg import catalog, certify
from mcg.catalog import compose_mc, equal, inverse_mc, vocabulary
from mcg.grammar import Term, evaluate_ast, merge_terms, parse_word, print_word
from mcg.surface import build


# ---------------------------------------------------------------------------
# symmetric group closure


def brute_force_order(perms, p):
    # BFS closure over composition, feasible for p <= 6
    ident = tuple(range(1, p + 1))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(q) for q in perms]
    while frontier:
        nxt = []
        for x in frontier:
            for q in gens:
                y = tuple(q[x[i] - 1] for i in range(p))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def test_sym_gen_check_frozen():
    assert certify.sym_gen_check([(2, 1), (1, 2)], 2) == (True, 2)
    assert certify.sym_gen_check([(1, 2)], 2) == (False, 1)
    assert certify.sym_gen_check([(2, 1, 3), (2, 3, 1)], 3) == (True, 6)
    assert certify.sym_gen_check([(2, 3, 1)], 3) == (False, 3)
    # transposition (1 p) with the long cycle generates everything
    for p in range(2, 9):
        swap = list(range(1, p + 1))
        swap[0], swap[-1] = p, 1
        cycle = tuple(list(range(2, p + 1)) + [1])
        generates, order = certify.sym_gen_check([tuple(swap), cycle], p)
        assert generates
        assert order == _factorial(p)
    # one puncture: the trivial group is all of S_1 (mcg sym --p 1)
    assert certify.sym_gen_check([(1,)], 1) == (True, 1)


def _factorial(p):
    out = 1
    for i in range(2, p + 1):
        out *= i
    return out


def test_sym_gen_check_rejects_bad_input():
    with pytest.raises(ValueError):
        certify.sym_gen_check([(1, 1)], 2)
    with pytest.raises(ValueError):
        certify.sym_gen_check([(1, 2, 3)], 2)
    with pytest.raises(ValueError):
        certify.sym_gen_check([], 11)


def test_sym_gen_check_matches_brute_force_on_random_sets():
    rng = random.Random(2024)
    for _ in range(100):
        p = rng.randint(1, 6)
        k = rng.randint(1, 3)
        perms = []
        for _ in range(k):
            q = list(range(1, p + 1))
            rng.shuffle(q)
            perms.append(tuple(q))
        generates, order = certify.sym_gen_check(perms, p)
        want = brute_force_order(perms, p)
        assert order == want
        assert generates == (want == _factorial(p))


def test_sym_gen_check_matches_sympy_order():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(7)
    for p in range(2, 8):
        for _ in range(15):
            perms = []
            for _ in range(2):
                q = list(range(1, p + 1))
                rng.shuffle(q)
                perms.append(tuple(q))
            want = combinatorics.PermutationGroup(
                [combinatorics.Permutation([x - 1 for x in q])
                 for q in perms]).order()
            generates, order = certify.sym_gen_check(perms, p)
            assert order == want, (p, perms)
            assert generates == (want == _factorial(p))


def test_sym_gen_check_alternating_subgroup():
    # 3-cycles only generate the alternating group
    assert certify.sym_gen_check([(2, 3, 1, 4), (1, 3, 4, 2)], 4) == (False, 12)


# ---------------------------------------------------------------------------
# witness synthesis


@pytest.fixture(scope="module")
def torus():
    return build(1, 2)


@pytest.fixture(scope="module")
def torus_gens(torus):
    return certify._thm_generators(torus)


def test_synthesize_structured_targets(torus, torus_gens):
    vocab = vocabulary(torus)
    want = {
        "A1": "B",
        "A2": "SH1p B SH1p^-1",
        "E0": "SH1p B SH1p^-1",
        "E1": "T SH1p B SH1p^-1 T^-1",
    }
    for name, expected in want.items():
        got = certify.synthesize(torus, name, torus_gens)
        assert got is not None, name
        word, cert = got
        assert print_word(word) == expected
        assert cert.valid
        assert certify.verify(cert)
        evaluated = evaluate_ast(word, torus_gens, torus)
        assert equal(evaluated, vocab[name])


def test_synthesize_records_derivation_steps():
    m = build(2, 2)
    want = "SH1p^2 B SH1p B SH1p^-1 B^-1 SH1p^-2"
    word, cert = certify.synthesize(m, "A2", certify._thm_generators(m))
    assert print_word(word) == want
    assert cert.witness == want
    assert cert.transcript == [{
        "op": "kernel-witness",
        "inputs": {"target": "A2", "witness": want},
        "verdict": True,
    }]
    assert list(cert.fingerprints) == ["target"]
    assert certify.verify(cert)


def test_synthesize_memo_hit_replays_steps():
    m = build(2, 2)
    gens = certify._thm_generators(m)
    first = certify.synthesize(m, "A2", gens)
    again = certify.synthesize(m, "A2", gens)
    assert again[0] == first[0]
    assert again[1].as_dict() == first[1].as_dict()
    # each certificate owns its steps: editing one leaves the other
    again[1].transcript[0]["inputs"]["witness"] = "edited"
    assert first[1].transcript[0]["inputs"]["witness"] == print_word(first[0])


@pytest.mark.parametrize("g, p, searches", [(2, 2, 5), (2, 3, 6)],
                         ids=["g2p2", "g2p3"])
def test_certify_thm9_search_count_on_budget(monkeypatch, g, p, searches):
    calls = []
    search = certify._mim_search
    monkeypatch.setattr(certify, "_mim_search",
                        lambda *a: calls.append(1) or search(*a))
    m = build(g, p)
    # every target follows from B by rules: no search, whatever the budget
    cert = certify.certify_thm9(m, certify.SearchLimits(depth=1))
    assert cert.valid and certify.verify(cert)
    assert calls == []
    # an A1 closed form that fails the gate falls through to the search
    # (the empty conjugator gives B, not A1); depth 1 then reaches no A_i
    # and no E_j: A1..A2g and E1..E{p-1} each search once, B is a
    # generator and E0 reuses the A2 derivation
    monkeypatch.setattr(certify, "_a1_conjugator", lambda g: ())
    cert = certify.certify_thm9(m, certify.SearchLimits(depth=1))
    assert not cert.valid
    assert len(calls) == searches


@pytest.mark.parametrize("g, p", [(g, 2) for g in range(2, 8)]
                         + [(3, 3), (4, 4)])
def test_a1_closed_form_is_a1(g, p):
    m = build(g, p)
    f = print_word(certify._a1_conjugator(g))
    word = parse_word(f"{f} B ({f})^-1")
    got = evaluate_ast(word, certify._thm_generators(m), m)
    assert equal(got, catalog.generator(m, "A1"))


@pytest.mark.parametrize("g, p", [(3, 2), (3, 3), (4, 2), (4, 4)])
def test_certify_thm9_higher_genus_verifies(g, p):
    cert = certify.certify_thm9(build(g, p))
    assert cert.valid
    back = certify.certificate_from_dict(json.loads(cert.to_json()))
    assert certify.verify(back)


def test_synthesize_honest_on_budget_exhaustion(torus, torus_gens):
    # a target out of reach at depth 0 yields None, never a false claim
    tiny = certify.SearchLimits(depth=0, max_states=1)
    gens = {"T": torus_gens["T"]}
    got = certify.synthesize(torus, "DELTA", gens, limits=tiny)
    assert got is None


def test_mim_search_finds_short_products(torus, torus_gens):
    target = compose_mc(torus_gens["B"], torus_gens["T"])
    word = certify._mim_search(torus, target, torus_gens,
                               certify.SearchLimits(depth=4,
                                                    max_states=20000))
    assert word is not None
    assert equal(evaluate_ast(word, torus_gens, torus), target)


def test_word_helpers_roundtrip():
    word = (Term("B", 1), Term("SH1p", -2), Term("T", 3))
    text = print_word(word)
    assert text == "B SH1p^-2 T^3"
    assert parse_word(text) == word
    assert parse_word("1") == ()
    assert print_word(()) == "1"


def test_word_merge_cancels_adjacent():
    merged = merge_terms((Term("T", 1), Term("T", -1), Term("B", 2),
                          Term("B", 1)))
    assert merged == (Term("B", 3),)


# ---------------------------------------------------------------------------
# certificates


def test_closure_certificate_valid_path():
    cert = certify.closure_certificate(
        [("B", "B"), ("A1", "B"), ("A2", "SH1p B SH1p^-1"),
         ("E0", "SH1p B SH1p^-1"), ("E1", "T SH1p B SH1p^-1 T^-1")],
        [[2, 1], [2, 1]], 2, 1, ["B", "SH1p", "T"])
    assert cert.valid
    ops = [item["op"] for item in cert.transcript]
    assert ops.count("kernel-witness") == 5
    assert ops[-1] == "sym_gen_check"


def test_closure_certificate_flags_missing_witness():
    cert = certify.closure_certificate(
        [("B", "B")], [[2, 1]], 2, 1, ["B", "SH1p", "T"])
    assert not cert.valid
    missing = [item for item in cert.transcript
               if item["op"] == "kernel-witness" and not item["verdict"]]
    assert missing and all(item["error"] == "missing witness"
                           for item in missing)


def test_closure_certificate_flags_budget_exhausted():
    cert = certify.closure_certificate(
        [("B", "B"), ("A1", None)], [[2, 1]], 2, 1, ["B", "SH1p", "T"])
    assert not cert.valid
    errors = {item["inputs"]["target"]: item.get("error")
              for item in cert.transcript if item["op"] == "kernel-witness"}
    assert errors == {"B": None, "A1": "budget exhausted",
                      "A2": "missing witness", "E0": "missing witness",
                      "E1": "missing witness"}


def test_closure_certificate_flags_small_quotient():
    witnesses = [("B", "B"), ("A1", "B"), ("A2", "SH1p B SH1p^-1"),
                 ("E0", "SH1p B SH1p^-1"), ("E1", "T SH1p B SH1p^-1 T^-1"),
                 ("E2", "T^2 SH1p B SH1p^-1 T^-2")]
    cert = certify.closure_certificate(witnesses, [[2, 3, 1]], 3, 1,
                                       ["B", "SH1p", "T"])
    assert all(item["verdict"] for item in cert.transcript[:-1])
    last = cert.transcript[-1]
    assert last["op"] == "sym_gen_check"
    assert last["verdict"] is False and last["order"] == 3
    assert not cert.valid


def test_closure_certificate_toy_vacuous():
    # one puncture: the quotient is the trivial group S_1, no content
    cert = certify.closure_certificate(
        [("B", "B"), ("A1", "B"), ("A2", "SH1p B SH1p^-1"),
         ("E0", "SH1p B SH1p^-1")],
        [[1]], 1, 1, ["B", "SH1p", "T"])
    assert cert.valid
    assert cert.transcript[-1]["op"] == "sym_gen_check"
    assert cert.transcript[-1]["order"] == 1


def test_certificate_json_roundtrip(torus):
    cert = certify.certify_thm10(torus)
    data = json.loads(cert.to_json())
    back = certify.certificate_from_dict(data)
    assert back.as_dict() == cert.as_dict()
    assert back.to_json() == cert.to_json()


def test_certificate_from_dict_rejects_malformed():
    with pytest.raises(certify.CertificateError):
        certify.certificate_from_dict([])
    with pytest.raises(certify.CertificateError):
        certify.certificate_from_dict({"schema_version": "1"})
    good = certify.certify_thm10(build(1, 2)).as_dict()
    bad = dict(good)
    bad["schema_version"] = "0"
    with pytest.raises(certify.CertificateError):
        certify.certificate_from_dict(bad)
    bad = dict(good)
    bad["transcript"] = "nope"
    with pytest.raises(certify.CertificateError):
        certify.certificate_from_dict(bad)


# ---------------------------------------------------------------------------
# end-to-end theorems


def test_certify_thm9_torus(torus):
    cert = certify.certify_thm9(torus)
    assert cert.valid
    assert certify.verify(cert)
    names = [item["inputs"]["target"] for item in cert.transcript
             if item["op"] == "kernel-witness"]
    assert names == ["B", "A1", "A2", "E0", "E1"]
    ops = [item["op"] for item in cert.transcript]
    assert ops == ["kernel-witness"] * 5 + ["sym_gen_check"]


def test_certify_thm9_builds_catalog_once(monkeypatch):
    counts = {"_mim_search": 0, "vocabulary": 0}
    for module, name in ((certify, "_mim_search"), (catalog, "vocabulary")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cert = certify.certify_thm9(build(2, 2))
    assert cert.valid
    assert counts == {"_mim_search": 0, "vocabulary": 0}


def test_thm10_and_theorem_generators_skip_the_vocabulary(monkeypatch):
    m = build(1, 3)
    vocab = vocabulary(m)
    want_gens = {"B": vocab["B"], "T": vocab["T"],
                 "SH1p": compose_mc(vocab["S"], vocab["H1p"])}
    want_cert = certify.certify_thm10(m).as_dict()

    def no_vocabulary(model):
        raise AssertionError("vocabulary built")
    monkeypatch.setattr(catalog, "vocabulary", no_vocabulary)
    assert certify._thm_generators(m) == want_gens
    assert certify.certify_thm10(m).as_dict() == want_cert


def test_verify_skips_the_vocabulary(monkeypatch, real_certificates):
    certs = [certify.certificate_from_dict(json.loads(real_certificates[k]))
             for k in ("thm9 (1,3)", "synth A2")]
    certs.append(certify.certify_thm9(build(2, 2)))

    def no_vocabulary(model):
        raise AssertionError("vocabulary built")
    monkeypatch.setattr(catalog, "vocabulary", no_vocabulary)
    for cert in certs:
        assert certify.verify(cert), cert.kind


def test_certify_thm9_genus_two_witnesses():
    cert = certify.certify_thm9(build(2, 2))
    got = {item["inputs"]["target"]: item["inputs"]["witness"]
           for item in cert.transcript if item["op"] == "kernel-witness"}
    base = "B SH1p B SH1p^-1 B^-1"
    assert got == {
        "B": "B",
        "A1": f"SH1p {base} SH1p^-1",
        "A2": f"SH1p^2 {base} SH1p^-2",
        "A3": f"SH1p^3 {base} SH1p^-3",
        "A4": f"SH1p^4 {base} SH1p^-4",
        "E0": f"SH1p^2 {base} SH1p^-2",
        "E1": f"T SH1p^2 {base} SH1p^-2 T^-1",
    }
    assert certify.verify(cert)


def test_certify_thm10_at_p2_points():
    for g in (1, 2):
        m = build(g, 2)
        cert = certify.certify_thm10(m)
        assert cert.valid, (g, cert.transcript)
        assert certify.verify(cert)
        kinds = [item["op"] for item in cert.transcript]
        assert kinds == ["sign", "equal", "equal"]


def test_verify_rejects_tampered_witness(torus):
    cert = certify.certify_thm9(torus)
    data = json.loads(cert.to_json())
    for item in data["transcript"]:
        if item["op"] == "kernel-witness" and "witness" in item["inputs"]:
            item["inputs"]["witness"] = "B B"
            break
    assert not certify.verify(certify.certificate_from_dict(data))


def test_verify_rejects_witness_outside_generators(torus):
    cert = certify.certify_thm9(torus)
    data = json.loads(cert.to_json())
    for item in data["transcript"]:
        if item["op"] == "kernel-witness" and item["verdict"]:
            # A2 names itself: true as classes, but not a legal witness
            item["inputs"]["witness"] = item["inputs"]["target"]
    assert not certify.verify(certify.certificate_from_dict(data))


def _set_witness(data, target, text):
    for item in data["transcript"]:
        inputs = item["inputs"]
        if isinstance(inputs, dict) and inputs.get("target") == target \
                and "witness" in inputs:
            inputs["witness"] = text
    return certify.certificate_from_dict(data)


def test_verify_false_on_malformed_witness(torus):
    text = certify.certify_thm9(torus).to_json()
    for word in ("B^", "B^x"):
        forged = _set_witness(json.loads(text), "A1", word)
        assert certify.verify(forged) is False, word


def test_verify_false_on_malformed_equal_label(torus):
    data = json.loads(certify.certify_thm10(torus).to_json())
    step = next(item for item in data["transcript"] if item["op"] == "equal")
    step["inputs"][0] = "TP QQ^-1"
    assert certify.verify(certify.certificate_from_dict(data)) is False


def test_verify_grouped_witness_and_allowlist(torus):
    text = certify.certify_thm9(torus).to_json()
    grouped = _set_witness(json.loads(text), "A2", "(SH1p B SH1p^-1)")
    assert certify.verify(grouped)
    # A1 is a class of the surface but not one of cert.generators
    outside = _set_witness(json.loads(text), "A2", "(SH1p A1 SH1p^-1)")
    assert certify.verify(outside) is False


@pytest.mark.parametrize("surface_edit", ["null", "deleted"])
@pytest.mark.parametrize("garbage", [False, True])
def test_verify_rejects_certificate_without_surface_genus(torus, surface_edit,
                                                           garbage):
    data = json.loads(certify.certify_thm9(torus).to_json())
    if surface_edit == "null":
        data["surface"]["g"] = None
    else:
        del data["surface"]["g"]
    if garbage:
        for item in data["transcript"]:
            if "witness" in item["inputs"]:
                item["inputs"]["witness"] = "not a word ^^"
    assert certify.verify(certify.certificate_from_dict(data)) is False


def test_verify_rejects_flipped_verdict(torus):
    cert = certify.certify_thm10(torus)
    data = json.loads(cert.to_json())
    data["transcript"][0]["verdict"] = False
    assert not certify.verify(certify.certificate_from_dict(data))


def test_verify_rejects_tampered_order(torus):
    cert = certify.certify_thm9(torus)
    data = json.loads(cert.to_json())
    for item in data["transcript"]:
        if item["op"] == "sym_gen_check":
            item["order"] = 720
    assert not certify.verify(certify.certificate_from_dict(data))


@pytest.fixture(scope="module")
def real_certificates(torus, torus_gens):
    """JSON of real certificates: theorem 9 on (1,2) and (1,3), synth A2."""
    out = {f"thm9 ({g},{p})": certify.certify_thm9(build(g, p)).to_json()
           for g, p in ((1, 2), (1, 3))}
    for name in ("A2", "B"):
        _, cert = certify.synthesize(torus, name, torus_gens)
        out[f"synth {name}"] = cert.to_json()
    return out


def _kernel_steps(data):
    return [s for s in data["transcript"] if s["op"] == "kernel-witness"]


def _empty_transcript(data):
    data["transcript"] = []


def _self_witnesses_without_generators(data):
    data["generators"] = []
    for step in _kernel_steps(data):
        step["inputs"]["witness"] = step["inputs"]["target"]


def _delete_e1(data):
    data["transcript"] = [s for s in data["transcript"]
                          if s["inputs"].get("target") != "E1"]


def _unknown_kind(data):
    data["kind"] = "anything"


def _unrelated_perms(data):
    # [[2, 1]] generates S_2 too, but is not the image of SH1p and T
    data["transcript"][-1]["inputs"]["perms"] = [[2, 1]]


def _extra_step_over_a2(data):
    data["transcript"].append({"op": "equal", "inputs": ["A2", "target"],
                               "verdict": True})


def _b_as_a2(data):
    data["target"] = "A2"
    data["transcript"][0]["inputs"]["target"] = "A2"


FORGERIES = {
    "empty-transcript": ("thm9 (1,2)", _empty_transcript),
    "self-witnesses": ("thm9 (1,2)", _self_witnesses_without_generators),
    "e1-deleted": ("thm9 (1,2)", _delete_e1),
    "unknown-kind": ("thm9 (1,2)", _unknown_kind),
    "unrelated-perms": ("thm9 (1,2)", _unrelated_perms),
    "non-generator-step": ("synth A2", _extra_step_over_a2),
    "b-named-a2": ("synth B", _b_as_a2),
}


@pytest.mark.parametrize("forgery", list(FORGERIES))
def test_verify_rejects_forgery(real_certificates, forgery):
    source, forge = FORGERIES[forgery]
    data = json.loads(real_certificates[source])
    assert certify.verify(certify.certificate_from_dict(data))
    forge(data)
    assert certify.verify(certify.certificate_from_dict(data)) is False


def test_verify_rejects_membership_over_other_generators(torus, torus_gens):
    # a true membership claim, but not over B, SH1p, T
    vocab = vocabulary(torus)
    gens = {"B": torus_gens["B"], "A2": vocab["A2"]}
    _, cert = certify.synthesize(torus, "A2", gens)
    assert cert.witness == "A2" and cert.valid
    assert certify.verify(cert) is False


_WORDS = st.lists(st.tuples(st.sampled_from(["B", "SH1p", "T"]),
                            st.sampled_from([1, -1, 2])),
                  min_size=1, max_size=4).map(
    lambda terms: " ".join(f"{b}^{e}" for b, e in terms))
_MUTATIONS = ("delete-step", "drop-witness", "replace-witness", "retarget",
              "flip-verdict", "order", "perms", "kind", "generators")


def _mutate(data, mutation, draw):
    """Apply one mutation that changes what the certificate claims."""
    steps = data["transcript"]
    kernel = _kernel_steps(data)
    sym = [s for s in steps if s["op"] == "sym_gen_check"]
    g, p = data["surface"]["g"], data["surface"]["p"]
    if mutation == "delete-step":
        del steps[draw(st.integers(0, len(steps) - 1))]
    elif mutation == "drop-witness":
        del draw(st.sampled_from(kernel))["inputs"]["witness"]
    elif mutation == "replace-witness":
        step = draw(st.sampled_from(kernel))
        word = draw(_WORDS)
        m = build(g, p)
        gens = certify._thm_generators(m)
        assume(not equal(evaluate_ast(parse_word(word), gens, m),
                         vocabulary(m)[step["inputs"]["target"]]))
        step["inputs"]["witness"] = word
    elif mutation == "retarget":
        step = draw(st.sampled_from(kernel))
        others = [n for n in certify._gervais_set(g, p)
                  if n != step["inputs"]["target"]]
        step["inputs"]["target"] = draw(st.sampled_from(others))
    elif mutation == "flip-verdict":
        step = draw(st.sampled_from(steps))
        step["verdict"] = not step["verdict"]
    elif mutation == "order":
        assume(sym)
        sym[0]["order"] += draw(st.sampled_from([-2, -1, 1, 6]))
    elif mutation == "perms":
        assume(sym)
        perms = draw(st.lists(st.permutations(range(1, p + 1)).map(list),
                              min_size=1, max_size=3))
        assume(perms != sym[0]["inputs"]["perms"])
        sym[0]["inputs"]["perms"] = perms
    elif mutation == "kind":
        data["kind"] = draw(st.sampled_from(
            [k for k in ("theorem-9", "theorem-10", "membership",
                         "generation", "Theorem-9") if k != data["kind"]]))
    else:
        names = data["generators"]
        if draw(st.booleans()):
            del names[draw(st.integers(0, len(names) - 1))]
        else:
            names.insert(draw(st.integers(0, len(names))),
                         draw(st.sampled_from(["A1", "R", "SH1p", "1"])))


@settings(max_examples=80, deadline=None)
@given(source=st.sampled_from(["thm9 (1,2)", "thm9 (1,3)", "synth A2"]),
       mutation=st.sampled_from(_MUTATIONS), data=st.data())
def test_verify_fuzz_rejects_mutations(real_certificates, source, mutation,
                                       data):
    cert = json.loads(real_certificates[source])
    _mutate(cert, mutation, data.draw)
    assert certify.verify(certify.certificate_from_dict(cert)) is False


def test_preamble_states_closure_reading(torus):
    cert = certify.certify_thm9(torus)
    assert "kernel" in cert.preamble and "quotient" in cert.preamble
