"""Generation certificates and membership-witness synthesis.

Three layers: symmetric-group closure checks on puncture permutations,
witness words for kernel generators (derived by rule; only synthesize
falls back to a meet-in-the-middle search), and replayable certificates
tying both into the exact-sequence closure argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .surface import SurfaceModel, build
# compose is bound here for perfbench's tracer test, which expects it.
from .words import compose, inner_witness  # noqa: F401
from . import reps
from .catalog import (MappingClass, compose_mc, inverse_mc, power_mc,
                      identity_mc, equal, generator, generator_names)
from .grammar import (Term, WordAST, WordSyntaxError, evaluate_ast,
                      merge_terms, parse_word, print_word)

SCHEMA_VERSION = "1"

# the paper's generators of Mod(Sigma_{g,p}) for p >= 2, in certificate order
GENERATORS = ("B", "SH1p", "T")

LEMMA7_READING = (
    "closure reading: a subgroup K of H that contains the kernel image "
    "i(N) and maps onto the quotient Q equals H"
)

Permutation = tuple[int, ...]


class CertificateError(ValueError):
    """Malformed certificate payload."""


# ---------------------------------------------------------------------------
# symmetric group closure


def _check_perm(perm: Sequence[int], p: int) -> Permutation:
    t = tuple(perm)
    if len(t) != p or sorted(t) != list(range(1, p + 1)):
        raise ValueError(f"not a bijection on 1..{p}: {perm}")
    return t


def _pcompose(a: Permutation, b: Permutation) -> Permutation:
    """a after b."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def _orbit_transversal(point: int, gens: list[Permutation], p: int):
    ident = tuple(range(1, p + 1))
    orb = {point: ident}
    queue = [point]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = g[x - 1]
            if y not in orb:
                orb[y] = _pcompose(g, orb[x])
                queue.append(y)
    return orb


def _chain_order(gens: list[Permutation], p: int) -> int:
    ident = tuple(range(1, p + 1))
    gens = sorted({g for g in gens if g != ident})
    if not gens:
        return 1
    point = next(i + 1 for i in range(p) if any(g[i] != i + 1 for g in gens))
    orb = _orbit_transversal(point, gens, p)
    stab: set[Permutation] = set()
    for x in sorted(orb):
        for g in gens:
            t = orb[x]
            u = orb[g[x - 1]]
            u_inv = tuple(u.index(i) + 1 for i in range(1, p + 1))
            stab.add(_pcompose(u_inv, _pcompose(g, t)))
    return len(orb) * _chain_order(sorted(stab), p)


def sym_gen_check(perms: Sequence[Sequence[int]], p: int) -> tuple[bool, int]:
    """Whether the permutations generate the full symmetric group on p points.

    Returns (generates, order of the generated subgroup).  Order comes
    from a stabilizer chain, so the p <= 10 bound stays cheap.
    """
    if not 1 <= p <= 10:
        raise ValueError("closure bound: 1 <= p <= 10")
    gens = [_check_perm(q, p) for q in perms]
    order = _chain_order(gens, p)
    full = 1
    for i in range(2, p + 1):
        full *= i
    return order == full, order


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    schema_version: str
    surface: dict
    kind: str
    target: str
    generators: list[str]
    witness: Optional[str]
    transcript: list[dict]
    fingerprints: dict
    preamble: str = LEMMA7_READING

    @property
    def valid(self) -> bool:
        return all(item.get("verdict") is True for item in self.transcript)

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "surface": self.surface,
            "kind": self.kind,
            "target": self.target,
            "generators": list(self.generators),
            "witness": self.witness,
            "transcript": [dict(t) for t in self.transcript],
            "fingerprints": dict(self.fingerprints),
            "preamble": self.preamble,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)


_FIELDS = {"schema_version": str, "surface": dict, "kind": str, "target": str,
           "generators": list, "witness": (str, type(None)),
           "transcript": list, "fingerprints": dict, "preamble": str}


def certificate_from_dict(data: dict) -> Certificate:
    """Certificate of a JSON payload; CertificateError on a missing field
    or a field of the wrong type."""
    if not isinstance(data, dict):
        raise CertificateError("certificate payload must be an object")
    missing = [f for f in _FIELDS if f not in data]
    if missing:
        raise CertificateError(f"missing fields: {', '.join(missing)}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise CertificateError(f"unsupported schema {data['schema_version']!r}")
    wrong = [f for f, t in _FIELDS.items() if not isinstance(data[f], t)]
    if wrong:
        raise CertificateError(f"wrong field types: {', '.join(wrong)}")
    if not all(isinstance(t, dict) for t in data["transcript"]):
        raise CertificateError("transcript steps must be objects")
    if not all(isinstance(n, str) for n in data["generators"]):
        raise CertificateError("generators must be names")
    if not all(type(data["surface"].get(k)) in (int, type(None))
               for k in ("g", "p")):
        raise CertificateError("surface.g and surface.p must be integers")
    return Certificate(
        schema_version=data["schema_version"],
        surface=dict(data["surface"]),
        kind=data["kind"],
        target=data["target"],
        generators=list(data["generators"]),
        witness=data["witness"],
        transcript=[dict(t) for t in data["transcript"]],
        fingerprints=dict(data["fingerprints"]),
        preamble=data["preamble"],
    )


# ---------------------------------------------------------------------------
# witness words


@dataclass(frozen=True)
class SearchLimits:
    depth: int = 12
    max_states: int = 10 ** 6


def _equal_step(got: MappingClass, want: MappingClass,
                label_got: str, label_want: str) -> dict:
    w = None
    if got.sign == want.sign and got.perm == want.perm:
        w = inner_witness(got.aut, want.aut)
    item = {
        "op": "equal",
        "inputs": [label_got, label_want],
        "verdict": w is not None,
    }
    if w is not None:
        item["inner_witness"] = list(w)
    return item


def _mim_search(model: SurfaceModel, target: MappingClass,
                generators: dict[str, MappingClass],
                limits: SearchLimits) -> Optional[WordAST]:
    """Meet-in-the-middle over homology fingerprints.

    States are deduplicated by exact automorphism tables; fingerprint
    collisions are confirmed with the full outer-equality gate.
    """
    names = sorted(generators)
    steps = [(nm, s) for nm in names for s in (1, -1)]

    def fp_key(mc: MappingClass):
        f = reps.fingerprint(mc)
        return (f.matrix, f.perm, f.sign)

    def tab_key(mc: MappingClass):
        return (mc.aut.fwd, mc.perm, mc.sign)

    ident = identity_mc(model)
    # forward half: products u; backward half keyed by fingerprint
    back: dict = {}
    back_states = {tab_key(ident): ident}
    back_words: dict = {tab_key(ident): ()}
    back.setdefault(fp_key(ident), []).append(tab_key(ident))
    frontier = [ident]
    total = 1

    def check_join(u_mc, u_word):
        # u * v = target  =>  v = u^-1 * target
        need = compose_mc(inverse_mc(u_mc), target)
        for key in back.get(fp_key(need), []):
            v_mc = back_states[key]
            if equal(need, v_mc):
                return merge_terms(u_word + back_words[key])
        return None

    fwd_states = {tab_key(ident): ()}
    fwd_frontier = [(ident, ())]
    got = check_join(ident, ())
    if got is not None:
        return got

    for depth in range(1, limits.depth + 1):
        # grow backward half at even depths, forward at odd, so both sides
        # stay balanced; join test runs on every new forward state
        new_fwd = []
        for mc, word in fwd_frontier:
            for nm, s in steps:
                nxt = compose_mc(mc, power_mc(generators[nm], s))
                key = tab_key(nxt)
                if key in fwd_states:
                    continue
                wd = merge_terms(word + (Term(nm, s),))
                fwd_states[key] = wd
                new_fwd.append((nxt, wd))
                total += 1
                hit = check_join(nxt, wd)
                if hit is not None:
                    return hit
                if total >= limits.max_states:
                    return None
        fwd_frontier = new_fwd

        new_back = []
        for mc in frontier:
            word = back_words[tab_key(mc)]
            for nm, s in steps:
                nxt = compose_mc(power_mc(generators[nm], s), mc)
                key = tab_key(nxt)
                if key in back_states:
                    continue
                back_states[key] = nxt
                back_words[key] = merge_terms((Term(nm, s),) + word)
                back.setdefault(fp_key(nxt), []).append(key)
                new_back.append(nxt)
                total += 1
                if total >= limits.max_states:
                    return None
        frontier = new_back
    return None


def _kernel_step(target: str, witness: str) -> dict:
    return {
        "op": "kernel-witness",
        "inputs": {"target": target, "witness": witness},
        "verdict": True,
    }


def _membership_certificate(model: SurfaceModel, name: str,
                            target: MappingClass, witness: str) -> Certificate:
    return Certificate(
        schema_version=SCHEMA_VERSION,
        surface={"g": model.genus, "p": model.punctures},
        kind="membership",
        target=name,
        generators=list(GENERATORS),
        witness=witness,
        transcript=[_kernel_step(name, witness)],
        fingerprints={"target": reps.fingerprint(target).as_dict()},
    )


def synthesize(model: SurfaceModel, name: str,
               limits: SearchLimits = SearchLimits(),
               ) -> Optional[tuple[WordAST, Certificate]]:
    """Witness word for the generator name over B, SH1p, T, or None when
    no rule gives one and the search runs out of budget; absence is never
    claimed.

    _mim_search runs only when _derive gives None, and its word passes the
    same exact gate.  The membership certificate holds one kernel-witness
    step, which verify replays over the same generators.
    """
    generators = _thm_generators(model)
    classes: dict = {}
    word = _derive(model, name, generators, {}, classes)
    target = generator(model, name)
    if word is None:
        found = _mim_search(model, target, generators, limits)
        if found is not None:
            word = _gate(model, found, generators, classes, target)
    if word is None:
        return None
    return word, _membership_certificate(model, name, target,
                                         print_word(word))


def _a1_conjugator(g: int) -> WordAST:
    """A word f over B and SH1p with f(b) = a1 on genus g >= 2.

    Found by search and checked on (g,2) for g = 2..10, (7,3) and (8,4);
    not proven for every g, so _derive gates f B f^-1 like any other word.
    """
    if g % 2 == 0:
        head, loop, k = "SH1p B SH1p", "B SH1p^3 B SH1p", (g - 2) // 2
    else:
        head = "SH1p B^-1 SH1p^-1 B^-1 SH1p^-2 B^-1 SH1p^-1"
        loop, k = "B^-1 SH1p^-3 B^-1 SH1p^-1", (g - 3) // 2
    return parse_word(head) + parse_word(loop) * k


def _gate(model: SurfaceModel, word: WordAST,
          generators: dict[str, MappingClass], classes: dict,
          target: MappingClass) -> Optional[WordAST]:
    """word with adjacent powers merged if its class is target, else None;
    classes is the evaluate_ast memo of the run."""
    word = merge_terms(word)
    got = evaluate_ast(word, generators, model, classes)
    return word if equal(got, target) else None


def _derive(model: SurfaceModel, name: str,
            generators: dict[str, MappingClass],
            memo: dict[str, Optional[WordAST]],
            classes: dict) -> Optional[WordAST]:
    """The word for the named generator over generators by rule alone,
    adjacent powers merged and checked by exact equality; None when no
    rule gives a word that passes.

    Each rule is a conjugate c w c^-1.  A target equal to a generator is
    that generator; E0 is A2 (both are the twist tw_through(g, p, 1));
    E_j is T^j E0 T^-j and A_i is SH1p A_{i-1} SH1p^-1, since
    f T_c f^-1 = T_f(c) and T moves e0 to e_j while SH1p moves a_{i-1} to
    a_i.  For g >= 2, A1 is f B f^-1 with f of _a1_conjugator, by the same
    lemma with f(b) = a1.  Every rule word goes through one exact gate
    (_gate); a word that fails it, a rule whose sub-derivation gave None,
    and a name no rule covers are memoised as None.  Two memos live for
    one run (one generator set): memo maps names to words, and classes is
    evaluate_ast's memo, terms to classes, so A_i is peeled onto the gated
    A_{i-1} and E0 reuses A2.
    """
    if name in memo:
        return memo[name]
    target = generator(model, name)
    same = next((gen for gen in sorted(generators)
                 if equal(generators[gen], target)), None)
    kind, index = name[:1], name[1:]
    conj, sub = (), None
    if same is not None:
        sub = (Term(same, 1),)
    elif name == "E0":
        sub = _derive(model, "A2", generators, memo, classes)
    elif kind == "E" and index.isdigit():
        conj = (Term("T", int(index)),)
        sub = _derive(model, "E0", generators, memo, classes)
    elif kind == "A" and index.isdigit() and int(index) >= 2:
        conj = (Term("SH1p", 1),)
        sub = _derive(model, f"A{int(index) - 1}", generators, memo,
                      classes)
    elif name == "A1" and model.genus >= 2:
        conj, sub = _a1_conjugator(model.genus), (Term("B", 1),)
    inv = tuple(Term(t.base, -t.exp) for t in reversed(conj))
    word = None if sub is None else _gate(model, conj + sub + inv,
                                          generators, classes, target)
    memo[name] = word
    return word


# ---------------------------------------------------------------------------
# closure certificates


def _gervais_set(g: int, p: int) -> list[str]:
    """The kernel generators the closure argument needs: B, A1..A2g,
    E0..E{p-1}."""
    return ["B"] + [f"A{i}" for i in range(1, 2 * g + 1)] + \
        [f"E{j}" for j in range(p)]


def closure_certificate(
        kernel_memberships: Sequence[tuple[str, Optional[str]]],
        quotient_images: Sequence[Sequence[int]],
        p: int, g: int) -> Certificate:
    """The theorem-9 closure argument on (g, p) as a proof object.

    kernel_memberships pairs kernel targets with witness words; a target
    paired with None or left out is recorded as a missing witness.  The
    transcript holds one
    kernel-witness step per Gervais target, then one sym_gen_check step.
    Valid iff every target carries a witness word and the quotient images
    generate the full symmetric group.  The words are recorded as given:
    certify_thm9 checks each one before it gets here, and verify checks
    them again.
    """
    witness_map = dict(kernel_memberships)
    transcript: list[dict] = []
    for name in _gervais_set(g, p):
        if witness_map.get(name) is not None:
            transcript.append(_kernel_step(name, witness_map[name]))
        else:
            transcript.append({
                "op": "kernel-witness",
                "inputs": {"target": name},
                "verdict": False,
                "error": "missing witness",
            })
    generates, order = sym_gen_check(quotient_images, p)
    transcript.append({
        "op": "sym_gen_check",
        "inputs": {"perms": [list(q) for q in quotient_images], "p": p},
        "verdict": bool(generates),
        "order": order,
    })
    return Certificate(
        schema_version=SCHEMA_VERSION,
        surface={"g": g, "p": p},
        kind="theorem-9",
        target="Mod",
        generators=list(GENERATORS),
        witness=None,
        transcript=transcript,
        fingerprints={},
    )


# ---------------------------------------------------------------------------
# end-to-end theorems


def _thm_generators(model: SurfaceModel) -> dict[str, MappingClass]:
    """B, SH1p and T, built from B, S, H1p and T alone."""
    b, s, h1p, t = (generator(model, n) for n in ("B", "S", "H1p", "T"))
    return {"B": b, "SH1p": compose_mc(s, h1p), "T": t}


def _thm9_certificate(model: SurfaceModel, gens: dict[str, MappingClass],
                      witnesses: Sequence[tuple[str, Optional[str]]],
                      ) -> Certificate:
    images = [list(gens["SH1p"].perm), list(gens["T"].perm)]
    return closure_certificate(witnesses, images, model.punctures,
                               model.genus)


def certify_thm9(model: SurfaceModel) -> Certificate:
    """Generation of the full mapping class group by B, SH1p, T, with every
    witness derived by rule (_derive); no search runs."""
    gens = _thm_generators(model)
    memo: dict[str, Optional[WordAST]] = {}
    classes: dict = {}
    witnesses = []
    for name in _gervais_set(model.genus, model.punctures):
        word = _derive(model, name, gens, memo, classes)
        witnesses.append((name, None if word is None else print_word(word)))
    return _thm9_certificate(model, gens, witnesses)


def certify_thm10(model: SurfaceModel) -> Certificate:
    """The extended group adds the reflection: sign(T') = -1 and
    R = T' rho2^-1 with R an involution."""
    tp, r, rho2 = (generator(model, n) for n in ("TP", "R", "RHO2"))
    transcript: list[dict] = []
    transcript.append({
        "op": "sign", "inputs": ["TP"],
        "verdict": tp.sign == -1, "sign": tp.sign,
    })
    transcript.append(_equal_step(
        compose_mc(tp, inverse_mc(rho2)), r, "TP RHO2^-1", "R"))
    transcript.append(_equal_step(
        compose_mc(r, r), identity_mc(model), "R R", "1"))
    return Certificate(
        schema_version=SCHEMA_VERSION,
        surface={"g": model.genus, "p": model.punctures},
        kind="theorem-10",
        target="Mod+-",
        generators=sorted(GENERATORS + ("R",)),
        witness=None,
        transcript=transcript,
        fingerprints={"TP": reps.fingerprint(tp).as_dict()},
    )


# ---------------------------------------------------------------------------
# checking


def _witness_text(step: dict) -> Optional[str]:
    inputs = step.get("inputs")
    text = inputs.get("witness") if isinstance(inputs, dict) else None
    return text if isinstance(text, str) else None


def _canonical(cert: Certificate) -> str:
    # JSON with sorted keys: true and 1, or 6 and 6.0, stay distinct
    return json.dumps(cert.as_dict(), sort_keys=True)


def _witness_holds(model: SurfaceModel, gens: dict[str, MappingClass],
                   classes: dict, name: str, text: str) -> bool:
    """Whether text is a word over gens whose class is the generator name;
    classes is the evaluate_ast memo of the verify call."""
    try:
        word = parse_word(text, names=gens)
    except WordSyntaxError:
        return False
    return equal(evaluate_ast(word, gens, model, classes),
                 generator(model, name))


def verify(cert: Certificate) -> bool:
    """Check cert against the certificate its kind calls for on its surface.

    Everything but the witness words is recomputed from the kind and
    (g, p): the required targets, the generators, the quotient perms, and
    the verdict and order of every step; a theorem-10 certificate is rebuilt
    whole.  cert must match the rebuilt certificate exactly, every verdict
    must be true, and every witness must be a word over B, SH1p, T whose
    class is the twist it names.  A missing surface, a surface that lacks
    B, SH1p, T, and an unknown kind fail.
    """
    if not isinstance(cert, Certificate):
        raise CertificateError("not a certificate")
    g = cert.surface.get("g")
    p = cert.surface.get("p")
    if g is None or p is None or p < 2:
        return False
    try:
        model = build(g, p)
    except ValueError:
        return False
    if cert.kind == "theorem-10":
        rebuilt = certify_thm10(model)
        return cert.valid and _canonical(cert) == _canonical(rebuilt)
    gens = _thm_generators(model)
    if cert.kind == "theorem-9":
        witnesses = [(name, _witness_text(step)) for name, step
                     in zip(_gervais_set(g, p), cert.transcript)]
        try:
            expected = _thm9_certificate(model, gens, witnesses)
        except ValueError:   # p beyond the closure bound
            return False
    elif cert.kind == "membership" and cert.target in generator_names(model) \
            and cert.witness is not None:
        witnesses = [(cert.target, cert.witness)]
        expected = _membership_certificate(model, cert.target,
                                           generator(model, cert.target),
                                           cert.witness)
    else:
        return False
    # a valid match carries a witness text for every target
    classes: dict = {}
    return (cert.valid and _canonical(cert) == _canonical(expected)
            and all(_witness_holds(model, gens, classes, name, text)
                    for name, text in witnesses))
