"""Generation certificates and membership-witness synthesis.

Three layers: symmetric-group closure checks on puncture permutations,
witness words for kernel generators (structured derivations first, then
meet-in-the-middle search), and replayable certificates tying both into
the exact-sequence closure argument.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .surface import SurfaceModel, build
from .words import compose, inverse, inner_witness, make_aut
from . import reps
from .catalog import (GLOBAL, MappingClass, _mk, compose_mc, inverse_mc,
                      power_mc, identity_mc, equal, vocabulary)
from .grammar import (Term, WordAST, WordSyntaxError, evaluate_ast,
                      merge_terms, parse_word, print_word)

SCHEMA_VERSION = "1"

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
    inv = {g: tuple(sorted(range(1, p + 1), key=lambda i: g[i - 1])) for g in
           {t for t in orb.values()}}
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


_FIELDS = ("schema_version", "surface", "kind", "target", "generators",
           "witness", "transcript", "fingerprints", "preamble")


def certificate_from_dict(data: dict) -> Certificate:
    if not isinstance(data, dict):
        raise CertificateError("certificate payload must be an object")
    missing = [f for f in _FIELDS if f not in data]
    if missing:
        raise CertificateError(f"missing fields: {', '.join(missing)}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise CertificateError(f"unsupported schema {data['schema_version']!r}")
    if not isinstance(data["transcript"], list):
        raise CertificateError("transcript must be a list")
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


def _equal_step(model: SurfaceModel, got: MappingClass, want: MappingClass,
                label_got: str, label_want: str) -> dict:
    ok = equal(got, want)
    item = {
        "op": "equal",
        "inputs": [label_got, label_want],
        "verdict": bool(ok),
    }
    if ok:
        w = compose(got.aut, inverse(want.aut))
        item["inner_witness"] = list(inner_witness(w) or ())
    return item


def _aut_payload(mc: MappingClass) -> dict:
    return {
        "fwd": [list(w) for w in mc.aut.fwd],
        "bwd": [list(w) for w in mc.aut.bwd],
    }


def _aut_restore(model: SurfaceModel, payload: dict) -> MappingClass:
    aut = make_aut([tuple(w) for w in payload["fwd"]],
                   [tuple(w) for w in payload["bwd"]])
    return _mk(model, aut, "target", GLOBAL)


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


def _vocab_match(model: SurfaceModel, target: MappingClass,
                 vocab: dict[str, MappingClass]) -> Optional[str]:
    for name in sorted(vocab):
        if equal(vocab[name], target):
            return name
    return None


def synthesize(model: SurfaceModel, target: MappingClass,
               generators: dict[str, MappingClass],
               limits: Optional[SearchLimits] = None,
               target_name: Optional[str] = None,
               vocab: Optional[dict[str, MappingClass]] = None,
               memo: Optional[dict] = None,
               ) -> Optional[tuple[WordAST, Certificate]]:
    """Witness word for target over the named generators, or None when the
    budget runs out.  Absence is never claimed.

    Structured derivations run first: known conjugation identities move the
    target into reach (E_j pulls back through powers of T, the chain twists
    climb via SH1p conjugation since the disk-side half twist commutes with
    handle-side twists), then the raw search handles the base cases.

    Pass the vocabulary of model when it is at hand.  Derivations are
    shared through memo: certify_thm9 passes one memo to every synthesize
    call it makes, so each kernel target is derived once per certificate.
    A memo hit replays the steps of the first derivation, so every
    certificate still carries its full transcript.  A memo must only be
    shared between calls with the same generators and limits.
    """
    limits = limits or SearchLimits()
    if vocab is None:
        vocab = vocabulary(model)
    transcript: list[dict] = []
    word = _derive(model, target, generators, limits, transcript, vocab,
                   {} if memo is None else memo)
    if word is None:
        return None
    word = merge_terms(word)
    got = evaluate_ast(word, generators, model)
    gate = _equal_step(model, got, target, print_word(word), "target")
    transcript.append(gate)
    if not gate["verdict"]:
        raise AssertionError("synthesize produced an unverified witness")
    cert = Certificate(
        schema_version=SCHEMA_VERSION,
        surface={"g": model.genus, "p": model.punctures},
        kind="membership",
        target=target_name or target.provenance,
        generators=sorted(generators),
        witness=print_word(word),
        transcript=transcript,
        fingerprints={
            "target": reps.fingerprint(target).as_dict(),
            "target_tables": _aut_payload(target),
        },
    )
    return word, cert


def _derive(model: SurfaceModel, target: MappingClass,
            generators: dict[str, MappingClass], limits: SearchLimits,
            transcript: list[dict], vocab: dict[str, MappingClass],
            memo: dict) -> Optional[WordAST]:
    """Memoized derivation: the first call per target derives, later calls
    replay its word and transcript steps.

    memo maps exact target tables (aut.fwd, perm, sign) to the derived word
    (None when the budget ran out) and the transcript steps the derivation
    appended; it is valid for one generator set and one budget.
    """
    key = (target.aut.fwd, target.perm, target.sign)
    if key not in memo:
        start = len(transcript)
        word = _derive_once(model, target, generators, limits, transcript,
                            vocab, memo)
        memo[key] = (word, tuple(copy.deepcopy(transcript[start:])))
        return word
    word, steps = memo[key]
    transcript.extend(copy.deepcopy(steps))
    return word


def _derive_once(model: SurfaceModel, target: MappingClass,
                 generators: dict[str, MappingClass], limits: SearchLimits,
                 transcript: list[dict], vocab: dict[str, MappingClass],
                 memo: dict) -> Optional[WordAST]:
    for name in sorted(generators):
        if equal(generators[name], target):
            transcript.append({
                "op": "generator-match", "inputs": [name],
                "verdict": True,
            })
            return (Term(name, 1),)

    label = _vocab_match(model, target, vocab)

    if label and label.startswith("E") and label[1:].isdigit() \
            and "T" in generators:
        j = int(label[1:])
        if j >= 1:
            sub = _derive(model, vocab["E0"], generators, limits, transcript,
                          vocab, memo)
            if sub is not None:
                transcript.append({
                    "op": "conjugation-shortcut",
                    "inputs": [label, f"T^{j} E0 T^-{j}"],
                    "verdict": True,
                })
                return (Term("T", j),) + sub + (Term("T", -j),)

    if label and label.startswith("A") and label[1:].isdigit() \
            and "SH1p" in generators:
        i = int(label[1:])
        if i >= 2:
            sub = _derive(model, vocab[f"A{i - 1}"], generators, limits,
                          transcript, vocab, memo)
            if sub is not None:
                transcript.append({
                    "op": "conjugation-shortcut",
                    "inputs": [label, f"SH1p A{i - 1} SH1p^-1"],
                    "verdict": True,
                })
                return (Term("SH1p", 1),) + sub + (Term("SH1p", -1),)

    word = _mim_search(model, target, generators, limits)
    if word is not None:
        transcript.append({
            "op": "search", "inputs": [print_word(word)],
            "verdict": True,
        })
    return word


# ---------------------------------------------------------------------------
# closure certificates


def _gervais_set(g: int, p: int) -> list[str]:
    """The kernel generators the closure argument needs: B, A1..A2g,
    E0..E{p-1}."""
    return ["B"] + [f"A{i}" for i in range(1, 2 * g + 1)] + \
        [f"E{j}" for j in range(p)]


def closure_certificate(kernel_memberships: Sequence[tuple[str, str]],
                        quotient_images: Sequence[Sequence[int]],
                        p: int,
                        g: Optional[int] = None,
                        required: Optional[Sequence[str]] = None,
                        generators: Optional[Sequence[str]] = None,
                        kind: str = "generation",
                        target: str = "Mod",
                        membership_transcript: Optional[list[dict]] = None,
                        ) -> Certificate:
    """Assemble the exact-sequence closure argument as a proof object.

    Valid iff every required kernel generator carries a witness word and
    the quotient images generate the full symmetric group.  The required
    set defaults to the Gervais set for the given genus.
    """
    if required is None:
        if g is None:
            raise ValueError("need either a genus or an explicit required set")
        required = _gervais_set(g, p)
    witness_map = dict(kernel_memberships)
    transcript: list[dict] = list(membership_transcript or [])
    for name in required:
        if name in witness_map:
            transcript.append({
                "op": "kernel-witness",
                "inputs": {"target": name, "witness": witness_map[name]},
                "verdict": True,
            })
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
        kind=kind,
        target=target,
        generators=sorted(generators or []),
        witness=None,
        transcript=transcript,
        fingerprints={},
    )


# ---------------------------------------------------------------------------
# end-to-end theorems


def _thm_generators(model: SurfaceModel,
                    vocab: Optional[dict[str, MappingClass]] = None,
                    ) -> dict[str, MappingClass]:
    """B, SH1p and T; pass the vocabulary of model when it is at hand."""
    if vocab is None:
        vocab = vocabulary(model)
    sh1p = compose_mc(vocab["S"], vocab["H1p"])
    return {"B": vocab["B"], "SH1p": sh1p, "T": vocab["T"]}


def certify_thm9(model: SurfaceModel,
                 limits: Optional[SearchLimits] = None) -> Certificate:
    """Generation of the full mapping class group by B, SH1p, T."""
    limits = limits or SearchLimits()
    vocab = vocabulary(model)
    gens = _thm_generators(model, vocab)
    g, p = model.genus, model.punctures
    targets = _gervais_set(g, p)
    memberships: list[tuple[str, str]] = []
    transcript: list[dict] = []
    memo: dict = {}
    for name in targets:
        got = synthesize(model, vocab[name], gens, limits, vocab=vocab,
                         memo=memo)
        if got is None:
            transcript.append({
                "op": "membership", "inputs": {"target": name},
                "verdict": False, "error": "budget exhausted",
            })
            continue
        word, cert = got
        memberships.append((name, print_word(word)))
        transcript.append({
            "op": "membership",
            "inputs": {"target": name, "witness": print_word(word),
                       "generators": sorted(gens)},
            "verdict": True,
        })
    images = [list(gens["SH1p"].perm), list(gens["T"].perm)]
    return closure_certificate(
        memberships, images, p, g=g,
        generators=sorted(gens), kind="theorem-9", target="Mod",
        membership_transcript=transcript,
    )


def certify_thm10(model: SurfaceModel) -> Certificate:
    """The extended group adds the reflection: sign(T') = -1 and
    R = T' rho2^-1 with R an involution."""
    vocab = vocabulary(model)
    tp, r, rho2 = vocab["TP"], vocab["R"], vocab["RHO2"]
    transcript: list[dict] = []
    transcript.append({
        "op": "sign", "inputs": ["TP"],
        "verdict": tp.sign == -1, "sign": tp.sign,
    })
    transcript.append(_equal_step(
        model, compose_mc(tp, inverse_mc(rho2)), r, "TP RHO2^-1", "R"))
    transcript.append(_equal_step(
        model, compose_mc(r, r), identity_mc(model), "R R", "1"))
    return Certificate(
        schema_version=SCHEMA_VERSION,
        surface={"g": model.genus, "p": model.punctures},
        kind="theorem-10",
        target="Mod+-",
        generators=sorted(["B", "SH1p", "T", "R"]),
        witness=None,
        transcript=transcript,
        fingerprints={"TP": reps.fingerprint(tp).as_dict()},
    )


# ---------------------------------------------------------------------------
# replay


def verify(cert: Certificate) -> bool:
    """Replay every transcript step; true iff all verdicts reproduce and
    the certificate claims hold."""
    if not isinstance(cert, Certificate):
        raise CertificateError("not a certificate")
    g = cert.surface.get("g")
    p = cert.surface.get("p")
    model = build(g, p) if g else None
    vocab = vocabulary(model) if model else {}
    names = dict(vocab)
    if model is not None and model.punctures >= 2:
        names.update(_thm_generators(model, vocab))
    tables = cert.fingerprints.get("target_tables")
    if model is not None and tables is not None:
        names[cert.target] = _aut_restore(model, tables)
        names["target"] = names[cert.target]

    def resolve(word_text: str, allowed) -> Optional[MappingClass]:
        """The class of a word over allowed names; None if it is malformed."""
        try:
            word = parse_word(word_text, names=allowed)
        except WordSyntaxError:
            return None
        return evaluate_ast(word, names, model)

    for item in cert.transcript:
        op = item.get("op")
        verdict = item.get("verdict")
        if op in ("generator-match", "conjugation-shortcut", "search",
                  "note"):
            continue
        if op == "sym_gen_check":
            perms = [tuple(q) for q in item["inputs"]["perms"]]
            generates, order = sym_gen_check(perms, item["inputs"]["p"])
            if generates != verdict or order != item.get("order"):
                return False
        elif op in ("kernel-witness", "membership"):
            present = "witness" in item["inputs"]
            if op == "kernel-witness" and present != verdict:
                return False
            if present and verdict:
                # a witness is checked on the named surface, never skipped
                name = item["inputs"]["target"]
                if model is None or name not in names:
                    return False
                allowed = names.keys() & set(cert.generators) \
                    if cert.generators else names
                got = resolve(item["inputs"]["witness"], allowed)
                if got is None or not equal(got, names[name]):
                    return False
        elif op == "equal":
            if model is None:
                return False
            lhs = resolve(item["inputs"][0], names)
            rhs = resolve(item["inputs"][1], names)
            if lhs is None or rhs is None or equal(lhs, rhs) != verdict:
                return False
        elif op == "sign":
            name = item["inputs"][0]
            if model is None or name not in names:
                return False
            if (names[name].sign == -1) != verdict:
                return False
        else:
            raise CertificateError(f"unknown transcript op {op!r}")
        if verdict is not True:
            return False
    return True
