"""Named mapping classes, group operations, and the relation suite.

A mapping class is carried as an outer automorphism of the surface group
together with its induced puncture permutation and orientation sign.  The
catalog builds no table: each generator wraps the table of one ``_tables``
function (``_makers``), and its permutation and sign are read off the
automorphism by matching the image of each puncture loop against the
peripheral classes, so a bad table cannot ship a plausible-looking
wrapper.  Equality of mapping classes is equality of outer automorphisms
with matching permutation and sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import _tables as tables
from .surface import (CurveClass, SurfaceModel, canonicalize, check_curve_name,
                      curve)
from .words import (
    AutPair,
    Word,
    apply_aut,
    compose,
    cyclic_reduce,
    identity_aut,
    inner_witness,
    inverse,
    invert,
    least_rotation,
)

SIGMA_ONLY = "SigmaOnly"
DISK_ONLY = "DiskOnly"
GLOBAL = "Global"


@dataclass(frozen=True)
class MappingClass:
    model: SurfaceModel
    aut: AutPair
    perm: tuple[int, ...]
    sign: int
    provenance: str
    support: str


@lru_cache(maxsize=None)
def _peripheral_lookup(g: int, p: int) -> tuple[tuple[Word, ...], dict]:
    """The puncture loops of the surface, and the key of each peripheral
    class (least rotation of the loop or of its inverse) -> (loop, sign)."""
    gammas = [(tables.g_letter(g, k),) for k in range(1, p)]
    gammas.append(tables.last_puncture_word(g, p))
    lookup: dict[Word, tuple[int, int]] = {}
    for m, w in enumerate(gammas, start=1):
        lookup[least_rotation(cyclic_reduce(w)[0])] = (m, 1)
        lookup[least_rotation(cyclic_reduce(invert(w))[0])] = (m, -1)
    return tuple(gammas), lookup


def _peripheral_action(model: SurfaceModel, aut: AutPair) -> tuple[tuple[int, ...], int]:
    """Puncture permutation and sign read off the automorphism.

    Raises if some puncture loop maps outside the peripheral structure or
    the orientation sign is not uniform across punctures.
    """
    gammas, lookup = _peripheral_lookup(model.genus, model.punctures)
    perm: list[int] = []
    signs: set[int] = set()
    for k, w in enumerate(gammas, start=1):
        key = least_rotation(cyclic_reduce(apply_aut(aut, w))[0])
        if key not in lookup:
            raise ValueError(f"image of puncture loop {k} is not peripheral")
        m, s = lookup[key]
        perm.append(m)
        signs.add(s)
    if len(signs) != 1:
        raise ValueError("orientation sign is not uniform on the punctures")
    if sorted(perm) != list(range(1, model.punctures + 1)):
        raise ValueError("puncture loops do not map bijectively")
    return tuple(perm), signs.pop()


def _mk(model: SurfaceModel, aut: AutPair, provenance: str, support: str) -> MappingClass:
    perm, sign = _peripheral_action(model, aut)
    if support == SIGMA_ONLY:
        g = model.genus
        for k in range(1, model.punctures):
            x = tables.g_letter(g, k)
            if aut.fwd[x - 1] != (x,):
                raise ValueError(f"{provenance}: SigmaOnly class moves a puncture loop")
    if support == DISK_ONLY:
        for x in range(1, 2 * model.genus + 1):
            if aut.fwd[x - 1] != (x,):
                raise ValueError(f"{provenance}: DiskOnly class moves a handle generator")
    return MappingClass(model, aut, perm, sign, provenance, support)


# ---------------------------------------------------------------------------
# constructors


def identity_mc(model: SurfaceModel) -> MappingClass:
    return _mk(model, identity_aut(model.rank), "1", SIGMA_ONLY)


def twist(model: SurfaceModel, name: str) -> MappingClass:
    """Right-handed Dehn twist about a named catalog curve: the generator
    named by the upper-cased curve name (a1 -> A1, delta -> DELTA)."""
    check_curve_name(model, name)
    return generator(model, name.upper())


# ---------------------------------------------------------------------------
# group operations


def compose_mc(F: MappingClass, G: MappingClass) -> MappingClass:
    """F after G (G is applied first)."""
    if F.model != G.model:
        raise ValueError("mapping classes live on different surfaces")
    perm = tuple(F.perm[G.perm[k] - 1] for k in range(len(G.perm)))
    support = F.support if F.support == G.support else GLOBAL
    return MappingClass(
        F.model,
        compose(F.aut, G.aut),
        perm,
        F.sign * G.sign,
        f"{F.provenance}·{G.provenance}",
        support,
    )


def inverse_mc(F: MappingClass) -> MappingClass:
    inv_perm = [0] * len(F.perm)
    for k, m in enumerate(F.perm, start=1):
        inv_perm[m - 1] = k
    return MappingClass(
        F.model,
        inverse(F.aut),
        tuple(inv_perm),
        F.sign,
        f"({F.provenance})^-1",
        F.support,
    )


def power_mc(F: MappingClass, k: int) -> MappingClass:
    """F^k by repeated squaring of F or of its inverse; F^0 is 1.

    At most 2 floor(log2 |k|) compose_mc calls.  Composition is
    associative on reduced tables, so the result equals the |k|-fold
    product, provenance "F·F·…·F" included.
    """
    if k == 0:
        return identity_mc(F.model)
    if k < 0:
        return power_mc(inverse_mc(F), -k)
    out = F
    for bit in bin(k)[3:]:
        out = compose_mc(out, out)
        if bit == "1":
            out = compose_mc(out, F)
    return out


def act_on_curve(F: MappingClass, c: CurveClass) -> CurveClass:
    """Image class of a curve; well defined on conjugacy classes."""
    return canonicalize(apply_aut(F.aut, c.word))


def equal(F: MappingClass, G: MappingClass) -> bool:
    """Outer equality with matching puncture action and sign.

    Sign and permutation are compared first; ``inner_witness(F, G)`` then
    filters on homology and solves F = ad(w) G from two images of F G^-1,
    without building the composite.
    """
    if F.model != G.model:
        raise ValueError("mapping classes live on different surfaces")
    if F.sign != G.sign or F.perm != G.perm:
        return False
    return inner_witness(F.aut, G.aut) is not None


# ---------------------------------------------------------------------------
# the relation suite


@dataclass(frozen=True)
class ValidationItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    genus: int
    punctures: int
    items: tuple[ValidationItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def as_dict(self) -> dict:
        return {
            "surface": {"g": self.genus, "p": self.punctures},
            "ok": self.ok,
            "items": [
                {"name": i.name, "passed": i.passed, "detail": i.detail}
                for i in self.items
            ],
        }


def _commutes(F: MappingClass, G: MappingClass) -> bool:
    return equal(compose_mc(F, G), compose_mc(G, F))


def validate(model: SurfaceModel) -> ValidationReport:
    """Run the full relation suite; failures are data, not exceptions."""
    g, p = model.genus, model.punctures
    items: list[ValidationItem] = []

    def check(name: str, fn: Callable[[], bool], detail_on_fail: str = "") -> None:
        try:
            ok = fn()
            detail = "" if ok else detail_on_fail
        except Exception as exc:  # failures are data
            ok, detail = False, f"{detail_on_fail} raised {exc!r}"
        items.append(ValidationItem(name, ok, detail))

    vocab = vocabulary(model)
    A = {i: vocab[f"A{i}"] for i in range(1, 2 * g + 1)}
    B, D, E0, S = vocab["B"], vocab["DELTA"], vocab["E0"], vocab["S"]
    H = {j: vocab[f"H{j}{j + 1}"] for j in range(1, p)}
    N = {j: vocab[f"N{j}"] for j in range(1, p)}
    ident = identity_mc(model)

    if p >= 2:
        r1, r2, R = vocab["RHO1"], vocab["RHO2"], vocab["R"]
        for nm, F, want_sign in (("rho1", r1, 1), ("rho2", r2, 1), ("R", R, -1)):
            check(f"involution {nm}^2 = 1",
                  lambda F=F: equal(compose_mc(F, F), ident),
                  f"{nm}^2 is not the identity class")
            check(f"sign({nm}) = {want_sign:+d}",
                  lambda F=F, want=want_sign: F.sign == want,
                  f"sign({nm}) = {F.sign:+d}")

    for i in A:
        for j in A:
            if j - i >= 2:
                check(f"commute A{i}, A{j}", lambda i=i, j=j: _commutes(A[i], A[j]),
                      f"A{i} and A{j} fail to commute")
    for i in A:
        if abs(i - 2) >= 2:
            check(f"commute A{i}, E0", lambda i=i: _commutes(A[i], E0),
                  f"A{i} and E0 fail to commute")
    if p >= 3:
        sig = [A[i] for i in A] + [B, E0, S]
        for F in sig:
            check(f"commute H12, {F.provenance}", lambda F=F: _commutes(H[1], F),
                  f"H12 and {F.provenance} fail to commute")
    # delta bounds the handle/disk decomposition: every one-sided class commutes
    one_sided = [A[i] for i in A] + [B, E0, S] + [H[j] for j in H]
    one_sided += [N[j] for j in N]
    for F in one_sided:
        check(f"commute DELTA, {F.provenance}", lambda F=F: _commutes(D, F),
              f"DELTA and {F.provenance} fail to commute")

    for i in range(1, 2 * g):
        check(f"braid A{i}, A{i + 1}",
              lambda i=i: equal(compose_mc(A[i], compose_mc(A[i + 1], A[i])),
                                compose_mc(A[i + 1], compose_mc(A[i], A[i + 1]))),
              f"braid fails for A{i}, A{i + 1}")
    if g >= 2:
        check("braid B, A4",
              lambda: equal(compose_mc(B, compose_mc(A[4], B)),
                            compose_mc(A[4], compose_mc(B, A[4]))),
              "braid fails for B, A4")

    for j in H:
        check(f"H{j}{j + 1}^2 = twist(n{j})",
              lambda j=j: equal(compose_mc(H[j], H[j]), N[j]),
              f"square of H{j}{j + 1} is not the n{j} twist")

    for i in range(1, 2 * g):
        check(f"S A{i} S^-1 = A{i + 1}",
              lambda i=i: equal(compose_mc(S, compose_mc(A[i], inverse_mc(S))), A[i + 1]),
              f"conjugation by S does not carry A{i} to A{i + 1}")

    if p >= 2:
        T = vocab["T"]
        check("perm(T) is the long cycle",
              lambda: T.perm == tuple(list(range(2, p + 1)) + [1]),
              f"perm(T) = {T.perm}")
        Ej = {j: vocab[f"E{j}"] for j in range(p)}
        for j in range(p):
            check(f"T E{j} T^-1 = E{(j + 1) % p}",
                  lambda j=j: equal(
                      compose_mc(T, compose_mc(Ej[j], inverse_mc(T))),
                      Ej[(j + 1) % p]),
                  f"conjugation by T does not carry E{j} forward")
        ej = {j: curve(model, f"e{j}") for j in range(p)}
        for j in range(p):
            check(f"T carries e{j} to e{(j + 1) % p}",
                  lambda j=j: act_on_curve(T, ej[j]) == ej[(j + 1) % p],
                  f"act_on_curve(T, e{j}) is not e{(j + 1) % p}")

    def peripheral_ok(F: MappingClass) -> bool:
        return _peripheral_action(model, F.aut) == (F.perm, F.sign)

    for F in vocab.values():
        check(f"peripheral structure of {F.provenance}",
              lambda F=F: peripheral_ok(F),
              f"stored puncture action of {F.provenance} disagrees with its table")

    disk = [H[j] for j in H]
    sigma = [A[i] for i in A] + [B, E0]
    for Fd in disk:
        for Fs in sigma:
            check(f"disjoint supports {Fd.provenance}, {Fs.provenance}",
                  lambda Fd=Fd, Fs=Fs: _commutes(Fd, Fs),
                  f"{Fd.provenance} and {Fs.provenance} fail to commute")

    return ValidationReport(g, p, tuple(items))


def _makers(model: SurfaceModel) -> dict[str, tuple]:
    """Generator name -> (support, _tables function, extra arguments), in
    vocabulary order; the table is function(g, p, *arguments)."""
    g, p = model.genus, model.punctures
    out: dict[str, tuple] = {}
    for i in range(1, 2 * g + 1):
        out[f"A{i}"] = (SIGMA_ONLY, tables.chain_twist, i)
    out["B"] = (SIGMA_ONLY, tables.tw_hole, 1 if g == 1 else 2)
    out["DELTA"] = (GLOBAL, tables.tw_separating)
    for j in range(p):
        out[f"E{j}"] = (GLOBAL if j else SIGMA_ONLY, tables.family_twist, j)
    for j in range(1, p):
        out[f"H{j}{j + 1}"] = (DISK_ONLY, tables.half_twist, j)
        out[f"N{j}"] = (DISK_ONLY, tables.tw_two_puncture, j)
    if p >= 2:
        out["H1p"] = (DISK_ONLY, tables.swap_1p)
        out["RHO1"] = (GLOBAL, tables.front_involution)
        out["RHO2"] = (GLOBAL, tables.back_involution)
        out["T"] = (GLOBAL, tables.curve_rotation)
        out["R"] = (GLOBAL, tables.mirror)
        out["TP"] = (GLOBAL, tables.reflected_rotation)
    out["S"] = (SIGMA_ONLY, tables.chain_product)
    return out


def _build(model: SurfaceModel, name: str, support: str, table: Callable,
           *args) -> MappingClass:
    g, p = model.genus, model.punctures
    # the provenance is the name, except S keeps the product it stands for
    prov = "·".join(f"A{i}" for i in range(2 * g, 0, -1)) if name == "S" else name
    return _mk(model, table(g, p, *args), prov, support)


def generator_names(model: SurfaceModel) -> list[str]:
    """The names of the generator vocabulary, in vocabulary order.

    A1..A2g, B, DELTA, E0..E{p-1}, then H{j}{j+1} and N{j} for each
    1 <= j < p, then (for p >= 2) H1p, RHO1, RHO2, T, R, TP, and last S.
    This is the one list the word grammar parses against; building a
    class takes generator(model, name).
    """
    return list(_makers(model))


def generator(model: SurfaceModel, name: str) -> MappingClass:
    """The named generator class alone, without building the others: its
    table from _tables, wrapped by _mk."""
    try:
        entry = _makers(model)[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}") from None
    return _build(model, name, *entry)


def vocabulary(model: SurfaceModel) -> dict[str, MappingClass]:
    """The named generator set exposed to the word grammar and searches."""
    return {name: _build(model, name, *entry)
            for name, entry in _makers(model).items()}
