"""The word language shared by the command line and by certificates.

Grammar: word := term+; term := name | '1' | '(' word ')' | term '^' int.
Whitespace or '*' separates terms.  The term '1' is the empty word.  The
leftmost factor is applied last, so "S H1p" means the H1p half twist
happens first.  A parsed word is a tuple of :class:`Term`; the empty word
is ``()`` and prints as "1".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence, Union

from .catalog import MappingClass, compose_mc, identity_mc, power_mc
from .surface import SurfaceModel


class WordSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


@dataclass(frozen=True)
class Term:
    base: Union[str, tuple]
    exp: int


WordAST = tuple[Term, ...]


def _tokenize(text: str):
    # tokens: (kind, value, byte offset)
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
            continue
        if ch in "()":
            out.append((ch, ch, i))
            i += 1
            continue
        if ch == "^":
            j = i + 1
            if j < n and text[j] in "+-":
                j += 1
            k = j
            while k < n and text[k].isdigit():
                k += 1
            if k == j:
                raise WordSyntaxError("malformed exponent", i)
            out.append(("^", int(text[i + 1:k]), i))
            i = k
            continue
        if ch.isalpha() or ch == "_" or ch == "1":
            k = i
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            if ch == "1" and k > i + 1:
                raise WordSyntaxError(f"unexpected character {ch!r}", i)
            out.append(("1" if ch == "1" else "name", text[i:k], i))
            i = k
            continue
        raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return out


def parse_word(text: str, names: Optional[Sequence[str]] = None) -> WordAST:
    """Parse a generator word; names outside the supplied vocabulary are
    rejected with a byte offset."""
    tokens = _tokenize(text)
    if not tokens:
        raise WordSyntaxError("empty word", 0)
    pos = 0

    def parse_terms(closing: bool) -> tuple:
        nonlocal pos
        terms = []
        while pos < len(tokens):
            kind, value, off = tokens[pos]
            if kind == ")":
                if not closing:
                    raise WordSyntaxError("unbalanced parentheses", off)
                break
            if kind == "(":
                pos += 1
                start = pos
                inner = parse_terms(True)
                if pos >= len(tokens) or tokens[pos][0] != ")":
                    raise WordSyntaxError("unbalanced parentheses", off)
                if pos == start:
                    raise WordSyntaxError("empty group", off)
                pos += 1
                exp = _exponent()
                if inner:
                    terms.append(Term(inner, exp))
            elif kind == "1":
                pos += 1
                _exponent()
            elif kind == "name":
                if names is not None and value not in names:
                    raise WordSyntaxError(
                        f"unknown generator {value!r}; vocabulary: "
                        f"{', '.join(sorted(names))}", off)
                pos += 1
                terms.append(Term(value, _exponent()))
            elif kind == "^":
                raise WordSyntaxError("exponent without a base", off)
            else:
                raise WordSyntaxError(f"unexpected token {value!r}", off)
        return tuple(terms)

    def _exponent() -> int:
        nonlocal pos
        exp = 1
        while pos < len(tokens) and tokens[pos][0] == "^":
            _, value, off = tokens[pos]
            exp *= value
            pos += 1
        if exp == 0:
            raise WordSyntaxError("zero exponent", tokens[pos - 1][2])
        return exp

    ast = parse_terms(False)
    if pos < len(tokens):
        raise WordSyntaxError("unbalanced parentheses", tokens[pos][2])
    return ast


def print_word(ast: WordAST) -> str:
    parts = []
    for term in ast:
        base = term.base if isinstance(term.base, str) \
            else f"({print_word(term.base)})"
        parts.append(base if term.exp == 1 else f"{base}^{term.exp}")
    return " ".join(parts) if parts else "1"


def merge_terms(ast: Sequence[Term]) -> WordAST:
    """Combine adjacent terms with the same base; cancelled terms drop."""
    out: list[Term] = []
    for term in ast:
        if out and out[-1].base == term.base:
            merged = out[-1].exp + term.exp
            out.pop()
            if merged:
                out.append(Term(term.base, merged))
        else:
            out.append(term)
    return tuple(out)


def base_names(ast: WordAST) -> set[str]:
    """The generator names a word uses, inside groups too."""
    out: set[str] = set()
    for term in ast:
        if isinstance(term.base, str):
            out.add(term.base)
        else:
            out |= base_names(term.base)
    return out


def evaluate_ast(ast: WordAST, gens: dict[str, MappingClass],
                 model: SurfaceModel) -> MappingClass:
    """Leftmost factor applied last; the empty word is the identity."""
    if not ast:
        return identity_mc(model)
    factors = []
    for term in ast:
        if isinstance(term.base, str):
            mc = gens[term.base]
        else:
            mc = evaluate_ast(term.base, gens, model)
        factors.append(power_mc(mc, term.exp))
    return reduce(compose_mc, factors)
