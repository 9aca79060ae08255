"""The word language shared by the command line and by certificates.

Grammar: word := term+; term := name | '1' | '(' word ')' | term '^' int.
Whitespace or '*' separates terms.  The term '1' is the empty word.  The
leftmost factor is applied last, so "S H1p" means the H1p half twist
happens first.  A parsed word is a tuple of :class:`Term`; the empty word
is ``()`` and prints as "1".
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Optional, Sequence, Union

from .catalog import MappingClass, compose_mc, identity_mc, power_mc
from .surface import SurfaceModel


class WordSyntaxError(ValueError):
    """A parse error at character index of text, reported by its UTF-8
    byte offset."""

    def __init__(self, message: str, text: str, index: int):
        self.offset = len(text[:index].encode())
        super().__init__(f"{message} at byte {self.offset}")


class Term(NamedTuple):
    # a tuple, so words hash in C as keys of evaluate_ast's memo
    base: Union[str, tuple]
    exp: int


WordAST = tuple[Term, ...]

# groups nest at most this deep, so parsing and evaluating a word never
# recurse near Python's limit; the program's own witnesses nest 0 levels
MAX_NESTING = 100
# int() of a longer exponent literal fails under CPython's default limit
MAX_EXPONENT_DIGITS = 4300


def _tokenize(text: str):
    # tokens: (kind, value, character index)
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
            while k < n and text[k].isdecimal():
                k += 1
            if k == j:
                raise WordSyntaxError("malformed exponent", text, i)
            if k - j > MAX_EXPONENT_DIGITS:
                raise WordSyntaxError("exponent too long", text, i)
            out.append(("^", int(text[i + 1:k]), i))
            i = k
            continue
        if ch.isalpha() or ch == "_" or ch == "1":
            k = i
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            if ch == "1" and k > i + 1:
                raise WordSyntaxError(f"unexpected character {ch!r}", text, i)
            out.append(("1" if ch == "1" else "name", text[i:k], i))
            i = k
            continue
        raise WordSyntaxError(f"unexpected character {ch!r}", text, i)
    return out


def parse_word(text: str, names: Optional[Sequence[str]] = None) -> WordAST:
    """Parse a generator word; names outside the supplied vocabulary, and
    a group nested deeper than MAX_NESTING, are rejected with a byte
    offset."""
    tokens = _tokenize(text)
    if not tokens:
        raise WordSyntaxError("empty word", text, 0)
    pos = 0

    def parse_terms(depth: int) -> tuple:
        nonlocal pos
        terms = []
        while pos < len(tokens):
            kind, value, off = tokens[pos]
            if kind == ")":
                if not depth:
                    raise WordSyntaxError("unbalanced parentheses", text, off)
                break
            if kind == "(":
                if depth == MAX_NESTING:
                    raise WordSyntaxError(
                        f"groups nested deeper than {MAX_NESTING}", text, off)
                pos += 1
                start = pos
                inner = parse_terms(depth + 1)
                if pos >= len(tokens) or tokens[pos][0] != ")":
                    raise WordSyntaxError("unbalanced parentheses", text, off)
                if pos == start:
                    raise WordSyntaxError("empty group", text, off)
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
                        f"{', '.join(sorted(names))}", text, off)
                pos += 1
                terms.append(Term(value, _exponent()))
            else:   # "^", the one kind left
                raise WordSyntaxError("exponent without a base", text, off)
        return tuple(terms)

    def _exponent() -> int:
        nonlocal pos
        exp = 1
        while pos < len(tokens) and tokens[pos][0] == "^":
            _, value, off = tokens[pos]
            exp *= value
            pos += 1
        if exp == 0:
            raise WordSyntaxError("zero exponent", text, tokens[pos - 1][2])
        return exp

    ast = parse_terms(0)
    if pos < len(tokens):
        raise WordSyntaxError("unbalanced parentheses", text, tokens[pos][2])
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


def _mirror(word: WordAST) -> Optional[tuple[str, int, WordAST]]:
    """(x, a, M) when word is x^a M x^-a, x a generator name and M not
    empty, each power of x spelled by terms of one sign; else None."""
    x = word[0].base if len(word) > 2 else None
    if not isinstance(x, str):
        return None
    i, j, up = 0, len(word), word[0].exp > 0
    while i < j and word[i].base == x and (word[i].exp > 0) == up:
        i += 1
    while j > i and word[j - 1].base == x and (word[j - 1].exp > 0) != up:
        j -= 1
    if not i < j < len(word):
        return None
    a = sum(t.exp for t in word[:i])
    return (x, a, word[i:j]) if sum(t.exp for t in word[j:]) == -a else None


def evaluate_ast(ast: WordAST, gens: dict[str, MappingClass],
                 model: SurfaceModel,
                 memo: Optional[dict] = None) -> MappingClass:
    """Leftmost factor applied last; the empty word is the identity.

    A word x^a M x^-a (see _mirror) is peeled in a loop, inside out, as
    x^(a-b) (x^b M x^-b) x^(b-a): b is the largest exponent of a's sign,
    |b| < |a|, whose x^b M x^-b memo holds, else 0 (M is evaluated first);
    the powers take O(log |a-b|) composes.  Other words fold left.  memo
    maps each word evaluated with it (groups too) to its class and its
    outer (x, M) to {a: class}; a caller keeps one memo for one run.  By
    associativity the tables, perm and sign are the fold's, so a caller's
    exact equal decides as it did on the fold.
    """
    memo = {} if memo is None else memo
    layers, out, word = [], memo.get(ast) if memo else None, ast
    while out is None and (peel := _mirror(word)):
        x, a, word = peel
        held = memo.get((x, word), {})
        b = max((e for e in held if 0 < e * a < a * a), key=abs, default=0)
        layers.append((x, a, b))
        out = held[b] if b else memo.get(word)
    if out is None:
        out = reduce(compose_mc, [
            power_mc(gens[t.base] if isinstance(t.base, str)
                     else evaluate_ast(t.base, gens, model, memo), t.exp)
            for t in word]) if word else identity_mc(model)
    for x, a, b in reversed(layers):
        out = compose_mc(compose_mc(power_mc(gens[x], a - b), out),
                         power_mc(gens[x], b - a))
    memo[ast] = out
    if layers:
        x, a, inner = _mirror(ast)
        memo.setdefault((x, inner), {})[a] = out
    return out
