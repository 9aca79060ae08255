"""Command-line front end.

Word grammar: word := term+; term := name | '1' | '(' word ')' | term '^' int.
Whitespace or '*' separates terms; '1' is the empty word.  The leftmost
factor is applied last, so "S H1p" means the H1p half twist happens first.

Exit codes: 0 ok/valid, 1 usage, 2 invalid/failed, 3 search budget
exhausted (synth only).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import certify, reps
from .catalog import (_makers, act_on_curve, generator, generator_names,
                      validate, vocabulary)
from .certify import SCHEMA_VERSION
from .grammar import (WordSyntaxError, base_names, evaluate_ast, parse_word,
                      print_word)
from .surface import SurfaceModel, build, curve, curve_names

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# reports


def _emit(report: dict, args, human: str) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = json.dumps(report, indent=2, sort_keys=False) if args.json \
        else human
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _model(args) -> SurfaceModel:
    if args.g is None or args.p is None:
        raise UsageError("this command needs --g and --p")
    return build(args.g, args.p)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# commands


def cmd_gens(args) -> int:
    model = _model(args)
    vocab, makers = vocabulary(model), _makers(model)
    rows = []
    for name in sorted(vocab):
        F = vocab[name]
        rows.append({"name": name, "support": makers[name][0],
                     "perm": list(F.perm), "sign": F.sign})
    human = "\n".join(
        f"{r['name']:6s} support={r['support']:10s} "
        f"perm={tuple(r['perm'])} sign={r['sign']:+d}" for r in rows)
    _emit({"command": "gens",
           "surface": {"g": model.genus, "p": model.punctures},
           "generators": rows}, args, human)
    return EXIT_OK


def _parse_words(model: SurfaceModel, *texts: str):
    """Parse each text over the generator names, then build only the
    generators the words name: one dict of classes for all of them."""
    names = generator_names(model)
    asts = [parse_word(text, names=names) for text in texts]
    used = set().union(*map(base_names, asts))
    return asts, {n: generator(model, n) for n in used}


def cmd_eval(args) -> int:
    model = _model(args)
    (ast,), gens = _parse_words(model, args.word)
    F = evaluate_ast(ast, gens, model)
    fp = reps.fingerprint(F)
    report = {
        "command": "eval",
        "surface": {"g": model.genus, "p": model.punctures},
        "word": print_word(ast),
        "fingerprint": fp.as_dict(),
        "peripheral": {"perm": list(F.perm), "sign": F.sign},
    }
    human = (f"word: {report['word']}\n"
             f"perm: {tuple(F.perm)}  sign: {F.sign:+d}\n"
             f"homology: {fp.matrix}")
    _emit(report, args, human)
    return EXIT_OK


def cmd_eq(args) -> int:
    from .catalog import equal
    model = _model(args)
    (left, right), gens = _parse_words(model, args.left, args.right)
    lhs = evaluate_ast(left, gens, model)
    rhs = evaluate_ast(right, gens, model)
    ok = equal(lhs, rhs)
    _emit({"command": "eq",
           "surface": {"g": model.genus, "p": model.punctures},
           "left": args.left, "right": args.right, "equal": bool(ok)},
          args, f"equal: {'true' if ok else 'false'}")
    return EXIT_OK if ok else EXIT_FAILED


def cmd_act(args) -> int:
    model = _model(args)
    (ast,), gens = _parse_words(model, args.word)
    F = evaluate_ast(ast, gens, model)
    try:
        c = curve(model, args.curve)
    except ValueError as exc:
        raise UsageError(str(exc))
    image = act_on_curve(F, c)
    match = next((nm for nm in curve_names(model) if curve(model, nm) == image),
                 None)
    report = {
        "command": "act",
        "surface": {"g": model.genus, "p": model.punctures},
        "word": print_word(ast), "curve": args.curve,
        "image": list(image.word), "image_name": match,
    }
    human = f"image: {image.word}" + (f"  ({match})" if match else "")
    _emit(report, args, human)
    return EXIT_OK


def cmd_suite(args) -> int:
    model = _model(args)
    report = validate(model)
    payload = report.as_dict()
    human_lines = [f"[{'pass' if it.passed else 'FAIL'}] {it.name}"
                   + (f"  {it.detail}" if it.detail else "")
                   for it in report.items]
    human_lines.append(
        f"{sum(it.passed for it in report.items)}/{len(report.items)} passed")
    _emit({"command": "suite", **payload}, args, "\n".join(human_lines))
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_sym(args) -> int:
    if args.p is None:
        raise UsageError("sym needs --p")
    p = args.p
    if not 1 <= p <= 10:   # before the perms below are sized by p
        raise ValueError("closure bound: 1 <= p <= 10")
    if p == 1:
        perms = [[1]]
    else:
        swap = list(range(1, p + 1))
        swap[0], swap[p - 1] = p, 1
        cycle = list(range(2, p + 1)) + [1]
        perms = [swap, cycle]
    generates, order = certify.sym_gen_check(perms, p)
    if args.g is not None:
        model = build(args.g, p)
        gens = certify._thm_generators(model) if p >= 2 else None
        if gens is not None and \
                [list(gens["SH1p"].perm), list(gens["T"].perm)] != perms:
            raise UsageError("catalog images disagree with the quotient data")
    _emit({"command": "sym", "p": p, "perms": perms,
           "generates": bool(generates), "order": order}, args,
          f"generates: {'true' if generates else 'false'}, order {order}")
    return EXIT_OK if generates else EXIT_FAILED


def cmd_synth(args) -> int:
    model = _model(args)
    names = generator_names(model)
    if args.target not in names:
        raise UsageError(f"unknown target {args.target!r}; vocabulary: "
                         f"{', '.join(sorted(names))}")
    got = certify.synthesize(model, args.target,
                             limits=certify.SearchLimits(
                                 args.max_depth, args.max_states))
    if got is None:
        _emit({"command": "synth", "target": args.target,
               "status": "budget exhausted"}, args,
              "budget exhausted (no witness found; absence not claimed)")
        return EXIT_BUDGET
    word, cert = got
    _emit({"command": "synth", "certificate": cert.as_dict()}, args,
          f"{args.target} = {print_word(word)}")
    return EXIT_OK


def _emit_certificate(cert: certify.Certificate, args, label: str) -> int:
    human = f"{label}: {'valid' if cert.valid else 'INVALID'}"
    _emit({"command": label, "certificate": cert.as_dict()}, args, human)
    return EXIT_OK if cert.valid else EXIT_FAILED


def cmd_certify_thm9(args) -> int:
    model = _model(args)
    cert = certify.certify_thm9(model)
    return _emit_certificate(cert, args, "certify-thm9")


def cmd_certify_thm10(args) -> int:
    model = _model(args)
    cert = certify.certify_thm10(model)
    return _emit_certificate(cert, args, "certify-thm10")


def cmd_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit({"command": "verify", "ok": False,
               "error": f"not JSON: {exc}"}, args, f"invalid: not JSON")
        return EXIT_FAILED
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]
    try:
        cert = certify.certificate_from_dict(data)
    except certify.CertificateError as exc:
        _emit({"command": "verify", "ok": False, "error": str(exc)},
              args, f"invalid: {exc}")
        return EXIT_FAILED
    ok = certify.verify(cert)
    _emit({"command": "verify", "ok": bool(ok)}, args,
          "valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The mcg parser, built on the first call; parse_args gives each call a
    fresh Namespace, so nothing carries from one command to the next."""
    parser = _Parser(prog="mcg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def common(sp, surface=True):
        if surface:
            sp.add_argument("--g", type=int, default=None)
            sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("gens", description="list the generator vocabulary")
    common(sp)
    sp.set_defaults(fn=cmd_gens)

    sp = sub.add_parser("eval", description="evaluate a word")
    common(sp)
    sp.add_argument("word")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("eq", description="compare two words")
    common(sp)
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(fn=cmd_eq)

    sp = sub.add_parser("act", description="apply a word to a named curve")
    common(sp)
    sp.add_argument("word")
    sp.add_argument("curve")
    sp.set_defaults(fn=cmd_act)

    sp = sub.add_parser("suite", description="run the relation suite")
    common(sp)
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("sym", description="symmetric-group closure check")
    common(sp)
    sp.set_defaults(fn=cmd_sym)

    sp = sub.add_parser("synth", description="search a membership witness")
    common(sp)
    sp.add_argument("target")
    sp.add_argument("--max-depth", type=int,
                    default=certify.SearchLimits.depth)
    sp.add_argument("--max-states", type=int,
                    default=certify.SearchLimits.max_states)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("certify-thm9",
                        description="full generation certificate")
    common(sp)
    sp.set_defaults(fn=cmd_certify_thm9)

    sp = sub.add_parser("certify-thm10",
                        description="extended-group certificate")
    common(sp)
    sp.set_defaults(fn=cmd_certify_thm10)

    sp = sub.add_parser("verify", description="replay a certificate file")
    common(sp, surface=False)
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing command")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WordSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:   # a certificate to read or an --out to write
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
