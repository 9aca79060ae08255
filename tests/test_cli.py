import json
import random

import pytest

from mcg import catalog, certify, cli, grammar
from mcg.cli import main
from mcg.grammar import (Term, WordSyntaxError, evaluate_ast, parse_word,
                         print_word)
from mcg.catalog import equal, vocabulary
from mcg.surface import build


# ---------------------------------------------------------------------------
# word grammar


def test_parse_single_name():
    assert parse_word("B") == (Term("B", 1),)


def test_parse_sequence_and_separators():
    want = (Term("S", 1), Term("H1p", 1))
    assert parse_word("S H1p") == want
    assert parse_word("S*H1p") == want
    assert parse_word("  S   *  H1p ") == want


def test_parse_exponents():
    assert parse_word("T^-1") == (Term("T", -1),)
    assert parse_word("T^3") == (Term("T", 3),)
    assert parse_word("T^+2") == (Term("T", 2),)
    # stacked exponents multiply
    assert parse_word("T^2^3") == (Term("T", 6),)
    # any decimal digit int() reads is a digit; a superscript is not one
    assert parse_word("B^\u0663") == (Term("B", 3),)
    assert parse_word("B^\U0001d7d0") == (Term("B", 2),)
    with pytest.raises(WordSyntaxError, match="malformed exponent at byte 1"):
        parse_word("B^\u00b2")


def test_parse_groups():
    ast = parse_word("(S H1p)^3")
    assert ast == (Term((Term("S", 1), Term("H1p", 1)), 3),)
    nested = parse_word("((A1)^2 B)^-1")
    assert nested == (Term((Term((Term("A1", 1),), 2), Term("B", 1)), -1),)


def test_parse_identity_term():
    assert parse_word("1") == ()
    assert print_word(()) == "1"
    assert parse_word("B 1 T^-1 (1)^2") == (Term("B", 1), Term("T", -1))
    for text in ("12", "1B", "()"):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(text)
        assert exc.value.offset == 0


def test_parse_error_offsets():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("T ^")
    assert exc.value.offset == 2
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("(A1")
    assert exc.value.offset == 0
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("A1)")
    assert exc.value.offset == 2
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("T^x")
    assert exc.value.offset == 1
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("A1 @ B")
    assert exc.value.offset == 3
    with pytest.raises(WordSyntaxError):
        parse_word("")
    with pytest.raises(WordSyntaxError):
        parse_word("()")
    with pytest.raises(WordSyntaxError):
        parse_word("T^0")


def test_parse_error_offsets_count_utf8_bytes():
    # the Arabic-Indic digit three takes two bytes, so Q starts at byte 5
    with pytest.raises(WordSyntaxError,
                       match=r"unknown generator 'Q'; vocabulary: B at byte 5$"):
        parse_word("B^\u0663 Q(", names=["B"])
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("B^\U0001d7d0 \u2192")
    assert exc.value.offset == 7


def test_parse_vocabulary_gate():
    names = ("A1", "B", "T")
    assert parse_word("A1 B", names=names)
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("A1 A0", names=names)
    assert "unknown generator 'A0'" in str(exc.value)
    assert "A1, B, T" in str(exc.value)
    assert exc.value.offset == 3


def random_ast(rng, depth=0):
    names = ["A1", "B", "T", "H1p", "S", "E0"]
    terms = []
    for _ in range(rng.randint(1, 4)):
        exp = rng.choice([-3, -2, -1, 1, 1, 1, 2, 5])
        if depth < 2 and rng.random() < 0.3:
            terms.append(Term(random_ast(rng, depth + 1), exp))
        else:
            terms.append(Term(rng.choice(names), exp))
    return tuple(terms)


def test_parse_print_identity_on_random_asts():
    rng = random.Random(99)
    for _ in range(1000):
        ast = random_ast(rng)
        assert parse_word(print_word(ast)) == ast


def test_evaluate_applies_rightmost_first():
    m = build(1, 2)
    vocab = vocabulary(m)
    got = evaluate_ast(parse_word("T E0 T^-1"), vocab, m)
    assert equal(got, vocab["E1"])
    grouped = evaluate_ast(parse_word("(T E0) T^-1"), vocab, m)
    assert equal(grouped, got)


def test_evaluate_group_power():
    m = build(1, 2)
    vocab = vocabulary(m)
    lhs = evaluate_ast(parse_word("(S H1p)^2"), vocab, m)
    rhs = evaluate_ast(parse_word("S H1p S H1p"), vocab, m)
    assert equal(lhs, rhs)


# ---------------------------------------------------------------------------
# commands; main() returns the exit code


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_gens(capsys):
    code, out, _ = run(capsys, "gens", "--g", "1", "--p", "2")
    assert code == 0
    assert "A1" in out and "T" in out and "RHO1" in out


def test_cmd_gens_json(capsys):
    code, out, _ = run(capsys, "gens", "--g", "1", "--p", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    names = [row["name"] for row in data["generators"]]
    assert names == sorted(names)


def test_cmd_eval(capsys):
    code, out, _ = run(capsys, "eval", "--g", "1", "--p", "2", "--json",
                       "T^2")
    assert code == 0
    data = json.loads(out)
    assert data["peripheral"]["perm"] == [1, 2]
    assert data["peripheral"]["sign"] == 1


def test_cmd_eq_true_false(capsys):
    code, out, _ = run(capsys, "eq", "--g", "1", "--p", "2",
                       "T E0 T^-1", "E1")
    assert code == 0 and "true" in out
    code, out, _ = run(capsys, "eq", "--g", "1", "--p", "2", "A1", "A2")
    assert code == 2 and "false" in out


def test_cmd_eq_long_product(capsys):
    # 3,000 factors fold into a chain of 3,000 pending inverse tables
    code, out, _ = run(capsys, "eq", "--g", "1", "--p", "2",
                       "B^3000", " ".join(["B"] * 3000))
    assert code == 0 and "equal: true" in out


def test_cmd_eval_nesting(capsys):
    n = grammar.MAX_NESTING
    code, out, err = run(capsys, "eval", "--g", "1", "--p", "2",
                         "(" * 3000 + "B" + ")" * 3000)
    assert (code, out) == (1, "")
    assert err == f"parse error: groups nested deeper than {n} at byte {n}\n"
    code, out, _ = run(capsys, "eval", "--g", "1", "--p", "2", "--json",
                       "(" * n + "B T" + ")" * n)
    assert code == 0
    flat = run(capsys, "eval", "--g", "1", "--p", "2", "--json", "B T")[1]
    assert json.loads(out)["fingerprint"] == json.loads(flat)["fingerprint"]


def test_cmd_eval_exponent_too_long(capsys):
    code, out, err = run(capsys, "eval", "--g", "1", "--p", "2",
                         "B^" + "9" * 5000)
    assert (code, out) == (1, "")
    assert err == "parse error: exponent too long at byte 1\n"


def test_cmd_eval_superscript_exponent(capsys):
    code, out, err = run(capsys, "eval", "--g", "1", "--p", "2", "B^\u00b2")
    assert (code, out) == (1, "")
    assert err == "parse error: malformed exponent at byte 1\n"


def test_cmd_eq_parse_error(capsys):
    code, _, err = run(capsys, "eq", "--g", "1", "--p", "2", "A0", "A1")
    assert code == 1
    assert "unknown generator" in err and "byte 0" in err


def test_cmd_act(capsys):
    code, out, _ = run(capsys, "act", "--g", "1", "--p", "2", "--json",
                       "T", "e0")
    assert code == 0
    data = json.loads(out)
    assert data["image_name"] == "e1"


def test_cmd_suite(capsys):
    code, out, _ = run(capsys, "suite", "--g", "1", "--p", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["items"] and all(it["passed"] for it in data["items"])


@pytest.mark.parametrize("gp", [("2", "3"), ("2", "4"), ("3", "3")])
def test_cmd_suite_with_rotation_in_annulus_frame(capsys, gp):
    code, out, err = run(capsys, "suite", "--g", gp[0], "--p", gp[1],
                         "--json")
    assert code == 0, err
    assert json.loads(out)["ok"] is True


def test_certify_thm9_g2p3_verifies(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, "certify-thm9", "--g", "2", "--p", "3",
                       "--json", "--out", str(path))
    assert code == 0, err
    assert run(capsys, "verify", str(path))[0] == 0


def test_cmd_sym(capsys):
    code, out, _ = run(capsys, "sym", "--p", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"schema_version": "1", "command": "sym", "p": 5,
                    "perms": [[5, 2, 3, 4, 1], [2, 3, 4, 5, 1]],
                    "generates": True, "order": 120}


def test_cmd_sym_closure_bound(capsys):
    for p in ("0", "-2", "11"):
        code, out, err = run(capsys, "sym", "--p", p)
        assert (code, out) == (2, ""), p
        assert err == "error: closure bound: 1 <= p <= 10\n", p


def test_cmd_sym_with_surface_cross_check(capsys):
    code, out, _ = run(capsys, "sym", "--g", "1", "--p", "3")
    assert code == 0
    assert "order 6" in out


def test_cmd_synth(capsys):
    code, out, _ = run(capsys, "synth", "--g", "1", "--p", "2", "--json",
                       "E1")
    assert code == 0
    data = json.loads(out)
    cert = data["certificate"]
    assert cert["witness"] == "T SH1p B SH1p^-1 T^-1"
    assert cert["target"] == "E1"


def test_cmd_synth_skips_the_vocabulary(capsys, monkeypatch):
    def no_vocabulary(model):
        raise AssertionError("synth must not build the vocabulary")
    monkeypatch.setattr(catalog, "vocabulary", no_vocabulary)
    monkeypatch.setattr(cli, "vocabulary", no_vocabulary)
    code, out, _ = run(capsys, "synth", "--g", "1", "--p", "3", "E2")
    assert (code, out) == (0, "E2 = T^2 SH1p B SH1p^-1 T^-2\n")
    code, _, err = run(capsys, "synth", "--g", "1", "--p", "2", "SH1p")
    assert code == 1
    assert err == ("usage error: unknown target 'SH1p'; vocabulary: A1, A2, "
                   "B, DELTA, E0, E1, H12, H1p, N1, R, RHO1, RHO2, S, T, TP\n")


def test_cmd_synth_budget(capsys):
    code, out, _ = run(capsys, "synth", "--g", "1", "--p", "2", "--json",
                       "DELTA", "--max-depth", "0", "--max-states", "1")
    assert code == 3
    assert "budget" in out


def test_cmd_certify_and_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify-thm9", "--g", "1", "--p", "2",
                       "--json", "--out", str(path))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "valid" in out
    # an --out that cannot be written is an exit code, not an exception
    code, out, err = run(capsys, "certify-thm9", "--g", "1", "--p", "2",
                         "--out", str(tmp_path / "absent" / "cert.json"))
    assert (code, out) == (1, "")
    assert err.startswith("i/o error: ") and "absent" in err

    tampered = json.loads(path.read_text())
    for item in tampered["certificate"]["transcript"]:
        if item["op"] == "kernel-witness" and "witness" in item["inputs"]:
            item["inputs"]["witness"] = "T"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 2 and "invalid" in out


def test_cmd_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 2
    # a file that is not UTF-8 gets the same report as malformed JSON
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "verify", "--json", str(path))
    report = json.loads(out)
    assert (code, err) == (2, "")
    assert report["command"] == "verify" and report["ok"] is False
    assert report["error"].startswith("not JSON: 'utf-8' codec")
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 1 and "i/o error" in err
    for scalar in ("5", "true", "null"):
        path.write_text(scalar)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 2, scalar
        assert "invalid: certificate payload must be an object" in out


def _no_inputs(cert):
    del cert["transcript"][0]["inputs"]


def _sym_without_p(cert):
    del cert["transcript"][-1]["inputs"]["p"]


def _step_not_object(cert):
    cert["transcript"][0] = 5


def _surface_list(cert):
    cert["surface"] = [1]


def _genus_text(cert):
    cert["surface"]["g"] = "1"


def _witness_int(cert):
    cert["transcript"][0]["inputs"]["witness"] = 5


@pytest.mark.parametrize("edit", [_no_inputs, _sym_without_p,
                                  _step_not_object, _surface_list,
                                  _genus_text, _witness_int],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_cmd_verify_malformed_fields(capsys, tmp_path, edit):
    path = tmp_path / "cert.json"
    assert run(capsys, "certify-thm9", "--g", "1", "--p", "2", "--json",
               "--out", str(path))[0] == 0
    data = json.loads(path.read_text())
    edit(data["certificate"])
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and "invalid" in out and err == ""


def test_cmd_certify_thm9_budget(capsys, monkeypatch):
    # certify-thm9 runs no search, so it takes no budget options
    for flag in ("--max-depth", "--max-states"):
        code, out, err = run(capsys, "certify-thm9", "--g", "2", "--p", "2",
                             flag, "1")
        assert (code, out) == (1, "")
        assert err == f"usage error: unrecognized arguments: {flag} 1\n"
    # a closed form that fails the gate is a missing witness: exit 2, not 3
    monkeypatch.setattr(certify, "_a1_conjugator", lambda g: ())
    code, out, _ = run(capsys, "certify-thm9", "--g", "2", "--p", "2",
                       "--json")
    assert code == 2
    steps = json.loads(out)["certificate"]["transcript"]
    kernel = {s["inputs"]["target"]: s for s in steps
              if s["op"] == "kernel-witness"}
    assert list(kernel) == ["B", "A1", "A2", "A3", "A4", "E0", "E1"]
    assert kernel.pop("B")["inputs"]["witness"] == "B"
    for name, step in kernel.items():
        assert step["verdict"] is False, name
        assert step["error"] == "missing witness", name
        assert "witness" not in step["inputs"], name


def test_cmd_certify_thm10(capsys):
    code, out, _ = run(capsys, "certify-thm10", "--g", "2", "--p", "2",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["kind"] == "theorem-10"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "T")
    assert code == 1 and "--g and --p" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys)
    assert code == 1


def test_determinism_byte_identical(capsys):
    first = run(capsys, "suite", "--g", "1", "--p", "3", "--json")
    second = run(capsys, "suite", "--g", "1", "--p", "3", "--json")
    assert first == second and first[0] == 0
    a = run(capsys, "certify-thm9", "--g", "1", "--p", "2", "--json")
    b = run(capsys, "certify-thm9", "--g", "1", "--p", "2", "--json")
    assert a == b and a[0] == 0
    cert = certify.certificate_from_dict(json.loads(a[1])["certificate"])
    assert cert.valid and certify.verify(cert)


def test_seed_is_a_usage_error(capsys):
    # nothing in mcg is random, so no command takes a seed
    for argv in (["gens", "--g", "1", "--p", "2"],
                 ["eval", "--g", "1", "--p", "2", "T"],
                 ["eq", "--g", "1", "--p", "2", "T", "T"],
                 ["act", "--g", "1", "--p", "2", "T", "e0"],
                 ["suite", "--g", "1", "--p", "2"],
                 ["sym", "--p", "2"],
                 ["synth", "--g", "1", "--p", "2", "A2"],
                 ["certify-thm9", "--g", "1", "--p", "2"],
                 ["certify-thm10", "--g", "1", "--p", "2"],
                 ["verify", "cert.json"]):
        code, out, err = run(capsys, *argv, "--seed", "7")
        assert (code, out) == (1, ""), argv
        assert err == "usage error: unrecognized arguments: --seed 7\n", argv


def test_word_commands_build_only_named_generators(capsys, monkeypatch):
    built = []
    real = cli.generator

    def counted(model, name):
        built.append(name)
        return real(model, name)

    def no_vocabulary(model):
        raise AssertionError("word commands must not build the vocabulary")
    monkeypatch.setattr(cli, "generator", counted)
    monkeypatch.setattr(cli, "vocabulary", no_vocabulary)
    code, out, _ = run(capsys, "eq", "--g", "3", "--p", "2", "A1 B", "B A1")
    assert (code, out) == (0, "equal: true\n")
    assert sorted(built) == ["A1", "B"]
    built.clear()
    code, _, _ = run(capsys, "eval", "--g", "1", "--p", "2", "(T E0)^2")
    assert code == 0
    assert sorted(built) == ["E0", "T"]
    built.clear()
    code, _, _ = run(capsys, "act", "--g", "1", "--p", "2", "((S) H1p)^-1",
                     "e0")
    assert code == 0
    assert sorted(built) == ["H1p", "S"]
    built.clear()
    code, _, err = run(capsys, "eq", "--g", "1", "--p", "2", "A1", "A1 Q")
    assert code == 1 and built == []
    assert err == ("parse error: unknown generator 'Q'; vocabulary: A1, A2, "
                   "B, DELTA, E0, E1, H12, H1p, N1, R, RHO1, RHO2, S, T, TP "
                   "at byte 3\n")


def test_parser_reuse_matches_fresh_parser(capsys, tmp_path):
    cert = tmp_path / "thm10.json"
    cert.write_text(json.dumps(
        {"certificate": certify.certify_thm10(build(1, 2)).as_dict()}))
    out_file = tmp_path / "eval.json"
    surface = ["--g", "1", "--p", "2"]
    session = [
        ["eq", *surface, "--json", "T E0 T^-1", "E1"],
        ["eq", *surface, "T E0 T^-1", "E1"],
        ["eval", *surface, "--json", "--out", str(out_file), "T^2"],
        ["eval", *surface, "T^2"],
        ["eq", *surface],
        ["verify", str(cert)],
        ["gens", *surface],
    ]

    def replay(fresh):
        got = []
        for argv in session:
            if fresh:
                cli._build_parser.cache_clear()
            out_file.unlink(missing_ok=True)
            code, out, err = run(capsys, *argv)
            written = out_file.read_text() if out_file.exists() else None
            got.append((code, out, err, written))
        return got

    reused = replay(fresh=False)
    assert [r[0] for r in reused] == [0, 0, 0, 0, 1, 0, 0]
    assert reused[2][1] == "" and json.loads(reused[2][3])["command"] == "eval"
    assert reused[3][1].startswith("word: T^2\n") and reused[3][3] is None
    assert "required" in reused[4][2]
    assert reused == replay(fresh=True)
