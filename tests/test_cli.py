import argparse
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relfree
from relfree import cli, ledger
from relfree.errors import RelfreeError
from relfree.verbal import ParamSet, make_w1, word_length_symbolic
from relfree.words import Alphabet, Word


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_word_reduce(capsys):
    code, out, _ = run(capsys, "word", "reduce", "a1 a1^-1")
    assert code == 0
    assert out.strip() == "1"


def test_word_conj_without_a_second_word_is_usage_error(capsys):
    code, out, err = run(capsys, "word", "conj", "a1")
    assert (code, out) == (2, "")
    assert "second word" in err


def test_word_reduce_matches_library(capsys):
    text = "a1^3 a2 a2^-1 a1^-1 a2^2"
    code, out, _ = run(capsys, "word", "reduce", text)
    assert code == 0
    assert out.strip() == str(Word.parse(Alphabet(2), text))


def test_word_conjugacy_exit_codes(capsys):
    code, out, _ = run(capsys, "word", "conj", "a1 a2", "a2 a1")
    assert code == 0
    code, out, _ = run(capsys, "word", "conj", "a1", "a2")
    assert code == 1


def test_word_conj_of_a_huge_exponent_builds_no_letters(capsys):
    code, out, err = run(capsys, "word", "conj",
                         "a1^1000000000000 a2", "a2 a1^1000000000000")
    assert (code, out, err) == (0, "conjugate: true\n", "")


def test_verbal_build_matches_library(capsys):
    code, out, _ = run(capsys, "verbal", "build", "--which", "w1",
                       "--h", "20", "--d", "2", "--n", "3")
    assert code == 0
    ab = Alphabet(2)
    want = make_w1(Word.generator(ab, 1), Word.generator(ab, 2), ParamSet(20, 2, 3))
    assert out.strip() == str(want)


def test_verbal_epsilon(capsys):
    code, out, _ = run(capsys, "verbal", "epsilon", "--i", "4")
    assert (code, out.strip()) == (0, "-1")


def test_endo_check_passes(capsys):
    code, out, _ = run(capsys, "endo", "check", "--h", "20", "--d", "2", "--n", "3")
    assert code == 0
    assert "kernel-identity: PASS" in out
    assert "surjectivity-identity: PASS" in out
    assert "INDETERMINATE" in out  # the group-level claim stays open


def test_lpp_verify_names_failing_item(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("L1_f_bound | n^2 > 100*(n+h)/zeta | Lemma 1\n")
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "alpha = 1/2\nbeta = 1/4\ngamma = 1/8\ndelta = 1/20\n"
        "eps = 1/40\nzeta = 1/160\neta = 1/200\niota = 1/201\n")
    code, out, _ = run(capsys, "lpp", "verify", str(cat), "--assign", str(bad))
    assert code == 1
    assert "L1_f_bound" in out
    assert "FAIL" in out


def test_lpp_solve_round_trips_through_files(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("L1 | n^2 > 100*(n+h)/zeta | Lemma 1\n")
    out_file = tmp_path / "assign.txt"
    code, out, _ = run(capsys, "lpp", "solve", str(cat), "--out", str(out_file))
    assert code == 0
    assignment = ledger.load_assignment(out_file)
    rep = ledger.verify(assignment, ledger.InequalityCatalog.from_path(cat))
    assert rep.passed


def test_lpp_verify_needs_an_assignment(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("L1 | n^2 > 100*(n+h)/zeta | Lemma 1\n")
    code, out, err = run(capsys, "lpp", "verify", str(cat))
    assert (code, out) == (2, "")
    assert err == "lpp verify needs --assign <file>\n"


@pytest.mark.parametrize("expression, message", [
    ("alpha > 1/0", "item 'x' divides by zero"),
    ("alpha > 0^-1 + alpha - alpha", "item 'x' raises 0 to a negative power"),
], ids=["zero-divisor", "zero-to-negative"])
def test_lpp_solve_refuses_a_zero_divisor(capsys, tmp_path, expression, message):
    cat = tmp_path / "cat.txt"
    cat.write_text(f"x | {expression} | a\n")
    code, out, err = run(capsys, "lpp", "solve", str(cat))
    assert (code, out) == (1, "")
    assert err == f"error: {cat}:1: {message}\n"


CHAIN_ASSIGNMENT = ("alpha = 1/2\nbeta = 1/4\ngamma = 1/8\ndelta = 1/20\n"
                    "eps = 1/40\nzeta = 1/160\neta = 1/200\niota = 1/201\n")


@pytest.mark.parametrize("line, message", [
    ("x | alpha > 1/0 | a", "item 'x' divides by zero"),
    ("x | alpha > 2^2^2^2^2^2 | a", "item 'x': a power exceeds 65536 bits"),
    ("y | alpha > zz | a", "item 'y' uses unknown names ['zz']"),
    ("y | alpha + 1 | a", "item 'y' is not an inequality: 'alpha + 1'"),
    ("y | alpha > | a", "unparsable expression 'alpha >'"),
], ids=["zero-divisor", "tower", "unknown-name", "not-an-inequality", "unparsable"])
@pytest.mark.parametrize("action", ["solve", "verify"])
def test_catalog_errors_name_the_file_and_line(capsys, tmp_path, line, message, action):
    # the item sits on line 4, after a comment, a blank line and a good item
    cat = tmp_path / "cat.txt"
    cat.write_text(f"# catalog\n\nL1 | n^2 > 100*(n+h)/zeta | Lemma 1\n{line}\n")
    assign = tmp_path / "assign.txt"
    assign.write_text(CHAIN_ASSIGNMENT)
    extra = ["--assign", str(assign)] if action == "verify" else []
    code, out, err = run(capsys, "lpp", action, str(cat), *extra)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {cat}:4: {message}")


def test_graded_pieces(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\n")
    code, out, _ = run(capsys, "graded", "pieces", "--relators", str(rel),
                       "--output", "kv")
    assert code == 0
    assert "max_piece=1" in out
    assert "lambda=1/8" in out


def test_graded_pieces_take_cyclic_cores(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a3 a1 a2 a1^-1 a2^-1 a3^-1\n")
    code, out, err = run(capsys, "graded", "pieces", "--relators", str(rel))
    assert (code, out, err) == (0, "max_piece: 1\nlambda: 1/4\n", "")


@pytest.mark.parametrize("text, message", [
    ("a1 a2\na1 a1^-1\n", "relator 1 is freely trivial"),
    ("a600000 a1\n",
     "generator a600000 is past a557055, the largest index whose letters can be encoded")])
def test_graded_pieces_refuse_what_graded_dehn_refuses(capsys, tmp_path, text, message):
    rel = tmp_path / "rel.txt"
    rel.write_text(text)
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    for argv in (("graded", "pieces"), ("graded", "dehn", str(words))):
        code, out, err = run(capsys, *argv, "--relators", str(rel))
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_graded_pieces_refuse_the_toy_cores_over_budget(capsys, tmp_path):
    from relfree.graded import build_presentation
    from relfree.words import cyclic_reduce

    pres = build_presentation(Alphabet(2), ParamSet(20, 2, 3), 2, 1)
    rel = tmp_path / "rel.txt"
    rel.write_text("".join(f"{cyclic_reduce(rec.relator)[0]}\n"
                           for rec in pres.all_relators()))
    code, out, err = run(capsys, "graded", "pieces", "--relators", str(rel))
    assert (code, out) == (3, "")
    assert err == ("indeterminate: symmetrized set would hold 236995882048 letters, "
                   "over 2000000\n")


def test_graded_dehn_reduces_words(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\n")
    words = tmp_path / "words.txt"
    words.write_text("a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\na1\n")
    code, out, _ = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("1")
    assert lines[1].endswith("a1")


def test_graded_dehn_budget_exhaustion_is_exit_3(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\n")
    words = tmp_path / "words.txt"
    # two stacked relator copies need two steps; one step of budget is too few
    words.write_text("a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1 "
                     "a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\n")
    code, out, _ = run(capsys, "graded", "dehn", str(words), "--relators", str(rel),
                       "--budget-dehn", "1")
    assert code == 3


def test_graded_dehn_builds_one_relator_table_per_relator_file(capsys, tmp_path, monkeypatch):
    from relfree import graded

    built = []

    class CountingTable(graded._RelatorTable):
        def __init__(self, relators):
            built.append(len(relators))
            super().__init__(relators)

    monkeypatch.setattr(graded, "_RelatorTable", CountingTable)
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    words = tmp_path / "words.txt"
    words.write_text("a1\na2\na1 a2 a1^-1 a2^-1\n")
    code, out, _ = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert (code, out) == (0, "reduced: a1\nreduced: a2\nreduced: 1\n")
    assert built == [1]


@pytest.mark.parametrize("action", ["build", "pieces"])
def test_budget_dehn_outside_graded_dehn_is_usage_error(capsys, tmp_path, action):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    code, out, err = run(capsys, "graded", action, "--relators", str(rel),
                         "--budget-dehn", "5")
    assert (code, out) == (2, "")
    assert "--budget-dehn" in err and f"graded {action}" in err


def test_nonpositive_budget_is_usage_error(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    code, _, err = run(capsys, "graded", "dehn", str(words), "--relators", str(rel),
                       "--budget-dehn", "0")
    assert code == 2
    assert "positive" in err


def test_graded_build_writes_presentation(capsys, tmp_path):
    out_file = tmp_path / "pres.txt"
    code, out, _ = run(capsys, "graded", "build", "--rank", "1",
                       "--pair-budget", "1", "--out", str(out_file),
                       "--output", "kv")
    assert code == 0
    from relfree.graded import load_presentation

    pres = load_presentation(out_file)
    assert len(pres.all_relators()) == 16


def test_ledger_mode_refuses_without_verification(capsys, tmp_path):
    code, _, err = run(capsys, "endo", "check", "--mode", "ledger")
    assert code == 2  # no assignment supplied
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "alpha = 1/2\nbeta = 1/4\ngamma = 1/8\ndelta = 1/20\n"
        "eps = 1/40\nzeta = 1/2000\neta = 1/4000\niota = 1/8000\n")
    code, _, err = run(capsys, "endo", "check", "--mode", "ledger",
                       "--assign", str(bad))
    assert code == 1
    assert "ledger verification failed" in err


def test_ledger_mode_runs_with_verified_assignment(capsys, tmp_path):
    cat = ledger.load_default_catalog()
    assignment = ledger.solve(cat)
    path = tmp_path / "good.txt"
    ledger.save_assignment(assignment, path)
    code, out, _ = run(capsys, "endo", "check", "--mode", "ledger",
                       "--assign", str(path))
    assert code == 0


def test_ledger_mode_build_checks_exponent_bounds(capsys, tmp_path):
    cat = ledger.load_default_catalog()
    assignment = ledger.solve(cat)
    path = tmp_path / "good.txt"
    ledger.save_assignment(assignment, path)
    out_file = tmp_path / "pres.txt"
    code, _, _ = run(capsys, "graded", "build", "--rank", "1",
                     "--mode", "ledger", "--assign", str(path),
                     "--out", str(out_file))
    assert code == 0
    from relfree.graded import build_presentation
    from relfree.verbal import ParamSet
    from relfree.words import Alphabet

    pres = build_presentation(Alphabet(2), ParamSet(20, 2, 3), max_rank=1,
                              pair_budget=1, assign=assignment)
    # toy relators carry f = +-1, far under the 100/zeta bound
    assert all(not rec.warnings for rec in pres.all_relators())


def test_vkd_check_accepts_and_rejects(capsys, tmp_path):
    from relfree.diagrams import certify_dehn_trace, save_certificate
    from relfree.graded import dehn_reduce_trace

    ab = Alphabet(2)
    comm = Word.parse(ab, "a1 a2 a1^-1 a2^-1")
    rel = tmp_path / "rel.txt"
    rel.write_text(str(comm) + "\n")
    res = dehn_reduce_trace(comm, [comm])
    cert = certify_dehn_trace(comm, [comm], res.steps)
    cert_path = tmp_path / "cert.txt"
    save_certificate(cert, cert_path)
    code, out, _ = run(capsys, "vkd", "check", str(cert_path),
                       "--relators", str(rel))
    assert code == 0
    assert "ACCEPT" in out

    cert.pairs.pop()
    save_certificate(cert, cert_path)
    code, out, _ = run(capsys, "vkd", "check", str(cert_path),
                       "--relators", str(rel))
    assert code == 1
    assert "REJECT" in out


def test_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2


def test_params_file(capsys, tmp_path):
    params = tmp_path / "p.txt"
    params.write_text("h = 20\nd = 2\nn = 3\n")
    code, out, _ = run(capsys, "endo", "check", "--params", str(params))
    assert code == 0


def test_kv_output_is_stable(capsys):
    code1, out1, _ = run(capsys, "word", "root", "a1 a2 a1 a2", "--output", "kv")
    code2, out2, _ = run(capsys, "word", "root", "a1 a2 a1 a2", "--output", "kv")
    assert (code1, out1) == (code2, out2)
    assert "root=" in out1 and "k=2" in out1


# -- malformed input ends in an error, not a traceback ---------------------------

def test_params_file_missing_a_name_is_an_error(capsys, tmp_path):
    params = tmp_path / "p.txt"
    params.write_text("h = 20\nd = 2\n")
    code, _, err = run(capsys, "endo", "check", "--params", str(params))
    assert code == 1
    assert str(params) in err and "n" in err


def test_graded_dehn_without_word_file_is_usage_error(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    code, _, err = run(capsys, "graded", "dehn", "--relators", str(rel))
    assert code == 2
    assert "word file" in err


def test_graded_without_relators_is_usage_error(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    for argv in (("graded", "dehn", str(words)), ("graded", "pieces")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "--relators" in err


def test_graded_dehn_with_empty_relator_file_is_an_error(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("# no relators\n")
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    code, _, err = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert code == 1
    assert str(rel) in err


def test_presentation_period_before_rank_names_file_and_line(tmp_path):
    from relfree.graded import load_presentation

    path = tmp_path / "pres.txt"
    for body, lineno in (("alphabet 2\nparams h=20 d=2 n=3\nperiod a1\n", 3),
                         ("alphabet 2\nparams h=20 d=2 n=3\nmode toy\n"
                          "relator z*=1 A=a1 f=1 j=1 T=a2 U=a2\n", 4),
                         ("period a1\nalphabet 2\n", 1)):
        path.write_text(body)
        with pytest.raises(RelfreeError, match=f"{path}:{lineno}:"):
            load_presentation(path)


@pytest.mark.parametrize("body, lineno", [
    ("alphabet 2\npair 1\n", 2),
    ("edge 1 a1\nalphabet 2\n", 1),
    ("alphabet 2\nedge x a1\n", 2),
    ("alphabet 2\nface 1 -y\n", 2),
    ("alphabet 2\nboundary 1.5\n", 2),
    ("alphabet 2\nclaim conjugacy a1\n", 2),
    ("alphabet 2\n# unterminated quote\nclaim equality 'a1 a2\n", 3),
    # only claim lines are unquoted; save_certificate quotes nothing else
    ("alphabet 2\nedge 1 'a1'\nclaim equality a1\n", 2),
], ids=["pair-missing-side", "edge-before-alphabet", "side-not-integer",
        "face-entry-not-integer", "boundary-entry-not-integer",
        "claim-missing-word", "unterminated-quote", "quoted-edge-label"])
def test_malformed_certificate_names_file_and_line(capsys, tmp_path, body, lineno):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    cert = tmp_path / "cert.txt"
    cert.write_text(body)
    code, _, err = run(capsys, "vkd", "check", str(cert), "--relators", str(rel))
    assert code == 1
    assert f"{cert}:{lineno}:" in err


# blank and comment lines count, so the numbers are the file's own line numbers
BAD_WORD_FILE = "a1 a2\n\n# a comment\na1 b2\n"


def test_graded_dehn_names_the_bad_line_of_a_relator_file(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text(BAD_WORD_FILE)
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    code, _, err = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert code == 1
    assert f"{rel}:4: bad token 'b2'" in err


def test_graded_dehn_names_the_bad_line_of_a_word_file(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    words = tmp_path / "words.txt"
    words.write_text("a1\n# a comment\n\na2 a1^x\n")
    code, out, err = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert code == 1
    assert f"{words}:4: bad exponent in token 'a1^x'" in err


def test_graded_pieces_names_the_bad_line_of_a_relator_file(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text(BAD_WORD_FILE)
    code, _, err = run(capsys, "graded", "pieces", "--relators", str(rel))
    assert code == 1
    assert f"{rel}:4: bad token 'b2'" in err


# an indented comment is a comment too, and still counts as a line
INDENTED_COMMENT_FILE = "a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\n  # a note\n\ta1 b2\n"


def test_graded_pieces_skips_indented_comments_of_a_relator_file(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("  # the genus-2 surface relator\na1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\n")
    code, out, _ = run(capsys, "graded", "pieces", "--relators", str(rel), "--output", "kv")
    assert code == 0
    assert "lambda=1/8" in out
    rel.write_text(INDENTED_COMMENT_FILE)
    code, _, err = run(capsys, "graded", "pieces", "--relators", str(rel))
    assert code == 1
    assert f"{rel}:3: bad token 'b2'" in err


def test_graded_dehn_skips_indented_comments_of_a_word_file(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    words = tmp_path / "words.txt"
    words.write_text("a1 a2 a1^-1 a2^-1\n   # a note\na1\n")
    code, out, _ = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("1")
    assert lines[1].endswith("a1")
    words.write_text("a1\n\t# a note\na2 a1^x\n")
    code, _, err = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert code == 1
    assert f"{words}:3: bad exponent in token 'a1^x'" in err


def test_vkd_check_names_the_bad_line_of_a_relator_file(capsys, tmp_path):
    from relfree.diagrams import certify_dehn_trace, save_certificate
    from relfree.graded import dehn_reduce_trace

    comm = Word.parse(Alphabet(2), "a1 a2 a1^-1 a2^-1")
    cert = certify_dehn_trace(comm, [comm], dehn_reduce_trace(comm, [comm]).steps)
    cert_path = tmp_path / "cert.txt"
    save_certificate(cert, cert_path)
    rel = tmp_path / "rel.txt"
    rel.write_text("# relators\na1 a2 a1^-1 a3^-1\n")  # the certificate has two generators
    code, _, err = run(capsys, "vkd", "check", str(cert_path), "--relators", str(rel))
    assert code == 1
    assert f"{rel}:2: generator a3 outside alphabet of 2" in err


def test_a_generator_named_only_on_the_last_line_sets_the_alphabet(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n# a5 in a comment\n\na5^3\n")
    assert {w.alphabet for w in cli._read_relators(rel)} == {Alphabet(5)}
    words = tmp_path / "words.txt"
    words.write_text("a5^3 a1\n")
    code, out, _ = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert (code, out) == (0, "reduced: a1\n")


def test_an_alphabet_smaller_than_a_used_generator_names_the_line(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2\n# a comment\n\na1 a3\n")
    code, out, err = run(capsys, "graded", "pieces", "--relators", str(rel), "--m", "2")
    assert (code, out) == (1, "")
    assert err == f"error: {rel}:4: generator a3 outside alphabet of 2\n"


@pytest.mark.parametrize("argv", [["word", "reduce", "a0"], ["word", "reduce", "a1 a0^2"],
                                  ["verbal", "build", "--x", "a0"]])
def test_generator_a0_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: generator a0 outside alphabet of ")


def test_generator_a0_in_a_relator_file_names_the_line(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2\na2 a0\n")
    code, _, err = run(capsys, "graded", "pieces", "--relators", str(rel))
    assert code == 1
    assert err.startswith(f"error: {rel}:2: generator a0 outside alphabet of ")


@pytest.mark.parametrize("which", ["relators", "words"])
def test_blank_and_comment_lines_keep_the_line_numbers_counting(capsys, tmp_path, which):
    good = tmp_path / "good.txt"
    good.write_text("a1 a2 a1^-1 a2^-1\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("a1\n\n   \n# a comment\n\t# an indented one\n\na2 a1^x\n")
    rel, words = (bad, good) if which == "relators" else (good, bad)
    code, _, err = run(capsys, "graded", "dehn", str(words), "--relators", str(rel))
    assert code == 1
    assert err == f"error: {bad}:7: bad exponent in token 'a1^x'\n"


def test_word_with_a_non_ascii_digit_is_a_bad_token(capsys):
    code, _, err = run(capsys, "word", "reduce", "a\u00b2")
    assert code == 1
    assert "bad token" in err


# -- byte-stable presentation file -------------------------------------------------

PRESENTATION_20_2_3_SHA256 = \
    "68bb6ac4e9b6952af3bb5177602a7dca768a7b626bbdeef9543e4bbec22b7401"


def test_graded_build_presentation_file_is_byte_stable(capsys, tmp_path):
    import hashlib

    from relfree.graded import build_presentation, load_presentation
    from relfree.verbal import ParamSet

    out_file = tmp_path / "pres.txt"
    code, _, _ = run(capsys, "graded", "build", "--rank", "2", "--pair-budget", "1",
                     "--h", "20", "--d", "2", "--n", "3", "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PRESENTATION_20_2_3_SHA256
    built = build_presentation(Alphabet(2), ParamSet(20, 2, 3), max_rank=2, pair_budget=1)
    loaded = load_presentation(out_file)
    assert [str(rec.relator) for rec in loaded.all_relators()] \
        == [str(rec.relator) for rec in built.all_relators()]
    assert len(loaded.all_relators()) == 16


# -- huge exponents: answered from the runs, never by scanning letters -----------

def run_cli_process(*argv, timeout=10):
    """Run ``relfree`` in a fresh interpreter, so that a hang fails the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(relfree.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "relfree.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("word, root, k", [
    (f"a1^{2 ** 70}", "a1", 2 ** 70),
    (f"a1^{2 ** 70} a2 a1^{2 ** 70} a2", f"a1^{2 ** 70} a2", 2),
], ids=["single-run", "square"])
def test_word_root_with_a_huge_exponent(word, root, k):
    proc = run_cli_process("word", "root", word)
    assert proc.returncode == 0
    assert proc.stdout == f"root: {root}\nk: {k}\n"


def test_vkd_check_under_a_huge_alphabet_line(tmp_path):
    # the certificate's alphabet line sets the alphabet the relators are read in
    from relfree.diagrams import certify_dehn_trace, save_certificate
    from relfree.graded import dehn_reduce_trace

    comm = Word.parse(Alphabet(2), "a1 a2 a1^-1 a2^-1")
    cert = certify_dehn_trace(comm, [comm], dehn_reduce_trace(comm, [comm]).steps)
    cert_path = tmp_path / "cert.txt"
    save_certificate(cert, cert_path)
    lines = cert_path.read_text().splitlines()
    assert lines[0] == "alphabet 2"
    cert_path.write_text("\n".join(["alphabet 100000000"] + lines[1:]) + "\n")
    rel = tmp_path / "rel.txt"
    rel.write_text(str(comm) + "\n")
    proc = run_cli_process("vkd", "check", str(cert_path), "--relators", str(rel))
    assert proc.returncode == 0
    assert proc.stdout.startswith("verdict: ACCEPT")


def test_graded_dehn_over_a_huge_relator_runs_out_of_budget(tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text(f"a1^{2 ** 70} a2\n")
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    proc = run_cli_process("graded", "dehn", str(words), "--relators", str(rel))
    assert proc.returncode == 3
    assert "over the budget of 10000000" in proc.stderr


def test_graded_dehn_over_an_unencodable_generator_is_an_error(tmp_path):
    # a_k^-1 is encoded as the code point 2k + 1, which ends at 0x10FFFF
    rel = tmp_path / "rel.txt"
    rel.write_text("a600000 a1\n")
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    proc = run_cli_process("graded", "dehn", str(words), "--relators", str(rel))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "generator a600000 is past a557055" in proc.stderr


def test_lpp_solve_refuses_a_power_tower(tmp_path):
    # 2^2^2^2^2^2 = 2^(2^65536): evaluating it would never finish
    cat = tmp_path / "cat.txt"
    cat.write_text("x | alpha > 2^2^2^2^2^2 | a\n")
    proc = run_cli_process("lpp", "solve", str(cat))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {cat}:1: item 'x': a power exceeds 65536 bits\n"


# -- sizes too large to build: exit 3, never MemoryError -------------------------

def run_capped(*args, timeout=60):
    """Run ``python args`` in a fresh interpreter whose address space is capped
    at 1 GiB, so that an allocation too large for the host fails in the child
    and not on the host."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(relfree.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ("verbal", "build", "--which", "w1", "--d", "1000000000000"),
    ("endo", "check", "--n", "100000000000000"),
    ("graded", "build", "--h", "2000000000000"),
], ids=["verbal-build-d", "endo-check-n", "graded-build-h"])
def test_sizes_too_large_to_build_run_out_of_budget(argv):
    proc = run_capped("-m", "relfree.cli", *argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "over the budget of 10000000" in proc.stderr


def test_verbal_length_answers_at_any_h():
    proc = run_capped("-m", "relfree.cli", "verbal", "length", "--which", "w1",
                      "--h", "20000000000000")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == word_length_symbolic("w1", 1, 1, ParamSet(20000000000000, 2, 3))


def test_presentation_relator_too_large_to_build_runs_out_of_budget(tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 2\n"
                    "relator z*=1 A='a1 a2' f=1000000000000 j=1 T=a1 U=a2\n")
    code = ("import sys\nfrom relfree import errors, graded\n"
            "try:\n    graded.load_presentation(sys.argv[1])\n"
            "except errors.BudgetExceeded as exc:\n    print(exc)\n")
    proc = run_capped("-c", code, str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{path}:5: ")
    assert "over the budget of 10000000" in proc.stdout


# -- files that are not UTF-8 ---------------------------------------------------

NOT_UTF8 = b"\xff\xfealphabet 2\n"


@pytest.mark.parametrize("reader", [
    "graded-pieces-relators", "graded-dehn-words", "endo-check-params", "vkd-check-certificate",
    "lpp-verify-catalog", "lpp-verify-assignment"])
def test_a_file_that_is_not_utf8_is_named_in_an_error(capsys, tmp_path, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    cat = tmp_path / "cat.txt"
    cat.write_text("x | alpha > 0 | a\n")
    argv = {
        "graded-pieces-relators": ("graded", "pieces", "--relators", str(bad)),
        "graded-dehn-words": ("graded", "dehn", str(bad), "--relators", str(rel)),
        "endo-check-params": ("endo", "check", "--params", str(bad)),
        "vkd-check-certificate": ("vkd", "check", str(bad), "--relators", str(rel)),
        "lpp-verify-catalog": ("lpp", "verify", str(bad), "--assign", str(rel)),
        "lpp-verify-assignment": ("lpp", "verify", str(cat), "--assign", str(bad)),
    }[reader]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_a_presentation_file_that_is_not_utf8_is_named_in_an_error(tmp_path):
    from relfree.errors import UndecodableFile
    from relfree.graded import load_presentation

    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    with pytest.raises(UndecodableFile, match=f"{bad}: not UTF-8 text"):
        load_presentation(bad)


# -- input fuzzing ------------------------------------------------------------


def read_text_with(read, text):
    """``read(path)`` of a file holding ``text``; None when it is refused with
    a RelfreeError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            return read(path)
        except RelfreeError:
            return None


RELATOR_TOKENS = st.sampled_from([
    "a1", "a2^-1", "a3^2", "a1^0", "1", "a0", "a-1", "a+2", "a1^", "^2", "a", "#", "# a1",
    "a1^2^3", "a1^x", "a٣", "a²", f"a{10 ** 30}", f"a1^{10 ** 30}", "a" + "9" * 5000,
    "a1^" + "9" * 5000, "a600000", "\n", "\t", "\r", " "])


@settings(max_examples=300, deadline=2000)
@given(st.one_of(st.text(), st.lists(st.one_of(RELATOR_TOKENS, st.text(max_size=3)),
                                     max_size=20).map(" ".join)))
def test_relator_file_text_is_read_or_refused(text):
    got = read_text_with(cli._read_relators, text)
    assert got is None or all(isinstance(w, Word) for w in got)


# -- the quoted-field splitter -------------------------------------------------

small_words = st.lists(st.tuples(st.integers(1, 12), st.integers(-300, 300)), max_size=5).map(
    lambda runs: Word.parse(Alphabet(12), " ".join(f"a{g}^{e}" for g, e in runs)))


@st.composite
def saved_presentations(draw):
    from relfree.graded import GradedPresentation, RelatorRecord

    p = ParamSet(20, 2, 3)
    pres = GradedPresentation(Alphabet(12), p, draw(st.sampled_from(["toy", "ledger"])))
    for rank in draw(st.lists(st.integers(1, 400), max_size=3, unique=True)):
        data = pres.rank_data(rank, draw(st.sampled_from(["enumerated", "classified"])))
        data.periods += draw(st.lists(small_words, max_size=3))
        for _ in range(draw(st.integers(0, 3))):
            z, j = draw(st.integers(1, 2)), draw(st.integers(1, 9))
            f = draw(st.integers(-10**6, 10**6))
            a, t, u = draw(small_words), draw(small_words), draw(small_words)
            data.relators.append(RelatorRecord(z, a, f, j, t, u, p, a))
    return pres


@st.composite
def saved_certificates(draw):
    from relfree.diagrams import (ConjugacyClaim, DiagramCertificate, EqualityClaim,
                                  PuncturedSphereClaim)

    sides = draw(st.lists(st.integers(1, 10**6), max_size=6, unique=True))
    labels = {s: draw(st.sampled_from([1, -1, 2, -12])) for s in sides}
    refs = st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=1, max_size=6)
    claim = draw(st.one_of(
        small_words.map(EqualityClaim),
        st.tuples(small_words, small_words).map(lambda uv: ConjugacyClaim(*uv)),
        st.lists(small_words, min_size=1, max_size=3).map(
            lambda ws: PuncturedSphereClaim(tuple(ws)))))
    return DiagramCertificate(Alphabet(12), labels, draw(st.lists(refs, max_size=3)),
                              draw(st.lists(refs, max_size=3)),
                              draw(st.lists(st.tuples(st.integers(), st.integers()), max_size=3)),
                              claim)


@settings(max_examples=200, deadline=None)
@given(st.one_of(saved_presentations(), saved_certificates()))
def test_split_fields_reads_what_the_writers_quote(saved):
    """Every line that save_presentation or save_certificate writes splits as
    shlex.split splits it."""
    import shlex

    from relfree.diagrams import save_certificate
    from relfree.errors import split_fields
    from relfree.graded import save_presentation

    save = save_certificate if hasattr(saved, "claim") else save_presentation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved.txt")
        save(saved, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    for line in lines:
        assert split_fields(line) == shlex.split(line)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="' \t\r\na1=^-")))
@example("period 'a1")
@example("claim equality 'a1 a2'' a3")
@example("x='a1 a2'y z")
def test_split_fields_gives_fields_or_refuses(line):
    """Any text gives fields or a RelfreeError; without double quotes,
    backslashes and whitespace other than shlex's, the fields are shlex's."""
    import shlex

    from relfree.errors import split_fields

    try:
        fields = split_fields(line)
    except RelfreeError:
        fields = None
    assert fields is None or all(isinstance(f, str) for f in fields)
    if '"' in line or "\\" in line or any(c.isspace() and c not in " \t\r\n" for c in line):
        return
    try:
        assert fields == shlex.split(line)
    except ValueError:  # an unbalanced quote
        assert fields is None


def test_split_fields_refuses_a_quoted_single_quote():
    """shlex.quote writes a single quote as '"'"'; split_fields reads only what
    it writes for text without one, which is every field the writers quote."""
    import shlex

    from relfree.errors import split_fields

    assert shlex.split("claim equality " + shlex.quote("a1'a2")) == ["claim", "equality", "a1'a2"]
    with pytest.raises(RelfreeError, match="no closing quotation"):
        split_fields("claim equality " + shlex.quote("a1'a2"))


def test_a_long_relator_slot_that_is_no_power_of_its_period_loads(tmp_path):
    # T = a1^(10^12) against A = a1 a2: deciding that T is no power of A
    # must not build A^(|T|/|A|)
    from relfree.graded import load_presentation

    path = tmp_path / "pres.txt"
    path.write_text("alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 2 provenance=classified\n"
                    "relator z*=1 A='a1 a2' f=1 j=1 T=a1^1000000000000 U=a2\n")
    (rec,) = load_presentation(path).ranks[2].relators
    assert rec.warnings == ("|A| = 2 <= d = 2", "|T| = 1000000000000 >= d|A| = 4")


PARAM_LINES = st.one_of(
    st.sampled_from(["h = 20", "d=2", "n = 3", "h=40", "h = -20", "d = 0", "n=x", "# c",
                     "=", "h", "h = 1e3", "h = ٢٠", "n = 1_000", "d = " + "9" * 5000, ""]),
    st.text(max_size=8))


@settings(max_examples=300, deadline=2000)
@given(st.one_of(st.text(), st.lists(PARAM_LINES, max_size=8).map("\n".join)))
def test_params_file_text_is_read_or_refused(text):
    got = read_text_with(lambda path: cli._params_from_args(argparse.Namespace(params=path)),
                         text)
    assert got is None or isinstance(got, ParamSet)


PRESENTATION_LINES = st.one_of(
    st.sampled_from([
        "alphabet 2", "alphabet 0", "alphabet x", "alphabet " + "9" * 5000, "alphabet",
        "params h=20 d=2 n=3", "params h=40 d=3 n=5", "params h=20 d=2", "params h=30 d=2 n=3",
        "params h=2000000000000 d=2 n=3", "params h d=2 n=3", "mode toy", "mode",
        "rank 1 provenance=enumerated", "rank 77 provenance=classified", "rank x", "rank 2 p",
        "rank", "period a1", "period 'a1 a2'", "period a3", "period", "period 'a1",
        "relator z*=1 A=a1 f=1 j=1 T=a2 U=a2", "relator z*=2 A='a1 a2' f=-2 j=1 T='a2 a1' U=a2",
        "relator z*=1 A='a1 a2' f=1000000000000 j=1 T=a1 U=a2",
        "relator z*=1 A='a1 a2' f=1 j=1 T=a1^1000000000000 U=a2",
        "relator z*=3 A=a1 f=1 j=1 T=a2 U=a2", "relator z*=1 A=a1 f=0 j=1 T=a2 U=a2",
        "relator z*=1 A=1 f=1 j=1 T=a2 U=a2", "relator z*=1 A=a1 f=1 j=1 T=1 U=a2",
        "relator z*=1 A=a1", "relator A", "relator z*=1 A=a1 f=x j=1 T=a2 U=a2",
        "# comment", "  ", ""]),
    st.text(max_size=12))


@settings(max_examples=300, deadline=2000)
@given(st.one_of(st.text(), st.lists(PRESENTATION_LINES, max_size=10).map("\n".join)))
@example("alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 2\n"
         "relator z*=1 A='a1 a2' f=1000000000000 j=1 T=a1 U=a2\n")
@example("alphabet 2\nparams h=2000000000000 d=2 n=3\nmode toy\nrank 2\n"
         "relator z*=1 A='a1 a2' f=1 j=1 T=a1 U=a2\n")
def test_presentation_file_text_is_read_or_refused(text):
    from relfree.graded import GradedPresentation, load_presentation

    got = read_text_with(load_presentation, text)
    assert got is None or isinstance(got, GradedPresentation)
