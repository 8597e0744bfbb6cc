import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relfree
from relfree import cli, graded, ledger
from relfree.errors import BudgetExceeded, InvalidParams, RelfreeError
from relfree.verbal import ParamSet, make_v, make_w1, make_w2, word_length_symbolic
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
    assert (code, out, err) == (2, "", "word conj needs other\n")


@pytest.mark.parametrize("action", ["reduce", "canon", "root"])
def test_a_second_word_outside_word_conj_is_usage_error(capsys, action):
    # an unquoted word split in two, as a shell passes `a1 a2`
    code, out, err = run(capsys, "word", action, "a1", "a2")
    assert (code, out) == (2, "")
    assert f"word {action}" in err and "'a2'" in err


@pytest.mark.parametrize("action", ["build", "pieces"])
def test_a_word_file_outside_graded_dehn_is_usage_error(capsys, tmp_path, action):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    out_file = tmp_path / "pres.txt"
    code, out, err = run(capsys, "graded", action, "stray.txt", "--relators", str(rel),
                         "--out", str(out_file))
    assert (code, out) == (2, "")
    assert f"graded {action}" in err and "'stray.txt'" in err
    assert not out_file.exists()


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


def test_verbal_build_picks_the_word_by_its_level(capsys):
    ab = Alphabet(2)
    x, y = Word.parse(ab, "a1 a2"), Word.parse(ab, "a2^-1")
    p = ParamSet(20, 1, 1)
    for which, want in (("v0", x), ("v1", make_v(1, x, y, p)), ("v2", make_v(2, x, y, p)),
                        ("w1", make_w1(x, y, p)), ("w2", make_w2(x, y, p))):
        code, out, _ = run(capsys, "verbal", "build", "--which", which, "--x", "a1 a2",
                           "--y", "a2^-1", "--h", "20", "--d", "1", "--n", "1")
        assert (code, out) == (0, f"{want}\n"), which


@pytest.mark.parametrize("lx, ly", [("-1", "1"), ("1", "-1"), ("-3", "-2")])
def test_verbal_length_refuses_negative_lengths(capsys, lx, ly):
    code, out, err = run(capsys, "verbal", "length", "--which", "w2", "--lx", lx, "--ly", ly)
    assert (code, out) == (1, "")
    assert "word lengths must be nonnegative" in err


def test_verbal_epsilon(capsys):
    code, out, _ = run(capsys, "verbal", "epsilon", "--i", "4")
    assert (code, out.strip()) == (0, "-1")


def test_verbal_epsilon_reads_no_parameters(capsys):
    # epsilon(i) does not depend on h, d or n, so giving them is a usage
    # error, as for any option it does not read
    assert run(capsys, "verbal", "epsilon", "--i", "3")[0] == 0
    code, out, err = run(capsys, "verbal", "epsilon", "--i", "3", "--h", "7")
    assert (code, out) == (2, "")
    assert err == "--h applies to verbal build and verbal length only, not verbal epsilon\n"
    # build and length still read them
    assert run(capsys, "verbal", "length", "--h", "7")[0] == 1


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
    assert err == "lpp verify needs --assign\n"


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


@pytest.mark.parametrize("expression, message", [
    ("alpha > (beta > gamma)", "need exactly one >, >=, < or <=: 'alpha > (beta > gamma)'"),
    ("alpha > True", "only integer literals allowed: 'alpha > True'"),
], ids=["nested-comparison", "bool-literal"])
def test_lpp_verify_refuses_what_the_grammar_lacks_on_read(capsys, tmp_path, expression,
                                                           message):
    cat = tmp_path / "cat.txt"
    cat.write_text(f"x | {expression} | a\n")
    assign = tmp_path / "assign.txt"
    assign.write_text(CHAIN_ASSIGNMENT)
    code, out, err = run(capsys, "lpp", "verify", str(cat), "--assign", str(assign))
    assert (code, out) == (1, "")
    assert err == f"error: {cat}:1: {message}\n"


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


def test_graded_dehn_out_of_scan_budget_is_exit_3(capsys, tmp_path, monkeypatch):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    words = tmp_path / "words.txt"
    word = " ".join(["a1 a2"] * 200)  # no three letters of it are in an entry
    words.write_text(word + "\n")
    argv = ["graded", "dehn", str(words), "--relators", str(rel)]
    assert run(capsys, *argv) == (0, f"reduced: {word}\n", "")
    # 200 blocks `a1 a2`, each sought in two doubled entries of 8 letters and
    # read by one rotation of the relator: 24 letters a block
    monkeypatch.setattr(graded, "_SCAN_BUDGET", 200 * 24)
    assert run(capsys, *argv) == (0, f"reduced: {word}\n", "")
    monkeypatch.setattr(graded, "_SCAN_BUDGET", 200 * 24 - 1)
    assert run(capsys, *argv) == (3, f"indeterminate: {word}\n", "")


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


@pytest.mark.parametrize("rank", ["0", "-3"])
def test_graded_build_refuses_a_rank_below_one(capsys, rank):
    code, out, err = run(capsys, "graded", "build", "--rank", rank)
    assert (code, out, err) == (2, "", "rank must be positive\n")


@pytest.mark.parametrize("rank", ["13", "30", str(10 ** 9)])
def test_graded_build_refuses_a_rank_past_the_period_budget_at_once(capsys, tmp_path, rank):
    # rank 13 has 4 * 3^12 = 2 125 764 reduced words over two generators
    out_file = tmp_path / "pres.txt"
    start = time.perf_counter()
    code, out, err = run(capsys, "graded", "build", "--rank", rank, "--out", str(out_file))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert f"rank {rank} " in err and "1000000" in err
    assert not out_file.exists()


def test_graded_build_refuses_one_generator_before_enumerating(capsys, tmp_path, monkeypatch):
    def enumerated(pres, i):
        raise AssertionError("periods_rank was called")

    monkeypatch.setattr(graded, "periods_rank", enumerated)
    out_file = tmp_path / "pres.txt"
    code, out, err = run(capsys, "graded", "build", "--m", "1", "--rank", "400",
                         "--out", str(out_file))
    assert (code, out, err) == (1, "", "error: the construction needs rank at least 2\n")
    assert not out_file.exists()


@pytest.mark.parametrize("m", ["0", "-1"])
def test_graded_build_refuses_no_generators_before_enumerating(capsys, tmp_path, monkeypatch, m):
    # --m 0 is refused, not read as the default m = 2
    def enumerated(pres, i):
        raise AssertionError("periods_rank was called")

    monkeypatch.setattr(graded, "periods_rank", enumerated)
    out_file = tmp_path / "pres.txt"
    code, out, err = run(capsys, "graded", "build", "--m", m, "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err == f"error: alphabet needs at least one generator, got m={m}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("m, allowed", [(2, 12), (3, 8)])
def test_the_period_budget_admits_the_last_rank_under_it(monkeypatch, m, allowed):
    def enumerated(pres, i):
        raise LookupError(i)

    monkeypatch.setattr(graded, "periods_rank", enumerated)
    with pytest.raises(LookupError):
        graded.build_presentation(Alphabet(m), ParamSet(20, 2, 3), max_rank=allowed)
    with pytest.raises(BudgetExceeded, match=f"rank {allowed + 1} "):
        graded.build_presentation(Alphabet(m), ParamSet(20, 2, 3), max_rank=allowed + 1)


def test_graded_build_writes_presentation(capsys, tmp_path):
    out_file = tmp_path / "pres.txt"
    code, out, _ = run(capsys, "graded", "build", "--rank", "1",
                       "--pair-budget", "1", "--out", str(out_file),
                       "--output", "kv")
    assert code == 0
    from relfree.graded import load_presentation

    pres = load_presentation(out_file)
    assert len(pres.all_relators()) == 16


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


@pytest.mark.parametrize("argv", [("verbal", "build"), ("graded", "build"), ("endo", "check")])
def test_params_is_an_unrecognized_argument(capsys, argv):
    # h, d and n are given by --h, --d and --n only
    code, out, err = run(capsys, *argv, "--params", "p.txt")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --params p.txt\n")


def test_kv_output_is_stable(capsys):
    code1, out1, _ = run(capsys, "word", "root", "a1 a2 a1 a2", "--output", "kv")
    code2, out2, _ = run(capsys, "word", "root", "a1 a2 a1 a2", "--output", "kv")
    assert (code1, out1) == (code2, out2)
    assert "root=" in out1 and "k=2" in out1


# -- malformed input ends in an error, not a traceback ---------------------------

def test_graded_dehn_without_word_file_is_usage_error(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    code, _, err = run(capsys, "graded", "dehn", "--relators", str(rel))
    assert code == 2
    assert err == "graded dehn needs words\n"


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


LINE_BREAKS = "\x0c\x1c\x1d\x1e\x85\u2028\u2029"


# (reader, lines 1-2, lines 4-5, line 6, which each reader refuses)
FILE_READERS = {
    "presentation": (graded.load_presentation, "alphabet 2\nparams h=20 d=2 n=3",
                     "mode toy\nrank 2 provenance=classified", "bogus"),
    "catalog": (ledger.InequalityCatalog.from_path, "c1 | alpha < 1 | here\n", "\n", "c2 alpha"),
    "assignment": (ledger.load_assignment, "alpha = 1/2\nbeta = 1/3", "\n", "omega = 1"),
    "words": (cli._read_relators, "a1 a2\n", "a2\na1", "a0"),
}


NAMED_VALUE_READERS = {
    "assignment": ledger.load_assignment,
    "presentation": graded.load_presentation,
}
ASSIGNMENT = "".join(f"{name} = 1/{2 ** i}\n" for i, name in enumerate(ledger.PARAM_NAMES, 1))


@pytest.mark.parametrize("kind, text, where, fault", [
    ("assignment", ASSIGNMENT + "q = 1\n", ":9", "unknown name 'q'"),
    ("assignment", ASSIGNMENT + "alpha = 1/3\n", ":9", "name 'alpha' is set twice"),
    ("assignment", ASSIGNMENT.replace("iota", "# iota"), "", "missing name 'iota'"),
    ("presentation", "alphabet 2\nparams h=20 d=2 n=3 q=1\n", ":2", "unknown name 'q'"),
    ("presentation", "alphabet 2\nparams h=20 d=2 n=3 h=40\n", ":2", "name 'h' is set twice"),
    ("presentation", "alphabet 2\nparams h=20 d=2\n", ":2", "missing name 'n'"),
], ids=[f"{kind}-{fault}" for kind in NAMED_VALUE_READERS
        for fault in ("unknown", "repeated", "missing")])
def test_every_named_value_input_refuses_a_bad_name_in_one_wording(tmp_path, kind, text,
                                                                   where, fault):
    # one reader for assignments and presentation fields: an
    # unknown or repeated name names its line, a missing one its file or line
    path = tmp_path / f"{kind}.txt"
    path.write_text(text)
    with pytest.raises(InvalidParams) as info:
        NAMED_VALUE_READERS[kind](path)
    assert str(info.value).startswith(f"{path}{where}: ") and fault in str(info.value)


@pytest.mark.parametrize("kind", sorted(FILE_READERS))
def test_every_line_reader_ends_lines_at_newline_only(tmp_path, kind):
    # line 3 is one comment: a form feed, a separator control or a Unicode
    # line break inside it must end no line, or every later error names the
    # wrong line (at line 4, say, where splitlines() would put 'break')
    read, head, middle, bad = FILE_READERS[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_text(f"{head}\n# page{LINE_BREAKS}break\n{middle}\n{bad}\n", encoding="utf-8")
    with pytest.raises(RelfreeError, match=re.escape(f"{path}:6: ")):
        read(path)


def test_presentation_period_before_rank_names_file_and_line(tmp_path):
    from relfree.graded import load_presentation

    path = tmp_path / "pres.txt"
    for body, lineno in (("alphabet 2\nparams h=20 d=2 n=3\nperiod a1\n", 3),
                         ("alphabet 2\nparams h=20 d=2 n=3\nmode toy\n"
                          "relator z*=1 A=a1 f=1 j=1 X=a2 U=a2\n", 4),
                         ("period a1\nalphabet 2\n", 1)):
        path.write_text(body)
        with pytest.raises(RelfreeError, match=f"{path}:{lineno}:"):
            load_presentation(path)


@pytest.mark.parametrize("body, lineno, reason", [
    ("alphabet 2\npair 1\n", 2, "cannot read 'pair 1': pair takes 2 field(s), got 1"),
    ("edge 1 a1\nalphabet 2\n", 1,
     "cannot read 'edge 1 a1': edge line before the alphabet line"),
    ("alphabet 2\nedge x a1\n", 2,
     "cannot read 'edge x a1': invalid literal for int() with base 10: 'x'"),
    ("alphabet 2\nface 1 -y\n", 2,
     "cannot read 'face 1 -y': invalid literal for int() with base 10: '-y'"),
    ("alphabet 2\nboundary 1.5\n", 2,
     "cannot read 'boundary 1.5': invalid literal for int() with base 10: '1.5'"),
    ("alphabet 2\nclaim conjugacy a1\n", 2,
     "cannot read 'claim conjugacy a1': conjugacy takes 2 field(s), got 1"),
    ("alphabet 2\n# unterminated quote\nclaim equality 'a1 a2\n", 3,
     "cannot read \"claim equality 'a1 a2\": no closing quotation"),
    # only claim lines are unquoted; save_certificate quotes nothing else
    ("alphabet 2\nedge 1 'a1'\nclaim equality a1\n", 2,
     "cannot read \"edge 1 'a1'\": bad token \"'a1'\""),
    # a side declared twice: a reader keeping the last label would accept
    # this annulus, whose second boundary reads (a2 a1)^-1
    ("alphabet 2\nedge 1 a2\nedge 1 a1\nedge 2 a2\nedge 3 a1^-1\nedge 4 a2^-1\n"
     "pair 1 3\npair 2 4\nboundary 1 2\nboundary 3 4\nclaim conjugacy 'a1 a2' 'a2 a1'\n", 3,
     "cannot read 'edge 1 a1': the side is declared twice"),
    # a second alphabet line, after edges read under the first: kept, the
    # face's letter 3 would be refused with no file or line named
    ("alphabet 3\nedge 1 a3\nedge 2 a3\nalphabet 2\npair 1 2\nface 1\nboundary 2\n"
     "claim equality a1\n", 4, "cannot read 'alphabet 2': a second alphabet line"),
], ids=["pair-missing-side", "edge-before-alphabet", "side-not-integer",
        "face-entry-not-integer", "boundary-entry-not-integer",
        "claim-missing-word", "unterminated-quote", "quoted-edge-label",
        "side-declared-twice", "second-alphabet"])
def test_malformed_certificate_names_file_and_line(capsys, tmp_path, body, lineno, reason):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    cert = tmp_path / "cert.txt"
    cert.write_text(body)
    code, out, err = run(capsys, "vkd", "check", str(cert), "--relators", str(rel))
    assert (code, out) == (1, "")
    assert err == f"error: {cert}:{lineno}: {reason}\n"  # the whole line a user reads


@pytest.mark.parametrize("argv, option", [
    (["graded", "build", "--rank", "1", "--relators", "rels.txt"], "--relators"),
    (["graded", "dehn", "words.txt", "--relators", "rels.txt", "--out", "o.txt"], "--out"),
    (["graded", "pieces", "--relators", "rels.txt", "--out", "o.txt"], "--out"),
    (["lpp", "solve", "cat.txt", "--assign", "a.txt"], "--assign"),
    (["lpp", "verify", "cat.txt", "--assign", "a.txt", "--out", "o.txt"], "--out"),
    (["graded", "dehn", "words.txt", "--relators", "rels.txt", "--rank", "5"], "--rank"),
    (["graded", "pieces", "--relators", "rels.txt", "--pair-budget", "9"], "--pair-budget"),
    (["verbal", "epsilon", "--i", "4", "--h", "40"], "--h"),
    (["verbal", "length", "--which", "w1", "--x", "a1^5"], "--x"),
    (["verbal", "build", "--lx", "7", "--i", "3"], "--lx"),
    (["graded", "pieces", "--relators", "rels.txt", "--n", "7"], "--n"),
], ids=["build-relators", "dehn-out", "pieces-out", "solve-assign", "verify-out",
        "dehn-rank", "pieces-pair-budget", "epsilon-h", "length-x", "build-lx", "pieces-n"])
def test_an_option_the_action_does_not_read_is_usage_error(capsys, tmp_path, argv, option):
    # the files named are never made: the refusal comes before any is read
    code, out, err = run(capsys, *(str(tmp_path / a) if a.endswith(".txt") else a
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"{option} applies to ") and f"not {argv[0]} {argv[1]}" in err


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


@pytest.mark.parametrize("text, message", [
    ("a1_0", "bad token 'a1_0'"), ("a+2", "bad token 'a+2'"), ("a\u0663", "bad token 'a\u0663'"),
    ("a1^2_0", "bad exponent in token 'a1^2_0'"),
])
def test_word_numbers_with_other_than_ascii_digits_are_refused(capsys, text, message):
    # int() would have read them as a10, a2, a3 and a1^20
    code, out, err = run(capsys, "word", "reduce", f"a1 {text}", "--m", "20")
    assert (code, out, err) == (1, "", f"error: {message}\n")


# -- byte-stable presentation file -------------------------------------------------

PRESENTATION_20_2_3_SHA256 = \
    "bb3d528f52c7854f0ba14e78c055b572143818efb26322032096f73d443794e6"


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


def test_graded_build_pair_budget_2_file_is_byte_stable(capsys, tmp_path):
    import hashlib

    out_file = tmp_path / "pres.txt"
    code, _, _ = run(capsys, "graded", "build", "--rank", "2", "--pair-budget", "2",
                     "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
        "a69638e46e1a8efcd3b12d1ce168955a196330876a6ffd2db8186407ee0e2419"


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


def test_word_root_refuses_a_word_not_cyclically_reduced_as_an_error(capsys):
    # primitive_root makes the one refusal, and main prints it as every error
    code, out, err = run(capsys, "word", "root", "a1 a2 a1^-1")
    assert (code, out) == (1, "")
    assert err == "error: primitive_root expects a cyclically reduced word\n"


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


def test_graded_dehn_past_a_relator_no_step_can_reach_answers(tmp_path):
    # a step on a1 would match more than half of an entry of 2^70 + 1 letters,
    # so that entry is never encoded and the letter budget never meets it
    rel = tmp_path / "rel.txt"
    rel.write_text(f"a1^{2 ** 70} a2\n")
    words = tmp_path / "words.txt"
    words.write_text("a1\n")
    proc = run_cli_process("graded", "dehn", str(words), "--relators", str(rel))
    assert (proc.returncode, proc.stdout) == (0, "reduced: a1\n"), proc.stderr


def test_graded_dehn_over_a_huge_relator_runs_out_of_budget(tmp_path):
    # 8 000 000 letters is more than half of the 15 000 001 of the entry, so
    # the entry must be encoded, and it is over the letter budget
    rel = tmp_path / "rel.txt"
    rel.write_text("a1^15000000 a2\n")
    words = tmp_path / "words.txt"
    words.write_text("a1^8000000\n")
    proc = run_cli_process("graded", "dehn", str(words), "--relators", str(rel))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "word has 15000001 letters, over the budget of 10000000" in proc.stderr


def test_vkd_check_past_a_relator_no_face_reads_accepts(tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text(f"a1 a2 a1^-1 a2^-1\na1^2 a3 a1 a3^-1\na1^{2 ** 70} a2\n")
    cert = Path(__file__).parent / "data" / "certificate_product.txt"
    proc = run_cli_process("vkd", "check", str(cert), "--relators", str(rel))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verdict: ACCEPT")


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
    ("verbal", "build", "--which", "w1", "--h", "2000000", "--d", "1", "--n", "1"),
    ("verbal", "build", "--which", "w2", "--h", "1000000"),
], ids=["verbal-build-d", "endo-check-n", "graded-build-h", "verbal-build-w1-h",
        "verbal-build-w2-h"])
def test_sizes_too_large_to_build_run_out_of_budget(argv):
    proc = run_capped("-m", "relfree.cli", *argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "over the budget of 10000000" in proc.stderr


@pytest.mark.parametrize("h, d, n", [(40, 4, 5), (80, 3, 5)])
def test_endo_check_passes_past_relators_over_the_letter_budget(h, d, n):
    # |w2| is over 10^7 letters here, so are the largest toy relators; the
    # witnesses and the cores of w1 and w2 are built as runs and fit, and the
    # Dehn line is read from those cores, with no relator built
    proc = run_capped("-m", "relfree.cli", "endo", "check",
                      "--h", str(h), "--d", str(d), "--n", str(n), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{name}: PASS" for name in (
        "kernel-identity", "surjectivity-identity", "kernel-word-nonempty",
        "kernel-word-cyclically-reduced", "kernel-length-bound", "kernel-word-free-nontrivial",
        "kernel-word-dehn-irreducible")] + [
        "group-level: INDETERMINATE (asserted, not desk-checkable)"]


def test_verbal_length_answers_at_any_h():
    proc = run_capped("-m", "relfree.cli", "verbal", "length", "--which", "w1",
                      "--h", "20000000000000")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == word_length_symbolic("w1", 1, 1, ParamSet(20000000000000, 2, 3))


def test_presentation_relator_too_large_to_build_runs_out_of_budget(tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 2\n"
                    "relator z*=1 A='a1 a2' f=1000000000000 j=1 X=a1 U=a2\n")
    code = ("import sys\nfrom relfree import errors, graded\n"
            "try:\n    graded.load_presentation(sys.argv[1])\n"
            "except errors.BudgetExceeded as exc:\n    print(exc)\n")
    proc = run_capped("-c", code, str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{path}:5: ")
    assert "over the budget of 10000000" in proc.stdout


def test_a_presentation_graded_build_wrote_loads_and_its_relators_are_refused_when_built(
        tmp_path):
    # at h = 6 000 000 the slot schedules fit the run budget and the relators
    # do not: the file is written, loads, and a relator is refused where it is built
    path = tmp_path / "pres.txt"
    proc = run_capped("-m", "relfree.cli", "graded", "build", "--h", "6000000", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    code = ("import sys\nfrom relfree import errors, graded\n"
            "records = graded.load_presentation(sys.argv[1]).all_relators()\n"
            "print(len(records))\n"
            "try:\n    records[0].relator\n"
            "except errors.BudgetExceeded as exc:\n    print(exc)\n")
    proc = run_capped("-c", code, str(path))
    assert proc.returncode == 0, proc.stderr
    count, refusal = proc.stdout.splitlines()
    assert count == "16"
    assert "over the budget of 10000000" in refusal


# -- files that are not UTF-8 ---------------------------------------------------

NOT_UTF8 = b"\xff\xfealphabet 2\n"


@pytest.mark.parametrize("reader", [
    "graded-pieces-relators", "graded-dehn-words", "vkd-check-certificate",
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
        "vkd-check-certificate": ("vkd", "check", str(bad), "--relators", str(rel)),
        "lpp-verify-catalog": ("lpp", "verify", str(bad), "--assign", str(rel)),
        "lpp-verify-assignment": ("lpp", "verify", str(cat), "--assign", str(bad)),
    }[reader]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("path_arg", [
    "graded-pieces-relators", "vkd-check-certificate", "vkd-check-relators", "lpp-verify-catalog",
    "lpp-verify-assignment", "graded-build-out"])
def test_a_directory_in_place_of_a_file_is_named_in_an_error(capsys, tmp_path, path_arg):
    folder = tmp_path / "folder"
    folder.mkdir()
    cat = tmp_path / "cat.txt"
    cat.write_text("x | alpha > 0 | a\n")
    cert = Path(__file__).parent / "data" / "certificate_product.txt"
    argv = {
        "graded-pieces-relators": ("graded", "pieces", "--relators", str(folder)),
        "vkd-check-certificate": ("vkd", "check", str(folder), "--relators", str(folder)),
        "vkd-check-relators": ("vkd", "check", str(cert), "--relators", str(folder)),
        "lpp-verify-catalog": ("lpp", "verify", str(folder), "--assign", str(folder)),
        "lpp-verify-assignment": ("lpp", "verify", str(cat), "--assign", str(folder)),
        "graded-build-out": ("graded", "build", "--rank", "1", "--out", str(folder)),
    }[path_arg]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and f"{folder}'" in err and err.count("\n") == 1


def test_an_assignment_error_names_its_file(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("x | alpha > 0 | a\n")
    bad = tmp_path / "bad.txt"
    for text, message in (("alpha = 1/2\nbogus = 1\n", f"{bad}:2: unknown name 'bogus'"),
                          ("alpha = 1/2\n", f"{bad}: missing name 'beta'")):
        bad.write_text(text)
        code, out, err = run(capsys, "lpp", "verify", str(cat), "--assign", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


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
    pres = GradedPresentation(Alphabet(12), p)
    for rank in draw(st.lists(st.integers(1, 400), max_size=3, unique=True)):
        data = pres.rank_data(rank, draw(st.sampled_from(["enumerated", "classified"])))
        data.periods += draw(st.lists(small_words, max_size=3))
        for _ in range(draw(st.integers(0, 3))):
            z, j = draw(st.integers(1, 2)), draw(st.integers(1, 9))
            f = draw(st.integers(-10**6, 10**6))
            a, t, u = draw(small_words), draw(small_words), draw(small_words)
            data.relators.append(RelatorRecord(z, a, f, j, t, u, p))
    return pres


@st.composite
def saved_certificates(draw):
    from relfree.diagrams import DiagramCertificate

    sides = draw(st.lists(st.integers(1, 10**6), max_size=6, unique=True))
    labels = {s: draw(st.sampled_from([1, -1, 2, -12])) for s in sides}
    refs = st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=1, max_size=6)
    claim = tuple(draw(st.lists(small_words, min_size=1, max_size=3)))
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


def test_a_long_relator_slot_that_is_not_a_value_of_w1_is_refused(tmp_path):
    # v1(a1^(10^12), a2) is no a1 a2: the check compares runs and must not
    # build a letter of X = a1^(10^12)
    path = tmp_path / "pres.txt"
    path.write_text("alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 2 provenance=classified\n"
                    "relator z*=1 A='a1 a2' f=1 j=1 X=a1^1000000000000 U=a2\n")
    code = ("import sys\nfrom relfree import errors, graded\n"
            "try:\n    graded.load_presentation(sys.argv[1])\n"
            "except errors.InvalidParams as exc:\n    print(exc)\n")
    proc = run_capped("-c", code, str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{path}:5: ")
    assert "relator is not w_z*(X, U)" in proc.stdout


# the first z* = 1 line of the pinned presentation file: a relator line that loads
PINNED_RELATOR = next(
    line for line in (Path(__file__).parent / "data" / "presentation_20_2_3.txt")
    .read_text().split("\n") if line.startswith("relator z*=1 "))

PRESENTATION_LINES = st.one_of(
    st.sampled_from([
        "alphabet 2", "alphabet 0", "alphabet x", "alphabet " + "9" * 5000, "alphabet",
        "params h=20 d=2 n=3", "params h=40 d=3 n=5", "params h=20 d=2", "params h=30 d=2 n=3",
        "params h=2000000000000 d=2 n=3", "params h d=2 n=3", "mode toy", "mode",
        "rank 1 provenance=enumerated", "rank 77 provenance=classified", "rank x", "rank 2 p",
        "rank", "period a1", "period 'a1 a2'", "period a3", "period", "period 'a1",
        "relator z*=1 A=a1 f=1 j=1 X=a2 U=a2", "relator z*=2 A='a1 a2' f=-2 j=1 X='a2 a1' U=a2",
        "relator z*=1 A='a1 a2' f=1000000000000 j=1 X=a1 U=a2",
        "relator z*=1 A='a1 a2' f=1 j=1 X=a1^1000000000000 U=a2",
        "relator z*=3 A=a1 f=1 j=1 X=a2 U=a2", "relator z*=1 A=a1 f=0 j=1 X=a2 U=a2",
        "relator z*=1 A=1 f=1 j=1 X=a2 U=a2", "relator z*=1 A=a1 f=1 j=1 X=1 U=a2",
        "relator z*=1 A=a1", "relator A", "relator z*=1 A=a1 f=x j=1 X=a2 U=a2",
        PINNED_RELATOR,
        "# comment", "  ", ""]),
    st.text(max_size=12))


@settings(max_examples=300, deadline=2000)
@given(st.one_of(st.text(), st.lists(PRESENTATION_LINES, max_size=10).map("\n".join)))
@example("alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 2\n"
         "relator z*=1 A='a1 a2' f=1000000000000 j=1 X=a1 U=a2\n")
@example("alphabet 2\nparams h=2000000000000 d=2 n=3\nmode toy\nrank 2\n"
         "relator z*=1 A='a1 a2' f=1 j=1 X=a1 U=a2\n")
@example(f"alphabet 2\nparams h=20 d=2 n=3\nrank 77\n{PINNED_RELATOR}\n")
def test_presentation_file_text_is_read_or_refused(text):
    from relfree.graded import GradedPresentation, load_presentation

    got = read_text_with(load_presentation, text)
    assert got is None or isinstance(got, GradedPresentation)


# -- one command's parser per call -------------------------------------------------

CERT = str(Path(__file__).parent / "data" / "certificate_product.txt")

# argv lists that parse, per command; the first seven are the forms the
# benchmark runs
VALID_ARGV = [
    ["word", "canon", "a1 a2 a1^-1"],
    ["word", "conj", "a1 a2", "a2 a1"],
    ["word", "root", "a1 a2 a1 a2"],
    ["endo", "check", "--h", "20", "--d", "2", "--n", "3"],
    ["graded", "dehn", "words.txt", "--relators", "rels.txt"],
    ["graded", "pieces", "--relators", "rels.txt"],
    ["vkd", "check", CERT, "--relators", "rels.txt"],
    ["word", "reduce", "a1 a1^-1", "--m", "3", "--output", "kv"],
    ["word", "conj", "a1", "a2", "--m", "2"],
    ["word", "--m", "4", "root", "a1"],
    ["verbal", "build", "--which", "v1", "--x", "a1 a2", "--y", "a2", "--m", "2"],
    ["verbal", "length", "--which", "w2", "--lx", "3", "--ly", "2", "--h", "40"],
    ["verbal", "epsilon", "--i", "5", "--h", "40", "--d", "3", "--n", "5"],
    ["lpp", "solve", "cat.txt", "--out", "a.txt", "--output", "kv"],
    ["lpp", "verify", "--assign", "a.txt", "cat.txt"],
    ["graded", "build", "--rank", "2", "--pair-budget", "2", "--out", "p.txt"],
    ["graded", "build", "--pair-budget", "3", "--m", "2", "--h", "40"],
    ["graded", "dehn", "words.txt", "--budget-dehn", "7", "--relators", "rels.txt"],
    ["graded", "pieces", "--relators", "rels.txt", "--m", "4", "--output", "kv"],
    ["endo", "check", "--n", "5", "--output", "kv"],
    ["endo", "check", "--h", "40", "--output", "kv"],
    ["vkd", "check", "--relators", "rels.txt", CERT, "--output", "kv"],
    ["report"],
    ["report", "--output", "kv", "--seed", "3"],
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_a_command_parser_gives_the_namespace_of_the_full_parser(argv):
    args = cli._command_parser(argv[0]).parse_intermixed_args(argv[1:])
    assert args == cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_the_namespace_table_covers_every_command():
    assert {argv[0] for argv in VALID_ARGV} == set(cli._COMMANDS)


def test_the_input_table_names_each_action_and_arguments_its_parser_has():
    for command, actions in cli._INPUTS.items():
        parser = cli._command_parser(command)
        dests = {key: action.dest for action in parser._actions
                 for key in action.option_strings or [action.dest]}
        choices = next(action.choices for action in parser._actions if action.dest == "action")
        # every action has an entry, so none reaches its handler with an input unset
        assert set(actions) == set(choices), command
        for inputs in actions.values():
            for key in inputs:  # main reads the input under this dest
                assert dests.get(key) == key.lstrip("-").replace("-", "_"), (command, key)


_PARAMS_SPELLED = ["--h", "20", "--d", "2", "--n", "3"]


@pytest.mark.parametrize("argv, spelled", [
    (["verbal", "build"], ["--which", "w1", "--x", "a1", "--y", "a2", *_PARAMS_SPELLED]),
    (["verbal", "length"], ["--which", "w1", "--lx", "1", "--ly", "1", *_PARAMS_SPELLED]),
    (["verbal", "epsilon"], ["--i", "1"]),
    (["graded", "build"], ["--rank", "2", "--pair-budget", "1", "--m", "2", *_PARAMS_SPELLED]),
    (["graded", "dehn", "words.txt", "--relators", "rels.txt"], ["--budget-dehn", "10000"]),
    (["endo", "check"], _PARAMS_SPELLED),
], ids=["verbal-build", "verbal-length", "verbal-epsilon", "graded-build", "graded-dehn",
        "endo-check"])
def test_an_input_left_out_reads_as_its_default_spelled_out(capsys, tmp_path, argv, spelled):
    (tmp_path / "rels.txt").write_text("a1 a2 a1^-1 a2^-1\na1^2 a3 a1 a3^-1\n")
    (tmp_path / "words.txt").write_text("a2^-1 a1^-1 a2 a1 a3\na1 a3 a1^-1 a3^-1\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    # every input the table gives a default is spelled out
    defaults = cli._INPUTS[argv[0]][argv[1]]
    assert set(spelled[::2]) == {key for key, value in defaults.items()
                                 if value is not None and value is not cli._NEEDED}
    left_out = run(capsys, *argv)
    assert left_out[0] == 0 and left_out[1]
    assert run(capsys, *argv, *spelled) == left_out


def _older_argparse_spelling(text):
    """``text`` as argparse printed it up to Python 3.12.1: later releases
    list invalid choices unquoted."""
    return re.sub(r"\(choose from ([^)']*)\)",
                  lambda m: "(choose from '" + "', '".join(m.group(1).split(", ")) + "')",
                  text)


# exit code, stdout and stderr of `relfree`, `relfree --help`, `relfree bogus`
# and `relfree <cmd> --help` for each command, captured at COLUMNS=80 before
# a call built one command's parser
PINNED_USAGE = json.loads((Path(__file__).parent / "data" / "cli_usage_parent.json").read_text())


@pytest.mark.parametrize("case", PINNED_USAGE, ids=lambda case: " ".join(case["argv"]) or "none")
def test_usage_and_help_are_as_before(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *case["argv"])
    assert code == case["code"]
    assert _older_argparse_spelling(out) == case["out"]
    assert _older_argparse_spelling(err) == case["err"]


def test_a_usage_error_inside_a_command_shows_that_commands_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "graded", "dehn", "w.txt", "--relators", "r.txt", "--bogus")
    assert (code, out) == (2, "")
    assert _older_argparse_spelling(err) == (
        "usage: relfree graded [-h] [--relators RELATORS] [--rank RANK]\n"
        "                      [--pair-budget PAIR_BUDGET] [--budget-dehn BUDGET_DEHN]\n"
        "                      [--m M] [--out OUT] [--h H] [--d D] [--n N]\n"
        "                      [--output {text,kv}]\n"
        "                      {build,dehn,pieces} [words]\n"
        "relfree graded: error: unrecognized arguments: --bogus\n")


def test_an_option_may_come_before_a_trailing_optional_positional(capsys, tmp_path):
    rels = tmp_path / "rels.txt"
    rels.write_text("a1 a2 a1^-1 a2^-1\n")
    words = tmp_path / "words.txt"
    words.write_text("a1 a2 a1^-1 a2^-1 a1\n")
    after = run(capsys, "graded", "dehn", str(words), "--relators", str(rels))
    assert after == (0, "reduced: a1\n", "")
    assert run(capsys, "graded", "dehn", "--relators", str(rels), str(words)) == after
    after = run(capsys, "word", "conj", "a1", "a2", "--m", "2")
    assert after == (1, "conjugate: false\n", "")
    assert run(capsys, "word", "conj", "a1", "--m", "2", "a2") == after


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["relfree", "word", "root", "a1 a2 a1 a2"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "root: a1 a2\nk: 2\n"
    monkeypatch.setattr(sys, "argv", ["relfree"])
    assert cli.main() == 2
    assert "{word,verbal,lpp,graded,endo,vkd,report}" in capsys.readouterr().err


# -- graded build --out: the path is checked before the build ----------------------


def _no_build(*args, **kwargs):
    raise AssertionError("build_presentation was called")


@pytest.mark.parametrize("where", ["a-directory", "in-a-missing-directory"])
def test_an_unwritable_out_path_fails_before_the_build(capsys, tmp_path, monkeypatch, where):
    from relfree import graded

    monkeypatch.setattr(graded, "build_presentation", _no_build)
    path = tmp_path / "folder"
    path.mkdir()
    if where == "in-a-missing-directory":
        path = tmp_path / "missing" / "pres.txt"
    code, out, err = run(capsys, "graded", "build", "--rank", "2", "--pair-budget", "2",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"{path}'" in err and err.count("\n") == 1


@pytest.mark.parametrize("failure, want", [(BudgetExceeded("pairs over budget"), 3),
                                           (RelfreeError("no period"), 1)])
def test_a_build_that_stops_leaves_the_out_path_as_it_was(capsys, tmp_path, monkeypatch,
                                                          failure, want):
    from relfree import graded

    def stop(*args, **kwargs):
        raise failure

    monkeypatch.setattr(graded, "build_presentation", stop)
    kept = tmp_path / "pres.txt"
    kept.write_bytes(b"alphabet 2\n\xff not even text\n")
    new = tmp_path / "new.txt"
    for path in (kept, new):
        code, out, _ = run(capsys, "graded", "build", "--rank", "2", "--out", str(path))
        assert (code, out) == (want, "")
    assert kept.read_bytes() == b"alphabet 2\n\xff not even text\n"
    assert not new.exists()
