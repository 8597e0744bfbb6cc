import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import relfree
from relfree import cli, ledger
from relfree.errors import RelfreeError
from relfree.verbal import ParamSet, make_w1
from relfree.words import Alphabet, Word


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_word_reduce(capsys):
    code, out, _ = run(capsys, "word", "reduce", "a1 a1^-1")
    assert code == 0
    assert out.strip() == "1"


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


def test_graded_pieces(capsys, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1\n")
    code, out, _ = run(capsys, "graded", "pieces", "--relators", str(rel),
                       "--output", "kv")
    assert code == 0
    assert "max_piece=1" in out
    assert "lambda=1/8" in out


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
    assert all(rec.ledger_compliant for rec in pres.all_relators())


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
], ids=["pair-missing-side", "edge-before-alphabet", "side-not-integer",
        "face-entry-not-integer", "boundary-entry-not-integer",
        "claim-missing-word", "unterminated-quote"])
def test_malformed_certificate_names_file_and_line(capsys, tmp_path, body, lineno):
    rel = tmp_path / "rel.txt"
    rel.write_text("a1 a2 a1^-1 a2^-1\n")
    cert = tmp_path / "cert.txt"
    cert.write_text(body)
    code, _, err = run(capsys, "vkd", "check", str(cert), "--relators", str(rel))
    assert code == 1
    assert f"{cert}:{lineno}:" in err


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
