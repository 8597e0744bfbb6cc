"""The workloads: inputs made from a seed, the jobs of every cycle of a run,
and the answer key every job's output is checked against.

A job is one in-process call to ``relfree.cli.main(argv)`` with its output
captured, or, where no command exists, one call into the public library.
The package receives only the generated argv strings and files.  Answers
come from the construction of the input (a conjugate is conjugate; a
product of conjugated relators is an identity word; a word shorter than half
of every relator admits no Dehn step), from invariants computed by
:mod:`oracle`, from the naive reference oracles of ``relfree.report`` for
small inputs, and from the ``report --output kv`` lines stored under
``expected/``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
from dataclasses import dataclass
from typing import Callable

import oracle
from relfree import cli, diagrams, endo, graded, report, verbal
from relfree.errors import BudgetExceeded
from relfree.verbal import ParamSet
from relfree.words import Alphabet, Word

OK = "ok"
UNDECIDED = "undecided"
EXIT_INDETERMINATE = 3
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

AB = Alphabet(2)
X, Y = Word.generator(AB, 1), Word.generator(AB, 2)


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str]  # OK, UNDECIDED, or why the output is wrong


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_job(kind: str, argv: list[str], check: Callable[[int, str], str]) -> Job:
    def checked(result) -> str:
        code, out = result
        if code == EXIT_INDETERMINATE:
            return UNDECIDED
        return check(code, out)
    return Job(kind, lambda: run_cli(argv), checked)


def expect(want_code: int, want_out: str) -> Callable[[int, str], str]:
    def check(code: int, out: str) -> str:
        if code != want_code:
            return f"exit {code}, want {want_code}"
        if out != want_out:
            return "output differs from the answer key"
        return OK
    return check


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _load_expected(name: str) -> list[str]:
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


# -- conjugacy -------------------------------------------------------------------


def conjugacy(seed: int, workdir: str, cycles: int) -> list[list[Job]]:
    """Canonical forms, conjugacy and primitive roots on w1 at (20, 2, n);
    every cycle gets fresh conjugates, rotations and short words."""
    rng = random.Random(seed)
    cores = {n: oracle.cyclic_core(oracle.parse(str(verbal.make_w1(X, Y, ParamSet(20, 2, n)))))
             for n in (3, 4)}
    canon = {n: oracle.fmt(oracle.canonical(core)) + "\n" for n, core in cores.items()}
    v2 = oracle.cyclic_core(oracle.parse(str(verbal.make_v(2, X, Y, ParamSet(20, 2, 3)))))
    return [_conjugacy_cycle(rng, cores, canon, v2) for _ in range(cycles)]


def _conjugacy_cycle(rng: random.Random, cores: dict[int, list[int]], canon: dict[int, str],
                     v2_core: list[int]) -> list[Job]:
    def variant(core: list[int]) -> list[int]:
        k = rng.randrange(len(core))
        return oracle.conjugate(core[k:] + core[:k],
                                oracle.random_reduced(rng, rng.randint(4, 8)))

    jobs = []
    for n in (3, 4):
        jobs.append(cli_job(f"canon-w1-n{n}", ["word", "canon", oracle.fmt(variant(cores[n]))],
                            expect(0, canon[n])))
    jobs.append(cli_job("conj-yes-w1-n3",
                        ["word", "conj", oracle.fmt(variant(cores[3])),
                         oracle.fmt(variant(cores[3]))],
                        expect(0, "conjugate: true\n")))
    # one inserted letter changes an exponent sum, so the words are not conjugate
    core = cores[3]
    k = rng.randrange(len(core))
    perturbed = oracle.reduce(core[:k] + [1] + core[k:])
    assert oracle.exponent_sums(perturbed) != oracle.exponent_sums(core)
    jobs.append(cli_job("conj-no-w1-n3",
                        ["word", "conj", oracle.fmt(variant(core)),
                         oracle.fmt(variant(perturbed))],
                        expect(1, "conjugate: false\n")))
    while True:
        k = rng.randrange(len(core))
        root = core[k:] + core[:k]
        if oracle.is_primitive(root):
            break
    jobs.append(cli_job("root-w1-n3", ["word", "root", oracle.fmt(root + root)],
                        expect(0, f"root: {oracle.fmt(root)}\nk: 2\n")))

    # small inputs, checked with the naive oracles of relfree.report
    v2 = variant(v2_core)
    jobs.append(cli_job("canon-v2", ["word", "canon", oracle.fmt(v2)],
                        expect(0, oracle.fmt(list(report.naive_conjugacy_key(v2))) + "\n")))
    a = [rng.choice(oracle.LETTERS) for _ in range(12)]
    b = oracle.conjugate(a, oracle.random_reduced(rng, 3)) if rng.random() < 0.5 \
        else [rng.choice(oracle.LETTERS) for _ in range(12)]
    a, b = oracle.reduce(a) or [1], oracle.reduce(b) or [2]
    yes = report.naive_conjugate(a, b)
    jobs.append(cli_job("conj-short", ["word", "conj", oracle.fmt(a), oracle.fmt(b)],
                        expect(0 if yes else 1, f"conjugate: {'true' if yes else 'false'}\n")))
    return jobs


# -- rewriting -------------------------------------------------------------------

ENDO_CHECK = """kernel-identity: PASS
surjectivity-identity: PASS
kernel-word-nonempty: PASS
kernel-word-cyclically-reduced: PASS
kernel-length-bound: PASS
kernel-word-free-nontrivial: PASS
kernel-word-dehn-irreducible: PASS
group-level: INDETERMINATE (asserted, not desk-checkable)
"""
SHORT_RELATORS = (2000, 1800, 1600, 120)


def _conjugated(rng: random.Random, text: str) -> str:
    """Text of c r^(+-1) c^-1 for a relator text r and a short random c."""
    c = oracle.random_reduced(rng, 5)
    r = text if rng.random() < 0.5 else oracle.fmt(oracle.inverse(oracle.parse(text)))
    return f"{oracle.fmt(c)} {r} {oracle.fmt(oracle.inverse(c))}"


def _short_set(rng: random.Random, lengths) -> list[list[int]]:
    while True:
        rels = [oracle.random_relator(rng, k) for k in lengths]
        if oracle.max_piece(rels) is not None:
            return rels


def rewriting(seed: int, workdir: str, cycles: int) -> list[list[Job]]:
    """graded dehn over the 16 toy relators, endo check, presentation
    loading, and vkd check plus graded pieces over short random relators;
    every cycle gets fresh words and short relators."""
    rng = random.Random(seed)
    p = ParamSet(20, 2, 3)
    pres = graded.build_presentation(AB, p, 2, 1)
    toy = [str(r) for r in pres.relators_up_to(max(pres.ranks))]
    toy_path = _write(os.path.join(workdir, "toy-relators.txt"), toy)
    lengths = [sum(abs(int(t.partition("^")[2] or 1)) for t in r.split()) for r in toy]
    short = [r for r, k in zip(toy, lengths) if k < 50_000]
    # No subword of a word shorter than half of every relator can be more
    # than half of a relator, so Dehn rewriting must leave it unchanged.
    kernel = oracle.parse(str(endo.kernel_witness(p)[0]))
    assert 2 * len(kernel) < min(lengths)
    endo_job = cli_job("endo-check", ["endo", "check", "--h", "20", "--d", "2", "--n", "3"],
                       expect(0, ENDO_CHECK))
    # a saved presentation must load back to the relators it was saved with
    pres_path = os.path.join(workdir, "presentation.txt")
    graded.save_presentation(pres, pres_path)
    load_job = Job("load-presentation", lambda: graded.load_presentation(pres_path),
                   lambda loaded: OK if [str(r) for r in loaded.relators_up_to(
                       max(loaded.ranks))] == toy else "loaded relators differ")

    plan = []
    for c in range(cycles):
        words = [oracle.fmt(kernel),
                 _conjugated(rng, rng.choice(short)) + " " + _conjugated(rng, rng.choice(short))]
        words_path = _write(os.path.join(workdir, f"words-{c}.txt"), words)
        jobs = [cli_job("dehn", ["graded", "dehn", words_path, "--relators", toy_path],
                        _dehn_check([oracle.fmt(kernel), "1"])),
                endo_job, load_job]
        rels = _short_set(rng, SHORT_RELATORS)
        rel_path = _write(os.path.join(workdir, f"short-relators-{c}.txt"),
                          [oracle.fmt(r) for r in rels])
        piece, lam = oracle.max_piece(rels)
        jobs.append(cli_job("pieces", ["graded", "pieces", "--relators", rel_path],
                            expect(0, f"max_piece: {piece}\nlambda: {lam}\n")))
        jobs.extend(_certificate_jobs(rng, rels, rel_path, os.path.join(workdir, f"cert-{c}")))
        plan.append(jobs)
    return plan


def _dehn_check(want: list[str]) -> Callable[[int, str], str]:
    def check(code: int, out: str) -> str:
        got = [line.partition(": ")[2] for line in out.splitlines()]
        if code != 0 or len(got) != len(want):
            return f"exit {code} with {len(got)} results, want 0 with {len(want)}"
        undecided = False
        for g, w in zip(got, want):
            if g == w:
                continue
            if w == "1":  # an identity word left nonempty: rewriting did not decide
                undecided = True
                continue
            return "an irreducible word was rewritten"
        return UNDECIDED if undecided else OK
    return check


def _certificate_jobs(rng, rels: list[list[int]], rel_path: str, stem: str) -> list[Job]:
    """Certify a product of conjugated short relators from its Dehn trace,
    then check the certificate (accept) and a copy with the label of one
    side of its middle glued pair inverted (reject: the partner no longer
    matches).  The two
    certificate files are ``stem``.txt and ``stem``-bad.txt."""
    letters: list[int] = []
    for r in rels:
        letters += oracle.parse(_conjugated(rng, oracle.fmt(r)))
    letters = oracle.reduce(letters)
    word = Word.parse(AB, oracle.fmt(letters))
    rel_words = [Word.parse(AB, oracle.fmt(r)) for r in rels]
    cert_path, bad_path = f"{stem}.txt", f"{stem}-bad.txt"

    def certify():
        res = graded.dehn_reduce_trace(word, rel_words)
        if not res.word.is_empty:
            return None
        cert = diagrams.certify_dehn_trace(word, rel_words, res.steps)
        diagrams.save_certificate(cert, cert_path)
        return res, cert

    def check_certify(result) -> str:
        if result is None:
            return UNDECIDED
        res, cert = result
        boundary = [cert.labels[abs(ref)] * (1 if ref > 0 else -1)
                    for ref in cert.boundaries[0]]
        if boundary != letters:
            return "certificate boundary does not read the word"
        if len(cert.faces) != len(res.steps) \
                or any(len(face) not in {len(r) for r in rels} for face in cert.faces):
            return "certificate faces do not match the trace"
        with open(cert_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        # The checker compares the glued pairs in file order, so corrupting a
        # side of the middle pair makes it reject halfway through, about as
        # late in one certificate as in the next.
        pairs = [line.split() for line in lines if line.startswith("pair ")]
        side = pairs[len(pairs) // 2][1]
        i = next(k for k, line in enumerate(lines) if line.startswith(f"edge {side} "))
        head, _, label = lines[i].rpartition(" ")
        lines[i] = f"{head} {label[:-3] if label.endswith('^-1') else label + '^-1'}"
        _write(bad_path, lines)
        return OK

    def verdict(want_code: int, want: str, path: str):
        def check(code: int, out: str) -> str:
            if code == 2 and not os.path.exists(path):
                return UNDECIDED  # the certify job could not build it
            first = out.splitlines()[0] if out else ""
            if code != want_code or first != f"verdict: {want}":
                return f"exit {code} '{first}', want {want_code} '{want}'"
            return OK
        return check

    return [
        Job("certify", certify, check_certify),
        cli_job("vkd-accept", ["vkd", "check", cert_path, "--relators", rel_path],
                verdict(0, "ACCEPT", cert_path)),
        cli_job("vkd-reject", ["vkd", "check", bad_path, "--relators", rel_path],
                verdict(1, "REJECT", bad_path)),
    ]


# -- acceptance ------------------------------------------------------------------


def kv_line(res) -> str:
    """One criterion in the format of ``relfree report --output kv``."""
    return (f"criterion={res.id} name={res.name} pass={'true' if res.passed else 'false'} "
            f"detail={shlex.quote(res.detail)}")


def acceptance(seed: int, workdir: str, cycles: int) -> list[list[Job]]:
    """The ten report criteria, one per job, at the workload seed; the same
    jobs in every cycle."""
    expected = {line.split()[0].partition("=")[2]: line
                for line in _load_expected("report_kv.txt")}
    jobs = []
    for cid in sorted(expected):
        want = expected[cid]
        jobs.append(Job(cid, lambda cid=cid: report.run_criterion(cid, seed),
                        lambda res, want=want: OK if kv_line(res) == want
                        else "kv line differs from the stored one"))
    return [jobs] * cycles


# -- status probes ---------------------------------------------------------------
# Cases that did not finish when the benchmark was made, each one job run
# once by ``probes.py``; a later change that makes one finish changes its
# status there.


def probe_build(seed: int, workdir: str, cycles: int) -> list[list[Job]]:
    return [[cli_job("graded-build-pair-budget-2",
                     ["graded", "build", "--rank", "2", "--pair-budget", "2",
                      "--out", os.path.join(workdir, "pres.txt")],
                     lambda code, out: OK if code == 0 else f"exit {code}")]]


def _toy_words() -> list[Word]:
    pres = graded.build_presentation(AB, ParamSet(20, 2, 3), 2, 1)
    return [rec.relator for rec in pres.all_relators()]


def probe_pieces(seed: int, workdir: str, cycles: int) -> list[list[Job]]:
    # piece statistics take cyclically reduced relators, as DehnOracle passes them
    path = _write(os.path.join(workdir, "toy-relators.txt"),
                  [oracle.fmt(oracle.cyclic_core(oracle.parse(str(w)))) for w in _toy_words()])
    return [[cli_job("graded-pieces-toy-relators", ["graded", "pieces", "--relators", path],
                     lambda code, out: OK if code == 0 else f"exit {code}")]]


def probe_certify(seed: int, workdir: str, cycles: int) -> list[list[Job]]:
    """A product of two conjugated toy relators, certified from its Dehn
    trace and then checked."""
    words = _toy_words()
    rng = random.Random(seed)
    letters: list[int] = []
    for w in (words[0], words[-1]):
        c = oracle.random_reduced(rng, 5)
        letters += c + oracle.parse(str(w)) + oracle.inverse(c)
    word = Word.parse(AB, oracle.fmt(oracle.reduce(letters)))

    def call():
        try:
            res = graded.dehn_reduce_trace(word, words)
            if not res.word.is_empty:
                return None
            cert = diagrams.certify_dehn_trace(word, words, res.steps)
            return diagrams.check_certificate(cert, words).accepted
        except BudgetExceeded:
            return None

    return [[Job("certify-check-toy-product", call,
                 lambda accepted: UNDECIDED if accepted is None
                 else OK if accepted else "certificate rejected")]]


# workload -> (maker of the jobs of every cycle, cycles per run).  A run is a
# fixed number of cycles, so every run and every commit yields the same
# number of samples and the tail percentile means the same thing on both
# sides of a change.
WORKLOADS = {
    "conjugacy": (conjugacy, 4),
    "rewriting": (rewriting, 4),
    "acceptance": (acceptance, 8),
}
PROBES = {
    "graded-build-pair-budget-2": (probe_build, 1),
    "graded-pieces-toy-relators": (probe_pieces, 1),
    "certify-check-toy-product": (probe_certify, 1),
}
