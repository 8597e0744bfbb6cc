"""Substitution endomorphisms and the two syntactic witnesses.

An endomorphism is determined by the images of the generators; applying it
substitutes each run.  The distinguished map fixes every generator except
the second, which goes to v1(a1, a2).  Its two witnesses are pure
free-group identities:

- the kernel word U (the first identity template with plain a2 in the power
  slots) satisfies psi(U) = w1(a1, a2) on the nose, and
- the tail of the second identity word, rewritten over the two abstract
  symbols s_x, s_v, shows that a2 is expressible from a1 and v1(a1, a2)
  once w2(a1, a2) = 1 is imposed.

Group-level statements (U is nontrivial in the limit group, psi is not
injective there) are out of reach of free-group computation and are
reported as asserted by the source argument, with the syntactic evidence
attached; see :func:`check_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AlphabetMismatch, RankTooSmall
from .graded import build_presentation, dehn_reduce_trace
from .verbal import (
    ParamSet,
    build_w1_like,
    build_w2_tail,
    make_v,
    make_w1,
    make_w2,
    word_length_symbolic,
)
from .words import (
    Alphabet,
    Word,
    _PowerFactory,
    _append_runs,
    _check_run_budget,
    commutator,
    concat,
    power,
)


def substitute(w: Word, images: Sequence[Word], target: Alphabet) -> Word:
    """Replace generator k by images[k-1] throughout; freely reduced."""
    if len(images) != w.alphabet.m:
        raise AlphabetMismatch(
            f"need {w.alphabet.m} images, got {len(images)}")
    for img in images:
        if img.alphabet != target:
            raise AlphabetMismatch("image words must live in the target alphabet")
    factories: dict[int, _PowerFactory] = {}
    acc: list = []
    for g, e in w.runs:
        fac = factories.get(g)
        if fac is None:
            fac = factories[g] = _PowerFactory(images[g - 1])
        _append_runs(acc, fac.runs(e))
        _check_run_budget(len(acc), "a substitution")
    return Word._from_run_list(target, acc)


@dataclass(frozen=True)
class Endomorphism:
    """Generator substitution a_k -> images[k-1] over a fixed alphabet."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.alphabet.m:
            raise AlphabetMismatch(
                f"endomorphism needs {self.alphabet.m} images, got {len(self.images)}")
        for img in self.images:
            if img.alphabet != self.alphabet:
                raise AlphabetMismatch("image words must live in the same alphabet")


def apply(e: Endomorphism, w: Word) -> Word:
    if w.alphabet != e.alphabet:
        raise AlphabetMismatch("word and endomorphism alphabets differ")
    return substitute(w, e.images, e.alphabet)


def psi_infinity(alphabet: Alphabet, p: ParamSet) -> Endomorphism:
    """The non-injective self-map: a_j fixed for j != 2, a_2 -> v1(a1, a2)."""
    if alphabet.m < 2:
        raise RankTooSmall("the construction needs rank at least 2")
    a1 = Word.generator(alphabet, 1)
    a2 = Word.generator(alphabet, 2)
    images = list(alphabet.generators())
    images[1] = make_v(1, a1, a2, p)
    return Endomorphism(alphabet, tuple(images))


def kernel_witness(p: ParamSet, alphabet: Alphabet | None = None) -> tuple[Word, bool]:
    """The kernel word U and the verdict of the identity psi(U) = w1(a1, a2).

    U follows the first identity template with a2 in the power slots, so the
    substitution a2 -> v1(a1, a2) reproduces w1(a1, a2) literally.  U is
    nonempty, cyclically reduced, and shorter than (n+h)*h letters.
    """
    ab = alphabet or Alphabet(2)
    if ab.m < 2:
        raise RankTooSmall("the construction needs rank at least 2")
    a1 = Word.generator(ab, 1)
    a2 = Word.generator(ab, 2)
    u = build_w1_like(a1, a2, p)
    check = apply(psi_infinity(ab, p), u) == make_w1(a1, a2, p)
    return u, check


def surjectivity_witness(p: ParamSet) -> tuple[Word, bool]:
    """Two-symbol tail showing a2 lies in <a1, v1(a1, a2)> modulo w2 = 1.

    The returned word lives over the abstract alphabet {s_x, s_v} (generators
    1 and 2).  Substituting s_x -> x, s_v -> v1(x, y) and prefixing y gives
    exactly w2(x, y); hence modulo the relation w2(a1, a2) = 1 one has
    a2 = psi(P(a1, a2)) with P the inverse of the tail at s_v -> a2.
    """
    symbols = Alphabet(2)
    s_x = Word.generator(symbols, 1)
    s_v = Word.generator(symbols, 2)
    v2_shape = commutator(power(s_v, p.d), power(s_x, p.d))
    tail = build_w2_tail(s_v, v2_shape, p)

    target = Alphabet(2)
    x = Word.generator(target, 1)
    y = Word.generator(target, 2)
    v1 = make_v(1, x, y, p)
    # no name holds the substituted tail, so its run tuple (9.6 MB at
    # (40, 3, 5)) is freed before make_w2 builds a word of the same size
    check = concat(y, substitute(tail, [x, v1], target)) == make_w2(x, y, p)
    return tail, check


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


# materializing the toy relator set is pointless past this template size
_EVIDENCE_SIZE_CAP = 1_000_000


def check_report(p: ParamSet, alphabet: Alphabet | None = None) -> list[IdentityCheck]:
    """All witness checks for one parameter triple, syntactic ones first.

    The group-level non-injectivity claim itself cannot be settled by
    free-group computation; the report carries the desk evidence (including
    rewriting irreducibility of U over the toy relator set, when that set is
    small enough to build) and the CLI prints the claim as INDETERMINATE.
    """
    ab = alphabet or Alphabet(2)
    u, kernel_ok = kernel_witness(p, ab)
    _, surj_ok = surjectivity_witness(p)
    bound = (p.n + p.h) * p.h
    checks = [
        IdentityCheck("kernel-identity", kernel_ok,
                      "psi(U) equals the first identity word at (a1, a2)"),
        IdentityCheck("surjectivity-identity", surj_ok,
                      "y * tail[s_x -> x, s_v -> v1] equals the second identity word"),
        IdentityCheck("kernel-word-nonempty", not u.is_empty, f"|U| = {u.letter_length}"),
        IdentityCheck("kernel-word-cyclically-reduced", u.is_cyclically_reduced()),
        IdentityCheck("kernel-length-bound", u.letter_length < bound,
                      f"|U| = {u.letter_length} < (n+h)h = {bound}"),
        IdentityCheck("kernel-word-free-nontrivial", not u.is_empty,
                      "U != 1 in the free group"),
    ]
    if ab.m == 2 and word_length_symbolic("w2", 1, 1, p) <= _EVIDENCE_SIZE_CAP:
        pres = build_presentation(ab, p, max_rank=1, pair_budget=1)
        relators = pres.relators_up_to(max(pres.ranks))
        res = dehn_reduce_trace(u, relators)
        checks.append(IdentityCheck(
            "kernel-word-dehn-irreducible", res.word == u and not res.exhausted,
            f"no rewriting step applies over {len(relators)} toy relators"))
    return checks

