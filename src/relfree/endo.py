"""The distinguished endomorphism and its two syntactic witnesses.

An endomorphism is determined by the images of the generators, and applying
it is :func:`relfree.words.substitute`.  The distinguished map psi fixes
every generator except the second, which goes to v1(a1, a2);
:func:`psi_infinity` returns its images.  Its two witnesses are pure
free-group identities, each a substitution into a slot schedule of
:mod:`relfree.verbal`:

- the kernel word U, the schedule of the first template with (a1, a2)
  substituted, satisfies psi(U) = w1(a1, a2) on the nose, and
- the tail of the second identity word, the schedule of the second template
  with (s_v, [s_v^d, s_x^d], 1) substituted over two abstract symbols s_x,
  s_v, shows that a2 is expressible from a1 and v1(a1, a2) once
  w2(a1, a2) = 1 is imposed.

Group-level statements (U is nontrivial in the limit group, psi is not
injective there) are out of reach of free-group computation and are
reported as asserted by the source argument, with the syntactic evidence
attached (U's Dehn evidence read from lengths); see :func:`check_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import RankTooSmall
from .verbal import ParamSet, make_v, make_w1, make_w2, slot_schedule
from .words import Alphabet, Word, cyclic_reduce, substitute


def psi_infinity(alphabet: Alphabet, p: ParamSet) -> tuple[Word, ...]:
    """The images of the non-injective self-map, for :func:`substitute`:
    a_j fixed for j != 2, a_2 -> v1(a1, a2)."""
    if alphabet.m < 2:
        raise RankTooSmall("the construction needs rank at least 2")
    images = alphabet.generators()
    images[1] = make_v(1, images[0], images[1], p)
    return tuple(images)


def kernel_word(p: ParamSet) -> Word:
    """The kernel word U over (a1, a2): the first identity template with a2
    in the power slots.  U is nonempty, cyclically reduced, and shorter than
    (n+h)*h letters."""
    ab = Alphabet(2)
    return substitute(slot_schedule(1, p), (Word.generator(ab, 1), Word.generator(ab, 2)), ab)


def kernel_witness(p: ParamSet) -> tuple[Word, bool]:
    """The kernel word U and the verdict of the identity psi(U) = w1(a1, a2).

    U has a2 in the power slots, so the substitution a2 -> v1(a1, a2)
    reproduces w1(a1, a2) literally.
    """
    return _kernel_identity(p)[:2]


def _kernel_identity(p: ParamSet) -> tuple[Word, bool, Word]:
    """U, the verdict of psi(U) = w1(a1, a2), and the w1(a1, a2) compared."""
    u, ab = kernel_word(p), Alphabet(2)
    w1 = make_w1(*ab.generators(), p)
    return u, substitute(u, psi_infinity(ab, p), ab) == w1, w1


def surjectivity_witness(p: ParamSet) -> tuple[Word, bool]:
    """Two-symbol tail showing a2 lies in <a1, v1(a1, a2)> modulo w2 = 1.

    The returned word lives over the abstract alphabet {s_x, s_v} (generators
    1 and 2).  Substituting s_x -> x, s_v -> v1(x, y) and prefixing y gives
    exactly w2(x, y); hence modulo the relation w2(a1, a2) = 1 one has
    a2 = psi(P(a1, a2)) with P the inverse of the tail at s_v -> a2.
    """
    return _surjectivity_identity(p)[:2]


def _surjectivity_identity(p: ParamSet) -> tuple[Word, bool, Word]:
    """The tail, the verdict of the second identity, and the w2(a1, a2) compared."""
    symbols = Alphabet(2)
    s_x = Word.generator(symbols, 1)
    s_v = Word.generator(symbols, 2)
    v2_shape = make_v(2, s_x, s_v, p, v1=s_v)
    tail = substitute(slot_schedule(2, p), (s_v, v2_shape, Word.identity(symbols)), symbols)

    target = Alphabet(2)
    x = Word.generator(target, 1)
    y = Word.generator(target, 2)
    v1 = make_v(1, x, y, p)
    # either order peaks at the same three run tuples (the word held, the
    # other's run stack and its tuple): each build holds no run list per slot
    # (at (40, 4, 5), 87-90 MB traced, 30 MB a tuple)
    w2 = make_w2(x, y, p)
    return tail, substitute(chain(((3, 1),), tail.runs), [x, v1, y], target) == w2, w2


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


def check_report(p: ParamSet) -> list[IdentityCheck]:
    """All witness checks for one parameter triple, syntactic ones first.

    The group-level claim cannot be settled by free-group computation, and the
    CLI prints it as INDETERMINATE.  U's Dehn evidence over the 16 toy relators
    (pair budget 1) is exact from lengths: each is W^-1 w_z*(x, y) W for one of
    the 8 pairs of single letters on different generators, so its core is that
    of w_z*(a1, a2) under a letter permutation; and a step replaces more than
    half of an entry, so none applies to U when 2|U| <= the shortest core.
    """
    u, kernel_ok, w1 = _kernel_identity(p)
    _, surj_ok, w2 = _surjectivity_identity(p)
    shortest = min(cyclic_reduce(w)[0].letter_length for w in (w1, w2))
    bound = (p.n + p.h) * p.h
    return [
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
        IdentityCheck("kernel-word-dehn-irreducible", 2 * u.letter_length <= shortest,
                      f"|U| = {u.letter_length}, floor(shortest core / 2) = {shortest // 2},"
                      " over 16 toy relators"),
    ]
