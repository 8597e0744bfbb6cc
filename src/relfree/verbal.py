"""Constructors for the two defining identities and their building blocks.

The two identity words are built from v-words::

    v0(x, y) = x
    v1(x, y) = [((x^d y^d)^d x^d)^d, x^d]^d y
    v2(x, y) = [v1(x, y)^d, x^d]

interleaved with a fixed +-1 sign schedule.  Both identity words have zero
exponent sum on either variable.  Each template is a slot schedule
(:func:`slot_schedule`): a lazy run sequence over three symbols, into which
:func:`relfree.words.substitute` puts one word per symbol.  The identity
words, the relators of :mod:`relfree.graded` and the witnesses of
:mod:`relfree.endo` are all such substitutions.

Two parameter regimes exist: "toy" (divisibility constraints only; every
syntactic identity holds at any size) and "ledger" (the full exact-rational
parameter chain, see :mod:`relfree.ledger`).  Toy keeps words materializable;
ledger sizes are astronomically large, which is what
:func:`word_length_symbolic` is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidIndex, InvalidParams
from .words import (Word, _check_run_budget, _stack_word, _substitution, commutator, concat,
                    power)


@dataclass(frozen=True)
class ParamSet:
    """Integer parameter triple (h, d, n); h is a positive multiple of 20."""

    h: int
    d: int
    n: int

    def __post_init__(self):
        if self.h < 20 or self.h % 20 != 0:
            raise InvalidParams(f"h must be a positive multiple of 20, got {self.h}")
        if self.d < 1 or self.n < 1:
            raise InvalidParams(f"d and n must be positive, got d={self.d} n={self.n}")


def epsilon(i: int) -> int:
    """Sign schedule: +1 when i mod 10 is in {1,2,3,5,6}, else -1.

    >>> [epsilon(i) for i in range(1, 11)]
    [1, 1, 1, -1, 1, 1, -1, -1, -1, -1]
    """
    if i < 1:
        raise InvalidIndex(f"sign schedule starts at index 1, got {i}")
    return 1 if i % 10 in (1, 2, 3, 5, 6) else -1


def _w1_slots(h: int, n: int):
    """(sign index, block exponent) of each of the h slots of the first
    identity word, one at a time."""
    half = h // 2
    for i in range(half - 1):
        yield i + 1, n + 2 * i
    yield half, (n + h - 2) + half
    for i in range(half):
        yield i + 1, -(n + 1 + 2 * i)


def w1_exponents(h: int, n: int) -> list[int]:
    """The h block exponents of the first identity word.

    Positive half n, n+2, ..., n+h-4 with the last raised by h/2; then the
    negative half -(n+1), -(n+3), ..., -(n+h-1).  The halves telescope to a
    zero total, so each half sums to (h/2)(n + h/2).
    """
    return [e for _, e in _w1_slots(h, n)]


def w2_exponents(h: int, n: int) -> list[int]:
    """The h block exponents n^2+1 .. n^2+h of the second identity word."""
    return [n * n + j for j in range(1, h + 1)]


def make_v(z: int, x: Word, y: Word, p: ParamSet, v1: Word | None = None) -> Word:
    """The v-word of level z in {0, 1, 2} with x, y substituted.

    Level 2 is formed from ``v1`` (v1(x, y), already built) when it is given.

    >>> from .words import Alphabet
    >>> ab = Alphabet(2)
    >>> a1, a2 = Word.parse(ab, "a1"), Word.parse(ab, "a2")
    >>> make_v(0, a1, a2, ParamSet(20, 2, 3)) == a1
    True
    """
    if z == 0:
        return x
    d = p.d
    xd = power(x, d)
    if z == 1:
        t = concat(xd, power(y, d))
        t = concat(power(t, d), xd)
        return concat(power(commutator(power(t, d), xd), d), y)
    if z == 2:
        return commutator(power(v1 if v1 is not None else make_v(1, x, y, p), d), xd)
    raise InvalidIndex(f"v-level must be 0, 1 or 2, got {z}")


def slot_schedule(z: int, p: ParamSet) -> Iterator[tuple[int, int]]:
    """The runs (symbol, exponent) of template z in {1, 2}, one at a time.

    Symbol 1 fills the sign slots, 2 the power slots and 3 leads the second
    template; substituting (v_{z-1}, v_z, y) gives w_z(x, y).  Template 1 is
    1^{e_1} 2^{n} 1^{e_2} 2^{n+2} ...; template 2 is
    3 2^{n^2+1} 1^{e_2} 2^{n^2+2} ... 1^{e_h} 2^{n^2+h}.
    """
    if z not in (1, 2):
        raise InvalidIndex(f"template level must be 1 or 2, got {z}")
    _check_run_budget(p.h, "a template's slots")
    if z == 1:
        for idx, e in _w1_slots(p.h, p.n):
            yield 1, epsilon(idx)
            yield 2, e
    else:
        nn = p.n * p.n  # slot i has power exponent n^2 + i
        yield 3, 1
        yield 2, nn + 1
        for i in range(2, p.h + 1):
            yield 1, epsilon(i)
            yield 2, nn + i


def make_w(z: int, x: Word, y: Word, p: ParamSet) -> Word:
    """Identity word w_z(x, y): the slot schedule of template z with
    v_{z-1}(x, y), v_z(x, y) and y substituted; zero exponent sums."""
    return _stack_word(x.alphabet, *_w_stack(z, x, y, p)[1])


def _w_stack(z: int, x: Word, y: Word, p: ParamSet) -> tuple[tuple, tuple]:
    """The images (v_{z-1}, v_z, y) of template z at (x, y), v1 built once among
    them, and the substitution of w_z through them as
    :func:`relfree.words._substitution` leaves it: run stack, letters, sums."""
    below = make_v(z - 1, x, y, p)
    images = (below, make_v(z, x, y, p, v1=below), y)
    return images, _substitution(slot_schedule(z, p), images, x.alphabet)


def make_w1(x: Word, y: Word, p: ParamSet) -> Word:
    """First identity word w1(x, y) = x^{e_1} v1^{n} x^{e_2} v1^{n+2} ..."""
    return make_w(1, x, y, p)


def make_w2(x: Word, y: Word, p: ParamSet) -> Word:
    """Second identity word w2(x, y) = y v2^{n^2+1} v1^{e_2} v2^{n^2+2} ..."""
    return make_w(2, x, y, p)


def word_length_symbolic(which: str, lx: int, ly: int, p: ParamSet) -> int:
    """Pre-reduction letter count of a template, exact for the unreduced word.

    Always an upper bound for the reduced length, and computable at ledger
    scale where materialization is impossible.
    """
    if lx < 0 or ly < 0:
        raise InvalidParams(f"word lengths must be nonnegative, got lx={lx} ly={ly}")
    d, h, n = p.d, p.h, p.n
    len_v0 = lx
    len_v1 = d * (2 * (d * (d * (d * lx + d * ly) + d * lx)) + 2 * d * lx) + ly
    len_v2 = 2 * d * len_v1 + 2 * d * lx
    if which == "v0":
        return len_v0
    if which == "v1":
        return len_v1
    if which == "v2":
        return len_v2
    # closed forms of sum |w1_exponents| and sum w2_exponents, so any h answers
    if which == "w1":
        return h * lx + len_v1 * h * (n + h // 2)
    if which == "w2":
        return ly + (h - 1) * len_v1 + len_v2 * (h * n * n + h * (h + 1) // 2)
    raise InvalidIndex(f"unknown template {which!r}")
