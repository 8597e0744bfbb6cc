"""Exact free-group word algebra over a finite alphabet.

Words are stored run-length encoded: a tuple of ``(generator, exponent)``
runs with arbitrary-precision exponents, adjacent runs on distinct
generators.  That normal form is exactly the freely reduced form, so every
operation below returns reduced results without ever materializing letters.
Letters, when needed, are signed integers: ``+k`` is the k-th generator,
``-k`` its inverse.

Letter order (used by shortlex and canonical rotations) is
``a1 < a1^-1 < a2 < a2^-1 < ...``: generator index first, positive before
negative.  The text format is whitespace-separated tokens ``a<k>`` or
``a<k>^<e>``, with ``1`` denoting the empty word.

Every run is the one object that the module's run table holds for its value,
so equal runs are the same object: comparing two run tuples, or looking a run
up in a dict, succeeds on identity.  The table stops growing at
``_RUN_TABLE_BUDGET`` runs; a run built past it is a plain tuple, equal by
value, only slower to compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, count, islice
from operator import eq, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetMismatch, BudgetExceeded, EmptyWord, InvalidLetter

# Letter materialization is opt-in; this guards accidental expansion of
# words whose RLE exponents are astronomically large.
DEFAULT_LETTER_BUDGET = 10_000_000
# Run sequences are built without materializing letters, but a power of a
# word with several runs, or a template over h slots, still holds one entry
# per run or per slot: those are capped here (a list of this many entries
# takes 80 MB of pointers).
DEFAULT_RUN_BUDGET = 10_000_000

_generator = itemgetter(0)  # of a run
_exponent = itemgetter(1)

_RUN_TABLE_BUDGET = 65_536  # entries in one table


class _Table(dict):
    """Key -> ``make(key)``, made on first use and stored while the table
    holds fewer than ``_RUN_TABLE_BUDGET`` entries."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        if len(self) < _RUN_TABLE_BUDGET:
            self[key] = value
        return value


_RUNS = _Table(lambda run: run)  # run -> its one shared object
_INVERSES = _Table(lambda run: _RUNS[(run[0], -run[1])])  # run -> its inverse's


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet a1..am together with formal inverses."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidLetter(f"alphabet needs at least one generator, got m={self.m}")

    def check_letter(self, g: int) -> int:
        if type(g) is not int or g == 0 or abs(g) > self.m:
            raise InvalidLetter(f"letter {g!r} outside alphabet of {self.m} generators")
        return g

    def generators(self) -> list["Word"]:
        return [Word.generator(self, k) for k in range(1, self.m + 1)]


def _check_same_alphabet(u: "Word", v: "Word") -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {u.alphabet} vs {v.alphabet}")


def _append_runs(acc: list, runs) -> int:
    """Append a reduced run sequence to a reduced run stack, reducing the seam,
    and return the number of letters that cancel there.

    Both inputs must individually be freely reduced; cancellation can then
    only cascade at the junction, so everything past it is bulk-extended.
    """
    i = 0
    n = len(runs)
    cut = 0
    while acc and i < n:
        g, e = runs[i]
        tg, te = acc[-1]
        if tg != g:
            break
        s = te + e
        i += 1
        if s == 0:
            acc.pop()
            cut += 2 * abs(e)
        else:
            acc[-1] = _RUNS[(tg, s)]
            cut += abs(te) + abs(e) - abs(s)
            break
    acc.extend(runs)
    if i:  # drop the i runs the seam took, without copying the rest first
        del acc[len(acc) - n:len(acc) - n + i]
    return cut


def _check_run_budget(count: int, what: str) -> None:
    """Raise :class:`BudgetExceeded` when ``count`` runs or slots of ``what``
    are more than :data:`DEFAULT_RUN_BUDGET`."""
    if count > DEFAULT_RUN_BUDGET:
        raise BudgetExceeded(
            f"{what} would need {count} entries, over the budget of {DEFAULT_RUN_BUDGET}")


def _run_keys(runs, after) -> list:
    """One comparable key per run, such that comparing two run sequences of
    equal letter length key by key agrees with comparing them letterwise.

    A run of ``c`` letters ``l`` followed by a letter ``l' != l`` gets
    ``(l, 0, c)`` when ``l' < l`` and ``(l, 1, -c)`` when ``l' > l``, with
    letters ordered a1 < a1^-1 < a2 < ... (``2g`` and ``2g + 1``).  At the
    first key that differs the letters decide, or else the shorter run meets
    its follower first, so the first ``min(c) + 1`` letters of the two runs
    decide the same way.  The letter after the last run is the first run's
    letter when ``after`` is None (a cyclic word), else ``after``.
    """
    ls = [2 * g if e > 0 else 2 * g + 1 for g, e in runs]
    ls.append(ls[0] if after is None else after)
    return [(l, 0, abs(e)) if nl < l else (l, 1, -abs(e))
            for (_, e), l, nl in zip(runs, ls, ls[1:])]


# Keys the letter after the last run of a linear word as larger than every letter.
_END = float("inf")


def _seam_merged(runs: tuple) -> tuple:
    """The runs of a cyclically reduced core read as a cyclic word: when the
    first and last runs share a generator, cyclic reducedness makes their
    signs equal and they join into one run, put first."""
    if len(runs) >= 3 and runs[0][0] == runs[-1][0]:
        g, e = runs[0]
        return (_RUNS[(g, e + runs[-1][1])],) + runs[1:-1]
    return runs


def _parse_token(tok: str) -> tuple[int, int]:
    """The run ``(k, e)`` that one token ``a<k>`` or ``a<k>^<e>`` stands for
    (``e`` may be 0, and ``k`` is not checked against an alphabet).  k is
    ASCII decimal digits and e has an optional ``-`` before them: ``int``
    alone would also read ``_`` separators, a ``+`` and any Unicode digit."""
    body, caret, etext = tok.partition("^")
    try:
        if caret and not _is_decimal(etext.removeprefix("-")):
            raise ValueError
        exponent = int(etext) if caret else 1
    except ValueError:
        raise InvalidLetter(f"bad exponent in token {tok!r}") from None
    try:
        if body.startswith("a") and _is_decimal(body[1:]):
            return (int(body[1:]), exponent)
    except ValueError:
        pass
    raise InvalidLetter(f"bad token {tok!r}")


def _is_decimal(text: str) -> bool:
    return text.isascii() and text.isdigit()


class _TokenRuns(dict):
    """Token -> run, each distinct token parsed on first use, shared by all
    the texts of one input.  ``m`` bounds the generators; when it is None,
    ``top`` (the largest generator parsed) gives the alphabet afterwards."""

    def __init__(self, m: int | None):
        self.m = m
        self.top = 1
        self.zero = False  # some token has exponent 0

    def __missing__(self, tok: str) -> tuple:
        k, e = run = self[tok] = _RUNS[_parse_token(tok)]  # an error ends the input
        if k < 1 or (self.m is not None and k > self.m):
            raise InvalidLetter(f"generator a{k} outside alphabet of {self.m or self.top}")
        self.top = max(self.top, k)
        self.zero = self.zero or not e
        return run

    def runs(self, text: str) -> tuple:
        """The reduced runs of one text, split once and mapped to runs at C
        speed (new tokens are parsed in text order, so the first bad one is
        named).  Runs of exponent 0 are dropped, and the runs are cut where
        adjacent ones share a generator into reduced pieces, joined by
        :func:`_append_runs`, unless a test at C speed finds no cut first."""
        tokens = text.split()
        if tokens == ["1"]:
            return ()
        runs = tuple(map(self.__getitem__, tokens))
        if self.zero:
            runs = tuple(filter(_exponent, runs))
        if self.top < 256:  # one byte per run, as x: a cut is a 0 byte of x ^ (x >> 8)
            x = int.from_bytes(bytes(map(_generator, runs)), "big")
            if 0 not in (x ^ (x >> 8)).to_bytes(len(runs), "big"):
                return runs
        gens = list(map(_generator, runs))
        cuts = list(compress(count(1), map(eq, gens, islice(gens, 1, None))))
        if not cuts:
            return runs
        acc: list = []
        for start, stop in zip([0] + cuts, cuts + [len(runs)]):
            _append_runs(acc, runs[start:stop])
        return tuple(acc)


def parse_words(texts: Iterable[tuple[str, str]], m: int | None = None) -> list["Word"]:
    """Parse ``(where, text)`` pairs as words over one alphabet: ``m``
    generators, or when ``m`` is None the largest generator any text names.
    Each distinct token is parsed once over all the texts, and only their
    runs are kept.  An error names its ``where`` first, when that is set."""
    alphabet = None if m is None else Alphabet(m)
    tokens = _TokenRuns(m)
    runs = []
    for where, text in texts:
        try:
            runs.append(tokens.runs(text))
        except InvalidLetter as exc:
            if not where:
                raise
            raise InvalidLetter(f"{where}: {exc}") from exc
    alphabet = alphabet or Alphabet(tokens.top)
    return [Word(alphabet, r) for r in runs]


class Word:
    """A freely reduced word, immutable after construction.

    Do not call the constructor with arbitrary runs; use :func:`free_reduce`,
    :meth:`Word.parse`, or the algebra functions, which maintain the reduced
    RLE invariant.
    """

    __slots__ = ("alphabet", "runs", "_len", "_sums", "_hash")

    def __init__(self, alphabet: Alphabet, runs: tuple = ()):
        self.alphabet = alphabet
        self.runs = runs
        self._len = None
        self._sums = None
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet, ())

    @classmethod
    def generator(cls, alphabet: Alphabet, k: int, exponent: int = 1) -> "Word":
        alphabet.check_letter(k)
        if k < 0:
            k, exponent = -k, -exponent
        if exponent == 0:
            return cls(alphabet, ())
        return cls(alphabet, (_RUNS[(k, exponent)],))

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        """Parse the text format; the input is freely reduced on the way in.

        One pass at C speed (see :meth:`_TokenRuns.runs`); a bad token
        raises :class:`InvalidLetter` naming the first one in text order.

        >>> ab = Alphabet(2)
        >>> str(Word.parse(ab, "a1^3 a2^-1 a1"))
        'a1^3 a2^-1 a1'
        >>> str(Word.parse(ab, "a1 a1^-1"))
        '1'
        """
        return cls(alphabet, _TokenRuns(alphabet.m).runs(text))

    # -- queries ------------------------------------------------------

    @property
    def letter_length(self) -> int:
        """Total letter count sum(|exponent|), never materializing letters: a
        :func:`substitute` result carries it (its slots' counts less the letters
        cancelled at the seams), any other word sums its runs once, on first read."""
        if self._len is None:
            self._len = sum(map(abs, map(_exponent, self.runs)))
        return self._len

    @property
    def is_empty(self) -> bool:
        return not self.runs

    def is_cyclically_reduced(self) -> bool:
        if len(self.runs) < 2:
            return True
        fg, fe = self.runs[0]
        lg, le = self.runs[-1]
        return fg != lg or (fe > 0) == (le > 0)

    def exponent_sums(self) -> dict:
        """Generator index -> signed exponent sum (0 or absent if it never occurs):
        carried by a :func:`substitute` result, else summed over the runs once."""
        if self._sums is None:
            sums: dict = {}
            for g, e in self.runs:
                sums[g] = sums.get(g, 0) + e
            self._sums = sums
        return self._sums

    def _check_budget(self) -> None:
        """Raise :class:`BudgetExceeded` when the word has more than
        :data:`DEFAULT_LETTER_BUDGET` letters."""
        if self.letter_length > DEFAULT_LETTER_BUDGET:
            raise BudgetExceeded(f"word has {self.letter_length} letters, "
                                 f"over the budget of {DEFAULT_LETTER_BUDGET}")

    def to_letters(self) -> list[int]:
        """Materialize the signed-letter sequence, within the letter budget."""
        self._check_budget()
        out: list[int] = []
        for g, e in self.runs:
            out.extend([g if e > 0 else -g] * abs(e))
        return out

    def prefix(self, length: int) -> "Word":
        """The first ``length`` letters as a word (necessarily reduced)."""
        if length < 0 or length > self.letter_length:
            raise IndexError(length)
        acc: list = []
        need = length
        for run in self.runs:
            if need == 0:
                break
            g, e = run
            take = min(abs(e), need)
            acc.append(run if take == abs(e) else _RUNS[(g, take if e > 0 else -take)])
            need -= take
        return Word(self.alphabet, tuple(acc))

    # -- dunder sugar ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.runs == other.runs
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet, self.runs))
        return self._hash

    def __str__(self) -> str:
        if not self.runs:
            return "1"
        # long words repeat few distinct runs, so each run's text is made once
        text = {(g, e): f"a{g}" if e == 1 else f"a{g}^{e}" for g, e in set(self.runs)}
        return " ".join(map(text.__getitem__, self.runs))

    def __repr__(self) -> str:
        return f"Word({self})"


# -- elementary operations ---------------------------------------------


def free_reduce(alphabet: Alphabet, letters: Iterable[int]) -> Word:
    """Reduce a signed-letter sequence to its unique normal form.

    One pass; a letter that is no ``int`` in range goes through
    :meth:`Alphabet.check_letter`, so the first bad one raises.

    >>> ab = Alphabet(2)
    >>> str(free_reduce(ab, [1, -1]))
    '1'
    >>> str(free_reduce(ab, [1, 2, -2, 1]))
    'a1^2'
    """
    m = alphabet.m
    acc: list = []
    tg, te = 0, 0  # the top run, held apart from acc; no generator is 0
    for g in letters:
        if type(g) is not int or not g or not -m <= g <= m:
            alphabet.check_letter(g)  # raises on a bad letter
        if g > 0:
            k, e = g, 1
        else:
            k, e = -g, -1
        if k == tg:
            te += e
            if not te:
                tg, te = acc.pop() if acc else (0, 0)
        else:
            if tg:
                acc.append((tg, te))
            tg, te = k, e
    if tg:
        acc.append((tg, te))
    return Word(alphabet, tuple(map(_RUNS.__getitem__, acc)))


def concat(u: Word, v: Word) -> Word:
    return concat_all([u, v])


def concat_all(words: Iterable[Word]) -> Word:
    """Product of several words, reduced once along the way."""
    acc: list = []
    first = None
    for w in words:
        if first is None:
            first = w
        else:
            _check_same_alphabet(first, w)
        _append_runs(acc, w.runs)
    if first is None:
        raise EmptyWord("empty product has no alphabet")
    return Word(first.alphabet, tuple(acc))


def invert(u: Word) -> Word:
    return Word(u.alphabet, _inverse_runs(u.runs))


def _inverse_runs(runs) -> tuple:
    return tuple(map(_INVERSES.__getitem__, reversed(runs)))


def _power_blocks(core: tuple, conj: tuple, positive: bool) -> tuple:
    core = core if positive else _inverse_runs(core)  # of u^k for k > 0 or k < 0
    head, close = list(conj), [core[-1]]
    _append_runs(head, core[:-1])
    _append_runs(close, _inverse_runs(conj))
    (g, e), (gl, el) = core[0], core[-1]
    repeat = (_RUNS[(g, e + el)],) + core[1:-1] if g == gl else core[-1:] + core[:-1]
    return head, repeat, close


class _Powers:
    """Appends powers u^k = conj core^k conj^-1 of a fixed word onto reduced run
    stacks; u^k is reduced, of |core| |k| + 2 |conj| letters.  For a core of two or
    more runs and k > 0 it is head repeat^(k-1) close: head is conj and the core
    less its last run, repeat the core rotated to start at that run (joined to the
    first run when they share a generator), close that run and conj^-1, each
    reduced once per sign of k.  Only the seams with the stack reduce (through
    :func:`_append_runs`): repeats are extended in bulk unless the head cancelled
    whole, and then go one by one until one is left, so each run of u^k is copied
    once.  The run list of u^k is kept only once k recurs."""

    def __init__(self, u: Word):
        core, conj = cyclic_reduce(u)
        self._sizes = core.letter_length, 2 * conj.letter_length
        self._parts = core.runs, conj.runs
        self._blocks = _Table(partial(_power_blocks, *self._parts))  # by k > 0
        self._kept: dict = {}  # k -> None once seen, then (runs of u^k, |u^k|)

    def append(self, acc: list, k: int) -> int:
        """Append u^k to the reduced run stack ``acc``; return the letters it
        adds, |u^k| less the letters cancelled at the seam."""
        kept = self._kept.get(k)
        if kept is None:
            size = self._sizes[0] * abs(k) + self._sizes[1] if k else 0
            if k not in self._kept:
                self._kept[k] = None
                return size - self._extend(acc, k)
            kept = self._kept[k] = [], size
            self._extend(kept[0], k)
        return kept[1] - _append_runs(acc, kept[0])

    def _extend(self, acc: list, k: int) -> int:
        """Append u^k to ``acc``; return the letters cancelled at the seam."""
        core, conj = self._parts
        if not k or not core:
            return 0
        if len(core) == 1:  # one run between conj and conj^-1
            g, e = core[0]
            cut = _append_runs(acc, conj) + _append_runs(acc, (_RUNS[(g, e * k)],))
            return cut + _append_runs(acc, _inverse_runs(conj))
        _check_run_budget(len(core) * abs(k), "a power")
        head, repeat, close = self._blocks[k > 0]
        cut = _append_runs(acc, head)
        k = abs(k) - 1
        while k and acc and acc[-1][0] == repeat[0][0]:  # the head cancelled whole
            cut += _append_runs(acc, repeat)
            k -= 1
        for _ in range(k):
            acc.extend(repeat)
        return cut + _append_runs(acc, close)  # the core's last run may join conj^-1


def power(u: Word, k: int) -> Word:
    """u**k, appended by :class:`_Powers`, so that huge k costs no more than the
    final size (one run for a one-run core)."""
    if k == 1:
        return u
    acc: list = []
    _Powers(u)._extend(acc, k)
    return Word(u.alphabet, tuple(acc))


def substitute(w: Word | Iterable[tuple[int, int]], images: Sequence[Word],
               target: Alphabet) -> Word:
    """Replace generator k by images[k-1] throughout; freely reduced.

    ``w`` is a word, which needs one image per generator, or any iterable of
    (generator, exponent) runs, such as a template's slot schedule; its runs
    are read one at a time, so a schedule is never held whole.  Each slot's
    power goes onto the result's run stack through :class:`_Powers`, so each of
    its runs is copied once, and its run list is kept only if its exponent
    recurs.  The result carries its letter length, its slots' counts less the
    letters cancelled, and its exponent sums, each image's times its slots'
    total exponent (exact)."""
    if isinstance(w, Word):
        if len(images) != w.alphabet.m:
            raise AlphabetMismatch(f"need {w.alphabet.m} images, got {len(images)}")
        w = w.runs
    for img in images:
        if img.alphabet != target:
            raise AlphabetMismatch("image words must live in the target alphabet")

    def powers_of(g: int) -> _Powers:
        if not 0 < g <= len(images):
            raise AlphabetMismatch(f"no image for generator {g} among {len(images)}")
        return _Powers(images[g - 1])

    powers = _Table(powers_of)
    totals = [0] * len(images)  # slot k-1 -> the exponents read at generator k
    acc: list = []
    length = 0
    for g, e in w:
        length += powers[g].append(acc, e)
        totals[g - 1] += e
        if len(acc) > DEFAULT_RUN_BUDGET:
            _check_run_budget(len(acc), "a substitution")
    word = Word(target, tuple(acc))
    word._len, word._sums = length, {}
    for img, total in zip(images, totals):  # free reduction keeps exponent sums
        for k, s in img.exponent_sums().items():
            word._sums[k] = word._sums.get(k, 0) + total * s
    return word


def conjugate(u: Word, by: Word) -> Word:
    """by * u * by^-1, freely reduced."""
    return concat_all([by, u, invert(by)])


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1 (this sign convention, not inverses first)."""
    return concat_all([u, v, invert(u), invert(v)])


def exponent_sum(u: Word, g: int) -> int:
    """Signed exponent sum of generator ``g`` across the word."""
    u.alphabet.check_letter(g)
    if g < 0:
        return -exponent_sum(u, -g)
    return u.exponent_sums().get(g, 0)


# -- cyclic structure ----------------------------------------------------


def cyclic_reduce(u: Word) -> tuple[Word, Word]:
    """Split u = conj * core * conj^-1 with the core cyclically reduced.

    Peels matching end runs by index, so the time is linear in the number of
    runs however long the conjugator is.  When nothing peels, the core is u
    itself, with whatever u has cached; otherwise a cached |u| gives the
    core's length as |u| - 2|conj|."""
    runs = u.runs
    i, j = 0, len(runs) - 1
    conj: list = []
    core = None
    while i < j:
        g1, e1 = runs[i]
        g2, e2 = runs[j]
        if g1 != g2 or (e1 > 0) == (e2 > 0):
            break
        if e1 + e2 == 0:
            conj.append(runs[i])
            i += 1
            j -= 1
        elif abs(e1) < abs(e2):
            conj.append(runs[i])
            core = runs[i + 1:j] + (_RUNS[(g2, e1 + e2)],)
            break
        else:
            conj.append(_INVERSES[runs[j]])
            core = (_RUNS[(g1, e1 + e2)],) + runs[i + 1:j]
            break
    if not conj:
        return u, Word(u.alphabet)
    core_word = Word(u.alphabet, runs[i:j + 1] if core is None else core)
    if u._len is not None:
        core_word._len = u._len - 2 * sum(map(abs, map(_exponent, conj)))
    return core_word, Word(u.alphabet, tuple(conj))


def canonical_cyclic(u: Word) -> Word:
    """Shortlex-least rotation of the cyclically reduced core: the canonical
    representative of ``u``'s conjugacy class in the free group, so two words
    are conjugate iff their canonical_cyclic words are equal.

    The minimum over rotations starts at a run of the core read as a cyclic
    word (first and last runs joined when they share a generator): a start
    inside a run of ``l`` is beaten by the run's own start when the letter
    after the run is larger than ``l``, and by that letter's start when it
    is smaller.  Comparing such rotations letterwise is comparing their
    cyclic run keys (see :func:`_run_keys`), so the least rotation of the
    key list, found by the two-pointer minimum-expression scan, names the
    run to start at.  Time and memory are linear in the number of runs.

    >>> ab = Alphabet(2)
    >>> str(canonical_cyclic(Word.parse(ab, "a1 a2 a1")))
    'a1^2 a2'
    """
    core, _ = cyclic_reduce(u)
    if len(core.runs) <= 1:
        return core
    runs = _seam_merged(core.runs)
    keys = _run_keys(runs, None)
    n = len(keys)
    keys += keys
    # i < j are the two candidate starts agreeing on k keys; a mismatch rules
    # out the larger side's start and the k starts after it
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[i + k], keys[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return Word(u.alphabet, runs[i:] + runs[:i])


def conjugate_in_free(u: Word, v: Word) -> bool:
    """True iff u and v are conjugate in the free group: iff their cyclic
    cores are cyclic shifts of each other (Lyndon-Schupp I.1).  A core of
    two or more runs, read cyclically (:func:`_seam_merged`), has maximal
    runs that a rotation carries to maximal runs, so the shift test runs on
    one code per distinct run: a character from 0x10000 up, then one below,
    so a match starts only at a code.  No letter is built."""
    _check_same_alphabet(u, v)
    ru, rv = (_seam_merged(cyclic_reduce(w)[0].runs) for w in (u, v))
    if len(ru) != len(rv) or len(ru) <= 1:
        return ru == rv
    codes = {run: chr(0x10000 + (i >> 16)) + chr(i & 0xFFFF)
             for i, run in enumerate(dict.fromkeys(ru + rv))}
    enc_u, enc_v = ("".join(map(codes.__getitem__, r)) for r in (ru, rv))
    return _is_cyclic_shift(enc_u, enc_v + enc_v)


def primitive_root(u: Word) -> tuple[Word, int]:
    """Write a cyclically reduced u as root**k with k maximal.

    u is a k-th power iff the cyclic word it reads is invariant under a
    rotation by |u|/k letters, which carries runs to runs: iff its runs, read
    cyclically with the seam joined, are a block of runs repeated k times.
    The smallest period p of that run tuple comes from the KMP failure
    function, and k = N / p when p divides the number N of runs, else 1; a
    single run (g, e) is a_g^(+-1) to the power |e|.  The root is a slice of
    the word's runs: the first N / k, followed by the last run when the seam
    joined it to the first.  Time is linear in the number of runs, whatever
    the exponents.

    >>> ab = Alphabet(2)
    >>> w = Word.parse(ab, "a1 a2 a1 a2 a1 a2")
    >>> root, k = primitive_root(w)
    >>> str(root), k
    ('a1 a2', 3)
    """
    if u.is_empty:
        raise EmptyWord("the empty word has no primitive root")
    if not u.is_cyclically_reduced():
        raise EmptyWord("primitive_root expects a cyclically reduced word")
    runs = _seam_merged(u.runs)
    n = len(runs)
    if n == 1:
        k = abs(runs[0][1])
    else:
        fail = [0] * (n + 1)
        f = 0
        for i in range(1, n):
            r = runs[i]
            while f and runs[f] != r:
                f = fail[f]
            if runs[f] == r:
                f += 1
            fail[i + 1] = f
        p = n - f
        k = n // p if n % p == 0 else 1
    if k == 1:
        return u, 1
    if n == 1:
        return u.prefix(1), k
    # u.runs[n:] is the last run when the seam joined it to the first, else empty
    return Word(u.alphabet, u.runs[:n // k] + u.runs[n:]), k


# -- conjugacy witnesses --------------------------------------------------


# a_k^-1 is code point 2k + 1, and code points end at 0x10FFFF
_MAX_ENCODABLE = (0x10FFFF - 1) // 2


def _unencodable(g: int) -> InvalidLetter:
    return InvalidLetter(f"generator a{g} is past a{_MAX_ENCODABLE}, "
                         f"the largest index whose letters can be encoded")


def _encode_letters(letters) -> str:
    # chr() mapping gives C-speed substring search through str.find; letters
    # a_k, a_k^-1 become code points 2k, 2k+1, one byte each while k < 128
    try:
        return "".join(chr(2 * g if g > 0 else 1 - 2 * g) for g in letters)
    except ValueError:
        raise _unencodable(max(map(abs, letters))) from None


def _check_encodable(w: Word) -> None:
    """Raise :class:`InvalidLetter` naming the first generator of ``w`` past
    the largest encodable index; free when the alphabet stays below it."""
    if w.alphabet.m > _MAX_ENCODABLE:
        for g, _ in w.runs:
            if g > _MAX_ENCODABLE:
                raise _unencodable(g)


def _encode_word(w: Word) -> str:
    """``_encode_letters(w.to_letters())``, built from the runs at C speed,
    each distinct run's letters made once: the letter budget and the alphabet
    are checked before anything is built."""
    w._check_budget()
    _check_encodable(w)
    codes = _Table(lambda run: chr(2 * run[0] + (run[1] < 0)) * abs(run[1]))
    return "".join(map(codes.__getitem__, w.runs))


def _decode_letters(enc: str) -> list[int]:
    """The signed letters of an encoded word (inverse of :func:`_encode_letters`)."""
    return [-(c >> 1) if c & 1 else c >> 1 for c in map(ord, enc)]


def _is_cyclic_shift(enc: str, doubled: str) -> bool:
    """Whether the encoded word ``enc`` is a cyclic shift of the word b whose
    encoding, doubled, is ``doubled``: |enc| = |b| and enc occurs in bb."""
    return 2 * len(enc) == len(doubled) and enc in doubled


def conjugacy_witnesses(u: Word, v: Word):
    """Yield words W with u = W v W^-1, one per cyclic alignment of the cores."""
    _check_same_alphabet(u, v)
    (core_u, cu), (core_v, cv) = cyclic_reduce(u), cyclic_reduce(v)
    if core_u.letter_length != core_v.letter_length:
        return
    if core_u.is_empty:
        if core_v.is_empty:
            yield Word.identity(core_u.alphabet)
        return
    lu = _encode_word(core_u)
    lv = _encode_word(core_v)
    doubled = lv + lv
    cv_inv = invert(cv)
    start = doubled.find(lu)
    while start != -1 and start < len(lv):
        # core_v = p s with |p| = start and s p = core_u, hence
        # core_u = p^-1 core_v p and W = cu p^-1 cv^-1.
        p = core_v.prefix(start)
        yield concat_all([cu, invert(p), cv_inv])
        start = doubled.find(lu, start + 1)


def minimal_conjugacy_witness(u: Word, v: Word) -> Word | None:
    """Shortest W with u = W v W^-1 (ties broken shortlex), or None.

    All witnesses form one coset W0 <rho>: with v = cv core cv^-1 and
    core = root^m, rho = cv root cv^-1 generates the centralizer of v.  The
    cores align in exactly m ways, one base each, so |root| is |core| over
    the number of bases.  Every base lies in the coset of the first, W0,
    and as |W0 rho^k| >= |rho^k| - |W0| >= |k| |root| - |W0|, one sweep from
    W0 over k = +-1, +-2, ... while |k| |root| - |W0| <= |best| meets every
    witness no longer than the best one so far.  rho is built only when a
    candidate needs it.
    """
    base = list(conjugacy_witnesses(u, v))
    if not base:
        return None
    core_v, cv = cyclic_reduce(v)
    best = min(base, key=shortlex_key)
    root_len = core_v.letter_length // len(base)
    w0, rho, k = base[0], None, 1
    while root_len and k * root_len - w0.letter_length <= best.letter_length:
        if rho is None:
            rho = conjugate(core_v.prefix(root_len), cv)
        for e in (k, -k):
            w = concat(w0, power(rho, e))
            if _shortlex_less(w, best):
                best = w
        k += 1
    return best


def _shortlex_less(u: Word, v: Word) -> bool:
    if u.letter_length != v.letter_length:
        return u.letter_length < v.letter_length
    return _run_keys(u.runs, _END) < _run_keys(v.runs, _END)


def shortlex_key(u: Word) -> tuple:
    """Sort key for the shortlex order on words (length, then letter order),
    built from run keys without materializing letters."""
    return (u.letter_length, _run_keys(u.runs, _END))


def enumerate_reduced_words(alphabet: Alphabet, max_len: int,
                            include_empty: bool = True) -> Iterator[Word]:
    """All freely reduced words of length <= max_len in shortlex order."""
    if include_empty:
        yield Word.identity(alphabet)
    letters = [g for k in range(1, alphabet.m + 1) for g in (k, -k)]  # in letter order
    frontier: list[list[int]] = [[]]
    for _ in range(max_len):
        nxt = []
        for seq in frontier:
            for g in letters:
                if seq and seq[-1] == -g:
                    continue
                nxt.append(seq + [g])
        for seq in nxt:
            yield free_reduce(alphabet, seq)
        frontier = nxt
