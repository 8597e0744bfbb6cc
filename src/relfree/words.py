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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import AlphabetMismatch, BudgetExceeded, EmptyWord, InvalidLetter

# Letter materialization is opt-in; this guards accidental expansion of
# words whose RLE exponents are astronomically large.
DEFAULT_LETTER_BUDGET = 10_000_000


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet a1..am together with formal inverses."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidLetter(f"alphabet needs at least one generator, got m={self.m}")

    def check_letter(self, g: int) -> int:
        if not isinstance(g, int) or g == 0 or abs(g) > self.m:
            raise InvalidLetter(f"letter {g!r} outside alphabet of {self.m} generators")
        return g

    def generators(self) -> list["Word"]:
        return [Word.generator(self, k) for k in range(1, self.m + 1)]


def letter_key(g: int) -> tuple[int, int]:
    """Sort key realizing the letter order a1 < a1^-1 < a2 < a2^-1 < ..."""
    return (abs(g), 0 if g > 0 else 1)


def _check_same_alphabet(u: "Word", v: "Word") -> Alphabet:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {u.alphabet} vs {v.alphabet}")
    return u.alphabet


def _append_runs(acc: list, runs) -> None:
    """Append a reduced run sequence to a reduced run stack, reducing the seam.

    Both inputs must individually be freely reduced; cancellation can then
    only cascade at the junction, so everything past it is bulk-extended.
    """
    i = 0
    n = len(runs)
    while acc and i < n:
        g, e = runs[i]
        tg, te = acc[-1]
        if tg != g:
            break
        s = te + e
        if s == 0:
            acc.pop()
            i += 1
        else:
            acc[-1] = (tg, s)
            i += 1
            break
    if i:
        acc.extend(runs[i:])
    else:
        acc.extend(runs)


def _tile_runs(runs, k: int) -> list:
    """Concatenate ``k >= 1`` copies of a cyclically reduced run sequence."""
    if not runs:
        return []
    if len(runs) == 1:
        g, e = runs[0]
        return [(g, e * k)]
    fg, fe = runs[0]
    lg, le = runs[-1]
    if fg != lg:
        return list(runs) * k
    # Same generator on both ends; cyclic reducedness makes the signs equal,
    # so copies merge at the seam without cancellation.
    mid = list(runs[1:-1])
    return [runs[0]] + mid + ([(fg, fe + le)] + mid) * (k - 1) + [runs[-1]]


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
        return ((g, e + runs[-1][1]),) + runs[1:-1]
    return runs


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
        return cls(alphabet, ((k, exponent),))

    @classmethod
    def _from_run_list(cls, alphabet: Alphabet, runs: list) -> "Word":
        return cls(alphabet, tuple(runs))

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        """Parse the text format; the input is freely reduced on the way in.

        >>> ab = Alphabet(2)
        >>> str(Word.parse(ab, "a1^3 a2^-1 a1"))
        'a1^3 a2^-1 a1'
        >>> str(Word.parse(ab, "a1 a1^-1"))
        '1'
        """
        tokens = text.split()
        if tokens == ["1"]:
            return cls.identity(alphabet)
        acc: list = []
        for tok in tokens:
            body = tok
            exponent = 1
            if "^" in tok:
                body, _, etext = tok.partition("^")
                try:
                    exponent = int(etext)
                except ValueError:
                    raise InvalidLetter(f"bad exponent in token {tok!r}") from None
            if not body.startswith("a"):
                raise InvalidLetter(f"bad token {tok!r}")
            try:
                k = int(body[1:])
            except ValueError:
                raise InvalidLetter(f"bad token {tok!r}") from None
            if k < 1 or k > alphabet.m:
                raise InvalidLetter(f"generator a{k} outside alphabet of {alphabet.m}")
            if exponent != 0:
                _append_runs(acc, ((k, exponent),))
        return cls._from_run_list(alphabet, acc)

    # -- queries ------------------------------------------------------

    @property
    def letter_length(self) -> int:
        """Total letter count sum(|exponent|), computed without materializing letters."""
        if self._len is None:
            self._len = sum(abs(e) for _, e in self.runs)
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
        """Map of generator index to its signed exponent sum (cached)."""
        if self._sums is None:
            sums: dict = {}
            for g, e in self.runs:
                sums[g] = sums.get(g, 0) + e
            self._sums = sums
        return self._sums

    def to_letters(self, limit: int | None = DEFAULT_LETTER_BUDGET) -> list[int]:
        """Materialize the signed-letter sequence.  Guarded by ``limit``."""
        if limit is not None and self.letter_length > limit:
            raise BudgetExceeded(
                f"word has {self.letter_length} letters, over the budget of {limit}")
        out: list[int] = []
        for g, e in self.runs:
            out.extend([g if e > 0 else -g] * abs(e))
        return out

    def letter_at(self, i: int) -> int:
        """Signed letter at position ``i`` without materializing the word."""
        if i < 0 or i >= self.letter_length:
            raise IndexError(i)
        for g, e in self.runs:
            a = abs(e)
            if i < a:
                return g if e > 0 else -g
            i -= a
        raise IndexError(i)  # pragma: no cover

    def prefix(self, length: int) -> "Word":
        """The first ``length`` letters as a word (necessarily reduced)."""
        if length < 0 or length > self.letter_length:
            raise IndexError(length)
        acc: list = []
        need = length
        for g, e in self.runs:
            if need == 0:
                break
            a = abs(e)
            take = min(a, need)
            acc.append((g, take if e > 0 else -take))
            need -= take
        return Word._from_run_list(self.alphabet, acc)

    # -- dunder sugar ---------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, k: int) -> "Word":
        return power(self, k)

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
        return " ".join(f"a{g}" if e == 1 else f"a{g}^{e}" for g, e in self.runs)

    def __repr__(self) -> str:
        return f"Word({self})"


@dataclass(frozen=True)
class CyclicWord:
    """Canonical representative of a conjugacy class in the free group.

    ``rep`` is the cyclically reduced core rotated to its shortlex-least
    position; two words are conjugate iff their CyclicWords are equal.
    """

    rep: Word

    def __str__(self) -> str:
        return str(self.rep)


# -- elementary operations ---------------------------------------------


def free_reduce(alphabet: Alphabet, letters: Iterable[int]) -> Word:
    """Reduce a signed-letter sequence to its unique normal form.

    >>> ab = Alphabet(2)
    >>> str(free_reduce(ab, [1, -1]))
    '1'
    >>> str(free_reduce(ab, [1, 2, -2, 1]))
    'a1^2'
    """
    acc: list = []
    for g in letters:
        alphabet.check_letter(g)
        run = (g, 1) if g > 0 else (-g, -1)
        _append_runs(acc, (run,))
    return Word._from_run_list(alphabet, acc)


def concat(u: Word, v: Word) -> Word:
    ab = _check_same_alphabet(u, v)
    acc = list(u.runs)
    _append_runs(acc, v.runs)
    return Word._from_run_list(ab, acc)


def concat_all(words: Iterable[Word]) -> Word:
    """Product of several words, reduced once along the way."""
    acc: list = []
    ab = None
    for w in words:
        if ab is None:
            ab = w.alphabet
        elif ab != w.alphabet:
            raise AlphabetMismatch("mixed alphabets in product")
        _append_runs(acc, w.runs)
    if ab is None:
        raise EmptyWord("empty product has no alphabet")
    return Word._from_run_list(ab, acc)


def invert(u: Word) -> Word:
    return Word(u.alphabet, tuple((g, -e) for g, e in reversed(u.runs)))


def _power_runs(core: tuple, conj: tuple, k: int) -> list:
    """Runs of (conj core conj^-1)^k = conj core^k conj^-1 for a nonempty
    cyclically reduced ``core`` and ``k != 0``."""
    if k < 0:
        core, k = tuple((g, -e) for g, e in reversed(core)), -k
    tiled = _tile_runs(core, k)
    if not conj:
        return tiled
    out = list(conj)
    _append_runs(out, tiled)
    _append_runs(out, tuple((g, -e) for g, e in reversed(conj)))
    return out


class _PowerFactory:
    """Run sequences of powers of a fixed word, sharing one cyclic reduction."""

    def __init__(self, w: Word):
        core, conj = cyclic_reduce(w)
        self._core = core.runs
        self._conj = conj.runs
        self._cache: dict[int, list] = {}

    def runs(self, k: int) -> list:
        if k == 0 or not self._core:
            return []
        got = self._cache.get(k)
        if got is None:
            got = self._cache[k] = _power_runs(self._core, self._conj, k)
        return got


def power(u: Word, k: int) -> Word:
    """u**k, computed through the cyclically reduced core so that huge k
    costs no more than the final size (a single run for single-run cores)."""
    if k == 0 or u.is_empty:
        return Word.identity(u.alphabet)
    if k == 1:
        return u
    core, conj = cyclic_reduce(u)
    return Word._from_run_list(u.alphabet, _power_runs(core.runs, conj.runs, k))


def conjugate(u: Word, by: Word) -> Word:
    """by * u * by^-1, freely reduced."""
    ab = _check_same_alphabet(u, by)
    acc = list(by.runs)
    _append_runs(acc, u.runs)
    _append_runs(acc, invert(by).runs)
    return Word._from_run_list(ab, acc)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1 (this sign convention, not inverses first)."""
    ab = _check_same_alphabet(u, v)
    acc = list(u.runs)
    _append_runs(acc, v.runs)
    _append_runs(acc, invert(u).runs)
    _append_runs(acc, invert(v).runs)
    return Word._from_run_list(ab, acc)


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
    runs however long the conjugator is."""
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
            conj.append((g1, e1))
            i += 1
            j -= 1
        elif abs(e1) < abs(e2):
            conj.append((g1, e1))
            core = runs[i + 1:j] + ((g2, e1 + e2),)
            break
        else:
            conj.append((g1, -e2))
            core = ((g1, e1 + e2),) + runs[i + 1:j]
            break
    return (
        Word(u.alphabet, runs[i:j + 1] if core is None else core),
        Word._from_run_list(u.alphabet, conj),
    )


def canonical_cyclic(u: Word) -> CyclicWord:
    """Shortlex-least rotation of the cyclically reduced core.

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
        return CyclicWord(core)
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
    return CyclicWord(Word(u.alphabet, runs[i:] + runs[:i]))


def conjugate_in_free(u: Word, v: Word) -> bool:
    """True iff u and v are conjugate in the free group."""
    _check_same_alphabet(u, v)
    return canonical_cyclic(u) == canonical_cyclic(v)


def primitive_root(u: Word) -> tuple[Word, int]:
    """Write a cyclically reduced u as root**k with k maximal.

    u is a k-th power iff the cyclic word it reads is invariant under a
    rotation by |u|/k letters, which carries runs to runs: iff its runs, read
    cyclically with the seam joined, are a block of runs repeated k times.
    The smallest period p of that run tuple comes from the KMP failure
    function, and k = N / p when p divides the number N of runs, else 1; a
    single run (g, e) is a_g^(+-1) to the power |e|.  Time is linear in the
    number of runs, whatever the exponents.

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
    return u.prefix(u.letter_length // k), k


# -- conjugacy witnesses --------------------------------------------------


def _encode_letters(letters) -> str:
    # chr() mapping gives C-speed substring search through str.find; letters
    # a_k, a_k^-1 become code points 2k, 2k+1, one byte each while k < 128
    return "".join(chr(2 * g if g > 0 else 1 - 2 * g) for g in letters)


def _is_cyclic_shift(enc: str, doubled: str) -> bool:
    """Whether the encoded word ``enc`` is a cyclic shift of the word b whose
    encoding, doubled, is ``doubled``: |enc| = |b| and enc occurs in bb."""
    return 2 * len(enc) == len(doubled) and enc in doubled


def conjugacy_witnesses(u: Word, v: Word, letter_budget: int = DEFAULT_LETTER_BUDGET):
    """Yield words W with u = W v W^-1, one per cyclic alignment of the cores."""
    _check_same_alphabet(u, v)
    core_u, cu = cyclic_reduce(u)
    core_v, cv = cyclic_reduce(v)
    if core_u.letter_length != core_v.letter_length:
        return
    if core_u.is_empty:
        if core_v.is_empty:
            yield Word.identity(u.alphabet)
        return
    lu = _encode_letters(core_u.to_letters(letter_budget))
    lv = _encode_letters(core_v.to_letters(letter_budget))
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

    All witnesses form a coset W0 <rho> with rho generating the centralizer
    of v, so per alignment it suffices to sweep |k| up to the point where
    |W0 rho^k| >= k|root| - 2|conj| - |W0| already exceeds |W0|: anything
    longer than its own base cannot be the global minimum.
    """
    base = list(conjugacy_witnesses(u, v))
    if not base:
        return None
    core_v, cv = cyclic_reduce(v)
    best = None
    if core_v.is_empty:
        cands = base
    else:
        root, _ = primitive_root(core_v)
        rho = conjugate(root, cv)
        cands = []
        for w0 in base:
            cands.append(w0)
            kmax = (2 * w0.letter_length + 2 * cv.letter_length) \
                // root.letter_length + 1
            for k in range(1, kmax + 1):
                cands.append(concat(w0, power(rho, k)))
                cands.append(concat(w0, power(rho, -k)))
    for w in cands:
        if best is None or _shortlex_less(w, best):
            best = w
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
    letters = sorted(
        [g for k in range(1, alphabet.m + 1) for g in (k, -k)], key=letter_key)
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
