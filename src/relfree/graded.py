"""Rank-by-rank presentation machinery at desk scale.

Rank i contributes a maximal set of length-i *periods* (cyclically reduced,
primitive, pairwise non-conjugate even up to inversion) and a set of
relators, each an interleaved power word around one period.  Periods and
pair classes are taken up to conjugacy in the rank-(i-1) group, which is
free at every rank desk scale can enumerate (relators land at ranks 77 and
308 at (h, d, n) = (20, 2, 3)), so exact free-group algebra decides them.

Relators found by pair classification live at the rank equal to their
period's length.  Those ranks are usually far beyond anything exhaustively
enumerable, so the presentation stores them sparsely and records the
provenance ("enumerated" ranks carry maximal period sets, "classified"
ranks only the periods that classification actually produced).
"""

from __future__ import annotations

import heapq
import shlex
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import (
    BudgetExceeded,
    EmptyInput,
    EmptyWord,
    InvalidParams,
    RankTooSmall,
    RelfreeError,
    WitnessNotFound,
    ZeroExponent,
    content_lines,
    fields_after,
    named_values,
    open_text,
    split_fields,
)
from .verbal import ParamSet, make_v, make_w, slot_schedule
from .words import (
    Alphabet,
    Word,
    _check_encodable,
    _decode_letters,
    _encode_letters,
    _encode_word,
    _is_cyclic_shift,
    _seam_merged,
    canonical_cyclic,
    commutator,
    concat,
    concat_all,
    conjugacy_witnesses,
    conjugate,
    cyclic_reduce,
    enumerate_reduced_words,
    free_reduce,
    invert,
    minimal_conjugacy_witness,
    power,
    primitive_root,
    shortlex_key,
    substitute,
)

DEFAULT_DEHN_BUDGET = 10_000
_PERIOD_BUDGET = 10 ** 6  # reduced words of the top rank that period enumeration may visit
_PIECE_BUDGET = 2_000_000  # total letters across the materialized symmetrized set
_SCAN_BUDGET = 2 * 10 ** 9  # letters of doubled entries that one Dehn call may search


# -- Dehn rewriting --------------------------------------------------------


@dataclass(frozen=True)
class DehnStep:
    """One replacement: the matched prefix of a rotated relator (or inverse).

    ``letters[pos : pos + matched]`` equals the first ``matched`` letters of
    relator ``relator_index`` (inverted when ``sign`` is -1) rotated left by
    ``offset``; it is replaced by the inverse of the remaining letters.
    """

    pos: int
    matched: int
    relator_index: int
    sign: int
    offset: int


@dataclass(frozen=True)
class DehnResult:
    word: Word
    steps: tuple[DehnStep, ...]
    exhausted: bool


class _RelatorTable:
    """The symmetrized relator set, as doubled strings for substring search.

    Relators are replaced by their cyclic cores (the normal closure is the
    same and the symmetrized set is built from cyclic words anyway); each
    core and its inverse is one entry.  Entry ``k`` is relator ``k >> 1``,
    inverted when ``k`` is odd, so an entry's inverse is entry ``k ^ 1``.
    Building the table reduces the cores, measures and groups them by length
    and checks that they can be encoded; an entry is encoded from its runs,
    with its inverse and its least period p (rotating it by p gives it back),
    the first time :meth:`doubled` is asked for it, and only then held to the
    letter budget, by :func:`relfree.words._encode_word`.  A step over n
    letters matches more than half of an entry, so entries of 2n letters or
    more are never encoded for it.  Dehn rewriting, pieces and certificates
    read relator shifts from this table; :meth:`alignments` searches it for
    blocks."""

    def __init__(self, relators: Iterable[Word]):
        self.cores = []
        for idx, r in enumerate(relators):
            core, _ = cyclic_reduce(r)
            if core.is_empty:
                raise EmptyWord(f"relator {idx} is freely trivial")
            _check_encodable(core)
            self.cores.append(core)
        if not self.cores:
            raise EmptyInput("need at least one relator")
        self.lengths = [core.letter_length for core in self.cores for _ in (1, -1)]
        self.keys = {(k >> 1, -1 if k & 1 else 1): k for k in range(len(self.lengths))}
        self.shortest, self.longest = min(self.lengths), max(self.lengths)
        self.groups: dict[int, list[int]] = {}  # entry length -> entries, in order
        for k, rlen in enumerate(self.lengths):
            self.groups.setdefault(rlen, []).append(k)
        self._doubled: list[str | None] = [None] * len(self.lengths)
        self.periods: dict[int, int] = {}  # encoded entry -> p

    @classmethod
    def of(cls, relators: Iterable[Word] | _RelatorTable) -> _RelatorTable:
        return relators if isinstance(relators, _RelatorTable) else cls(relators)

    def doubled(self, k: int) -> str:
        """Entry ``k`` encoded and doubled; encodes it and its inverse on first use."""
        got = self._doubled[k]
        if got is None:
            enc = _encode_word(self.cores[k >> 1])
            # the inverse is the reverse with each code swapped for its
            # inverse's (a_k, a_k^-1 are 2k, 2k+1); the swap covers every
            # code of enc, hence of its reverse, and runs at C speed where
            # _encode_word(invert(core)) would invert and encode the runs again
            inv = enc[::-1].translate({c: c ^ 1 for c in map(ord, set(enc))})
            self._doubled[k & ~1], self._doubled[k | 1] = enc + enc, inv + inv
            self.periods[k & ~1] = self.periods[k | 1] = self._doubled[k].find(enc, 1)
            got = self._doubled[k]
        return got

    def reads_relator(self, letters) -> bool:
        """Whether ``letters`` is a cyclic shift of an entry."""
        enc = _encode_letters(letters)
        return any(_is_cyclic_shift(enc, self.doubled(k)) for k in self.groups.get(len(enc), ()))

    def alignments(self, enc: str, s: int, q: int, rlen: int, lower: int):
        """Yield (k, a, b, offset) for each entry k of ``rlen`` letters and each
        rotation of it, by ``offset`` letters, that reads ``enc[s:s+q]`` from
        ``s - a`` on: ``enc[a:b]`` is that block extended both ways along the
        rotation, by slice comparison, to ``lower`` and ``rlen`` letters at most.
        Of an entry rho^j only the rotations by less than |rho| are tried."""
        block, n = enc[s:s + q], len(enc)
        for k in self.groups[rlen]:
            doubled = self._doubled[k] or self.doubled(k)
            p = self.periods[k]
            h = doubled.find(block, 0, p + q - 1)  # hits below p: one per rotation
            while h != -1:
                # read back from h + rlen, the same rotation one period on
                back = (_agreement(enc, s, doubled, h + rlen, min(s - lower, rlen - q), -1)
                        if s > lower and enc[s - 1] == doubled[h + rlen - 1] else 0)
                b = s + q
                if b < n and b - s + back < rlen and enc[b] == doubled[h + q]:
                    b += _agreement(enc, b, doubled, h + q, min(n - b, rlen - q - back), 1)
                yield k, s - back, b, (h - back) % p
                h = doubled.find(block, h + 1, p + q - 1)

    def best_match(self, enc: str, start: int = 0, allowance: int = _SCAN_BUDGET):
        """The Dehn step at the leftmost position from ``start`` on where more
        than half of an entry matches, and the ``allowance`` left; no match may
        start before ``start``.  For entries of L letters, q = L // 4 + 1: a
        match covers at least L // 2 + 1 >= 2q - 1 letters, so it holds the
        block at the first multiple of q from its start on, whose alignment
        starts where the match does.  The blocks of all lengths are sought in
        order, each costing 2L letters of allowance per entry it is sought in
        and per hit, until no later block can give an earlier start; ties go
        as in :func:`dehn_reduce_trace`.  The step is (pos, matched,
        relator_index, sign, offset, replacement), or None when there is none
        or the allowance ran out (it is then negative)."""
        n = len(enc)
        best = (n,)  # or (pos, rlen - 2 * matched, entry, offset, matched, rlen): least wins
        # one sweep of blocks per entry length, all taken in block order
        sweeps = sorted((-(-start // q) * q, q, rlen) for rlen in self.groups if 2 * n > rlen
                        for q in [rlen // 4 + 1])  # sorted, so a heap
        while sweeps and allowance >= 0:
            s, q, rlen = sweeps[0]
            if s + q > n or s >= best[0] + q:
                heapq.heappop(sweeps)
                continue
            allowance -= 2 * rlen * len(self.groups[rlen])
            for k, a, b, offset in self.alignments(enc, s, q, rlen, start):
                allowance -= 2 * rlen  # its extension compares fewer letters
                if allowance < 0:
                    break
                if 2 * (b - a) > rlen:
                    best = min(best, (a, rlen - 2 * (b - a), k, offset, b - a, rlen))
            heapq.heapreplace(sweeps, (s + q, q, rlen))
        if best[0] == n or allowance < 0:
            return None, allowance
        pos, _, k, offset, matched, rlen = best
        # the inverse of the rest doubled[offset+matched:offset+rlen] of the
        # rotated entry is a slice of the opposite entry's doubled string
        start = (rlen - offset) % rlen
        replacement = self._doubled[k ^ 1][start:start + rlen - matched]
        return (pos, matched, k >> 1, -1 if k & 1 else 1, offset, replacement), allowance


def _agreement(x: str, i: int, y: str, j: int, cap: int, way: int) -> int:
    """How many letters (at most ``cap``) x and y agree on, forwards from x[i]
    and y[j] when ``way`` is 1, backwards from just before them when it is -1:
    all ``cap`` at once first, then slices of 1, 2, 4, ... letters."""
    lo, hi, step = 0, cap, cap
    while lo < hi:
        m = min(lo + step, hi)
        if (x[i + lo:i + m] == y[j + lo:j + m] if way > 0
                else x[i - m:i - lo] == y[j - m:j - lo]):
            lo, step = m, 2 * step
        else:
            hi, step = m - 1, 1
    return lo


def _join_reduced(u: str, v: str) -> tuple[str, int]:
    """The reduced encoding of uv, for reduced encodings u and v, and the
    number of letters that cancelled from each: only letters at the seam can."""
    k, top = 0, min(len(u), len(v))
    while k < top and ord(u[-1 - k]) ^ 1 == ord(v[k]):
        k += 1
    return u[:len(u) - k] + v[k:], k


def dehn_reduce_trace(w: Word, relators: list[Word] | _RelatorTable,
                      budget: int = DEFAULT_DEHN_BUDGET) -> DehnResult:
    """Greedy half-replacement loop with a recorded trace.

    Policy: leftmost replaceable position, then the longest match, ties by
    relator index, original relator before inverse, smallest rotation.
    Result length never grows; on a C'(1/6) set an empty result is exactly
    the identity certificate (classical guarantee, relied on, not proved).
    The word is rewritten in its encoding and decoded once, at the end.

    Each step is :meth:`_RelatorTable.best_match`; a new match holds at most
    half an entry before the first letter that changed, so the search starts
    again floor(longest / 2) letters before it.  ``budget`` bounds the steps
    and ``_SCAN_BUDGET`` the searches and extensions; ``exhausted`` says one ran out.
    """
    table = _RelatorTable.of(relators)
    enc = _encode_word(w)
    steps: list[DehnStep] = []
    start, allowance, exhausted = 0, _SCAN_BUDGET, False
    while enc:
        if len(steps) >= budget:
            exhausted = True
            break
        got, allowance = table.best_match(enc, start, allowance)
        if got is None:
            exhausted = allowance < 0
            break
        pos, matched, idx, sign, offset, replacement = got
        steps.append(DehnStep(pos, matched, idx, sign, offset))
        # prefix, replacement and suffix are each reduced; the joins cut the prefix
        head, lost = _join_reduced(enc[:pos], replacement)
        enc, cut = _join_reduced(head, enc[pos + matched:])
        start = max(0, min(pos - lost, len(head) - cut) - table.longest // 2)
    return DehnResult(free_reduce(w.alphabet, _decode_letters(enc)), tuple(steps), exhausted)


# -- small cancellation metrics ---------------------------------------------


def piece_stats(relators: list[Word]) -> tuple[int, Fraction]:
    """Longest common prefix between distinct symmetrized elements, and the
    ratio lambda = (that length) / (shortest relator length).

    Relators are taken as their cyclic cores, as in :class:`_RelatorTable`,
    and each rotation of an entry is a slice of its doubled string."""
    table = _RelatorTable(relators)
    total = sum(n * n for n in table.lengths)
    if total > _PIECE_BUDGET:
        raise BudgetExceeded(
            f"symmetrized set would hold {total} letters, over {_PIECE_BUDGET}")
    ordered = sorted({table.doubled(k)[o:o + n]
                      for k, n in enumerate(table.lengths) for o in range(n)})
    max_piece = max((_agreement(a, 0, b, 0, min(len(a), len(b)), 1)
                     for a, b in zip(ordered, ordered[1:])), default=0)
    return max_piece, Fraction(max_piece, table.shortest)


# -- presentation data ------------------------------------------------------


@dataclass(frozen=True)
class RelatorRecord:
    """One relator as its template: the slot schedule of ``z_star`` with
    v_(z*-1)(X, U), A^f and U in it, so relator = w_z*(X, U) when A^f =
    v_z*(X, U).  No word is stored: :attr:`relator` builds it on each read,
    and records are equal when their templates are."""

    z_star: int
    A: Word
    f: int
    j: int
    X: Word
    U: Word
    params: ParamSet

    @property
    def rank(self) -> int:
        return self.A.letter_length

    @property
    def relator(self) -> Word:
        """The relator word, built from the template on every read."""
        images = (make_v(self.z_star - 1, self.X, self.U, self.params),
                  power(self.A, self.f), self.U)
        return substitute(slot_schedule(self.z_star, self.params), images, self.A.alphabet)


@dataclass
class RankData:
    periods: list[Word] = field(default_factory=list)
    provenance: str = "enumerated"
    relators: list[RelatorRecord] = field(default_factory=list)


@dataclass
class GradedPresentation:
    alphabet: Alphabet
    params: ParamSet
    ranks: dict[int, RankData] = field(default_factory=dict)

    def rank_data(self, i: int, provenance: str = "enumerated") -> RankData:
        if i not in self.ranks:
            self.ranks[i] = RankData(provenance=provenance)
        return self.ranks[i]

    def relators_up_to(self, i: int) -> list[Word]:
        return [rec.relator for rec in self.all_relators() if rec.rank <= i]

    def all_relators(self) -> list[RelatorRecord]:
        return [rec for idx in sorted(self.ranks) for rec in self.ranks[idx].relators]


# -- periods ----------------------------------------------------------------


def periods_rank(pres: GradedPresentation, i: int) -> list[Word]:
    """Maximal period set of rank i.

    Candidates run in shortlex order; each must be primitive (not conjugate
    to a power of anything shorter) and not conjugate to an earlier kept
    period or its inverse.
    """
    if i < 1:
        raise InvalidParams("rank must be positive")
    kept: list[Word] = []
    taken: set = set()  # conjugacy classes of the kept periods and their inverses
    for cand in enumerate_reduced_words(pres.alphabet, i, include_empty=False):
        if cand.letter_length != i or not cand.is_cyclically_reduced():
            continue
        if primitive_root(cand)[1] != 1 or (key := canonical_cyclic(cand)) in taken:
            continue
        kept.append(cand)
        taken.update((key, canonical_cyclic(invert(cand))))
    return kept


# -- pair classification ------------------------------------------------------


def _axis_prefix(runs: tuple, root: tuple) -> int:
    """Number of leading letters that ``runs`` shares with root root root ...
    for a nonempty cyclically reduced run tuple ``root``."""
    if not runs:
        return 0
    expected = root[0]
    if len(root) == 1:  # root^infinity is one unbounded run
        g, e = runs[0]
        return abs(e) if g == expected[0] and (e > 0) == (expected[1] > 0) else 0
    # past its first run, root^infinity repeats the cyclic runs from the second
    cyclic = _seam_merged(root)
    cycle = cyclic[1:] + cyclic[:1]
    d = 0
    i = 0
    for g, e in runs:
        if (g, e) != expected:
            if g == expected[0] and (e > 0) == (expected[1] > 0):
                d += min(abs(e), abs(expected[1]))
            return d
        d += abs(e)
        expected = cycle[i]
        i = (i + 1) % len(cycle)
    return d


def _axis_index(z: Word, root: Word) -> int:
    """floor(p / |root|), with p the signed letter count that z shares with
    root root ... (p > 0) or with root^-1 root^-1 ... (p < 0).

    p is the position, on the axis of the cyclically reduced root through
    the identity, of the point where the path of z leaves that axis; the
    first letter of z picks at most one of the two directions."""
    n = root.letter_length
    p = _axis_prefix(z.runs, root.runs) or -_axis_prefix(z.runs, invert(root).runs)
    return p // n


def _pair_conjugacy_witness(u1: Word, w1: Word, u2: Word, w2: Word) -> Word | None:
    """Free-group W with u1 = W u2 W^-1 and w1 = W w2 W^-1, if one exists;
    u2 must be nonempty.

    With u2 = c r^m c^-1 and r primitive, the solutions of the first
    equation are w0 rho^k, rho = c r c^-1, for any one solution w0.  The
    second equation then reads x = r^k y r^-k, with x = c^-1 w0^-1 w1 w0 c
    and y = c^-1 w2 c.  When y is not a power of r, y and y r^-k lie on the
    axis of y r y^-1, which meets the axis of r in fewer than |r| letters
    (an overlap of |r| letters would make r^-1 y r^(+-1) y^-1 fix a point,
    and the free action would force y into <r>).  So x = r^k (y r^-k) leaves
    the axis of r k|r| letters, give or take fewer than |r|, further along
    than y does, and k is within one of :func:`_axis_index` (x) minus
    :func:`_axis_index` (y).  When y is a power of r, x must equal y and
    k = 0 serves.  Each candidate k is checked by one conjugation, so a
    returned W is always a solution.
    """
    w0 = next(conjugacy_witnesses(u1, u2), None)
    if w0 is None:
        return None
    core2, c = cyclic_reduce(u2)
    root, _ = primitive_root(core2)
    c_inv = invert(c)
    x = concat_all([c_inv, invert(w0), w1, w0, c])
    y = concat_all([c_inv, w2, c])
    d = _axis_index(x, root) - _axis_index(y, root)
    for k in (d, d - 1, d + 1):
        rk = power(root, k)
        if concat_all([rk, y, invert(rk)]) == x:
            return concat_all([w0, c, rk, c_inv])
    return None


@dataclass(frozen=True)
class ClassifyResult:
    classes: tuple[RelatorRecord, ...]
    discarded_trivial: int


def classify_pairs(pres: GradedPresentation, z_star: int, L: int) -> ClassifyResult:
    """Partition pairs (X, Y) with |X|, |Y| <= L into joint conjugacy classes
    of their (v, w) values in the free group, discarding pairs with w = 1.

    Two facts (Lyndon-Schupp I) class the pairs themselves.  w_z*(x, y) = 1
    exactly when x and y commute: commuting x, y lie in one cyclic group,
    where w_z* vanishes by its zero exponent sums, and non-commuting x, y
    freely generate a free group of rank 2, where w_z* and v_z* are nonempty
    reduced words.  And a joint conjugator of (x, y) conjugates (v, w) too,
    so each (v, w) class is a union of (x, y) classes.  So pairs with
    xy = yx are discarded, the others are classed by joint conjugacy within
    buckets of conjugate [x, y], v_z* is built only for each class's least
    pair, and w_z* only to merge two classes whose v values are conjugate.

    Each class becomes one relator record, attached to ``pres`` at rank |A|
    and returned.  Its key is its shortlex-least member pair (x0, y0); j
    indices within one (period, exponent) group follow key order.  With
    x0 = g X g^-1 and X cyclically reduced, y_bar = g^-1 y0 g, and W the
    minimal witness of v_z*(X, y_bar) = W A^f W^-1, the record's slot words
    are X' = W^-1 X W and U = W^-1 y_bar W, so v_z*(X', U) = A^f.
    """
    if z_star not in (1, 2):
        raise InvalidParams(f"z* must be 1 or 2, got {z_star}")
    p = pres.params

    def joint(u1, w1, u2, w2):
        return _pair_conjugacy_witness(u1, w1, u2, w2) is not None

    # pairs come in key order, so the first of each class is its least
    words_pool = sorted(enumerate_reduced_words(pres.alphabet, L), key=shortlex_key)
    discarded = 0
    by_commutator: dict = {}
    by_v: dict = {}  # (slot words (X, y_bar), v value) of each class, by v's class
    least = []
    for x in words_pool:
        for y in words_pool:
            if concat(x, y) == concat(y, x):
                discarded += 1
                continue
            near = by_commutator.setdefault(canonical_cyclic(commutator(x, y)), [])
            if any(joint(*xy, x, y) for xy in near):
                continue
            near.append((x, y))
            core_x, gx = cyclic_reduce(x)
            slots = (core_x, conjugate(y, invert(gx)))
            v_rep = make_v(z_star, *slots, p)
            # v is conjugate to root^k: its class is (least rotation of root, k)
            root, k = primitive_root(cyclic_reduce(v_rep)[0])  # EmptyWord if v = 1
            power_class = (canonical_cyclic(root), k)
            same_v = by_v.setdefault(power_class, [])
            if same_v:  # no class value met so far is conjugate to another's
                w_rep = make_w(z_star, *slots, p)
                if any(joint(v, make_w(z_star, *xu, p), v_rep, w_rep) for xu, v in same_v):
                    continue
            same_v.append((slots, v_rep))
            least.append(((x, y), slots, v_rep, power_class))

    # in key order: periods and records are added to pres, and j counts
    # within each (A, f) group, in that order
    least.sort(key=lambda c: (str(c[0][0]), str(c[0][1])))
    registry = _PeriodRegistry(pres)
    counters: dict[tuple[str, int], int] = {}
    classes = []
    for (x0, y0), slots, v_rep, power_class in least:
        a_word, f_val = registry.resolve(*power_class)
        witness = minimal_conjugacy_witness(v_rep, power(a_word, f_val))
        if witness is None:
            raise WitnessNotFound("no conjugator from the period power to the class "
                                  f"value {(str(x0), str(y0))}")
        jkey = (str(a_word), f_val)
        counters[jkey] = counters.get(jkey, 0) + 1
        w_inv = invert(witness)
        x_word, u_word = (concat_all([w_inv, v, witness]) for v in slots)
        rec = build_relator(z_star, a_word, f_val, x_word, u_word, p, j=counters[jkey])
        pres.rank_data(rec.rank, provenance="classified").relators.append(rec)
        classes.append(rec)
    return ClassifyResult(tuple(classes), discarded)


class _PeriodRegistry:
    """Canonical period chooser honoring the no-conjugate-duplicates rule."""

    def __init__(self, pres: GradedPresentation):
        self.pres = pres
        self._by_class: dict = {}
        for data in pres.ranks.values():
            for a_word in data.periods:
                self._by_class[canonical_cyclic(a_word)] = a_word

    def resolve(self, cw: Word, k: int) -> tuple[Word, int]:
        """Period A and exponent f with A^f conjugate to r^k, for a primitive
        r of least rotation ``cw``."""
        cwi = canonical_cyclic(invert(cw))
        if cw in self._by_class:
            return self._by_class[cw], k
        if cwi in self._by_class:
            return self._by_class[cwi], -k
        sign, a_word = (1, cw) if shortlex_key(cw) <= shortlex_key(cwi) else (-1, cwi)
        self._by_class[a_word] = a_word
        data = self.pres.rank_data(a_word.letter_length, provenance="classified")
        data.periods.append(a_word)
        return a_word, sign * k


# -- relators ----------------------------------------------------------------


def build_relator(z_star: int, a_word: Word, f: int, x_word: Word, u_word: Word,
                  p: ParamSet, j: int = 1) -> RelatorRecord:
    """Check and record the rank-(|A|) relator template for one classified
    pair class; no relator word is built.

    Refuses a template z* outside {1, 2}, f = 0, an empty A, X or U, and a
    slot schedule over the run budget (exit 3).  The paper's magnitude bounds
    on A, X, U and f are not checked: toy parameters break them, and no
    verdict reads them."""
    next(slot_schedule(z_star, p))  # its first run checks z* and the slot count
    if f == 0:
        raise ZeroExponent("the period exponent multiplier f must be nonzero")
    if a_word.is_empty:
        raise EmptyWord("the period must be nonempty")
    if x_word.is_empty or u_word.is_empty:
        raise EmptyInput("the conjugated slot words X and U must be nonempty")
    return RelatorRecord(z_star, a_word, f, j, x_word, u_word, p)


# -- presentation building and serialization ---------------------------------


def build_presentation(alphabet: Alphabet, p: ParamSet, max_rank: int = 2,
                       pair_budget: int = 1) -> GradedPresentation:
    """Enumerate periods up to ``max_rank`` and attach all relators found by
    classifying pairs up to ``pair_budget`` letters per coordinate.

    Raises :class:`RankTooSmall` below two generators, and :class:`BudgetExceeded`
    when rank ``max_rank`` has more than ``_PERIOD_BUDGET`` reduced words,
    2m (2m - 1)^(max_rank - 1) of them, both before enumerating anything."""
    m = alphabet.m  # past 40 factors of 2m - 1 >= 3 the count is over the budget anyway
    if m < 2:
        raise RankTooSmall("the construction needs rank at least 2")
    if max_rank > 0 and 2 * m * (2 * m - 1) ** min(max_rank - 1, 40) > _PERIOD_BUDGET:
        raise BudgetExceeded(f"rank {max_rank} has more reduced words than the period "
                             f"budget of {_PERIOD_BUDGET}")
    pres = GradedPresentation(alphabet=alphabet, params=p)
    for i in range(1, max_rank + 1):
        pres.rank_data(i).periods = periods_rank(pres, i)
    for z_star in (1, 2):
        classify_pairs(pres, z_star, pair_budget)
    return pres


# -- text serialization -------------------------------------------------------


def save_presentation(pres: GradedPresentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"alphabet {pres.alphabet.m}\n")
        fh.write(f"params h={pres.params.h} d={pres.params.d} n={pres.params.n}\n")
        fh.write("mode toy\n")
        for idx in sorted(pres.ranks):
            data = pres.ranks[idx]
            fh.write(f"rank {idx} provenance={data.provenance}\n")
            for a_word in data.periods:
                fh.write(f"period {shlex.quote(str(a_word))}\n")
            for rec in data.relators:
                fh.write(
                    "relator z*={z} A={a} f={f} j={j} X={x} U={u}\n".format(
                        z=rec.z_star, a=shlex.quote(str(rec.A)), f=rec.f, j=rec.j,
                        x=shlex.quote(str(rec.X)), u=shlex.quote(str(rec.U))))


def load_presentation(path) -> GradedPresentation:
    """Parse the text format into templates; no relator word is built.

    A line that cannot be read, a second ``alphabet``, ``params`` or ``mode`` line,
    a mode other than ``toy``, a provenance other than ``enumerated`` or
    ``classified``, a period not as long as its rank's number, or a
    relator line whose A^f is not v_z*(X, U) raises :class:`InvalidParams`, and a
    template too large to check :class:`BudgetExceeded`, naming the file and line."""
    def fields(tokens, *names, **defaults):  # errors name the line, below
        return [v for _, v in named_values([(None, t) for t in tokens], *names, **defaults)]

    with open_text(path) as fh:
        text = fh.read()
    alphabet = None
    params = None
    seen: set[str] = set()
    ranks: dict[int, RankData] = {}
    current: RankData | None = None
    for where, line in content_lines(text, path):
        try:
            tokens = split_fields(line)
            head = tokens[0]
            if head in seen and head in ("alphabet", "params", "mode"):
                raise InvalidParams(f"a second {head} line")
            seen.add(head)
            if head in ("mode", "rank", "period", "relator") \
                    and (alphabet is None or params is None):
                raise InvalidParams(f"{head} line before the alphabet and params lines")
            if head in ("period", "relator") and current is None:
                raise InvalidParams(f"{head} line before any rank line")
            if head == "alphabet":
                alphabet = Alphabet(int(fields_after(tokens, 1)[0]))
            elif head == "params":
                params = ParamSet(*map(int, fields(tokens[1:], "h", "d", "n")))
            elif head == "mode":
                if tokens[1:] != ["toy"]:
                    raise InvalidParams("the only mode is toy")
            elif head == "rank":
                if len(tokens) < 2 or "=" in tokens[1]:
                    raise InvalidParams("rank takes its rank number first, got none")
                rank = int(tokens[1])
                current = ranks.setdefault(rank, RankData())
                current.provenance = fields(tokens[2:], "provenance",
                                            provenance=current.provenance)[0]
                if current.provenance not in ("enumerated", "classified"):
                    raise InvalidParams("the only provenances are enumerated and classified")
            elif head == "period":
                a = Word.parse(alphabet, fields_after(tokens, 1)[0])
                current.periods.append(a)
            elif head == "relator":
                z, a, f, j, x, u = fields(tokens[1:], "z*", "A", "f", "j", "X", "U")
                a, x, u = (Word.parse(alphabet, text) for text in (a, x, u))
                rec = build_relator(int(z), a, int(f), x, u, params, j=int(j))
                if make_v(rec.z_star, rec.X, rec.U, params) != power(rec.A, rec.f):
                    raise WitnessNotFound("relator is not w_z*(X, U): v_z*(X, U) != A^f")
                current.relators.append(rec)
            else:
                raise InvalidParams("unrecognized line")
            if head in ("period", "relator") and a.letter_length != rank:
                raise InvalidParams(f"a period of length {a.letter_length} under rank {rank}")
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"{where}: {exc}") from exc
        except (RelfreeError, ValueError, KeyError, IndexError) as exc:
            raise InvalidParams(f"{where}: cannot read {line!r}: {exc}") from exc
    if alphabet is None or params is None:
        raise InvalidParams(f"{path}: a presentation needs alphabet and params lines")
    return GradedPresentation(alphabet, params, ranks)
