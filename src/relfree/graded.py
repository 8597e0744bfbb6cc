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

import shlex
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    EmptyInput,
    EmptyWord,
    InvalidParams,
    RelfreeError,
    WitnessNotFound,
    ZeroExponent,
    open_text,
    split_fields,
)
from .ledger import bound_f
from .verbal import (
    ParamSet,
    build_w1_like,
    build_w2_like,
    make_v,
    make_w1,
    make_w2,
)
from .words import (
    DEFAULT_LETTER_BUDGET,
    Alphabet,
    Word,
    _check_encodable,
    _decode_letters,
    _encode_letters,
    _encode_word,
    _is_cyclic_shift,
    _seam_merged,
    canonical_cyclic,
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
)

DEFAULT_DEHN_BUDGET = 10_000
_PIECE_BUDGET = 2_000_000  # total letters across the materialized symmetrized set


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
    Building the table reduces the cores, measures them and checks that they
    can be encoded; an entry is encoded from its runs, together with its
    inverse, the first time :meth:`doubled` is asked for it.  A Dehn step
    over a word of n letters matches more than half of an entry, so entries
    of 2n letters or more are never encoded for it.  Dehn rewriting, piece
    statistics, certificate building and certificate checking all read
    relator shifts from this one table."""

    def __init__(self, relators: list[Word]):
        if not relators:
            raise EmptyInput("need at least one relator")
        self.cores = []
        for idx, r in enumerate(relators):
            core, _ = cyclic_reduce(r)
            if core.is_empty:
                raise EmptyWord(f"relator {idx} is freely trivial")
            core._check_budget(DEFAULT_LETTER_BUDGET)
            _check_encodable(core)
            self.cores.append(core)
        self.lengths = [core.letter_length for core in self.cores for _ in (1, -1)]
        self.keys = {(k >> 1, -1 if k & 1 else 1): k for k in range(len(self.lengths))}
        self.shortest = min(self.lengths)
        self._doubled: list[str | None] = [None] * len(self.lengths)

    def doubled(self, k: int) -> str:
        """Entry ``k`` encoded and doubled; encodes it and its inverse on first use."""
        got = self._doubled[k]
        if got is None:
            enc = _encode_word(self.cores[k >> 1])
            # the inverse is the reverse with each code swapped for its
            # inverse's (a_k, a_k^-1 are 2k, 2k+1); the swap covers every
            # code of enc, hence of its reverse, and runs at C speed where
            # _encode_word(invert(core)) builds a tuple per run
            inv = enc[::-1].translate({c: c ^ 1 for c in map(ord, set(enc))})
            self._doubled[k & ~1], self._doubled[k | 1] = enc + enc, inv + inv
            got = self._doubled[k]
        return got

    def reads_relator(self, letters) -> bool:
        """Whether ``letters`` is a cyclic shift of an entry."""
        enc = _encode_letters(letters)
        return any(_is_cyclic_shift(enc, self.doubled(k))
                   for k, rlen in enumerate(self.lengths) if rlen == len(enc))

    def best_match(self, enc: str, length: int, pos: int):
        """Longest half-exceeding match at ``pos``; None when there is none.

        Returns (matched, relator_index, sign, offset, replacement), the
        replacement encoded.
        """
        best = None
        for k, rlen in enumerate(self.lengths):
            cap = min(rlen, length - pos)
            if 2 * cap <= rlen:
                continue
            doubled = self._doubled[k] or self.doubled(k)
            lo, hi = rlen // 2 + 1, cap  # shortest useful, longest possible
            if doubled.find(enc[pos:pos + lo]) == -1:
                continue
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if doubled.find(enc[pos:pos + mid]) == -1:
                    hi = mid - 1
                else:
                    lo = mid
            matched = lo
            offset = doubled.find(enc[pos:pos + matched])
            if offset >= rlen:
                offset -= rlen
            # ties by relator index, then the relator before its inverse:
            # that is entry order
            key = (rlen - 2 * matched, k, offset)
            if best is None or key < best[0]:
                best = (key, matched, offset, rlen, k)
        if best is None:
            return None
        _, matched, offset, rlen, k = best
        # the inverse of the rest doubled[offset+matched:offset+rlen] of the
        # rotated entry is a slice of the opposite entry's doubled string
        start = (rlen - offset) % rlen
        replacement = self.doubled(k ^ 1)[start:start + rlen - matched]
        return matched, k >> 1, -1 if k & 1 else 1, offset, replacement


def _join_reduced(u: str, v: str) -> str:
    """The reduced encoding of uv, for reduced encodings u and v: only
    letters at the seam can cancel."""
    k = 0
    top = min(len(u), len(v))
    while k < top and ord(u[-1 - k]) ^ 1 == ord(v[k]):
        k += 1
    return u[:len(u) - k] + v[k:]


def dehn_reduce_trace(w: Word, relators: list[Word],
                      budget: int = DEFAULT_DEHN_BUDGET,
                      _table: _RelatorTable | None = None) -> DehnResult:
    """Greedy half-replacement loop with a recorded trace.

    Policy: leftmost replaceable position, then the longest match, ties by
    relator index, original relator before inverse, smallest rotation.
    Result length never grows; on a C'(1/6) set an empty result is exactly
    the identity certificate (classical guarantee, relied on, not proved).
    The word is rewritten in its encoding and decoded once, at the end.
    """
    table = _table if _table is not None else _RelatorTable(relators)
    enc = _encode_word(w)
    # a match covers more than half of an entry, so none starts later than this
    reach = table.shortest // 2
    steps: list[DehnStep] = []
    exhausted = False
    while enc:
        if len(steps) >= budget:
            exhausted = True
            break
        n = len(enc)
        for pos in range(n - reach):
            got = table.best_match(enc, n, pos)
            if got is not None:
                break
        else:
            break
        matched, idx, sign, offset, replacement = got
        steps.append(DehnStep(pos, matched, idx, sign, offset))
        # prefix, replacement and suffix are each reduced
        enc = _join_reduced(_join_reduced(enc[:pos], replacement), enc[pos + matched:])
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
    max_piece = 0
    for a, b in zip(ordered, ordered[1:]):
        lcp = 0
        for x, y in zip(a, b):
            if x != y:
                break
            lcp += 1
        max_piece = max(max_piece, lcp)
    return max_piece, Fraction(max_piece, table.shortest)


# -- presentation data ------------------------------------------------------


@dataclass(frozen=True)
class RelatorRecord:
    """One relator with the data that regenerates it byte-identically."""

    z_star: int
    A: Word
    f: int
    j: int
    T: Word
    U: Word
    params: ParamSet
    relator: Word
    warnings: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return self.A.letter_length

    def regenerate(self) -> Word:
        return _relator_word(self.z_star, self.A, self.f, self.T, self.U, self.params)


@dataclass(frozen=True)
class TripleRecord:
    """Canonical representative of one pair class.

    X and Y are cyclically reduced, and the class's second word is
    y_bar = Z Y Z^-1, with Z the conjugator that :func:`cyclic_reduce` peels
    off y_bar.  That Z is the shortest conjugator: y_bar = Z Y Z^-1 is
    reduced as written, every conjugator is Z root^k with root the primitive
    root of Y, and no letter cancels between Z and root^k, so it has
    |Z| + |k| |root| letters (Lyndon-Schupp, Ch. I.1).  When Y is trivial,
    so is Z.
    """

    X: Word
    Y: Word
    Z: Word

    @property
    def y_bar(self) -> Word:
        return conjugate(self.Y, self.Z)


@dataclass
class RankData:
    index: int
    periods: list[Word] = field(default_factory=list)
    provenance: str = "enumerated"
    relators: list[RelatorRecord] = field(default_factory=list)


@dataclass
class GradedPresentation:
    alphabet: Alphabet
    params: ParamSet
    mode: str = "toy"
    ranks: dict[int, RankData] = field(default_factory=dict)

    def rank_data(self, i: int, provenance: str = "enumerated") -> RankData:
        if i not in self.ranks:
            self.ranks[i] = RankData(index=i, provenance=provenance)
        return self.ranks[i]

    def relators_up_to(self, i: int) -> list[Word]:
        out = []
        for idx in sorted(self.ranks):
            if idx > i:
                break
            out.extend(rec.relator for rec in self.ranks[idx].relators)
        return out

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
    """Free-group W with u1 = W u2 W^-1 and w1 = W w2 W^-1, if one exists.

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
    if u2.is_empty:
        if not u1.is_empty:
            return None
        return minimal_conjugacy_witness(w1, w2)
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
class PairClass:
    z_star: int
    key: tuple[str, str]
    triple: TripleRecord
    A: Word
    f: int
    j: int
    witness: Word  # v_{z*}(X, y_bar) = witness * A^f * witness^-1
    v_rep: Word


@dataclass(frozen=True)
class ClassifyResult:
    z_star: int
    classes: tuple[PairClass, ...]
    discarded_trivial: int
    skipped_degenerate: tuple[tuple[Word, Word], ...]


def classify_pairs(pres: GradedPresentation, z_star: int, L: int) -> ClassifyResult:
    """Partition pairs (X, Y) with |X|, |Y| <= L into joint conjugacy classes
    of their (v, w) values in the free group, discarding pairs whose w value
    is trivial and setting aside those whose v value is.

    Class keys are the shortlex-least member pair (x0, y0); j indices within
    one (period, exponent) group follow key order.  With x0 = g X g^-1 and X
    cyclically reduced, Z is the conjugator :func:`cyclic_reduce` peels off
    y_bar = g^-1 y0 g = Z Y Z^-1, the shortest one (see :class:`TripleRecord`).
    """
    if z_star not in (1, 2):
        raise InvalidParams(f"z* must be 1 or 2, got {z_star}")
    p = pres.params
    make_w = make_w1 if z_star == 1 else make_w2

    words_pool = list(enumerate_reduced_words(pres.alphabet, L))
    discarded = 0
    degenerate: list[tuple[Word, Word]] = []
    survivors: list[tuple[Word, Word, Word, Word]] = []  # (X, Y, v, w)
    for x in words_pool:
        for y in words_pool:
            w_val = make_w(x, y, p)
            if w_val.is_empty:
                discarded += 1
                continue
            v_val = make_v(z_star, x, y, p)
            if v_val.is_empty:
                degenerate.append((x, y))
                continue
            survivors.append((x, y, v_val, w_val))

    groups: list[list[int]] = []
    by_v_class: dict = {}
    for idx, (_, _, v_val, w_val) in enumerate(survivors):
        # joint conjugacy needs v conjugate to v0, so only the groups whose v
        # lies in the conjugacy class of v_val are tried against their first
        near = by_v_class.setdefault(canonical_cyclic(v_val), [])
        group = next((g for g in near if _pair_conjugacy_witness(
            *survivors[g[0]][2:], v_val, w_val) is not None), None)
        if group is None:
            group = []
            groups.append(group)
            near.append(group)
        group.append(idx)

    # each class's least member pair, in key order: the registry adds periods
    # to pres, and j counts within each (A, f) group, in that order
    least = sorted((min((survivors[g][:2] for g in group),
                        key=lambda xy: (shortlex_key(xy[0]), shortlex_key(xy[1])))
                    for group in groups), key=lambda xy: (str(xy[0]), str(xy[1])))
    registry = _PeriodRegistry(pres)
    counters: dict[tuple[str, int], int] = {}
    classes = []
    for x0, y0 in least:
        key = (str(x0), str(y0))
        core_x, gx = cyclic_reduce(x0)
        y_bar = conjugate(y0, invert(gx))
        core_y, z_word = cyclic_reduce(y_bar)
        triple = TripleRecord(X=core_x, Y=core_y, Z=z_word)
        v_rep = make_v(z_star, core_x, y_bar, p)
        a_word, f_val = registry.resolve(v_rep)
        witness = minimal_conjugacy_witness(v_rep, power(a_word, f_val))
        if witness is None:
            raise WitnessNotFound(
                f"no conjugator from the period power to the class value {key}")
        jkey = (str(a_word), f_val)
        counters[jkey] = counters.get(jkey, 0) + 1
        classes.append(PairClass(
            z_star=z_star, key=key, triple=triple, A=a_word, f=f_val,
            j=counters[jkey], witness=witness, v_rep=v_rep))
    return ClassifyResult(z_star, tuple(classes), discarded, tuple(degenerate))


class _PeriodRegistry:
    """Canonical period chooser honoring the no-conjugate-duplicates rule."""

    def __init__(self, pres: GradedPresentation):
        self.pres = pres
        self._by_class: dict = {}
        for data in pres.ranks.values():
            for a_word in data.periods:
                self._by_class[canonical_cyclic(a_word)] = a_word

    def resolve(self, v_value: Word) -> tuple[Word, int]:
        """Period A and exponent f with v_value conjugate to A^f."""
        core, _ = cyclic_reduce(v_value)
        if core.is_empty:
            raise EmptyWord("degenerate class value")
        root, k = primitive_root(core)
        cw = canonical_cyclic(root)
        cwi = canonical_cyclic(invert(root))
        if cw in self._by_class:
            return self._by_class[cw], k
        if cwi in self._by_class:
            return self._by_class[cwi], -k
        a_word = cw.rep if shortlex_key(cw.rep) <= shortlex_key(cwi.rep) else cwi.rep
        sign = 1 if a_word == cw.rep else -1
        self._by_class[canonical_cyclic(a_word)] = a_word
        data = self.pres.rank_data(a_word.letter_length, provenance="classified")
        data.periods.append(a_word)
        return a_word, sign * k


# -- relators ----------------------------------------------------------------


def _relator_word(z_star: int, a_word: Word, f: int, t_word: Word, u_word: Word,
                  p: ParamSet) -> Word:
    block = power(a_word, f)
    if z_star == 1:
        return build_w1_like(t_word, block, p)
    return build_w2_like(u_word, t_word, block, p)


def build_relator(z_star: int, a_word: Word, f: int, t_word: Word, u_word: Word,
                  p: ParamSet, j: int = 1, assign=None) -> RelatorRecord:
    """Instantiate the rank-(|A|) relator template for one classified pair class.

    Toy-scale magnitude violations of the enumeration bounds are recorded as
    warnings on the record instead of refusals, so the pipeline stays
    exercisable; ``assign`` (a ledger assignment) additionally enables the
    exponent bound check 0 < |f| <= 100/zeta.
    """
    if z_star not in (1, 2):
        raise InvalidParams(f"z* must be 1 or 2, got {z_star}")
    if f == 0:
        raise ZeroExponent("the period exponent multiplier f must be nonzero")
    if a_word.is_empty:
        raise EmptyWord("the period must be nonempty")
    if t_word.is_empty or u_word.is_empty:
        raise EmptyInput("the conjugated slot words T and U must be nonempty")
    warnings = []
    d = p.d
    a_len = a_word.letter_length
    if a_len <= d:
        warnings.append(f"|A| = {a_len} <= d = {d}")
    for name, word in (("T", t_word), ("U", u_word)):
        if word.letter_length >= d * a_len:
            warnings.append(f"|{name}| = {word.letter_length} >= d|A| = {d * a_len}")
        if _is_power_of(word, a_word):
            warnings.append(f"{name} lies in the cyclic subgroup of A")
    if assign is not None:
        if abs(f) > bound_f(assign):
            warnings.append(f"|f| = {abs(f)} > 100/zeta = {bound_f(assign)}")
    relator = _relator_word(z_star, a_word, f, t_word, u_word, p)
    return RelatorRecord(z_star, a_word, f, j, t_word, u_word, p, relator,
                         tuple(warnings))


def _is_power_of(w: Word, a_word: Word) -> bool:
    """Whether w = A^k or A^-k for k = |w|/|A|, without building the power:
    the conjugators are equal, and the cores are powers of one root."""
    if w.is_empty:
        return True
    if a_word.is_empty or w.letter_length % a_word.letter_length:
        return False
    (w_core, w_conj), (a_core, a_conj) = cyclic_reduce(w), cyclic_reduce(a_word)
    (w_root, w_k), (a_root, a_k) = primitive_root(w_core), primitive_root(a_core)
    return w_conj == a_conj and w_k == w.letter_length // a_word.letter_length * a_k \
        and (w_root == a_root or w_root == invert(a_root))


def verbal_membership_witness(rec: RelatorRecord, triple: TripleRecord) -> Word:
    """Conjugator W with W * relator * W^-1 equal in the free group to the
    identity word evaluated at the class representative.  Exact; a failure
    on a freshly built record means the construction itself is broken."""
    p = rec.params
    target = make_w1(triple.X, triple.y_bar, p) if rec.z_star == 1 \
        else make_w2(triple.X, triple.y_bar, p)
    witness = minimal_conjugacy_witness(target, rec.relator)
    if witness is None or concat_all([witness, rec.relator, invert(witness)]) != target:
        raise WitnessNotFound(
            f"relator (z*={rec.z_star}, j={rec.j}) is not conjugate to its class value")
    return witness


# -- presentation building and serialization ---------------------------------


def build_presentation(alphabet: Alphabet, p: ParamSet, max_rank: int = 2,
                       pair_budget: int = 1, mode: str = "toy",
                       assign=None) -> GradedPresentation:
    """Enumerate periods up to ``max_rank`` and attach all relators found by
    classifying pairs up to ``pair_budget`` letters per coordinate.

    ``assign`` (a verified ledger assignment) turns on the exponent-bound
    warning check for every synthesized relator."""
    pres = GradedPresentation(alphabet=alphabet, params=p, mode=mode)
    for i in range(1, max_rank + 1):
        pres.rank_data(i).periods = periods_rank(pres, i)
    for z_star in (1, 2):
        result = classify_pairs(pres, z_star, pair_budget)
        for cls in result.classes:
            t_word, u_word = slot_words(cls, p)
            rec = build_relator(z_star, cls.A, cls.f, t_word, u_word, p,
                                j=cls.j, assign=assign)
            pres.rank_data(rec.rank, provenance="classified").relators.append(rec)
    return pres


def slot_words(cls: PairClass, p: ParamSet) -> tuple[Word, Word]:
    """The conjugated slot words (T, U) for one class: the next-lower v-value
    and the class's second word, both pulled back through the witness."""
    lower = make_v(cls.z_star - 1, cls.triple.X, cls.triple.y_bar, p)
    t_word = concat_all([invert(cls.witness), lower, cls.witness])
    u_word = concat_all([invert(cls.witness), cls.triple.y_bar, cls.witness])
    return t_word, u_word


# -- text serialization -------------------------------------------------------


def save_presentation(pres: GradedPresentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"alphabet {pres.alphabet.m}\n")
        fh.write(f"params h={pres.params.h} d={pres.params.d} n={pres.params.n}\n")
        fh.write(f"mode {pres.mode}\n")
        for idx in sorted(pres.ranks):
            data = pres.ranks[idx]
            fh.write(f"rank {idx} provenance={data.provenance}\n")
            for a_word in data.periods:
                fh.write(f"period {shlex.quote(str(a_word))}\n")
            for rec in data.relators:
                fh.write(
                    "relator z*={z} A={a} f={f} j={j} T={t} U={u}\n".format(
                        z=rec.z_star, a=shlex.quote(str(rec.A)), f=rec.f, j=rec.j,
                        t=shlex.quote(str(rec.T)), u=shlex.quote(str(rec.U))))


def load_presentation(path) -> GradedPresentation:
    """Parse the text format; relator words are regenerated, never stored.

    A line that cannot be read raises :class:`InvalidParams`, and one whose
    relator is too large to build :class:`BudgetExceeded`, naming the file
    and line."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    alphabet = None
    params = None
    mode = "toy"
    pres = None
    current: RankData | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = split_fields(line)
            head = tokens[0]
            if head in ("mode", "rank", "period", "relator") \
                    and (alphabet is None or params is None):
                raise InvalidParams(f"{head} line before the alphabet and params lines")
            if head in ("period", "relator") and current is None:
                raise InvalidParams(f"{head} line before any rank line")
            if head == "alphabet":
                alphabet = Alphabet(int(tokens[1]))
            elif head == "params":
                kv = dict(tok.split("=", 1) for tok in tokens[1:])
                params = ParamSet(int(kv["h"]), int(kv["d"]), int(kv["n"]))
            elif head == "mode":
                mode = tokens[1]
                pres = GradedPresentation(alphabet=alphabet, params=params, mode=mode)
            elif head == "rank":
                if pres is None:
                    pres = GradedPresentation(alphabet=alphabet, params=params, mode=mode)
                kv = dict(tok.split("=", 1) for tok in tokens[2:])
                current = pres.rank_data(int(tokens[1]),
                                         provenance=kv.get("provenance", "enumerated"))
                current.provenance = kv.get("provenance", current.provenance)
            elif head == "period":
                current.periods.append(Word.parse(alphabet, tokens[1]))
            elif head == "relator":
                kv = dict(tok.split("=", 1) for tok in tokens[1:])
                rec = build_relator(
                    int(kv["z*"]), Word.parse(alphabet, kv["A"]), int(kv["f"]),
                    Word.parse(alphabet, kv["T"]), Word.parse(alphabet, kv["U"]),
                    params, j=int(kv["j"]))
                current.relators.append(rec)
            else:
                raise InvalidParams("unrecognized line")
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"{path}:{lineno}: {exc}") from exc
        except (RelfreeError, ValueError, KeyError, IndexError) as exc:
            raise InvalidParams(f"{path}:{lineno}: cannot read {line!r}: {exc!r}") from exc
    if alphabet is None or params is None:
        raise InvalidParams(f"{path}: a presentation needs alphabet and params lines")
    if pres is None:
        pres = GradedPresentation(alphabet=alphabet, params=params, mode=mode)
    return pres
