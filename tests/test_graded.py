import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relfree.errors import (
    BudgetExceeded,
    EmptyInput,
    EmptyWord,
    InvalidParams,
    WitnessNotFound,
    ZeroExponent,
)
from relfree.graded import (
    DEFAULT_DEHN_BUDGET,
    _PIECE_BUDGET,
    DehnStep,
    GradedPresentation,
    RelatorRecord,
    _RelatorTable,
    _axis_index,
    _is_power_of,
    _pair_conjugacy_witness,
    build_presentation,
    build_relator,
    classify_pairs,
    dehn_reduce_trace,
    load_presentation,
    periods_rank,
    piece_stats,
    save_presentation,
    slot_words,
    verbal_membership_witness,
)
from relfree.verbal import ParamSet, make_v, make_w1, w1_exponents, w2_exponents
from relfree.words import (
    Alphabet,
    Word,
    _decode_letters,
    _encode_letters,
    concat,
    concat_all,
    conjugacy_witnesses,
    conjugate,
    cyclic_reduce,
    exponent_sum,
    free_reduce,
    invert,
    minimal_conjugacy_witness,
    power,
    primitive_root,
)

AB = Alphabet(2)
P = ParamSet(20, 2, 3)
A1 = Word.generator(AB, 1)
A2 = Word.generator(AB, 2)

AB4 = Alphabet(4)
GENUS2 = Word.parse(AB4, "a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1")


def fresh_pres(alphabet=AB, params=P):
    return GradedPresentation(alphabet=alphabet, params=params)


# -- periods -------------------------------------------------------------------

def test_rank_one_periods():
    kept = periods_rank(fresh_pres(), 1)
    assert kept == [A1, A2]


def test_rank_two_periods():
    kept = periods_rank(fresh_pres(), 2)
    assert kept == [Word.parse(AB, "a1 a2"), Word.parse(AB, "a1 a2^-1")]


def test_rank_two_periods_exclude_proper_powers():
    kept = periods_rank(fresh_pres(), 2)
    assert Word.parse(AB, "a1^2") not in kept
    assert Word.parse(AB, "a2^2") not in kept


def test_single_generator_has_no_higher_periods():
    pres = fresh_pres(Alphabet(1))
    kept = periods_rank(pres, 2)
    assert kept == []


def test_periods_deterministic():
    a = periods_rank(fresh_pres(), 2)
    b = periods_rank(fresh_pres(), 2)
    assert a == b


# -- pair classification ----------------------------------------------------------

def test_classify_discards_trivial_pairs():
    res = classify_pairs(fresh_pres(), 1, 1)
    # (x, x) and (x, x^-1) make the first identity word collapse
    keys = {cls.key for cls in res.classes}
    assert ("a1", "a1") not in keys
    assert res.discarded_trivial >= 8


def test_classify_finds_eight_classes_per_kind():
    for z_star in (1, 2):
        res = classify_pairs(fresh_pres(), z_star, 1)
        assert len(res.classes) == 8
        assert not res.skipped_degenerate


def test_class_values_are_conjugate_to_period_powers():
    res = classify_pairs(fresh_pres(), 1, 1)
    for cls in res.classes:
        assert conjugate(power(cls.A, cls.f), cls.witness) == cls.v_rep
        assert cls.A.is_cyclically_reduced()


def test_conjugated_pairs_are_jointly_equivalent():
    rng = random.Random(30)
    for _ in range(20):
        x = free_reduce(AB, [rng.choice([1, -1, 2, -2])])
        y = free_reduce(AB, [rng.choice([1, -1, 2, -2])])
        g = free_reduce(AB, [rng.choice([1, -1, 2, -2])
                             for _ in range(rng.randint(0, 2))])
        w_val = make_w1(x, y, P)
        if w_val.is_empty:
            continue
        v_val = make_v(1, x, y, P)
        xg, yg = conjugate(x, g), conjugate(y, g)
        assert _pair_conjugacy_witness(
            make_v(1, xg, yg, P), make_w1(xg, yg, P), v_val, w_val) is not None


def pair_witness_by_scan(u1, w1, u2, w2):
    """Reference: try every alignment and every k up to a length bound."""
    if u2.is_empty:
        return minimal_conjugacy_witness(w1, w2) if u1.is_empty else None
    core2, conj2 = cyclic_reduce(u2)
    root, _ = primitive_root(core2)
    rho = conjugate(root, conj2)
    for w0 in conjugacy_witnesses(u1, u2):
        residual = concat_all([invert(w0), w1, w0])
        bound = (residual.letter_length + w2.letter_length) // root.letter_length + 2
        for k in range(-bound, bound + 1):
            if conjugate(w2, power(rho, k)) == residual:
                return concat_all([w0, power(rho, k)])
    return None


def random_pair_problem(rng, ab):
    """(u1, w1, u2, w2), mostly solvable: u2 = c r^m c^-1 for a primitive root
    r of 1-4 letters, w2 often with copies of r at both ends."""
    def rand_word(n):
        return free_reduce(ab, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(n)])

    while True:
        r = rand_word(rng.randint(1, 4))
        if not r.is_empty and r.is_cyclically_reduced() and primitive_root(r)[1] == 1:
            break
    c = rand_word(rng.randint(0, 3))
    u2 = conjugate(power(r, rng.randint(1, 3)), c)
    w2 = rand_word(rng.randint(0, 6))
    if rng.random() < 0.5:
        w2 = concat_all([power(r, rng.randint(-3, 3)), w2, power(r, rng.randint(-3, 3))])
    if rng.random() < 0.5:
        w2 = conjugate(w2, c)
    g = rand_word(rng.randint(0, 4))
    w1 = conjugate(conjugate(w2, power(conjugate(r, c), rng.randint(-4, 4))), g)
    u1 = conjugate(u2, g)
    if rng.random() < 0.15:
        w1 = rand_word(rng.randint(0, 10))
    elif rng.random() < 0.05:
        u1 = rand_word(rng.randint(1, 6))
    return u1, w1, u2, w2


def test_pair_witness_agrees_with_the_k_scan():
    ab = Alphabet(3)
    rng = random.Random(52)
    solved = 0
    for _ in range(400):
        u1, w1, u2, w2 = random_pair_problem(rng, ab)
        got = _pair_conjugacy_witness(u1, w1, u2, w2)
        assert (got is None) == (pair_witness_by_scan(u1, w1, u2, w2) is None)
        if got is not None:
            solved += 1
            assert conjugate(u2, got) == u1
            assert conjugate(w2, got) == w1
    assert solved > 250


def test_pair_witness_exponent_needs_the_window():
    # y starts with 3 letters of r^infinity, x = r^-3 y r^3 with 7 of r^-infinity:
    # the axis indices floor(3/4) = 0 and floor(-7/4) = -2 put k = -3 one off;
    # counting whole copies of r^-1 only (-1) would put it two off
    r = Word.parse(AB, "a1^2 a2 a1")
    y = Word.parse(AB, "a1^2 a2")
    x = conjugate(y, power(r, -3))
    assert _axis_index(x, r) - _axis_index(y, r) == -2
    assert _pair_conjugacy_witness(r, x, r, y) == power(r, -3)


def test_pair_witness_over_a_million_root_copies_is_solved_not_scanned():
    # a scan over k would try about 2 * 10^6 exponents here
    code = """
import random
from relfree.graded import _pair_conjugacy_witness
from relfree.words import Alphabet, Word, conjugate, power
ab = Alphabet(2)
rng = random.Random(7)
runs = tuple((2 if i % 2 == 0 else 1, rng.choice((1, -1)) * rng.randint(1, 4))
             for i in range(1601))
w2 = Word(ab, runs)
a1 = Word.generator(ab, 1)
w1 = conjugate(w2, power(a1, 10 ** 6))
got = _pair_conjugacy_witness(a1, w1, a1, w2)
assert conjugate(a1, got) == a1 and conjugate(w2, got) == w1
print(w2.letter_length, len(w2.runs), got)
"""
    import relfree

    env = dict(os.environ, PYTHONPATH=str(Path(relfree.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[2:] == ["a1^1000000"]


def test_triples_decompose_core_powers():
    for z_star in (1, 2):
        for cls in classify_pairs(fresh_pres(), z_star, 1).classes:
            t = cls.triple
            for core in (t.X, t.Y):
                assert core.is_cyclically_reduced()
                if not core.is_empty:
                    root, k = primitive_root(core)
                    assert power(root, k) == core
            assert conjugate(t.Y, t.Z) == t.y_bar
            assert t.Z == minimal_conjugacy_witness(t.y_bar, t.Y)


AB3 = Alphabet(3)
LETTERS3 = st.sampled_from([1, -1, 2, -2, 3, -3])


@settings(max_examples=400, deadline=None)
@given(st.lists(LETTERS3, max_size=10), st.lists(LETTERS3, max_size=8), st.integers(1, 3))
def test_peeled_conjugator_is_the_minimal_witness(core_letters, conj_letters, k):
    # a class triple's Z is the conjugator cyclic_reduce peels off y_bar,
    # taken to be the shortest one
    y_bar = conjugate(power(free_reduce(AB3, core_letters), k), free_reduce(AB3, conj_letters))
    core, peeled = cyclic_reduce(y_bar)
    assert conjugate(core, peeled) == y_bar
    assert minimal_conjugacy_witness(y_bar, core) == peeled


def old_is_power_of(w, a_word):
    """The definition _is_power_of had: build A^(|w|/|A|) and compare."""
    if w.is_empty:
        return True
    if a_word.is_empty or w.letter_length % a_word.letter_length:
        return False
    k = w.letter_length // a_word.letter_length
    return w == power(a_word, k) or w == power(a_word, -k)


SMALL3 = st.lists(LETTERS3, max_size=8).map(lambda letters: free_reduce(AB3, letters))


@st.composite
def power_candidates(draw):
    """(w, A) with A = c X c^-1, and w either unrelated to A or a conjugate
    of a power of X by c or by a word d of another length."""
    x_core, _ = cyclic_reduce(draw(SMALL3))
    c, d, other = draw(SMALL3), draw(SMALL3), draw(SMALL3)
    a_word = conjugate(x_core, c)
    j = draw(st.integers(-6, 6))
    w = draw(st.sampled_from([other, conjugate(power(x_core, j), c),
                              conjugate(power(x_core, j), d)]))
    return w, a_word


@settings(max_examples=500, deadline=None)
@given(power_candidates())
@example((Word.parse(AB3, "a3 a2 a1^2 a2^-1 a3^-1"), Word.parse(AB3, "a2 a1 a2^-1")))
@example((Word.parse(AB3, "a2 a1^4 a2^-1"), Word.parse(AB3, "a2 a1 a2^-1")))
@example((Word.parse(AB3, "a2^-1 a1^-1 a2^-1 a1^-1"), Word.parse(AB3, "a1 a2")))
def test_is_power_of_agrees_with_building_the_power(w_and_a):
    # the examples: a power of A's core under a conjugator of the length that
    # makes |w| = 2|A| (no power of A), a core exponent that A's exponent
    # divides but that is not |w|/|A| times it, and w = A^-2
    w, a_word = w_and_a
    assert _is_power_of(w, a_word) == old_is_power_of(w, a_word)


# -- relators -----------------------------------------------------------------------

def test_relator_schedule_sums():
    rng = random.Random(31)
    for _ in range(20):
        h = 20 * rng.randint(1, 5)
        n = rng.randint(1, 500)
        f = rng.choice([-1, 1]) * rng.randint(1, 20)
        p = ParamSet(h, 2, n)
        assert sum(w1_exponents(p.h, p.n)) * f == 0
        want = f * (h * n * n + h * (h + 1) // 2)
        assert sum(w2_exponents(p.h, p.n)) * f == want


def test_built_relator_exponent_sums_match_schedule():
    # with a single-letter period the exponent sum survives reduction verbatim
    rec = build_relator(2, A2, 3, A1, A1, P)
    assert exponent_sum(rec.relator, 2) == 3 * (20 * 9 + 20 * 21 // 2)
    rec1 = build_relator(1, A2, 3, A1, A1, P)
    assert exponent_sum(rec1.relator, 2) == 0


def test_relator_rejects_zero_f():
    with pytest.raises(ZeroExponent):
        build_relator(1, A2, 0, A1, A1, P)


def test_relator_rejects_empty_slots():
    with pytest.raises(EmptyInput):
        build_relator(1, A2, 1, Word.identity(AB), A1, P)
    with pytest.raises(EmptyInput):
        build_relator(2, A2, 1, A1, Word.identity(AB), P)


def test_relator_warnings_for_toy_violations():
    # |A| = 1 <= d and T a power of A: both flagged, neither fatal
    rec = build_relator(1, A2, 1, power(A2, 3), A1, P)
    assert any("<= d" in w for w in rec.warnings)
    assert any("cyclic subgroup" in w for w in rec.warnings)
    assert rec.warnings


def test_relator_round_trip_is_byte_identical():
    for z_star in (1, 2):
        res = classify_pairs(fresh_pres(), z_star, 1)
        for cls in res.classes:
            t_word, u_word = slot_words(cls, P)
            rec = build_relator(z_star, cls.A, cls.f, t_word, u_word, P, j=cls.j)
            assert rec.regenerate() == rec.relator
            assert rec.rank == cls.A.letter_length


def test_every_rank_one_relator_has_witness():
    from relfree.verbal import make_w2

    for z_star in (1, 2):
        res = classify_pairs(fresh_pres(), z_star, 1)
        for cls in res.classes:
            t_word, u_word = slot_words(cls, P)
            rec = build_relator(z_star, cls.A, cls.f, t_word, u_word, P, j=cls.j)
            w = verbal_membership_witness(rec, cls.triple)
            make_w = make_w1 if z_star == 1 else make_w2
            assert conjugate(rec.relator, w) == make_w(cls.triple.X, cls.triple.y_bar, P)


def test_corrupted_relator_has_no_witness():
    res = classify_pairs(fresh_pres(), 1, 1)
    cls = res.classes[0]
    t_word, u_word = slot_words(cls, P)
    rec = build_relator(1, cls.A, cls.f, t_word, u_word, P, j=cls.j)
    tampered = RelatorRecord(rec.z_star, rec.A, rec.f, rec.j, rec.T, rec.U,
                             rec.params, concat(rec.relator, cls.A), rec.warnings)
    with pytest.raises(WitnessNotFound):
        verbal_membership_witness(tampered, cls.triple)


# -- piece statistics -----------------------------------------------------------------

def test_pieces_of_single_commutator():
    comm = Word.parse(AB, "a1 a2 a1^-1 a2^-1")
    assert piece_stats([comm]) == (1, Fraction(1, 4))


def test_pieces_of_genus_two_relator():
    assert piece_stats([GENUS2]) == (1, Fraction(1, 8))


def test_pieces_disjoint_powers():
    r1 = Word.parse(AB, "a1^5")
    r2 = Word.parse(AB, "a2^5")
    piece, lam = piece_stats([r1, r2])
    assert piece == 0
    assert lam == 0


def test_pieces_invariant_under_shift_and_inverse():
    base = piece_stats([GENUS2])
    shifted = Word.parse(AB4, "a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1 a1")
    assert piece_stats([shifted]) == base
    from relfree.words import invert

    assert piece_stats([invert(GENUS2)]) == base


def test_pieces_reject_empty_input():
    with pytest.raises(EmptyInput):
        piece_stats([])


def reference_piece_stats(relators):
    """The letter-tuple piece statistics that the relator table replaced,
    kept as their reference: every rotation of every cyclically reduced
    relator and of its inverse is a tuple, and the tuples are sorted."""
    if not relators:
        raise EmptyInput("need at least one relator")
    total = 0
    for r in relators:
        if r.is_empty:
            raise EmptyWord("relators must be nonempty")
        if not r.is_cyclically_reduced():
            raise InvalidParams("relators must be cyclically reduced")
        total += 2 * r.letter_length * r.letter_length
    if total > _PIECE_BUDGET:
        raise BudgetExceeded(
            f"symmetrized set would hold {total} letters, over {_PIECE_BUDGET}")
    symmetrized = set()
    for r in relators:
        letters = tuple(r.to_letters())
        inv = tuple(-g for g in reversed(letters))
        for ls in (letters, inv):
            for k in range(len(ls)):
                symmetrized.add(ls[k:] + ls[:k])
    ordered = sorted(symmetrized)
    max_piece = 0
    for a, b in zip(ordered, ordered[1:]):
        lcp = 0
        for x, y in zip(a, b):
            if x != y:
                break
            lcp += 1
        max_piece = max(max_piece, lcp)
    return max_piece, Fraction(max_piece, min(r.letter_length for r in relators))


def _relators_from(raw, alphabet):
    """Nonempty relators from run lists, dropping the freely trivial ones."""
    words = [Word.parse(alphabet, " ".join(f"a{g}^{e}" for g, e in runs)) for runs in raw]
    return [w for w in words if not w.is_empty]


_RUNS = st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3).filter(bool)),
                 min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RUNS, min_size=1, max_size=4), st.sampled_from(["", "inverse", "rotation"]),
       st.integers(0, 3), st.integers(0, 23))
@example(raw=[[(1, 3)]], extra="", i=0, k=0)  # a1^3
@example(raw=[[(1, 1), (2, 1), (1, 1), (2, 1)]], extra="", i=0, k=0)  # (a1 a2)^2
@example(raw=[[(1, 1), (2, 1), (1, -1), (2, -1)]] * 2, extra="", i=0, k=0)  # duplicated
@example(raw=[[(3, 1), (1, 1), (2, 1), (1, -1), (2, -1), (3, -1)]], extra="", i=0,
         k=0)  # not cyclically reduced
@example(raw=[[(1, 2), (2, -1), (3, 1)]], extra="inverse", i=0, k=0)
@example(raw=[[(1, 2), (2, -1), (3, 1)]], extra="rotation", i=0, k=2)
def test_pieces_match_the_letter_tuple_reference(raw, extra, i, k):
    rels = _relators_from(raw, Alphabet(4))
    assume(rels)
    if extra:
        # next to one relator, its inverse or one of its rotations
        r = rels[i % len(rels)]
        letters = r.to_letters()
        k %= len(letters)
        rels.append(invert(r) if extra == "inverse"
                    else free_reduce(r.alphabet, letters[k:] + letters[:k]))
    cores = [cyclic_reduce(r)[0] for r in rels]
    assume(all(not c.is_empty for c in cores))
    assert piece_stats(rels) == reference_piece_stats(cores)


def test_pieces_refuse_over_budget_with_the_reference_message():
    rels = [power(Word.parse(AB4, "a1 a2 a3"), 200), power(Word.parse(AB4, "a4 a3"), 401)]
    with pytest.raises(BudgetExceeded) as want:
        reference_piece_stats(rels)
    with pytest.raises(BudgetExceeded) as got:
        piece_stats(rels)
    assert str(got.value) == str(want.value)


# -- Dehn rewriting ---------------------------------------------------------------------

def test_dehn_kills_the_relator_itself():
    res = dehn_reduce_trace(GENUS2, [GENUS2])
    assert res.word.is_empty and not res.exhausted


def test_dehn_leaves_short_words_alone():
    a1 = Word.generator(AB4, 1)
    res = dehn_reduce_trace(a1, [GENUS2])
    assert res.word == a1 and not res.exhausted


def test_dehn_empties_random_identity_words():
    rng = random.Random(32)
    pool = [s * g for g in range(1, 5) for s in (1, -1)]
    for _ in range(100):
        parts = []
        for _ in range(rng.randint(1, 3)):
            g = free_reduce(AB4, [rng.choice(pool) for _ in range(rng.randint(0, 2))])
            parts.append(conjugate(power(GENUS2, rng.choice([1, -1])), g))
        w = concat_all(parts)
        res = dehn_reduce_trace(w, [GENUS2])
        assert res.word.is_empty and not res.exhausted


def test_dehn_never_grows_and_is_idempotent():
    rng = random.Random(33)
    pool = [s * g for g in range(1, 5) for s in (1, -1)]
    for _ in range(50):
        w = free_reduce(AB4, [rng.choice(pool) for _ in range(rng.randint(0, 20))])
        res = dehn_reduce_trace(w, [GENUS2])
        assert not res.exhausted
        assert res.word.letter_length <= w.letter_length
        again = dehn_reduce_trace(res.word, [GENUS2])
        assert again.word == res.word and not again.exhausted


def test_dehn_budget_raises():
    w = concat(GENUS2, conjugate(GENUS2, Word.generator(AB4, 1)))
    res = dehn_reduce_trace(w, [GENUS2], budget=1)
    assert res.exhausted


def test_dehn_trace_is_deterministic():
    w = concat(conjugate(GENUS2, Word.generator(AB4, 2)), power(GENUS2, -1))
    r1 = dehn_reduce_trace(w, [GENUS2])
    r2 = dehn_reduce_trace(w, [GENUS2])
    assert r1.steps == r2.steps


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 300), st.integers(-3, 3).filter(bool)),
                         min_size=1, max_size=12), min_size=1, max_size=4))
def test_relator_table_entries_decode_to_cores_and_inverses(rels):
    ab = Alphabet(300)
    relators = [free_reduce(ab, [g if e > 0 else -g for g, e in runs for _ in range(abs(e))])
                for runs in rels]
    cores = [cyclic_reduce(r)[0] for r in relators]
    assume(all(not core.is_empty for core in cores))
    want = []
    for idx, core in enumerate(cores):
        want += [(idx, 1, core.to_letters()), (idx, -1, invert(core).to_letters())]
    table = _RelatorTable(relators)
    entries = [(idx, sign, table.lengths[k], table.doubled(k))
               for (idx, sign), k in table.keys.items()]
    assert [(idx, sign, _decode_letters(doubled[:rlen]))
            for idx, sign, rlen, doubled in entries] == want
    assert all(doubled == 2 * doubled[:rlen] for _, _, rlen, doubled in entries)


def test_dehn_reduce_over_one_signed_generators():
    # each generator occurs with one sign only, so an inverse entry holds
    # letters the relator itself does not; a replacement taken from such an
    # entry must still be the inverse of its rest
    res = dehn_reduce_trace(power(A1, -2), [power(A1, 3)])
    assert res.word == A1 and not res.exhausted
    r = Word.parse(AB, "a1 a2 a1 a2^-1")
    res = dehn_reduce_trace(Word.parse(AB, "a2 a1^-1 a2^-1"), [r])
    assert res.word == A1 and not res.exhausted


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 300), st.integers(-3, 3).filter(bool)),
                         min_size=1, max_size=8), min_size=1, max_size=3),
       st.data())
def test_best_match_replacement_inverts_the_rest_of_the_rotated_entry(rels, data):
    ab = Alphabet(300)
    relators = [free_reduce(ab, [g if e > 0 else -g for g, e in runs for _ in range(abs(e))])
                for runs in rels]
    cores = [cyclic_reduce(r)[0] for r in relators]
    assume(all(not core.is_empty for core in cores))
    # the word is a more-than-half prefix of a rotated core or inverse core
    idx = data.draw(st.integers(0, len(cores) - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    letters = (cores[idx] if sign > 0 else invert(cores[idx])).to_letters()
    n = len(letters)
    offset = data.draw(st.integers(0, n - 1))
    matched = data.draw(st.integers(n // 2 + 1, n))
    word = (letters[offset:] + letters[:offset])[:matched]
    table = _RelatorTable(relators)
    got = table.best_match(_encode_letters(word), len(word), 0)
    assert got is not None
    m, i, s, o, replacement = got
    entry = (cores[i] if s > 0 else invert(cores[i])).to_letters()
    rotated = entry[o:] + entry[:o]
    assert rotated[:m] == word[:m]
    assert _decode_letters(replacement) == [-g for g in reversed(rotated[m:])]


def reference_dehn(w, relators, budget=DEFAULT_DEHN_BUDGET):
    """The letter-list Dehn loop that the encoded rewriter replaced, kept as
    its reference: every entry is encoded up front, the word is re-encoded
    after each step, every position is scanned, and each replacement is
    spliced in and reduced letter by letter."""
    entries = []
    for idx, r in enumerate(relators):
        core = cyclic_reduce(r)[0]
        for sign, letters in ((1, core.to_letters()), (-1, invert(core).to_letters())):
            enc = _encode_letters(letters)
            entries.append((idx, sign, len(enc), enc + enc))

    def best_match(enc, length, pos):
        best = None
        for k, (idx, sign, rlen, doubled) in enumerate(entries):
            cap = min(rlen, length - pos)
            if 2 * cap <= rlen:
                continue
            lo, hi = rlen // 2 + 1, cap
            if doubled.find(enc[pos:pos + lo]) == -1:
                continue
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if doubled.find(enc[pos:pos + mid]) == -1:
                    hi = mid - 1
                else:
                    lo = mid
            offset = doubled.find(enc[pos:pos + lo])
            if offset >= rlen:
                offset -= rlen
            key = (rlen - 2 * lo, idx, 0 if sign > 0 else 1, offset)
            if best is None or key < best[0]:
                best = (key, lo, idx, sign, offset, rlen, k)
        if best is None:
            return None
        _, matched, idx, sign, offset, rlen, k = best
        start = (rlen - offset) % rlen
        opposite = entries[k ^ 1][3]
        return matched, idx, sign, offset, _decode_letters(
            opposite[start:start + rlen - matched])

    letters = w.to_letters()
    steps = []
    exhausted = False
    while letters:
        if len(steps) >= budget:
            exhausted = True
            break
        enc = _encode_letters(letters)
        found = None
        for pos in range(len(letters)):
            got = best_match(enc, len(letters), pos)
            if got is not None:
                found = (pos, got)
                break
        if found is None:
            break
        pos, (matched, idx, sign, offset, replacement) = found
        steps.append(DehnStep(pos, matched, idx, sign, offset))
        stack = letters[:pos]
        for g in replacement + letters[pos + matched:]:
            if stack and stack[-1] == -g:
                stack.pop()
            else:
                stack.append(g)
        letters = stack
    return free_reduce(w.alphabet, letters), tuple(steps), exhausted


@st.composite
def dehn_problems(draw):
    """Relators (random, proper powers, one-sign powers like a1^3, of unequal
    lengths) and a word built from conjugated relators and random letters,
    so that it is sometimes shorter and sometimes longer than half of them."""
    m = draw(st.integers(1, 3))
    ab = Alphabet(m)
    letter = st.integers(1, m).flatmap(lambda g: st.sampled_from([g, -g]))
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "power", "one-sign"]))
        if kind == "one-sign":
            r = Word.generator(ab, draw(st.integers(1, m)), draw(st.integers(2, 5)))
        else:
            r = free_reduce(ab, draw(st.lists(letter, min_size=1, max_size=12)))
            if kind == "power":
                r = power(r, draw(st.integers(2, 3)))
        assume(not cyclic_reduce(r)[0].is_empty)
        relators.append(r)
    parts = [Word.identity(ab)]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            r = power(draw(st.sampled_from(relators)), draw(st.sampled_from([1, -1])))
            parts.append(conjugate(r, free_reduce(ab, draw(st.lists(letter, max_size=3)))))
        else:
            parts.append(free_reduce(ab, draw(st.lists(letter, max_size=8))))
    budget = draw(st.sampled_from([1, 2, DEFAULT_DEHN_BUDGET]))
    return concat_all(parts), relators, budget


@settings(max_examples=400, deadline=None)
@given(dehn_problems())
def test_dehn_reduce_trace_agrees_with_the_letter_list_loop(problem):
    w, relators, budget = problem
    res = dehn_reduce_trace(w, relators, budget)
    assert (res.word, res.steps, res.exhausted) == reference_dehn(w, relators, budget)


def encoded_entries(table):
    return [k for k in range(len(table.lengths)) if table._doubled[k] is not None]


def test_dehn_encodes_only_entries_shorter_than_twice_the_word():
    # 8, 8 and 12 letters; entries stay unencoded until a word reaches them
    long = Word.parse(AB4, "a1^3 a2^2 a3 a4^-1 a1 a2 a3^2 a4")
    relators = [GENUS2, long]
    table = _RelatorTable(relators)
    assert (table.lengths, table.shortest) == ([8, 8, 12, 12], 8)
    assert encoded_entries(table) == []
    half = Word.parse(AB4, "a1 a2 a1^-1 a2^-1")  # 2|w| <= every core
    res = dehn_reduce_trace(half, relators, _table=table)
    assert (res.word, res.steps) == (half, ())
    assert encoded_entries(table) == []
    longer = Word.parse(AB4, "a1 a2 a1^-1 a2^-1 a3")  # reaches GENUS2 only
    res = dehn_reduce_trace(longer, relators, _table=table)
    assert res.word == Word.parse(AB4, "a4 a3 a4^-1") and len(res.steps) == 1
    assert encoded_entries(table) == [0, 1]


def test_dehn_reduce_accepts_unreduced_toy_relators():
    # the second-kind relators are not cyclically reduced as written; the
    # relator table takes their cores, and a relator still rewrites to 1
    pres = build_presentation(AB, P, max_rank=1, pair_budget=1)
    relators = pres.relators_up_to(max(pres.ranks))
    assert any(not r.is_cyclically_reduced() for r in relators)
    rec = pres.all_relators()[0]
    res = dehn_reduce_trace(rec.relator, relators)
    assert res.word.is_empty and not res.exhausted


# -- presentation round trip -------------------------------------------------------------

def test_presentation_file_round_trip(tmp_path):
    pres = build_presentation(AB, P, max_rank=2, pair_budget=1)
    path = tmp_path / "pres.txt"
    save_presentation(pres, path)
    loaded = load_presentation(path)
    assert loaded.alphabet == pres.alphabet
    assert loaded.params == pres.params
    assert sorted(loaded.ranks) == sorted(pres.ranks)
    for idx in pres.ranks:
        assert loaded.ranks[idx].periods == pres.ranks[idx].periods
        assert [r.relator for r in loaded.ranks[idx].relators] == \
            [r.relator for r in pres.ranks[idx].relators]


def test_presentation_relator_ranks_match_period_length():
    pres = build_presentation(AB, P, max_rank=1, pair_budget=1)
    for rec in pres.all_relators():
        assert rec.rank == rec.A.letter_length
        assert rec.A in pres.ranks[rec.rank].periods


def test_presentation_file_matches_the_pinned_file(tmp_path):
    # the graded build --out file at (20, 2, 3) with pair budget 1, 43 lines
    path = tmp_path / "pres.txt"
    save_presentation(build_presentation(AB, P, max_rank=2, pair_budget=1), path)
    pinned = Path(__file__).parent / "data" / "presentation_20_2_3.txt"
    assert path.read_bytes() == pinned.read_bytes()


def test_presentation_build_is_deterministic(tmp_path):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_presentation(build_presentation(AB, P, max_rank=2, pair_budget=1), p1)
    save_presentation(build_presentation(AB, P, max_rank=2, pair_budget=1), p2)
    assert p1.read_text() == p2.read_text()
