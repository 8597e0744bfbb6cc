import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfree.errors import AlphabetMismatch, BudgetExceeded, EmptyWord, InvalidLetter
from relfree.report import (
    naive_conjugacy_key,
    naive_conjugate,
    naive_cyclic_core,
    naive_primitive_root,
    naive_reduce,
)
from relfree.words import (
    Alphabet,
    Word,
    _decode_letters,
    _encode_letters,
    _encode_word,
    canonical_cyclic,
    commutator,
    concat,
    concat_all,
    conjugate,
    conjugacy_witnesses,
    conjugate_in_free,
    cyclic_reduce,
    enumerate_reduced_words,
    exponent_sum,
    free_reduce,
    invert,
    minimal_conjugacy_witness,
    power,
    primitive_root,
    shortlex_key,
)

AB = Alphabet(2)
A1 = Word.generator(AB, 1)
A2 = Word.generator(AB, 2)


def rand_letters(rng, n, m=2):
    return [rng.choice([s * g for g in range(1, m + 1) for s in (1, -1)])
            for _ in range(n)]


def seam_letters(rng, m=3, emax=5):
    """A cyclically reduced letter sequence whose first and last runs share a
    generator and sign, so that they join across the seam."""
    g = rng.choice([s * k for k in range(1, m + 1) for s in (1, -1)])
    inner = []
    while not inner or inner[0] in (g, -g) or inner[-1] in (g, -g):
        inner = naive_reduce(rand_letters(rng, rng.randint(1, 6), m))
    return ([g] * rng.randint(1, emax) + inner * rng.randint(1, emax)
            + [g] * rng.randint(1, emax))


# -- reduction ---------------------------------------------------------------

def test_cancellation():
    assert free_reduce(AB, [1, -1]).is_empty


def test_nested_cancellation():
    assert free_reduce(AB, [1, 2, -2, 1]) == Word.parse(AB, "a1^2")


def test_reduce_matches_stack_oracle_on_random_words():
    rng = random.Random(42)
    for _ in range(1000):
        seq = rand_letters(rng, 12)
        assert free_reduce(AB, seq).to_letters() == naive_reduce(seq)


def letter_runs(letters) -> tuple:
    """The runs of a reduced letter list, grouped one letter at a time."""
    runs: list = []
    for g in letters:
        if runs and runs[-1][0] == g:
            runs[-1][1] += 1
        else:
            runs.append([g, 1])
    return tuple((abs(g), c if g > 0 else -c) for g, c in runs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40))
def test_reduce_runs_match_the_stack_oracle(letters):
    assert free_reduce(Alphabet(3), letters).runs == letter_runs(naive_reduce(letters))


def first_letter_error(alphabet, letters):
    for g in letters:
        try:
            alphabet.check_letter(g)
        except InvalidLetter as exc:
            return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 0, 3, -3, 1.0, True]), max_size=10))
def test_reduce_refuses_exactly_what_check_letter_refuses(letters):
    want = first_letter_error(AB, letters)
    if want is None:
        assert free_reduce(AB, letters).to_letters() == naive_reduce(letters)
    else:
        with pytest.raises(InvalidLetter) as info:
            free_reduce(AB, letters)
        assert str(info.value) == want


@pytest.mark.parametrize("letters, bad", [
    ([1, 0, 3, 1.0], "0"), ([2, 3, 0, 1.0], "3"), ([1, -1, 1.0, 0, 3], "1.0"),
    ([-3, 1.0], "-3"), ([1, True], "True")])
def test_reduce_names_the_first_bad_letter(letters, bad):
    with pytest.raises(InvalidLetter, match=rf"^letter {bad} outside"):
        free_reduce(AB, letters)


def test_generator_refuses_a_bool():
    with pytest.raises(InvalidLetter, match=r"^letter True outside"):
        Word.generator(AB, True)


def test_reduce_idempotent():
    rng = random.Random(1)
    for _ in range(100):
        w = free_reduce(AB, rand_letters(rng, 10))
        assert free_reduce(AB, w.to_letters()) == w


def test_invalid_letters_rejected():
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [0])
    with pytest.raises(InvalidLetter):
        free_reduce(AB, [3])
    with pytest.raises(InvalidLetter):
        Word.parse(AB, "a3")
    with pytest.raises(InvalidLetter):
        Word.parse(AB, "b1")


def test_text_format_round_trip():
    w = Word.parse(AB, "a1^3 a2^-1 a1")
    assert str(w) == "a1^3 a2^-1 a1"
    assert Word.parse(AB, str(w)) == w
    assert str(Word.identity(AB)) == "1"
    assert Word.parse(AB, "1").is_empty
    # the parser reduces on the way in
    assert Word.parse(AB, "a1 a2 a2^-1 a1") == Word.parse(AB, "a1^2")


# -- group operations ----------------------------------------------------------

def test_power_example():
    assert power(Word.parse(AB, "a1 a2"), 3) == Word.parse(AB, "a1 a2 a1 a2 a1 a2")
    assert power(A1, 0).is_empty
    assert power(Word.parse(AB, "a1 a2"), -2) == Word.parse(AB, "a2^-1 a1^-1 a2^-1 a1^-1")


def test_conjugate_example():
    assert conjugate(A1, A2) == Word.parse(AB, "a2 a1 a2^-1")


def test_concat_interior_cancellation():
    assert concat(Word.parse(AB, "a1 a2^-1"), Word.parse(AB, "a2 a1")) == \
        Word.parse(AB, "a1^2")


def test_double_inverse():
    rng = random.Random(2)
    for _ in range(50):
        w = free_reduce(AB, rand_letters(rng, 9))
        assert invert(invert(w)) == w


def test_commutator_convention():
    assert commutator(A1, A2) == Word.parse(AB, "a1 a2 a1^-1 a2^-1")


def test_commuting_powers_kill_commutator():
    assert commutator(A1, power(A1, 5)).is_empty


def test_commutator_matches_letter_oracle():
    rng = random.Random(3)
    for _ in range(200):
        ua = rand_letters(rng, rng.randint(0, 6))
        va = rand_letters(rng, rng.randint(0, 6))
        u, v = free_reduce(AB, ua), free_reduce(AB, va)
        naive = naive_reduce(u.to_letters() + v.to_letters()
                             + [-g for g in reversed(u.to_letters())]
                             + [-g for g in reversed(v.to_letters())])
        assert commutator(u, v).to_letters() == naive


def test_alphabet_mismatch():
    other = Word.generator(Alphabet(3), 1)
    with pytest.raises(AlphabetMismatch):
        concat(A1, other)
    with pytest.raises(AlphabetMismatch):
        commutator(A1, other)


def test_reduction_confluence_under_rebracketing():
    rng = random.Random(4)
    for _ in range(100):
        words = [free_reduce(AB, rand_letters(rng, rng.randint(0, 5)))
                 for _ in range(5)]
        flat = concat_all(words)
        left = words[0]
        for i in range(1, 5):
            left = concat(left, words[i])
        right = words[4]
        for i in range(3, -1, -1):
            right = concat(words[i], right)
        assert flat == left == right


def test_length_subadditivity():
    rng = random.Random(5)
    for _ in range(100):
        u = free_reduce(AB, rand_letters(rng, rng.randint(0, 8)))
        v = free_reduce(AB, rand_letters(rng, rng.randint(0, 8)))
        assert concat(u, v).letter_length <= u.letter_length + v.letter_length
        k = rng.randint(-4, 4)
        assert power(u, k).letter_length <= abs(k) * u.letter_length


# -- exponent sums ---------------------------------------------------------------

def test_exponent_sum_examples():
    assert exponent_sum(commutator(A1, A2), 1) == 0
    w = Word.parse(AB, "a1^3 a2 a1^-1")
    assert exponent_sum(w, 1) == 2
    assert exponent_sum(w, 2) == 1


def test_exponent_sum_is_homomorphism():
    rng = random.Random(6)
    for _ in range(200):
        u = free_reduce(AB, rand_letters(rng, rng.randint(0, 8)))
        v = free_reduce(AB, rand_letters(rng, rng.randint(0, 8)))
        for g in (1, 2):
            assert exponent_sum(concat(u, v), g) == \
                exponent_sum(u, g) + exponent_sum(v, g)


# -- cyclic structure -------------------------------------------------------------

def test_cyclic_reduce_example():
    core, conj = cyclic_reduce(Word.parse(AB, "a2 a1 a2^-1"))
    assert core == A1
    assert conj == A2


def test_cyclic_reduce_decomposition():
    rng = random.Random(7)
    for _ in range(300):
        w = free_reduce(AB, rand_letters(rng, rng.randint(0, 10)))
        core, conj = cyclic_reduce(w)
        assert core.is_cyclically_reduced()
        assert conjugate(core, conj) == w


def test_rotation_same_cyclic_word():
    assert canonical_cyclic(Word.parse(AB, "a1 a2")) == \
        canonical_cyclic(Word.parse(AB, "a2 a1"))


def test_canonical_cyclic_conjugation_invariant():
    rng = random.Random(8)
    for _ in range(500):
        u = free_reduce(AB, rand_letters(rng, rng.randint(0, 8)))
        g = free_reduce(AB, rand_letters(rng, rng.randint(0, 5)))
        assert canonical_cyclic(u) == canonical_cyclic(conjugate(u, g))


def test_canonical_rotation_matches_naive_key_exhaustively():
    for w in enumerate_reduced_words(AB, 7):
        assert tuple(canonical_cyclic(w).rep.to_letters()) == \
            naive_conjugacy_key(w.to_letters())


def test_canonical_rotation_matches_naive_key_across_the_seam():
    ab3 = Alphabet(3)
    rng = random.Random(12)
    for _ in range(500):
        seq = naive_reduce(seam_letters(rng))
        w = free_reduce(ab3, seq)
        assert len(canonical_cyclic(w).rep.runs) == len(w.runs) - 1
        assert tuple(canonical_cyclic(w).rep.to_letters()) == naive_conjugacy_key(seq)
        g = free_reduce(ab3, rand_letters(rng, rng.randint(0, 4), 3))
        assert canonical_cyclic(conjugate(w, g)) == canonical_cyclic(w)


def test_shortlex_key_orders_like_letters():
    words = list(enumerate_reduced_words(AB, 6))
    random.Random(13).shuffle(words)
    naive = sorted(words, key=lambda w: (w.letter_length,
                                          [(abs(g), g < 0) for g in w.to_letters()]))
    assert sorted(words, key=shortlex_key) == naive


def test_conjugate_in_free_examples():
    assert conjugate_in_free(Word.parse(AB, "a1 a2"), Word.parse(AB, "a2 a1"))
    assert not conjugate_in_free(A1, A2)


def test_conjugacy_agrees_with_shift_oracle():
    rng = random.Random(9)
    for _ in range(500):
        a = rand_letters(rng, rng.randint(0, 8))
        b = rand_letters(rng, rng.randint(0, 8))
        if rng.random() < 0.4:
            g = rand_letters(rng, rng.randint(0, 3))
            b = g + a + [-x for x in reversed(g)]
        assert conjugate_in_free(free_reduce(AB, a), free_reduce(AB, b)) == \
            naive_conjugate(a, b)


def test_conjugacy_is_equivalence_on_sample():
    rng = random.Random(10)
    words = [free_reduce(AB, rand_letters(rng, rng.randint(0, 6))) for _ in range(20)]
    for u in words:
        assert conjugate_in_free(u, u)
    for u in words:
        for v in words:
            assert conjugate_in_free(u, v) == conjugate_in_free(v, u)
    for u in words:
        for v in words:
            for w in words:
                if conjugate_in_free(u, v) and conjugate_in_free(v, w):
                    assert conjugate_in_free(u, w)


AB3 = Alphabet(3)
runs3_strategy = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3).filter(bool)),
                          max_size=8)


def word3(runs) -> Word:
    return free_reduce(AB3, [g if e > 0 else -g for g, e in runs for _ in range(abs(e))])


@settings(max_examples=400, deadline=None)
@given(runs3_strategy, runs3_strategy, runs3_strategy, st.integers(0, 30),
       st.sampled_from(["rotated", "other", "one-letter-more"]))
def test_conjugate_in_free_agrees_with_canonical_forms(a, b, g, shift, how):
    # v is a conjugate of a letter rotation of u (which may cut a run), an
    # unrelated word, or that conjugate with one letter added
    u = word3(a)
    letters = u.to_letters()
    if how == "other":
        v = word3(b)
    else:
        k = shift % len(letters) if letters else 0
        v = conjugate(free_reduce(AB3, letters[k:] + letters[:k]), word3(g))
        if how == "one-letter-more":
            v = concat(v, Word.generator(AB3, 1))
    want = canonical_cyclic(u) == canonical_cyclic(v)
    assert conjugate_in_free(u, v) == conjugate_in_free(v, u) == want
    assert want == naive_conjugate(u.to_letters(), v.to_letters())


@pytest.mark.parametrize("u, v, want", [
    ("1", "1", True),
    ("1", "a1", False),
    ("a2 a2^-1", "a1 a1^-1", True),
    ("a1^5", "a1^5", True),
    ("a1^5", "a1^-5", False),
    ("a1^5", "a1^4", False),
    ("a1^5", "a2 a1^5 a2^-1", True),
    ("a1^5", "a2^5", False),
    ("a1 a2 a1^2", "a1^3 a2", True),       # the ends of the first core merge
    ("a1 a2 a1^2", "a1^2 a2 a1", True),
    ("a1 a2 a1^2", "a1^3 a2^-1", False),
    ("a1 a2 a1 a2", "a1^2 a2^2", False),   # 4 runs against 2, equal lengths
    ("a1 a2 a1 a2^-1", "a1^2 a2^2", False),
    ("a1 a2^2", "a2 a1 a2", True),         # 2 runs against 3 before the seam
])
def test_conjugate_in_free_examples_over_runs(u, v, want):
    u, v = Word.parse(AB, u), Word.parse(AB, v)
    assert conjugate_in_free(u, v) == conjugate_in_free(v, u) == want
    assert (canonical_cyclic(u) == canonical_cyclic(v)) == want


def test_conjugacy_over_more_distinct_runs_than_code_points():
    # 2n > 0x110000 distinct runs (1, i), (2, i), so one code point per run
    # could not name them all
    n = 0x110000 // 2 + 1
    runs = tuple(r for i in range(1, n + 1) for r in ((1, i), (2, i)))
    u = Word(AB, runs)
    # a rotation that cuts the run (1, 700) in two across the seam
    k = 2 * 699
    v = Word(AB, ((1, 300),) + runs[k + 1:] + runs[:k] + ((1, 400),))
    assert conjugate_in_free(u, v)
    # the same runs with (1, 2) and (1, 3) swapped: (1, 1) pins the only
    # rotation that could match, and it does not
    w = Word(AB, runs[:2] + (runs[4], runs[3], runs[2]) + runs[5:])
    assert not conjugate_in_free(u, w)


# -- primitive roots ------------------------------------------------------------

def test_primitive_root_examples():
    root, k = primitive_root(power(Word.parse(AB, "a1 a2"), 3))
    assert (root, k) == (Word.parse(AB, "a1 a2"), 3)
    assert primitive_root(A1) == (A1, 1)


def test_primitive_root_exhaustive_vs_divisor_oracle():
    for w in enumerate_reduced_words(AB, 6, include_empty=False):
        if not w.is_cyclically_reduced():
            continue
        root, k = primitive_root(w)
        nroot, nk = naive_primitive_root(w.to_letters())
        assert (tuple(root.to_letters()), k) == (nroot, nk)


def test_primitive_root_across_the_seam():
    root, k = primitive_root(power(Word.parse(AB, "a1 a2 a1"), 3))
    assert (str(root), k) == ("a1 a2 a1", 3)
    ab3 = Alphabet(3)
    rng = random.Random(14)
    for _ in range(300):
        seq = naive_reduce(seam_letters(rng)) * rng.randint(1, 4)
        root, k = primitive_root(free_reduce(ab3, seq))
        assert (tuple(root.to_letters()), k) == naive_primitive_root(seq)


def test_primitive_root_is_primitive():
    rng = random.Random(11)
    for _ in range(200):
        seq = rand_letters(rng, rng.randint(1, 8))
        core = naive_cyclic_core(seq)
        if not core:
            continue
        root, _ = primitive_root(free_reduce(AB, core))
        assert primitive_root(root)[1] == 1


def test_primitive_root_rejects_empty():
    with pytest.raises(EmptyWord):
        primitive_root(Word.identity(AB))


# -- conjugacy witnesses ----------------------------------------------------------

def test_conjugacy_witness_is_minimal():
    pool = list(enumerate_reduced_words(AB, 4))
    rng = random.Random(99)
    for _ in range(60):
        v = free_reduce(AB, rand_letters(rng, rng.randint(1, 5)))
        if v.is_empty:
            continue
        g = free_reduce(AB, rand_letters(rng, rng.randint(0, 3)))
        u = conjugate(v, g)
        w = minimal_conjugacy_witness(u, v)
        assert w is not None
        assert conjugate(v, w) == u
        # brute force over the pool, which is in shortlex order: w is the first
        # word that conjugates v to u
        first = next(cand for cand in pool if conjugate(v, cand) == u)
        assert first == w


def coset_minimum(u: Word, v: Word, kmax: int) -> Word:
    """The shortlex-least of w0 rho^k, |k| <= kmax, where w0 is one witness of
    u = W v W^-1 and rho generates the centralizer of v."""
    w0 = next(conjugacy_witnesses(u, v))
    core, cv = cyclic_reduce(v)
    root, _ = primitive_root(core)
    rho = conjugate(root, cv)
    return min((concat(w0, power(rho, k)) for k in range(-kmax, kmax + 1)),
               key=shortlex_key)


# proper powers, a core with the same generator at both ends, a commutator
WITNESS_CORES = ["a1", "a1^3", "a1 a2", "a1 a2 a1 a2 a1 a2", "a1^2 a2^-1 a1",
                 "a1 a2 a1^-1 a2^-1", "a1 a2^-1 a1 a2^-1"]


def test_minimal_witness_is_the_least_of_its_coset():
    ab = Alphabet(3)
    rng = random.Random(41)
    for _ in range(300):
        if rng.random() < 0.5:
            core = Word.parse(ab, rng.choice(WITNESS_CORES))
        else:
            core = cyclic_reduce(free_reduce(ab, rand_letters(rng, rng.randint(1, 5), 3)))[0]
            if core.is_empty:
                continue
            core = power(core, rng.randint(1, 3))
        v = conjugate(core, free_reduce(ab, rand_letters(rng, rng.randint(0, 3), 3)))
        u = conjugate(v, free_reduce(ab, rand_letters(rng, rng.randint(0, 6), 3)))
        kmax = u.letter_length + v.letter_length + 2
        assert minimal_conjugacy_witness(u, v) == coset_minimum(u, v, kmax)


def test_minimal_witness_breaks_length_ties_shortlex():
    # a1^-1 and a2 = a1^-1 (a1 a2) both conjugate a1 a2 to a2 a1
    u, v = Word.parse(AB, "a2 a1"), Word.parse(AB, "a1 a2")
    assert conjugate(v, A2) == u
    assert minimal_conjugacy_witness(u, v) == invert(A1)


def test_conjugacy_witness_absent_for_nonconjugates():
    assert minimal_conjugacy_witness(A1, A2) is None


# -- letter budget -----------------------------------------------------------------

def test_letter_budget_guards_materialization():
    w = power(A1, 10 ** 9)
    assert w.letter_length == 10 ** 9
    with pytest.raises(BudgetExceeded):
        w.to_letters(limit=1000)


def test_words_are_hashable_values():
    seen = {A1, A2, concat(A1, A2)}
    assert Word.parse(AB, "a1 a2") in seen


def test_conjugacy_witnesses_respect_the_letter_budget():
    u = commutator(power(A1, 600), A2)
    with pytest.raises(BudgetExceeded):
        list(conjugacy_witnesses(u, u, letter_budget=100))


# -- encoding and parsing, against letter-level references --------------------------

M_BIG = 300  # past 127 generators the codes no longer fit in one byte
BIG = Alphabet(M_BIG)

# words over up to 300 generators, as runs with exponents of either sign
runs_strategy = st.lists(
    st.tuples(st.integers(1, M_BIG), st.integers(-4, 4).filter(bool)), max_size=30)


def word_from_runs(runs) -> Word:
    letters = []
    for g, e in runs:
        letters += [g if e > 0 else -g] * abs(e)
    return free_reduce(BIG, letters)


@settings(max_examples=200, deadline=None)
@given(runs_strategy)
def test_encode_word_matches_the_letter_encoding(runs):
    w = word_from_runs(runs)
    enc = _encode_word(w)
    assert enc == _encode_letters(w.to_letters())
    assert _decode_letters(enc) == w.to_letters()


def test_unencodable_generator_is_an_invalid_letter():
    # a_k^-1 is encoded as the code point 2k + 1, and code points end at 0x10FFFF
    ab = Alphabet(600_000)
    w = Word.parse(ab, "a600000 a1")
    with pytest.raises(InvalidLetter, match="generator a600000 is past a557055"):
        list(conjugacy_witnesses(w, w))
    with pytest.raises(InvalidLetter, match="generator a600000 is past a557055"):
        _encode_letters([1, -600_000])
    top = Word.parse(ab, "a557055^-2 a1")
    assert _decode_letters(_encode_word(top)) == top.to_letters()


def test_encode_word_checks_the_budget_before_building():
    w = Word.parse(AB, f"a1^{2 ** 70} a2")
    with pytest.raises(BudgetExceeded, match="over the budget of 10000000"):
        _encode_word(w)
    assert _encode_word(power(A1, 5), limit=5) == _encode_letters([1] * 5)
    with pytest.raises(BudgetExceeded):
        _encode_word(power(A1, 5), limit=4)


def token_text(g: int, e: int) -> str:
    return f"a{g}" if e == 1 else f"a{g}^{e}"


# tokens with repeats (drawn from a small pool), zero exponents and the
# stream a1 a1^-1 a1, so that cancellation reaches across repeated tokens
token_strategy = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(-3, 3)),
    st.tuples(st.integers(1, M_BIG), st.integers(-3, 3)),
)
stream_strategy = st.lists(
    st.one_of(token_strategy.map(lambda t: [t]),
              st.just([(1, 1), (1, -1), (1, 1)])),
    max_size=25).map(lambda chunks: [t for chunk in chunks for t in chunk])


@settings(max_examples=300, deadline=None)
@given(stream_strategy)
def test_parse_matches_reduction_of_the_naive_expansion(stream):
    letters = []
    for g, e in stream:
        letters += [g if e > 0 else -g] * abs(e)
    text = " ".join(token_text(g, e) for g, e in stream)
    assert Word.parse(BIG, text) == free_reduce(BIG, letters)


def naive_token_error(tok: str, m: int) -> str | None:
    """The message Word.parse gives for a bad token, checked in its order:
    exponent, then the ``a`` prefix and index, then the alphabet."""
    body, caret, etext = tok.partition("^")
    if caret:
        try:
            int(etext)
        except ValueError:
            return f"bad exponent in token {tok!r}"
    if not body.startswith("a"):
        return f"bad token {tok!r}"
    try:
        k = int(body[1:])
    except ValueError:
        return f"bad token {tok!r}"
    if k < 1 or k > m:
        return f"generator a{k} outside alphabet of {m}"
    return None


BAD_TOKENS = ["b2", "a", "a0", "a4", "a1^", "a1^x", "^2", "a-1", "aa1", "a1^2^3", "a²"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(token_strategy.filter(lambda t: t[0] <= 3)
                          .map(lambda t: token_text(*t)),
                          st.sampled_from(BAD_TOKENS)), min_size=1, max_size=12))
def test_parse_reports_the_first_bad_token(tokens):
    ab3 = Alphabet(3)
    errors = [msg for msg in (naive_token_error(t, 3) for t in tokens) if msg]
    text = " ".join(tokens)
    if not errors:
        Word.parse(ab3, text)
        return
    with pytest.raises(InvalidLetter) as info:
        Word.parse(ab3, text)
    assert str(info.value) == errors[0]


# token soup: repeated generators (some past 255, where shared generators are
# found without the byte search), exponent 0, negative and large exponents,
# a1^1, the identity token 1 and odd whitespace; bad tokens among them
SOUP_GOOD = st.tuples(st.sampled_from([1, 2, 3, 299, 300]),
                      st.one_of(st.integers(-3, 3), st.integers(-400, 400))).map(
    lambda t: f"a{t[0]}^{t[1]}" if t[1] != 1 or t[0] == 2 else f"a{t[0]}")
SOUP_SPACE = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b", " ", "　"])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(SOUP_GOOD, SOUP_GOOD, SOUP_GOOD, st.just("1"),
                          st.sampled_from(BAD_TOKENS)), max_size=30),
       st.lists(SOUP_SPACE, min_size=31, max_size=31))
def test_parse_of_token_soup_matches_the_naive_reduction(tokens, spaces):
    text = spaces[-1] + "".join(t + s for t, s in zip(tokens, spaces))
    errors = [] if tokens == ["1"] else \
        [msg for msg in (naive_token_error(t, M_BIG) for t in tokens) if msg]
    if errors:
        with pytest.raises(InvalidLetter) as info:
            Word.parse(BIG, text)
        assert str(info.value) == errors[0]
        return
    letters = []
    for tok in tokens if tokens != ["1"] else []:
        body, _, etext = tok.partition("^")
        g, e = int(body[1:]), int(etext or 1)
        letters += [g if e > 0 else -g] * abs(e)
    w = Word.parse(BIG, text)
    assert w.to_letters() == naive_reduce(letters)
    # and the runs are the normal form: no exponent 0, no generator twice in a row
    assert all(e for _, e in w.runs)
    assert all(a[0] != b[0] for a, b in zip(w.runs, w.runs[1:]))
