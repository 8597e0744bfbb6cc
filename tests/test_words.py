import random
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfree import endo, verbal
from relfree import words as words_mod
from relfree.errors import AlphabetMismatch, BudgetExceeded, EmptyWord, InvalidLetter
from relfree.report import (
    naive_conjugacy_key,
    naive_cyclic_core,
    naive_conjugate,
    naive_cyclic_core,
    naive_primitive_root,
    naive_reduce,
)
from relfree.words import (
    DEFAULT_LETTER_BUDGET,
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
    parse_words,
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


def test_reduce_matches_the_stack_oracle_on_long_lists():
    # a random list, which cancels all along, and a reduced one of runs up to
    # 20 letters long, as the rewriter decodes: far longer than the lists above
    rng = random.Random(40)
    cancelling = rand_letters(rng, 200_000)
    reduced: list = []
    while len(reduced) < 200_000:
        last = abs(reduced[-1]) if reduced else 0
        g = rng.choice([g for g in (1, -1, 2, -2, 3, -3) if abs(g) != last])
        reduced += [g] * rng.randint(1, 20)
    reduced = reduced[:200_000]
    assert naive_reduce(reduced) == reduced
    for letters in (cancelling, reduced):
        want = naive_reduce(letters)
        w = free_reduce(Alphabet(3), letters)
        assert w.runs == letter_runs(want)
        assert w.to_letters() == want


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
    for product in (lambda: concat(A1, other), lambda: commutator(A1, other),
                    lambda: conjugate(A1, other), lambda: concat_all([A1, A1, other]),
                    lambda: conjugate_in_free(A1, other),
                    lambda: list(conjugacy_witnesses(A1, other))):
        with pytest.raises(AlphabetMismatch, match="alphabets differ: "):
            product()
    # alphabets equal by value are one alphabet, whether or not they are one object
    same = Word.generator(Alphabet(2), 1)
    assert same.alphabet is not A1.alphabet
    assert concat(A1, same) == Word.generator(AB, 1, 2)
    assert conjugate_in_free(A1, same)
    assert list(conjugacy_witnesses(A1, same)) == [Word.identity(AB)]


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
        assert tuple(canonical_cyclic(w).to_letters()) == \
            naive_conjugacy_key(w.to_letters())


def test_canonical_rotation_matches_naive_key_across_the_seam():
    ab3 = Alphabet(3)
    rng = random.Random(12)
    for _ in range(500):
        seq = naive_reduce(seam_letters(rng))
        w = free_reduce(ab3, seq)
        assert len(canonical_cyclic(w).runs) == len(w.runs) - 1
        assert tuple(canonical_cyclic(w).to_letters()) == naive_conjugacy_key(seq)
        g = free_reduce(ab3, rand_letters(rng, rng.randint(0, 4), 3))
        assert canonical_cyclic(conjugate(w, g)) == canonical_cyclic(w)


def reference_seam_merged(runs: tuple) -> tuple:
    if len(runs) >= 3 and runs[0][0] == runs[-1][0]:
        return ((runs[0][0], runs[0][1] + runs[-1][1]),) + runs[1:-1]
    return runs


def reference_canonical_cyclic(u: Word) -> Word:
    """The least rotation by one key per run and the two-pointer
    minimum-expression scan.  With letters coded 2g and 2g + 1, a run of c
    letters l gets (l, 0, c) when the letter after it (read cyclically) is
    smaller and (l, 1, -c) when it is larger, so comparing rotations that
    start at runs key by key is comparing them letterwise."""
    runs = reference_seam_merged(cyclic_reduce(u)[0].runs)
    if len(runs) <= 1:
        return Word(u.alphabet, runs)
    ls = [2 * g if e > 0 else 2 * g + 1 for g, e in runs]
    keys = [(l, 0, abs(e)) if nl < l else (l, 1, -abs(e))
            for (_, e), l, nl in zip(runs, ls, ls[1:] + ls[:1])]
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


def scaled(w: Word, factor: int) -> Word:
    """w with every exponent times ``factor``."""
    return Word.parse(w.alphabet, " ".join(f"a{g}^{e * factor}" for g, e in w.runs) or "1")


@pytest.fixture(scope="module")
def identity_cores() -> list[Word]:
    """The cores of w1 and w2 at (20, 2, 3) and of w1 at (20, 2, 4)."""
    return [cyclic_reduce(make(A1, A2, verbal.ParamSet(20, 2, n)))[0]
            for make, n in ((verbal.make_w1, 3), (verbal.make_w2, 3), (verbal.make_w1, 4))]


def assert_least_rotation_as_the_reference(w: Word) -> None:
    want = reference_canonical_cyclic(w)
    assert canonical_cyclic(w) == want
    # scaling every exponent alike keeps every comparison, hence the start
    big = scaled(w, 10**15)
    assert canonical_cyclic(big) == reference_canonical_cyclic(big) == scaled(want, 10**15)


def test_least_rotation_matches_the_reference_on_the_identity_words(identity_cores):
    rng = random.Random(21)
    for core in identity_cores:
        for _ in range(2):
            p = core.prefix(rng.randrange(core.letter_length))
            rotation = conjugate(core, invert(p))  # p^-1 core p
            g = free_reduce(AB, rand_letters(rng, rng.randint(1, 6)))
            assert_least_rotation_as_the_reference(rotation)
            assert_least_rotation_as_the_reference(conjugate(rotation, g))


def test_least_rotation_matches_the_reference_where_starts_tie():
    """u^a x u^b y, whose starts agree on many runs, and u^k, whose starts
    tie until a round compares all of the word's runs."""
    ab3 = Alphabet(3)
    rng = random.Random(22)
    for i in range(300):
        u = free_reduce(ab3, naive_cyclic_core(rand_letters(rng, rng.randint(2, 14), 3)))
        if u.is_empty:
            continue
        x, y = (free_reduce(ab3, rand_letters(rng, rng.randint(1, 3), 3)) for _ in "xy")
        powers = [power(u, rng.randint(1, 40)) for _ in "ab"]
        w = concat_all([powers[0], x, powers[1], y]) if i % 3 else power(u, rng.randint(2, 90))
        assert_least_rotation_as_the_reference(w)


def test_shortlex_key_orders_like_letters():
    words = list(enumerate_reduced_words(AB, 6))
    naive = sorted(words, key=lambda w: (w.letter_length,
                                          [(abs(g), g < 0) for g in w.to_letters()]))
    # classification reads its pair pool in the order the enumeration yields
    assert words == naive
    for m, L in ((1, 5), (3, 4)):
        ab = Alphabet(m)
        assert list(enumerate_reduced_words(ab, L)) == sorted(
            enumerate_reduced_words(ab, L), key=shortlex_key)
    random.Random(13).shuffle(words)
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


def test_the_root_cut_from_the_runs_rebuilds_the_word():
    """Powers of random cores on three generators, half of them joined
    across the seam, with small exponents and with exponents scaled past any
    letter budget: the root's k-th power is the word, and the root is
    primitive."""
    ab3 = Alphabet(3)
    rng = random.Random(16)
    seams = 0
    for i in range(400):
        letters = (seam_letters(rng) if i % 2
                   else naive_cyclic_core(rand_letters(rng, rng.randint(1, 10), 3)))
        if not letters:
            continue
        base = free_reduce(ab3, letters)
        scale = rng.choice((1, 1, 10**15))
        base = Word.parse(ab3, " ".join(f"a{g}^{e * scale}" for g, e in base.runs))
        u = power(base, rng.randint(1, 4))
        seams += len(u.runs) >= 3 and u.runs[0][0] == u.runs[-1][0]
        root, k = primitive_root(u)
        assert power(root, k) == u and primitive_root(root)[1] == 1
        if scale == 1:
            assert (tuple(root.to_letters()), k) == naive_primitive_root(u.to_letters())
    assert seams >= 150


@pytest.mark.parametrize("text, root_runs, k", [
    ("a1^1180591620717411303424 a2 a1^5", ((1, 2**70), (2, 1), (1, 5)), 3),  # across the seam
    ("a1^1180591620717411303424 a2", ((1, 2**70), (2, 1)), 2),  # no seam
])
def test_primitive_root_of_a_huge_power_by_its_runs(text, root_runs, k):
    base = Word.parse(AB, text)
    u = power(base, k)
    root, got = primitive_root(u)
    assert (root.runs, got) == (root_runs, k)
    assert power(root, k).runs == u.runs


def reference_primitive_root(u: Word) -> tuple[Word, int]:
    """The root by the KMP failure function over the seam-merged runs: their
    least period p, and k = N / p when p divides the number N of runs."""
    runs = reference_seam_merged(u.runs)
    n = len(runs)
    if n == 1:
        k = abs(runs[0][1])
        return (u.prefix(1) if k > 1 else u), k
    fail = [0] * (n + 1)
    f = 0
    for i in range(1, n):
        while f and runs[f] != runs[i]:
            f = fail[f]
        if runs[f] == runs[i]:
            f += 1
        fail[i + 1] = f
    p = n - f
    k = n // p if n % p == 0 else 1
    return (u if k == 1 else Word(u.alphabet, u.runs[:p] + u.runs[n:])), k


def cyclic_runs3(rng, m: int) -> Word:
    """A random cyclically reduced word over three generators whose first and
    last runs are on distinct generators, of m >= 2 runs."""
    gens = [rng.randint(1, 3)]
    while len(gens) < m:
        g = rng.choice([g for g in (1, 2, 3) if g != gens[-1]
                        and (len(gens) < m - 1 or g != gens[0])])
        gens.append(g)
    return Word.parse(AB3, " ".join(f"a{g}^{rng.choice((-2, -1, 1, 2, 3))}" for g in gens))


@pytest.mark.parametrize("n", [720, 2**10])  # 720 = 2^4 3^2 5
def test_primitive_root_matches_the_reference_at_length(n):
    """Powers of every run count dividing n, some of roots that are squares
    themselves, each rotated by a random number of letters (which joins many
    across the seam); the same with one run's exponent changed; and both with
    exponents times 10^15."""
    rng = random.Random(n)
    for m in (m for m in range(2, n + 1) if n % m == 0):
        root = cyclic_runs3(rng, m)
        if m % 2 == 0 and m >= 4 and rng.random() < 0.3:
            root = power(cyclic_runs3(rng, m // 2), 2)
        u = power(root, n // m)
        u = conjugate(u, invert(u.prefix(rng.randrange(u.letter_length))))  # a rotation
        runs = list(u.runs)
        i = rng.randrange(len(runs))
        runs[i] = (runs[i][0], runs[i][1] + (1 if runs[i][1] > 0 else -1))
        near = Word.parse(AB3, " ".join(f"a{g}^{e}" for g, e in runs))
        for w in (u, near, scaled(u, 10**15), scaled(near, 10**15)):
            got = primitive_root(w)
            assert got == reference_primitive_root(w)
            assert power(*got) == w
        assert primitive_root(u)[1] % (n // m) == 0


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


def test_minimal_witness_searches_through_the_module_attribute(monkeypatch):
    # a wrapper set on words.conjugacy_witnesses, as a tracer sets it, sees the search
    calls = []

    def counted(u, v, _witnesses=words_mod.conjugacy_witnesses):
        calls.append((u, v))
        return _witnesses(u, v)
    monkeypatch.setattr(words_mod, "conjugacy_witnesses", counted)
    u, v = Word.parse(AB, "a2 a1"), Word.parse(AB, "a1 a2")
    assert minimal_conjugacy_witness(u, v) == invert(A1)
    assert minimal_conjugacy_witness(A1, A2) is None
    assert calls == [(u, v), (A1, A2)]


# -- letter budget -----------------------------------------------------------------

def test_letter_budget_guards_materialization():
    w = power(A1, 10 ** 9)
    assert w.letter_length == 10 ** 9
    with pytest.raises(BudgetExceeded):
        w.to_letters()


def test_words_are_hashable_values():
    seen = {A1, A2, concat(A1, A2)}
    assert Word.parse(AB, "a1 a2") in seen


def test_conjugacy_witnesses_respect_the_letter_budget():
    u = power(A1, DEFAULT_LETTER_BUDGET + 1)  # one run: nothing is encoded
    with pytest.raises(BudgetExceeded):
        list(conjugacy_witnesses(u, u))


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
    # the edge: a word of exactly the budget's letters encodes, one more does not
    assert _encode_word(power(A1, DEFAULT_LETTER_BUDGET)) == "\x02" * DEFAULT_LETTER_BUDGET
    with pytest.raises(BudgetExceeded, match=f"word has {DEFAULT_LETTER_BUDGET + 1} letters"):
        _encode_word(power(A1, DEFAULT_LETTER_BUDGET + 1))


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
    exponent, then the ``a`` prefix and index, then the alphabet.  Both
    numbers are ASCII decimal digits, the exponent with an optional ``-``."""
    body, caret, etext = tok.partition("^")
    if caret and not re.fullmatch("-?[0-9]+", etext):
        return f"bad exponent in token {tok!r}"
    if not re.fullmatch("a[0-9]+", body):
        return f"bad token {tok!r}"
    k = int(body[1:])
    if k < 1 or k > m:
        return f"generator a{k} outside alphabet of {m}"
    return None


BAD_TOKENS = ["b2", "a", "a0", "a4", "a1^", "a1^x", "^2", "a-1", "aa1", "a1^2^3", "a²",
              "a1_0", "a+2", "a٣", "a1^2_0", "a1^+2", "a1^٣"]


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


# int() alone reads _ separators, a leading + and any Unicode digit
NON_ASCII_DECIMAL_TOKENS = [
    ("a1_0", "bad token 'a1_0'"), ("a+2", "bad token 'a+2'"),
    ("a\u0663", "bad token 'a\u0663'"), ("a1^2_0", "bad exponent in token 'a1^2_0'"),
    ("a1^+2", "bad exponent in token 'a1^+2'"), ("a1^\u0663", "bad exponent in token 'a1^\u0663'"),
]


@pytest.mark.parametrize("tok, message", NON_ASCII_DECIMAL_TOKENS)
def test_token_numbers_are_ascii_decimal_digits(tok, message):
    with pytest.raises(InvalidLetter) as info:
        Word.parse(Alphabet(20), f"a2 {tok} a1")
    assert str(info.value) == message
    with pytest.raises(InvalidLetter) as info:
        parse_words([("one", "a1 a2"), ("two", f"a2 {tok}")], 20)
    assert str(info.value) == f"two: {message}"
    with pytest.raises(InvalidLetter) as info:
        parse_words([("", tok)])
    assert str(info.value) == message
    # ASCII digits with leading zeros and a minus sign still read
    assert str(Word.parse(Alphabet(20), "a02 a1^-02 a10^0")) == "a2 a1^-2"


@pytest.mark.parametrize("text, want", [
    ("a300 a300^2 a1", "a300^3 a1"),  # past 255 generators the runs are cut without the pretest
    ("a300 a1 a300^2", "a300 a1 a300^2"),
    ("a255 a255^2 a1", "a255^3 a1"),  # below 256 the pretest finds the cut
    ("a255 a1 a255^2", "a255 a1 a255^2"),
])
def test_runs_that_share_a_generator_join_on_both_sides_of_255_generators(text, want):
    assert str(Word.parse(Alphabet(300), text)) == want


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


# -- the run table: one shared object per run value ----------------------------------

@contextmanager
def fresh_run_tables(budget: int = words_mod._RUN_TABLE_BUDGET):
    """Empty run and inverse tables that stop growing at ``budget`` entries,
    in place of the module's for the duration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words_mod, "_RUN_TABLE_BUDGET", budget)
        mp.setattr(words_mod, "_RUNS", words_mod._Table(words_mod._RUNS.make))
        mp.setattr(words_mod, "_INVERSES", words_mod._Table(words_mod._INVERSES.make))
        yield words_mod._RUNS


def run_text(runs) -> str:
    return " ".join(token_text(g, e) for g, e in runs) or "1"


def every_constructor(a, b, k) -> list[Word]:
    """The words that each constructor of the word algebra, the verbal
    builders and substitution return, from two drawn run lists over three
    generators and an exponent."""
    u, v = Word.parse(AB3, run_text(a)), parse_words([("", run_text(b))], 3)[0]
    out = [u, v, free_reduce(AB3, word3(a).to_letters()), Word.generator(AB3, -2, k),
           concat(u, v), concat_all([u, v, u]), invert(u), power(u, k), power(u, -k),
           conjugate(u, v), commutator(u, v), *cyclic_reduce(concat_all([v, u, invert(v)])),
           u.prefix(u.letter_length // 2)]
    core = cyclic_reduce(u)[0]
    if not core.is_empty:
        out += [canonical_cyclic(u), primitive_root(power(core, k))[0]]
    x, y = Word.generator(AB3, 1), concat(Word.generator(AB3, 2), v)
    p = verbal.ParamSet(20, 1, 1)
    out += [verbal.make_v(z, x, y, p) for z in (0, 1, 2)]
    out += [verbal.make_w1(x, y, p), verbal.make_w2(x, y, p),
            words_mod.substitute(verbal.slot_schedule(1, p), (u, y), AB3),
            words_mod.substitute(verbal.slot_schedule(2, p), (x, y, v), AB3)]
    out.append(words_mod.substitute(concat(u, v), [y, u, invert(v)], AB3))
    return out


@settings(max_examples=60, deadline=None)
@given(runs3_strategy, runs3_strategy, st.integers(1, 4))
def test_every_run_of_every_word_is_the_tables_own_object(a, b, k):
    with fresh_run_tables() as table:
        for w in every_constructor(a, b, k):
            assert all(table.get(run) is run for run in w.runs)
            assert all(words_mod._INVERSES[run] is table[(run[0], -run[1])] for run in w.runs)


@settings(max_examples=60, deadline=None)
@given(runs3_strategy, runs3_strategy, st.integers(1, 4), st.integers(0, 6))
def test_past_the_table_budget_words_are_equal_by_value(a, b, k, budget):
    with fresh_run_tables(budget) as table:
        small = every_constructor(a, b, k)
        assert len(table) <= budget and len(words_mod._INVERSES) <= budget
    with fresh_run_tables():
        assert every_constructor(a, b, k) == small


@settings(max_examples=200, deadline=None)
@given(runs3_strategy, runs3_strategy, st.integers(1, 4))
def test_a_carried_letter_length_is_the_sum_of_the_runs(a, b, k):
    built = every_constructor(a, b, k)
    assert all(w._len is not None for w in built[-5:])  # the substitutions
    for w in built:
        if w._len is not None:
            assert w._len == sum(abs(e) for _, e in w.runs)


@settings(max_examples=200, deadline=None)
@given(runs3_strategy, runs3_strategy, st.integers(1, 4))
def test_a_carried_exponent_sum_is_the_sum_of_the_runs(a, b, k):
    built = every_constructor(a, b, k)
    assert all(w._sums is not None for w in built[-5:])  # the substitutions
    for w in built:
        if w._sums is not None:
            for g in (1, 2, 3):
                want = sum(e for r, e in w.runs if r == g)
                assert exponent_sum(w, g) == want and exponent_sum(w, -g) == -want


@pytest.mark.parametrize("h, d, n", [(20, 2, 3), (40, 3, 5)])
def test_the_identity_words_carry_their_zero_exponent_sums(h, d, n):
    # the eight sums C01 reads: the carried ones, checked against the runs
    ab, p = Alphabet(2), verbal.ParamSet(h, d, n)
    x, y = Word.generator(ab, 1), Word.generator(ab, 2)
    for w in (verbal.make_w1(x, y, p), verbal.make_w2(x, y, p)):
        assert w._sums is not None
        for g in (1, 2):
            assert exponent_sum(w, g) == sum(e for r, e in w.runs if r == g) == 0


def test_append_runs_returns_the_letters_cancelled_at_the_seam():
    x = Word.parse(AB3, "a1^2 a2^-3 a3")
    acc = list(x.runs)  # a slot whose image x^-1 cancels it whole
    assert words_mod._append_runs(acc, invert(x).runs) == 12 and acc == []
    acc = [(1, 2)]  # a merge of opposite signs: 2 + 5 letters become 3
    assert words_mod._append_runs(acc, ((1, -5), (2, 1))) == 4 and acc == [(1, -3), (2, 1)]
    acc = [(1, 1), (2, 2), (3, 1)]  # a cascade of two pops, then a merge
    assert words_mod._append_runs(acc, ((3, -1), (2, -2), (1, 2), (2, 1))) == 6
    assert acc == [(1, 3), (2, 1)]
    acc = [(3, 1), (1, 1)]  # an empty image
    assert words_mod._append_runs(acc, ()) == 0 and acc == [(3, 1), (1, 1)]
    # an image a1^-1 a2 a1 that is not cyclically reduced: its conjugator
    # cancels against the slot before it
    assert words_mod._append_runs(acc, ((1, -1), (2, 1), (1, 1))) == 2
    assert acc == [(3, 1), (2, 1), (1, 1)]


@pytest.mark.parametrize("text, images, want", [
    ("a1 a2", ["a1^2 a2^-3 a3", "a3^-1 a2^3 a1^-2"], "1"),
    ("a2 a1", ["a2 a3 a2^-1", "a2^-1"], "a3 a2^-1"),
    ("a3 a1^-2 a2", ["a1^-1 a2 a1", "1", "a1"], "a2^-2 a1"),
    ("a1^3 a2 a1^-1", ["a1 a2", "a2^-1 a1^-1 a3"], "a1 a2 a1 a2 a3 a2^-1 a1^-1"),
])
def test_a_substitution_carries_its_exact_length(text, images, want):
    # the runs of ``text`` as a slot schedule, which needs no image per generator
    runs = Word.parse(AB3, text).runs
    got = words_mod.substitute(runs, [Word.parse(AB3, t) for t in images], AB3)
    assert str(got) == want
    assert got._len == sum(abs(e) for _, e in got.runs)


def inverse_runs(runs) -> list:
    return [(g, -e) for g, e in reversed(runs)]


def inverse_letters(letters) -> list:
    return [-a for a in reversed(letters)]


@st.composite
def image_runs(draw):
    """The runs of an image of each kind that powers split apart: empty, one
    run, or a core under a conjugator, the core's first and last runs sharing
    a generator and sign when ``seam`` is drawn (its copies then join)."""
    kind = draw(st.sampled_from(["empty", "run", "conjugated", "seam"]))
    g, e = draw(st.integers(1, 3)), draw(st.integers(-3, 3).filter(bool))
    if kind == "empty":
        return []
    if kind == "run":
        return [(g, e)]
    core = draw(runs3_strategy)
    if kind == "seam":
        core = [(g, e)] + [r for r in core if r[0] != g] + [(g, draw(st.integers(1, 3)) * e)]
    conj = draw(runs3_strategy)
    return conj + core + inverse_runs(conj)


# slots over 3 generators with exponents -7..7, 0 and repeats among them; a
# slot after one of its own generator and the other sign cancels its head whole
schedule_strategy = st.lists(st.tuples(st.integers(1, 3), st.integers(-7, 7)), max_size=10)


@settings(max_examples=400, deadline=None)
@given(schedule_strategy, st.lists(image_runs(), min_size=3, max_size=3))
def test_substitute_and_power_agree_with_the_letter_reference(schedule, image_list):
    with fresh_run_tables() as table:
        images = [word3(runs) for runs in image_list]
        letters = {g: img.to_letters() for g, img in enumerate(images, 1)}
        got = words_mod.substitute(schedule, images, AB3)
        powers = [(power(img, k), letters[g], k) for g, img in enumerate(images, 1)
                  for k in range(-7, 8)]
        runs = [w.runs for w in [got] + [p for p, _, _ in powers]]
        assert all(table.get(run) is run for r in runs for run in r)
    want = free_reduce(AB3, [a for g, e in schedule for _ in range(abs(e))
                             for a in (letters[g] if e > 0 else inverse_letters(letters[g]))])
    assert got.runs == want.runs
    assert got._len == want.letter_length
    assert {g: s for g, s in got._sums.items() if s} == {
        g: s for g, s in want.exponent_sums().items() if s}
    for got_power, word_letters, k in powers:
        base = word_letters if k > 0 else inverse_letters(word_letters)
        assert got_power.runs == free_reduce(AB3, base * abs(k)).runs


def test_one_substitution_holds_little_more_than_its_result():
    # the build of w2 at (40, 3, 5), 1.2 M runs, holds its run stack and the
    # result tuple at the end, and no tiled run list per exponent before it
    tracemalloc = pytest.importorskip("tracemalloc")
    p = verbal.ParamSet(40, 3, 5)
    verbal.make_w2(A1, A2, p)  # the run table holds every run value afterwards
    tracemalloc.start()
    try:
        w = verbal.make_w2(A1, A2, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * len(w.runs)


@pytest.mark.parametrize("witness, p", [(endo.surjectivity_witness, verbal.ParamSet(40, 3, 5)),
                                        (endo.kernel_witness, verbal.ParamSet(40, 3, 40))])
def test_an_identity_witness_holds_two_run_arrays_not_three(witness, p):
    # the identity word it returns (w2 of 1.2 M runs, or w1 of 264 001) is
    # compared as a run stack with the other side's stack, which is dropped
    # before the word's tuple is made: the stack and one more array are live
    tracemalloc = pytest.importorskip("tracemalloc")
    witness(p)  # the run table holds every run value afterwards
    tracemalloc.start()
    try:
        w = witness(p)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * len(w.runs)


def test_equal_runs_built_apart_are_one_object():
    # two separately built copies of w1 share every run object
    p = verbal.ParamSet(20, 2, 3)
    x, y = Word.generator(AB, 1), Word.generator(AB, 2)
    with fresh_run_tables():
        w, again = verbal.make_w1(x, y, p), verbal.make_w1(x, y, p)
        assert w.runs is not again.runs
        assert all(map(lambda r, s: r is s, w.runs, again.runs))
        inverses = map(words_mod._INVERSES.__getitem__, reversed(w.runs))
        assert all(map(lambda r, s: r is s, invert(w).runs, inverses))


@settings(max_examples=300, deadline=None)
@given(runs3_strategy, runs3_strategy, st.booleans())
def test_a_core_keeps_what_its_word_knows(a, g, cached):
    core = cyclic_reduce(word3(a))[0]
    assert cyclic_reduce(core)[0] is core
    u = conjugate(core, word3(g))
    if cached:
        assert u.letter_length == len(u.to_letters())
    got, conj = cyclic_reduce(u)
    assert conjugate(got, conj) == u
    assert got.letter_length == sum(abs(e) for _, e in got.runs) == len(core.to_letters())
    assert (got is u) == conj.is_empty


# -- conjugacy witnesses against the letter-level reference ----------------------------

def reference_conjugacy_witnesses(u: Word, v: Word) -> list[Word]:
    """Every W with u = W v W^-1, one per cyclic alignment of the cores, in
    order of the alignment's start in the doubled core of v; over letter
    lists, with W = cu p^-1 cv^-1 where core_v = p s and s p = core_u."""
    def split(w):
        letters = naive_reduce(w.to_letters())
        core = naive_cyclic_core(letters)
        return core, letters[:(len(letters) - len(core)) // 2]

    (core_u, cu), (core_v, cv) = split(u), split(v)
    if len(core_u) != len(core_v):
        return []
    if not core_u:
        return [Word.identity(u.alphabet)]
    doubled = core_v + core_v
    inverse = lambda letters: [-g for g in reversed(letters)]
    return [free_reduce(u.alphabet, cu + inverse(core_v[:s]) + inverse(cv))
            for s in range(len(core_v)) if doubled[s:s + len(core_u)] == core_u]


conjugate_pair_strategy = st.tuples(
    st.one_of(runs3_strategy,
              st.integers(0, 10 ** 6).map(lambda seed: letter_runs(naive_reduce(
                  seam_letters(random.Random(seed)))))),
    st.integers(1, 3), runs3_strategy, runs3_strategy, st.booleans())


@settings(max_examples=400, deadline=None)
@given(conjugate_pair_strategy)
def test_witnesses_agree_with_the_letter_reference(pair):
    # v = g core^k g^-1 and u = h v h^-1: a proper power when k > 1, a core
    # merged at the seam when drawn from seam_letters; or u unrelated to v
    core_runs, k, g, h, related = pair
    v = conjugate(power(word3(core_runs), k), word3(g))
    u = conjugate(v, word3(h)) if related else word3(h)
    want = reference_conjugacy_witnesses(u, v)
    assert list(conjugacy_witnesses(u, v)) == want
    best = minimal_conjugacy_witness(u, v)
    if not want:
        assert best is None
        return
    assert conjugate(v, best) == u
    if not v.is_empty:
        kmax = u.letter_length + v.letter_length + 2
        assert best == coset_minimum(u, v, kmax)
