import random

import pytest

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
    canonical_cyclic,
    commutator,
    concat,
    concat_all,
    conjugate,
    conjugate_in_free,
    cyclic_reduce,
    enumerate_reduced_words,
    exponent_sum,
    free_reduce,
    invert,
    letter_key,
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
                                          [letter_key(g) for g in w.to_letters()]))
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
    from relfree.words import minimal_conjugacy_witness

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
        # brute force: nothing strictly shorter conjugates v to u
        for cand in pool:
            if cand.letter_length < w.letter_length:
                assert conjugate(v, cand) != u


def test_conjugacy_witness_absent_for_nonconjugates():
    from relfree.words import minimal_conjugacy_witness

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
