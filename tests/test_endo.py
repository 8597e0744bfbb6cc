import random

import pytest

from relfree.endo import (
    Endomorphism,
    apply,
    check_report,
    kernel_witness,
    psi_infinity,
    substitute,
    surjectivity_witness,
)
from relfree.errors import AlphabetMismatch, RankTooSmall
from relfree.verbal import ParamSet, make_v, make_w1, make_w2
from relfree.words import Alphabet, Word, commutator, concat, exponent_sum, free_reduce

AB = Alphabet(2)
A1 = Word.generator(AB, 1)
A2 = Word.generator(AB, 2)
P = ParamSet(20, 2, 3)

GRID = [ParamSet(h, d, n) for h in (20, 40) for d in (2, 3) for n in (3, 5, 40)]


def rand_word(rng, n):
    return free_reduce(AB, [rng.choice([1, -1, 2, -2]) for _ in range(n)])


def rand_endo(rng):
    return Endomorphism(AB, (rand_word(rng, rng.randint(0, 4)),
                             rand_word(rng, rng.randint(0, 4))))


# -- substitution mechanics ------------------------------------------------------

def test_swap_is_an_involution():
    swap = Endomorphism(AB, (A2, A1))
    rng = random.Random(21)
    for _ in range(50):
        w = rand_word(rng, rng.randint(0, 10))
        assert apply(swap, apply(swap, w)) == w


def test_apply_distributes_over_commutator():
    rng = random.Random(22)
    for _ in range(100):
        e = rand_endo(rng)
        u, v = rand_word(rng, rng.randint(0, 5)), rand_word(rng, rng.randint(0, 5))
        assert apply(e, commutator(u, v)) == commutator(apply(e, u), apply(e, v))


def test_apply_is_multiplicative():
    rng = random.Random(23)
    for _ in range(100):
        e = rand_endo(rng)
        u, v = rand_word(rng, rng.randint(0, 6)), rand_word(rng, rng.randint(0, 6))
        assert apply(e, concat(u, v)) == concat(apply(e, u), apply(e, v))


def test_alphabet_mismatch_rejected():
    other = Alphabet(3)
    with pytest.raises(AlphabetMismatch):
        apply(Endomorphism(AB, tuple(AB.generators())), Word.generator(other, 1))
    with pytest.raises(AlphabetMismatch):
        substitute(A1, [Word.generator(other, 1)], AB)
    with pytest.raises(AlphabetMismatch):
        Endomorphism(AB, (A1,))


# -- the distinguished endomorphism ------------------------------------------------

def test_psi_fixes_first_generator():
    psi = psi_infinity(AB, P)
    assert apply(psi, A1) == A1


def test_psi_sends_second_generator_to_v1():
    psi = psi_infinity(AB, P)
    assert apply(psi, A2) == make_v(1, A1, A2, P)


def test_psi_matches_letter_oracle_at_small_d():
    from tests.test_verbal import naive_v1

    psi = psi_infinity(AB, P)
    assert apply(psi, A2) == free_reduce(AB, naive_v1([1], [2], 2))


def test_psi_fixes_higher_generators():
    ab3 = Alphabet(3)
    psi = psi_infinity(ab3, P)
    assert apply(psi, Word.generator(ab3, 3)) == Word.generator(ab3, 3)


def test_psi_needs_rank_two():
    with pytest.raises(RankTooSmall):
        psi_infinity(Alphabet(1), P)
    with pytest.raises(RankTooSmall):
        kernel_witness(P, Alphabet(1))


def test_psi_substitution_compatibility_on_w2():
    # applying the map to the second identity word re-expresses it at (a1, v1)
    psi = psi_infinity(AB, P)
    v1 = make_v(1, A1, A2, P)
    assert apply(psi, make_w2(A1, A2, P)) == make_w2(A1, v1, P)


# -- kernel witness -----------------------------------------------------------------

def test_kernel_identity_on_the_full_grid():
    for p in GRID:
        u, ok = kernel_witness(p)
        assert ok, (p.h, p.d, p.n)


def test_kernel_word_shape():
    u, _ = kernel_witness(P)
    assert not u.is_empty
    assert u.is_cyclically_reduced()
    assert exponent_sum(u, 1) == 0
    assert exponent_sum(u, 2) == 0


def test_kernel_word_length_bound():
    for p in GRID:
        u, _ = kernel_witness(p)
        assert u.letter_length < (p.n + p.h) * p.h


def test_kernel_word_uses_only_plain_letters():
    # the template puts a2-powers in the block slots, nothing longer
    u, _ = kernel_witness(P)
    assert set(g for g, _ in u.runs) == {1, 2}


# -- surjectivity witness -------------------------------------------------------------

def test_surjectivity_identity():
    for p in (ParamSet(20, 2, 3), ParamSet(40, 2, 5), ParamSet(40, 3, 5)):
        _, ok = surjectivity_witness(p)
        assert ok, (p.h, p.d, p.n)


def test_tail_starts_with_commutator_block():
    tail, _ = surjectivity_witness(P)
    # [s_v^d, s_x^d]^{n^2+1} opens with s_v^d
    assert tail.runs[0] == (2, P.d)


def test_tail_with_sv_to_y_has_zero_sums():
    tail, _ = surjectivity_witness(P)
    target = Alphabet(2)
    x, y = Word.generator(target, 1), Word.generator(target, 2)
    w = concat(y, substitute(tail, [x, y], target))
    assert exponent_sum(w, 1) == 0
    assert exponent_sum(w, 2) == 0


def test_check_report_all_pass():
    checks = check_report(P)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "kernel-identity" in names
    assert "surjectivity-identity" in names
