import random

import pytest

from relfree.errors import AlphabetMismatch, InvalidIndex, InvalidParams
from relfree.verbal import (
    ParamSet,
    epsilon,
    make_v,
    make_w1,
    make_w2,
    slot_schedule,
    w1_exponents,
    w2_exponents,
    word_length_symbolic,
)
from relfree.words import (
    Alphabet,
    Word,
    commutator,
    exponent_sum,
    free_reduce,
    power,
    substitute,
)

AB = Alphabet(2)
A1 = Word.generator(AB, 1)
A2 = Word.generator(AB, 2)
P = ParamSet(20, 2, 3)


# -- naive letter-level template builders (the oracle for this module) --------

def n_inv(ls):
    return [-g for g in reversed(ls)]


def n_pow(ls, k):
    return n_inv(ls) * (-k) if k < 0 else ls * k


def n_comm(u, v):
    return u + v + n_inv(u) + n_inv(v)


def naive_v1(x, y, d):
    t = n_pow(x, d) + n_pow(y, d)
    t = n_pow(t, d) + n_pow(x, d)
    return n_pow(n_comm(n_pow(t, d), n_pow(x, d)), d) + y


def naive_v2(x, y, d):
    return n_comm(n_pow(naive_v1(x, y, d), d), n_pow(x, d))


def naive_template(z, sign, block, lead, h, n):
    """Template z with ``sign`` in its sign slots, ``block`` in its power
    slots and, in template 2, ``lead`` first."""
    if z == 1:
        out = []
        # the h sign slots take sign indices 1..h/2, twice
        for idx, e in zip(list(range(1, h // 2 + 1)) * 2, w1_exponents(h, n)):
            out += n_pow(sign, epsilon(idx)) + n_pow(block, e)
        return out
    exps = w2_exponents(h, n)
    out = lead + n_pow(block, exps[0])
    for i in range(2, h + 1):
        out += n_pow(sign, epsilon(i)) + n_pow(block, exps[i - 1])
    return out


def naive_w1(x, y, h, d, n):
    return naive_template(1, x, naive_v1(x, y, d), [], h, n)


def naive_w2(x, y, h, d, n):
    return naive_template(2, naive_v1(x, y, d), naive_v2(x, y, d), y, h, n)


# -- the sign schedule ----------------------------------------------------------

def test_epsilon_first_decade():
    assert [epsilon(i) for i in range(1, 11)] == [1, 1, 1, -1, 1, 1, -1, -1, -1, -1]


def test_epsilon_periodic():
    for i in range(1, 41):
        assert epsilon(i) == epsilon(i + 10)


def test_epsilon_decade_sums_to_zero():
    assert sum(epsilon(i) for i in range(1, 11)) == 0


def test_epsilon_rejects_zero():
    with pytest.raises(InvalidIndex):
        epsilon(0)


# -- parameters -------------------------------------------------------------------

@pytest.mark.parametrize("h,d,n", [(30, 2, 3), (0, 2, 3), (20, 0, 3), (20, 2, 0), (10, 1, 1)])
def test_invalid_params(h, d, n):
    with pytest.raises(InvalidParams):
        ParamSet(h, d, n)


def test_valid_params():
    ParamSet(20, 1, 1)
    ParamSet(200, 7, 11)


# -- v-words -----------------------------------------------------------------------

def test_v0_is_first_argument():
    assert make_v(0, A1, A2, P) == A1


def test_v1_collapses_on_equal_arguments():
    assert make_v(1, A1, A1, P) == A1


def test_v1_matches_letter_oracle_at_small_d():
    got = make_v(1, A1, A2, P)
    want = free_reduce(AB, naive_v1([1], [2], 2))
    assert got == want


def test_v1_on_longer_arguments_matches_oracle():
    rng = random.Random(13)
    for _ in range(10):
        xl = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))]
        yl = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))]
        x, y = free_reduce(AB, xl), free_reduce(AB, yl)
        assert make_v(1, x, y, P) == free_reduce(AB, naive_v1(x.to_letters(), y.to_letters(), 2))


def test_v2_is_commutator_of_powers():
    x, y = Word.parse(AB, "a1 a2"), Word.parse(AB, "a2^-1 a1")
    v1 = make_v(1, x, y, P)
    assert make_v(2, x, y, P) == commutator(power(v1, P.d), power(x, P.d))


def test_make_v_rejects_bad_level():
    with pytest.raises(InvalidIndex):
        make_v(3, A1, A2, P)


# -- the two identity words ---------------------------------------------------------

def test_w1_exponent_schedule_shape():
    exps = w1_exponents(20, 3)
    assert len(exps) == 20
    assert exps[:4] == [3, 5, 7, 9]
    assert exps[8] == 19          # n + h - 4
    assert exps[9] == 31          # (n + h - 2) + h/2
    assert exps[10:12] == [-4, -6]
    assert exps[-1] == -22        # -(n + h - 1)
    assert sum(exps) == 0


def test_w2_exponent_schedule_shape():
    exps = w2_exponents(20, 3)
    assert exps == [9 + j for j in range(1, 21)]


def test_w1_w2_zero_exponent_sums():
    for w in (make_w1(A1, A2, P), make_w2(A1, A2, P)):
        assert exponent_sum(w, 1) == 0
        assert exponent_sum(w, 2) == 0


def test_w1_collapses_on_equal_arguments():
    assert make_w1(A1, A1, P).is_empty


def test_w2_leads_with_second_argument():
    w2 = make_w2(A1, A2, P)
    g, e = w2.runs[0]
    assert g == 2 and e > 0


def test_w1_matches_letter_oracle():
    assert make_w1(A1, A2, P) == free_reduce(AB, naive_w1([1], [2], 20, 2, 3))


def test_w2_matches_letter_oracle():
    assert make_w2(A1, A2, P) == free_reduce(AB, naive_w2([1], [2], 20, 2, 3))


def test_w2_builds_v1_once(monkeypatch):
    from relfree import verbal

    levels = []

    def counted(z, *args, **kwargs):
        levels.append(z)
        return make_v(z, *args, **kwargs)

    monkeypatch.setattr(verbal, "make_v", counted)
    assert make_w2(A1, A2, P) == free_reduce(AB, naive_w2([1], [2], 20, 2, 3))
    assert levels.count(1) == 1


def test_identity_words_live_in_commutator_subgroup():
    rng = random.Random(14)
    for _ in range(8):
        xl = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))]
        yl = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))]
        x, y = free_reduce(AB, xl), free_reduce(AB, yl)
        for w in (make_w1(x, y, P), make_w2(x, y, P)):
            assert exponent_sum(w, 1) == 0
            assert exponent_sum(w, 2) == 0


def test_substitution_compatibility():
    # building at (X, Y) equals substituting into the word built at (x, y)
    x, y = Word.parse(AB, "a1 a2"), Word.parse(AB, "a2^-1")
    template = make_v(1, A1, A2, P)
    assert substitute(template, [x, y], AB) == make_v(1, x, y, P)
    assert substitute(make_w1(A1, A2, P), [x, y], AB) == make_w1(x, y, P)
    assert substitute(make_w2(A1, A2, P), [x, y], AB) == make_w2(x, y, P)


def test_template_rejects_mixed_alphabets():
    with pytest.raises(AlphabetMismatch):
        substitute(slot_schedule(1, P), (A1, Word.generator(Alphabet(3), 1)), AB)
    with pytest.raises(AlphabetMismatch):
        make_w1(A1, Word.generator(Alphabet(3), 1), P)


def test_a_schedule_needs_an_image_for_each_symbol():
    # the second template leads with symbol 3
    with pytest.raises(AlphabetMismatch, match="generator 3"):
        substitute(slot_schedule(2, P), (A1, A2), AB)
    assert substitute(slot_schedule(1, P), (A1, A2), AB) == \
        free_reduce(AB, naive_template(1, [1], [2], [], 20, 3))


def test_a_schedule_rejects_a_template_level_other_than_one_or_two():
    for z in (0, 3):
        with pytest.raises(InvalidIndex):
            list(slot_schedule(z, P))


# -- symbolic lengths -----------------------------------------------------------------

def test_symbolic_length_exact_for_unreduced_templates():
    cases = {
        "v1": len(naive_v1([1], [2], 2)),
        "v2": len(naive_v2([1], [2], 2)),
        "w1": len(naive_w1([1], [2], 20, 2, 3)),
        "w2": len(naive_w2([1], [2], 20, 2, 3)),
    }
    for which, want in cases.items():
        assert word_length_symbolic(which, 1, 1, P) == want


@pytest.mark.parametrize("h", [20, 40, 60, 200, 1000])
@pytest.mark.parametrize("d, n", [(1, 1), (2, 3), (3, 5), (7, 11)])
def test_symbolic_length_closed_forms_sum_the_exponent_lists(h, d, n):
    p = ParamSet(h, d, n)
    len_v1 = word_length_symbolic("v1", 2, 3, p)
    len_v2 = word_length_symbolic("v2", 2, 3, p)
    assert word_length_symbolic("w1", 2, 3, p) == \
        h * 2 + len_v1 * sum(abs(e) for e in w1_exponents(h, n))
    assert word_length_symbolic("w2", 2, 3, p) == \
        3 + (h - 1) * len_v1 + len_v2 * sum(w2_exponents(h, n))


@pytest.mark.parametrize("h", [20, 40, 60, 200, 1000])
@pytest.mark.parametrize("d, n", [(1, 1), (2, 3), (3, 5), (7, 11)])
def test_slot_schedules_read_the_exponent_lists_and_the_sign_schedule(h, d, n):
    p = ParamSet(h, d, n)
    lx, ly = 2, 3
    len_v1 = word_length_symbolic("v1", lx, ly, p)
    len_v2 = word_length_symbolic("v2", lx, ly, p)
    # template 1 alternates sign and power slots; its h sign slots take the
    # sign indices 1..h/2 twice.  Template 2 leads with symbol 3, then its
    # power slots alternate with sign slots of indices 2..h.
    cases = {
        "w1": (1, [], [epsilon(i) for i in list(range(1, h // 2 + 1)) * 2],
               w1_exponents(h, n), {1: lx, 2: len_v1}),
        "w2": (2, [(3, 1)], [epsilon(i) for i in range(2, h + 1)],
               w2_exponents(h, n), {1: len_v1, 2: len_v2, 3: ly}),
    }
    for which, (z, lead, signs, powers, image_length) in cases.items():
        runs = list(slot_schedule(z, p))
        body = runs[len(lead):]
        assert runs[:len(lead)] == lead
        assert [e for g, e in body if g == 2] == powers
        assert [e for g, e in body if g == 1] == signs
        assert len(body) == len(powers) + len(signs)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        assert sum(abs(e) * image_length[g] for g, e in runs) == \
            word_length_symbolic(which, lx, ly, p)


def test_symbolic_length_v0():
    assert word_length_symbolic("v0", 7, 3, P) == 7


def test_symbolic_length_bounds_reduced_length():
    x, y = Word.parse(AB, "a1 a2"), Word.parse(AB, "a2^-1 a1")
    built = make_w1(x, y, P)
    assert built.letter_length <= word_length_symbolic("w1", 2, 2, P)


def test_symbolic_length_monotone_in_n():
    small = word_length_symbolic("w2", 1, 1, ParamSet(20, 2, 3))
    large = word_length_symbolic("w2", 1, 1, ParamSet(20, 2, 4))
    assert large > small


def test_symbolic_length_handles_ledger_scale():
    p = ParamSet(20, 10 ** 12, 10 ** 31)
    assert word_length_symbolic("w2", 1, 1, p) > 10 ** 70
