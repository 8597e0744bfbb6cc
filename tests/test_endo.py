import random
from itertools import chain

import pytest

from relfree import endo, graded
from relfree.endo import (check_report, kernel_witness, kernel_word, psi_infinity,
                          surjectivity_witness)
from relfree.errors import AlphabetMismatch, RankTooSmall
from relfree.verbal import ParamSet, make_v, make_w1, make_w2
from relfree.words import (
    Alphabet,
    Word,
    commutator,
    concat,
    cyclic_reduce,
    exponent_sum,
    free_reduce,
    substitute,
)

AB = Alphabet(2)
A1 = Word.generator(AB, 1)
A2 = Word.generator(AB, 2)
P = ParamSet(20, 2, 3)

GRID = [ParamSet(h, d, n) for h in (20, 40) for d in (2, 3) for n in (3, 5, 40)]


def rand_word(rng, n):
    return free_reduce(AB, [rng.choice([1, -1, 2, -2]) for _ in range(n)])


def rand_images(rng):
    return (rand_word(rng, rng.randint(0, 4)), rand_word(rng, rng.randint(0, 4)))


def apply(images, w):
    return substitute(w, images, AB)


def build_w_as(monkeypatch, z, w):
    """Make the witnesses' build of w_z at (a1, a2) leave the run stack of ``w``
    (the images of the real build stay)."""
    build = endo._w_stack

    def built(zz, x, y, p):
        images, stack = build(zz, x, y, p)
        return images, ((list(w.runs), w.letter_length, w.exponent_sums()) if zz == z else stack)
    monkeypatch.setattr(endo, "_w_stack", built)


# -- substitution mechanics ------------------------------------------------------

def test_swap_is_an_involution():
    swap = (A2, A1)
    rng = random.Random(21)
    for _ in range(50):
        w = rand_word(rng, rng.randint(0, 10))
        assert apply(swap, apply(swap, w)) == w


def test_apply_distributes_over_commutator():
    rng = random.Random(22)
    for _ in range(100):
        e = rand_images(rng)
        u, v = rand_word(rng, rng.randint(0, 5)), rand_word(rng, rng.randint(0, 5))
        assert apply(e, commutator(u, v)) == commutator(apply(e, u), apply(e, v))


def test_apply_is_multiplicative():
    rng = random.Random(23)
    for _ in range(100):
        e = rand_images(rng)
        u, v = rand_word(rng, rng.randint(0, 6)), rand_word(rng, rng.randint(0, 6))
        assert apply(e, concat(u, v)) == concat(apply(e, u), apply(e, v))


def test_alphabet_mismatch_rejected():
    other = Alphabet(3)
    # a word over another alphabet needs as many images as it has generators
    with pytest.raises(AlphabetMismatch):
        apply(tuple(AB.generators()), Word.generator(other, 1))
    with pytest.raises(AlphabetMismatch):
        substitute(A1, [A1, Word.generator(other, 1)], AB)
    with pytest.raises(AlphabetMismatch):
        substitute(A1, (A1,), AB)
    with pytest.raises(AlphabetMismatch):
        substitute(A1, (A1, A2), other)


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
    assert substitute(Word.generator(ab3, 3), psi, ab3) == Word.generator(ab3, 3)


def test_psi_needs_rank_two():
    with pytest.raises(RankTooSmall):
        psi_infinity(Alphabet(1), P)


def test_psi_substitution_compatibility_on_w2():
    # applying the map to the second identity word re-expresses it at (a1, v1)
    psi = psi_infinity(AB, P)
    v1 = make_v(1, A1, A2, P)
    assert apply(psi, make_w2(A1, A2, P)) == make_w2(A1, v1, P)


# -- kernel witness -----------------------------------------------------------------

def test_kernel_identity_on_the_full_grid():
    for p in GRID:
        u, ok, _ = kernel_witness(p)
        assert ok, (p.h, p.d, p.n)


def test_kernel_witness_returns_the_w1_it_compared():
    for p in (P, ParamSet(40, 3, 5)):
        assert kernel_witness(p)[2] == make_w1(A1, A2, p)


def test_kernel_identity_is_refused_when_w1_has_one_exponent_changed(monkeypatch):
    # the comparison with w1 is literal: one run off by one fails it
    w1 = make_w1(A1, A2, P)
    i = len(w1.runs) // 2
    g, e = w1.runs[i]
    changed = Word(AB, w1.runs[:i] + ((g, e + (1 if e > 0 else -1)),) + w1.runs[i + 1:])
    build_w_as(monkeypatch, 1, changed)
    assert changed != w1
    u, ok, compared = kernel_witness(P)
    assert ok is False
    assert (u, compared) == (kernel_word(P), changed)


def test_kernel_word_shape():
    u, _, _ = kernel_witness(P)
    assert kernel_word(P) == u
    assert not u.is_empty
    assert u.is_cyclically_reduced()
    assert exponent_sum(u, 1) == 0
    assert exponent_sum(u, 2) == 0


def test_kernel_word_length_bound():
    for p in GRID:
        u, _, _ = kernel_witness(p)
        assert u.letter_length < (p.n + p.h) * p.h


def test_kernel_word_uses_only_plain_letters():
    # the template puts a2-powers in the block slots, nothing longer
    u, _, _ = kernel_witness(P)
    assert set(g for g, _ in u.runs) == {1, 2}


# -- surjectivity witness -------------------------------------------------------------

def test_surjectivity_identity():
    for p in (ParamSet(20, 2, 3), ParamSet(40, 2, 5), ParamSet(40, 3, 5)):
        _, ok, _ = surjectivity_witness(p)
        assert ok, (p.h, p.d, p.n)


def test_surjectivity_witness_returns_the_w2_it_compared():
    for p in (P, ParamSet(40, 2, 5)):
        assert surjectivity_witness(p)[2] == make_w2(A1, A2, p)


@pytest.mark.parametrize("p", [ParamSet(20, 2, 3), ParamSet(40, 2, 5)])
def test_the_y_prefixed_substitution_is_y_times_the_substituted_tail(p):
    tail, _, _ = surjectivity_witness(p)
    v1 = make_v(1, A1, A2, p)
    one = substitute(chain(((3, 1),), tail.runs), [A1, v1, A2], AB)
    assert one == concat(A2, substitute(tail, [A1, v1], AB))


def test_surjectivity_is_refused_when_w2_has_one_exponent_changed(monkeypatch):
    # the comparison with w2 is literal: one run off by one fails it
    w2 = make_w2(A1, A2, P)
    i = len(w2.runs) // 2
    g, e = w2.runs[i]
    changed = Word(AB, w2.runs[:i] + ((g, e + (1 if e > 0 else -1)),) + w2.runs[i + 1:])
    build_w_as(monkeypatch, 2, changed)
    assert changed != w2
    assert surjectivity_witness(P)[1] is False


def test_tail_starts_with_commutator_block():
    tail, _, _ = surjectivity_witness(P)
    # [s_v^d, s_x^d]^{n^2+1} opens with s_v^d
    assert tail.runs[0] == (2, P.d)


def test_tail_with_sv_to_y_has_zero_sums():
    tail, _, _ = surjectivity_witness(P)
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


def test_check_report_calls_each_witness_once_through_the_module(monkeypatch):
    # a wrapper set on the module attribute, as a tracer sets it, sees each call
    calls = []
    for name in ("kernel_witness", "surjectivity_witness"):
        def counted(p, _name=name, _witness=getattr(endo, name)):
            calls.append(_name)
            return _witness(p)
        monkeypatch.setattr(endo, name, counted)
    assert all(c.passed for c in check_report(P))
    assert sorted(calls) == ["kernel_witness", "surjectivity_witness"]


def test_the_dehn_evidence_names_half_the_shortest_core():
    # the shortest core of the 16 toy relators at (20, 2, 3) has 20 018 letters
    evidence = {c.name: c for c in check_report(P)}["kernel-word-dehn-irreducible"]
    assert evidence.passed
    assert evidence.detail == "|U| = 280, floor(shortest core / 2) = 10009, over 16 toy relators"


def test_check_report_keeps_the_dehn_evidence_at_the_second_scale():
    # |w2| = 4 361 644 letters at (40, 3, 5): the line reads its core, and is not skipped
    checks = {c.name: c for c in check_report(ParamSet(40, 3, 5))}
    evidence = checks["kernel-word-dehn-irreducible"]
    assert evidence.passed
    u, _, _ = kernel_witness(ParamSet(40, 3, 5))
    assert evidence.detail.startswith(f"|U| = {u.letter_length}, floor(shortest core / 2) = ")
    assert evidence.detail.endswith(" over 16 toy relators")


def dehn_line(p):
    return {c.name: c for c in check_report(p)}["kernel-word-dehn-irreducible"]


@pytest.mark.parametrize("p", [ParamSet(20, 2, 3), ParamSet(40, 3, 5)])
def test_the_length_evidence_agrees_with_the_dehn_run_it_replaced(p):
    # the reference builds the 16 toy relators: 8 cores as long as w1(a1, a2)'s
    # and 8 as long as w2(a1, a2)'s, and a Dehn run leaves U as it is
    records = graded.build_presentation(AB, p, max_rank=1, pair_budget=1).all_relators()
    relators = [rec.relator for rec in records]
    core = {z: cyclic_reduce(w(A1, A2, p))[0].letter_length
            for z, w in ((1, make_w1), (2, make_w2))}
    lengths = [cyclic_reduce(r)[0].letter_length for r in relators]
    assert sorted(rec.z_star for rec in records) == [1] * 8 + [2] * 8
    assert lengths == [core[rec.z_star] for rec in records]
    u = kernel_word(p)
    res = graded.dehn_reduce_trace(u, relators)
    assert (res.word, res.steps, res.exhausted) == (u, (), False)
    line = dehn_line(p)
    assert line.passed
    assert line.detail == (f"|U| = {u.letter_length}, floor(shortest core / 2) = "
                           f"{min(lengths) // 2}, over 16 toy relators")


@pytest.mark.parametrize("core_length, passed", [(560, True), (559, False), (2, False)])
def test_the_dehn_line_fails_on_a_core_shorter_than_twice_u(monkeypatch, core_length, passed):
    # |U| = 280 at (20, 2, 3): a step over a core of 559 letters needs 280 of
    # them, all of U, and over one of 560 it needs 281
    build_w_as(monkeypatch, 1, concat(Word.generator(AB, 1, core_length - 1), A2))
    line = dehn_line(P)
    assert line.passed is passed
    assert line.detail == (f"|U| = 280, floor(shortest core / 2) = {core_length // 2}, "
                           "over 16 toy relators")


def test_check_report_builds_no_presentation_relator_table_or_dehn_trace(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built")
    for name in ("build_presentation", "_RelatorTable", "dehn_reduce_trace", "build_relator"):
        monkeypatch.setattr(graded, name, refuse)
    monkeypatch.setattr(graded.RelatorRecord, "relator", property(refuse))
    assert all(c.passed for c in check_report(P))
