import dataclasses
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relfree.errors import (
    BudgetExceeded,
    EmptyInput,
    EmptyWord,
    InvalidIndex,
    InvalidParams,
    WitnessNotFound,
    ZeroExponent,
    split_fields,
)
import relfree.graded as graded_mod
from relfree.graded import (
    DEFAULT_DEHN_BUDGET,
    _PIECE_BUDGET,
    DehnStep,
    GradedPresentation,
    RelatorRecord,
    _RelatorTable,
    _axis_index,
    _pair_conjugacy_witness,
    build_presentation,
    build_relator,
    classify_pairs,
    dehn_reduce_trace,
    load_presentation,
    periods_rank,
    piece_stats,
    save_presentation,
)
from relfree.verbal import ParamSet, make_v, make_w, make_w1, w1_exponents, w2_exponents
from relfree.words import (
    Alphabet,
    Word,
    _decode_letters,
    _encode_letters,
    canonical_cyclic,
    commutator,
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
    shortlex_key,
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

def reference_classify_pairs(pres, z_star, L, v_word=make_v, w_word=make_w):
    """The value-level classification: build v and w for every pair, drop the
    pairs whose w is trivial, and class the rest by joint conjugacy of
    (v, w), each class keyed by its shortlex-least pair."""
    p = pres.params
    pool = list(graded_mod.enumerate_reduced_words(pres.alphabet, L))
    discarded = 0
    survivors = []  # (x, y, v, w)
    for x in pool:
        for y in pool:
            w_val = w_word(z_star, x, y, p)
            if w_val.is_empty:
                discarded += 1
                continue
            v_val = v_word(z_star, x, y, p)
            assert not v_val.is_empty
            survivors.append((x, y, v_val, w_val))
    groups = []
    for idx, (_, _, v_val, w_val) in enumerate(survivors):
        group = next((g for g in groups if _pair_conjugacy_witness(
            *survivors[g[0]][2:], v_val, w_val) is not None), None)
        if group is None:
            group = []
            groups.append(group)
        group.append(idx)
    least = sorted((min((survivors[g][:2] for g in group),
                        key=lambda xy: (shortlex_key(xy[0]), shortlex_key(xy[1])))
                    for group in groups), key=lambda xy: (str(xy[0]), str(xy[1])))
    registry = graded_mod._PeriodRegistry(pres)
    counters = {}
    classes = []
    for x0, y0 in least:
        core_x, gx = cyclic_reduce(x0)
        y_bar = conjugate(y0, invert(gx))
        v_rep = v_word(z_star, core_x, y_bar, p)
        root, k = primitive_root(cyclic_reduce(v_rep)[0])
        a_word, f_val = registry.resolve(canonical_cyclic(root), k)
        witness = minimal_conjugacy_witness(v_rep, power(a_word, f_val))
        counters[(a_word, f_val)] = counters.get((a_word, f_val), 0) + 1
        x_word, u_word = (conjugate(v, invert(witness)) for v in (core_x, y_bar))
        rec = build_relator(z_star, a_word, f_val, x_word, u_word, p,
                            j=counters[(a_word, f_val)])
        pres.rank_data(rec.rank, provenance="classified").relators.append(rec)
        classes.append(rec)
    return classes, discarded


@pytest.mark.parametrize("params,z_star,L", [
    (P, 1, 1), (P, 2, 1), (P, 1, 2), (P, 2, 2),
    (ParamSet(40, 3, 5), 1, 1), (ParamSet(40, 3, 5), 2, 1)],
    ids=["20-2-3-z1-L1", "20-2-3-z2-L1", "20-2-3-z1-L2", "20-2-3-z2-L2",
         "40-3-5-z1-L1", "40-3-5-z2-L1"])
def test_classification_equals_the_value_level_reference(params, z_star, L):
    pres, ref_pres = fresh_pres(params=params), fresh_pres(params=params)
    res = classify_pairs(pres, z_star, L)
    assert (list(res.classes), res.discarded_trivial) == reference_classify_pairs(
        ref_pres, z_star, L)
    assert pres.ranks == ref_pres.ranks


def test_classify_discards_trivial_pairs():
    # w_z*(x, y) = 1 exactly when xy = yx: 17 such pairs at L = 1, 81 at L = 2
    pool = list(graded_mod.enumerate_reduced_words(AB, 1))
    for z_star in (1, 2):
        for x in pool:
            for y in pool:
                commute = concat(x, y) == concat(y, x)
                assert make_w(z_star, x, y, P).is_empty == commute
        for L, commuting in ((1, 17), (2, 81)):
            assert classify_pairs(fresh_pres(), z_star, L).discarded_trivial == commuting


def test_classify_finds_eight_classes_per_kind():
    for z_star in (1, 2):
        res = classify_pairs(fresh_pres(), z_star, 1)
        assert len(res.classes) == 8
        # no class value is trivial: each is a power of a nonempty period
        assert all(not make_v(z_star, rec.X, rec.U, P).is_empty for rec in res.classes)


def test_classification_attaches_the_records_it_returns():
    pres = fresh_pres()
    returned = [rec for z_star in (1, 2) for rec in classify_pairs(pres, z_star, 1).classes]
    assert all(any(r is rec for r in pres.ranks[rec.rank].relators) for rec in returned)
    # within a rank, records are attached in the order they are returned
    assert pres.all_relators() == sorted(returned, key=lambda rec: rec.rank)
    assert build_presentation(AB, P, 0, 1).all_relators() == pres.all_relators()


def test_no_two_class_values_are_conjugate_so_no_w_is_built(monkeypatch):
    def no_w(*args):
        raise AssertionError("w built")
    monkeypatch.setattr(graded_mod, "make_w", no_w)
    for z_star in (1, 2):
        classes = classify_pairs(fresh_pres(), z_star, 2).classes
        assert len(classes) == 128
        values = {canonical_cyclic(make_v(z_star, rec.X, rec.U, P)) for rec in classes}
        assert len(values) == len(classes)


def test_conjugate_class_values_merge_by_the_value_pair_witness(monkeypatch):
    # with v(x, y) = x and w(x, y) = [x, y], pairs (x, y) and (x, y x^k) share
    # their (v, w) value though no joint conjugator relates them, so pair
    # classes with conjugate v values meet, and some merge
    calls = []

    def v_word(z_star, x, y, p):
        return x

    def w_word(z_star, x, y, p):
        calls.append(1)
        return commutator(x, y)
    monkeypatch.setattr(graded_mod, "make_v", v_word)
    monkeypatch.setattr(graded_mod, "make_w", w_word)
    pres, ref_pres = fresh_pres(), fresh_pres()
    res = classify_pairs(pres, 1, 2)
    assert calls and 0 < len(res.classes) < 128
    assert (list(res.classes), res.discarded_trivial) == reference_classify_pairs(
        ref_pres, 1, 2, v_word, w_word)
    assert pres.ranks == ref_pres.ranks


def test_class_values_are_conjugate_to_period_powers():
    # a record keeps the pair conjugated by its witness, so the conjugator
    # from its value to the period power is the empty word
    for z_star in (1, 2):
        for rec in classify_pairs(fresh_pres(), z_star, 1).classes:
            value = make_v(z_star, rec.X, rec.U, P)
            assert minimal_conjugacy_witness(value, power(rec.A, rec.f)) == Word.identity(AB)
            assert value == power(rec.A, rec.f)
            assert rec.A.is_cyclically_reduced()
            assert primitive_root(rec.A)[1] == 1


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


AB3 = Alphabet(3)
LETTERS3 = st.sampled_from([1, -1, 2, -2, 3, -3])


@settings(max_examples=400, deadline=None)
@given(st.lists(LETTERS3, max_size=10), st.lists(LETTERS3, max_size=8), st.integers(1, 3))
def test_peeled_conjugator_is_the_minimal_witness(core_letters, conj_letters, k):
    # the conjugator cyclic_reduce peels off a word is its shortest one
    y_bar = conjugate(power(free_reduce(AB3, core_letters), k), free_reduce(AB3, conj_letters))
    core, peeled = cyclic_reduce(y_bar)
    assert conjugate(core, peeled) == y_bar
    assert minimal_conjugacy_witness(y_bar, core) == peeled


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


def test_relator_refuses_a_template_other_than_1_or_2(tmp_path):
    for p in (P, ParamSet(6_000_000_000, 2, 3)):  # z* is refused before the slot count
        with pytest.raises(InvalidIndex, match="template level must be 1 or 2, got 3"):
            build_relator(3, A2, 1, A1, A1, p)
    path = tmp_path / "pres.txt"
    path.write_text("alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 1\n"
                    "relator z*=3 A=a1 f=1 j=1 X=a2 U=a2\n")
    with pytest.raises(InvalidParams, match=f"{path}:5: .*template level must be 1 or 2"):
        load_presentation(path)


def test_relator_round_trip_is_byte_identical():
    from tests.test_verbal import n_pow, naive_template, naive_v1

    for z_star in (1, 2):
        for rec in classify_pairs(fresh_pres(), z_star, 1).classes:
            # the letter-level template, with v_(z*-1)(X', U) in the sign
            # slots and A^f in the power slots
            x_letters, u_letters = rec.X.to_letters(), rec.U.to_letters()
            sign = x_letters if z_star == 1 else naive_v1(x_letters, u_letters, P.d)
            block = n_pow(rec.A.to_letters(), rec.f)
            letters = naive_template(z_star, sign, block, u_letters, P.h, P.n)
            assert rec.relator == free_reduce(AB, letters)
            assert rec.rank == rec.A.letter_length
    # the record stores no word: its relator is derived from the template
    assert "relator" not in {fld.name for fld in dataclasses.fields(RelatorRecord)}


def test_every_rank_one_relator_is_a_value_of_its_identity_word():
    pres = build_presentation(AB, P, max_rank=2, pair_budget=1)
    records = pres.all_relators()
    assert len(records) == 16
    for rec in records:
        assert rec.A.is_cyclically_reduced()
        assert make_v(rec.z_star, rec.X, rec.U, P) == power(rec.A, rec.f)
        assert rec.relator == make_w(rec.z_star, rec.X, rec.U, P)


def test_a_tampered_relator_line_is_refused(tmp_path):
    saved = tmp_path / "pres.txt"
    save_presentation(build_presentation(AB, P, max_rank=2, pair_budget=1), saved)
    lines = saved.read_text().split("\n")
    pres = load_presentation(saved)
    for z_star in (1, 2):
        idx = next(i for i, line in enumerate(lines) if line.startswith(f"relator z*={z_star} "))
        rec = next(r for r in pres.all_relators() if r.z_star == z_star)
        other = next(a for a in pres.ranks[rec.rank].periods if a != rec.A)
        for field, change in (("f", lambda v: str(2 * int(v))),
                              ("A", lambda v: str(other)),
                              ("X", lambda v: v + " a1")):
            fields = dict(tok.split("=", 1) for tok in split_fields(lines[idx])[1:])
            fields[field] = change(fields[field])
            tampered = "relator " + " ".join(f"{k}={shlex.quote(v)}" for k, v in fields.items())
            copy = tmp_path / f"tampered-{z_star}-{field}.txt"
            copy.write_text("\n".join(lines[:idx] + [tampered] + lines[idx + 1:]))
            with pytest.raises(InvalidParams, match=f"{copy}:{idx + 1}: .*relator is not") as info:
                load_presentation(copy)
            assert isinstance(info.value.__cause__, WitnessNotFound)


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
    got, _ = table.best_match(_encode_letters(word))
    assert got is not None
    pos, m, i, s, o, replacement = got
    assert pos == 0
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
    """Relators over a1..am (random, proper powers, one-sign powers like
    a1^3, of 1-3 letters, of unequal lengths) and a word built from them:

    - conjugated relators and random letters, so that the word is sometimes
      shorter and sometimes longer than half of them;
    - squares of relators, which hold an entry twice;
    - near misses, floor(L/2) letters of a rotated entry, one short of a
      step, between powers of the spare generator a_{m+1}, which no relator
      holds; in one word of sixteen, near misses of the shortest entries
      (which hold no match of any entry) fill a prefix of 2 000-20 000
      letters, so that the first step lies far to the right;
    - splices: a relator conjugated by a power of the spare generator between
      the two halves of a rotated entry, so that the step cancels that power,
      up to 40 letters into the prefix, and joins the halves into a match
      that starts just where the search starts again.
    """
    m = draw(st.integers(1, 3))
    ab = Alphabet(m + 1)
    letter = st.integers(1, m).flatmap(lambda g: st.sampled_from([g, -g]))
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "power", "one-sign", "short"]))
        if kind == "one-sign":
            r = Word.generator(ab, draw(st.integers(1, m)), draw(st.integers(2, 5)))
        else:
            top = 3 if kind == "short" else 12
            r = free_reduce(ab, draw(st.lists(letter, min_size=1, max_size=top)))
            if kind == "power":
                r = power(r, draw(st.integers(2, 3)))
        assume(not cyclic_reduce(r)[0].is_empty)
        relators.append(r)

    def relator(pool=relators):
        return power(draw(st.sampled_from(pool)), draw(st.sampled_from([1, -1])))

    def halves(pool=relators):  # a rotated entry cut after floor(L/2) letters
        core = cyclic_reduce(relator(pool))[0].to_letters()
        k = draw(st.integers(0, len(core) - 1))
        rotated = core[k:] + core[:k]
        cut = len(core) // 2
        return free_reduce(ab, rotated[:cut]), free_reduce(ab, rotated[cut:])

    def spare():
        return Word.generator(ab, m + 1, draw(st.sampled_from([1, -1, 2, 40])))

    parts = [Word.identity(ab)]
    far = draw(st.integers(0, 15)) == 0
    if far:
        shortest = min(cyclic_reduce(r)[0].letter_length for r in relators)
        pool = [r for r in relators if cyclic_reduce(r)[0].letter_length == shortest]
        sep = Word.generator(ab, m + 1)  # never cancels with itself
        misses = [concat(halves(pool)[0], sep) for _ in range(draw(st.integers(1, 4)))]
        letters = draw(st.integers(2000, 20000))
        while letters > 0:
            parts.append(misses[len(parts) % len(misses)])
            letters -= parts[-1].letter_length
    for _ in range(draw(st.integers(0, 2 if far else 4))):
        kind = draw(st.sampled_from(["conjugate", "letters", "square", "near miss", "splice"]))
        if kind == "conjugate":
            parts.append(conjugate(relator(), free_reduce(ab, draw(st.lists(letter, max_size=3)))))
        elif kind == "letters":
            parts.append(free_reduce(ab, draw(st.lists(letter, max_size=8))))
        elif kind == "square":
            parts.append(power(relator(), 2))
        elif kind == "near miss":
            parts += [halves()[0], spare()]
        else:
            head, tail = halves()
            parts += [head, conjugate(relator(), spare()), tail]
    budget = draw(st.sampled_from([1, 2, DEFAULT_DEHN_BUDGET]))
    return concat_all(parts), relators, budget


@settings(max_examples=400, deadline=None)
@given(dehn_problems())
# after the step at a1^2 the cancellation of a2 a2^-1 leaves one letter of
# the prefix, and a new match starts at it: the search must start there
@example(problem=(Word.parse(AB, "a1 a2 a1^2 a2^-1 a1"), [Word.parse(AB, "a1^2")] * 2, 2))
# matches of both lengths start at 0, and the longer one wins
@example(problem=(Word.parse(AB, "a1^2"), [A1, Word.parse(AB, "a1^2")], 1))
# the match a1^5 starts two letters before its block a1^3: of the rotations
# of a1^8 that read it, the one by 0 letters is the step's
@example(problem=(Word.parse(AB, "a2 a1^5"), [Word.parse(AB, "a1^8")], 1))
def test_dehn_reduce_trace_agrees_with_the_letter_list_loop(problem):
    w, relators, budget = problem
    res = dehn_reduce_trace(w, relators, budget)
    assert (res.word, res.steps, res.exhausted) == reference_dehn(w, relators, budget)


@pytest.fixture(scope="module")
def toy_relators():
    pres = build_presentation(AB, P, max_rank=2, pair_budget=1)
    relators = pres.relators_up_to(max(pres.ranks))
    return relators, _RelatorTable(relators)


@pytest.mark.parametrize("letters", [24_000, 100_000])
def test_long_random_words_take_no_step_over_the_toy_relators(toy_relators, letters):
    _, table = toy_relators
    rng = random.Random(letters)
    out = []
    while len(out) < letters:
        g = rng.choice([1, -1, 2, -2])
        if not out or g != -out[-1]:
            out.append(g)
    w = free_reduce(AB, out)
    start = time.perf_counter()
    res = dehn_reduce_trace(w, table)
    assert time.perf_counter() - start < 5
    assert (res.word, res.steps, res.exhausted) == (w, (), False)


@pytest.mark.parametrize("length", [3_000, 30_000])
def test_a_power_of_a_letter_over_a_longer_power_agrees_with_the_letter_list_loop(length):
    # every rotation of a1^L reads the same: one is extended per block, not L
    relators = [Word.generator(AB, 1, length)]
    w = Word.generator(AB, 1, 7 * length + length // 2 + 1)
    start = time.perf_counter()
    res = dehn_reduce_trace(w, relators)
    assert time.perf_counter() - start < 2
    assert len(res.steps) == 8 and res.word == Word.generator(AB, 1, -(length // 2 - 1))
    assert (res.word, res.steps, res.exhausted) == reference_dehn(w, relators)


def test_the_scan_budget_counts_every_rotation_a_block_is_extended_along(monkeypatch):
    # a block a1^q of a1^N reads a1^(L-1) a2 at L - q rotations, and each of
    # them extends to about L letters, at 2L letters of budget: the first
    # block costs about 2L^2, where its searches alone cost 4L
    length = 10_000
    relators = [concat(Word.generator(AB, 1, length - 1), Word.generator(AB, 2))]
    w = Word.generator(AB, 1, 3 * length)
    monkeypatch.setattr(graded_mod, "_SCAN_BUDGET", 10 ** 7)
    res = dehn_reduce_trace(w, relators)
    assert res.exhausted and res.steps == () and res.word == w


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
    res = dehn_reduce_trace(half, table)
    assert (res.word, res.steps) == (half, ())
    assert encoded_entries(table) == []
    longer = Word.parse(AB4, "a1 a2 a1^-1 a2^-1 a3")  # reaches GENUS2 only
    res = dehn_reduce_trace(longer, table)
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


def test_building_and_saving_a_presentation_builds_no_relator_word(tmp_path, monkeypatch):
    calls = []

    def counted(*args, _substitute=graded_mod.substitute):
        calls.append(1)
        return _substitute(*args)
    monkeypatch.setattr(graded_mod, "substitute", counted)
    pres = build_presentation(AB, P, max_rank=2, pair_budget=1)
    save_presentation(pres, tmp_path / "pres.txt")
    assert calls == []
    relators = pres.relators_up_to(max(pres.ranks))
    assert len(calls) == len(relators) == 16


def test_presentation_refuses_a_repeated_header_line(tmp_path):
    head = "alphabet 2\nparams h=20 d=2 n=3\nmode toy\n"
    path = tmp_path / "pres.txt"
    for body, lineno, what in (
            (head + "rank 1\nperiod a1\nmode ledger\nrank 2\n", 6, "mode"),
            (head + "alphabet 3\nrank 1\nperiod a3\n", 4, "alphabet"),
            (head + "params h=40 d=3 n=5\n", 4, "params")):
        path.write_text(body)
        with pytest.raises(InvalidParams, match=f"{path}:{lineno}: .*a second {what} line"):
            load_presentation(path)


def test_presentation_refuses_a_mode_other_than_toy(tmp_path):
    # toy is the only mode there is: another word would load and be ignored
    path = tmp_path / "pres.txt"
    for mode in ("mode ledger", "mode", "mode toy ledger"):
        path.write_text(f"alphabet 2\nparams h=20 d=2 n=3\n{mode}\nrank 1\nperiod a1\n")
        with pytest.raises(InvalidParams, match=f"{path}:3: .*the only mode is toy"):
            load_presentation(path)


def test_presentation_refuses_a_provenance_other_than_enumerated_or_classified(tmp_path):
    # a copy of the pinned file with provenance=banana loaded and saved banana again
    text = (Path(__file__).parent / "data" / "presentation_20_2_3.txt").read_text()
    lines = text.split("\n")
    lineno = lines.index("rank 77 provenance=classified") + 1
    path = tmp_path / "pres.txt"
    for value in ("banana", "", "Classified"):
        path.write_text(text.replace("rank 77 provenance=classified",
                                     f"rank 77 provenance={value}"))
        with pytest.raises(InvalidParams, match=f"{path}:{lineno}: .*the only provenances "
                                                "are enumerated and classified"):
            load_presentation(path)
    path.write_text(text)
    assert {data.provenance for data in load_presentation(path).ranks.values()} \
        == {"enumerated", "classified"}


def test_presentation_refuses_unknown_repeated_and_missing_fields(tmp_path):
    head = "alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 1\n"
    path = tmp_path / "pres.txt"
    for body, lineno, why in (
            ("alphabet 2\nparams h=20 d=2 n=3 h=40\n", 2, "name 'h' is set twice"),
            ("alphabet 2\nparams h=20 d=2 n=3 Q=5\n", 2, "unknown name 'Q'"),
            ("alphabet 2\nparams h=20 d=2\n", 2, "missing name 'n'"),
            (head + "relator z*=1 A=a1 f=1 j=1 X=a2 U=a2 f=2\n", 5, "name 'f' is set twice"),
            (head + "relator z*=1 A=a1 f=1 X=a2 U=a2\n", 5, "missing name 'j'"),
            (head + "rank 2 provenance=classified provenance=enumerated\n", 5,
             "name 'provenance' is set twice")):
        path.write_text(body)
        with pytest.raises(InvalidParams, match=f"{path}:{lineno}: .*{why}"):
            load_presentation(path)


def test_presentation_refuses_an_alphabet_or_period_line_of_another_length(tmp_path):
    # a second field was dropped (an alphabet of 2, the period a1), and a bare
    # alphabet line was refused for an index out of range
    head = "alphabet 2\nparams h=20 d=2 n=3\nmode toy\nrank 1\n"
    path = tmp_path / "pres.txt"
    for body, lineno, line, why in (
            ("alphabet 2 7\nparams h=20 d=2 n=3\n", 1, "alphabet 2 7",
             "alphabet takes 1 field(s), got 2"),
            ("alphabet\nparams h=20 d=2 n=3\n", 1, "alphabet", "alphabet takes 1 field(s), got 0"),
            (head + "period a1 a2\n", 5, "period a1 a2", "period takes 1 field(s), got 2")):
        path.write_text(body)
        with pytest.raises(InvalidParams) as info:
            load_presentation(path)
        assert str(info.value) == f"{path}:{lineno}: cannot read {line!r}: {why}"


def test_presentation_refuses_a_rank_line_without_its_rank_number(tmp_path):
    # both were refused for an index out of range or an int() of a named field
    path = tmp_path / "pres.txt"
    for line in ("rank", "rank provenance=classified"):
        path.write_text(f"alphabet 2\nparams h=20 d=2 n=3\n{line}\n")
        with pytest.raises(InvalidParams) as info:
            load_presentation(path)
        assert str(info.value) == \
            f"{path}:3: cannot read {line!r}: rank takes its rank number first, got none"


def test_presentation_refuses_a_period_or_relator_under_another_rank_number(tmp_path):
    # under rank 5, relators_up_to(5) would miss a relator whose period has 77 letters
    lines = (Path(__file__).parent / "data" / "presentation_20_2_3.txt").read_text().split("\n")
    at = lines.index("rank 77 provenance=classified")
    relator = next(line for line in lines if line.startswith("relator z*=1 "))
    path = tmp_path / "pres.txt"
    for line, length in (("period a1", 1), (relator, 77)):
        path.write_text("\n".join(lines[:at] + ["rank 5", line]) + "\n")
        with pytest.raises(InvalidParams) as info:
            load_presentation(path)
        assert str(info.value) == (f"{path}:{at + 2}: cannot read {line!r}: "
                                   f"a period of length {length} under rank 5")


def test_the_pinned_presentation_loads_without_building_a_relator(monkeypatch):
    def refuse(rec):
        raise AssertionError("a relator word was built")
    monkeypatch.setattr(RelatorRecord, "relator", property(refuse))
    loaded = load_presentation(Path(__file__).parent / "data" / "presentation_20_2_3.txt")
    assert len(loaded.all_relators()) == 16


def test_presentation_in_the_format_with_t_slots_is_refused(tmp_path):
    # a T= field held v_(z*-1)(X', U), from which X' cannot be read back
    pinned = Path(__file__).parent / "data" / "presentation_20_2_3.txt"
    lines = pinned.read_text().split("\n")
    path = tmp_path / "pres.txt"
    path.write_text("\n".join(line.replace(" X=", " T=") for line in lines))
    first = next(i for i, line in enumerate(lines) if line.startswith("relator ")) + 1
    with pytest.raises(InvalidParams, match=f"{path}:{first}: .*unknown name 'T'"):
        load_presentation(path)


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
