import copy
import dataclasses
import itertools
import os
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfree import diagrams, graded, report
from relfree.diagrams import (
    CheckResult,
    ConjugacyClaim,
    DiagramCertificate,
    EqualityClaim,
    PuncturedSphereClaim,
    certify_dehn_trace,
    check_certificate,
    load_certificate,
    random_corruption,
    save_certificate,
)
from relfree.errors import (
    EmptyWord,
    MalformedCertificate,
    RelfreeError,
    TraceMismatch,
    Unsupported,
)
from relfree.graded import DehnStep, _RelatorTable, dehn_reduce_trace
from relfree.words import (
    Alphabet,
    Word,
    concat,
    concat_all,
    conjugate,
    free_reduce,
    invert,
    power,
)

AB = Alphabet(2)
COMM = Word.parse(AB, "a1 a2 a1^-1 a2^-1")
AB4 = Alphabet(4)
GENUS2 = Word.parse(AB4, "a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1")


def one_face_disk(word=COMM):
    """Face and boundary both read ``word``; sides glued in parallel."""
    n = word.letter_length
    labels = {}
    for i, g in enumerate(word.to_letters(), start=1):
        labels[i] = g          # face sides 1..n
        labels[i + n] = g      # boundary sides n+1..2n
    return DiagramCertificate(
        AB, labels,
        faces=[list(range(1, n + 1))],
        boundaries=[list(range(n + 1, 2 * n + 1))],
        pairs=[(i, i + n) for i in range(1, n + 1)],
        claim=EqualityClaim(word))


def zero_face_annulus():
    u = Word.parse(AB, "a1 a2")
    v = Word.parse(AB, "a2 a1")  # a rotation of u
    labels = {1: 1, 2: 2, 3: -1, 4: -2}  # second boundary reads v^-1
    return DiagramCertificate(
        AB, labels,
        faces=[],
        boundaries=[[1, 2], [3, 4]],
        pairs=[(1, 3), (2, 4)],
        claim=ConjugacyClaim(u, v))


def test_one_face_disk_accepts():
    out = check_certificate(one_face_disk(), [COMM])
    assert out.accepted, out.reason


def test_rotation_annulus_accepts():
    out = check_certificate(zero_face_annulus(), [])
    assert out.accepted, out.reason


def test_annulus_second_boundary_must_read_the_inverse():
    # the second boundary reads the claimed v itself, not v^-1
    cert = zero_face_annulus()
    cert.claim = ConjugacyClaim(Word.parse(AB, "a1 a2"), Word.parse(AB, "a1^-1 a2^-1"))
    out = check_certificate(cert, [])
    assert not out.accepted
    assert out.reason == "boundaries do not read the claimed word and inverse word"


def test_removed_pairing_breaks_euler():
    cert = zero_face_annulus()
    cert.pairs.pop()
    out = check_certificate(cert, [])
    assert not out.accepted
    assert "Euler" in out.reason


def test_flipped_label_rejected():
    cert = one_face_disk()
    cert.labels[1] = -cert.labels[1]
    assert not check_certificate(cert, [COMM]).accepted


def test_wrong_claim_word_rejected():
    cert = one_face_disk()
    cert.claim = EqualityClaim(Word.parse(AB, "a1 a2"))
    out = check_certificate(cert, [COMM])
    assert not out.accepted
    assert "claim" in out.reason or "boundary" in out.reason


def test_face_must_read_a_relator():
    cert = one_face_disk()
    out = check_certificate(cert, [Word.parse(AB, "a1 a2 a1 a2")])
    assert not out.accepted
    assert "relator" in out.reason


def test_verdict_is_order_independent():
    cert = one_face_disk()
    base = check_certificate(cert, [COMM]).accepted
    # permute the cycle start, the pair list, and the side ids
    cert.faces[0] = cert.faces[0][2:] + cert.faces[0][:2]
    cert.pairs.reverse()
    assert check_certificate(cert, [COMM]).accepted == base

    relabel = {1: 11, 2: 12, 3: 13, 4: 14, 5: 25, 6: 26, 7: 27, 8: 28}
    cert2 = one_face_disk()
    cert2.labels = {relabel[k]: v for k, v in cert2.labels.items()}
    cert2.faces = [[relabel[r] for r in cert2.faces[0]]]
    cert2.boundaries = [[relabel[r] for r in cert2.boundaries[0]]]
    cert2.pairs = [(relabel[s], relabel[t]) for s, t in cert2.pairs]
    assert check_certificate(cert2, [COMM]).accepted == base


def test_malformed_certificates_raise():
    cert = one_face_disk()
    cert.faces[0][0] = 99
    with pytest.raises(MalformedCertificate):
        check_certificate(cert, [COMM])
    cert = one_face_disk()
    cert.faces.append([])
    with pytest.raises(MalformedCertificate):
        check_certificate(cert, [COMM])
    cert = one_face_disk()
    cert.boundaries.append([1])  # side 1 now referenced twice
    with pytest.raises(MalformedCertificate):
        check_certificate(cert, [COMM])


def test_punctured_sphere_three_boundaries():
    # thickened theta graph: three arcs, three boundary circles
    labels = {1: 1, 2: -2, 3: 2, 4: 2, 5: -2, 6: -1}
    cert = DiagramCertificate(
        AB, labels,
        faces=[],
        boundaries=[[1, 2], [3, 4], [5, 6]],
        pairs=[(1, 6), (2, 3), (4, 5)],
        claim=PuncturedSphereClaim((
            Word.parse(AB, "a1 a2^-1"),
            Word.parse(AB, "a2^2"),
            Word.parse(AB, "a2^-1 a1^-1"))))
    out = check_certificate(cert, [])
    assert out.accepted, out.reason


def test_four_boundaries_unsupported():
    labels = {1: 1, 2: -1, 3: 1, 4: -1, 5: 1, 6: -1, 7: 1, 8: -1}
    cert = DiagramCertificate(
        AB, labels,
        faces=[],
        boundaries=[[1], [2], [3], [4], [5], [6], [7], [8]][:4],
        pairs=[(1, 2), (3, 4)],
        claim=PuncturedSphereClaim(tuple(Word.parse(AB, "a1") for _ in range(4))))
    cert.labels = {1: 1, 2: -1, 3: 1, 4: -1}
    with pytest.raises(Unsupported):
        check_certificate(cert, [])


def test_mirror_pair_reported_as_warning():
    # two mirror squares sharing one edge; the claim cannot survive (the raw
    # boundary reading is unreduced) but the reducedness warning must fire
    labels = {1: 1, 2: 2, 3: -1, 4: -2,      # face 1 reads the commutator
              5: -1, 6: 2, 7: 1, 8: -2}      # face 2 reads its mirror
    for i, g in ((9, 2), (10, -1), (11, -2), (12, 2), (13, 1), (14, -2)):
        labels[i] = g
    cert = DiagramCertificate(
        AB, labels,
        faces=[[1, 2, 3, 4], [5, 6, 7, 8]],
        boundaries=[[9, 10, 11, 12, 13, 14]],
        pairs=[(1, 5), (2, 9), (3, 10), (4, 11), (6, 12), (7, 13), (8, 14)],
        claim=EqualityClaim(Word.parse(AB, "a2 a1^-1 a2^-1 a2 a1 a2^-1")))
    out = check_certificate(cert, [COMM])
    assert any("mirror-glued" in w for w in out.warnings)


def mirror_disk(length):
    """Faces r and r^-1 glued along all but one side; the two sides left over
    meet the boundary, which reads x x^-1 for the last letter x of r."""
    rng = random.Random(length)
    r = []
    while len(r) < length:
        g = rng.choice((1, -1, 2, -2))
        if (not r or g != -r[-1]) and (len(r) < length - 1 or g != -r[0]):
            r.append(g)
    inv = [-g for g in reversed(r)]
    labels = {i: g for i, g in enumerate(r + inv + [r[-1], inv[0]], start=1)}
    pairs = [(i, 2 * length + 1 - i) for i in range(1, length)]
    pairs += [(length, 2 * length + 1), (length + 1, 2 * length + 2)]
    cert = DiagramCertificate(
        AB, labels,
        faces=[list(range(1, length + 1)), list(range(length + 1, 2 * length + 1))],
        boundaries=[[2 * length + 1, 2 * length + 2]],
        pairs=pairs,
        claim=EqualityClaim(Word.identity(AB)))
    return cert, [free_reduce(AB, r)]


def test_mirror_warnings_take_one_comparison_per_alignment():
    # every face-face pair of this disk has the same alignment; rebuilding
    # both face words per pair took 16 s at this length
    cert, relators = mirror_disk(8000)
    start = time.perf_counter()
    out = check_certificate(cert, relators)
    assert time.perf_counter() - start < 5
    assert out.reason == "the empty word needs no certificate"
    # the two faces share 7 999 mirror-glued sides and get one warning
    assert out.warnings == ("faces 0 and 1 are mirror-glued (diagram unreduced)",)


# -- every reason a rejection can give -----------------------------------------

def _empty(cert):
    return DiagramCertificate(AB, {}, [], [], [], EqualityClaim(COMM))


def _glued_twice_before_label(cert):
    cert.labels[1] = -cert.labels[1]  # pair (1, 5) no longer matches ...
    cert.pairs.append((1, 6))         # ... but side 1 is reused, and that comes first
    return cert


def _anti_parallel_label(cert):
    cert.labels[3] = 1
    return cert


def _parallel_label(cert):
    cert.labels[1] = -cert.labels[1]
    return cert


def _disconnected(cert):
    # a second component: a boundary 2-gon whose sides are glued to each other
    cert.labels.update({9: 1, 10: -1})
    cert.boundaries.append([9, 10])
    cert.pairs.append((9, 10))
    return cert


def _dropped_pair(cert):
    cert.pairs.pop()
    return cert


def _claim(claim):
    def change(cert):
        cert.claim = claim
        return cert
    return change


A1 = Word.parse(AB, "a1")
REASONS = [
    (one_face_disk, _empty, [COMM], "no boundary cycle"),
    (one_face_disk, _glued_twice_before_label, [COMM], "side 1 glued more than once"),
    (zero_face_annulus, _anti_parallel_label, [],
     "glued sides 1,3 do not carry inverse labels"),
    (one_face_disk, _parallel_label, [COMM],
     "boundary side of 1,5 does not repeat the face label"),
    (one_face_disk, _disconnected, [COMM], "diagram is disconnected"),
    (zero_face_annulus, _dropped_pair, [], "Euler characteristic -1 differs from 2-k = 0"),
    (one_face_disk, lambda cert: cert, [Word.parse(AB, "a1 a2 a1 a2")],
     "face 0 does not read a relator shift"),
    (zero_face_annulus, _claim(EqualityClaim(COMM)), [],
     "equality claim needs one boundary cycle, found 2"),
    (one_face_disk, _claim(EqualityClaim(Word.identity(AB))), [COMM],
     "the empty word needs no certificate"),
    (one_face_disk, _claim(EqualityClaim(Word.parse(AB, "a1 a2"))), [COMM],
     "boundary does not read the claimed word"),
    (one_face_disk, _claim(ConjugacyClaim(COMM, COMM)), [COMM],
     "conjugacy claim needs two boundary cycles, found 1"),
    (zero_face_annulus, _claim(ConjugacyClaim(A1, A1)), [],
     "boundaries do not read the claimed word and inverse word"),
    (one_face_disk, _claim(PuncturedSphereClaim((COMM, COMM))), [COMM],
     "claim lists 2 boundary words, diagram has 1"),
    (one_face_disk, _claim(PuncturedSphereClaim((A1,))), [COMM],
     "boundary words do not match the claimed tuple"),
]


@pytest.mark.parametrize("make, change, relators, reason", REASONS,
                         ids=[reason for *_, reason in REASONS])
def test_rejection_reasons(make, change, relators, reason):
    out = check_certificate(change(make()), relators)
    assert not out.accepted
    assert out.reason == reason


def _partial_matchings(sides):
    if not sides:
        yield []
        return
    first, rest = sides[0], sides[1:]
    yield from _partial_matchings(rest)
    for i, t in enumerate(rest):
        for m in _partial_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, t)] + m


def _unglued_structures(max_sides, rng):
    """Every complex of 1..max_sides sides with at least one side left
    unpaired: each permutation of the sides gives the cycles, each choice of
    1..3 of them the boundaries, each partial matching the gluing.  Signs
    are drawn from ``rng`` and labels chosen so that every glued pair
    carries compatible labels."""
    ab = Alphabet(1)
    for n in range(1, max_sides + 1):
        sides = list(range(1, n + 1))
        gluings = [m for m in _partial_matchings(sides) if 2 * len(m) < n]
        for perm in itertools.permutations(range(n)):
            cycles, seen = [], set()
            for start in range(n):
                cycle, i = [], start
                while i not in seen:
                    seen.add(i)
                    cycle.append(i + 1)
                    i = perm[i]
                if cycle:
                    cycles.append(cycle)
            for kinds in itertools.product((False, True), repeat=len(cycles)):
                if not 1 <= sum(kinds) <= 3:
                    continue
                kind = {side: b for c, b in zip(cycles, kinds) for side in c}
                for pairs in gluings:
                    sign = {side: rng.choice((1, -1)) for side in sides}
                    labels = dict.fromkeys(sides, 1)
                    for s, t in pairs:
                        read_s = labels[s] * sign[s]
                        labels[t] = (-read_s if kind[s] == kind[t] else read_s) * sign[t]
                    yield DiagramCertificate(
                        ab, labels,
                        faces=[[sign[x] * x for x in c] for c, b in zip(cycles, kinds) if not b],
                        boundaries=[[sign[x] * x for x in c] for c, b in zip(cycles, kinds) if b],
                        pairs=pairs, claim=EqualityClaim(Word.identity(ab)))


def test_a_side_left_unglued_fails_the_topology_checks():
    # With its boundary cycles capped, the checked complex is a connected
    # surface, and a free side leaves it a boundary, so its Euler
    # characteristic is at most 1 where 2 is required: every such
    # certificate with at most 5 sides is refused as disconnected or by
    # Euler characteristic, before any label, face or claim is read.
    count = 0
    for cert in _unglued_structures(5, random.Random(0)):
        out = check_certificate(cert, [])
        assert out == reference_check_certificate(cert, [])
        assert not out.accepted
        assert (out.reason == "diagram is disconnected"
                or out.reason.startswith("Euler characteristic")), (out.reason, cert)
        count += 1
    assert count == 15_926


# -- traces --------------------------------------------------------------------

def test_certificate_file_matches_the_pinned_file(tmp_path):
    # a product of two conjugated relators over three generators, certified
    # from its Dehn trace: 32 lines, one claim line with a quoted word
    ab = Alphabet(3)
    comm = Word.parse(ab, "a1 a2 a1^-1 a2^-1")
    rel = Word.parse(ab, "a1^2 a3 a1 a3^-1")
    word = concat_all([conjugate(comm, Word.parse(ab, "a3 a2^-1")), invert(rel)])
    cert = certify_dehn_trace(word, [comm, rel], dehn_reduce_trace(word, [comm, rel]).steps)
    assert check_certificate(cert, [comm, rel]).accepted
    path = tmp_path / "cert.txt"
    save_certificate(cert, path)
    pinned = Path(__file__).parent / "data" / "certificate_product.txt"
    assert path.read_bytes() == pinned.read_bytes()
    assert load_certificate(pinned) == cert


def test_single_step_trace_round_trip():
    res = dehn_reduce_trace(COMM, [COMM])
    cert = certify_dehn_trace(COMM, [COMM], res.steps)
    assert len(cert.faces) == 1
    assert check_certificate(cert, [COMM]).accepted


def test_multi_step_trace_round_trip():
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    res = dehn_reduce_trace(w, [GENUS2])
    assert res.word.is_empty
    cert = certify_dehn_trace(w, [GENUS2], res.steps)
    assert len(cert.faces) == len(res.steps) == 2
    assert check_certificate(cert, [GENUS2]).accepted


def test_trace_round_trip_over_relator_not_cyclically_reduced():
    # faces read shifts of the cyclic core, which is what rewriting matched
    a3 = Word.parse(AB4, "a3")
    relator = conjugate(GENUS2, a3)
    assert not relator.is_cyclically_reduced()
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    res = dehn_reduce_trace(w, [relator])
    assert res.word.is_empty
    cert = certify_dehn_trace(w, [relator], res.steps)
    out = check_certificate(cert, [relator])
    assert out.accepted, out.reason


def test_faces_are_matched_against_relator_cores():
    conjugated = conjugate(COMM, Word.parse(AB, "a1"))
    # a face reading the cyclic core of the relator is accepted ...
    assert check_certificate(one_face_disk(), [conjugated]).accepted
    # ... and one reading the relator as written is not
    out = check_certificate(one_face_disk(conjugated), [conjugated])
    assert not out.accepted
    assert out.reason == "face 0 does not read a relator shift"


def test_trace_round_trip_over_a_large_alphabet():
    ab = Alphabet(300)
    relator = Word.parse(ab, "a299 a300 a299^-1 a300^-1")
    w = conjugate(relator, Word.parse(ab, "a1"))
    res = dehn_reduce_trace(w, [relator])
    assert res.word.is_empty
    cert = certify_dehn_trace(w, [relator], res.steps)
    assert check_certificate(cert, [relator]).accepted


def test_freely_trivial_relator_raises():
    with pytest.raises(EmptyWord):
        check_certificate(one_face_disk(), [Word.parse(AB, "a1 a1^-1")])


def test_tampered_trace_rejected():
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    res = dehn_reduce_trace(w, [GENUS2])
    s0 = res.steps[0]
    for bad in (
        DehnStep(s0.pos + 1, s0.matched, s0.relator_index, s0.sign, s0.offset),
        DehnStep(s0.pos, s0.matched, s0.relator_index, -s0.sign, s0.offset),
        DehnStep(s0.pos, s0.matched, s0.relator_index, s0.sign, (s0.offset + 1) % 8),
    ):
        with pytest.raises(TraceMismatch):
            certify_dehn_trace(w, [GENUS2], [bad] + list(res.steps[1:]))


def test_certify_and_check_encode_only_the_entries_they_read(monkeypatch):
    tables = []

    class RecordingTable(_RelatorTable):
        def __init__(self, relators):
            super().__init__(relators)
            tables.append(self)

    monkeypatch.setattr(diagrams, "_RelatorTable", RecordingTable)
    # 12, 8 and 15 letters: every face of the certificate reads GENUS2
    long = Word.parse(AB4, "a1^3 a2^2 a3 a4^-1 a1 a2 a3^2 a4")
    longer = Word.parse(AB4, "a4^4 a3^3 a2^2 a1 a2 a3^2 a4 a1")
    relators = [long, GENUS2, longer]
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    res = dehn_reduce_trace(w, relators)
    assert res.word.is_empty
    assert {step.relator_index for step in res.steps} == {1}
    cert = certify_dehn_trace(w, relators, res.steps)
    assert check_certificate(cert, relators).accepted
    assert len(tables) == 2  # one built by certify, one by check
    for table in tables:
        assert [k for k, d in enumerate(table._doubled) if d is not None] == [2, 3]


def test_incomplete_trace_rejected():
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    res = dehn_reduce_trace(w, [GENUS2])
    with pytest.raises(TraceMismatch):
        certify_dehn_trace(w, [GENUS2], res.steps[:1])


def test_corruptions_always_rejected():
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    res = dehn_reduce_trace(w, [GENUS2])
    cert = certify_dehn_trace(w, [GENUS2], res.steps)
    rng = random.Random(40)
    for _ in range(50):
        bad = random_corruption(cert, rng)
        try:
            assert not check_certificate(bad, [GENUS2]).accepted
        except (MalformedCertificate, Unsupported):
            pass


def test_a_corruption_leaves_its_certificate_unchanged():
    # the containers are copied, the alphabet and the claim shared
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    cert = certify_dehn_trace(w, [GENUS2], dehn_reduce_trace(w, [GENUS2]).steps)
    before = copy.deepcopy(cert)
    rng = random.Random(41)
    for _ in range(50):
        bad = random_corruption(cert, rng)
        assert bad != cert and cert == before
        assert bad.alphabet is cert.alphabet and bad.claim is cert.claim


def test_one_relator_table_serves_dehn_certify_and_check(monkeypatch):
    built = []

    class CountedTable(_RelatorTable):
        def __init__(self, relators):
            built.append(len(relators))
            super().__init__(relators)

    for module in (graded, diagrams):
        monkeypatch.setattr(module, "_RelatorTable", CountedTable)
    w = concat(conjugate(GENUS2, Word.parse(AB4, "a3 a1")), power(GENUS2, -1))
    table = CountedTable([GENUS2])
    steps = dehn_reduce_trace(w, [GENUS2], _table=table).steps
    cert = certify_dehn_trace(w, [GENUS2], steps, _table=table)
    assert check_certificate(cert, [GENUS2], _table=table).accepted
    assert built == [1]
    assert cert == certify_dehn_trace(w, [GENUS2], steps)
    bad = random_corruption(cert, random.Random(3))
    assert outcome(check_certificate, bad, [GENUS2]) \
        == outcome(lambda c, r: check_certificate(c, r, _table=table), bad, [GENUS2])
    built.clear()
    passed, detail, _ = report.criterion_dehn_certificates(0)
    assert passed, detail
    assert built == [1]  # C09: one table for its relator, not three per word


def random_relator(rng, length):
    """A cyclically reduced word of ``length`` letters over a1, a2."""
    while True:
        letters = []
        while len(letters) < length:
            g = rng.choice((1, -1, 2, -2))
            if not letters or g != -letters[-1]:
                letters.append(g)
        if letters[0] != -letters[-1]:
            return letters


def test_corruptions_rejected_over_random_relators():
    # products of conjugated relators of 60, 50, 40 and 12 letters, as the
    # benchmark's certificate jobs build them at a smaller scale
    rng = random.Random(6)
    certs = []
    while len(certs) < 10:
        rels = [free_reduce(AB, random_relator(rng, k)) for k in (60, 50, 40, 12)]
        parts = []
        for r in rels:
            c = free_reduce(AB, random_relator(rng, 5))
            parts.append(conjugate(r if rng.random() < 0.5 else power(r, -1), c))
        w = concat_all(parts)
        res = dehn_reduce_trace(w, rels)
        if not res.word.is_empty:
            continue  # rewriting did not decide this word
        cert = certify_dehn_trace(w, rels, res.steps)
        out = check_certificate(cert, rels)
        assert out.accepted, out.reason
        certs.append((cert, rels))
    for i in range(50):
        cert, rels = certs[i % len(certs)]
        bad = random_corruption(cert, rng)
        try:
            assert not check_certificate(bad, rels).accepted
        except RelfreeError:
            pass


# -- files ---------------------------------------------------------------------

def test_certificate_file_round_trip(tmp_path):
    res = dehn_reduce_trace(COMM, [COMM])
    cert = certify_dehn_trace(COMM, [COMM], res.steps)
    path = tmp_path / "cert.txt"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded.labels == cert.labels
    assert loaded.faces == cert.faces
    assert loaded.boundaries == cert.boundaries
    assert loaded.pairs == cert.pairs
    assert loaded.claim == cert.claim
    assert check_certificate(loaded, [COMM]).accepted


def test_conjugacy_certificate_file(tmp_path):
    cert = zero_face_annulus()
    path = tmp_path / "annulus.txt"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert check_certificate(loaded, []).accepted


# -- arbitrary input: a value or a RelfreeError, never another exception -------------

CERT_FIELDS = st.one_of(
    st.integers(-4, 8).map(str),
    st.sampled_from(["a1", "a2", "a1^-1", "a2^-1", "a2^3", "a3", "1", "'a1 a2'", "'", "#"]))
CERT_LINES = st.builds(
    lambda head, fields: " ".join([head, *fields]),
    st.sampled_from(["alphabet", "edge", "pair", "face", "boundary", "claim equality",
                     "claim conjugacy", "claim punctured", "claim", "#", ""]),
    st.lists(CERT_FIELDS, max_size=5))


@st.composite
def certificate_texts(draw):
    """Sides 1..n cut into signed cycles, pairs and a claim, with lines from
    the grammar mixed in, so that many texts reach the checker.  The pairs
    are mostly a partial matching of the sides, so that those texts reach
    the topology checks; a quarter are drawn independently, so that sides
    glued more than once stay covered."""
    n = draw(st.integers(1, 8))
    lines = ["alphabet 2"]
    lines += [f"edge {i} {draw(st.sampled_from(['a1', 'a2', 'a1^-1', 'a2^-1']))}"
              for i in range(1, n + 1)]
    order = draw(st.permutations(range(1, n + 1)))
    cuts = [0, *sorted(draw(st.sets(st.integers(1, n))) | {n})]
    for lo, hi in zip(cuts, cuts[1:]):
        refs = [str(side if draw(st.booleans()) else -side) for side in order[lo:hi]]
        lines.append(" ".join([draw(st.sampled_from(["face", "boundary"])), *refs]))
    if draw(st.integers(0, 3)):
        matched = draw(st.permutations(range(1, n + 1)))
        pairs = list(zip(matched[0::2], matched[1::2]))[:draw(st.integers(0, n // 2))]
    else:
        sides = st.integers(1, n)
        pairs = draw(st.lists(st.tuples(sides, sides), max_size=n))
    lines += [f"pair {s} {t}" for s, t in pairs]
    lines.append(draw(st.sampled_from([
        "claim equality 'a1 a2 a1^-1 a2^-1'", "claim equality a1", "claim conjugacy a1 a1",
        "claim punctured a1 a2^-1 'a2 a1'", "claim punctured"])))
    for line in draw(st.lists(CERT_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


def load_and_check(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            return check_certificate(load_certificate(path), [COMM])
        except RelfreeError:
            return None


@settings(max_examples=300, deadline=2000)
@given(st.text())
def test_certificate_text_is_read_or_refused(text):
    load_and_check(text)


@settings(max_examples=300, deadline=2000)
@given(st.one_of(st.lists(CERT_LINES, max_size=30).map("\n".join), certificate_texts()))
def test_certificate_token_soup_is_read_or_refused(text):
    load_and_check(text)


# -- the corner union-find, kept as the reference of the junction count --------

def reference_check_certificate(cert, relators):
    """The checker as it counted vertices before cycle junctions: side i has
    corners 2i (tail) and 2i + 1 (head), one union-find joins the corners
    along every cycle and across every glued pair, and a second pass joins
    each side's two corners to decide connectivity."""
    occurrences = diagrams._validate_structure(cert)
    k = len(cert.boundaries)
    if k < 1:
        return CheckResult(False, "no boundary cycle")
    if k > diagrams._MAX_BOUNDARIES:
        raise Unsupported(f"{k} boundary cycles; at most {diagrams._MAX_BOUNDARIES} supported")
    seen = {}
    for s, t in cert.pairs:
        for side in (s, t):
            seen[side] = seen.get(side, 0) + 1
            if seen[side] > 1:
                return CheckResult(False, f"side {side} glued more than once")
    paired = set(seen)
    for s, t in cert.pairs:
        kind_s, _, _, ref_s = occurrences[s]
        kind_t, _, _, ref_t = occurrences[t]
        read_s, read_t = diagrams._as_read(cert, ref_s), diagrams._as_read(cert, ref_t)
        if kind_s == kind_t:
            if read_s != -read_t:
                return CheckResult(False, f"glued sides {s},{t} do not carry inverse labels")
        elif read_s != read_t:
            return CheckResult(
                False, f"boundary side of {s},{t} does not repeat the face label")

    # a signed reference starts at 2i + (ref < 0) and ends at that ^ 1
    number = {side: i for i, side in enumerate(cert.labels)}
    parent = list(range(2 * len(number)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for cycle in itertools.chain(cert.faces, cert.boundaries):
        starts = [2 * number[abs(ref)] + (ref < 0) for ref in cycle]
        for start, nxt in zip(starts, starts[1:] + starts[:1]):
            parent[find(start ^ 1)] = find(nxt)
    for s, t in cert.pairs:
        kind_s, _, _, ref_s = occurrences[s]
        kind_t, _, _, ref_t = occurrences[t]
        # parallel traversal joins start to start; anti-parallel, start to end
        a = 2 * number[s] + (ref_s < 0)
        b = 2 * number[t] + (ref_t < 0) ^ (kind_s == kind_t)
        parent[find(a)] = find(b)
        parent[find(a ^ 1)] = find(b ^ 1)
    v_count = len({find(c) for c in range(len(parent))})
    e_count = len(cert.pairs) + sum(1 for side in cert.labels if side not in paired)
    for i in range(len(number)):
        parent[find(2 * i)] = find(2 * i + 1)
    if len({find(c) for c in range(len(parent))}) > 1:
        return CheckResult(False, "diagram is disconnected")
    euler = v_count - e_count + len(cert.faces)
    if euler != 2 - k:
        return CheckResult(False, f"Euler characteristic {euler} differs from 2-k = {2 - k}")

    table = _RelatorTable(relators) if relators and cert.faces else None
    for ci, cycle in enumerate(cert.faces):
        letters = [diagrams._as_read(cert, ref) for ref in cycle]
        if table is not None and table.reads_relator(letters):
            continue
        if free_reduce(cert.alphabet, letters).is_empty:
            continue
        return CheckResult(False, f"face {ci} does not read a relator shift")
    warnings = tuple(diagrams._reducedness_warnings(cert, occurrences))
    reason = diagrams._claim_mismatch(cert)
    if reason is not None:
        return CheckResult(False, reason, warnings)
    return CheckResult(True, None, warnings)


def outcome(check, cert, relators):
    """What ``check`` gives: its result, or the type and text of its error."""
    try:
        return check(cert, relators)
    except RelfreeError as exc:
        return type(exc), str(exc)


def with_glued_labels(cert):
    """``cert`` with the label of each pair's second side set from its first,
    so that most texts get past the label checks to the topology; None when
    the structure is malformed."""
    try:
        occurrences = diagrams._validate_structure(cert)
    except RelfreeError:
        return None
    labels = dict(cert.labels)
    for s, t in cert.pairs:
        kind_s, _, _, ref_s = occurrences[s]
        kind_t, _, _, ref_t = occurrences[t]
        read = labels[s] if ref_s > 0 else -labels[s]
        if kind_s == kind_t:
            read = -read
        labels[t] = read if ref_t > 0 else -read
    return dataclasses.replace(cert, labels=labels)


@settings(max_examples=400, deadline=2000)
@given(certificate_texts())
def test_junction_count_agrees_with_the_corner_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            cert = load_certificate(path)
        except RelfreeError:
            return
    for case in filter(None, (cert, with_glued_labels(cert))):
        for relators in ([COMM], []):
            assert outcome(check_certificate, case, relators) \
                == outcome(reference_check_certificate, case, relators)


def test_junction_count_agrees_on_corruptions_of_a_product_certificate():
    # a product of four conjugated random relators, as the benchmark's
    # certificate jobs build them (at a tenth of their lengths)
    rng = random.Random(13)
    while True:
        rels = [free_reduce(AB, random_relator(rng, k)) for k in (200, 180, 160, 12)]
        parts = [conjugate(r if rng.random() < 0.5 else power(r, -1),
                           free_reduce(AB, random_relator(rng, 5))) for r in rels]
        w = concat_all(parts)
        res = dehn_reduce_trace(w, rels)
        if res.word.is_empty:
            break
    cert = certify_dehn_trace(w, rels, res.steps)
    assert check_certificate(cert, rels) == reference_check_certificate(cert, rels)
    assert check_certificate(cert, rels).accepted
    reasons = set()
    for _ in range(200):
        bad = random_corruption(cert, rng)
        got = outcome(check_certificate, bad, rels)
        assert got == outcome(reference_check_certificate, bad, rels)
        assert not (isinstance(got, CheckResult) and got.accepted)
        reasons.add(got.reason if isinstance(got, CheckResult) else got[1])
    assert len(reasons) > 3  # the corruptions reach several checks


# -- reading a long certificate: each refusal names its own line ---------------

@pytest.fixture(scope="module")
def long_certificate_lines(tmp_path_factory):
    """A saved one-face disk on 5 400 letters: 16 204 lines, of which lines
    2-10 801 declare sides and 10 802-16 201 glue them."""
    rng = random.Random(10)
    word = free_reduce(AB, random_relator(rng, 5_400))
    path = tmp_path_factory.mktemp("long") / "cert.txt"
    save_certificate(one_face_disk(word), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 16_205 and lines[-1] == ""  # 16 204 lines and a final newline
    assert lines[10_799].startswith("edge ") and lines[10_801].startswith("pair ")
    return lines


def _refused_at(tmp_path, lines):
    path = tmp_path / "cert.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedCertificate) as info:
        load_certificate(path)
    return str(info.value).removeprefix(f"{path}:").partition(":")[0]


@pytest.mark.parametrize("lineno, change", [
    (10_000, lambda line: line.replace(" a", " b")),          # edge label
    (10_000, lambda line: line.replace("a1", "a3").replace("a2", "a3")),  # outside the alphabet
    (10_000, lambda line: line.replace("edge ", "edge x")),   # side number
    (10_000, lambda line: line.replace("edge 9999 ", "edge 17 ")),  # a side declared again
    (10_900, lambda line: line + "x"),                        # second pair field
    (10_901, lambda line: line.replace("pair ", "pair -x")),  # first pair field
], ids=["edge-label", "edge-letter", "edge-side", "edge-side-again", "pair-second",
        "pair-first"])
def test_a_bad_field_deep_in_a_long_certificate_names_its_line(
        tmp_path, long_certificate_lines, lineno, change):
    lines = list(long_certificate_lines)
    lines[lineno - 1] = change(lines[lineno - 1])
    assert lines[lineno - 1] != long_certificate_lines[lineno - 1]
    assert _refused_at(tmp_path, lines) == str(lineno)


def test_the_first_bad_line_is_named_whatever_its_kind(tmp_path, long_certificate_lines):
    lines = list(long_certificate_lines)
    lines[9_999] = lines[9_999].replace("edge ", "edge x")
    lines[10_900] += "x"
    face = next(i for i, line in enumerate(lines) if line.startswith("face "))
    bad_face = lines[face] + " y"
    assert _refused_at(tmp_path, lines) == "10000"  # the edge line comes first
    # a bad face line moved before the bad edge line is the one named
    lines = [lines[0], bad_face, *lines[1:face], *lines[face + 1:]]
    assert _refused_at(tmp_path, lines) == "2"
    # and a bad pair line before both of them
    lines.insert(1, "pair 1 z")
    assert _refused_at(tmp_path, lines) == "2"
