import copy
import dataclasses
import itertools
import os
import random
import re
import shlex
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relfree import diagrams, graded, report
from relfree.diagrams import (
    CheckResult,
    DiagramCertificate,
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
        claim=(word,))


def zero_face_annulus():
    u = Word.parse(AB, "a1 a2")
    v = Word.parse(AB, "a2 a1")  # a rotation of u
    labels = {1: 1, 2: 2, 3: -1, 4: -2}  # second boundary reads v^-1
    return DiagramCertificate(
        AB, labels,
        faces=[],
        boundaries=[[1, 2], [3, 4]],
        pairs=[(1, 3), (2, 4)],
        claim=(u, invert(v)))


def test_one_face_disk_accepts():
    out = check_certificate(one_face_disk(), [COMM])
    assert out.accepted, out.reason


def test_rotation_annulus_accepts():
    out = check_certificate(zero_face_annulus(), [])
    assert out.accepted, out.reason


def test_annulus_second_boundary_must_read_the_inverse():
    # the second boundary reads v = a1^-1 a2^-1 itself, not the v^-1 of u ~ v
    cert = zero_face_annulus()
    v = Word.parse(AB, "a1^-1 a2^-1")
    cert.claim = (Word.parse(AB, "a1 a2"), invert(v))
    out = check_certificate(cert, [])
    assert not out.accepted
    assert out.reason == "boundary words do not match the claimed tuple"


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
    cert.claim = (Word.parse(AB, "a1 a2"),)
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


def test_malformed_certificates_raise(tmp_path):
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
    cert = one_face_disk()
    cert.labels[99] = 1  # declared, but in no cycle
    with pytest.raises(MalformedCertificate, match="side 99 is declared but dangling"):
        check_certificate(cert, [COMM])
    cert = one_face_disk()
    cert.pairs.append((1, 99))
    with pytest.raises(MalformedCertificate, match=r"pairing \(1, 99\) references unknown"):
        check_certificate(cert, [COMM])
    cert = one_face_disk()
    cert.claim = (Word.parse(AB4, "a1 a2 a1^-1 a2^-1"),)
    with pytest.raises(MalformedCertificate, match="claim words use a different alphabet"):
        check_certificate(cert, [COMM])
    # side ids start at 1, in memory (referenced or dangling) and in a file
    for side in (0, -1):
        low = f"side {side} is declared, but side ids start at 1"
        cert = DiagramCertificate(AB, {side: 1}, [], [[side]], [], (Word.parse(AB, "a1"),))
        with pytest.raises(MalformedCertificate, match=low):
            check_certificate(cert, [COMM])
        cert = one_face_disk()
        cert.labels[side] = 1
        with pytest.raises(MalformedCertificate, match=low):
            check_certificate(cert, [COMM])
        path = tmp_path / f"side{side}.txt"
        path.write_text(f"alphabet 2\nedge {side} a1\nboundary {side}\nclaim equality a1\n")
        with pytest.raises(MalformedCertificate, match=re.escape(
                f"{path}:2: cannot read 'edge {side} a1': side ids start at 1")):
            load_certificate(path)


def test_punctured_sphere_three_boundaries():
    # thickened theta graph: three arcs, three boundary circles
    labels = {1: 1, 2: -2, 3: 2, 4: 2, 5: -2, 6: -1}
    cert = DiagramCertificate(
        AB, labels,
        faces=[],
        boundaries=[[1, 2], [3, 4], [5, 6]],
        pairs=[(1, 6), (2, 3), (4, 5)],
        claim=(Word.parse(AB, "a1 a2^-1"), Word.parse(AB, "a2^2"),
               Word.parse(AB, "a2^-1 a1^-1")))
    out = check_certificate(cert, [])
    assert out.accepted, out.reason


def test_four_boundaries_unsupported():
    labels = {1: 1, 2: -1, 3: 1, 4: -1, 5: 1, 6: -1, 7: 1, 8: -1}
    cert = DiagramCertificate(
        AB, labels,
        faces=[],
        boundaries=[[1], [2], [3], [4], [5], [6], [7], [8]][:4],
        pairs=[(1, 2), (3, 4)],
        claim=tuple(Word.parse(AB, "a1") for _ in range(4)))
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
        claim=(Word.parse(AB, "a2 a1^-1 a2^-1 a2 a1 a2^-1"),))
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
        claim=(Word.identity(AB),))
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
    return DiagramCertificate(AB, {}, [], [], [], (COMM,))


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


def _claim(*words, form=None):
    """Set the claim to ``words``.  ``form``, (w,) for w = 1 or (u, v^-1) for
    u ~ v, goes into the test id of a row that gives another row's reason."""
    def change(cert):
        cert.claim = words
        return cert
    change.form = form
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
    (zero_face_annulus, _claim(COMM, form="(w,)"), [],
     "claim lists 1 boundary words, diagram has 2"),
    (one_face_disk, _claim(Word.identity(AB)), [COMM],
     "the empty word needs no certificate"),
    (one_face_disk, _claim(Word.parse(AB, "a1 a2"), form="(w,)"), [COMM],
     "boundary words do not match the claimed tuple"),
    (one_face_disk, _claim(COMM, invert(COMM), form="(u, v^-1)"), [COMM],
     "claim lists 2 boundary words, diagram has 1"),
    (zero_face_annulus, _claim(A1, invert(A1), form="(u, v^-1)"), [],
     "boundary words do not match the claimed tuple"),
    (one_face_disk, _claim(COMM, COMM), [COMM],
     "claim lists 2 boundary words, diagram has 1"),
    (one_face_disk, _claim(A1), [COMM],
     "boundary words do not match the claimed tuple"),
]


@pytest.mark.parametrize("make, change, relators, reason", REASONS, ids=[
    reason if getattr(change, "form", None) is None else f"{reason} {change.form}"
    for _, change, _, reason in REASONS])
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
                        pairs=pairs, claim=(Word.identity(ab),))


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
    for bad, message in (
        (DehnStep(s0.pos, s0.matched, 1, s0.sign, s0.offset), "unknown relator variant"),
        (DehnStep(s0.pos, 0, s0.relator_index, s0.sign, s0.offset), "indices out of range"),
        (DehnStep(s0.pos, s0.matched, s0.relator_index, s0.sign, 8), "indices out of range"),
        (DehnStep(w.letter_length - 1, s0.matched, s0.relator_index, s0.sign, s0.offset),
         "window exceeds the current word"),
    ):
        with pytest.raises(TraceMismatch, match=message):
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
    steps = dehn_reduce_trace(w, table).steps
    cert = certify_dehn_trace(w, table, steps)
    assert check_certificate(cert, table).accepted
    assert built == [1]
    assert cert == certify_dehn_trace(w, [GENUS2], steps)
    bad = random_corruption(cert, random.Random(3))
    assert outcome(check_certificate, bad, [GENUS2]) \
        == outcome(check_certificate, bad, table)
    built.clear()
    passed, detail = report.criterion_dehn_certificates(0)
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


# the annulus of zero_face_annulus: its boundaries read a1 a2 and a1^-1 a2^-1
ANNULUS = ("alphabet 2\nedge 1 a1\nedge 2 a2\nedge 3 a1^-1\nedge 4 a2^-1\n"
           "pair 1 3\npair 2 4\nboundary 1 2\nboundary 3 4\n")


@pytest.mark.parametrize("line, words, reason", [
    ("claim conjugacy 'a1 a2' 'a2 a1'", ["a1 a2", "a1^-1 a2^-1"], None),
    ("claim conjugacy 'a1 a2' 'a1^-1 a2^-1'", ["a1 a2", "a2 a1"],
     "boundary words do not match the claimed tuple"),
    ("claim conjugacy a1 a2", ["a1", "a2^-1"], "boundary words do not match the claimed tuple"),
    ("claim punctured 'a2^-1 a1^-1' 'a2 a1'", ["a2^-1 a1^-1", "a2 a1"], None),
    ("claim equality 'a1 a2'", ["a1 a2"], "claim lists 1 boundary words, diagram has 2"),
    ("claim punctured 'a1 a2'", ["a1 a2"], "claim lists 1 boundary words, diagram has 2"),
    ("claim punctured a1 a2 a1", ["a1", "a2", "a1"],
     "claim lists 3 boundary words, diagram has 2"),
], ids=["conjugacy", "conjugacy-not-inverted", "conjugacy-not-conjugate", "punctured",
        "equality", "punctured-one-word", "punctured-three-words"])
def test_a_claim_line_loads_to_the_words_it_means(tmp_path, line, words, reason):
    # conjugacy u v means (u, v^-1); its punctured spelling gets the same
    # verdict and reason, and a claim saves back spelled equality for one
    # word and punctured for any other count
    path = tmp_path / "cert.txt"
    path.write_text(ANNULUS + line + "\n")
    cert = load_certificate(path)
    assert cert.claim == tuple(Word.parse(AB, w) for w in words)
    out = check_certificate(cert, [])
    assert (out.accepted, out.reason) == (reason is None, reason)
    quoted = " ".join(shlex.quote(w) for w in words)
    path.write_text(f"{ANNULUS}claim punctured {quoted}\n")
    assert check_certificate(load_certificate(path), []) == out
    save_certificate(cert, path)
    kind = "equality" if len(words) == 1 else "punctured"
    assert path.read_text().endswith(f"\nclaim {kind} {quoted}\n")
    assert load_certificate(path) == cert


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
    occurrences, readings = diagrams._validate_structure(cert)
    kinds, refs = kinds_and_refs(cert)
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
        read_s, read_t = as_read(cert, refs[s]), as_read(cert, refs[t])
        if kinds[s] == kinds[t]:
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
        # parallel traversal joins start to start; anti-parallel, start to end
        a = 2 * number[s] + (refs[s] < 0)
        b = 2 * number[t] + (refs[t] < 0) ^ (kinds[s] == kinds[t])
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
        letters = [as_read(cert, ref) for ref in cycle]
        if table is not None and table.reads_relator(letters):
            continue
        if free_reduce(cert.alphabet, letters).is_empty:
            continue
        return CheckResult(False, f"face {ci} does not read a relator shift")
    warnings = tuple(diagrams._reducedness_warnings(cert, occurrences, readings))
    reason = diagrams._claim_mismatch(
        cert, [[as_read(cert, ref) for ref in cycle] for cycle in cert.boundaries])
    if reason is not None:
        return CheckResult(False, reason, warnings)
    return CheckResult(True, None, warnings)


def kinds_and_refs(cert):
    """Side id -> the kind of the cycle it is in, and -> its signed reference."""
    kinds, refs = {}, {}
    for kind, cycles in (("face", cert.faces), ("boundary", cert.boundaries)):
        for ref in itertools.chain.from_iterable(cycles):
            kinds[abs(ref)], refs[abs(ref)] = kind, ref
    return kinds, refs


def as_read(cert, ref):
    """The letter a signed reference reads."""
    return cert.labels[ref] if ref > 0 else -cert.labels[-ref]


def outcome(check, *args):
    """What ``check`` gives: its result, or the type and text of its error."""
    try:
        return check(*args)
    except RelfreeError as exc:
        return type(exc), str(exc)


def with_glued_labels(cert):
    """``cert`` with the label of each pair's second side set from its first,
    so that most texts get past the label checks to the topology; None when
    the structure is malformed."""
    try:
        diagrams._validate_structure(cert)
    except RelfreeError:
        return None
    kinds, refs = kinds_and_refs(cert)
    labels = dict(cert.labels)
    for s, t in cert.pairs:
        read = labels[s] if refs[s] > 0 else -labels[s]
        if kinds[s] == kinds[t]:
            read = -read
        labels[t] = read if refs[t] > 0 else -read
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


# -- replaying a trace: cancellation at the two seams -------------------------

def reference_certify_dehn_trace(w, relators, trace):
    """The replay as it was before it cancelled at the seams only: frontier
    entries are (side, sign), and after each step one stack pass over all of
    the frontier past the prefix folds cancelled letters into glued pairs."""
    if w.is_empty:
        raise diagrams.EmptyInput("nothing to certify for the empty word")
    table = _RelatorTable.of(relators)
    labels, faces, pairs = {}, [], []

    def new_side(label):
        labels[len(labels) + 1] = label
        return len(labels)

    boundary_sides = [new_side(g) for g in w.to_letters()]
    frontier = [(side, 1) for side in boundary_sides]

    def reading(entry):
        return labels[entry[0]] * entry[1]

    for step in trace:
        key = (step.relator_index, step.sign)
        if key not in table.keys:
            raise TraceMismatch(f"step references unknown relator variant {key}")
        k = table.keys[key]
        rlen = table.lengths[k]
        if not (0 < step.matched <= rlen) or not (0 <= step.offset < rlen):
            raise TraceMismatch("step indices out of range")
        rotated = diagrams._decode_letters(table.doubled(k)[step.offset:step.offset + rlen])
        if step.pos < 0 or step.pos + step.matched > len(frontier):
            raise TraceMismatch("step window exceeds the current word")
        window = frontier[step.pos:step.pos + step.matched]
        if [reading(entry) for entry in window] != rotated[:step.matched]:
            raise TraceMismatch("current word does not match the recorded prefix")
        face = []
        for entry, letter in zip(window, rotated):
            face.append(new_side(letter))
            pairs.append((face[-1], entry[0]))
        face += [new_side(letter) for letter in rotated[step.matched:]]
        faces.append(face)
        stack = frontier[:step.pos]
        exposed = [(side, -1) for side in reversed(face[step.matched:])]
        for entry in exposed + frontier[step.pos + step.matched:]:
            if stack and reading(stack[-1]) == -reading(entry):
                pairs.append((stack.pop()[0], entry[0]))
            else:
                stack.append(entry)
        frontier = stack
    if frontier:
        raise TraceMismatch(f"{len(frontier)} letters left after replaying the trace")
    return DiagramCertificate(w.alphabet, labels, faces, [boundary_sides], pairs, (w,))


def steps_at(table, letters):
    """Every step the replay accepts on ``letters``: each window that reads
    the first 1, 2, ... letters of some rotation of an entry."""
    for (idx, sign), k in table.keys.items():
        rlen = table.lengths[k]
        for offset in range(rlen):
            rotated = diagrams._decode_letters(table.doubled(k)[offset:offset + rlen])
            for pos in range(len(letters)):
                matched = 0
                while matched < min(rlen, len(letters) - pos) \
                        and letters[pos + matched] == rotated[matched]:
                    matched += 1
                    yield DehnStep(pos, matched, idx, sign, offset)


def after(table, letters, step):
    k = table.keys[(step.relator_index, step.sign)]
    rlen = table.lengths[k]
    rotated = diagrams._decode_letters(table.doubled(k)[step.offset:step.offset + rlen])
    exposed = [-g for g in reversed(rotated[step.matched:])]
    return free_reduce(table.cores[0].alphabet, letters[:step.pos] + exposed
                       + letters[step.pos + step.matched:]).to_letters()


@st.composite
def replay_cases(draw):
    """Relators (C09's, or one to three short random ones), an identity word
    (a product of their conjugates) and a trace: the rewriter's, or a random
    walk of steps that the replay accepts, which may leave letters over;
    either may end in a step of arbitrary indices."""
    if draw(st.booleans()):
        ab, relators = AB4, [GENUS2]
    else:
        ab, rng = AB, random.Random(draw(st.integers(0, 2 ** 32)))
        relators = [free_reduce(AB, random_relator(rng, draw(st.integers(1, 8))))
                    for _ in range(draw(st.integers(1, 3)))]
    letters = [s * g for g in range(1, ab.m + 1) for s in (1, -1)]
    parts = draw(st.lists(st.tuples(st.integers(0, len(relators) - 1), st.sampled_from([1, -1]),
                                    st.lists(st.sampled_from(letters), max_size=3)),
                          min_size=1, max_size=4))
    w = concat_all([conjugate(power(relators[i], sign), free_reduce(ab, c))
                    for i, sign, c in parts])
    if w.is_empty:
        w = relators[0]
    table, current, trace = _RelatorTable(relators), w.to_letters(), []
    if draw(st.booleans()):
        trace = list(dehn_reduce_trace(w, table).steps)
    else:
        for _ in range(draw(st.integers(0, 6))):
            steps = list(steps_at(table, current))
            if not steps:
                break
            trace.append(draw(st.sampled_from(steps)))
            current = after(table, current, trace[-1])
    if draw(st.booleans()):  # one step of any indices, which the replay may refuse
        trace.append(draw(st.builds(DehnStep, st.integers(-1, 60), st.integers(0, 9),
                                    st.integers(0, 3), st.sampled_from([1, -1]),
                                    st.integers(-1, 9))))
    return relators, w, trace


@settings(max_examples=300, deadline=None)
@given(replay_cases())
# a2 a1 . a1 a2 a1^-1 a2^-1 . a1^-1 a2^-1: the step replaces a1^-1 a2^-1 by
# a2^-1 a1^-1, which cancels the two letters before it, and then the rest of
# the prefix, a2 a1, cancels against the suffix
@example(([COMM], Word.parse(AB, "a2 a1 a1 a2 a1^-1 a2^-1 a1^-1 a2^-1"),
          [DehnStep(4, 2, 0, 1, 2)]))
def test_seam_replay_agrees_with_the_whole_frontier_loop(case):
    relators, w, trace = case
    got = outcome(certify_dehn_trace, w, relators, trace)
    assert got == outcome(reference_certify_dehn_trace, w, relators, trace)
    if isinstance(got, DiagramCertificate):
        assert check_certificate(got, relators).accepted


def test_certify_applies_each_step_through_the_rewriters_own_step(monkeypatch):
    # wrappers set on the module attributes see each seam and each replacement
    rng = random.Random(5)
    letters = [s * g for g in range(1, 5) for s in (1, -1)]
    w = concat_all([conjugate(power(GENUS2, rng.choice([1, -1])),
                              free_reduce(AB4, [rng.choice(letters) for _ in range(3)]))
                    for _ in range(12)])
    table = _RelatorTable([GENUS2])
    steps = dehn_reduce_trace(w, table).steps
    calls = []

    def counted_join(u, v, _join=diagrams._join_reduced):
        calls.append("_join_reduced")
        return _join(u, v)

    def counted_replacement(self, k, offset, matched, _replacement=_RelatorTable.replacement):
        calls.append("replacement")
        return _replacement(self, k, offset, matched)

    monkeypatch.setattr(diagrams, "_join_reduced", counted_join)
    monkeypatch.setattr(_RelatorTable, "replacement", counted_replacement)
    cert = certify_dehn_trace(w, table, steps)
    assert len(steps) > 1 and check_certificate(cert, table).accepted
    assert calls == ["replacement", "_join_reduced", "_join_reduced"] * len(steps)


def test_a_long_trace_is_certified_in_linear_time():
    # 2 000 conjugated copies of C09's relator; a replay that passes over
    # the whole word at each step took 3-4.5 s for this trace (2-vCPU Xeon
    # host), against 0.03-0.04 s for cancelling at the seams
    rng = random.Random(7)
    letters = [s * g for g in range(1, 5) for s in (1, -1)]
    parts = []
    for _ in range(2000):
        sign = rng.choice([1, -1])
        c = free_reduce(AB4, [rng.choice(letters) for _ in range(rng.randint(0, 3))])
        parts.append(conjugate(power(GENUS2, sign), c))
    w = concat_all(parts)
    res = dehn_reduce_trace(w, [GENUS2])
    assert (w.letter_length, len(res.steps), res.word.is_empty) == (18_456, 1_818, True)
    start = time.perf_counter()
    cert = certify_dehn_trace(w, [GENUS2], res.steps)
    assert time.perf_counter() - start < 2
    assert check_certificate(cert, [GENUS2]).accepted


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
    """The refusal's message after the path: the line number and the reason."""
    path = tmp_path / "cert.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedCertificate) as info:
        load_certificate(path)
    return str(info.value).removeprefix(f"{path}:")


INT_REFUSED = "invalid literal for int() with base 10:"


@pytest.mark.parametrize("lineno, change, reason", [
    (10_000, lambda line: line.replace(" a", " b"),           # edge label
     "cannot read 'edge 9999 b2': bad token 'b2'"),
    (10_000, lambda line: line.replace("a1", "a3").replace("a2", "a3"),  # outside the alphabet
     "cannot read 'edge 9999 a3': generator a3 outside alphabet of 2"),
    (10_000, lambda line: line.replace("edge ", "edge x"),    # side number
     f"cannot read 'edge x9999 a2': {INT_REFUSED} 'x9999'"),
    (10_000, lambda line: line.replace("edge 9999 ", "edge 17 "),  # a side declared again
     "cannot read 'edge 17 a2': the side is declared twice"),
    (10_900, lambda line: line + "x",                         # second pair field
     f"cannot read 'pair 99 5499x': {INT_REFUSED} '5499x'"),
    (10_901, lambda line: line.replace("pair ", "pair -x"),   # first pair field
     f"cannot read 'pair -x100 5500': {INT_REFUSED} '-x100'"),
], ids=["edge-label", "edge-letter", "edge-side", "edge-side-again", "pair-second",
        "pair-first"])
def test_a_bad_field_deep_in_a_long_certificate_names_its_line(
        tmp_path, long_certificate_lines, lineno, change, reason):
    lines = list(long_certificate_lines)
    lines[lineno - 1] = change(lines[lineno - 1])
    assert lines[lineno - 1] != long_certificate_lines[lineno - 1]
    assert _refused_at(tmp_path, lines) == f"{lineno}: {reason}"


@pytest.mark.parametrize("line, reason", [
    ("edge 1_0 a1", "a side id is ASCII decimal digits, got '1_0'"),
    ("edge +1 a1", "a side id is ASCII decimal digits, got '+1'"),
    ("edge \u0661 a1", "a side id is ASCII decimal digits, got '\u0661'"),
    ("pair 1\u0660 2", "a side id is ASCII decimal digits, got '1\u0660'"),
    ("boundary 1 +2", "a side id is ASCII decimal digits, got '+2'"),
    ("face -\u0662 1", "a side id is ASCII decimal digits, got '-\u0662'"),
    # a "-" reads a side backwards, so only a face or boundary takes one
    ("pair -1 2", "side ids start at 1"),
    ("pair 1 -2", "side ids start at 1"),
    ("pair 0 2", "side ids start at 1"),
    ("edge -1 a1", "side ids start at 1"),
    ("face 0 1", "side ids start at 1"),
    ("boundary 1 -0", "side ids start at 1"),
], ids=["edge-underscore", "edge-plus", "edge-arabic-digit", "pair-arabic-digit",
        "boundary-plus", "face-arabic-digit", "pair-minus-first", "pair-minus-second",
        "pair-zero", "edge-minus", "face-zero", "boundary-minus-zero"])
@pytest.mark.parametrize("comment", ["", "# a_b +c \u00e9\n"], ids=["plain", "comment"])
def test_a_side_id_is_ascii_digits_with_a_minus_only_in_a_cycle(tmp_path, comment, line,
                                                                 reason):
    # a comment that int() alone could not be trusted on moves no line's verdict
    path = tmp_path / "cert.txt"
    path.write_text(f"{comment}alphabet 2\n{line}\nclaim equality a1\n", encoding="utf-8")
    lineno = 2 + bool(comment)
    with pytest.raises(MalformedCertificate) as info:
        load_certificate(path)
    assert str(info.value) == f"{path}:{lineno}: cannot read {line!r}: {reason}"


def test_side_ids_that_int_alone_would_read_are_refused_where_they_stand(tmp_path):
    # read by int(), these lines glued sides 10 and 2 and loaded
    path = tmp_path / "cert.txt"
    path.write_text("alphabet 2\nedge 1_0 a1\nedge +2 a1^-1\npair 1\u0660 2\n"
                    "boundary 10 2\nclaim equality a1\n", encoding="utf-8")
    with pytest.raises(MalformedCertificate, match=f"^{re.escape(str(path))}:2: "):
        load_certificate(path)


@pytest.mark.parametrize("comment", ["# plain\n", "# a_b +c \u00e9\n"])
def test_a_comment_leaves_the_certificate_it_heads_as_it_was(tmp_path, comment):
    path = tmp_path / "cert.txt"
    save_certificate(one_face_disk(), path)
    text = path.read_text(encoding="utf-8")
    assert "face -" not in text
    path.write_text(comment + text.replace("face ", "face -", 1), encoding="utf-8")
    cert = load_certificate(path)
    assert cert.faces[0][0] == -1 and cert == dataclasses.replace(
        one_face_disk(), faces=[[-1, *one_face_disk().faces[0][1:]]])


def test_the_first_bad_line_is_named_whatever_its_kind(tmp_path, long_certificate_lines):
    lines = list(long_certificate_lines)
    lines[9_999] = lines[9_999].replace("edge ", "edge x")
    lines[10_900] += "x"
    face = next(i for i, line in enumerate(lines) if line.startswith("face "))
    bad_face = lines[face] + " y"
    assert _refused_at(tmp_path, lines).startswith("10000: ")  # the edge line comes first
    # a bad face line moved before the bad edge line is the one named
    lines = [lines[0], bad_face, *lines[1:face], *lines[face + 1:]]
    assert _refused_at(tmp_path, lines).startswith("2: ")
    # and a bad pair line before both of them
    lines.insert(1, "pair 1 z")
    assert _refused_at(tmp_path, lines).startswith("2: ")
