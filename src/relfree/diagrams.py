"""Verification of diagram certificates on a disk, annulus, or punctured sphere.

A certificate lists labeled directed sides, cycles (faces and at most three
distinguished boundary cycles), a gluing that pairs sides, and a claim: the
words its k boundary cycles read, in any order, each up to rotation.  So
w = 1 is the claim (w,) on a disk and u ~ v is (u, v^-1) on an annulus.  A
file spells a claim of one word ``claim equality w``, any other
``claim punctured w1 ... wk``, and also reads ``claim conjugacy u v`` as
(u, v^-1), which saves back spelled ``punctured``.  The model and its
conventions:

- every declared side occurs exactly once, with a sign, across all cycles;
- all cycles, boundary cycles included, are read with the surface on the
  same side, so a gluing between two face sides or two boundary sides
  traverses the shared edge in opposite directions (as-referenced labels
  mutually inverse), while a face side glued to a boundary side runs
  parallel to it (labels equal);
- vertices are implicit: classes of cycle junctions (junction p of a cycle is
  the corner after its p-th reference) joined by the gluing, computed while checking;
- accepting requires the gluing to be a fixed-point-free partial involution
  covering every face side, a connected complex with Euler characteristic
  2 - k for k boundary cycles, every face reading a cyclic shift of the
  cyclic core of a relator or of its inverse (or a freely trivial word), and
  the boundary words matching the claim, none of whose words is empty.

A cyclic shift is tested one way throughout: a word a is a shift of b iff
|a| = |b| and a occurs in bb.  Faces are matched against the relator table
that Dehn rewriting uses (cyclic cores, so a face reads exactly what a
rewriting step of :func:`certify_dehn_trace` puts there); claim words are
matched as given.  The table encodes an entry on first use, so a check
encodes only the entries as long as some face, and a certificate build only
the entries its trace names.  A build replays each step through the
rewriter's own step (``_join_reduced`` at both seams, with the letters of
``_RelatorTable.replacement``); a check reads each reference once.

Mirror-glued face pairs make a diagram unreduced; that is reported as a
warning, not a failure, since an unreduced diagram still certifies its
boundary claim.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import shlex
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    EmptyInput,
    MalformedCertificate,
    RelfreeError,
    TraceMismatch,
    Unsupported,
    fields_after,
    read_text,
    split_fields,
)
from .graded import DehnStep, _join_reduced, _RelatorTable
from .words import (
    Alphabet,
    Word,
    _decode_letters,
    _encode_letters,
    _encode_word,
    _is_cyclic_shift,
    _is_decimal,
    free_reduce,
    invert,
)

_MAX_BOUNDARIES = 3


@dataclass
class DiagramCertificate:
    alphabet: Alphabet
    labels: dict[int, int]                 # side id -> signed generator
    faces: list[list[int]]                 # signed side refs
    boundaries: list[list[int]]
    pairs: list[tuple[int, int]]
    claim: tuple[Word, ...]                # what the boundary cycles read


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: str | None = None
    warnings: tuple[str, ...] = ()


# -- construction of the incidence structure --------------------------------


def _validate_structure(cert: DiagramCertificate
                        ) -> tuple[dict[int, tuple[int, int]], list[list[int]]]:
    """Well-formedness that has no geometric meaning; raises MalformedCertificate.

    A side id below 1 is never referenced (a reference's sign is its
    direction), so it is refused as dangling at the latest; the refusal it
    causes names it instead.
    Reads each reference once, in one pass over ``faces + boundaries``, and
    returns side id -> (cycle, index into its reading) and the readings: the
    letter each reference reads, cycle by cycle."""

    def refuse(message: str):
        low = min(cert.labels, default=1)
        raise MalformedCertificate(
            f"side {low} is declared, but side ids start at 1" if low < 1 else message)

    occurrences: dict[int, tuple[int, int]] = {}
    readings: list[list[int]] = []  # the cycle of a reference is its reading's index
    for kind, cycles in (("face", cert.faces), ("boundary", cert.boundaries)):
        for ci, cycle in enumerate(cycles):
            if not cycle:
                refuse(f"{kind} {ci} is an empty cycle")
            read: list[int] = []
            for ref in cycle:
                side = abs(ref)
                label = cert.labels.get(side) if ref else None
                if label is None:
                    refuse(f"{kind} {ci} references unknown side {ref}")
                if side in occurrences:
                    refuse(f"side {side} referenced more than once")
                occurrences[side] = (len(readings), len(read))
                read.append(label if ref > 0 else -label)
            readings.append(read)
    for side in cert.labels:
        if side not in occurrences:
            refuse(f"side {side} is declared but dangling")
    for s, t in cert.pairs:
        if s not in cert.labels or t not in cert.labels:
            raise MalformedCertificate(f"pairing ({s}, {t}) references unknown sides")
        if s == t:
            raise MalformedCertificate(f"side {s} glued to itself")
    for w in cert.claim:
        if w.alphabet != cert.alphabet:
            raise MalformedCertificate("claim words use a different alphabet")
    return occurrences, readings


# -- the checker -------------------------------------------------------------


def check_certificate(cert: DiagramCertificate,
                      relators: list[Word] | _RelatorTable) -> CheckResult:
    """ACCEPT iff the complex is a genuine k-punctured sphere whose faces read
    relators and whose boundary matches the claim; REJECT names the first
    violated condition.  ``relators`` may be their table, built once by a
    caller that checks many certificates.

    A side glued to nothing needs no test: every corner meets at most two
    others, so a connected complex with its k boundary cycles capped is a
    connected surface.  A free side makes it one with boundary, whose Euler
    characteristic V - E + F + k is at most 1, not 2."""
    occurrences, readings = _validate_structure(cert)
    k = len(cert.boundaries)
    if k < 1:
        return CheckResult(False, "no boundary cycle")
    if k > _MAX_BOUNDARIES:
        raise Unsupported(f"{k} boundary cycles; at most {_MAX_BOUNDARIES} supported")

    # gluing must be a partial involution without reuse
    seen: set[int] = set()
    for side in itertools.chain.from_iterable(cert.pairs):
        if side in seen:
            return CheckResult(False, f"side {side} glued more than once")
        seen.add(side)

    # Vertices are classes of junctions: junction p of a cycle is the corner
    # after its p-th reference, so a reference at p runs from junction p - 1
    # to junction p and the cycles need no joins.  Nodes n.. stand for the
    # cycles, and the complex is connected iff the pairs join them into one.
    first = [0, *itertools.accumulate(map(len, readings))]
    n, f_count = first[-1], len(cert.faces)
    parent = list(range(n + len(readings)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for s, t in cert.pairs:
        c_s, pos_s = occurrences[s]
        c_t, pos_t = occurrences[t]
        read_s, read_t = readings[c_s][pos_s], readings[c_t][pos_t]
        end_s, end_t = first[c_s] + pos_s, first[c_t] + pos_t
        start_s = end_s - 1 if pos_s else first[c_s + 1] - 1
        start_t = end_t - 1 if pos_t else first[c_t + 1] - 1
        if (c_s < f_count) == (c_t < f_count):  # face-face or boundary-boundary: anti-parallel
            if read_s != -read_t:
                return CheckResult(False, f"glued sides {s},{t} do not carry inverse labels")
            start_t, end_t = end_t, start_t  # each start meets the other's end
        elif read_s != read_t:  # face-boundary: parallel
            return CheckResult(False, f"boundary side of {s},{t} does not repeat the face label")
        parent[find(start_s)] = find(start_t)
        parent[find(end_s)] = find(end_t)
        parent[find(n + c_s)] = find(n + c_t)

    if sum(map(operator.eq, parent[n:], range(n, len(parent)))) > 1:
        return CheckResult(False, "diagram is disconnected")
    v_count = sum(map(operator.eq, parent[:n], range(n)))
    euler = v_count - (n - len(cert.pairs)) + f_count  # V - E + F
    if euler != 2 - k:
        return CheckResult(
            False, f"Euler characteristic {euler} differs from 2-k = {2 - k}")

    # faces must read relator shifts (or freely trivial boundary words)
    table = _RelatorTable.of(relators) if relators and cert.faces else None
    for ci, letters in enumerate(readings[:f_count]):
        if table is not None and table.reads_relator(letters):
            continue
        if free_reduce(cert.alphabet, letters).is_empty:
            continue
        return CheckResult(False, f"face {ci} does not read a relator shift")

    warnings = tuple(_reducedness_warnings(cert, occurrences, readings))

    reason = _claim_mismatch(cert, readings[f_count:])
    if reason is not None:
        return CheckResult(False, reason, warnings)
    return CheckResult(True, None, warnings)


def _reducedness_warnings(cert: DiagramCertificate, occurrences, readings) -> list[str]:
    # Face t read forward from t is face s read backward from s and inverted
    # iff read(t_i) = -read(s_(pos_s + pos_t - i)) for every i, so one test
    # serves each alignment (face s, face t, pos_s + pos_t mod |face s|).
    # One warning names each pair of faces, however many sides they share.
    # Faces come first among the cycles, so a face's cycle is its index.
    warnings = []
    warned: set[tuple[int, int]] = set()
    mirrors: dict[tuple[int, int, int], bool] = {}
    for s, t in cert.pairs:
        ci_s, pos_s = occurrences[s]
        ci_t, pos_t = occurrences[t]
        faces = (min(ci_s, ci_t), max(ci_s, ci_t))
        if faces[1] >= len(cert.faces) or faces in warned:
            continue
        face_s, face_t = readings[ci_s], readings[ci_t]
        n = len(face_s)
        key = (ci_s, ci_t, (pos_s + pos_t) % n)
        if key not in mirrors:
            mirrors[key] = len(face_t) == n and all(
                face_t[i] == -face_s[(key[2] - i) % n] for i in range(n))
        if mirrors[key]:
            warned.add(faces)
            warnings.append(
                f"faces {faces[0]} and {faces[1]} are mirror-glued (diagram unreduced)")
    return warnings


def _claim_mismatch(cert: DiagramCertificate, boundaries: list[list[int]]) -> str | None:
    read = list(map(_encode_letters, boundaries))
    if len(cert.claim) != len(read):
        return f"claim lists {len(cert.claim)} boundary words, diagram has {len(read)}"
    if any(w.is_empty for w in cert.claim):
        return "the empty word needs no certificate"
    if not _match_boundaries(read, [_encode_word(w) * 2 for w in cert.claim]):
        return "boundary words do not match the claimed tuple"
    return None


def _match_boundaries(read: list[str], wanted: list[str]) -> bool:
    """Whether some permutation sends each boundary reading to a claim word it shifts."""
    return any(all(map(_is_cyclic_shift, read, perm)) for perm in itertools.permutations(wanted))


# -- building certificates from rewriting traces ------------------------------


def certify_dehn_trace(w: Word, relators: list[Word] | _RelatorTable,
                       trace: Iterable[DehnStep]) -> DiagramCertificate:
    """Disk certificate with one face per rewriting step.

    Replays the trace through the step of :func:`relfree.graded.dehn_reduce_trace`,
    on its encoded word, beside the frontier: that word as signed side ids
    (``-s`` reads side s backwards).  A step checks its window by one slice
    comparison, glues its matched sides to it and puts the exposed sides (the
    rest of the face, read backwards) in its place; the word takes
    ``_RelatorTable.replacement`` through ``_join_reduced`` at both seams,
    whose cancelled counts glue and cut the frontier.  The result is the word
    the rewriter leaves; any divergence (wrong letters under a match, leftover
    boundary) raises :class:`~relfree.errors.TraceMismatch`.  ``relators``
    may be their table, as in :func:`check_certificate`."""
    if w.is_empty:
        raise EmptyInput("nothing to certify for the empty word")
    table = _RelatorTable.of(relators)

    enc = _encode_word(w)
    labels = dict(zip(itertools.count(1), _decode_letters(enc)))
    faces: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    boundary_sides = list(labels)
    front = list(boundary_sides)

    for step in trace:
        key = (step.relator_index, step.sign)
        if key not in table.keys:
            raise TraceMismatch(f"step references unknown relator variant {key}")
        k = table.keys[key]
        rlen = table.lengths[k]
        if not (0 < step.matched <= rlen) or not (0 <= step.offset < rlen):
            raise TraceMismatch("step indices out of range")
        rotated = table.doubled(k)[step.offset:step.offset + rlen]
        pos, end = step.pos, step.pos + step.matched
        if pos < 0 or end > len(enc):
            raise TraceMismatch("step window exceeds the current word")
        if enc[pos:end] != rotated[:step.matched]:
            raise TraceMismatch("current word does not match the recorded prefix")

        face = list(range(len(labels) + 1, len(labels) + 1 + rlen))
        labels.update(zip(face, _decode_letters(rotated)))
        faces.append(face)
        pairs.extend(zip(face, map(abs, front[pos:end])))
        # the exposed sides replace the window; the left seam cancels, through
        # to the suffix if it takes them all, and then the right one
        front[pos:end] = [-side for side in reversed(face[step.matched:])]
        head, lost = _join_reduced(enc[:pos], table.replacement(k, step.offset, step.matched))
        enc, cut = _join_reduced(head, enc[end:])
        for seam, j in ((pos, lost), (pos + rlen - step.matched - 2 * lost, cut)):
            pairs.extend(zip(map(abs, reversed(front[seam - j:seam])),
                             map(abs, front[seam:seam + j])))
            del front[seam - j:seam + j]

    if front:
        raise TraceMismatch(f"{len(front)} letters left after replaying the trace")
    return DiagramCertificate(w.alphabet, labels, faces, [boundary_sides], pairs, (w,))


# -- soundness fuzzing --------------------------------------------------------


def random_corruption(cert: DiagramCertificate, rng) -> DiagramCertificate:
    """One structural perturbation guaranteed to break a valid certificate:
    a label flipped, a gluing dropped or retargeted, or a reference sign
    flipped.  Used for soundness fuzzing of the checker.  The containers are
    copied; the alphabet and the claim are shared."""
    out = dataclasses.replace(
        cert, labels=dict(cert.labels), faces=list(map(list, cert.faces)),
        boundaries=list(map(list, cert.boundaries)), pairs=list(cert.pairs))
    kinds = ["flip-label", "drop-pair", "flip-ref"]
    if len(out.labels) > 2 and out.pairs:
        kinds.append("retarget-pair")
    kind = rng.choice(kinds)
    if kind == "flip-label" and out.labels:
        side = rng.choice(sorted(out.labels))
        out.labels[side] = -out.labels[side]
    elif kind == "drop-pair" and out.pairs:
        out.pairs.pop(rng.randrange(len(out.pairs)))
    elif kind == "retarget-pair" and out.pairs:
        i = rng.randrange(len(out.pairs))
        s, t = out.pairs[i]
        others = [x for x in out.labels if x not in (s, t)]
        out.pairs[i] = (s, rng.choice(others))
    else:  # flip-ref
        cycles = out.faces + out.boundaries
        cycle = cycles[rng.randrange(len(cycles))]
        i = rng.randrange(len(cycle))
        cycle[i] = -cycle[i]
    return out


# -- text format --------------------------------------------------------------


def save_certificate(cert: DiagramCertificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"alphabet {cert.alphabet.m}\n")
        for side in sorted(cert.labels):
            g = cert.labels[side]
            token = f"a{g}" if g > 0 else f"a{-g}^-1"
            fh.write(f"edge {side} {token}\n")
        for s, t in cert.pairs:
            fh.write(f"pair {s} {t}\n")
        for cycle in cert.faces:
            fh.write("face " + " ".join(str(r) for r in cycle) + "\n")
        for cycle in cert.boundaries:
            fh.write("boundary " + " ".join(str(r) for r in cycle) + "\n")
        kind = "equality" if len(cert.claim) == 1 else "punctured"
        fh.write(f"claim {kind} " + " ".join(shlex.quote(str(w)) for w in cert.claim) + "\n")


def load_certificate(path) -> DiagramCertificate:
    """Parse the text format written by :func:`save_certificate`.

    Each line is split once on whitespace and read in turn; only ``claim``
    lines, whose words :func:`save_certificate` quotes, go through
    :func:`errors.split_fields`, so a quoted field on any other line is an
    error.  Each distinct edge label is parsed once.  The first line that
    cannot be read, that names a side by other than ASCII digits (after a
    ``-`` only in a face or boundary) or below 1, a side again or the alphabet
    again, raises :class:`MalformedCertificate` naming the file and line."""
    alphabet = None
    labels: dict[int, int] = {}
    letters: dict[str, int] = {}  # edge label -> signed generator
    pairs: list[tuple[int, int]] = []
    cycles: dict[str, list[list[int]]] = {"face": [], "boundary": []}
    claim: tuple[Word, ...] | None = None
    text = read_text(path)
    # int() also reads "_", "+" and non-ASCII digits; a text with none is read by
    # int() alone (2-vCPU Xeon, 420 224 lines: the test 0.7 ms, _side_id +100 ms)
    side_id = int if text.isascii() and "_" not in text and "+" not in text else _side_id
    # not errors.content_lines: it formats ``path:n`` for every line, which took
    # a 49 845-line certificate from 42 to 60 ms (2-vCPU Xeon host)
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        try:
            if head == "pair" and len(tokens) == 3:
                s, t = side_id(tokens[1]), side_id(tokens[2])
                if s < 1 or t < 1:
                    raise MalformedCertificate("side ids start at 1")
                pairs.append((s, t))
            elif head == "edge" and len(tokens) == 3 and alphabet is not None:
                label = letters.get(tokens[2])
                if label is None:
                    word = Word.parse(alphabet, tokens[2])
                    if word.letter_length != 1:
                        raise MalformedCertificate(
                            f"edge label must be a single letter, got {tokens[2]!r}")
                    label = letters[tokens[2]] = word.to_letters()[0]
                side = side_id(tokens[1])
                if side < 1:
                    raise MalformedCertificate("side ids start at 1")
                if side in labels:
                    raise MalformedCertificate("the side is declared twice")
                labels[side] = label
            elif head.startswith("#"):
                continue
            elif head in ("edge", "claim") and alphabet is None:
                raise MalformedCertificate(f"{head} line before the alphabet line")
            elif head == "alphabet":
                if alphabet is not None:
                    raise MalformedCertificate("a second alphabet line")
                alphabet = Alphabet(int(fields_after(tokens, 1)[0]))
            elif head in ("edge", "pair"):
                fields_after(tokens, 2)  # raises: the field count is wrong
            elif head in cycles:
                refs = list(map(side_id, tokens[1:]))
                if 0 in refs:
                    raise MalformedCertificate("side ids start at 1")
                cycles[head].append(refs)
            elif head == "claim":
                tokens = split_fields(line)
                kind = tokens[1] if len(tokens) > 1 else None
                count = {"equality": 1, "conjugacy": 2, "punctured": len(tokens) - 2}.get(kind)
                if count is None:
                    raise MalformedCertificate(f"unknown claim kind {kind!r}")
                claim = tuple(Word.parse(alphabet, t) for t in fields_after(tokens[1:], count))
                if kind == "conjugacy":  # u ~ v: the boundaries read u and v^-1
                    claim = (claim[0], invert(claim[1]))
            else:
                raise MalformedCertificate("unrecognized line")
        except (RelfreeError, ValueError) as exc:
            raise MalformedCertificate(
                f"{path}:{lineno}: cannot read {line.strip()!r}: {exc}") from exc
    if alphabet is None or claim is None:
        raise MalformedCertificate(f"{path}: a certificate needs an alphabet and a claim")
    return DiagramCertificate(alphabet, labels, cycles["face"], cycles["boundary"], pairs, claim)


def _side_id(token: str) -> int:
    """``int(token)`` if it is ASCII digits after an optional ``-``, else refused."""
    if not _is_decimal(token.removeprefix("-")):
        int(token)  # int's own message, where it fails
        raise MalformedCertificate(f"a side id is ASCII decimal digits, got {token!r}")
    return int(token)
