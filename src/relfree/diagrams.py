"""Verification of diagram certificates on a disk, annulus, or punctured sphere.

A certificate lists labeled directed sides, cycles (faces and at most three
distinguished boundary cycles), a gluing that pairs sides, and a claim.  The
model and its conventions:

- every declared side occurs exactly once, with a sign, across all cycles;
- all cycles, boundary cycles included, are read with the surface on the
  same side, so a gluing between two face sides or two boundary sides
  traverses the shared edge in opposite directions (as-referenced labels
  mutually inverse), while a face side glued to a boundary side runs
  parallel to it (labels equal);
- vertices are implicit: corner orbits of the side-endpoint incidences,
  computed during checking;
- accepting requires the gluing to be a fixed-point-free partial involution
  covering every face side, a connected complex with Euler characteristic
  2 - k for k boundary cycles, every face reading a cyclic shift of the
  cyclic core of a relator or of its inverse (or a freely trivial word), and
  boundary words matching the claim up to rotation.

A cyclic shift is tested one way throughout: a word a is a shift of b iff
|a| = |b| and a occurs in bb.  Faces are matched against the relator table
that Dehn rewriting uses (cyclic cores, so a face reads exactly what a
rewriting step of :func:`certify_dehn_trace` puts there); claim words are
matched as given.

Mirror-glued face pairs make a diagram unreduced; that is reported as a
warning, not a failure, since an unreduced diagram still certifies its
boundary claim.
"""

from __future__ import annotations

import copy
import itertools
import shlex
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyInput, MalformedCertificate, RelfreeError, TraceMismatch, Unsupported
from .graded import DehnStep, _RelatorTable
from .words import Alphabet, Word, _encode_letters, _is_cyclic_shift, free_reduce, invert

_MAX_BOUNDARIES = 3


@dataclass(frozen=True)
class EqualityClaim:
    word: Word


@dataclass(frozen=True)
class ConjugacyClaim:
    u: Word
    v: Word


@dataclass(frozen=True)
class PuncturedSphereClaim:
    words: tuple[Word, ...]


Claim = EqualityClaim | ConjugacyClaim | PuncturedSphereClaim


@dataclass
class DiagramCertificate:
    alphabet: Alphabet
    labels: dict[int, int]                 # side id -> signed generator
    faces: list[list[int]]                 # signed side refs
    boundaries: list[list[int]]
    pairs: list[tuple[int, int]]
    claim: Claim


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: str | None = None
    warnings: tuple[str, ...] = ()


# -- construction of the incidence structure --------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _validate_structure(cert: DiagramCertificate) -> dict[int, tuple[str, int, int]]:
    """Well-formedness that has no geometric meaning; raises MalformedCertificate.

    Returns side id -> (cycle kind, cycle index, position)."""
    occurrences: dict[int, tuple[str, int, int]] = {}
    for kind, cycles in (("face", cert.faces), ("boundary", cert.boundaries)):
        for ci, cycle in enumerate(cycles):
            if not cycle:
                raise MalformedCertificate(f"{kind} {ci} is an empty cycle")
            for pos, ref in enumerate(cycle):
                side = abs(ref)
                if ref == 0 or side not in cert.labels:
                    raise MalformedCertificate(f"{kind} {ci} references unknown side {ref}")
                if side in occurrences:
                    raise MalformedCertificate(f"side {side} referenced more than once")
                occurrences[side] = (kind, ci, pos)
    for side in cert.labels:
        if side not in occurrences:
            raise MalformedCertificate(f"side {side} is declared but dangling")
    for s, t in cert.pairs:
        if s not in cert.labels or t not in cert.labels:
            raise MalformedCertificate(f"pairing ({s}, {t}) references unknown sides")
        if s == t:
            raise MalformedCertificate(f"side {s} glued to itself")
    for w in _claim_words(cert.claim):
        if w.alphabet != cert.alphabet:
            raise MalformedCertificate("claim words use a different alphabet")
    return occurrences


def _claim_words(claim: Claim) -> list[Word]:
    if isinstance(claim, EqualityClaim):
        return [claim.word]
    if isinstance(claim, ConjugacyClaim):
        return [claim.u, claim.v]
    return list(claim.words)


def _as_read(cert: DiagramCertificate, ref: int) -> int:
    label = cert.labels[abs(ref)]
    return label if ref > 0 else -label


def _cycle_word(cert: DiagramCertificate, cycle: list[int]) -> list[int]:
    return [_as_read(cert, ref) for ref in cycle]


# -- the checker -------------------------------------------------------------


def check_certificate(cert: DiagramCertificate, relators: list[Word]) -> CheckResult:
    """ACCEPT iff the complex is a genuine k-punctured sphere whose faces read
    relators and whose boundary matches the claim; REJECT names the first
    violated condition."""
    occurrences = _validate_structure(cert)
    k = len(cert.boundaries)
    if k < 1:
        return CheckResult(False, "no boundary cycle")
    if k > _MAX_BOUNDARIES:
        raise Unsupported(f"{k} boundary cycles; at most {_MAX_BOUNDARIES} supported")

    # gluing must be a partial involution without reuse
    seen: dict[int, int] = {}
    for s, t in cert.pairs:
        for side in (s, t):
            seen[side] = seen.get(side, 0) + 1
            if seen[side] > 1:
                return CheckResult(False, f"side {side} glued more than once")

    # label compatibility, per slot kinds
    paired = set(seen)
    for s, t in cert.pairs:
        kind_s, kind_t = occurrences[s][0], occurrences[t][0]
        ref_s = _signed_ref(cert, occurrences, s)
        ref_t = _signed_ref(cert, occurrences, t)
        read_s, read_t = _as_read(cert, ref_s), _as_read(cert, ref_t)
        if kind_s == kind_t:  # face-face or boundary-boundary: anti-parallel
            if read_s != -read_t:
                return CheckResult(
                    False, f"glued sides {s},{t} do not carry inverse labels")
        else:  # face-boundary: parallel
            if read_s != read_t:
                return CheckResult(
                    False, f"boundary side of {s},{t} does not repeat the face label")

    # corner orbits -> vertices
    uf = _UnionFind()
    for kind, cycles in (("face", cert.faces), ("boundary", cert.boundaries)):
        for cycle in cycles:
            for pos, ref in enumerate(cycle):
                nxt = cycle[(pos + 1) % len(cycle)]
                uf.union(_end_corner(ref), _start_corner(nxt))
    for s, t in cert.pairs:
        kind_s, kind_t = occurrences[s][0], occurrences[t][0]
        ref_s = _signed_ref(cert, occurrences, s)
        ref_t = _signed_ref(cert, occurrences, t)
        if kind_s == kind_t:  # anti-parallel traversal
            uf.union(_start_corner(ref_s), _end_corner(ref_t))
            uf.union(_end_corner(ref_s), _start_corner(ref_t))
        else:                 # parallel traversal
            uf.union(_start_corner(ref_s), _start_corner(ref_t))
            uf.union(_end_corner(ref_s), _end_corner(ref_t))

    vertices = {uf.find(("tail", side)) for side in cert.labels}
    vertices |= {uf.find(("head", side)) for side in cert.labels}
    v_count = len(vertices)
    e_count = len(cert.pairs) + sum(1 for side in cert.labels if side not in paired)
    f_count = len(cert.faces)

    # connectivity of the side graph (through gluings and shared corners)
    comp = _UnionFind()
    for side in cert.labels:
        comp.union(("side", side), uf.find(("tail", side)))
        comp.union(("side", side), uf.find(("head", side)))
    roots = {comp.find(("side", side)) for side in cert.labels}
    if len(roots) > 1:
        return CheckResult(False, "diagram is disconnected")

    euler = v_count - e_count + f_count
    if euler != 2 - k:
        return CheckResult(
            False, f"Euler characteristic {euler} differs from 2-k = {2 - k}")

    # a side glued to nothing would be an edge with the surface on neither side
    unmatched = [side for side in occurrences if side not in paired]
    if unmatched:
        return CheckResult(False, f"side {unmatched[0]} is not glued")

    # faces must read relator shifts (or freely trivial boundary words)
    table = _RelatorTable(relators) if relators and cert.faces else None
    for ci, cycle in enumerate(cert.faces):
        letters = _cycle_word(cert, cycle)
        if table is not None and table.reads_relator(letters):
            continue
        if free_reduce(cert.alphabet, letters).is_empty:
            continue
        return CheckResult(False, f"face {ci} does not read a relator shift")

    warnings = tuple(_reducedness_warnings(cert, occurrences))

    reason = _claim_mismatch(cert)
    if reason is not None:
        return CheckResult(False, reason, warnings)
    return CheckResult(True, None, warnings)


def _signed_ref(cert: DiagramCertificate, occurrences, side: int) -> int:
    kind, ci, pos = occurrences[side]
    cycle = cert.faces[ci] if kind == "face" else cert.boundaries[ci]
    return cycle[pos]


def _start_corner(ref: int):
    return ("tail", abs(ref)) if ref > 0 else ("head", abs(ref))


def _end_corner(ref: int):
    return ("head", abs(ref)) if ref > 0 else ("tail", abs(ref))


def _reducedness_warnings(cert: DiagramCertificate, occurrences) -> list[str]:
    warnings = []
    for s, t in cert.pairs:
        kind_s, ci_s, pos_s = occurrences[s]
        kind_t, ci_t, pos_t = occurrences[t]
        if kind_s != "face" or kind_t != "face":
            continue
        w1 = _cycle_word(cert, _rotate(cert.faces[ci_s], pos_s))
        w2 = _cycle_word(cert, _rotate(cert.faces[ci_t], pos_t))
        mirrored = [-g for g in reversed(w1)]
        mirrored = mirrored[-1:] + mirrored[:-1]
        if w2 == mirrored:
            warnings.append(
                f"faces {ci_s} and {ci_t} are mirror-glued along {s},{t} (diagram unreduced)")
    return warnings


def _rotate(cycle: list[int], pos: int) -> list[int]:
    return cycle[pos:] + cycle[:pos]


def _doubled(w: Word) -> str:
    enc = _encode_letters(w.to_letters())
    return enc + enc


def _claim_mismatch(cert: DiagramCertificate) -> str | None:
    k = len(cert.boundaries)
    read = [_encode_letters(_cycle_word(cert, b)) for b in cert.boundaries]
    claim = cert.claim
    if isinstance(claim, EqualityClaim):
        if k != 1:
            return f"equality claim needs one boundary cycle, found {k}"
        if claim.word.is_empty:
            return "the empty word needs no certificate"
        if not _is_cyclic_shift(read[0], _doubled(claim.word)):
            return "boundary does not read the claimed word"
        return None
    if isinstance(claim, ConjugacyClaim):
        if k != 2:
            return f"conjugacy claim needs two boundary cycles, found {k}"
        if _match_boundaries(read, [_doubled(claim.u), _doubled(invert(claim.v))]) is None:
            return "boundaries do not read the claimed word and inverse word"
        return None
    if len(claim.words) != k:
        return f"claim lists {len(claim.words)} boundary words, diagram has {k}"
    if _match_boundaries(read, [_doubled(w) for w in claim.words]) is None:
        return "boundary words do not match the claimed tuple"
    return None


def _match_boundaries(read: list[str], wanted: list[str]):
    """A permutation sending each boundary reading to a claim word it shifts."""
    for perm in itertools.permutations(range(len(wanted))):
        if all(_is_cyclic_shift(read[i], wanted[perm[i]]) for i in range(len(wanted))):
            return perm
    return None


# -- building certificates from rewriting traces ------------------------------


def certify_dehn_trace(w: Word, relators: list[Word],
                       trace: Iterable[DehnStep]) -> DiagramCertificate:
    """Disk certificate with one face per rewriting step.

    Replays the trace with the same deterministic splice-and-fold pass as the
    rewriter; any divergence (wrong letters under a match, leftover boundary)
    raises :class:`~relfree.errors.TraceMismatch`.
    """
    if w.is_empty:
        raise EmptyInput("nothing to certify for the empty word")
    table = _RelatorTable(relators)
    by_key = {}
    for idx, sign, ls, _enc in table.entries:
        by_key[(idx, sign)] = ls

    labels: dict[int, int] = {}
    faces: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    next_id = 1

    def new_side(label: int) -> int:
        nonlocal next_id
        labels[next_id] = label
        next_id += 1
        return next_id - 1

    boundary_sides = [new_side(g) for g in w.to_letters()]
    boundary = [side for side in boundary_sides]
    frontier: list[tuple[int, int]] = [(side, 1) for side in boundary_sides]

    def reading(entry: tuple[int, int]) -> int:
        side, sign = entry
        return labels[side] if sign > 0 else -labels[side]

    for step in trace:
        key = (step.relator_index, step.sign)
        if key not in by_key:
            raise TraceMismatch(f"step references unknown relator variant {key}")
        ls = by_key[key]
        rlen = len(ls)
        if not (0 < step.matched <= rlen) or not (0 <= step.offset < rlen):
            raise TraceMismatch("step indices out of range")
        rotated = (ls + ls)[step.offset:step.offset + rlen]
        p_letters = rotated[:step.matched]
        q_letters = rotated[step.matched:]
        if step.pos < 0 or step.pos + step.matched > len(frontier):
            raise TraceMismatch("step window exceeds the current word")
        window = frontier[step.pos:step.pos + step.matched]
        if tuple(reading(entry) for entry in window) != tuple(p_letters):
            raise TraceMismatch("current word does not match the recorded prefix")

        face: list[int] = []
        for entry, letter in zip(window, p_letters):
            side = new_side(letter)
            face.append(side)
            pairs.append((side, entry[0]))
        q_sides = [new_side(letter) for letter in q_letters]
        face.extend(q_sides)
        faces.append(face)

        exposed = [(side, -1) for side in reversed(q_sides)]
        stack = frontier[:step.pos]
        for entry in exposed + frontier[step.pos + step.matched:]:
            if stack and reading(stack[-1]) == -reading(entry):
                top = stack.pop()
                pairs.append((top[0], entry[0]))
            else:
                stack.append(entry)
        frontier = stack

    if frontier:
        raise TraceMismatch(f"{len(frontier)} letters left after replaying the trace")
    return DiagramCertificate(
        alphabet=w.alphabet,
        labels=labels,
        faces=faces,
        boundaries=[boundary],
        pairs=pairs,
        claim=EqualityClaim(w),
    )


# -- soundness fuzzing --------------------------------------------------------


def random_corruption(cert: DiagramCertificate, rng) -> DiagramCertificate:
    """One structural perturbation guaranteed to break a valid certificate:
    a label flipped, a gluing dropped or retargeted, or a reference sign
    flipped.  Used for soundness fuzzing of the checker."""
    out = copy.deepcopy(cert)
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
        claim = cert.claim
        if isinstance(claim, EqualityClaim):
            fh.write(f"claim equality {shlex.quote(str(claim.word))}\n")
        elif isinstance(claim, ConjugacyClaim):
            fh.write(f"claim conjugacy {shlex.quote(str(claim.u))} "
                     f"{shlex.quote(str(claim.v))}\n")
        else:
            fh.write("claim punctured "
                     + " ".join(shlex.quote(str(w)) for w in claim.words) + "\n")


def _fields(tokens: list[str], count: int) -> list[str]:
    """The ``count`` fields after the head of a certificate line."""
    if len(tokens) != count + 1:
        raise MalformedCertificate(f"{tokens[0]} takes {count} field(s), got {len(tokens) - 1}")
    return tokens[1:]


def load_certificate(path) -> DiagramCertificate:
    """Parse the text format written by :func:`save_certificate`.

    A line that cannot be read raises :class:`MalformedCertificate` naming
    the file and line."""
    alphabet = None
    labels: dict[int, int] = {}
    faces: list[list[int]] = []
    boundaries: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    claim: Claim | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                tokens = shlex.split(line)
                head = tokens[0]
                if head in ("edge", "claim") and alphabet is None:
                    raise MalformedCertificate(f"{head} line before the alphabet line")
                if head == "alphabet":
                    alphabet = Alphabet(int(_fields(tokens, 1)[0]))
                elif head == "edge":
                    side, token = _fields(tokens, 2)
                    word = Word.parse(alphabet, token)
                    if word.letter_length != 1:
                        raise MalformedCertificate(
                            f"edge label must be a single letter, got {token!r}")
                    labels[int(side)] = word.to_letters()[0]
                elif head == "pair":
                    s, t = _fields(tokens, 2)
                    pairs.append((int(s), int(t)))
                elif head == "face":
                    faces.append([int(t) for t in tokens[1:]])
                elif head == "boundary":
                    boundaries.append([int(t) for t in tokens[1:]])
                elif head == "claim":
                    kind = tokens[1] if len(tokens) > 1 else None
                    if kind == "equality":
                        claim = EqualityClaim(Word.parse(alphabet, _fields(tokens[1:], 1)[0]))
                    elif kind == "conjugacy":
                        u, v = _fields(tokens[1:], 2)
                        claim = ConjugacyClaim(Word.parse(alphabet, u), Word.parse(alphabet, v))
                    elif kind == "punctured":
                        claim = PuncturedSphereClaim(
                            tuple(Word.parse(alphabet, t) for t in tokens[2:]))
                    else:
                        raise MalformedCertificate(f"unknown claim kind {kind!r}")
                else:
                    raise MalformedCertificate("unrecognized line")
            except (RelfreeError, ValueError) as exc:
                raise MalformedCertificate(
                    f"{path}:{lineno}: cannot read {line!r}: {exc}") from exc
    if alphabet is None or claim is None:
        raise MalformedCertificate(f"{path}: a certificate needs an alphabet and a claim")
    return DiagramCertificate(alphabet, labels, faces, boundaries, pairs, claim)
