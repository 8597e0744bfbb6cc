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
- vertices are implicit: classes of cycle junctions (junction p of a cycle is
  the corner after its p-th reference) joined by the gluing, computed while checking;
- accepting requires the gluing to be a fixed-point-free partial involution
  covering every face side, a connected complex with Euler characteristic
  2 - k for k boundary cycles, every face reading a cyclic shift of the
  cyclic core of a relator or of its inverse (or a freely trivial word), and
  boundary words matching the claim up to rotation.

A cyclic shift is tested one way throughout: a word a is a shift of b iff
|a| = |b| and a occurs in bb.  Faces are matched against the relator table
that Dehn rewriting uses (cyclic cores, so a face reads exactly what a
rewriting step of :func:`certify_dehn_trace` puts there); claim words are
matched as given.  The table encodes an entry on first use, so a check
encodes only the entries as long as some face, and a certificate build only
the entries its trace names.

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
    open_text,
    split_fields,
)
from .graded import DehnStep, _RelatorTable
from .words import (
    Alphabet,
    Word,
    _decode_letters,
    _encode_letters,
    _encode_word,
    _is_cyclic_shift,
    free_reduce,
    invert,
)

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


def _validate_structure(cert: DiagramCertificate) -> dict[int, tuple[str, int, int, int]]:
    """Well-formedness that has no geometric meaning; raises MalformedCertificate.

    Returns side id -> (cycle kind, cycle index, position, signed ref)."""
    occurrences: dict[int, tuple[str, int, int, int]] = {}
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
                occurrences[side] = (kind, ci, pos, ref)
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


# -- the checker -------------------------------------------------------------


def check_certificate(cert: DiagramCertificate, relators: list[Word],
                      _table: _RelatorTable | None = None) -> CheckResult:
    """ACCEPT iff the complex is a genuine k-punctured sphere whose faces read
    relators and whose boundary matches the claim; REJECT names the first
    violated condition.  ``_table``, when given, is the relator table of
    ``relators``, built once by a caller that checks many certificates.

    A side glued to nothing needs no test: every corner meets at most two
    others, so a connected complex with its k boundary cycles capped is a
    connected surface.  A free side makes it one with boundary, whose Euler
    characteristic V - E + F + k is at most 1, not 2."""
    occurrences = _validate_structure(cert)
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
    cycles = cert.faces + cert.boundaries
    first = [0, *itertools.accumulate(map(len, cycles))]
    n, f_count = first[-1], len(cert.faces)
    parent = list(range(n + len(cycles)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for s, t in cert.pairs:
        kind_s, ci_s, pos_s, ref_s = occurrences[s]
        kind_t, ci_t, pos_t, ref_t = occurrences[t]
        read_s, read_t = _as_read(cert, ref_s), _as_read(cert, ref_t)
        c_s = ci_s if kind_s == "face" else f_count + ci_s
        c_t = ci_t if kind_t == "face" else f_count + ci_t
        end_s, end_t = first[c_s] + pos_s, first[c_t] + pos_t
        start_s = end_s - 1 if pos_s else first[c_s + 1] - 1
        start_t = end_t - 1 if pos_t else first[c_t + 1] - 1
        if kind_s == kind_t:  # face-face or boundary-boundary: anti-parallel
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
    table = (_table or _RelatorTable(relators)) if relators and cert.faces else None
    for ci, cycle in enumerate(cert.faces):
        letters = [_as_read(cert, ref) for ref in cycle]
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


def _reducedness_warnings(cert: DiagramCertificate, occurrences) -> list[str]:
    # Face t read forward from t is face s read backward from s and inverted
    # iff read(t_i) = -read(s_(pos_s + pos_t - i)) for every i, so one test
    # serves each alignment (face s, face t, pos_s + pos_t mod |face s|).
    # One warning names each pair of faces, however many sides they share.
    warnings = []
    warned: set[tuple[int, int]] = set()
    mirrors: dict[tuple[int, int, int], bool] = {}
    for s, t in cert.pairs:
        kind_s, ci_s, pos_s, _ = occurrences[s]
        kind_t, ci_t, pos_t, _ = occurrences[t]
        faces = (min(ci_s, ci_t), max(ci_s, ci_t))
        if kind_s != "face" or kind_t != "face" or faces in warned:
            continue
        face_s, face_t = cert.faces[ci_s], cert.faces[ci_t]
        n = len(face_s)
        key = (ci_s, ci_t, (pos_s + pos_t) % n)
        if key not in mirrors:
            mirrors[key] = len(face_t) == n and all(
                _as_read(cert, face_t[i]) == -_as_read(cert, face_s[(key[2] - i) % n])
                for i in range(n))
        if mirrors[key]:
            warned.add(faces)
            warnings.append(
                f"faces {faces[0]} and {faces[1]} are mirror-glued (diagram unreduced)")
    return warnings


def _doubled(w: Word) -> str:
    enc = _encode_word(w)
    return enc + enc


def _claim_mismatch(cert: DiagramCertificate) -> str | None:
    k = len(cert.boundaries)
    read = [_encode_letters([_as_read(cert, ref) for ref in b]) for b in cert.boundaries]
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


def certify_dehn_trace(w: Word, relators: list[Word], trace: Iterable[DehnStep],
                       _table: _RelatorTable | None = None) -> DiagramCertificate:
    """Disk certificate with one face per rewriting step.

    Replays the trace, splicing each step in and folding the cancelled
    letters into glued pairs in one left-to-right pass, which leaves the same
    reduced word as the rewriter; any divergence (wrong letters under a
    match, leftover boundary) raises :class:`~relfree.errors.TraceMismatch`.
    ``_table`` is as in :func:`check_certificate`.
    """
    if w.is_empty:
        raise EmptyInput("nothing to certify for the empty word")
    table = _table or _RelatorTable(relators)

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
        if key not in table.keys:
            raise TraceMismatch(f"step references unknown relator variant {key}")
        k = table.keys[key]
        rlen = table.lengths[k]
        if not (0 < step.matched <= rlen) or not (0 <= step.offset < rlen):
            raise TraceMismatch("step indices out of range")
        rotated = _decode_letters(table.doubled(k)[step.offset:step.offset + rlen])
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


def _ints(tokens: list[str], linenos: list[int], refusals: list) -> list[int]:
    """``tokens`` as integers up to the first ``int`` refuses, whose line goes to ``refusals``."""
    try:
        return list(map(int, tokens))
    except ValueError:
        for i, token in enumerate(tokens):
            try:
                int(token)
            except ValueError as exc:
                refusals.append((linenos[i], exc))
                return list(map(int, tokens[:i]))
        raise


def load_certificate(path) -> DiagramCertificate:
    """Parse the text format written by :func:`save_certificate`.

    Each line is split once on whitespace; only ``claim`` lines, whose words
    :func:`save_certificate` quotes, go through :func:`errors.split_fields`,
    so a quoted field on any other line is an error.  ``edge`` and ``pair``
    fields are converted in bulk after the loop, each distinct label parsed
    once.  The first line that cannot be read, or that declares a side or
    the alphabet again, raises :class:`MalformedCertificate` naming the
    file and line."""
    alphabet = None
    # the fields of edge and pair lines and their line numbers
    sides, tokens_of, edge_lines, firsts, seconds, pair_lines = [], [], [], [], [], []
    cycles: dict[str, list[list[int]]] = {"face": [], "boundary": []}
    claim: Claim | None = None
    refusals: list[tuple[int, Exception]] = []  # (line number, error)
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "edge" and len(tokens) == 3 and alphabet is not None:
            sides.append(tokens[1])
            tokens_of.append(tokens[2])
            edge_lines.append(lineno)
        elif head == "pair" and len(tokens) == 3:
            firsts.append(tokens[1])
            seconds.append(tokens[2])
            pair_lines.append(lineno)
        elif not head.startswith("#"):
            try:
                if head in ("edge", "claim") and alphabet is None:
                    raise MalformedCertificate(f"{head} line before the alphabet line")
                if head == "alphabet":
                    if alphabet is not None:
                        raise MalformedCertificate("a second alphabet line")
                    alphabet = Alphabet(int(_fields(tokens, 1)[0]))
                elif head in ("edge", "pair"):
                    _fields(tokens, 2)  # raises: the field count is wrong
                elif head in cycles:
                    cycles[head].append(list(map(int, tokens[1:])))
                elif head == "claim":
                    tokens = split_fields(line)
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
                refusals.append((lineno, exc))
                break

    # Every edge and pair line read precedes the loop's refusal, if any; the
    # first refusal in file order is raised.
    letters: dict[str, int] = {}
    for token in dict.fromkeys(tokens_of):
        try:
            word = Word.parse(alphabet, token)
            if word.letter_length != 1:
                raise MalformedCertificate(f"edge label must be a single letter, got {token!r}")
            letters[token] = word.to_letters()[0]
        except (RelfreeError, ValueError) as exc:
            refusals.append((edge_lines[tokens_of.index(token)], exc))
            break
    side_ids = _ints(sides, edge_lines, refusals)
    labels = dict(zip(side_ids, map(letters.get, tokens_of)))
    if len(labels) < len(side_ids):
        seen: set[int] = set()
        again = next(j for j, side in enumerate(side_ids) if side in seen or seen.add(side))
        refusals.append((edge_lines[again], MalformedCertificate("the side is declared twice")))
    pairs = list(zip(_ints(firsts, pair_lines, refusals), _ints(seconds, pair_lines, refusals)))
    if refusals:
        lineno, exc = min(refusals, key=lambda refusal: refusal[0])
        raise MalformedCertificate(
            f"{path}:{lineno}: cannot read {lines[lineno - 1].strip()!r}: {exc}") from exc
    if alphabet is None or claim is None:
        raise MalformedCertificate(f"{path}: a certificate needs an alphabet and a claim")
    return DiagramCertificate(alphabet, labels, cycles["face"], cycles["boundary"], pairs, claim)
