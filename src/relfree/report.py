"""The acceptance suite as a library: ten criteria, each with an independent
oracle where one is called for, runnable from the test suite and from the
command line with identical results.

The naive reference implementations below are deliberately primitive (letter
stacks, shift enumeration, divisor scans); they exist to disagree with the
production code if it ever drifts, so they must never share its internals.
"""

from __future__ import annotations

import functools
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from . import diagrams, endo, graded, ledger
from .errors import RelfreeError
from .verbal import ParamSet, make_w1, make_w2, w1_exponents, w2_exponents
from .words import (
    Alphabet,
    Word,
    canonical_cyclic,
    concat_all,
    conjugate,
    conjugate_in_free,
    exponent_sum,
    free_reduce,
    power,
    primitive_root,
)


@dataclass(frozen=True)
class CriterionResult:
    id: str
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.id} {self.name}: {status} ({self.detail}; {self.seconds:.2f}s)"


# -- naive reference oracles --------------------------------------------------


def naive_reduce(letters) -> list[int]:
    out: list[int] = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


def naive_cyclic_core(letters) -> list[int]:
    ls = naive_reduce(letters)
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        ls = ls[1:-1]
    return ls


def naive_conjugacy_key(letters) -> tuple:
    core = naive_cyclic_core(letters)
    if not core:
        return ()
    keys = [(abs(g), g < 0) for g in core]  # a1 < a1^-1 < a2 < ...
    k = min(range(len(core)), key=lambda k: keys[k:] + keys[:k])
    return tuple(core[k:] + core[:k])


def naive_conjugate(a, b) -> bool:
    return naive_conjugacy_key(a) == naive_conjugacy_key(b)


def naive_primitive_root(letters) -> tuple[tuple, int]:
    n = len(letters)
    for ell in range(1, n + 1):
        if n % ell:
            continue
        cand = tuple(letters[:ell])
        if tuple(letters) == cand * (n // ell):
            return cand, n // ell
    raise AssertionError("unreachable for nonempty input")


# -- the ten criteria ----------------------------------------------------------


@functools.cache
def _solved_ledger():
    """The packaged catalog, its solved assignment and that assignment's
    report: deterministic and frozen, so C04 and C08 share one solve per
    process."""
    cat = ledger.load_default_catalog()
    assign = ledger.solve(cat)
    return cat, assign, ledger.verify(assign, cat)


def criterion_zero_exponent_sums():
    ab = Alphabet(2)
    x, y = Word.generator(ab, 1), Word.generator(ab, 2)
    checked = []
    for h, d, n in ((20, 2, 3), (40, 3, 5)):
        p = ParamSet(h, d, n)
        for w in (make_w1(x, y, p), make_w2(x, y, p)):
            checked.extend([exponent_sum(w, 1), exponent_sum(w, 2)])
    return all(s == 0 for s in checked), f"8 sums, all zero: {checked}"


_KERNEL_GRID = [ParamSet(h, d, n) for h in (20, 40) for d in (2, 3) for n in (3, 5, 40)]
_W2_GRID = [ParamSet(20, 2, 3), ParamSet(40, 2, 5), ParamSet(40, 3, 5)]


def _grid_failures(grid, holds):
    """Pass iff ``holds(p)`` for every triple of ``grid``; the detail names the failures."""
    failures = [(p.h, p.d, p.n) for p in grid if not holds(p)]
    return not failures, f"{len(grid)} parameter triples, failures: {failures}"


def criterion_kernel_identity():
    # the verdict is indexed at once, so no w1 or w2 outlives its triple
    return _grid_failures(_KERNEL_GRID, lambda p: endo.kernel_witness(p)[1])


def criterion_surjectivity_identity():
    return _grid_failures(_W2_GRID, lambda p: endo.surjectivity_witness(p)[1])


def criterion_length_bound():
    bad = []
    for p in _KERNEL_GRID:
        u = endo.kernel_word(p)
        if not u.letter_length < (p.n + p.h) * p.h:
            bad.append((p.h, p.d, p.n))
    _, _, rep = _solved_ledger()
    t3 = next(r for r in rep.item_results if r.id == "L12_T3")
    ok = not bad and t3.passed
    return ok, f"toy bound failures: {bad}; ledger T3 holds: {t3.passed}"


def criterion_oracle_equivalence(seed: int = 0):
    ab = Alphabet(2)
    letters_pool = [1, -1, 2, -2]

    # exhaustive: every raw letter sequence of length <= 6
    seqs = [[]]
    all_seqs = [[]]
    for _ in range(6):
        seqs = [s + [g] for s in seqs for g in letters_pool]
        all_seqs.extend(seqs)
    for seq in all_seqs:
        if free_reduce(ab, seq).to_letters() != naive_reduce(seq):
            return False, f"reduction mismatch on {seq}"

    reduced = {tuple(naive_reduce(s)) for s in all_seqs}
    lib_classes: dict = {}
    naive_classes: dict = {}
    for ls in reduced:
        w = free_reduce(ab, ls)
        lib_classes.setdefault(canonical_cyclic(w), set()).add(ls)
        naive_classes.setdefault(naive_conjugacy_key(ls), set()).add(ls)
    if (set(map(frozenset, lib_classes.values()))
            != set(map(frozenset, naive_classes.values()))):
        return False, "conjugacy partitions differ on words of length <= 6"

    for ls in reduced:
        core = naive_cyclic_core(list(ls))
        if not core:
            continue
        root, k = primitive_root(free_reduce(ab, core))
        nroot, nk = naive_primitive_root(core)
        if (tuple(root.to_letters()), k) != (nroot, nk):
            return False, f"primitive root mismatch on {core}"

    rng = random.Random(seed)
    for i in range(10_000):
        seq = [rng.choice(letters_pool) for _ in range(rng.randint(0, 12))]
        w = free_reduce(ab, seq)
        if w.to_letters() != naive_reduce(seq):
            return False, f"reduction mismatch on random case {i}"
        other = [rng.choice(letters_pool) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.5:
            conj = [rng.choice(letters_pool) for _ in range(rng.randint(0, 4))]
            other = conj + seq + [-g for g in reversed(conj)]
        v = free_reduce(ab, other)
        if conjugate_in_free(w, v) != naive_conjugate(seq, other):
            return False, f"conjugacy mismatch on random case {i}"
        core = naive_cyclic_core(seq)
        if core:
            root, k = primitive_root(free_reduce(ab, core))
            if (tuple(root.to_letters()), k) != naive_primitive_root(core):
                return False, f"primitive root mismatch on random case {i}"
    return True, "exhaustive to length 6 plus 10^4 random words, 100% agreement"


def criterion_periods():
    ab = Alphabet(2)
    p = ParamSet(20, 2, 3)
    pres = graded.GradedPresentation(alphabet=ab, params=p)
    x1 = graded.periods_rank(pres, 1)
    x2 = graded.periods_rank(pres, 2)
    want1 = {Word.parse(ab, "a1"), Word.parse(ab, "a2")}
    want2 = {Word.parse(ab, "a1 a2"), Word.parse(ab, "a1 a2^-1")}
    ok = set(x1) == want1 and set(x2) == want2
    return ok, f"X1 = {sorted(map(str, x1))}, X2 = {sorted(map(str, x2))}"


def criterion_relators():
    ab = Alphabet(2)
    p = ParamSet(20, 2, 3)
    pres = graded.GradedPresentation(alphabet=ab, params=p)
    for z_star in (1, 2):
        graded.classify_pairs(pres, z_star, 1)
    with tempfile.TemporaryDirectory() as tmp:
        graded.save_presentation(pres, f"{tmp}/presentation.txt")
        # the load refuses a relator whose A^f is not v_z*(X, U): raises on failure
        loaded = graded.load_presentation(f"{tmp}/presentation.txt").all_relators()
    if loaded != pres.all_relators():  # equal records have equal templates
        return False, "the presentation file reads back other relators"
    return True, f"{len(loaded)} relators round-tripped with verified witnesses"


def criterion_ledger():
    cat, assign, rep = _solved_ledger()
    if not rep.passed:
        return False, f"solved assignment fails {rep.failed_ids()}"

    # Lemma 12 anchor: pushing alpha close enough to 1 must break exactly
    # that item (alpha appears nowhere else in the catalog)
    h, d, n = assign.h, assign.d, assign.n
    slack = Fraction((n + h) * h, 2 * (h - 1) * n * d)
    near_one = ledger.LppAssignment(**{**assign.values(), "alpha": 1 - slack})
    rep_alpha = ledger.verify(near_one, cat)
    if rep_alpha.failed_ids() != ["L12_T3"]:
        return False, f"alpha corruption failed {rep_alpha.failed_ids()}"

    # Lemma 1 anchor: a small-n assignment against the item itself
    single = ledger.InequalityCatalog(
        tuple(item for item in cat.items if item.id == "L1_f_bound"))
    bad_n = ledger.LppAssignment(
        alpha=Fraction(1, 2), beta=Fraction(1, 4), gamma=Fraction(1, 8),
        delta=Fraction(1, 20), eps=Fraction(1, 40), zeta=Fraction(1, 160),
        eta=Fraction(1, 200), iota=Fraction(1, 201))
    rep_n = ledger.verify(bad_n, single)
    if rep_n.failed_ids() != ["L1_f_bound"]:
        return False, f"n corruption failed {rep_n.failed_ids()}"
    return True, (f"solved h={assign.h} d={assign.d} n~10^{len(str(assign.n)) - 1}; "
                  "both corruptions fail exactly their anchored items")


def criterion_dehn_certificates(seed: int = 0):
    ab = Alphabet(4)
    relator = Word.parse(ab, "a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1")
    rng = random.Random(seed)
    letters_pool = [s * g for g in range(1, 5) for s in (1, -1)]

    def random_identity_word() -> Word:
        while True:
            parts = []
            for _ in range(rng.randint(1, 3)):
                g = free_reduce(ab, [rng.choice(letters_pool)
                                     for _ in range(rng.randint(0, 2))])
                parts.append(conjugate(power(relator, rng.choice([1, -1])), g))
            w = concat_all(parts)
            if not w.is_empty:
                return w

    table = graded._RelatorTable([relator])  # one table for every word
    certs = []
    for i in range(100):
        w = random_identity_word()
        res = graded.dehn_reduce_trace(w, table)
        if not res.word.is_empty or res.exhausted:
            return False, f"identity word {i} did not reduce to empty"
        cert = diagrams.certify_dehn_trace(w, table, res.steps)
        out = diagrams.check_certificate(cert, table)
        if not out.accepted:
            return False, f"emitted certificate {i} rejected: {out.reason}"
        certs.append(cert)

    rejected = 0
    for i in range(100):
        bad = diagrams.random_corruption(certs[i % len(certs)], rng)
        try:
            out = diagrams.check_certificate(bad, table)
            if out.accepted:
                return False, f"corruption {i} was accepted"
        except RelfreeError:
            pass
        rejected += 1
    return True, "100 identity words certified, 100 corruptions rejected"


def criterion_exponent_schedules(seed: int = 0):
    rng = random.Random(seed)
    for case in range(20):
        h = 20 * rng.randint(1, 10)
        n = rng.randint(1, 10_000)
        f = rng.choice([1, -1]) * rng.randint(1, 50)
        p = ParamSet(h, 2, n)
        s1 = sum(w1_exponents(h, n)) * f
        if s1 != 0:
            return False, f"case {case}: first schedule sums to {s1}"
        s2 = sum(w2_exponents(h, n)) * f
        want = f * (h * n * n + h * (h + 1) // 2)
        if s2 != want:
            return False, f"case {case}: second schedule sums to {s2}, want {want}"
    # cross-check once against a concretely built relator
    ab = Alphabet(2)
    a1, a2 = Word.generator(ab, 1), Word.generator(ab, 2)
    p = ParamSet(20, 2, 3)
    rec = graded.build_relator(2, a2, 2, a1, a1, p)
    if exponent_sum(rec.relator, 2) != 2 * (20 * 9 + 210):
        return False, "built relator disagrees with the closed form"
    return True, "20 random (h, n, f) tuples match the closed forms"


CRITERIA = (
    ("C01", "zero-exponent-sums", criterion_zero_exponent_sums, False),
    ("C02", "kernel-identity", criterion_kernel_identity, False),
    ("C03", "surjectivity-identity", criterion_surjectivity_identity, False),
    ("C04", "kernel-length-bound", criterion_length_bound, False),
    ("C05", "oracle-equivalence", criterion_oracle_equivalence, True),
    ("C06", "rank-1-2-periods", criterion_periods, False),
    ("C07", "relator-roundtrip-witness", criterion_relators, False),
    ("C08", "lpp-ledger", criterion_ledger, False),
    ("C09", "dehn-certificate-soundness", criterion_dehn_certificates, True),
    ("C10", "exponent-schedules", criterion_exponent_schedules, True),
)


def run_criterion(cid: str, seed: int = 0) -> CriterionResult:
    for id_, name, fn, seeded in CRITERIA:
        if id_ == cid:
            t0 = time.perf_counter()
            passed, detail = fn(seed) if seeded else fn()
            return CriterionResult(id_, name, passed, detail, time.perf_counter() - t0)
    raise KeyError(cid)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [run_criterion(cid, seed) for cid, _, _, _ in CRITERIA]
