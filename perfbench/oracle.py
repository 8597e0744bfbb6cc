"""Answer-key code for the benchmark, written apart from the package.

Nothing here imports ``relfree``.  Words are plain lists of signed letters
(``+k`` is the k-th generator, ``-k`` its inverse) and every routine is the
textbook algorithm: a letter stack for free reduction, Booth's least
rotation for canonical forms, a doubled-string search for primitivity, and
a hash-set search for the longest piece.  A job's output is accepted only
if it agrees with what these routines (or the construction of the input)
say it must be.
"""

from __future__ import annotations

import random
from fractions import Fraction

GENERATORS = 2
LETTERS = (1, -1, 2, -2)


# -- text format ---------------------------------------------------------------


def parse(text: str) -> list[int]:
    """Letters of a word in the package's text format, freely reduced."""
    out: list[int] = []
    tokens = text.split()
    if tokens == ["1"]:
        return out
    for tok in tokens:
        body, _, exp = tok.partition("^")
        g = int(body[1:])
        e = int(exp) if exp else 1
        letter = g if e > 0 else -g
        for _ in range(abs(e)):
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
    return out


def fmt(letters: list[int]) -> str:
    """Text of a freely reduced letter list: ``a1^3 a2^-1``, or ``1``."""
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        g = letters[i]
        j = i
        while j < len(letters) and letters[j] == g:
            j += 1
        e = (j - i) if g > 0 else -(j - i)
        parts.append(f"a{abs(g)}" if e == 1 else f"a{abs(g)}^{e}")
        i = j
    return " ".join(parts)


# -- free-group arithmetic --------------------------------------------------------


def reduce(letters) -> list[int]:
    out: list[int] = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


def inverse(letters: list[int]) -> list[int]:
    return [-g for g in reversed(letters)]


def conjugate(word: list[int], by: list[int]) -> list[int]:
    """by * word * by^-1, freely reduced."""
    return reduce(by + word + inverse(by))


def cyclic_core(letters: list[int]) -> list[int]:
    ls = reduce(letters)
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return ls[i:j]


def exponent_sums(letters: list[int]) -> dict[int, int]:
    sums = {g: 0 for g in range(1, GENERATORS + 1)}
    for g in letters:
        sums[abs(g)] += 1 if g > 0 else -1
    return sums


def run_sums(runs) -> dict[int, int]:
    """Exponent sums of a run-length list of ``(generator, exponent)`` pairs."""
    sums: dict[int, int] = {}
    for g, e in runs:
        sums[g] = sums.get(g, 0) + e
    return sums


def run_core_length(runs) -> int:
    """Letter length of the cyclic core of a freely reduced run list."""
    runs = list(runs)
    i, j = 0, len(runs)
    length = sum(abs(e) for _, e in runs)
    while j - i >= 2:
        g1, e1 = runs[i]
        g2, e2 = runs[j - 1]
        if g1 != g2 or (e1 > 0) == (e2 > 0):
            break
        cancel = min(abs(e1), abs(e2))
        length -= 2 * cancel
        if abs(e1) == abs(e2):
            i += 1
            j -= 1
        else:
            break
    return length


def _key(g: int) -> int:
    # letter order a1 < a1^-1 < a2 < a2^-1 < ...
    return 2 * abs(g) - (1 if g > 0 else 0)


def least_rotation(letters: list[int]) -> list[int]:
    """Least rotation in the letter order (Booth 1980), linear time."""
    s = [_key(g) for g in letters]
    n = len(s)
    if n == 0:
        return []
    ss = s + s
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = ss[j]
        i = f[j - k - 1]
        while i != -1 and sj != ss[k + i + 1]:
            if sj < ss[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != ss[k + i + 1]:
            if sj < ss[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return letters[k:] + letters[:k]


def canonical(letters: list[int]) -> list[int]:
    """Least rotation of the cyclic core: the conjugacy-class normal form."""
    return least_rotation(cyclic_core(letters))


def _encode(letters) -> str:
    return "".join(chr(0x100 + g) for g in letters)


def is_primitive(letters: list[int]) -> bool:
    """A nonempty word is a proper power iff it occurs inside its own square
    at a position strictly between 0 and its length."""
    enc = _encode(letters)
    return (enc + enc).find(enc, 1) == len(enc)


# -- random inputs ----------------------------------------------------------------


def random_reduced(rng: random.Random, length: int) -> list[int]:
    """A freely reduced word of exactly ``length`` letters."""
    out: list[int] = []
    while len(out) < length:
        g = rng.choice(LETTERS)
        if not out or g != -out[-1]:
            out.append(g)
    return out


def random_relator(rng: random.Random, length: int) -> list[int]:
    """Cyclically reduced and primitive word of exactly ``length`` letters."""
    while True:
        w = random_reduced(rng, length)
        if w[0] != -w[-1] and is_primitive(w):
            return w


# -- small cancellation ----------------------------------------------------------


def symmetrized(relators: list[list[int]]) -> list[str]:
    """Encoded doubled strings of each relator and of its inverse."""
    out = []
    for r in relators:
        for ls in (r, inverse(r)):
            enc = _encode(ls)
            out.append(enc + enc)
    return out


def max_piece(relators: list[list[int]]) -> tuple[int, Fraction] | None:
    """Longest common prefix of two distinct symmetrized elements and its
    ratio to the shortest relator, or None when two elements coincide.

    A common prefix of length L exists iff two rotations of length at least
    L share their first L letters, so binary search over L with a set of
    prefixes."""
    doubled = symmetrized(relators)
    starts = [(d, k) for d in doubled for k in range(len(d) // 2)]
    if len({d[k:k + len(d) // 2] for d, k in starts}) != len(starts):
        return None

    def shared(length: int) -> bool:
        seen = set()
        for d, k in starts:
            if len(d) // 2 < length:
                continue
            pre = d[k:k + length]
            if pre in seen:
                return True
            seen.add(pre)
        return False

    lo, hi = 0, max(len(r) for r in relators)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if shared(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo, Fraction(lo, min(len(r) for r in relators))
