"""Exception types shared across the package, and the readers every input shares:
:func:`open_text` (decoding), :func:`content_lines` (numbered lines),
:func:`split_fields` (quoted fields), :func:`fields_after` (a field count) and
:func:`named_values` (``name = value``)."""

from contextlib import contextmanager
from typing import Iterator


class RelfreeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLetter(RelfreeError):
    """A letter refers to a generator index outside the alphabet."""


class AlphabetMismatch(RelfreeError):
    """Two words from different alphabets were combined."""


class EmptyWord(RelfreeError):
    """An operation that needs a nonempty word received the empty word."""


class InvalidIndex(RelfreeError):
    """An index argument is outside its documented range."""


class InvalidParams(RelfreeError):
    """A parameter triple violates its divisibility or positivity constraints."""


class ZeroExponent(RelfreeError):
    """A relator template was asked to use exponent multiplier f = 0."""


class EmptyInput(RelfreeError):
    """An operation over a collection received an empty or degenerate input."""


class RankTooSmall(RelfreeError):
    """The construction needs at least two generators."""


class NonPositiveParameter(RelfreeError):
    """A chain parameter is zero or negative."""


class BrokenChainOrder(RelfreeError):
    """The strict descending order of the parameter chain is violated."""


class Unsatisfiable(RelfreeError):
    """The greedy parameter search could not satisfy a catalog item."""

    def __init__(self, item_id: str, message: str = ""):
        self.item_id = item_id
        super().__init__(message or f"no admissible value satisfies item {item_id!r}")


class BudgetExceeded(RelfreeError):
    """A bounded search or rewriting loop ran out of budget."""


class WitnessNotFound(RelfreeError):
    """No conjugating word realizes the claimed identity, or a relator is not its value."""


class MalformedCertificate(RelfreeError):
    """A diagram certificate is structurally unreadable (dangling refs, empty cycles)."""


class TraceMismatch(RelfreeError):
    """Replaying a rewriting trace diverged from the recorded steps."""


class Unsupported(RelfreeError):
    """The input is well-formed but outside the supported fragment."""


class UndecodableFile(RelfreeError):
    """An input file's bytes are not UTF-8 text."""


@contextmanager
def open_text(path):
    """Open ``path`` for reading UTF-8 text.  Bytes that do not decode, met
    anywhere in the ``with`` body, raise :class:`UndecodableFile` naming the
    path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise UndecodableFile(f"{path}: not UTF-8 text ({exc.reason})") from None


def content_lines(text: str, path=None) -> Iterator[tuple[str, str]]:
    """``(where, line)`` for every line of ``text`` that is neither blank nor
    a ``#`` comment, stripped.  Only a newline ends a line, as when a file is
    iterated, so a form feed or a Unicode line separator stays inside its
    line; ``where`` is ``path:n``, or ``line n`` when ``path`` is None, with
    n counting every line."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield (f"line {lineno}" if path is None else f"{path}:{lineno}"), line


def named_values(entries, *names: str, **defaults: str) -> list[tuple[str | None, str]]:
    """``(where, value)`` for each of ``names`` in turn, from ``(where, "name = value")``
    entries as :func:`content_lines` yields them, or ``(None, default)`` for a name no
    entry sets.  An entry without ``=``, an unknown name or a repeated one raises
    :class:`InvalidParams` naming its where (None names no place), and a name with no
    entry and no default :class:`EmptyInput`, for the caller to place."""
    found: dict[str, tuple[str | None, str]] = {}
    for where, entry in entries:
        name, eq, value = (part.strip() for part in entry.partition("="))
        place = "" if where is None else f"{where}: "
        if not eq:
            raise InvalidParams(f"{place}expected name = value, got {entry!r}")
        if name not in names:
            raise InvalidParams(f"{place}unknown name {name!r}")
        if name in found:
            raise InvalidParams(f"{place}name {name!r} is set twice")
        found[name] = where, value
    if missing := [name for name in names if name not in found and name not in defaults]:
        raise EmptyInput(f"missing name {missing[0]!r}")
    return [found.get(name, (None, defaults.get(name))) for name in names]


def split_fields(line: str) -> list[str]:
    """Split ``line`` into whitespace-separated fields, where text in single
    quotes is literal and joins the field around it: what :func:`shlex.quote`
    writes for text without a single quote (every field the two writers
    quote), read as :func:`shlex.split` reads it.  An unbalanced quote,
    including the one ``shlex.quote`` writes for a single quote, raises
    :class:`RelfreeError`."""
    parts = line.split("'")
    if not len(parts) % 2:
        raise RelfreeError("no closing quotation")
    fields: list[str] = []
    joined = False  # the last field runs up to the current part
    for i, part in enumerate(parts):
        words = [part] if i % 2 else part.split()
        if joined and words and (i % 2 or not part[0].isspace()):
            fields[-1] += words.pop(0)
        fields += words
        joined = bool(i % 2) or (not part[-1].isspace() if part else joined)
    return fields


def fields_after(tokens: list[str], count: int) -> list[str]:
    """The ``count`` fields after the head ``tokens[0]`` of a line; any other
    number of fields raises :class:`RelfreeError`, for the caller to place."""
    if len(tokens) != count + 1:
        raise RelfreeError(f"{tokens[0]} takes {count} field(s), got {len(tokens) - 1}")
    return tokens[1:]
