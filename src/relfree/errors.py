"""Exception types shared across the package, and the two readers every
input shares: :func:`open_text` decodes files, :func:`split_fields` splits
quoted fields."""

from contextlib import contextmanager


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
    """No conjugating word realizes the claimed identity."""


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
