"""Exact-rational parameter chain and the catalog of its inequalities.

Eight positive rationals in strictly descending order::

    alpha > beta > gamma > delta > eps > zeta > eta > iota > 0

with the integer parameters derived as h = 1/delta, d = 1/eta, n = 1/iota.
Every inequality in the catalog names a unique *least* parameter: the one
latest in the chain among those occurring in it (h counts as delta, d as
eta, n as iota).  Values are admissible when each inequality holds with all
of its parameters already fixed, which is what the greedy :func:`solve`
exploits: it walks the chain left to right and makes each parameter small
enough for the items it owns.

Catalog items are data, not code.  The file format is one item per line::

    id | expression | anchor

with ``#`` comments, expressions over ``alpha..iota, h, d, n``, integer
literals, ``+ - * / ^``, unary ``-`` and one of ``> >= < <=``, checked when
the catalog is read, and the anchor a free-text citation string used in
reports.  Evaluation is exact (``fractions.Fraction``); no floating point.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterable, Mapping

from .errors import (
    BrokenChainOrder,
    EmptyInput,
    InvalidParams,
    NonPositiveParameter,
    Unsatisfiable,
    content_lines,
    named_values,
    open_text,
)

PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "iota")
_DERIVED = {"h": "delta", "d": "eta", "n": "iota"}
_DERIVED_FROM = {base: derived for derived, base in _DERIVED.items()}
_CHAIN_POS = {name: i for i, name in enumerate(PARAM_NAMES)}

# Search limits for solve(); generous for any sane catalog.
_MAX_HALVINGS = 512
# Power size bound, in bits (|exponent| x bit lengths of the base's numerator and
# denominator): the shipped catalog reaches 216 (n^2), zeta^7 after 512 halvings 3 633.
_MAX_POWER_BITS = 1 << 16


@dataclass(frozen=True)
class LppAssignment:
    """A concrete value for the whole chain."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    eps: Fraction
    zeta: Fraction
    eta: Fraction
    iota: Fraction

    def values(self) -> dict[str, Fraction]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def _derived_int(self, name: str) -> int:
        value = 1 / getattr(self, _DERIVED[name])
        if value.denominator != 1:
            raise InvalidParams(f"{name} = {value} is not an integer")
        return int(value)

    @property
    def h(self) -> int:
        return self._derived_int("h")

    @property
    def d(self) -> int:
        return self._derived_int("d")

    @property
    def n(self) -> int:
        return self._derived_int("n")

    def environment(self) -> dict[str, Fraction]:
        return _env_of(self.values())

    def check_structure(self) -> None:
        """Raise unless the chain is positive and strictly descending."""
        vals = self.values()
        for name, v in vals.items():
            if v <= 0:
                raise NonPositiveParameter(f"{name} = {v} must be positive")
        for a, b in zip(PARAM_NAMES, PARAM_NAMES[1:]):
            if not vals[a] > vals[b]:
                raise BrokenChainOrder(f"{a} = {vals[a]} must exceed {b} = {vals[b]}")

    def integrality_problems(self) -> list[str]:
        """Divisibility/integrality defects, reported rather than raised."""
        problems = []
        for name in ("h", "d", "n"):
            value = 1 / getattr(self, _DERIVED[name])
            if value.denominator != 1:
                problems.append(f"{name} = {value} is not an integer")
        hval = 1 / self.delta
        if hval.denominator == 1 and int(hval) % 20 != 0:
            problems.append(f"h = {int(hval)} is not a multiple of 20")
        return problems


# -- expression handling -------------------------------------------------


def _divide(a: Fraction, b: Fraction, item_id: str) -> Fraction:
    if not b:
        raise InvalidParams(f"item {item_id!r} divides by zero")
    return a / b


def _power(a: Fraction, b: Fraction, item_id: str) -> Fraction:
    if b.denominator != 1:
        raise InvalidParams(f"item {item_id!r}: exponents must be integers")
    if not a and b.numerator < 0:
        raise InvalidParams(f"item {item_id!r} raises 0 to a negative power")
    bits = a.numerator.bit_length() + a.denominator.bit_length()
    if abs(b.numerator) * bits > _MAX_POWER_BITS:
        raise InvalidParams(f"item {item_id!r}: a power exceeds {_MAX_POWER_BITS} bits")
    return a ** b.numerator


_BINOPS = {ast.Add: lambda a, b, _: a + b, ast.Sub: lambda a, b, _: a - b,
           ast.Mult: lambda a, b, _: a * b, ast.Div: _divide, ast.Pow: _power}
_CMPOPS = {ast.Gt: operator.gt, ast.GtE: operator.ge, ast.Lt: operator.lt, ast.LtE: operator.le}


@dataclass(frozen=True)
class CatalogItem:
    id: str
    expression: str
    anchor: str
    _lhs: Callable[[Mapping[str, Fraction]], Fraction] = field(repr=False, compare=False)
    _rhs: Callable[[Mapping[str, Fraction]], Fraction] = field(repr=False, compare=False)
    _op: Callable[[Fraction, Fraction], bool] = field(repr=False, compare=False)
    params: frozenset = field(repr=False, compare=False)
    where: str = field(default="", repr=False, compare=False)  # 'path:line: ', errors' prefix

    @property
    def least_param(self) -> str:
        return max(self.params, key=_CHAIN_POS.__getitem__)

    def evaluate(self, env: Mapping[str, Fraction]) -> tuple[bool, Fraction, Fraction]:
        try:
            lhs, rhs = self._lhs(env), self._rhs(env)
        except RecursionError:
            raise InvalidParams(f"{self.where}item {self.id!r} is nested too deeply") from None
        except InvalidParams as exc:
            raise InvalidParams(f"{self.where}{exc}") from None
        return self._op(lhs, rhs), lhs, rhs


def parse_item(id_: str, expression: str, anchor: str, where: str = "") -> CatalogItem:
    """Parse one item.  A single walk of each side checks it against the
    grammar, collects the names it reads, and builds its evaluator, which
    maps an environment to the side's exact value."""
    try:
        compare = ast.parse(expression.replace("^", "**"), mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # ValueError: a null byte on Python 3.10; the last two: nesting too deep
        raise InvalidParams(f"unparsable expression {expression!r}: {exc}") from None
    if not isinstance(compare, ast.Compare):
        raise InvalidParams(f"item {id_!r} is not an inequality: {expression!r}")
    names: set[str] = set()

    def compile_side(node: ast.expr) -> Callable[[Mapping[str, Fraction]], Fraction]:
        if isinstance(node, ast.Constant):
            if type(node.value) is not int:  # True and False are ints too
                raise InvalidParams(f"only integer literals allowed: {expression!r}")
            value = Fraction(node.value)
            return lambda env: value
        if isinstance(node, ast.Name):
            names.add(name := node.id)

            def read(env):
                try:
                    return env[name]
                except KeyError:
                    raise InvalidParams(f"item {id_!r}: unknown name {name!r}") from None
            return read
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = compile_side(node.operand)
            return lambda env: -operand(env)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left, right = compile_side(node.left), compile_side(node.right)
            return lambda env: op(left(env), right(env), id_)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            raise InvalidParams(f"operator not in grammar: {expression!r}")
        if isinstance(node, ast.Compare):
            raise InvalidParams(f"need exactly one >, >=, < or <=: {expression!r}")
        raise InvalidParams(f"construct not in grammar: {expression!r}")

    if len(compare.ops) != 1 or type(compare.ops[0]) not in _CMPOPS:
        raise InvalidParams(f"need exactly one >, >=, < or <=: {expression!r}")
    try:
        lhs, rhs = compile_side(compare.left), compile_side(compare.comparators[0])
    except RecursionError:
        raise InvalidParams(f"item {id_!r} is nested too deeply") from None
    unknown = names - set(PARAM_NAMES) - set(_DERIVED)
    if unknown:
        raise InvalidParams(f"item {id_!r} uses unknown names {sorted(unknown)}")
    params = frozenset(_DERIVED.get(n, n) for n in names)
    if not params:
        raise InvalidParams(f"item {id_!r} mentions no chain parameter")
    return CatalogItem(id_, expression.strip(), anchor.strip(), lhs, rhs,
                       _CMPOPS[type(compare.ops[0])], params, where)


@dataclass(frozen=True)
class InequalityCatalog:
    items: tuple[CatalogItem, ...]

    def __post_init__(self):
        seen = set()
        for item in self.items:
            if item.id in seen:
                raise InvalidParams(f"duplicate item id {item.id!r}")
            seen.add(item.id)

    @classmethod
    def from_text(cls, text: str, path=None) -> "InequalityCatalog":
        """Errors of an item, in parsing or evaluating it, name its line."""
        items = []
        for where, line in content_lines(text, path):
            where += ": "
            parts = [part.strip() for part in line.split("|", 2)]
            if len(parts) != 3:
                raise InvalidParams(f"{where}need 'id | expression | anchor'")
            try:
                items.append(parse_item(*parts, where))
            except InvalidParams as exc:
                raise InvalidParams(f"{where}{exc}") from None
        return cls(tuple(items))

    @classmethod
    def from_path(cls, path) -> "InequalityCatalog":
        with open_text(path) as fh:
            return cls.from_text(fh.read(), path)

    def by_least_param(self, name: str) -> list[CatalogItem]:
        return [item for item in self.items if item.least_param == name]


def load_default_catalog() -> InequalityCatalog:
    """The catalog shipped with the package."""
    text = resources.files("relfree.data").joinpath("lpp_catalog.txt").read_text()
    return InequalityCatalog.from_text(text)


# -- verification ---------------------------------------------------------


@dataclass(frozen=True)
class ItemResult:
    id: str
    passed: bool
    lhs: Fraction
    rhs: Fraction
    anchor: str


@dataclass(frozen=True)
class LedgerReport:
    item_results: tuple[ItemResult, ...]
    structural_problems: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.structural_problems and all(r.passed for r in self.item_results)

    def failed_ids(self) -> list[str]:
        return [r.id for r in self.item_results if not r.passed]


def verify(assign: LppAssignment, cat: InequalityCatalog) -> LedgerReport:
    """Per-item pass/fail with exact values; raises on broken chain structure."""
    if not cat.items:
        raise EmptyInput("catalog is empty")
    assign.check_structure()
    env = assign.environment()
    results = [ItemResult(item.id, *item.evaluate(env), item.anchor)
               for item in cat.items]
    return LedgerReport(tuple(results), tuple(assign.integrality_problems()))


# -- greedy instantiation --------------------------------------------------


def _items_pass(items: Iterable[CatalogItem], env: Mapping[str, Fraction]):
    for item in items:
        ok, _, _ = item.evaluate(env)
        if not ok:
            return item
    return None


def _env_of(partial: dict[str, Fraction]) -> dict[str, Fraction]:
    env = dict(partial)
    for derived, base in _DERIVED.items():
        if base in partial:
            env[derived] = 1 / partial[base]
    return env


def _integerize(name: str, partial: dict[str, Fraction], items, upper: int,
                lower_exclusive: Fraction) -> int:
    """Smallest admissible integer for a derived parameter, by binary search.

    ``hi`` only takes values that ``ok`` accepted, so the result satisfies
    ``items``; it is the least such value when the items are monotone (true
    once the integer is large enough, the shape of the catalog).
    """
    step = 20 if name == "h" else 1
    lo = int(1 / lower_exclusive) + 1  # chain order: value must stay below prev param
    lo = ((lo + step - 1) // step) * step
    hi = ((upper + step - 1) // step) * step

    def ok(k: int) -> bool:
        trial = dict(partial)
        trial[_DERIVED[name]] = Fraction(1, k)
        return _items_pass(items, _env_of(trial)) is None

    if not ok(hi):
        raise Unsatisfiable(name, f"no admissible integer for {name} up to {hi}")
    while lo < hi:
        mid = ((lo + hi) // (2 * step)) * step
        if ok(mid):
            hi = mid
        else:
            lo = mid + step
    return hi


def solve(cat: InequalityCatalog) -> LppAssignment:
    """Greedy chain instantiation: halve each parameter until its items pass,
    then shrink h, d, n to the least admissible integers.

    Deterministic; raises :class:`Unsatisfiable` naming the first blocking
    item (which signals a transcription error in the catalog, not a defect
    in the underlying construction).
    """
    partial: dict[str, Fraction] = {}
    prev = Fraction(1)
    for name in PARAM_NAMES:
        items = cat.by_least_param(name)
        candidate = prev / 2
        blocking = None
        for _ in range(_MAX_HALVINGS):
            partial[name] = candidate
            blocking = _items_pass(items, _env_of(partial))
            if blocking is None:
                break
            candidate /= 2
        if blocking is not None:
            raise Unsatisfiable(blocking.id)
        if name in _DERIVED_FROM:
            k = _integerize(_DERIVED_FROM[name], partial, items,
                            upper=int(1 / candidate) + 1, lower_exclusive=prev)
            partial[name] = Fraction(1, k)
        prev = partial[name]
    return LppAssignment(**partial)


# -- assignment files -------------------------------------------------------


def parse_assignment_text(text: str, path=None) -> LppAssignment:
    """Parse ``name = p/q`` lines for the eight chain parameters, read by
    :func:`errors.named_values`; errors name ``path`` when it is given."""
    try:
        values = named_values(content_lines(text, path), *PARAM_NAMES)
    except EmptyInput as exc:
        raise InvalidParams(str(exc) if path is None else f"{path}: {exc}") from None
    return LppAssignment(*(_rational(where, value) for where, value in values))


def _rational(where: str, text: str) -> Fraction:
    try:
        if "e" not in text.lower():  # Fraction would expand 1e<k> to 10^k, for any k
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidParams(f"{where}: bad rational {text!r}")


def load_assignment(path) -> LppAssignment:
    with open_text(path) as fh:
        return parse_assignment_text(fh.read(), path)


def save_assignment(assign: LppAssignment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in assign.values().items():
            fh.write(f"{name} = {value}\n")
