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

with ``#`` comments, expressions over ``alpha..iota, h, d, n`` and
``+ - * / ^ > >=``, and the anchor a free-text citation string used in
reports.  Evaluation is exact (``fractions.Fraction``); no floating point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping

from .errors import (
    BrokenChainOrder,
    EmptyInput,
    InvalidParams,
    NonPositiveParameter,
    Unsatisfiable,
    open_text,
)

PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "iota")
_DERIVED = {"h": "delta", "d": "eta", "n": "iota"}
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

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_CMPOPS = (ast.Gt, ast.GtE, ast.Lt, ast.LtE)


def _parse_expr(text: str) -> ast.expr:
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # ValueError: a null byte on Python 3.10; the last two: nesting too deep
        raise InvalidParams(f"unparsable expression {text!r}: {exc}") from None
    for node in ast.walk(tree):
        if isinstance(node, (ast.operator, ast.cmpop, ast.unaryop, ast.expr_context)):
            continue  # validated at the parent node
        if isinstance(node, (ast.Expression, ast.Compare, ast.BinOp, ast.UnaryOp,
                             ast.Name, ast.Constant)):
            if isinstance(node, ast.BinOp) and not isinstance(node.op, _ALLOWED_BINOPS):
                raise InvalidParams(f"operator not in grammar: {text!r}")
            if isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.USub):
                raise InvalidParams(f"operator not in grammar: {text!r}")
            if isinstance(node, ast.Compare):
                if len(node.ops) != 1 or not isinstance(node.ops[0], _ALLOWED_CMPOPS):
                    raise InvalidParams(f"need exactly one >, >=, < or <=: {text!r}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, int):
                raise InvalidParams(f"only integer literals allowed: {text!r}")
        else:
            raise InvalidParams(f"construct not in grammar: {text!r}")
    return tree.body


def _eval_expr(node: ast.expr, env: Mapping[str, Fraction], item_id: str) -> Fraction:
    if isinstance(node, ast.Constant):
        return Fraction(node.value)
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise InvalidParams(f"item {item_id!r}: unknown name {node.id!r}")
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_eval_expr(node.operand, env, item_id)
    if isinstance(node, ast.BinOp):
        left = _eval_expr(node.left, env, item_id)
        right = _eval_expr(node.right, env, item_id)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            if not right:
                raise InvalidParams(f"item {item_id!r} divides by zero")
            return left / right
        if isinstance(node.op, ast.Pow):
            if right.denominator != 1:
                raise InvalidParams(f"item {item_id!r}: exponents must be integers")
            if not left and right.numerator < 0:
                raise InvalidParams(f"item {item_id!r} raises 0 to a negative power")
            bits = left.numerator.bit_length() + left.denominator.bit_length()
            if abs(right.numerator) * bits > _MAX_POWER_BITS:
                raise InvalidParams(f"item {item_id!r}: a power exceeds {_MAX_POWER_BITS} bits")
            return left ** right.numerator
    raise InvalidParams(f"cannot evaluate node {ast.dump(node)}")


@dataclass(frozen=True)
class CatalogItem:
    id: str
    expression: str
    anchor: str
    _lhs: ast.expr = field(repr=False, compare=False)
    _rhs: ast.expr = field(repr=False, compare=False)
    _op: str = field(repr=False, compare=False)
    params: frozenset = field(repr=False, compare=False)
    where: str = field(default="", repr=False, compare=False)  # 'path:line: ', errors' prefix

    @property
    def least_param(self) -> str:
        return max(self.params, key=_CHAIN_POS.__getitem__)

    def evaluate(self, env: Mapping[str, Fraction]) -> tuple[bool, Fraction, Fraction]:
        try:
            lhs = _eval_expr(self._lhs, env, self.id)
            rhs = _eval_expr(self._rhs, env, self.id)
        except RecursionError:
            raise InvalidParams(f"{self.where}item {self.id!r} is nested too deeply") from None
        except InvalidParams as exc:
            raise InvalidParams(f"{self.where}{exc}") from None
        if self._op == ">":
            return lhs > rhs, lhs, rhs
        if self._op == ">=":
            return lhs >= rhs, lhs, rhs
        if self._op == "<":
            return lhs < rhs, lhs, rhs
        return lhs <= rhs, lhs, rhs


def _names_in(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def parse_item(id_: str, expression: str, anchor: str, where: str = "") -> CatalogItem:
    compare = _parse_expr(expression)
    if not isinstance(compare, ast.Compare):
        raise InvalidParams(f"item {id_!r} is not an inequality: {expression!r}")
    op = {ast.Gt: ">", ast.GtE: ">=", ast.Lt: "<", ast.LtE: "<="}[type(compare.ops[0])]
    lhs, rhs = compare.left, compare.comparators[0]
    names = _names_in(compare)
    unknown = names - set(PARAM_NAMES) - set(_DERIVED)
    if unknown:
        raise InvalidParams(f"item {id_!r} uses unknown names {sorted(unknown)}")
    params = frozenset(_DERIVED.get(n, n) for n in names)
    if not params:
        raise InvalidParams(f"item {id_!r} mentions no chain parameter")
    return CatalogItem(id_, expression.strip(), anchor.strip(), lhs, rhs, op, params, where)


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
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"line {lineno}: " if path is None else f"{path}:{lineno}: "
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
    """Smallest admissible integer for a derived parameter.

    Assumes items assigned to this parameter become true once the integer is
    large enough (the catalog is of that shape); found by binary search and
    re-verified, falling back to the halving bound when not monotone.
    """
    step = 20 if name == "h" else 1
    lo = int(1 / lower_exclusive) + 1  # chain order: value must stay below prev param
    lo = max(lo, step)
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
        if mid < lo:
            mid = lo
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
        for item in items:
            later = [q for q in item.params if _CHAIN_POS[q] > _CHAIN_POS[name]]
            if later:  # pragma: no cover - catalog structure guard
                raise Unsatisfiable(item.id, "item references parameters after its least")
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
        if name in ("delta", "eta", "iota"):
            derived = {"delta": "h", "eta": "d", "iota": "n"}[name]
            k = _integerize(derived, partial, items,
                            upper=int(1 / candidate) + 1, lower_exclusive=prev)
            partial[name] = Fraction(1, k)
        prev = partial[name]
    return LppAssignment(**partial)


# -- assignment files -------------------------------------------------------


def parse_assignment_text(text: str) -> LppAssignment:
    """Parse ``name = p/q`` lines for the eight chain parameters."""
    values: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, rhs = line.partition("=")
        name = name.strip()
        if name not in PARAM_NAMES:
            raise InvalidParams(f"line {lineno}: unknown parameter {name!r}")
        if "e" in rhs.lower():  # Fraction would expand 1e<k> to 10^k, for any k
            raise InvalidParams(f"line {lineno}: bad rational {rhs.strip()!r}")
        try:
            values[name] = Fraction(rhs.strip())
        except (ValueError, ZeroDivisionError):
            raise InvalidParams(f"line {lineno}: bad rational {rhs.strip()!r}") from None
    missing = [name for name in PARAM_NAMES if name not in values]
    if missing:
        raise InvalidParams(f"assignment misses parameters {missing}")
    return LppAssignment(**values)


def load_assignment(path) -> LppAssignment:
    with open_text(path) as fh:
        return parse_assignment_text(fh.read())


def save_assignment(assign: LppAssignment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in assign.values().items():
            fh.write(f"{name} = {value}\n")


# -- enumeration bounds ----------------------------------------------------


def bound_f(assign: LppAssignment) -> int:
    """Upper bound 100/zeta on the period exponent |f| in a relator."""
    value = 100 / assign.zeta
    return int(value) if value.denominator == 1 else int(value) + 1
