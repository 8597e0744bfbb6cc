import ast
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfree.errors import (
    BrokenChainOrder,
    EmptyInput,
    InvalidParams,
    NonPositiveParameter,
    RelfreeError,
    Unsatisfiable,
)
from relfree.ledger import (
    InequalityCatalog,
    LppAssignment,
    PARAM_NAMES,
    load_default_catalog,
    parse_assignment_text,
    solve,
    verify,
)


def chain(**overrides) -> LppAssignment:
    base = dict(alpha=Fraction(1, 2), beta=Fraction(1, 4), gamma=Fraction(1, 8),
                delta=Fraction(1, 20), eps=Fraction(1, 40), zeta=Fraction(1, 160),
                eta=Fraction(1, 320), iota=Fraction(1, 640))
    base.update(overrides)
    return LppAssignment(**base)


# -- catalog parsing -----------------------------------------------------------

def test_default_catalog_loads():
    cat = load_default_catalog()
    assert len(cat.items) >= 25
    ids = [item.id for item in cat.items]
    for anchored in ("L1_f_bound", "L12_T3", "L12_T2_step", "L11_half_n",
                     "L2_BC_below_D"):
        assert anchored in ids


def test_least_parameter_assignment():
    cat = load_default_catalog()
    by_id = {item.id: item for item in cat.items}
    assert by_id["L1_f_bound"].least_param == "iota"
    assert by_id["L12_T3"].least_param == "iota"
    assert by_id["L7_compat_margin"].least_param == "zeta"
    assert by_id["L2_BC_below_D"].least_param == "eta"
    assert by_id["L4_WG_len"].least_param == "zeta"


def test_catalog_rejects_malformed_lines():
    with pytest.raises(InvalidParams):
        InequalityCatalog.from_text("only_two_fields | n > 1")
    with pytest.raises(InvalidParams):
        InequalityCatalog.from_text("x | n > sneaky_name | anchor")
    with pytest.raises(InvalidParams):
        InequalityCatalog.from_text("x | n + 1 | anchor")  # not an inequality
    with pytest.raises(InvalidParams):
        InequalityCatalog.from_text("x | __import__('os') > 1 | anchor")
    with pytest.raises(InvalidParams):
        InequalityCatalog.from_text(
            "a | n > 1 | anchor\na | n > 2 | anchor")  # duplicate id


def test_expression_evaluation_is_exact():
    cat = InequalityCatalog.from_text("x | zeta^-2 > 100*d/3 | anchor")
    a = chain()
    rep = verify(a, cat)
    item = rep.item_results[0]
    assert item.lhs == Fraction(160) ** 2
    assert item.rhs == Fraction(100 * 320, 3)
    assert item.passed


@pytest.mark.parametrize("expression, message", [
    ("alpha > 1/0", "item 'x' divides by zero"),
    ("alpha > 1/(zeta - zeta)", "item 'x' divides by zero"),
    ("alpha > 0^-1 + alpha - alpha", "item 'x' raises 0 to a negative power"),
    ("alpha > 2^2^2^2^2^2", "item 'x': a power exceeds 65536 bits"),
    ("alpha > (-1)^(10^30)", "item 'x': a power exceeds 65536 bits"),
], ids=["zero-divisor", "zero-difference", "zero-to-negative", "tower", "unit-base"])
def test_evaluation_errors_name_the_item(expression, message):
    cat = InequalityCatalog.from_text(f"x | {expression} | anchor")
    with pytest.raises(InvalidParams, match=re.escape(message)):
        verify(chain(), cat)
    with pytest.raises(InvalidParams, match=re.escape(message)):
        solve(cat)


def test_power_bound_is_on_the_size_of_the_result():
    # 2 has a 2-bit numerator and a 1-bit denominator: 2^21845 is 65 535 bits
    # by the measure, one under the bound, and 2^21846 one over it
    assert verify(chain(), InequalityCatalog.from_text("x | 2^21845 > alpha | a")).passed
    with pytest.raises(InvalidParams, match="a power exceeds"):
        verify(chain(), InequalityCatalog.from_text("x | 2^21846 > alpha | a"))
    assert verify(chain(), InequalityCatalog.from_text("x | 0^0 > alpha | a")).passed


@pytest.mark.parametrize("depth", [2000, 50000])
def test_deeply_nested_items_are_refused(depth):
    with pytest.raises(InvalidParams):
        verify(chain(), InequalityCatalog.from_text(f"x | alpha > {'-' * depth}1 | a"))


@pytest.mark.parametrize("expression, message", [
    ("alpha > (beta > gamma)", "need exactly one >, >=, < or <=: 'alpha > (beta > gamma)'"),
    ("alpha > True", "only integer literals allowed: 'alpha > True'"),
], ids=["nested-comparison", "bool-literal"])
def test_what_the_grammar_lacks_is_refused_when_read(expression, message):
    # both once loaded: the nested comparison failed only when evaluated, and
    # True read as 1
    with pytest.raises(InvalidParams, match=f"^cat.txt:1: {re.escape(message)}$"):
        InequalityCatalog.from_text(f"x | {expression} | a", "cat.txt")


# -- the evaluator against the tree walk it replaced ----------------------------------

def reference_parse_expr(text):
    """The whitelist walk over the item's syntax tree: its body, or InvalidParams."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise InvalidParams(f"unparsable expression {text!r}: {exc}") from None
    for node in ast.walk(tree):
        if isinstance(node, (ast.operator, ast.cmpop, ast.unaryop, ast.expr_context)):
            continue
        if isinstance(node, (ast.Expression, ast.Compare, ast.BinOp, ast.UnaryOp,
                             ast.Name, ast.Constant)):
            if isinstance(node, ast.BinOp) and not isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
                raise InvalidParams(f"operator not in grammar: {text!r}")
            if isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.USub):
                raise InvalidParams(f"operator not in grammar: {text!r}")
            if isinstance(node, ast.Compare):
                if len(node.ops) != 1 or not isinstance(
                        node.ops[0], (ast.Gt, ast.GtE, ast.Lt, ast.LtE)):
                    raise InvalidParams(f"need exactly one >, >=, < or <=: {text!r}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, int):
                raise InvalidParams(f"only integer literals allowed: {text!r}")
        else:
            raise InvalidParams(f"construct not in grammar: {text!r}")
    return tree.body


def reference_eval_expr(node, env):
    """A dispatch over the node and operator types, evaluated on every call."""
    if isinstance(node, ast.Constant):
        return Fraction(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return -reference_eval_expr(node.operand, env)
    left = reference_eval_expr(node.left, env)
    right = reference_eval_expr(node.right, env)
    if isinstance(node.op, ast.Add):
        return left + right
    if isinstance(node.op, ast.Sub):
        return left - right
    if isinstance(node.op, ast.Mult):
        return left * right
    if isinstance(node.op, ast.Div):
        return left / right
    assert isinstance(node.op, ast.Pow) and right.denominator == 1
    return left ** right.numerator


def reference_evaluate(item, env):
    compare = reference_parse_expr(item.expression)
    lhs = reference_eval_expr(compare.left, env)
    rhs = reference_eval_expr(compare.comparators[0], env)
    op = type(compare.ops[0])
    passed = {ast.Gt: lhs > rhs, ast.GtE: lhs >= rhs, ast.Lt: lhs < rhs, ast.LtE: lhs <= rhs}
    return passed[op], lhs, rhs


def test_solve_pins_the_packaged_chain():
    assert solve(load_default_catalog()).values() == dict(zip(PARAM_NAMES, map(Fraction, (
        "1/2", "1/4", "1/8", "1/20", "1/40", "1/160", "1/1153433600001",
        "1/77405618595497508864000000040001"))))


def random_chain(rng):
    values = set()
    while len(values) < len(PARAM_NAMES):
        values.add(Fraction(rng.randint(1, 999), rng.randint(1000, 10 ** 6)))
    return LppAssignment(*sorted(values, reverse=True))


def test_every_packaged_item_evaluates_as_the_tree_walk_did():
    cat = load_default_catalog()
    # and the four comparisons where both sides are equal
    ties = InequalityCatalog.from_text("".join(
        f"tie{i} | alpha {op} alpha | a\n" for i, op in enumerate((">", ">=", "<", "<="))))
    chains = [solve(cat)] + [random_chain(random.Random(seed)) for seed in range(50)]
    for assign in chains:
        assign.check_structure()
        env = assign.environment()
        for item in cat.items + ties.items:
            assert item.evaluate(env) == reference_evaluate(item, env), (item.id, assign)


# -- verify ---------------------------------------------------------------------

def test_verify_flags_exactly_the_violated_item():
    cat = InequalityCatalog.from_text(
        "L1_f_bound | n^2 > 100*(n+h)/zeta | Lemma 1\n"
        "L12_T2_step | (h-1)*n*(d+1) > (h-1)*n*d | Lemma 12")
    bad = chain(eta=Fraction(1, 200), iota=Fraction(1, 201))
    rep = verify(bad, cat)
    assert rep.failed_ids() == ["L1_f_bound"]
    assert not rep.passed


def test_verify_raises_on_nonpositive():
    with pytest.raises(NonPositiveParameter):
        verify(chain(iota=Fraction(0)), load_default_catalog())


def test_verify_raises_on_broken_chain():
    with pytest.raises(BrokenChainOrder):
        verify(chain(beta=Fraction(3, 4)), load_default_catalog())


def test_verify_reports_divisibility():
    rep = verify(chain(delta=Fraction(1, 30)), InequalityCatalog.from_text(
        "t | d > 1 | anchor"))
    assert any("multiple of 20" in p for p in rep.structural_problems)
    assert not rep.passed


def test_verify_reports_non_integer_parameters():
    rep = verify(chain(iota=Fraction(2, 641)), InequalityCatalog.from_text(
        "t | d > 1 | anchor"))
    assert any("not an integer" in p for p in rep.structural_problems)


def test_verify_rejects_empty_catalog():
    with pytest.raises(EmptyInput):
        verify(chain(), InequalityCatalog(()))


# -- solve -----------------------------------------------------------------------

def test_solve_default_catalog_round_trips():
    cat = load_default_catalog()
    assign = solve(cat)
    rep = verify(assign, cat)
    assert rep.passed
    assert assign.h == 20
    assert assign.h % 20 == 0
    assert assign.d > assign.h
    assert assign.n > assign.d


def test_solve_empty_catalog_gives_minimal_chain():
    assign = solve(InequalityCatalog(()))
    assign.check_structure()
    assert assign.integrality_problems() == []
    assert assign.h == 20
    values = [getattr(assign, name) for name in PARAM_NAMES]
    assert values == sorted(values, reverse=True)


def test_solve_pinned_singleton_matches_linear_scan():
    single = InequalityCatalog.from_text("L1 | n^2 > 100*(n+h)/zeta | Lemma 1")
    assign = solve(single)
    assert (assign.zeta, assign.h) == (Fraction(1, 80), 20)
    n = assign.d + 1
    while not n * n > 100 / assign.zeta * (n + assign.h):
        n += 1
    assert assign.n == n == 8020


def test_solve_prefixes_round_trip():
    cat = load_default_catalog()
    for k in range(1, len(cat.items) + 1):
        prefix = InequalityCatalog(cat.items[:k])
        assign = solve(prefix)
        assert verify(assign, prefix).passed


def test_solve_reports_blocking_item():
    impossible = InequalityCatalog.from_text("never | zeta > 1 | anchor")
    with pytest.raises(Unsatisfiable) as exc:
        solve(impossible)
    assert exc.value.item_id == "never"


def test_monotone_safety_for_iota_items():
    # shrinking iota (growing n) keeps every iota-anchored item satisfied
    cat = load_default_catalog()
    assign = solve(cat)
    items = cat.by_least_param("iota")
    for factor in (2, 16, 1024):
        env = assign.environment()
        env["iota"] = assign.iota / factor
        env["n"] = 1 / env["iota"]
        for item in items:
            ok, _, _ = item.evaluate(env)
            assert ok, item.id


# -- assignment files and bounds ---------------------------------------------------

def test_assignment_text_round_trip(tmp_path):
    from relfree.ledger import load_assignment, save_assignment

    assign = chain()
    path = tmp_path / "assign.txt"
    save_assignment(assign, path)
    assert load_assignment(path) == assign


def test_assignment_parse_errors():
    with pytest.raises(InvalidParams):
        parse_assignment_text("alpha = 1/2")  # missing the rest
    with pytest.raises(InvalidParams):
        parse_assignment_text("omega = 1/2")
    with pytest.raises(InvalidParams):  # Fraction would expand 10^(10^12)
        parse_assignment_text("alpha = 1e1000000000000")
    # Fraction reads "_", "+" and non-ASCII digits too: 10/3, 1/2 and 1/2
    rest = "".join(f"{name} = 1/{i + 2}\n" for i, name in enumerate(PARAM_NAMES[1:]))
    for value in ("1_0/3", "+1/2", "\u0661/\u0662", "1/2_0"):
        with pytest.raises(InvalidParams) as info:
            parse_assignment_text(f"alpha = {value}\n{rest}", "assign.txt")
        assert str(info.value) == f"assign.txt:1: bad rational {value!r}"
    assert parse_assignment_text(f"alpha = 1/1\n{rest}").alpha == 1


# -- arbitrary input: a value or a RelfreeError, never another exception -------------

SOLVED = solve(load_default_catalog())
CATALOG_TOKENS = st.one_of(
    st.sampled_from([*PARAM_NAMES, "h", "d", "n", "+", "-", "*", "/", "^", "(", ")", ">"]),
    st.integers(-10 ** 6, 10 ** 6).map(str))


def read_or_refuse(parse, text):
    try:
        return parse(text)
    except RelfreeError:
        return None


def verify_catalog_text(text):
    return verify(SOLVED, InequalityCatalog.from_text(text))


@settings(max_examples=300, deadline=2000)
@given(st.lists(CATALOG_TOKENS, min_size=1, max_size=24).map(" ".join))
def test_catalog_token_soup_is_read_or_refused(expression):
    read_or_refuse(verify_catalog_text, f"x | {expression} | anchor")


@settings(max_examples=300, deadline=2000)
@given(st.text())
def test_catalog_text_is_read_or_refused(text):
    read_or_refuse(verify_catalog_text, text)


@settings(max_examples=300, deadline=2000)
@given(st.one_of(st.text(), st.lists(st.sampled_from(
    [*PARAM_NAMES, "=", "/", "-", "0", "1", "7", "e", ".", " ", "#", "\n"])).map("".join)))
def test_assignment_text_is_read_or_refused(text):
    read_or_refuse(parse_assignment_text, text)
