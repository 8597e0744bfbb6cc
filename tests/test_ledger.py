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
    bound_f,
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


def test_bound_f_example():
    assert bound_f(chain(zeta=Fraction(1, 100), eta=Fraction(1, 320))) == 10_000


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
