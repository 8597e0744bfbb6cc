"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Every criterion runs at its stated tolerance (exact word equality, exact
rational arithmetic, 100% oracle agreement) through the same library entry
points the ``report`` command uses, so the CLI and this module cannot drift
apart.  Runtime expectations are asserted too, with slack only where the
criterion text grants none at all.
"""

from pathlib import Path

import pytest

from relfree import report

EXPECTED_REPORT_KV = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "report_kv.txt"

BUDGETS = {  # seconds, from the criterion statements
    "C01": 1.0,
    "C02": 5.0,
    "C03": 5.0,
    "C05": 60.0,
    "C07": 120.0,
    "C09": 60.0,
}


def _run(cid: str) -> report.CriterionResult:
    result = report.run_criterion(cid, seed=0)
    print(result.line())
    assert result.passed, f"{cid} failed: {result.detail}"
    budget = BUDGETS.get(cid)
    if budget is not None:
        assert result.seconds < budget, \
            f"{cid} took {result.seconds:.2f}s, budget {budget}s"
    return result


def test_c01_zero_exponent_sums():
    _run("C01")


def test_c02_kernel_identity():
    _run("C02")


def test_c03_surjectivity_identity():
    _run("C03")


def test_c04_kernel_length_bound():
    _run("C04")


def test_c05_oracle_equivalence():
    _run("C05")


def test_c06_rank_one_and_two_periods():
    _run("C06")


def test_c07_relator_roundtrip_and_witness():
    _run("C07")


def test_c08_lpp_ledger():
    _run("C08")


def test_c09_dehn_certificate_soundness():
    _run("C09")


def test_c10_exponent_schedules():
    _run("C10")


def test_cli_report_agrees_with_library(capsys):
    """The report subcommand is a thin adapter over the same criteria."""
    from relfree import cli

    code = cli.main(["report", "--output", "kv", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    for cid, _, _, _ in report.CRITERIA:
        assert f"criterion={cid}" in out
    assert "pass=false" not in out
    # the kv report is byte-stable: it must match the recorded copy exactly
    assert out == EXPECTED_REPORT_KV.read_text(encoding="utf-8")
