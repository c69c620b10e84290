"""Acceptance gate: every numbered criterion must pass at its stated scale.

Each test prints a single `ACn PASS/FAIL detail (t s)` line (visible with
`pytest -s` or in the failure report), matching the reproduce-paper CLI
scenario, and fails if the criterion does.
"""

import sys

import pytest

from serialquota.acceptance import CRITERIA, run_criterion

BUDGET_SECONDS = {
    "AC1": 60,
    "AC2": 1,
    "AC3": 120,
    "AC4": 60,
    "AC5": 30,
    "AC6": 60,
    "AC7": 90,
    "AC8": 30,
    "AC9": 10,
    "AC10": None,  # no stated budget
    "AC11": 10,
}


@pytest.mark.parametrize("name,title,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, title, fn):
    outcome = run_criterion(name, title, fn)
    status = "PASS" if outcome.passed else "FAIL"
    line = f"{name} {status} ({outcome.seconds:.1f}s) {title}: {outcome.detail}"
    print(line)
    print(line, file=sys.stderr)
    assert outcome.passed, line
    budget = BUDGET_SECONDS[name]
    if budget is not None:
        assert outcome.seconds < budget, (
            f"{name} took {outcome.seconds:.1f}s, budget {budget}s"
        )
