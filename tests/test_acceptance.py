"""Acceptance gate: the nine numbered end-to-end criteria, full strength.

Each test runs one criterion through the shared runners in
``sle_dyson.validation`` (the same code path as ``sle-dyson validate``)
and prints a single summary line; thresholds are pinned inside the
runners, not here.
"""

import pytest

from sle_dyson.validation import ALL_CRITERIA


@pytest.mark.parametrize(
    "cid, runner", ALL_CRITERIA.items(),
    ids=[fn.__name__.replace("criterion_", "c")
         for fn in ALL_CRITERIA.values()])
def test_criterion(cid, runner):
    res = runner(quick=False)
    assert res.criterion_id == cid
    verdict = "PASS" if res.passed else "FAIL"
    line = (f"criterion {res.criterion_id}: {res.name} "
            f"value={res.value:.6g} threshold={res.threshold:g} {verdict}")
    print(line)
    if res.detail:
        print(f"  detail: {res.detail}")
    assert res.passed, line
