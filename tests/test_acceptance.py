"""Acceptance battery: every shipped criterion must pass at full scale.

Each criterion runs in its own test so the report reads one line per check.
Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail table.
"""

import pytest

from reinforced_ldp.validation import CRITERIA, format_report_lines, run_acceptance

SCALE = 1.0
SEED = 0


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(cid):
    results = run_acceptance(scale=SCALE, seed=SEED, include=[cid])
    assert len(results) == 1
    line = format_report_lines(results)[0]
    print(line)
    assert results[0].passed, line
