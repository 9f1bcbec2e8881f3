"""Acceptance battery: every shipped criterion must pass at full scale.

Each criterion runs in its own test so the report reads one line per check.
Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail table.
"""

import pytest
from scipy.special import rel_entr

from reinforced_ldp import validation
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


def test_chain_rule_criterion_fails_a_shifted_rho(monkeypatch):
    """C5 fails when the check reads ``rho_k = Lbar_k A`` in place of
    ``Lbar_{k-1} A``, though both of the check's own sides share that rho."""

    def shifted(path, A):
        n = path.n
        rho = path.Lbar[1:] @ A.matrix
        return float(rel_entr(path.mu[::-1] / n, rho[::-1] / n).sum()), float(rel_entr(path.mu, rho).sum() / n)

    monkeypatch.setattr(validation, "verify_chain_rule_identity", shifted)
    value, threshold, passed, _ = validation._c5_chain_rule(0.05, SEED)
    assert not passed and value > 1e3 * threshold


def test_convexity_criterion_fails_a_concave_cost(monkeypatch):
    """C8 fails when the objective it checks is the negative of the solver's,
    so it reads the solver's own objective."""
    cost = validation._cost_value
    monkeypatch.setattr(validation, "_cost_value", lambda *args: -cost(*args))
    value, threshold, passed, _ = validation._c8_convexity(0.1, SEED)
    assert not passed and value > 1e3 * threshold
