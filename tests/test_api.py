"""The package's export list matches what the package defines."""

import reinforced_ldp
from reinforced_ldp import lowerbound, ratesolver


def test_every_export_resolves():
    missing = [name for name in reinforced_ldp.__all__ if not hasattr(reinforced_ldp, name)]
    assert missing == []


def test_exports_are_unique():
    names = reinforced_ldp.__all__
    assert len(names) == len(set(names))


def test_lowerbound_keeps_the_quadrature_rule_by_name():
    # perfbench sizes lowerbound.quad_nodes by len(lowerbound._GL_X)
    assert lowerbound._GL_X is ratesolver._GL_X
    assert len(lowerbound._GL_X) == 16
