"""The package's export list matches what the package defines."""

import reinforced_ldp


def test_every_export_resolves():
    missing = [name for name in reinforced_ldp.__all__ if not hasattr(reinforced_ldp, name)]
    assert missing == []


def test_exports_are_unique():
    names = reinforced_ldp.__all__
    assert len(names) == len(set(names))
