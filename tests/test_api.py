"""The package's export list matches what the package defines, and its
modules import nothing they do not use."""

import ast
from pathlib import Path

import reinforced_ldp
from reinforced_ldp import lowerbound, ratesolver

SRC = Path(reinforced_ldp.__file__).parent
# (module, name) imported for another module's sake, each pinned by its own test
UNUSED_IMPORTS_ALLOWED = {("lowerbound", "_GL_X")}


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


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports but never reads; names listed in ``__all__`` count as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_src_modules_use_every_import():
    unused = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    assert unused == UNUSED_IMPORTS_ALLOWED


def test_unused_import_guard_sees_an_unused_name():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import exp, log\nx = np.exp(log(2))\n")
    assert _unused_imports(tree) == {"os", "exp"}
