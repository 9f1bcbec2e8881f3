"""The package's export list matches what the package defines, its
modules import nothing they do not use, and only ``chains.path_rng``
touches ``numpy.random``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import reinforced_ldp
from reinforced_ldp import (
    ConfigError,
    Kernel,
    PiecewiseLinearPath,
    PositivityViolation,
    PreconditionViolation,
    build_kernel_mixture,
    build_plan,
    check_cost_convergence,
    event_probability,
    exact_law,
    finite_n_rate,
    lowerbound,
    rate_profile,
    ratesolver,
    run_acceptance,
    run_plan,
    simplex_mesh,
    simulate_chain,
)

SRC = Path(reinforced_ldp.__file__).parent
# (module, name) imported for another module's sake, each pinned by its own test
UNUSED_IMPORTS_ALLOWED = {("lowerbound", "_GL_X")}
# (module, function) memoized at module level: the harmonic clock, and the
# acceptance battery's one plan
MODULE_CACHES = {("chains", "_time_grid"), ("validation", "_bench_plan")}


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


def _cached_functions(tree: ast.Module) -> set[str]:
    """Module-level functions decorated with ``functools.lru_cache`` or
    ``functools.cache``, called with arguments or not."""
    def is_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                and getattr(node.value, "id", None) == "functools")

    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and any(map(is_cache, node.decorator_list))}


def test_src_module_caches_are_the_known_ones():
    cached = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _cached_functions(ast.parse(path.read_text()))
    }
    assert cached == MODULE_CACHES


def test_cache_guard_sees_both_decorator_forms():
    tree = ast.parse(
        "import functools\n"
        "@functools.lru_cache(maxsize=8)\ndef a(n): pass\n"
        "@functools.cache\ndef b(n): pass\n"
        "@functools.wraps(a)\ndef c(n): pass\n"
        "class K:\n    @functools.cache\n    def d(self): pass\n"
    )
    assert _cached_functions(tree) == {"a", "b"}


def _random_users(tree: ast.Module) -> set[str]:
    """Top-level functions (``<module>`` for other statements) that touch
    ``numpy.random``: an ``np.random`` or ``numpy.random`` attribute outside a
    type annotation, or an import of ``numpy.random``."""
    annotations = set()
    for node in ast.walk(tree):
        parts = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        annotations.update(id(sub) for part in parts if part is not None for sub in ast.walk(part))

    def touches(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.random") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        return False

    return {getattr(stmt, "name", "<module>") for stmt in tree.body
            for node in ast.walk(stmt) if id(node) not in annotations and touches(node)}


def test_only_path_rng_derives_random_streams():
    users = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _random_users(ast.parse(path.read_text()))
    }
    assert users == {("chains", "path_rng")}


def test_random_stream_guard_sees_a_stray_generator():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.random import Philox\n"
        "def path_rng(seed) -> np.random.Generator:\n    return np.random.Generator(Philox(seed))\n"
        "def draw(rng: np.random.Generator):\n    return np.random.default_rng(0).random()\n"
        "def typed(rng: np.random.Generator) -> np.random.Generator:\n    return rng\n"
    )
    assert _random_users(tree) == {"<module>", "path_rng", "draw"}


BENCH = Kernel([[0.9, 0.1], [0.2, 0.8]])
# each call passes one scalar argument of the wrong type (a string, None or a
# bool); the library raises its own error, the class it raises for that
# argument out of range, and nothing runs first (finite_n_rate's n = 10^9
# would stop at the DP's memory cap)
SCALAR_ARGUMENTS = {
    "rate_profile T": (lambda plan, law: rate_profile(BENCH, [(0.3, 0.7)], T="1"), PreconditionViolation),
    "PiecewiseLinearPath.steps T": (lambda plan, law: PiecewiseLinearPath.steps("1", [[0.5, 0.5]]),
                                    PreconditionViolation),
    "simplex_mesh step": (lambda plan, law: simplex_mesh(2, "0.5"), PreconditionViolation),
    "build_plan slack": (lambda plan, law: build_plan((0.3, 0.7), BENCH, slack="1"), PreconditionViolation),
    "build_plan T": (lambda plan, law: build_plan((0.3, 0.7), BENCH, T="2"), PreconditionViolation),
    "run_plan eps0": (lambda plan, law: run_plan(plan, BENCH, 100, "x", 0), PreconditionViolation),
    "check_cost_convergence eps0": (lambda plan, law: check_cost_convergence(plan, BENCH, [100], 1, "x"),
                                    PreconditionViolation),
    "event_probability radius": (lambda plan, law: event_probability(law, (0.5, 0.5), "x"), PreconditionViolation),
    "finite_n_rate radius": (lambda plan, law: finite_n_rate(BENCH, 1, (0.5, 0.5), None, [10**9]),
                             PreconditionViolation),
    "exact_law mem_cap_bytes": (lambda plan, law: exact_law(BENCH, 1, 6, mem_cap_bytes="x"), PreconditionViolation),
    "run_acceptance scale": (lambda plan, law: run_acceptance(scale="1"), ConfigError),
    "run_acceptance seed": (lambda plan, law: run_acceptance(scale=0.01, seed="x", include=["C1", "C3"]),
                            ConfigError),
    "build_kernel_mixture alpha": (lambda plan, law: build_kernel_mixture("0.5", [0.5, 0.5], np.eye(2)),
                                   PositivityViolation),
    "simulate_chain n": (lambda plan, law: simulate_chain(BENCH, 1, True, 0), PreconditionViolation),
}


@pytest.fixture(scope="module")
def plan_and_law():
    return build_plan((0.55, 0.45), BENCH, T=1.0, slack=1.0), exact_law(BENCH, 1, 6)


@pytest.mark.parametrize("site", list(SCALAR_ARGUMENTS))
def test_scalar_arguments_of_the_wrong_type_raise_library_errors(site, plan_and_law):
    call, error = SCALAR_ARGUMENTS[site]
    with pytest.raises(error, match="must be a real number|must be an integer"):
        call(*plan_and_law)
