"""Module layout: one home for the path table and one for the sum-pool pass.

Only ``paths`` reads the path table (``_table``, ``_row_products``,
``_build_table``); every other module goes through ``path_lifting`` and
``path_activations``.  Only ``metrics`` runs the sum-pool pass
(``run(..., sum_pools=True)``); the path norm gradient and the
per-coordinate norm differences reach it through ``metrics``.
"""

import ast
from pathlib import Path

import pathlift

SRC = Path(pathlift.__file__).parent
TABLE_NAMES = {"_table", "_row_products", "_build_table"}


def _names(tree):
    """Every identifier the module names: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _runs_sum_pools(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if fn == "run" and any(
                k.arg == "sum_pools" and not (isinstance(k.value, ast.Constant) and not k.value.value)
                for k in node.keywords
            ):
                return True
    return False


def test_only_paths_reads_the_path_table_and_only_metrics_runs_sum_pools():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {"paths", "metrics", "lipschitz", "pruning"} <= set(modules)
    table_readers = sorted(m for m, tree in modules.items() if TABLE_NAMES & set(_names(tree)))
    sum_pool_runners = sorted(m for m, tree in modules.items() if _runs_sum_pools(tree))
    assert (table_readers, sum_pool_runners) == (["paths"], ["metrics"])
