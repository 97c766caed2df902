"""Module layout: one home for the path table and one for the sum-pool pass.

Only ``paths`` reads the path table (``_table``, ``_row_products``,
``_build_table``); every other module goes through ``path_lifting`` and
``path_activations``.  Only ``metrics`` runs the sum-pool pass
(``run(..., sum_pools=True)``); the path norm gradient and the
per-coordinate norm differences reach it through ``metrics``.  The path
cap has one setting, ``PATHLIFT_PATH_CAP``, read only by ``paths``, and no
function takes a ``cap`` or an ``eps``: values no caller varies are
constants.
"""

import ast
from pathlib import Path

import pathlift

SRC = Path(pathlift.__file__).parent
TABLE_NAMES = {"_table", "_row_products", "_build_table"}
CONSTANT_NAMES = {"cap", "eps"}


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


def _parameters(tree):
    """(function, parameter) for every parameter of every function and lambda."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            extra = [p for p in (a.vararg, a.kwarg) if p is not None]
            for p in a.posonlyargs + a.args + a.kwonlyargs + extra:
                yield getattr(node, "name", "<lambda>"), p.arg


def test_the_path_cap_and_the_step_are_no_parameters():
    texts = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    declared = sorted(
        f"{m}.{fn}({arg})" for m, text in texts.items()
        for fn, arg in _parameters(ast.parse(text)) if arg in CONSTANT_NAMES
    )
    cap_readers = sorted(m for m, text in texts.items() if "PATHLIFT_PATH_CAP" in text)
    assert (declared, cap_readers) == ([], ["paths"])
