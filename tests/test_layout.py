"""Module layout: one home for the path table, the sum-pool pass and the
chunk rule, no class member that only the tests read, and no bench span
around a name the package no longer has.

Only ``paths`` reads the path table (``_table``, ``_row_products``,
``_build_table``); every other module goes through ``path_lifting`` and
``path_activations``.  Only ``metrics`` runs the sum-pool pass
(``run(..., sum_pools=True)``); the path norm gradient and the
per-coordinate norm differences reach it through ``metrics``.  The path
cap has one setting, ``PATHLIFT_PATH_CAP``, read only by ``paths``, and no
function takes a ``cap`` or an ``eps``: values no caller varies are
constants.  Only ``engine`` names ``_BLOCK_ELEMS``, and only ``engine``
and ``paths`` name ``engine._chunks``: ``paths`` bounds the memory of
``coordinate_sums`` with it, and every per-coordinate score runs one plain
pass per coordinate, with no chunks of its own.  Every public method and
property of a class is read as an attribute in the package or named as one in
``bench/`` or in the README's quick start (which ``test_readme`` runs), and every ``(module, "name", ...)`` target that
``bench/workloads.py`` wraps in a span exists on that pathlift module.
Only ``errors.finite`` silences numpy's floating-point warnings: every
overflow is refused there.  Only ``graph`` decides what a scalar argument
may be: no other module names ``numbers.Real`` or ``numbers.Integral`` or
makes a generator with ``np.random.default_rng``.  Only ``graph`` decides
what an array argument may be: no other module names ``_floats``, and the
engine, which trusts its callers, names neither it nor ``isfinite``.
"""

import ast
import importlib
import re
from pathlib import Path

import pathlift
from test_readme import _quick_start

SRC = Path(pathlift.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
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


def _attributes(tree):
    """Every name the module reads as an attribute, ``.name``."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _members(tree):
    """(class, name) for every public method and property of every class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield node.name, item.name


def test_every_class_member_has_a_reader_outside_the_tests():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_attributes, trees.values()))
    bench = "\n".join([*(p.read_text() for p in sorted(BENCH.glob("*.py"))), _quick_start()])
    unread = sorted(
        f"{m}.{cls}.{name}" for m, tree in trees.items() for cls, name in _members(tree)
        if name not in read and not re.search(rf"\.{name}\b", bench)
    )
    assert unread == []


def test_only_engine_names_the_chunk_size():
    names = {p.stem: set(_names(ast.parse(p.read_text()))) for p in sorted(SRC.glob("*.py"))}
    assert sorted(m for m, named in names.items() if "_BLOCK_ELEMS" in named) == ["engine"]
    assert sorted(m for m, named in names.items() if "_chunks" in named) == ["engine", "paths"]


def _instrument_targets(tree):
    """(module, name) of every ``(module, "name", ...)`` tuple in the body of
    an ``instrument_targets`` method."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "instrument_targets":
            for node in ast.walk(fn):
                if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                    module, name = node.elts[:2]
                    if isinstance(module, ast.Name) and isinstance(name, ast.Constant):
                        yield module.id, name.value


def test_every_bench_instrument_target_exists():
    targets = sorted(set(_instrument_targets(ast.parse((BENCH / "workloads.py").read_text()))))
    assert len(targets) >= 20
    missing = [
        f"{module}.{name}" for module, name in targets
        if not hasattr(importlib.import_module(f"pathlift.{module}"), name)
    ]
    assert missing == []


def test_only_the_overflow_guard_silences_numpy():
    sites = [
        f"{p.stem}:{n}" for p in sorted(SRC.glob("*.py"))
        for n, line in enumerate(p.read_text().splitlines(), 1) if "np.errstate" in line
    ]
    assert len(sites) == 1 and sites[0].startswith("errors:")
    guard = next(
        node for node in ast.walk(ast.parse((SRC / "errors.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "finite"
    )
    assert guard.lineno <= int(sites[0].split(":")[1]) <= guard.end_lineno


def test_only_graph_decides_what_a_scalar_argument_may_be():
    deciders = sorted(
        p.stem for p in SRC.glob("*.py")
        if {"Real", "Integral", "default_rng"} & set(_names(ast.parse(p.read_text())))
    )
    assert deciders == ["graph"]


def test_only_graph_decides_what_an_array_argument_may_be():
    names = {p.stem: set(_names(ast.parse(p.read_text()))) for p in sorted(SRC.glob("*.py"))}
    assert sorted(m for m, named in names.items() if "_floats" in named) == ["graph"]
    assert not {"_floats", "isfinite"} & names["engine"]
