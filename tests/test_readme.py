"""README's library quick start runs, and shows what it computes: each
expression line with a trailing comment evaluates to a value whose repr is
that comment."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_shows_what_it_computes():
    block = _quick_start()
    lines = block.splitlines()
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown.append((repr(value), comment))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert len(shown) == 5
    for got, want in shown:
        assert got == want
