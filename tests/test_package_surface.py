"""The package holds only what runs: every public top-level def or class is used outside its definition.

A use is a name or an attribute in package or benchmark code, or, in the
benchmark, a string that is an identifier (how `perfbench/spans.py` names the
functions it hooks).  Docstrings and the tests do not count, so an oracle
that only tests call belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "l0control").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def docstring_nodes(tree):
    """ids of the docstring constants of the module and of every def and class in it."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node, clean=False) is not None
    }


def unused_public_defs(src, bench):
    """'module.name' of every public top-level def or class in src that no other code uses."""
    defs, uses = [], []
    for path in src + bench:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = docstring_nodes(tree)
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFS) else None
            if path in src and owner and not owner.startswith("_"):
                defs.append((path, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used = node.id
                elif isinstance(node, ast.Attribute):
                    used = node.attr
                elif (path in bench and isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier() and id(node) not in docstrings):
                    used = node.value
                else:
                    continue
                uses.append((used, path, owner))
    return [
        f"{path.stem}.{name}"
        for path, name in defs
        if not any(used == name and (where, owner) != (path, name) for used, where, owner in uses)
    ]


def test_every_public_definition_is_used_by_the_package_or_the_benchmark():
    assert SRC and BENCH
    assert unused_public_defs(SRC, BENCH) == []


def test_a_use_inside_its_own_definition_or_a_docstring_does_not_count(tmp_path):
    src, bench = tmp_path / "mod.py", tmp_path / "bench.py"
    src.write_text(
        '"""used_in_doc"""\n'
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def used_in_doc():\n    pass\n\n"
        "def called():\n    pass\n\n"
        "def named():\n    pass\n\n"
        "class _Private:\n    pass\n"
    )
    bench.write_text('"""used_in_doc"""\nimport mod\nmod.called()\nTARGETS = ("named",)\n')
    assert unused_public_defs([src], [bench]) == ["mod.recursive", "mod.used_in_doc"]
