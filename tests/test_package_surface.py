"""The package holds only what runs, at the top level and one level down.

- Every public top-level def or class is used outside its definition.
- Every public method, property or `self.` attribute of a package class is
  read outside its definition, and so is every public field of a package
  dataclass, outside its class; a `dataclasses.fields()` pass over a class
  reads all of its fields.
- Every parameter with a default is passed by some call: a default that no
  call overrides is a constant, not a knob.

For the first two, a use is a name or an attribute (for a member, an
attribute read) in package or benchmark code, or, in the benchmark, a string
that is an identifier (how `perfbench/spans.py` names what it hooks).  Docstrings and
the tests do not count, so what only tests use belongs in `tests/oracles.py`.
For the third, a call in the package, the benchmark or the tests counts; a
call by a class's name passes its `__init__` parameters.  All three match
names only, so a member named like something else (`shape`, read off every
array) passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "l0control").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def docstring_nodes(tree):
    """ids of the docstring constants of the module and of every def and class in it."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node, clean=False) is not None
    }


def bench_string(node, docstrings):
    """The identifier a benchmark string constant spells, or None."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
            and id(node) not in docstrings):
        return node.value
    return None


def unused_public_defs(src, bench):
    """'module.name' of every public top-level def or class in src that no other code uses."""
    defs, uses = [], []
    for path in src + bench:
        tree = parse(path)
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
                elif path in bench:
                    used = bench_string(node, docstrings)
                else:
                    continue
                uses.append((used, path, owner))
    return [
        f"{path.stem}.{name}"
        for path, name in defs
        if not any(used == name and (where, owner) != (path, name) for used, where, owner in uses)
    ]


def unused_members(src, bench):
    """'module.Class.name' of every public method, property or self attribute of a class in src that no code reads.

    A read is an attribute load in package or benchmark code outside the
    method's own body, or an identifier string in the benchmark; the
    assignments that make a self attribute are its definition.
    """
    members, reads = {}, []
    for path in src + bench:
        tree = parse(path)
        docstrings = docstring_nodes(tree)
        for node in ast.walk(tree):
            if path in src and isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCS) and not item.name.startswith("_"):
                        members[path, node.name, item.name] = {id(n) for n in ast.walk(item)}
                for target in ast.walk(node):
                    if (isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                            and isinstance(target.value, ast.Name) and target.value.id == "self"
                            and not target.attr.startswith("_")):
                        members.setdefault((path, node.name, target.attr), set())
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                reads.append((node.attr, id(node)))
            elif path in bench and bench_string(node, docstrings):
                reads.append((node.value, id(node)))
    return [
        f"{path.stem}.{cls}.{name}"
        for (path, cls, name), own in members.items()
        if not any(read == name and where not in own for read, where in reads)
    ]


def _last_name(node):
    """The name a Name or an Attribute node ends in, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def unused_fields(src, bench):
    """'module.Class.name' of every public field of a dataclass in src that no code reads outside the class.

    A read is an attribute load in package or benchmark code, an identifier
    string in the benchmark, or a `fields(Class)` call, which reads every
    field of the class it names.
    """
    fields, reads, passes = {}, [], set()
    for path in src + bench:
        tree = parse(path)
        docstrings = docstring_nodes(tree)
        for node in ast.walk(tree):
            if path in src and isinstance(node, ast.ClassDef) and any(
                    _last_name(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
                own = {id(n) for n in ast.walk(node)}
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                            and not item.target.id.startswith("_")):
                        fields[path, node.name, item.target.id] = own
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                reads.append((node.attr, id(node)))
            elif path in bench and bench_string(node, docstrings):
                reads.append((node.value, id(node)))
            elif isinstance(node, ast.Call) and _last_name(node.func) == "fields" and node.args:
                passes.add(_last_name(node.args[0]))
    return [
        f"{path.stem}.{cls}.{name}"
        for (path, cls, name), own in fields.items()
        if cls not in passes and not any(read == name and where not in own for read, where in reads)
    ]


def unused_defaults(src, callers):
    """'module.function(param)' of every parameter with a default in src that no call in src or callers passes.

    A call matches by the callee's last name (a method by its attribute, an
    `__init__` by its class); it passes a parameter by keyword, by position,
    or through a `*` or `**` argument.
    """
    params, calls = [], []
    for path in src + callers:
        tree = parse(path)
        methods = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((_last_name(node.func), float("inf") if spread else len(node.args),
                              {k.arg for k in node.keywords}))
            elif path in src and isinstance(node, FUNCS):
                params.extend(_defaulted(path, node, methods.get(id(node))))
    return [
        label
        for label, callee, arg, position in params
        if not any(name == callee and (arg in keywords or None in keywords or (position is not None and n > position))
                   for name, n, keywords in calls)
    ]


def _defaulted(path, fn, cls):
    """(label, callee name, parameter, positional index or None) of each of fn's parameters with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if cls and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list) else 0
    callee = cls if cls and fn.name == "__init__" else fn.name
    label = f"{path.stem}.{cls + '.' if cls else ''}{fn.name}"
    first = len(positional) - len(args.defaults)
    out = [(f"{label}({a.arg})", callee, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(f"{label}({a.arg})", callee, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_public_definition_is_used_by_the_package_or_the_benchmark():
    assert SRC and BENCH
    assert unused_public_defs(SRC, BENCH) == []


def test_every_public_member_is_read_by_the_package_or_the_benchmark():
    assert unused_members(SRC, BENCH) == []


def test_every_dataclass_field_is_read_by_the_package_or_the_benchmark():
    assert unused_fields(SRC, BENCH) == []


def test_every_default_is_passed_by_some_call():
    assert TESTS
    assert unused_defaults(SRC, BENCH + TESTS) == []


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


def test_a_member_is_used_only_by_a_read_outside_its_own_body(tmp_path):
    src, bench = tmp_path / "mod.py", tmp_path / "bench.py"
    src.write_text(
        "class Box:\n"
        "    def __init__(self, n):\n"
        "        self.n, self.size, self.spare, self._own = n, n, n, n\n"
        "        self.spare = n\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    def helper(self):\n        return self.size\n"
        "    def public(self):\n        return self.helper()\n"
        "    @property\n    def hooked(self):\n        return 1\n"
        "    def only_named(self):\n        pass\n"
    )
    bench.write_text('"""hooked"""\nimport mod\nbox = mod.Box(1)\nbox.public()\nbox.n\nonly_named = 1\n'
                     'TARGETS = ("hooked",)\n')
    assert unused_members([src], [bench]) == ["mod.Box.recursive", "mod.Box.only_named", "mod.Box.spare"]


def test_a_field_is_used_only_by_a_read_outside_its_class_or_a_fields_pass(tmp_path):
    src, bench = tmp_path / "mod.py", tmp_path / "bench.py"
    src.write_text(
        "from dataclasses import dataclass, fields\n\n"
        "@dataclass\nclass Point:\n"
        "    x: float\n    y: float\n    z: float = 0.0\n    hooked: int = 0\n    own: int = 0\n    _private: int = 0\n"
        "    def scaled(self):\n        return self.own\n\n"
        "@dataclass(frozen=True)\nclass Row:\n    a: int\n    b: int\n\n"
        "class Plain:\n    unread: int = 0\n\n"
        "def header():\n    return [f.name for f in fields(Row)]\n\n"
        "def first(p):\n    return p.x\n"
    )
    bench.write_text('"""z"""\nimport mod\nmod.Point(1.0, 2.0).y = 3.0\nTARGETS = ("hooked",)\n')
    assert unused_fields([src], [bench]) == ["mod.Point.y", "mod.Point.z", "mod.Point.own"]


def test_a_default_is_in_use_only_when_some_call_passes_it(tmp_path):
    src, tests = tmp_path / "mod.py", tmp_path / "test_mod.py"
    src.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "def spread(a=1, b=2):\n    pass\n\n"
        "class Box:\n"
        "    def __init__(self, n=1, m=2):\n        pass\n"
        "    def method(self, x=1, y=2):\n        def inner(z=0):\n            pass\n        inner()\n"
    )
    tests.write_text(
        "import mod\nmod.f(0, 1, d=3)\nmod.spread(*[1, 2])\nmod.Box(m=2).method(1)\n"
    )
    assert sorted(unused_defaults([src], [tests])) == [
        "mod.Box.__init__(n)", "mod.Box.method(y)", "mod.f(c)", "mod.f(e)", "mod.inner(z)",
    ]
