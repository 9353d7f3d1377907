"""Every name a package module imports is used in that module, and every
name a package module binds is used somewhere."""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "connexion"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = ("src", "tests", "perfbench")


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read as a name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detector_flags_only_unused_names():
    src = ("import math\nimport os.path\nfrom a import b, c as d\n"
           "x = os.path.join(d)\n")
    assert unused_imports(src) == ["math", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _references(node) -> collections.Counter:
    """Names read under ``node``: names, attributes, imported names and
    string constants (``setattr`` by name), docstrings left out."""
    docs = {id(n.body[0].value) for n in ast.walk(node)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docs):
            out[n.value] += 1
    return out


def _registered_by_click(node) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _bindings(tree):
    """(name, top-level statement) for each name a module binds."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (isinstance(stmt, ast.FunctionDef)
                    and _registered_by_click(stmt)):
                yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and n.id != "__version__":
                        yield n.id, stmt


def dead_names(package_sources: dict, reader_sources: list) -> list:
    """Names bound at module level in ``package_sources`` (file -> source)
    that no source reads outside the statement binding them."""
    refs = collections.Counter()
    for source in reader_sources:
        refs.update(_references(ast.parse(source)))
    dead = []
    for path, source in package_sources.items():
        for name, stmt in _bindings(ast.parse(source)):
            if refs[name] - _references(stmt)[name] <= 0:
                dead.append(f"{path}:{name}")
    return dead


def test_dead_name_detector():
    pkg = {"m.py": ('"""LIMIT is documented here."""\n'
                    "import click\n"
                    "LIMIT = 1   # LIMIT\n"
                    "A, B = 2, 3\n"
                    "def loop(n):\n    return loop(n - 1) + A\n"
                    "def _shown():\n    pass\n"
                    "@click.group()\ndef main():\n    pass\n"
                    "@main.command()\ndef run():\n    pass\n")}
    reader = "from m import B\nsetattr(m, '_shown', None)\n"
    assert dead_names(pkg, [pkg["m.py"], reader]) == ["m.py:LIMIT", "m.py:loop"]


def test_no_dead_module_names():
    package = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for d in READERS for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_names(package, readers) == []
