"""Every name a package module imports is used in that module, every name
a package module binds is used somewhere, and every qualified name the
documents cite resolves."""

import ast
import collections
import importlib
import pathlib
import re

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


def unresolved_names(text: str, owners: dict) -> list:
    """Qualified names ``owner.attr`` inside backticks in ``text``, whose
    owner is a key of ``owners`` (a package module or class), that name no
    attribute or dataclass field of it."""
    out = []
    for span in re.findall(r"`+([^`]+)`+", text):
        for owner, attr in re.findall(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)",
                                      span):
            obj = owners.get(owner)
            if obj is not None and not (
                    hasattr(obj, attr)
                    or attr in getattr(obj, "__dataclass_fields__", {})):
                out.append(f"{owner}.{attr}")
    return out


def test_unresolved_name_detector():
    class Chart:
        at_w = None
    text = ("`Chart.at_w`, ``Chart.gone``, `|w| =\n  Chart.at_w`, "
            "`budget.seconds` and Chart.unquoted")
    assert unresolved_names(text, {"Chart": Chart}) == ["Chart.gone"]


def test_documented_names_resolve():
    # README and the package's docstrings and comments cite the API as
    # `AdaptedChart.leaves`, `Trajectory.interpolate`, `engine.trace_many`:
    # each such name is a module or class of the package with that attribute
    modules = {p.stem: importlib.import_module(f"connexion.{p.stem}")
               for p in MODULES}
    owners = dict(modules)
    for mod in modules.values():
        owners.update((name, obj) for name, obj in vars(mod).items()
                      if isinstance(obj, type)
                      and obj.__module__ == mod.__name__)
    documents = [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]
    assert [(p.name, name) for p in documents
            for name in unresolved_names(p.read_text(encoding="utf-8"),
                                         owners)] == []
