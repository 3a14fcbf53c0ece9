"""Lint without a linter: no module of the package, the tests or the scripts
imports a name it never uses, the package defines no function or class that
only the tests call, no parameter default that every caller keeps and none
that every caller overrides, and each package module imports only the
modules below it in LAYERS."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "phi6kinks").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + SCRIPTS
# what the commands, the scripts and the benchmark run; tests are not callers
CALLERS = PACKAGE + SCRIPTS + [
    p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "test_smoke.py"]

# the package's modules from the bottom up: each imports only modules listed
# before it, so time evolution knows nothing of the kink model and only the
# command line sees every layer
LAYERS = ["pde", "model", "reporting", "functionals", "effective", "modulation", "scenarios",
          "cli"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def uncalled_definitions(package: dict[str, str], callers: list[str]) -> list[str]:
    """Top-level functions and classes of the ``package`` sources ({module:
    source}) that no name or attribute in the ``callers`` sources reads."""
    read = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}.{node.name}"
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read
    )


def _calls(callers: list[str]) -> dict[str, list[set]]:
    """{name: what each call of that name in the ``callers`` sources passes},
    as a set of keywords and positions; {"*"} for a call that unpacks * or
    **, which may pass any parameter.  A call is matched by name alone."""
    calls: dict[str, list[set]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                unpacks = (any(isinstance(arg, ast.Starred) for arg in node.args)
                           or any(kw.arg is None for kw in node.keywords))
                calls.setdefault(name, []).append(
                    {"*"} if unpacks else {kw.arg for kw in node.keywords}
                    | set(range(len(node.args))))
    return calls


def _defaulted(package: dict[str, str]):
    """(qualified name, function name, parameter, position in a call or
    None) of each parameter with a default, of the functions and methods in
    the ``package`` sources ({module: source})."""
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = methods.get(id(node))
            positional = node.args.posonlyargs + node.args.args
            offset = 1 if cls else 0  # a method's call passes self implicitly
            qualname = f"{module}.{cls}.{node.name}" if cls else f"{module}.{node.name}"
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(node.args.defaults):
                    yield qualname, node.name, arg.arg, i - offset
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield qualname, node.name, arg.arg, None


def unset_parameters(package: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters with a default, of the functions and methods in the
    ``package`` sources ({module: source}), that no call in the ``callers``
    sources passes by keyword or by position: options that only their
    default reaches.  A call that unpacks * or ** passes every parameter."""
    calls = _calls(callers)
    unset = []
    for qualname, function, name, index in _defaulted(package):
        got = set().union(*calls.get(function, []))
        if "*" not in got and name not in got and index not in got:
            unset.append(f"{qualname}({name})")
    return sorted(unset)


def overridden_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters with a default, of the functions and methods in the
    ``package`` sources ({module: source}), that every call in the
    ``callers`` sources passes by keyword or by position, of which there is
    one or more: options whose default only the tests reach.  A call that
    unpacks * or ** is not known to pass any parameter."""
    calls = _calls(callers)
    return sorted(
        f"{qualname}({name})" for qualname, function, name, index in _defaulted(package)
        if calls.get(function) and all(name in got or index in got for got in calls[function]))


def package_imports(source: str) -> set[str]:
    """The phi6kinks modules that a module's source imports, relatively or by
    the package's name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["phi6kinks" if node.level else "", node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("phi6kinks."))
    return found


def layering_violations(package: dict[str, str]) -> list[str]:
    """Each import in the ``package`` sources ({module: source}) of a module
    that LAYERS does not list before the importer."""
    return sorted(
        f"{module} imports {other}"
        for module, source in package.items()
        for other in package_imports(source)
        if LAYERS.index(other) >= LAYERS.index(module)
    )


def test_detector_flags_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.sum(d)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 1)"]


def test_detector_flags_uncalled_definitions():
    module = (
        "def f():\n    g()\n"
        "def g():\n    pass\n"
        "class C:\n    def h(self):\n        pass\n"
        "def only_tested():\n    pass\n"
    )
    callers = [module, "from m import C, only_tested\nC().h\nm.f()\n"]
    assert uncalled_definitions({"m": module}, callers) == ["m.only_tested"]


def test_detector_flags_unset_parameters():
    module = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    g(a)\n"
        "def g(w=0):\n    pass\n"
        "class C:\n    def h(self, x=0, y=1):\n        pass\n"
        "def only_defaults(v=0):\n    pass\n"
    )
    callers = [module, "f(0, 5, d=4)\nC().h(1)\ng(*args)\nonly_defaults()\n"]
    assert unset_parameters({"m": module}, callers) == [
        "m.C.h(y)", "m.f(c)", "m.f(e)", "m.only_defaults(v)"]


def test_detector_flags_overridden_defaults():
    module = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    g(a)\n"
        "def g(w=0):\n    pass\n"
        "class C:\n    def h(self, x=0, y=1):\n        pass\n"
        "def uncalled(v=0):\n    pass\n"
    )
    callers = [module, "f(0, 5, d=4)\nf(0, b=2, c=3, d=5)\nC().h(1)\nC().h(x=2)\ng(*args)\n"]
    assert overridden_defaults({"m": module}, callers) == ["m.C.h(x)", "m.f(b)", "m.f(d)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_defines_only_what_is_called():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert uncalled_definitions(package, [p.read_text() for p in CALLERS]) == []


def test_package_parameters_are_each_set_by_a_caller():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unset_parameters(package, [p.read_text() for p in CALLERS]) == []


def test_package_defaults_are_each_kept_by_a_caller():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert overridden_defaults(package, [p.read_text() for p in CALLERS]) == []


def test_detector_flags_layering_violations():
    package = {
        "pde": "from .model import MARGIN\nimport numpy as np\n",
        "model": "import math\n",
        "modulation": "from . import pde\nimport phi6kinks.model\n"
                      "from phi6kinks.scenarios import f\n",
        "scenarios": "from phi6kinks import cli, modulation\n",
    }
    assert layering_violations(package) == [
        "modulation imports scenarios", "pde imports model", "scenarios imports cli"]


def test_package_imports_follow_the_layers():
    package = {p.stem: p.read_text() for p in PACKAGE if p.stem != "__init__"}
    assert sorted(package) == sorted(LAYERS)
    assert layering_violations(package) == []
