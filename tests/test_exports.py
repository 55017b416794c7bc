"""The package's names: every exported name resolves, none twice, every
module-level name is used somewhere and defined in one module only, no
function only forwards to a method, every parameter is read, every name
the benchmark's layer tracer wraps exists, and every value type but
``Scalar`` is built on the ``lincomb`` core.  The test modules define each
helper name once and import no other test module.

The package namespace is lazy: a name's module is imported when the name
is first read.  The checks of what an import loads run in a fresh
interpreter, since this one has loaded every module already."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import z3forms
from z3forms.expr import _KINDS
from z3forms.lincomb import LinComb
from z3forms.scalar import Scalar

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in z3forms.__all__ if not hasattr(z3forms, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(z3forms.__all__) == len(set(z3forms.__all__))


def _loaded_after(code: str) -> set[str]:
    """The z3forms modules a fresh interpreter has loaded after ``code``."""
    probe = code + "\nimport sys; print(*(m for m in sys.modules if m.split('.')[0] == 'z3forms'))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_importing_the_package_loads_only_the_scalars():
    assert _loaded_after("import z3forms") == {"z3forms", "z3forms.scalar"}


def test_verify_loads_no_expression_language():
    assert {"z3forms.expr", "z3forms.cli"}.isdisjoint(_loaded_after("import z3forms.verify"))


def test_a_curvature_loads_no_parser_verify_or_other_algebras():
    loaded = _loaded_after("from z3forms import curvature_components, field_strength")
    assert "z3forms.gauge" in loaded
    assert loaded.isdisjoint({f"z3forms.{m}" for m in
                              ("expr", "verify", "grassmann", "matrices", "cli")})


def test_a_submodule_resolves_before_it_is_imported():
    code = "import z3forms; assert z3forms.gauge.__name__ == 'z3forms.gauge'"
    assert "z3forms.gauge" in _loaded_after(code)


def test_every_exported_name_is_its_modules_object():
    apart = [f"{module}.{name}" for module, names in z3forms._EXPORTS.items()
             for name in names
             if getattr(z3forms, name) is not getattr(importlib.import_module(
                 f"z3forms.{module}"), name)]
    assert apart == []
    # The function, not the module of the same name.
    assert z3forms.scalar is importlib.import_module("z3forms.scalar").scalar


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        z3forms.nope
    assert not hasattr(z3forms, "nope") and not hasattr(z3forms, "gauge.nope")


def test_dir_and_star_import_see_every_name():
    assert set(z3forms.__all__) <= set(dir(z3forms))
    namespace: dict = {}
    exec("from z3forms import *", namespace)
    assert [name for name in z3forms.__all__
            if namespace.get(name) is not getattr(z3forms, name)] == []


def _module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each function, class and constant a module defines."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names = t.elts if isinstance(t, ast.Tuple) else [t]
                out += [(e.id, node.lineno) for e in names if isinstance(e, ast.Name)]
    return [(name, line) for name, line in out if not name.startswith("__")]


def _defined_twice(paths, skip: str = "__") -> dict[str, list[str]]:
    """Names not starting with ``skip`` that more than one module defines."""
    owners: dict[str, set[str]] = {}
    for path in paths:
        for name, _ in _module_level_names(ast.parse(path.read_text())):
            if not name.startswith(skip):
                owners.setdefault(name, set()).add(path.name)
    return {name: sorted(m) for name, m in owners.items() if len(m) > 1}


def test_every_module_level_name_is_used():
    # A name counts as used when it appears as a word anywhere in src/,
    # tests/ or perfbench/ outside the line that defines it.
    words: Counter[str] = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    unused = []
    for path in sorted((ROOT / "src" / "z3forms").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for name, line in _module_level_names(ast.parse(text)):
            on_own_line = re.findall(rf"\b{re.escape(name)}\b", lines[line - 1])
            if words[name] <= len(on_own_line):
                unused.append(f"{path.name}:{name}")
    assert unused == []


def test_no_two_modules_define_one_name():
    # The check above counts words over the whole tree, so a name that two
    # modules define passes it while only one of the two is used.
    assert _defined_twice(sorted((ROOT / "src" / "z3forms").glob("*.py"))) == {}


def test_no_two_test_modules_define_one_name():
    # Test data that several modules use lives once, in tests/shared.py or
    # tests/strategies.py; the tests themselves may share names.
    assert _defined_twice(sorted((ROOT / "tests").glob("*.py")), skip="test_") == {}


def test_no_test_module_imports_another():
    imports = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            imports += [f"{path.name}: {n}" for n in names if n.split(".")[-1].startswith("test_")]
    assert imports == []


def test_no_function_only_forwards_to_a_method():
    # One spelling per operation: a module-level function whose body,
    # docstring aside, is ``return <first parameter>.<attr>(...)`` is a
    # second name for that method.
    forwarders = []
    for path in sorted((ROOT / "src" / "z3forms").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            params = node.args.posonlyargs + node.args.args
            if len(body) != 1 or not params or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == params[0].arg):
                forwarders.append(f"{path.stem}.{node.name}")
    assert forwarders == []


def test_every_parameter_is_read():
    # Dunder methods keep the signatures their protocol fixes, and self
    # and cls are bound by the call, so neither has to read them.
    unread = []
    for path in sorted((ROOT / "src" / "z3forms").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unread += [f"{path.name}:{node.name}.{p}" for p in params
                       if p not in ("self", "cls") and p not in read]
    assert unread == []


def _layertrace():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("layertrace")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_every_traced_name_resolves():
    # ``perfbench/run.py --trace 1`` wraps these names; a missing one breaks
    # that run, so it fails here first.
    missing = []
    for _, module, cls_name, names in _layertrace().TARGETS:
        mod = importlib.import_module(f"z3forms.{module}")
        owner = vars(mod) if cls_name is None else vars(getattr(mod, cls_name))
        missing += [f"{module}.{cls_name or ''}.{name}" for name in names
                    if name not in owner]
    assert missing == []


def test_traced_package_names_resolve_to_the_originals_after_uninstall():
    # The package keeps no name it resolves (it binds only the scalars), so
    # a name first read while the tracer is installed does not keep the
    # wrapper after ``uninstall``.
    assert [name for name in z3forms.__all__ if name in vars(z3forms)] \
        == list(z3forms._EXPORTS["scalar"])
    layertrace = _layertrace()
    originals = {name: getattr(importlib.import_module(f"z3forms.{module}"), name)
                 for _, module, cls_name, names in layertrace.TARGETS if cls_name is None
                 for name in names if name in z3forms.__all__}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert [name for name, f in originals.items() if getattr(z3forms, name) is f] == []
    finally:
        tracer.uninstall()
    assert [name for name, f in originals.items() if getattr(z3forms, name) is not f] == []


def test_every_word_value_is_a_lincomb():
    # One linear structure: a value type that writes its own +, -, scale,
    # == and hash instead of inheriting them fails here.
    apart = [cls.__name__ for cls in _KINDS if cls is not Scalar
             and not issubclass(cls, LinComb)]
    assert apart == []
