"""The package's names: every exported name resolves, none twice, every
module-level name is used somewhere and defined in one module only, no
function only forwards to a method, every parameter is read, every name
the benchmark's layer tracer wraps exists, and every value type but
``Scalar`` is built on the ``lincomb`` core.  The test modules define each
helper name once and import no other test module."""

from __future__ import annotations

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

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


def test_every_traced_name_resolves():
    # ``perfbench/run.py --trace 1`` wraps these names; a missing one breaks
    # that run, so it fails here first.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from layertrace import TARGETS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    missing = []
    for _, module, cls_name, names in TARGETS:
        mod = importlib.import_module(f"z3forms.{module}")
        owner = vars(mod) if cls_name is None else vars(getattr(mod, cls_name))
        missing += [f"{module}.{cls_name or ''}.{name}" for name in names
                    if name not in owner]
    assert missing == []


def test_every_word_value_is_a_lincomb():
    # One linear structure: a value type that writes its own +, -, scale,
    # == and hash instead of inheriting them fails here.
    apart = [cls.__name__ for cls in _KINDS if cls is not Scalar
             and not issubclass(cls, LinComb)]
    assert apart == []
