"""The demos stay in step with the library without being run.

Each demo takes up to a minute, so this reads them instead: every demo
compiles, every name it imports from semvb resolves, every semvb function
or class it calls still exists under the name it uses, and accepts the
positional and keyword arguments the call passes.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def semvb_names(tree: ast.Module) -> dict[str, object]:
    """The names the demo imports from semvb or its modules, resolved."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(
                ".")[0] == "semvb":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{node.module} has no {alias.name} (line {node.lineno})")
                bound[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    return bound


def resolve(func: ast.expr, bound: dict[str, object]):
    """The semvb object a call's func names, or None if it names none.

    A dotted name rooted at a semvb import must resolve attribute by
    attribute; a missing attribute fails the test.
    """
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = resolve(func.value, bound)
        if owner is None:
            return None
        assert hasattr(owner, func.attr), (
            f"{ast.unparse(func)}: no attribute {func.attr} "
            f"(line {func.lineno})")
        return getattr(owner, func.attr)
    return None


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_matches_library(demo):
    source = demo.read_text()
    compile(source, str(demo), "exec")
    tree = ast.parse(source)
    bound = semvb_names(tree)
    assert bound, f"{demo.name} imports nothing from semvb"
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(node.func, bound)
        if target is None or not callable(target):
            continue
        checked += 1
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(target).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{demo.name} line {node.lineno}: "
                        f"{ast.unparse(node.func)}(...) {exc}")
    assert checked, f"{demo.name} calls no semvb function"


def test_demos_found():
    assert {d.name for d in DEMOS} >= {"full_data_workflow.py",
                                       "missing_data_workflow.py"}
