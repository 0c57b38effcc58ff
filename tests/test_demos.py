"""The demos and README's code stay in step with the library without being run.

Each demo takes up to a minute, and README's snippets use data they do not
define, so this reads them instead: every demo and every ```python block of
README compiles, every name it imports from semvb resolves, every semvb
function or class it calls still exists under the name it uses, and accepts
the positional and keyword arguments the call passes. A README block may
call what an earlier block imported.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)


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


def check_calls(name: str, source: str, in_scope=None) -> dict:
    """Compile source and bind each of its semvb calls, with its own semvb
    imports on top of in_scope; returns the semvb names then in scope."""
    compile(source, name, "exec")
    tree = ast.parse(source)
    imported = semvb_names(tree)
    assert imported, f"{name} imports nothing from semvb"
    bound = {**(in_scope or {}), **imported}
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
            pytest.fail(f"{name} line {node.lineno}: "
                        f"{ast.unparse(node.func)}(...) {exc}")
    assert checked, f"{name} calls no semvb function"
    return bound


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_matches_library(demo):
    check_calls(demo.name, demo.read_text())


def test_readme_code_matches_library():
    assert len(README_BLOCKS) >= 2, "README's python blocks were not found"
    in_scope = {}
    for i, block in enumerate(README_BLOCKS, start=1):
        in_scope = check_calls(f"README python block {i}", block, in_scope)


def test_demos_found():
    assert {d.name for d in DEMOS} >= {"full_data_workflow.py",
                                       "missing_data_workflow.py"}
