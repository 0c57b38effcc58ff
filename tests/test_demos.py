"""The demos, README and the package's docs stay in step with the library
without being run.

Each demo takes up to a minute, and README's snippets use data they do not
define, so this reads them instead: every demo and every ```python block of
README compiles, every name it imports from semvb resolves, every semvb
function or class it calls still exists under the name it uses, and accepts
the positional and keyword arguments the call passes. A README block may
call what an earlier block imported. Every backticked dotted name in README
or in the package's docstrings and comments that starts at a semvb module or
class names something that still exists.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import tokenize
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


# A backticked dotted name, possibly followed by call arguments; a name that
# ends in a wildcard (`grad_log_h_*`) does not match.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?![\w*])")
FILE_SUFFIXES = {"py", "csv", "md", "txt", "json", "toml"}


def doc_texts():
    """(file, first line, text) of README and of each docstring or comment
    of the package."""
    yield "README.md", 1, (ROOT / "README.md").read_text()
    for path in sorted((ROOT / "src" / "semvb").glob("*.py")):
        with open(path, "rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type in (tokenize.STRING, tokenize.COMMENT):
                    yield path.name, tok.start[0], tok.string


def semvb_roots() -> dict[str, object]:
    """The semvb package, its modules and the classes they define, by name."""
    import semvb
    roots = {"semvb": semvb}
    for info in pkgutil.iter_modules(semvb.__path__):
        module = importlib.import_module(f"semvb.{info.name}")
        roots[info.name] = module
        roots.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj)
                     and obj.__module__.startswith("semvb"))
    return roots


def test_docs_name_only_existing_code():
    roots = semvb_roots()
    checked, broken = 0, []
    for name, line, text in doc_texts():
        for match in DOTTED.finditer(text):
            head, *attrs = match[1].split(".")
            if head not in roots or attrs[-1] in FILE_SUFFIXES:
                continue
            checked += 1
            owner = roots[head]
            for attr in attrs:
                if attr in getattr(owner, "__dataclass_fields__", {}):
                    break  # a field without a default is no class attribute
                if not hasattr(owner, attr):
                    at = line + text.count("\n", 0, match.start())
                    broken.append(f"{name}:{at} `{match[1]}`")
                    break
                owner = getattr(owner, attr)
    assert checked >= 10, "the docs' references to semvb were not found"
    assert not broken, "docs name code that does not exist: " + ", ".join(
        broken)
