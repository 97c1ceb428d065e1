"""Structure of the package source, checked on its syntax trees.

No module imports a name it never uses, ``randgen`` depends on nothing in
the package but ``core``, ``harness`` reaches into no private name of
``checks``, ``checks`` validates and factors a Hermitian pair only in
``PairStack``, every name a module lists in ``__all__`` is bound in it,
no function of ``checks`` and no module-level function of ``harness``
keeps a memo across calls, ``checks`` and
``means`` reach LAPACK's eigensolvers
only through ``core``, every import is at module level, no source
line is over 100 characters, and every function and class the package
defines is named somewhere in the repository's code.  The re-exports in
``__init__.py`` are not checked for use.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "opmeans"
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"core", "checks", "harness", "means", "randgen"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_randgen_imports_only_core():
    package_modules = set()
    for node in ast.walk(_tree(PKG / "randgen.py")):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                package_modules.add(node.module)
            else:
                package_modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opmeans"):
            package_modules.add(node.module)
        elif isinstance(node, ast.Import):
            package_modules.update(a.name for a in node.names if a.name.startswith("opmeans"))
    assert package_modules <= {"core"}, f"randgen imports {sorted(package_modules)}"


def test_harness_uses_no_private_checks_name():
    private = sorted(
        {
            node.attr
            for node in ast.walk(_tree(PKG / "harness.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "checks"
            and node.attr.startswith("_")
        }
    )
    assert not private, f"harness uses private checks names: {private}"


def test_checks_validates_and_factors_pairs_only_in_pair_stack():
    tree = _tree(PKG / "checks.py")
    (pair,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PairStack"]
    inside = {id(node) for node in ast.walk(pair)}
    outside = sorted(
        f"{node.id} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in ("as_hermitian_array", "_eigh")
        and id(node) not in inside
    )
    assert not outside, f"checks.py validates or factors outside PairStack: {', '.join(outside)}"


def _bound_at_module_level(tree: ast.Module) -> set:
    """The names a module binds at its top level: defs, classes, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")), ids=lambda p: p.stem)
def test_every_exported_name_is_bound(path):
    # a name left in __all__ after a rename breaks `from module import *` only
    # when some caller runs it
    tree = _tree(path)
    exported = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    missing = sorted(set().union(*exported) - _bound_at_module_level(tree))
    assert not missing, f"{path.name} exports names it does not bind: {', '.join(missing)}"


def _is_cache(node) -> bool:
    """Whether ``node`` names functools.cache or lru_cache, or calls one."""
    return ast.unparse(getattr(node, "func", node)).rpartition(".")[2] in ("cache", "lru_cache")


def test_checks_keeps_no_memo_across_calls():
    # a group's values are computed for the call that asks for them and dropped
    # with it: no function of checks is wrapped in functools.cache or lru_cache
    cached = sorted(
        f"{func.name} (line {func.lineno})"
        for func in ast.walk(_tree(PKG / "checks.py"))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_is_cache, func.decorator_list))
    )
    assert not cached, f"checks.py keeps a memo across calls: {', '.join(cached)}"


def test_harness_keeps_no_memo_across_calls():
    # a writer's encodings live for the report it writes: no module-level function
    # of harness is wrapped in functools.cache or lru_cache, and no module-level
    # name is bound to such a wrapper; a cache made inside one writer call is allowed
    cached = []
    for top in _tree(PKG / "harness.py").body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes = top.decorator_list
        elif isinstance(top, (ast.Assign, ast.AnnAssign)) and top.value is not None:
            nodes = list(ast.walk(top.value))
        else:
            continue
        cached += [f"line {node.lineno}" for node in nodes if _is_cache(node)]
    assert not cached, f"harness.py keeps a memo across calls: {', '.join(sorted(set(cached)))}"


_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals", "schur"}


@pytest.mark.parametrize("name", ["checks", "means"])
def test_eigensolves_go_through_core(name):
    # core._eigh and core._eigvalsh turn a LAPACK failure into
    # EigenConvergenceError, for a stack as for one matrix
    tree = _tree(PKG / f"{name}.py")
    direct = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in _EIGENSOLVERS
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    ]
    direct += [
        f"from {node.module} import ... (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
    ]
    assert not direct, f"{name}.py calls an eigensolver directly: {', '.join(direct)}"


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")), ids=lambda p: p.stem)
def test_no_function_level_imports(path):
    # a module's dependencies are read off its head, and an import cycle shows at import time
    inner = sorted(
        f"{func.name} (line {node.lineno})"
        for func in ast.walk(_tree(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert not inner, f"{path.name} imports inside functions: {', '.join(inner)}"


def test_no_line_over_100_characters():
    long = [
        f"{path.name}:{number} ({len(line)})"
        for path in sorted(PKG.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long, f"source lines over 100 characters: {', '.join(long)}"


def test_every_definition_is_referenced():
    # a function or class that nothing names (a call, an attribute, an __all__
    # string) is code kept without a use
    root = PKG.parent.parent
    files = [p for d in ("src", "tests", "demos", "bench") for p in sorted((root / d).rglob("*.py"))]
    names = set()
    for path in files:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    unused = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PKG.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in names
    )
    assert not unused, f"definitions nothing references: {', '.join(unused)}"
