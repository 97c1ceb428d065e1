"""Structure of the package source, checked on its syntax trees.

No module imports a name it never uses, ``randgen`` depends on nothing in
the package but ``core``, ``harness`` reaches into no private name of
``checks``, ``checks`` validates and factors a Hermitian pair only in
``SharedPair``, no code outside ``SharedPair`` reads its private members,
``checks`` and ``means`` reach LAPACK's eigensolvers
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


def test_checks_validates_and_factors_pairs_only_in_shared_pair():
    tree = _tree(PKG / "checks.py")
    (pair,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SharedPair"]
    inside = {id(node) for node in ast.walk(pair)}
    outside = sorted(
        f"{node.id} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in ("as_hermitian_array", "_eigh")
        and id(node) not in inside
    )
    assert not outside, f"checks.py validates or factors outside SharedPair: {', '.join(outside)}"


def test_shared_pair_private_members_stay_inside_it():
    # what a pair keeps, and when, is the pair's own rule (a failing step keeps nothing)
    private = {"_keep", "_kept", "_factored"}
    outside = []
    for path in MODULES:
        tree = _tree(path)
        inside = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "SharedPair"
            for node in ast.walk(cls)
        }
        outside += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in private and id(node) not in inside
        ]
    assert not outside, f"SharedPair private members used outside it: {', '.join(outside)}"


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
