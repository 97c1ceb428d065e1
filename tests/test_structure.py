"""Structure of the package source, checked on its syntax trees.

No module imports a name it never uses, ``randgen`` depends on nothing in
the package but ``core``, ``harness`` reaches into no private name of
``checks``, ``run_suite`` and ``_check_determinant`` complete a record's
params in place rather than copy it through ``with_params``, ``checks``
validates and factors a Hermitian pair only in ``PairStack``, every name a module lists in ``__all__`` is bound in it,
no function of ``checks`` and no module-level function of ``harness``
keeps a memo across calls, no suite with configuration axes is judged
record by record through ``harness._each``, ``checks`` names ``DEFAULT_TOL``
only as a parameter default, ``checks`` and ``means`` reach LAPACK's
eigensolvers only through ``core``, no call site throws away eigenvectors
of an ``_eigh``, directly or through a function that returns them, no
module imports scipy, every import
is at module level, no source line is over 100 characters, every
function and class the package defines is named somewhere in the
repository's code, and every link a run reports is named from
``checks._CLAIMS``, whose families are all reported and are named nowhere
else in ``checks``, ``checks`` catches a ``ValueError`` only at its
listed sites, only ``core._fn_values`` clamps values onto a
function's domain, and only ``checks._evaluate`` makes link margins and
records.  The re-exports in ``__init__.py`` are not checked for
use.
"""

import ast
from pathlib import Path

import pytest

from opmeans import checks, harness
from opmeans.core import NormKind

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


def test_run_path_completes_records_in_place():
    # each record is made once: the run path adds its context to the record's own params
    body = {n.name: n for n in _tree(PKG / "harness.py").body if isinstance(n, ast.FunctionDef)}
    for name in ("run_suite", "_check_determinant"):
        calls = {
            node.func.attr
            for node in ast.walk(body[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "with_params" not in calls, f"{name} copies records through with_params"


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


def test_no_suite_with_axes_is_judged_record_by_record():
    # _each makes one record per check call; a suite with configuration axes
    # is judged a dimension group at a time, as one grid over its axes
    (table,) = [node.value for node in _tree(PKG / "harness.py").body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_SUITES"]
    per_record = sorted(
        key.value for key, entry in zip(table.keys, table.values)
        if any(isinstance(n, ast.Call) and ast.unparse(n.func) == "_each" for n in ast.walk(entry))
        and harness._SUITES[key.value].axes(harness.SuiteSpec(key.value))
    )
    assert not per_record, f"suites with axes judged through _each: {', '.join(per_record)}"


def test_checks_names_default_tol_only_as_a_parameter_default():
    # a checker judges at the tol it is given: a step that names DEFAULT_TOL
    # itself would gate, clip or regularize at 1e-8 whatever the caller's tol
    tree = _tree(PKG / "checks.py")
    defaults = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in func.args.defaults + func.args.kw_defaults
        if default is not None
        for node in ast.walk(default)
    }
    named = sorted(
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "DEFAULT_TOL" and id(node) not in defaults
    )
    assert not named, f"checks.py names DEFAULT_TOL outside a parameter default: {', '.join(named)}"


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


def _own_nodes(func):
    """The nodes of a function's body, not those of the functions and lambdas it defines."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        todo += [n for n in ast.iter_child_nodes(node)
                 if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def _callees(call):
    """The names a call may call: ``f(...)``, ``x.f(...)`` or ``(f if c else g)(...)``."""
    funcs = [call.func.body, call.func.orelse] if isinstance(call.func, ast.IfExp) else [call.func]
    return {getattr(f, "id", None) or getattr(f, "attr", None) for f in funcs}


def _assigned(node):
    """(target, value) of an assignment, tuples of equal length paired element by element."""
    pairs = [(t, node.value) for t in node.targets]
    while pairs:
        target, value = pairs.pop()
        if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                and len(target.elts) == len(value.elts)):
            pairs += zip(target.elts, value.elts)
        else:
            yield target, value


def _at(target, paths):
    """The parts of a tuple target at ``paths``, those it has."""
    for path in paths:
        node = target
        for i in path:
            elts = node.elts if isinstance(node, ast.Tuple) else []
            node = elts[i] if i < len(elts) else None
            if node is None or isinstance(node, ast.Starred):
                break
        else:
            yield node


def _result_paths(expr, vectors, slots, prefix=()):
    """The paths into a returned value that hold eigenvectors: a name in ``vectors``, or a call's."""
    if isinstance(expr, ast.Tuple):
        for i, elt in enumerate(expr.elts):
            if isinstance(elt, ast.Starred):  # later positions depend on its length
                return
            yield from _result_paths(elt, vectors, slots, prefix + (i,))
    elif isinstance(expr, ast.Call) and _callees(expr) & slots.keys():
        yield from (prefix + p for c in _callees(expr) & slots.keys() for p in slots[c])
    elif any(isinstance(n, ast.Name) and n.id in vectors for n in ast.walk(expr)):
        yield prefix


def _eigenvector_slots(funcs):
    """Per function name, the paths into its result that hold eigenvectors of an ``_eigh``.

    ``_eigh`` returns (w, v); a function that returns a name bound to such a
    slot, or an expression of one, returns eigenvectors at that position too.
    """
    slots = {"_eigh": {(1,)}}
    while True:
        found = {}
        for func in funcs:
            nodes = list(_own_nodes(func))
            vectors = {
                node.id
                for assign in nodes if isinstance(assign, ast.Assign)
                for target, value in _assigned(assign) if isinstance(value, ast.Call)
                for callee in _callees(value) & slots.keys()
                for node in _at(target, slots[callee]) if isinstance(node, ast.Name)
            }
            for ret in nodes:
                if isinstance(ret, ast.Return) and ret.value is not None:
                    paths = set(_result_paths(ret.value, vectors, slots))
                    if paths:
                        found.setdefault(func.name, set()).update(paths)
        grown = {name: paths - slots.get(name, set()) for name, paths in found.items()}
        if not any(grown.values()):
            return slots
        for name, paths in grown.items():
            slots.setdefault(name, set()).update(paths)


def test_no_call_site_throws_away_eigenvectors():
    # a caller that reads only eigenvalues takes them from an eigvalsh: binding
    # the eigenvectors of an eigh to _, here or through a function that returns
    # them (S's eigenpairs once came so, unread, to three judges), is a solve wasted
    trees = {path.name: _tree(path) for path in sorted(PKG.glob("*.py"))}
    funcs = [f for tree in trees.values() for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    slots = _eigenvector_slots(funcs)
    assert slots["_eigh"] == {(1,)} and len(slots) > 1  # the rule reaches through functions
    wasted = sorted(
        f"{name}:{assign.lineno} {ast.unparse(value.func)}"
        for name, tree in trees.items()
        for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
        for target, value in _assigned(assign) if isinstance(value, ast.Call)
        for callee in _callees(value) & slots.keys()
        if any(isinstance(n, ast.Name) and n.id == "_" for n in _at(target, slots[callee]))
    )
    assert not wasted, f"eigenvectors bound to _: {', '.join(wasted)}"


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")), ids=lambda p: p.stem)
def test_no_scipy_imports(path):
    # every factorization is numpy's, so the package runs where scipy is not
    # installed; a module name in a string would be imported by importlib
    names = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append((node.module, node.lineno))
        elif isinstance(node, ast.Constant):
            names.append((node.value, node.lineno))
    scipy = [f"{name} (line {line})" for name, line in names
             if isinstance(name, str) and name.partition(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports scipy: {', '.join(scipy)}"


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


@pytest.fixture(scope="module")
def emitted():
    """The records with links of every suite's default spec at 3 trials and of both searches."""
    search = harness.SuiteSpec("search", dims=(2,))
    reports = [harness.search_counterexample(t, None, 100, search) for t in harness.SEARCH_TARGETS]
    reports += [harness.run_suite(harness.SuiteSpec(s, trials=3)) for s in harness.SUITE_NAMES]
    return [rec for report in reports for rec in report.records if rec.descriptions]


def _is_kind(label: str) -> bool:
    try:
        return NormKind.parse(label).label() == label
    except ValueError:
        return False


def _family(description: str, families) -> str | None:
    """The family a link description names: bare, as family[kind], or as index:family."""
    head, _, kind = description.partition("[")
    index, _, tail = description.rpartition(":")
    if description in families:
        return description
    if head in families and kind.endswith("]") and _is_kind(kind[:-1]):
        return head
    if tail in families and (index in ("eig", "prod")
                             or index.startswith("norm[") and _is_kind(index[5:-1])):
        return tail
    return None


def test_every_reported_link_is_a_family_of_its_check(emitted):
    stray = sorted({
        f"{rec.check_name}: {desc}"
        for rec in emitted
        for desc in rec.descriptions
        if rec.check_name not in checks._CLAIMS
        or rec.claim != checks._CLAIMS[rec.check_name].claim
        or _family(desc, checks._CLAIMS[rec.check_name].families) is None
    })
    assert not stray, f"links named outside the claim table: {', '.join(stray)}"


def test_every_claim_family_is_reported(emitted):
    seen = {
        (rec.check_name, _family(desc, checks._CLAIMS[rec.check_name].families))
        for rec in emitted
        for desc in rec.descriptions
    }
    table = {(check, name) for check, claim in checks._CLAIMS.items() for name in claim.families}
    assert all(family in claim.families for claim in checks._CLAIMS.values()
               for family in claim.companions)
    assert table - seen == set(), f"families no run reports: {sorted(table - seen)}"


def test_checks_names_links_only_in_the_claim_table(emitted):
    # a link's name and its claim are read from _CLAIMS; a string of either written
    # elsewhere in checks would be a second declaration
    tree = _tree(PKG / "checks.py")
    (table,) = [node for node in tree.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "_CLAIMS"]
    inside = {id(node) for node in ast.walk(table)}
    names = {rec.claim for rec in emitted} | {d for rec in emitted for d in rec.descriptions}
    names |= {name for claim in checks._CLAIMS.values() for name in (claim.claim, *claim.families)}
    stray = sorted(
        f"{node.value!r} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names and id(node) not in inside
    )
    assert not stray, f"checks.py names links outside _CLAIMS: {', '.join(stray)}"


def _enclosing_handlers(node, scope=()):
    """(enclosing function, as Class.method or outer.inner, handled type) of every except clause."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            yield ".".join(scope), ast.unparse(child.type)
        yield from _enclosing_handlers(child, inner)


# every place checks turns a ValueError into an entry or a trial's error, by enclosing
# function: the grid skeleton catches only its configurations' gates and its judge; a
# function's breakdown on a spectrum is caught in core._fn_values
VALUE_ERROR_SITES = [
    "_contraction_group",
    "_group_grid",
    "_group_grid",
    "_operand_stacks",
    "check_chord_bounds_grid.judge",
]


def test_checks_catches_value_errors_only_at_its_listed_sites():
    sites = sorted(
        scope for scope, caught in _enclosing_handlers(_tree(PKG / "checks.py"))
        if "ValueError" in caught
    )
    assert sites == VALUE_ERROR_SITES


def _callers(node, attr, scope=()):
    """The enclosing function, as outer.inner, of every call of a function or method ``attr``."""
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        inner = (*scope, child.name) if named else scope
        if isinstance(child, ast.Call) and attr in (getattr(child.func, "attr", None),
                                                    getattr(child.func, "id", None)):
            yield ".".join(scope)
        yield from _callers(child, attr, inner)


def test_only_the_spectral_kernel_clamps_onto_a_domain():
    # every f, h and phi meets a spectrum in core._fn_values, so its clamp, its
    # breakdowns and its dead rows are handled in one place
    callers = sorted(
        f"{path.stem}.{scope}" for path in sorted(PKG.glob("*.py"))
        for scope in _callers(_tree(path), "clamp")
    )
    assert callers == ["core._fn_values"]


def test_only_the_evaluator_makes_margins_and_records():
    # a judge returns its links' sides; one evaluator turns every check's into margins,
    # passes and records.  The fixed counterexample is no scalar link: its values are
    # judged against fixed ones at an absolute tolerance, one inequality strict
    tree = _tree(PKG / "checks.py")
    callers = {
        name: sorted(set(_callers(tree, name)))
        for name in ("_loewner", "_loewner_on_spectrum", "_scalar_margins", "_fill", "_open")
    }
    assert callers == {
        "_loewner": ["_evaluate"],
        "_loewner_on_spectrum": ["_evaluate"],
        "_scalar_margins": ["_evaluate"],
        "_fill": ["_evaluate", "check_normal_counterexample"],
        "_open": [],
    }
