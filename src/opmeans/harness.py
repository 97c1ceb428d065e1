"""Suite driver: seeded trial streams, reports, and counterexample search.

A :class:`SuiteSpec` names a checker family and its parameters; running it
produces a :class:`Report` whose records are one :class:`CheckOutcome` per
(configuration, trial).  Reports are fully deterministic in the master
seed: instances for trial t derive from ``derive_stream_seed(seed, 2t)``
and ``(seed, 2t+1)``, records are assembled in (configuration, trial)
order, and only the wall-time field varies between identical runs.

Each suite is one entry of a table: its configurations, its instance
builder and its checker call.  Suites bundle their natural hypothesis
combinations; a checker invoked outside its hypotheses (for instance a
concave function handed to the convex-only subadditivity refinement)
downgrades to an inapplicable record instead of failing, and the
downgrade is surfaced in the summary.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from . import checks
from .core import (
    ComplexMatrix,
    HermitianMatrix,
    NormKind,
    ShapeError,
    as_complex_array,
)
from .checks import CheckOutcome
from .functions import function_by_name
from .means import CATALOG_NAMES, mean_by_name
from .randgen import GeneratorConfig, derive_stream_seed, gap_pair_rows, random_group

__all__ = [
    "UsageError",
    "SuiteSpec",
    "Summary",
    "Report",
    "SUITE_NAMES",
    "SEARCH_TARGETS",
    "CONVEX_FUNCTIONS",
    "CONCAVE_FUNCTIONS",
    "run_suite",
    "search_counterexample",
    "emit_report",
    "report_from_dict",
    "load_matrix_json",
    "save_matrix_json",
    "load_hermitian_fixture",
]

TOOL_VERSION = "0.1.0"

#: A check call's stacks hold at most this many configurations x trials x dim^2 entries:
#: 3 dim-32 trials of 6 configurations go together, or 7 dim-6 trials of 72 (about 3 MB
#: at peak for main_chain, tracemalloc).
_GROUP_ENTRIES = 20_000

CONVEX_FUNCTIONS = ("power:3/2", "power:2", "power:3", "expm1")
CONCAVE_FUNCTIONS = ("sqrt", "power:2/3", "log1p", "mobius")
_ALL_FUNCTIONS = CONVEX_FUNCTIONS + CONCAVE_FUNCTIONS


class UsageError(ValueError):
    """Bad suite/function/mean/norm selection; maps to exit status 2."""


@dataclass(frozen=True)
class SuiteSpec:
    """Everything needed to reproduce a suite run."""

    suite: str
    trials: int = 200
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    m: float = 0.5
    M: float = 4.0
    functions: tuple[str, ...] = ()
    means: tuple[str, ...] = ()
    norms: tuple[str, ...] = ()
    tol: float = 1e-8
    master_seed: int = 20240001
    alphas: tuple[float, ...] = (0.25, 0.5, 0.75)
    rs: tuple[float, ...] = (1.5, 2.0, 3.0)
    iterations: int = 3
    fixtures: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("dims", "functions", "means", "norms", "alphas", "rs", "fixtures"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SuiteSpec":
        kw = dict(d)
        for key in ("dims", "functions", "means", "norms", "alphas", "rs", "fixtures"):
            kw[key] = tuple(kw[key])
        return cls(**kw)


@dataclass
class Summary:
    total_records: int
    total_links: int
    failed_links: int
    not_applicable_links: int
    downgraded_records: int
    worst_margin: float | None
    worst_margin_by_link: dict
    wall_time_s: float
    failed_companion_links: int = 0  # of failed_links, those of companion families
    counterexample_found: bool | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    tool_version: str
    spec: SuiteSpec
    records: list[CheckOutcome]
    summary: Summary

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "spec": self.spec.to_dict(),
            "records": [r.to_dict() for r in self.records],
            "summary": self.summary.to_dict(),
        }


def report_from_dict(d: dict) -> Report:
    return Report(
        d["tool_version"],
        SuiteSpec.from_dict(d["spec"]),
        [CheckOutcome.from_dict(r) for r in d["records"]],
        Summary(**d["summary"]),
    )


# ---------------------------------------------------------------------------
# fixture files

def load_matrix_json(path: str) -> ComplexMatrix:
    """Read the matrix file format {"n": int, "entries": [[[re, im], ...], ...]}.

    A file that cannot be read or is not in this format, or that has a
    non-finite entry (JSON's ``NaN`` or ``Infinity``), is a ``UsageError``
    naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        n = data["n"]
        parts = np.asarray(data["entries"], dtype=np.float64)
    except OSError as exc:
        raise UsageError(f"cannot read matrix file {path}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise UsageError(f"{path}: matrix file has no {exc} field") from exc
    except (TypeError, ValueError) as exc:  # ValueError covers a JSON decode error
        raise UsageError(f"{path}: not a matrix file: {exc}") from exc
    if parts.shape != (n, n, 2):
        raise UsageError(f"{path}: entries are not an n x n grid of [re, im] pairs (n = {n!r})")
    if not np.isfinite(parts).all():
        raise UsageError(f"{path}: matrix entries must be finite")
    return ComplexMatrix(parts.view(np.complex128)[..., 0])


def save_matrix_json(matrix, path: str) -> None:
    entries = _matrix_payload(matrix)
    data = {"n": len(entries), "entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def load_hermitian_fixture(path: str) -> HermitianMatrix:
    """Load a fixture that must be Hermitian: validated, then symmetrized."""
    cm = load_matrix_json(path)
    arr = cm.entries
    drift = float(np.abs(arr - arr.conj().T).max())
    if drift > 1e-8 * (1.0 + float(np.abs(arr).max())):
        raise UsageError(f"{path}: matrix is not Hermitian (max asymmetry {drift:.3e})")
    return HermitianMatrix(arr)


def _matrix_payload(x) -> list:
    arr = as_complex_array(x)
    return [[[z.real, z.imag] for z in row] for row in arr]


# ---------------------------------------------------------------------------
# suite table

def _fns(defaults):
    """One axis: the chosen functions, or ``defaults``."""
    return lambda spec: (("fn", spec.functions or defaults),)


def _mean_suite(grid, fns=_ALL_FUNCTIONS, norms=False):
    """A (function x mean) suite: a dimension group per ``checks.<grid>`` call, looked up then."""

    def axes(spec):
        return ("fn", spec.functions or fns), ("mean", spec.means or CATALOG_NAMES)

    def check(spec, ax, xs):
        extra = {"norms": _norm_arg(spec)} if norms else {}
        return getattr(checks, grid)(ax["fn"], ax["mean"], xs, tol=spec.tol, **extra)

    return _Suite(grid.removeprefix("check_").removesuffix("_grid"), axes, _pd_pairs, check)


def _alphas_rs(spec: SuiteSpec):
    return ("alpha", spec.alphas), ("r", spec.rs)


def _contraction_pairs(spec: SuiteSpec):
    ps = tuple(f"power:{p:g}" for p in (0.25, 0.5, 0.75))
    return ("g", ps), ("h", ps)


def _no_axes(spec: SuiteSpec):
    return ()


def _dim_for(spec: SuiteSpec, t: int) -> int:
    return spec.dims[t % len(spec.dims)]


def _pair_rows(spec: SuiteSpec, t: int, structure: str = "positive_definite") -> list:
    """The :func:`random_group` rows of trial t's pair: A from seed 2t, B from seed 2t + 1."""
    seeds = (derive_stream_seed(spec.master_seed, 2 * t + k) for k in (0, 1))
    return [(seed, 0, structure, spec.m, spec.M) for seed in seeds]


def _draw_pairs(spec: SuiteSpec, ts, rows=_pair_rows):
    """Trials ``ts`` of one dimension, drawn as one group: each trial's pair, from ``rows``."""
    drawn = random_group(_dim_for(spec, ts[0]), [row for t in ts for row in rows(spec, t)])
    return zip(drawn[0::2], drawn[1::2])


def _pd_pairs(spec: SuiteSpec, ts) -> list:
    return [(HermitianMatrix(a), HermitianMatrix(b)) for a, b in _draw_pairs(spec, ts)]


def _normal_pairs(spec: SuiteSpec, ts, structure: str = "normal_complex") -> list:
    pairs = _draw_pairs(spec, ts, lambda spec, t: _pair_rows(spec, t, structure))
    return [(ComplexMatrix(a), ComplexMatrix(b)) for a, b in pairs]


def _det_alphas(spec: SuiteSpec) -> tuple:
    """determinant's alphas, taken by the trials in turn: none is a usage error."""
    if not spec.alphas:
        raise UsageError("suite 'determinant' needs at least one alpha")
    return spec.alphas


def _det_instances(spec: SuiteSpec, ts) -> list:
    """determinant's trials: a generic pair for even t, else a gap pair from seed 2t alone.

    The gap pairs alternate between B below A and B above A.
    """
    modes = {t: "below_a" if (t // 2) % 2 == 0 else "above_a" for t in ts if t % 2}

    def rows(spec, t):
        if t not in modes:
            return _pair_rows(spec, t)
        seed = derive_stream_seed(spec.master_seed, 2 * t)
        return gap_pair_rows(_dim_for(spec, t), modes[t], seed)

    alphas = _det_alphas(spec)
    return [
        (*map(HermitianMatrix, (a, b)), alphas[t % len(alphas)],
         f"gap:{modes[t]}" if t in modes else "generic")
        for t, (a, b) in zip(ts, _draw_pairs(spec, ts, rows))
    ]


def _norm_arg(spec: SuiteSpec):
    return tuple(spec.norms) if spec.norms else None


def _each(check):
    """A fixed suite's group check from ``check(spec, x)``, which makes a trial's one record.

    For the suites with no axes and no grid checker: trial by trial.
    """

    def one(spec: SuiteSpec, x) -> list:
        try:
            return [check(spec, x)]
        except ValueError as exc:
            return [exc.with_traceback(None)]

    return lambda spec, axes, xs: [one(spec, x) for x in xs]


def _check_determinant(spec: SuiteSpec, axes: dict, xs) -> list:
    """The determinant grid on a group, each record carrying its trial's pair kind."""
    grid = checks.check_determinant_grid(axes["fn"], [x[:3] for x in xs], spec.tol)
    for x, row in zip(xs, grid):
        for e in (e for e in row if not isinstance(e, ValueError)):
            e.params.setdefault("pair_kind", x[3])
    return grid


@dataclass(frozen=True)
class _Suite:
    """One suite: its check's name, configuration axes, instance builder and checker call.

    ``check_name`` names the suite's records, and the records a ``ValueError``
    downgrades.  ``axes(spec)`` gives (key, values) pairs; the configurations
    are their product, first axis outermost.  ``instances(spec, ts)`` draws
    the instances of trials ``ts``, one dimension group, as one stack
    (:func:`randgen.random_group`); ``None`` marks a fixed check that takes
    no instance and runs one trial.  A Hermitian instance, drawn or loaded,
    is a pair of :class:`HermitianMatrix`.  ``check(spec, axes, xs)`` takes
    a dimension group: the instances ``xs`` of trials of one dimension.  It
    gives, per trial, for each configuration in order, its record or the
    ``ValueError`` it raised, from each axis's values with names resolved
    (see :func:`_resolve`).  Eleven suites judge the group as one grid
    (``checks.check_*_grid``, each trial's pair factored once), over
    (function x mean) for the five of :func:`_mean_suite`, (alpha x r) for
    ``power_mean`` and ``ando_hiai`` and (g x h) for ``contraction``; the
    three with no axes take one trial at a time (:func:`_each`).  A fixture
    pair is loaded as Hermitian when ``hermitian`` is set and is shaped into
    an instance by ``from_fixture``.  Entries look checkers, generators and
    names up when called, so a wrapper installed on a module attribute sees
    every call.
    """

    check_name: str
    axes: Callable
    instances: Callable | None
    check: Callable
    hermitian: bool = True
    from_fixture: Callable = lambda spec, pair: pair


def _resolve(key: str, value, means: dict):
    """An axis value with function names (fn, g, h) and mean names resolved.

    A mean is one of the spec's ``means`` or built, each once per run: building
    a mean reruns its representing-function gate.
    """
    if key in ("fn", "g", "h"):
        return function_by_name(value)
    if key == "mean":
        return means.get(value) or mean_by_name(value)
    return value


_ALL_FNS = _fns(_ALL_FUNCTIONS)

_SUITES = {
    "main_chain": _mean_suite("check_main_chain_grid"),
    "chord": _mean_suite("check_chord_bounds_grid"),
    "log_example": _Suite(
        "log_example", _no_axes, _pd_pairs,
        _each(lambda spec, x: checks.check_log_example(*x, None, spec.tol)),
    ),
    "mean_diff_norm": _mean_suite("check_mean_difference_norm_grid", CONVEX_FUNCTIONS, norms=True),
    "eig_prod_norm": _mean_suite("check_eig_prod_norm_grid", norms=True),
    "subadditivity": _Suite(
        "subadditivity_refinement", _fns(CONVEX_FUNCTIONS), _pd_pairs,
        lambda spec, ax, xs: checks.check_subadditivity_grid(
            ax["fn"], xs, _norm_arg(spec), spec.tol
        ),
    ),
    "normal_counterexample": _Suite(
        "normal_counterexample", _no_axes, None,
        _each(lambda spec, x: checks.check_normal_counterexample()),
    ),
    "normal_triangle": _Suite(
        "normal_triangle", _no_axes, _normal_pairs,
        _each(lambda spec, x: checks.check_normal_triangle(*x, _norm_arg(spec), spec.tol)),
        hermitian=False,
    ),
    "normal_chain": _Suite(
        "normal_chain", _ALL_FNS, _normal_pairs,
        lambda spec, ax, xs: checks.check_normal_chain_grid(
            ax["fn"], xs, _norm_arg(spec), spec.tol
        ),
        hermitian=False,
    ),
    "power_mean": _Suite(
        "power_mean_bounds", _alphas_rs, _pd_pairs,
        lambda spec, ax, xs: checks.check_power_mean_grid(ax["alpha"], ax["r"], xs, spec.tol),
    ),
    "ando_hiai": _Suite(
        "ando_hiai_comparison", _alphas_rs, _pd_pairs,
        lambda spec, ax, xs: checks.check_ando_hiai_grid(ax["alpha"], ax["r"], xs, spec.tol),
    ),
    "contraction": _Suite(
        "contraction_implication", _contraction_pairs, _pd_pairs,
        lambda spec, ax, xs: checks.check_contraction_grid(
            ax["g"], ax["h"], xs, spec.iterations, spec.tol
        ),
    ),
    "inverse_function": _mean_suite("check_inverse_function_grid"),
    "determinant": _Suite(
        "determinant_suite", _ALL_FNS, _det_instances, _check_determinant,
        from_fixture=lambda spec, pair: (*pair, _det_alphas(spec)[0], "fixture"),
    ),
}

SUITE_NAMES = tuple(_SUITES)


def _fixture_pair(spec: SuiteSpec, hermitian: bool):
    if len(spec.fixtures) != 2:
        raise UsageError("single-instance checks need exactly two --fixture files (A then B)")
    return tuple(map(load_hermitian_fixture if hermitian else load_matrix_json, spec.fixtures))


def _validate_spec(spec: SuiteSpec) -> dict:
    """Refuse unknown names or a tolerance not a finite number >= 0; return the spec's means."""
    if not (math.isfinite(spec.tol) and spec.tol >= 0.0):
        raise UsageError(f"tolerance must be a finite number >= 0, got {spec.tol!r}")
    try:
        for name in spec.functions:
            function_by_name(name)
        means = {name: mean_by_name(name) for name in spec.means}
        for name in spec.norms:
            NormKind.parse(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return means


def _check_generator(spec: SuiteSpec, structure: str = "positive_definite") -> None:
    """Refuse dimensions or a spectral interval that the instance generator rejects.

    Called before the first instance is drawn, so a bad ``--m``, ``--M`` or
    ``--dim`` is a usage error, not a failure halfway through a run.  So is
    an interval with M/m above 1/eps: an eigenvalue near m of an operand
    with norm near M is below the eigensolver's absolute error, so its
    verdicts could not be trusted.
    """
    if not spec.dims:
        raise UsageError("need at least one dimension")
    try:
        for dim in spec.dims:
            GeneratorConfig(dim, spec.m, spec.M, structure)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ratio, limit = spec.M / spec.m, 1.0 / np.finfo(np.float64).eps
    if ratio > limit:
        raise UsageError(
            f"spectral interval ratio M/m = {ratio:.3e} exceeds 1/eps = {limit:.3e}:"
            " the eigensolver cannot resolve the smallest eigenvalue"
        )


def _summarize(records, wall_time, found=None) -> Summary:
    """The run's counts, failed companion links apart too, and worst margins, by link column.

    Records are taken by shape, their check name and (descriptions, applicable)
    columns, and a shape's margins and passes are one array each.  A link's worst
    margin is its first smallest applicable margin in (record, link) order, as a
    scan link by link finds it: of a 0.0 and a -0.0 that tie, the first.
    """
    shapes: dict[tuple, list[int]] = {}
    for i, rec in enumerate(records):
        shapes.setdefault((rec.check_name, rec.descriptions, rec.applicable), []).append(i)
    total_links = failed = companions = na = 0
    first: dict[str, tuple] = {}  # description -> (margin, record, link) of its worst
    for (_, descriptions, applicable), rows in shapes.items():
        group = [records[i] for i in rows]
        total_links += len(descriptions) * len(rows)
        na += applicable.count(False) * len(rows)
        cols = list(itertools.compress(range(len(applicable)), applicable))
        margins = np.array([r.margins for r in group], float)[:, cols]
        fails = np.count_nonzero(~np.array([r.passes for r in group], bool), axis=0) * applicable
        failed += int(fails.sum())
        companions += int(fails[list(group[0].companion)].sum())
        for j, r in zip(cols, margins.argmin(axis=0).tolist()):
            worst = (group[r].margins[j], rows[r], j)
            if worst < first.get(descriptions[j], (math.inf,)):
                first[descriptions[j]] = worst
    return Summary(
        total_records=len(records),
        total_links=total_links,
        failed_links=failed,
        failed_companion_links=companions,
        not_applicable_links=na,
        downgraded_records=sum("not_applicable" in r.params for r in records if not r.descriptions),
        worst_margin=min(first.values(), default=(None,))[0],
        worst_margin_by_link={desc: worst[0] for desc, worst in sorted(first.items())},
        wall_time_s=wall_time,
        counterexample_found=found,
    )


def _trial_groups(spec: SuiteSpec, trials: int, drawn: bool, configs: int) -> list[list[int]]:
    """The trials, as the suite's check takes them: dimension groups in first-trial order.

    Each group holds trials of one dimension n, at most ``_GROUP_ENTRIES``
    entries of n x n per configuration and trial (or one trial).  A fixed
    instance is one group of one.
    """
    if not drawn:
        return [[0]]
    by_dim: dict[int, list[int]] = {}
    for t in range(trials):
        by_dim.setdefault(_dim_for(spec, t), []).append(t)
    groups = []
    for dim, ts in by_dim.items():
        size = max(1, _GROUP_ENTRIES // (max(configs, 1) * dim**2))
        groups.extend(ts[i : i + size] for i in range(0, len(ts), size))
    return sorted(groups)


def run_suite(spec: SuiteSpec) -> Report:
    """Run every (configuration, trial) cell of a suite.

    Deterministic for a fixed master seed: trial instances depend only on
    (seed, trial index), and the record order is (configuration, trial).
    The loop runs one dimension group of trials at a time
    (:func:`_trial_groups`): the group's instances are drawn as one stack
    when it starts, each trial's from its own seeds, the suite's check
    makes all the group's records at once (a ``ValueError`` makes a
    not-applicable record), and the instances are dropped when the group
    is done.  Each record is
    placed at its (configuration, trial) index, so the grouping changes no
    report.
    """
    started = time.perf_counter()
    means = _validate_spec(spec)
    if spec.trials < 1:
        raise UsageError("trials must be >= 1")
    suite = _SUITES.get(spec.suite)
    if suite is None:
        raise UsageError(f"unknown suite {spec.suite!r}")
    axes = suite.axes(spec)
    combos = list(itertools.product(*([(key, v) for v in values] for key, values in axes)))
    if spec.fixtures and suite.instances is None:
        raise UsageError(f"suite {spec.suite!r} takes no fixtures")
    fixed = None
    if spec.fixtures:
        fixed = suite.from_fixture(spec, _fixture_pair(spec, suite.hermitian))
    drawn = suite.instances is not None and not spec.fixtures
    if drawn:
        _check_generator(spec)
    trials = spec.trials if drawn else 1

    resolved = {key: [_resolve(key, v, means) for v in values] for key, values in axes}
    records = [None] * (len(combos) * trials)
    for group in _trial_groups(spec, trials, drawn, len(combos)):
        xs = suite.instances(spec, group) if drawn else [fixed]
        dim = (("dim", _dim_for(spec, group[0])),) if drawn else ()
        for t, outcomes in zip(group, suite.check(spec, resolved, xs), strict=True):
            context = (("suite", spec.suite), ("trial", t), *dim)
            for i, (combo, out) in enumerate(zip(combos, outcomes, strict=True)):
                if isinstance(out, ValueError):
                    out = CheckOutcome(
                        suite.check_name, "not-applicable", (), {"not_applicable": str(out)}
                    )
                for key, value in (*context, *combo):  # the record's own params win
                    out.params.setdefault(key, value)
                records[i * trials + t] = out

    summary = _summarize(records, time.perf_counter() - started)
    return Report(TOOL_VERSION, spec, records, summary)


# ---------------------------------------------------------------------------
# counterexample search

def _require_positive_definite(pair) -> None:
    """Refuse a fixture pair that is not positive definite, by m of its own factors."""
    stack, (error,) = checks.PairStack.group([pair])
    if isinstance(error, ShapeError):
        raise UsageError(f"fixture pair: {error}") from error
    if error is not None:
        raise error
    (m,) = stack.m
    if m <= 0.0:
        raise UsageError(
            f"target main_chain needs positive definite fixtures, smallest eigenvalue {m:.6e}"
        )


SEARCH_TARGETS = ("norm_chain_normal", "main_chain")


def search_counterexample(
    target: str, structure: str | None, budget: int, spec: SuiteSpec
) -> Report:
    """Stream random instances at a target checker and stop at the first failure.

    For ``norm_chain_normal`` the generated class (Hermitian-indefinite by
    default) violates the checker's positivity hypothesis and a violating
    instance is expected; for ``main_chain`` the hypotheses hold and the
    search should exhaust its budget.  Its instances must be positive
    definite: another structure, or a fixture pair that is not positive
    definite, is a usage error.  So is an instance the target checker
    refuses with a ``ValueError`` (a function that does not fix zero, a Ky
    Fan k above the dimension), with the checker's reason.  The first
    violating instance is reported with its full matrices.
    ``summary.counterexample_found`` records the verdict.
    """
    started = time.perf_counter()
    if budget < 1:
        raise UsageError("search budget must be >= 1")
    if target not in SEARCH_TARGETS:
        raise UsageError(f"unknown search target {target!r} (choose from {SEARCH_TARGETS})")
    means = _validate_spec(spec)
    if structure is None:
        structure = "hermitian_indefinite" if target == "norm_chain_normal" else "positive_definite"
    main_chain = target == "main_chain"
    if main_chain and structure != "positive_definite":
        raise UsageError(f"target main_chain needs positive definite instances, not {structure!r}")
    fn = function_by_name(spec.functions[0]) if spec.functions else function_by_name("power:2")
    norms = [NormKind.parse(n) for n in spec.norms] if spec.norms else [NormKind.operator()]
    sigma = means[spec.means[0]] if spec.means else mean_by_name("arithmetic:1/2")

    def instance(t: int):
        if structure == "positive_definite":
            return _pd_pairs(spec, [t])[0]
        return _normal_pairs(spec, [t], structure)[0]

    def evaluate(a, b):
        if target == "norm_chain_normal":
            return checks.check_transplanted_norm_chain(fn, a, b, norms, spec.tol)
        return checks.check_main_chain(fn, sigma, a, b, spec.tol)

    records = []
    pairs = []
    if spec.fixtures:
        pair = _fixture_pair(spec, hermitian=main_chain)
        if main_chain:
            _require_positive_definite(pair)
        pairs.append((-1, pair))
    if budget > len(pairs):
        _check_generator(spec, structure)
    pairs.extend((t, None) for t in range(budget - len(pairs)))
    for t, pre in pairs:
        a, b = pre if pre is not None else instance(t)
        try:
            outcome = evaluate(a, b)
        except ValueError as exc:  # the checker refuses the selection: a verdict on none
            raise UsageError(f"search target {target}: {exc}") from exc
        if outcome.failed_links:
            outcome = outcome.with_params(
                {
                    "suite": "search",
                    "target": target,
                    "trial": t,
                    "A": _matrix_payload(a),
                    "B": _matrix_payload(b),
                }
            )
            records.append(outcome)
            break
    summary = _summarize(records, time.perf_counter() - started, found=bool(records))
    return Report(TOOL_VERSION, spec, records, summary)


# ---------------------------------------------------------------------------
# report emission

# The writers stream the report record by record and give the bytes of the
# generic encoders exactly: json.dump(report.to_dict(), sort_keys=True, indent=2)
# plus a newline, and csv.writer rows.  A record's text is one % on a template
# made once per report for its shape, its (descriptions, applicable, passes)
# columns, with a slot per margin; margins are finite floats, written by
# float.__repr__ as both encoders do.  Other values are encoded once per report.

_JSON_LINK = (
    '        {\n          "applicable": %s,\n          "description": %s,\n'
    '          "margin": \0,\n          "passed": %s\n        }'
)
_SCALARS = (str, int, float, bool, type(None))


def _once(encode):
    """``encode`` for one writer call, each scalar value encoded once.

    A scalar is keyed with its type, and a false one by its repr: 1, 1.0 and
    True, or 0.0 and -0.0, would be one key otherwise.  Any other value (a
    list may hold 0.0 or -0.0 alike) is encoded each time.
    """
    kept = {}

    def text(value):
        if type(value) not in _SCALARS:
            return encode(value)
        key = type(value), value or repr(value)
        return kept[key] if key in kept else kept.setdefault(key, encode(value))

    return text


def _json_template(encode, check_name, claim, descriptions, applicable, passes, keys):
    """A record's text and the param keys in the order their values fill it.

    The text has a %s for the separator before it, one per margin, then one per
    param value, or one for all params if a key is not a string (keys None).
    """
    links = ",\n".join(
        _JSON_LINK % (str(a).lower(), encode(d), str(p).lower())
        for d, a, p in zip(descriptions, applicable, passes)
    )
    keys = sorted(keys) if all(isinstance(k, str) for k in keys) else None
    params = ",\n".join(f"        {encode(k)}: \0" for k in keys or ())
    links = "[\n" + links + "\n      ]" if links else "[]"
    params = "\0" if keys is None else "{\n" + params + "\n      }" if keys else "{}"
    text = (
        f'\0\n    {{\n      "check_name": {encode(check_name)},\n      "claim": {encode(claim)},\n'
        f'      "links": {links},\n      "params": {params}\n    }}'
    )
    # encoded strings hold no NUL (json escapes it), so each NUL is a slot
    return text.replace("%", "%%").replace("\0", "%s"), keys


def _write_json(report: Report, fh) -> None:
    encode = json.JSONEncoder().encode
    param = _once(lambda v: json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n        "))
    templates = {}
    fh.write('{\n  "records": [')
    for i, rec in enumerate(report.records):
        params = rec.params
        shape = (rec.check_name, rec.claim, rec.descriptions, rec.applicable, rec.passes,
                 tuple(params))
        if shape not in templates:
            templates[shape] = _json_template(encode, *shape)
        template, keys = templates[shape]
        values = ([param(params[k]) for k in keys] if keys is not None
                  else [json.dumps(params, sort_keys=True, indent=2).replace("\n", "\n      ")])
        fh.write(template % ("," if i else "", *map(float.__repr__, rec.margins), *values))
    fh.write("\n  ]" if report.records else "]")
    rest = {"spec": report.spec.to_dict(), "summary": report.summary.to_dict(),
            "tool_version": report.tool_version}
    fh.write(",\n" + json.dumps(rest, sort_keys=True, indent=2)[2:] + "\n")


def _write_csv(report: Report, fh) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)

    def field(value) -> str:
        """``value`` as csv.writer writes it inside a row."""
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(("", value))  # not alone: a lone empty field is written ""
        return buffer.getvalue()[1:-2]

    quote, text, templates = _once(field), _once(format), {}
    fh.write("suite,trial,check,claim,link,margin,passed,applicable,params\r\n")
    for rec in report.records:
        params = rec.params
        head = (params.get("suite", report.spec.suite), params.get("trial", ""), rec.check_name,
                rec.claim)
        base = ";".join([f"{k}={text(v)}" for k, v in sorted(
            (k, v) for k, v in params.items()
            if k not in ("suite", "trial") and isinstance(v, (str, bool, int, float))
        )])
        # a row: the record's head, its link, margin, passed and applicable, then base
        shape = (rec.descriptions, rec.passes, rec.applicable)
        if shape not in templates:
            templates[shape] = "".join(
                f"%s,{field(d).replace('%', '%%')},%s,{p},{a}%s" for d, p, a in zip(*shape)
            )
        values = [",".join(map(quote, head)), None, f",{field(base)}\r\n"] * len(rec.margins)
        values[1::3] = map(float.__repr__, rec.margins)
        fh.write(templates[shape] % tuple(values))


def emit_report(report: Report, fmt: str, path: str) -> str:
    """Write a report to ``path`` as JSON or CSV, record by record.

    JSON is the report's :meth:`Report.to_dict` with sorted keys, indent 2
    and a final newline; margins are written by ``float.__repr__``, so they
    read back bit for bit.  CSV has a header row, then one row per link
    (suite, trial, check, claim, link, margin, passed, applicable, params),
    quoted as ``csv.writer`` does and ended by ``\\r\\n``; ``params`` joins a
    record's scalar params other than suite and trial as ``key=value`` with
    ``;`` in key order.  Returns ``path``.
    """
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            _write_json(report, fh)
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_csv(report, fh)
    else:
        raise UsageError(f"unknown report format {fmt!r}")
    return path
