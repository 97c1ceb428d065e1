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
import functools
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
from .functions import FunctionPair, function_by_name
from .means import CATALOG_NAMES, MatrixMean, mean_by_name, normalize_for_contraction
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

#: A check call takes at most this many trials x dim^2 operand entries, one
#: dimension group: every dim-32 trial goes alone, and 28 dim-6 trials at once.
_GROUP_ENTRIES = 1024

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

    A file that cannot be read or is not in this format is a ``UsageError``
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
    return ComplexMatrix(parts.view(np.complex128)[..., 0])


def save_matrix_json(matrix, path: str) -> None:
    arr = as_complex_array(matrix)
    data = {
        "n": arr.shape[0],
        "entries": [[[z.real, z.imag] for z in row] for row in arr],
    }
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

    return _Suite(axes, _pd_pairs, check)


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

    return [
        (*map(HermitianMatrix, (a, b)), spec.alphas[t % len(spec.alphas)],
         f"gap:{modes[t]}" if t in modes else "generic")
        for t, (a, b) in zip(ts, _draw_pairs(spec, ts, rows))
    ]


def _norm_arg(spec: SuiteSpec):
    return tuple(spec.norms) if spec.norms else None


def _each(check):
    """A suite's group check from ``check(spec, config, x)``, which makes one record.

    For the suites with no grid checker: trial by trial, one configuration at a time.
    """

    def per_trial(spec: SuiteSpec, axes: dict, x) -> list:
        results = []
        for values in itertools.product(*axes.values()):
            try:
                results.append(check(spec, dict(zip(axes, values)), x))
            except ValueError as exc:
                results.append(exc)
        return results

    return lambda spec, axes, xs: [per_trial(spec, axes, x) for x in xs]


def _check_determinant(spec: SuiteSpec, axes: dict, xs) -> list:
    """The determinant grid on a group, each record carrying its trial's pair kind."""
    grid = checks.check_determinant_grid(axes["fn"], [x[:3] for x in xs], spec.tol)
    return [
        [e if isinstance(e, ValueError) else e.with_params({"pair_kind": x[3]}) for e in row]
        for x, row in zip(xs, grid)
    ]


def _check_contraction(spec: SuiteSpec, c: dict, x) -> CheckOutcome:
    pair = FunctionPair(c["g"], c["h"])
    sigma_h = MatrixMean(f"h:{pair.h.name}", pair.h)
    a, b = normalize_for_contraction(sigma_h, *x)
    return checks.check_contraction_implication(pair, a, b, spec.iterations, spec.tol)


@dataclass(frozen=True)
class _Suite:
    """One suite: its configuration axes, instance builder and checker call.

    ``axes(spec)`` gives (key, values) pairs; the configurations are their
    product, first axis outermost.  ``instances(spec, ts)`` draws the
    instances of trials ``ts``, one dimension group, as one stack
    (:func:`randgen.random_group`); ``None`` marks a fixed check that takes
    no instance and runs one trial.  A Hermitian instance, drawn or loaded,
    is a pair of :class:`HermitianMatrix`.  ``check(spec, axes, xs)`` takes
    a dimension group: the instances ``xs`` of trials of one dimension.  It
    gives, per trial, for each configuration in order, its record or the
    ``ValueError`` it raised, from each axis's values with names resolved
    (see :func:`_resolve`).  Ten suites judge the group as one grid
    (``checks.check_*_grid``, each trial's pair factored once), over
    (function x mean) for the five of :func:`_mean_suite` and (alpha x r)
    for ``power_mean`` and ``ando_hiai``; the others take one configuration
    at a time (:func:`_each`).  A fixture pair is loaded as Hermitian when
    ``hermitian`` is set and is shaped into an instance by ``from_fixture``.
    Entries look checkers, generators and names up when called, so a
    wrapper installed on a module attribute sees every call.
    """

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
        _no_axes, _pd_pairs,
        _each(lambda spec, c, x: checks.check_log_example(*x, None, spec.tol)),
    ),
    "mean_diff_norm": _mean_suite("check_mean_difference_norm_grid", CONVEX_FUNCTIONS, norms=True),
    "eig_prod_norm": _mean_suite("check_eig_prod_norm_grid", norms=True),
    "subadditivity": _Suite(
        _fns(CONVEX_FUNCTIONS), _pd_pairs,
        lambda spec, ax, xs: checks.check_subadditivity_grid(
            ax["fn"], xs, _norm_arg(spec), spec.tol
        ),
    ),
    "normal_counterexample": _Suite(
        _no_axes, None,
        _each(lambda spec, c, x: checks.check_normal_counterexample()),
    ),
    "normal_triangle": _Suite(
        _no_axes, _normal_pairs,
        _each(lambda spec, c, x: checks.check_normal_triangle(*x, _norm_arg(spec), spec.tol)),
        hermitian=False,
    ),
    "normal_chain": _Suite(
        _ALL_FNS, _normal_pairs,
        lambda spec, ax, xs: checks.check_normal_chain_grid(
            ax["fn"], xs, _norm_arg(spec), spec.tol
        ),
        hermitian=False,
    ),
    "power_mean": _Suite(
        _alphas_rs, _pd_pairs,
        lambda spec, ax, xs: checks.check_power_mean_grid(ax["alpha"], ax["r"], xs, spec.tol),
    ),
    "ando_hiai": _Suite(
        _alphas_rs, _pd_pairs,
        lambda spec, ax, xs: checks.check_ando_hiai_grid(ax["alpha"], ax["r"], xs, spec.tol),
    ),
    "contraction": _Suite(_contraction_pairs, _pd_pairs, _each(_check_contraction)),
    "inverse_function": _mean_suite("check_inverse_function_grid"),
    "determinant": _Suite(
        _ALL_FNS, _det_instances, _check_determinant,
        from_fixture=lambda spec, pair: (*pair, spec.alphas[0], "fixture"),
    ),
}

SUITE_NAMES = tuple(_SUITES)


def _fixture_pair(spec: SuiteSpec, hermitian: bool):
    if len(spec.fixtures) != 2:
        raise UsageError("single-instance checks need exactly two --fixture files (A then B)")
    if not hermitian:
        return load_matrix_json(spec.fixtures[0]), load_matrix_json(spec.fixtures[1])
    return tuple(map(load_hermitian_fixture, spec.fixtures))


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
    """The run's counts and worst margins, read off the records' link columns."""
    total_links = 0
    failed = 0
    na = 0
    downgraded = 0
    worst = None
    by_link: dict[str, float] = {}
    for rec in records:
        if "not_applicable" in rec.params and not rec.descriptions:
            downgraded += 1
        total_links += len(rec.descriptions)
        na += rec.applicable.count(False)
        links = zip(rec.descriptions, rec.margins, rec.passes)
        for desc, margin, passed in itertools.compress(links, rec.applicable):
            failed += not passed
            if worst is None or margin < worst:
                worst = margin
            prev = by_link.get(desc)
            if prev is None or margin < prev:
                by_link[desc] = margin
    return Summary(
        total_records=len(records),
        total_links=total_links,
        failed_links=failed,
        not_applicable_links=na,
        downgraded_records=downgraded,
        worst_margin=worst,
        worst_margin_by_link=dict(sorted(by_link.items())),
        wall_time_s=wall_time,
        counterexample_found=found,
    )


def _trial_groups(spec: SuiteSpec, trials: int, drawn: bool) -> list[list[int]]:
    """The trials, as the suite's check takes them: dimension groups in first-trial order.

    Each group holds trials of one dimension, at most ``_GROUP_ENTRIES``
    entries of one operand in all.  A fixed instance is one group of one.
    """
    if not drawn:
        return [[0]]
    by_dim: dict[int, list[int]] = {}
    for t in range(trials):
        by_dim.setdefault(_dim_for(spec, t), []).append(t)
    groups = []
    for dim, ts in by_dim.items():
        size = max(1, _GROUP_ENTRIES // dim**2)
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
    keys = [key for key, _ in axes]
    combos = [dict(zip(keys, values)) for values in itertools.product(*(v for _, v in axes))]
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
    for group in _trial_groups(spec, trials, drawn):
        xs = suite.instances(spec, group) if drawn else [fixed]
        for t, outcomes in zip(group, suite.check(spec, resolved, xs), strict=True):
            for i, (combo, out) in enumerate(zip(combos, outcomes, strict=True)):
                if isinstance(out, ValueError):
                    out = CheckOutcome(
                        spec.suite, "not-applicable", (), {"not_applicable": str(out)}
                    )
                context = {"suite": spec.suite, "trial": t, **combo}
                if drawn:
                    context["dim"] = _dim_for(spec, t)
                records[i * trials + t] = out.with_params(context)

    summary = _summarize(records, time.perf_counter() - started)
    return Report(TOOL_VERSION, spec, records, summary)


# ---------------------------------------------------------------------------
# counterexample search

def _require_positive_definite(pair) -> None:
    """Refuse a fixture pair that is not positive definite, by m of its own factors."""
    try:
        _, _, m, _ = checks.SharedPair(*pair).factors
    except ShapeError as exc:
        raise UsageError(f"fixture pair: {exc}") from exc
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
    found = False
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
            found = True
            break
    summary = _summarize(records, time.perf_counter() - started, found=found)
    return Report(TOOL_VERSION, spec, records, summary)


# ---------------------------------------------------------------------------
# report emission

# The writers format each link from a fixed template and stream the report
# record by record; they give the bytes of the generic encoders exactly:
# json.dump(report.to_dict(), sort_keys=True, indent=2) plus a newline, and
# csv.writer rows.  Margins are finite floats, written by float.__repr__ as
# both encoders do.

_JSON_LINK = (
    '        {\n          "applicable": %s,\n          "description": %s,\n'
    '          "margin": %s,\n          "passed": %s\n        }'
)
_JSON_BOOL = {True: "true", False: "false"}
_SCALARS = (str, bool, int, float, type(None))


def _json_params(params: dict, scalar) -> str:
    """A record's params at their depth in the report (6 spaces to its brace)."""
    if not params:
        return "{}"
    if not all(isinstance(k, str) and isinstance(v, _SCALARS) for k, v in params.items()):
        return json.dumps(params, sort_keys=True, indent=2).replace("\n", "\n      ")
    items = ",\n".join(
        f"        {scalar(k)}: {scalar(v)}" for k, v in sorted(params.items())
    )
    return "{\n" + items + "\n      }"


def _write_json(report: Report, fh) -> None:
    # a report repeats a few strings and numbers many times: each is encoded once,
    # by the C encoder, keyed by type so that 1, 1.0 and True stay apart
    scalar = functools.lru_cache(maxsize=None, typed=True)(json.JSONEncoder().encode)
    fh.write('{\n  "records": [')
    for i, rec in enumerate(report.records):
        links = ",\n".join(
            map(
                _JSON_LINK.__mod__,
                zip(
                    map(_JSON_BOOL.__getitem__, rec.applicable),
                    map(scalar, rec.descriptions),
                    map(float.__repr__, rec.margins),
                    map(_JSON_BOOL.__getitem__, rec.passes),
                ),
            )
        )
        links = f"[\n{links}\n      ]" if links else "[]"
        fh.write(
            f"{',' if i else ''}\n    {{\n"
            f'      "check_name": {scalar(rec.check_name)},\n'
            f'      "claim": {scalar(rec.claim)},\n'
            f'      "links": {links},\n'
            f'      "params": {_json_params(rec.params, scalar)}\n'
            "    }"
        )
    fh.write("\n  ]" if report.records else "]")
    rest = {
        "spec": report.spec.to_dict(),
        "summary": report.summary.to_dict(),
        "tool_version": report.tool_version,
    }
    fh.write(",\n" + json.dumps(rest, sort_keys=True, indent=2)[2:] + "\n")


def _flatten_params(params: dict) -> str:
    simple = {
        k: v for k, v in params.items() if isinstance(v, (str, bool, int, float))
    }
    return ";".join(f"{k}={v}" for k, v in sorted(simple.items()))


def _write_csv(report: Report, fh) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)

    def field(value) -> str:
        """``value`` as csv.writer writes it inside a row."""
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(("", value))  # not alone: a lone empty field is written ""
        return buffer.getvalue()[1:-2]

    quote = functools.cache(field)
    fh.write("suite,trial,check,claim,link,margin,passed,applicable,params\r\n")
    for rec in report.records:
        params = rec.params
        base = _flatten_params({k: v for k, v in params.items() if k not in ("suite", "trial")})
        head = ",".join(
            map(field, (params.get("suite", report.spec.suite), params.get("trial", ""),
                        rec.check_name, rec.claim))
        )
        tail = f",{field(base)}\r\n"
        fh.write("".join(
            f"{head},{quote(desc)},{float.__repr__(margin)},{passed},{applicable}{tail}"
            for desc, margin, passed, applicable in zip(
                rec.descriptions, rec.margins, rec.passes, rec.applicable
            )
        ))


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
