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
import json
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
    spectral_bounds,
)
from .checks import CheckOutcome
from .functions import FunctionPair, function_by_name
from .means import MatrixMean, mean_by_name, mean_catalog, normalize_for_contraction
from .randgen import (
    GeneratorConfig,
    derive_stream_seed,
    random_gap_pair,
    random_normal,
    random_pd,
)

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
    """Read the matrix file format {"n": int, "entries": [[[re, im], ...], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    n = int(data["n"])
    rows = data["entries"]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"{path}: entries are not an {n}x{n} grid")
    arr = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, (re, im) in enumerate(row):
            arr[i, j] = complex(re, im)
    return ComplexMatrix(arr)


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
    """Configurations over the chosen functions, or ``defaults``."""
    return lambda spec: [{"fn": n} for n in spec.functions or defaults]


def _fns_means(defaults):
    """Configurations over chosen functions (or ``defaults``) x chosen means (or the catalog)."""

    def combos(spec):
        mean_names = spec.means or tuple(m.name for m in mean_catalog())
        return [{"fn": f, "mean": s} for f in spec.functions or defaults for s in mean_names]

    return combos


def _alphas_rs(spec: SuiteSpec) -> list[dict]:
    return [{"alpha": a, "r": r} for a in spec.alphas for r in spec.rs]


def _contraction_pairs(spec: SuiteSpec) -> list[dict]:
    ps = (0.25, 0.5, 0.75)
    return [{"g": f"power:{p:g}", "h": f"power:{q:g}"} for p in ps for q in ps]


def _dim_for(spec: SuiteSpec, t: int) -> int:
    return spec.dims[t % len(spec.dims)]


def _pd_pair(spec: SuiteSpec, t: int):
    dim = _dim_for(spec, t)
    cfg = GeneratorConfig(dim, spec.m, spec.M, "positive_definite", spec.master_seed)
    return (
        random_pd(cfg, derive_stream_seed(spec.master_seed, 2 * t)),
        random_pd(cfg, derive_stream_seed(spec.master_seed, 2 * t + 1)),
    )


def _normal_pair(spec: SuiteSpec, t: int, structure: str = "normal_complex"):
    dim = _dim_for(spec, t)
    cfg = GeneratorConfig(dim, spec.m, spec.M, structure, spec.master_seed)
    return (
        random_normal(cfg, derive_stream_seed(spec.master_seed, 2 * t)),
        random_normal(cfg, derive_stream_seed(spec.master_seed, 2 * t + 1)),
    )


def _det_instance(spec: SuiteSpec, t: int):
    alpha = spec.alphas[t % len(spec.alphas)]
    if t % 2 == 0:
        a, b = _pd_pair(spec, t)
        kind = "generic"
    else:
        mode = "below_a" if (t // 2) % 2 == 0 else "above_a"
        a, b = random_gap_pair(_dim_for(spec, t), mode, derive_stream_seed(spec.master_seed, 2 * t))
        kind = f"gap:{mode}"
    return a, b, alpha, kind


def _norm_arg(spec: SuiteSpec):
    return tuple(spec.norms) if spec.norms else None


def _check_contraction(spec: SuiteSpec, c: dict, x) -> CheckOutcome:
    pair = FunctionPair(c["g"], c["h"])
    sigma_h = MatrixMean(f"h:{pair.h.name}", pair.h)
    a, b = normalize_for_contraction(sigma_h, *x)
    return checks.check_contraction_implication(pair, a, b, spec.iterations, spec.tol)


@dataclass(frozen=True)
class _Suite:
    """One suite: its configurations, instance builder and checker call.

    ``instance(spec, t)`` builds trial t's instance; ``None`` marks a fixed
    check that takes no instance and runs one trial.  ``check(spec, combo,
    x)`` makes the record of configuration ``combo`` on instance ``x``, with
    the configuration's function and mean names already resolved (see
    :func:`_resolve`).  A fixture pair is loaded as Hermitian when
    ``hermitian`` is set and is shaped into an instance by ``from_fixture``.
    Entries look checkers, generators and names up when called, so a
    wrapper installed on a module attribute sees every call.
    """

    combos: Callable
    instance: Callable | None
    check: Callable
    hermitian: bool = True
    from_fixture: Callable = lambda spec, pair: pair


def _resolve(combo: dict) -> dict:
    """The configuration with its function names (fn, g, h) and mean name resolved.

    Done once per configuration: building a mean reruns its
    representing-function gate.
    """
    out = dict(combo)
    for key in ("fn", "g", "h"):
        if key in out:
            out[key] = function_by_name(out[key])
    if "mean" in out:
        out["mean"] = mean_by_name(out["mean"])
    return out


_ALL_FNS = _fns(_ALL_FUNCTIONS)
_ALL_FNS_MEANS = _fns_means(_ALL_FUNCTIONS)

_SUITES = {
    "main_chain": _Suite(
        _ALL_FNS_MEANS, _pd_pair,
        lambda spec, c, x: checks.check_main_chain(c["fn"], c["mean"], *x, spec.tol),
    ),
    "chord": _Suite(
        _ALL_FNS_MEANS, _pd_pair,
        lambda spec, c, x: checks.check_chord_bounds(c["fn"], c["mean"], *x, spec.tol),
    ),
    "log_example": _Suite(
        lambda spec: [{}], _pd_pair,
        lambda spec, c, x: checks.check_log_example(*x, None, spec.tol),
    ),
    "mean_diff_norm": _Suite(
        _fns_means(CONVEX_FUNCTIONS), _pd_pair,
        lambda spec, c, x: checks.check_mean_difference_norm(
            c["fn"], c["mean"], *x, _norm_arg(spec), spec.tol
        ),
    ),
    "eig_prod_norm": _Suite(
        _ALL_FNS_MEANS, _pd_pair,
        lambda spec, c, x: checks.check_eig_prod_norm(
            c["fn"], c["mean"], *x, spec.tol, _norm_arg(spec)
        ),
    ),
    "subadditivity": _Suite(
        _fns(CONVEX_FUNCTIONS), _pd_pair,
        lambda spec, c, x: checks.check_subadditivity_refinement(
            c["fn"], *x, _norm_arg(spec), spec.tol
        ),
    ),
    "normal_counterexample": _Suite(
        lambda spec: [{}], None,
        lambda spec, c, x: checks.check_normal_counterexample(),
    ),
    "normal_triangle": _Suite(
        lambda spec: [{}], _normal_pair,
        lambda spec, c, x: checks.check_normal_triangle(*x, _norm_arg(spec), spec.tol),
        hermitian=False,
    ),
    "normal_chain": _Suite(
        _ALL_FNS, _normal_pair,
        lambda spec, c, x: checks.check_normal_chain(c["fn"], *x, _norm_arg(spec), spec.tol),
        hermitian=False,
    ),
    "power_mean": _Suite(
        _alphas_rs, _pd_pair,
        lambda spec, c, x: checks.check_power_mean_bounds(*x, c["alpha"], c["r"], spec.tol),
    ),
    "ando_hiai": _Suite(
        _alphas_rs, _pd_pair,
        lambda spec, c, x: checks.check_ando_hiai_comparison(*x, c["alpha"], c["r"], spec.tol),
    ),
    "contraction": _Suite(_contraction_pairs, _pd_pair, _check_contraction),
    "inverse_function": _Suite(
        _ALL_FNS_MEANS, _pd_pair,
        lambda spec, c, x: checks.check_inverse_function(c["fn"], c["mean"], *x, spec.tol),
    ),
    "determinant": _Suite(
        _ALL_FNS, _det_instance,
        lambda spec, c, x: checks.check_determinant_suite(
            c["fn"], x[0], x[1], x[2], spec.tol
        ).with_params({"pair_kind": x[3]}),
        from_fixture=lambda spec, pair: (*pair, spec.alphas[0], "fixture"),
    ),
}

SUITE_NAMES = tuple(_SUITES)


def _fixture_pair(spec: SuiteSpec, hermitian: bool):
    if len(spec.fixtures) != 2:
        raise UsageError("single-instance checks need exactly two --fixture files (A then B)")
    loader = load_hermitian_fixture if hermitian else load_matrix_json
    return loader(spec.fixtures[0]), loader(spec.fixtures[1])


def _validate_names(spec: SuiteSpec) -> None:
    try:
        for name in spec.functions:
            function_by_name(name)
        for name in spec.means:
            mean_by_name(name)
        for name in spec.norms:
            NormKind.parse(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_generator(spec: SuiteSpec, structure: str = "positive_definite") -> None:
    """Refuse dimensions or a spectral interval that the instance generator rejects.

    Called before the first instance is drawn, so a bad ``--m``, ``--M`` or
    ``--dim`` is a usage error, not a failure halfway through a run.
    """
    if not spec.dims:
        raise UsageError("need at least one dimension")
    try:
        for dim in spec.dims:
            GeneratorConfig(dim, spec.m, spec.M, structure)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _summarize(records, wall_time, found=None) -> Summary:
    total_links = 0
    failed = 0
    na = 0
    downgraded = 0
    worst = None
    by_link: dict[str, float] = {}
    for rec in records:
        if "not_applicable" in rec.params and not rec.links:
            downgraded += 1
        for link in rec.links:
            total_links += 1
            if not link.applicable:
                na += 1
                continue
            if not link.passed:
                failed += 1
            worst = link.margin if worst is None else min(worst, link.margin)
            prev = by_link.get(link.description)
            by_link[link.description] = link.margin if prev is None else min(prev, link.margin)
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


def run_suite(spec: SuiteSpec) -> Report:
    """Run every (configuration, trial) cell of a suite.

    Deterministic for a fixed master seed: trial instances depend only on
    (seed, trial index), and the record order is (configuration, trial).
    """
    started = time.perf_counter()
    _validate_names(spec)
    if spec.trials < 1:
        raise UsageError("trials must be >= 1")
    suite = _SUITES.get(spec.suite)
    if suite is None:
        raise UsageError(f"unknown suite {spec.suite!r}")
    combos = suite.combos(spec)
    if spec.fixtures and suite.instance is None:
        raise UsageError(f"suite {spec.suite!r} takes no fixtures")
    if spec.fixtures:
        instances = [suite.from_fixture(spec, _fixture_pair(spec, suite.hermitian))]
    elif suite.instance is None:
        instances = [None]
    else:
        _check_generator(spec)
        instances = [suite.instance(spec, t) for t in range(spec.trials)]

    records = []
    for combo in combos:
        resolved = _resolve(combo)
        for t, inst in enumerate(instances):
            try:
                outcome = suite.check(spec, resolved, inst)
            except ValueError as exc:
                outcome = CheckOutcome(spec.suite, "not-applicable", (), {"not_applicable": str(exc)})
            context = {"suite": spec.suite, "trial": t, **combo}
            if inst is not None and not spec.fixtures:
                context["dim"] = _dim_for(spec, t)
            records.append(outcome.with_params(context))

    summary = _summarize(records, time.perf_counter() - started)
    return Report(TOOL_VERSION, spec, records, summary)


# ---------------------------------------------------------------------------
# counterexample search

def _require_positive_definite(pair) -> None:
    try:
        m, _ = spectral_bounds(*pair)
    except ShapeError as exc:
        raise UsageError(f"fixture pair: {exc}") from exc
    if m <= 0.0:
        raise UsageError(
            f"target main_chain needs positive definite fixtures, smallest eigenvalue {m:.6e}"
        )


SEARCH_TARGETS = ("norm_chain_normal", "main_chain")


def search_counterexample(target: str, structure: str | None, budget: int, spec: SuiteSpec) -> Report:
    """Stream random instances at a target checker and stop at the first failure.

    For ``norm_chain_normal`` the generated class (Hermitian-indefinite by
    default) violates the checker's positivity hypothesis and a violating
    instance is expected; for ``main_chain`` the hypotheses hold and the
    search should exhaust its budget.  Its instances must be positive
    definite: another structure, or a fixture pair that is not positive
    definite, is a usage error.  The first violating instance is reported
    with its full matrices.  ``summary.counterexample_found`` records the
    verdict.
    """
    started = time.perf_counter()
    if budget < 1:
        raise UsageError("search budget must be >= 1")
    if target not in SEARCH_TARGETS:
        raise UsageError(f"unknown search target {target!r} (choose from {SEARCH_TARGETS})")
    _validate_names(spec)
    if structure is None:
        structure = "hermitian_indefinite" if target == "norm_chain_normal" else "positive_definite"
    main_chain = target == "main_chain"
    if main_chain and structure != "positive_definite":
        raise UsageError(f"target main_chain needs positive definite instances, not {structure!r}")
    fn = function_by_name(spec.functions[0]) if spec.functions else function_by_name("power:2")
    norms = [NormKind.parse(n) for n in spec.norms] if spec.norms else [NormKind.operator()]
    sigma = mean_by_name(spec.means[0]) if spec.means else mean_by_name("arithmetic:1/2")

    def instance(t: int):
        if structure == "positive_definite":
            return _pd_pair(spec, t)
        return _normal_pair(spec, t, structure)

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
        outcome = evaluate(a, b)
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

def _flatten_params(params: dict) -> str:
    simple = {
        k: v for k, v in params.items() if isinstance(v, (str, bool, int, float))
    }
    return ";".join(f"{k}={v}" for k, v in sorted(simple.items()))


def emit_report(report: Report, fmt: str, path: str) -> str:
    """Write a report as JSON (stable key order) or CSV (one row per link)."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["suite", "trial", "check", "claim", "link", "margin", "passed", "applicable", "params"]
            )
            for rec in report.records:
                base = _flatten_params(
                    {k: v for k, v in rec.params.items() if k not in ("suite", "trial")}
                )
                for link in rec.links:
                    writer.writerow(
                        [
                            rec.params.get("suite", report.spec.suite),
                            rec.params.get("trial", ""),
                            rec.check_name,
                            rec.claim,
                            link.description,
                            repr(link.margin),
                            link.passed,
                            link.applicable,
                            base,
                        ]
                    )
    else:
        raise UsageError(f"unknown report format {fmt!r}")
    return path
