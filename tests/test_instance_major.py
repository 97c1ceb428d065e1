"""A suite run shares factors between configurations without changing a record.

A grid check factors each trial's pair once for all the configurations it
judges: the five (function x mean) suites, ``main_chain``, ``chord``,
``eig_prod_norm``, ``inverse_function`` and ``mean_diff_norm``, the two
(alpha x r) suites, ``power_mean`` and ``ando_hiai``, and
``subadditivity``, ``normal_chain`` and ``determinant`` each judge a
dimension group of trials as one grid.  Every record a run emits must
equal, bit for bit, the record of the public checker called on the raw
instance matrices, downgrades included, and every report the report of a
run whose pairs are factored one at a time.  A public (function x mean)
checker is its grid's 1 x 1 case, so a function's records in a grid must
also equal those of the grid of that function alone, breakdowns included:
a function's stacked steps never fail its neighbours.
"""

import itertools
import json

import numpy as np
import pytest

from opmeans import checks, means, norm
from opmeans.checks import PairStack
from opmeans.functions import Convexity, ScalarFunction, function_by_name
from opmeans.harness import (
    _ALL_FUNCTIONS,
    _SUITES,
    SUITE_NAMES,
    SuiteSpec,
    _det_instances,
    _norm_arg,
    _normal_pairs,
    _pd_pairs,
    load_hermitian_fixture,
    run_suite,
    save_matrix_json,
)
from opmeans.means import MatrixMean, mean_by_name, mean_catalog
from opmeans.randgen import GeneratorConfig, random_pd

SUITES = {
    "main_chain": lambda f, s, a, b, spec: checks.check_main_chain(f, s, a, b, spec.tol),
    "eig_prod_norm": lambda f, s, a, b, spec: checks.check_eig_prod_norm(f, s, a, b, spec.tol),
    "inverse_function": lambda f, s, a, b, spec: checks.check_inverse_function(
        f, s, a, b, spec.tol
    ),
    "mean_diff_norm": lambda f, s, a, b, spec: checks.check_mean_difference_norm(
        f, s, a, b, None, spec.tol
    ),
    "chord": lambda f, s, a, b, spec: checks.check_chord_bounds(f, s, a, b, spec.tol),
}

POWER_SUITES = {
    "power_mean": lambda a, b, c, spec: checks.check_power_mean_bounds(
        a, b, c["alpha"], c["r"], spec.tol
    ),
    "ando_hiai": lambda a, b, c, spec: checks.check_ando_hiai_comparison(
        a, b, c["alpha"], c["r"], spec.tol
    ),
}

MEANS = ("arithmetic:1/2", "harmonic:1/4", "geometric:3/4")


# trial t's instance, drawn alone: the one-trial group of the suite's builder
def _pd_pair(spec, t):
    return _pd_pairs(spec, [t])[0]


def _normal_pair(spec, t):
    return _normal_pairs(spec, [t])[0]


def _det_instance(spec, t):
    return _det_instances(spec, [t])[0]


def _raw_record(suite, spec, config, t):
    """Trial t's record of a configuration, {"fn", "mean"} or {"alpha", "r"}, from raw matrices."""
    a, b = (np.array(x) for x in _pd_pair(spec, t))
    try:
        if suite in POWER_SUITES:
            out = POWER_SUITES[suite](a, b, config, spec)
        else:
            f, sigma = function_by_name(config["fn"]), mean_by_name(config["mean"])
            out = SUITES[suite](f, sigma, a, b, spec)
    except ValueError as exc:
        name = _SUITES[suite].check_name  # a downgrade is named after its check
        out = checks.CheckOutcome(name, "not-applicable", (), {"not_applicable": str(exc)})
    context = {"suite": suite, "trial": t, **config, "dim": a.shape[0]}
    return out.with_params(context)


def _bits(record) -> str:
    # repr of every float round-trips, so equal text means equal bits
    return json.dumps(record.to_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "fns, extra",
    [
        (("power:3/2", "sqrt"), {}),
        # overflow of expm1 near M = 800, and a function that does not fix zero:
        # the shared steps raise, and every record must carry the same reason
        (("expm1", "log"), {"M": 800.0}),
    ],
    ids=["default", "breakdowns"],
)
@pytest.mark.parametrize("suite", sorted(SUITES) + sorted(POWER_SUITES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_shared_records_equal_raw_checker_records(suite, fns, extra):
    # the (alpha x r) suites mix boundary weights, a weight outside [0, 1] and r < 1
    spec = SuiteSpec(
        suite, trials=3, dims=(1, 2, 3, 4), functions=fns, means=MEANS, alphas=(0, 0.25, 1, 1.5),
        rs=(0.5, 1.5, 3), **extra
    )
    records = run_suite(spec).records
    axes = _SUITES[suite].axes(spec)
    expected = [
        _raw_record(suite, spec, dict(zip([key for key, _ in axes], config)), t)
        for config in itertools.product(*(values for _, values in axes))
        for t in range(spec.trials)
    ]
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert got.to_dict() == want.to_dict()
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("dims", [(1, 2, 3, 32), (2, 3)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mixed_function_stack_records_equal_raw_checker_records(monkeypatch, dims):
    # at m = 1e-6, f(A) is not safely definite for power:3 and power:2, whose
    # middles are regularized, and is for sqrt and log1p: one dimension group's
    # stack of image middles holds both kinds, and every record must still be
    # the 1 x 1 checker's
    fns = ("power:3", "power:2", "sqrt", "log1p")
    spec = SuiteSpec("main_chain", trials=4, dims=dims, m=1e-6, functions=fns)
    regularized = []
    image_middles = PairStack.image_middles

    def spy(stack, fs, tol):
        middles, errors = image_middles(stack, fs, tol)
        # per trial of the group, whether each function's middle is regularized
        flags = ~np.equal(middles[3], None).reshape(len(fs), len(stack.wa))
        regularized.append([tuple(row) for row in flags.T.tolist()])
        return middles, errors

    monkeypatch.setattr(PairStack, "image_middles", spy)
    records = run_suite(spec).records
    assert any((True, True, False, False) in stack for stack in regularized)
    (_, _), (_, mean_names) = _SUITES["main_chain"].axes(spec)
    expected = [
        _raw_record("main_chain", spec, {"fn": fn, "mean": mean}, t)
        for fn in fns
        for mean in mean_names
        for t in range(spec.trials)
    ]
    assert len(records) == len(fns) * len(mean_names) * spec.trials
    assert [_bits(r) for r in records] == [_bits(r) for r in expected]


GRIDS = {
    "main_chain": checks.check_main_chain_grid,
    "eig_prod_norm": checks.check_eig_prod_norm_grid,
    "inverse_function": checks.check_inverse_function_grid,
    "mean_diff_norm": checks.check_mean_difference_norm_grid,
    "chord": checks.check_chord_bounds_grid,
}


_GRID_INTERVALS = {
    "log-lines": (1e-9, 400.0), "overflow": (0.5, 709.7), "800": (0.5, 800.0),
    "4000": (0.5, 4000.0), "singular": (0.5, 4.0),
}


def _grid_instance(case):
    """A dim-3 pair with spectra in the case's [m, M]; for "singular", A is singular."""
    cfg = GeneratorConfig(3, *_GRID_INTERVALS[case])
    a, b = (np.array(random_pd(cfg, seed).entries) for seed in (11, 12))
    if case == "singular":
        # a PSD A, singular in a basis that is not the standard one
        q = np.linalg.eigh(a)[1]
        a = q @ np.diag([0.0, 1.0, 3.0]) @ q.conj().T
    return a, b


def _entry(out):
    return (type(out), str(out)) if isinstance(out, ValueError) else _bits(out)


@pytest.mark.parametrize(
    "case",
    [
        # log's secant lines reach below 0, so their means break down
        "log-lines",
        # expm1(A) is near the largest float, and its image middle overflows
        "overflow",
        "800",
        "4000",
        "singular",
    ],
)
@pytest.mark.parametrize("suite", sorted(GRIDS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_records_do_not_depend_on_the_other_functions(suite, case):
    a, b = _grid_instance(case)
    fs = [function_by_name(name) for name in (*_ALL_FUNCTIONS, "log")]
    sigmas = mean_catalog()
    (together,) = GRIDS[suite](fs, sigmas, [(a, b)])
    for k, f in enumerate(fs):
        (alone,) = GRIDS[suite]([f], sigmas, [(a, b)])
        assert [_entry(e) for e in together[k * len(sigmas) : (k + 1) * len(sigmas)]] == [
            _entry(e) for e in alone
        ], f.name


NORM_SUITES = {
    # suite: (instance builder, public checker on one function and the raw instance)
    "subadditivity": (
        _pd_pair,
        lambda f, x, spec: checks.check_subadditivity_refinement(
            f, *map(np.array, x), _norm_arg(spec), spec.tol
        ),
    ),
    "normal_chain": (
        _normal_pair,
        lambda f, x, spec: checks.check_normal_chain(
            f, *(np.array(getattr(y, "entries", y)) for y in x), _norm_arg(spec), spec.tol
        ),
    ),
    "determinant": (
        _det_instance,
        lambda f, x, spec: checks.check_determinant_suite(
            f, np.array(x[0]), np.array(x[1]), x[2], spec.tol
        ).with_params({"pair_kind": x[3]}),
    ),
}


def _raw_norm_records(suite, spec, instance):
    """The records of a norm-side run, each from the public checker on the raw instance."""
    ((_, fns),) = _SUITES[suite].axes(spec)
    build, check = NORM_SUITES[suite]
    trials = 1 if spec.fixtures else spec.trials
    records = []
    for fn in fns:
        for t in range(trials):
            x = instance if spec.fixtures else build(spec, t)
            try:
                out = check(function_by_name(fn), x, spec)
            except ValueError as exc:
                out = checks.CheckOutcome(
                    _SUITES[suite].check_name, "not-applicable", (), {"not_applicable": str(exc)}
                )
            context = {"suite": suite, "trial": t, "fn": fn}
            if not spec.fixtures:
                context["dim"] = spec.dims[t % len(spec.dims)]
            records.append(out.with_params(context))
    return records


_KYFAN_2 = "ky fan k=2 outside 1..1"
_KYFAN_9 = "ky fan k=9 outside 1..2"
_OVERFLOW = "matrix entries must be finite"
_LOG = "log does not fix zero"


def _convex_only(name):
    return f"subadditivity refinement requires a convex function, got {name}"


@pytest.mark.parametrize(
    "extra, reasons",
    [
        ({}, {}),
        (
            {"norms": ("schatten:3", "kyfan:2", "trace", "frobenius", "operator")},
            {"subadditivity": {_KYFAN_2}, "normal_chain": {_KYFAN_2}},
        ),
        # expm1 overflows near M = 800, log does not fix zero, and sqrt is
        # concave, which the convex-only subadditivity refinement refuses first
        (
            {"functions": ("expm1", "log", "sqrt", "power:2"), "M": 800.0},
            {
                "subadditivity": {_OVERFLOW, _convex_only("log"), _convex_only("sqrt")},
                "normal_chain": {_OVERFLOW, _LOG},
                "determinant": {_OVERFLOW, _LOG},
            },
        ),
        (
            {"dims": (2,), "norms": ("operator", "kyfan:9")},
            {"subadditivity": {_KYFAN_9}, "normal_chain": {_KYFAN_9}},
        ),
    ],
    ids=["default", "norms", "breakdowns", "kyfan-above-dim"],
)
@pytest.mark.parametrize("suite", sorted(NORM_SUITES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norm_grid_records_equal_public_checker_records(suite, extra, reasons):
    spec = SuiteSpec(suite, **{"trials": 5, "dims": (1, 2, 3, 4, 32), **extra})
    records = run_suite(spec).records
    expected = _raw_norm_records(suite, spec, None)
    assert [_bits(r) for r in records] == [_bits(r) for r in expected]
    # every downgrade reason the case is built to provoke, and no other
    got = {r.params["not_applicable"] for r in records if "not_applicable" in r.params}
    assert got == reasons.get(suite, set())


def test_normal_chain_grid_scales_the_norms_of_a_plus_b():
    # power:2 has f'(0) = 0, so every sep-edge margin is (f(m)/m) |||A + B|||,
    # with |||A + B||| as the public norm gives it, bit for bit.  The grid
    # takes A + B's norms from the group's stacked table and the public norm
    # from a one-row table, so a Schatten norm whose bits depended on its
    # row's place or layout would fail here.
    norms = ("schatten:1.5", "schatten:3", "schatten:7", "kyfan:2", "trace")
    spec = SuiteSpec(
        "normal_chain", trials=60, dims=(2, 3, 4), functions=("power:2",), norms=norms
    )
    f = function_by_name("power:2")
    for t, rec in enumerate(run_suite(spec).records):
        a, b = (x.entries for x in _normal_pair(spec, t))
        m = rec.params["m"]
        margins = dict(zip(rec.descriptions, rec.margins))
        for kind in norms:
            assert margins[f"sep-edge[{kind}]"] == float(f(m)) / m * norm(a + b, kind), (t, kind)


def test_normal_chain_grid_refuses_a_non_normal_fixture_pair(tmp_path):
    paths = (str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    pair = (np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[2.0, 0.0], [1.0, 1.0]]))
    for x, path in zip(pair, paths):
        save_matrix_json(x, path)
    spec = SuiteSpec("normal_chain", functions=("power:2", "sqrt", "log"), fixtures=paths)
    records = run_suite(spec).records
    assert [_bits(r) for r in records] == [
        _bits(r) for r in _raw_norm_records("normal_chain", spec, pair)
    ]
    assert [r.params["not_applicable"] for r in records] == [
        "first operand does not commute with its adjoint within tolerance",
        "first operand does not commute with its adjoint within tolerance",
        "log does not fix zero",
    ]


@pytest.mark.parametrize("extra", [{}, {"M": 800.0, "functions": ("expm1",)}], ids=["default", "breakdowns"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sharing_changes_no_report(monkeypatch, suite, extra):
    # two trials per dimension group, so that a group's factors are one stack
    spec = SuiteSpec(suite, trials=4, dims=(1, 3), **extra)

    def report():
        d = run_suite(spec).to_dict()
        d["summary"]["wall_time_s"] = 0.0
        # one line per value, so a mismatch is reported at its line
        return json.dumps(d, sort_keys=True, indent=1).splitlines()

    shared = report()
    # every pair validated and factored on its own, not as one stack per group
    group = PairStack.group

    def one_by_one(pairs):
        stacks, errors = zip(*(group([p]) for p in pairs))
        return PairStack(*map(np.concatenate, zip(*stacks))), np.concatenate(errors)

    monkeypatch.setattr(PairStack, "group", staticmethod(one_by_one))
    assert shared == report()


def test_fixture_run_shares_factors_without_changing_a_record(monkeypatch, tmp_path):
    paths = (str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    for x, path in zip(_pd_pair(SuiteSpec("main_chain", dims=(3,)), 0), paths):
        save_matrix_json(np.array(x), path)
    fns = ("power:2", "sqrt")
    spec = SuiteSpec("main_chain", functions=fns, means=MEANS, fixtures=paths)
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: eighs.append(x) or eigh(x))
    records = run_suite(spec).records
    # eigh of A, B and their middle and of the image middle per function,
    # counted per matrix; main_chain reads only S's spectrum, so S is no eigh
    # (3 + len(MEANS) + len(fns) before, an eigh of S per mean)
    assert sum(int(np.prod(x.shape[:-2])) for x in eighs) == 3 + len(fns)
    a, b = (np.array(load_hermitian_fixture(path).entries) for path in paths)
    expected = [
        checks.check_main_chain(function_by_name(fn), mean_by_name(mean), a, b, spec.tol)
        .with_params({"suite": "main_chain", "trial": 0, "fn": fn, "mean": mean})
        for fn in fns
        for mean in MEANS
    ]
    assert [_bits(r) for r in records] == [_bits(r) for r in expected]


@pytest.mark.parametrize(
    "M",
    [
        # spec(A^(-1/2) B A^(-1/2)) stays below 2.2, so every S is finite, and
        # f(A) sigma f(B) overflows for power:2 and expm1, not for sqrt
        2.2,
        # S itself overflows in some trials and not in others
        3.0,
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_breakdowns_inside_one_stack_stay_per_record(monkeypatch, M):
    # h(x) = exp(500 (x - 1)) passes the mean's grid gate, and overflows once the
    # congruence spectrum exceeds 1 + log(max float) / 500, about 2.42: in one
    # trial some means and functions break down and their neighbours in the
    # same stacks do not
    h = ScalarFunction(
        "exp500_h",
        fn=lambda x: np.exp(500.0 * (np.asarray(x) - 1.0)),
        deriv=lambda x: 500.0 * np.exp(500.0 * (np.asarray(x) - 1.0)),
        convexity=Convexity.CONVEX,
    )
    monkeypatch.setitem(means._REGISTRY, "exp500", MatrixMean("exp500", h))
    fns, mean_names = ("power:2", "sqrt", "expm1"), ("arithmetic:1/2", "exp500", "geometric:1/2")
    spec = SuiteSpec(
        "main_chain", trials=6, dims=(2, 3, 4), m=1.0, M=M, functions=fns, means=mean_names
    )

    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def finite_only(x, _solver=solver):
            assert np.isfinite(x).all(), "a non-finite matrix reached LAPACK"
            return _solver(x)

        monkeypatch.setattr(np.linalg, name, finite_only)
    records = run_suite(spec).records
    expected = [
        _raw_record("main_chain", spec, {"fn": fn, "mean": mean}, t)
        for fn in fns
        for mean in mean_names
        for t in range(spec.trials)
    ]
    assert [_bits(r) for r in records] == [_bits(r) for r in expected]

    def verified(record):
        return bool(record.links) and record.passed

    mixed = [
        (fn, t)
        for i, fn in enumerate(fns)
        for t in range(spec.trials)
        if len({verified(records[(i * len(mean_names) + j) * spec.trials + t]) for j in range(3)}) == 2
    ]
    assert mixed, "no trial has both broken-down and verified records of one function"
    reasons = {r.params.get("not_applicable") for r in records} - {None}
    assert reasons == {"matrix entries must be finite"}
