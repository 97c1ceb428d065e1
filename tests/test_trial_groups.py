"""A run hands its checks one dimension group of trials at a time.

``subadditivity``, ``normal_chain`` and ``determinant`` judge a whole group
as one (function x trial) grid, ``main_chain``, ``chord``,
``eig_prod_norm``, ``inverse_function`` and ``mean_diff_norm`` as one
(function x mean x trial) grid, and ``power_mean`` and ``ando_hiai`` as one
(alpha x r x trial) grid.  A trial's breakdown must stay that trial's:
every entry of a group equals, bit for bit, the 1 x 1 checker's record or
error on that trial's raw matrices, and no eigensolver sees a matrix that
is not finite.  How the trials are cut into groups must change no report,
and no pair a grid builds outlives its call.
"""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from opmeans import checks, harness
from opmeans.functions import ScalarFunction, function_by_name
from opmeans.harness import SUITE_NAMES, SuiteSpec, emit_report, run_suite
from opmeans.means import mean_by_name
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_normal, random_pd

FNS = ("power:2", "expm1", "sqrt", "log", "power:3/2")


def _pd(seed, dim=3, m=0.5, M=4.0):
    cfg = GeneratorConfig(dim, m, M)
    return np.array(random_pd(cfg, derive_stream_seed(seed, 0)).entries)


def _normal(seed, dim=3):
    cfg = GeneratorConfig(dim, 0.5, 4.0, "normal_complex")
    return np.array(random_normal(cfg, derive_stream_seed(seed, 0)).entries)


_DIAG_800 = np.diag([800.0, 1.0, 2.0]).astype(complex)  # expm1(800) overflows
_ZERO = np.zeros((3, 3), dtype=complex)
_INDEFINITE = np.diag([1.0, -1.0, 2.0]).astype(complex)
_NON_NORMAL = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)

SIGMAS = [mean_by_name(name) for name in ("arithmetic:1/2", "harmonic:1/4", "geometric:3/4")]


def _entry(check, f, x):
    try:
        return check(f, x)
    except ValueError as exc:
        return exc


def _alone(one):
    """The entries of function f on trial x of a (function x trial) grid: the 1 x 1 checker's."""
    return lambda f, x: [_entry(one, f, x)]


def _per_mean(one):
    """The entries of f on trial x of a (function x mean x trial) grid, one per mean of SIGMAS."""
    return lambda f, x: [_entry(lambda f, x: one(f, sigma, *x), f, x) for sigma in SIGMAS]


def _per_config(one):
    """The entry of configuration (alpha, r) on trial x of an (alpha x r x trial) grid."""
    return lambda c, x: [_entry(lambda c, x: one(*x, *c), c, x)]


# every (function x mean) grid's trials: good ones, B below the PSD floor, expm1
# overflowing at M = 800, a zero A, one at m = 1e-6 (f(A) regularized for
# power:2 and power:3/2, not for sqrt) and a B of another dimension; log does
# not fix zero
_MEAN_TRIALS = [
    (_pd(1), _pd(2)),
    (_pd(3), _INDEFINITE),
    (_DIAG_800, _pd(4)),
    (_pd(5), _pd(6)),
    (_ZERO, _pd(7)),
    (_pd(8, m=1e-6), _pd(9, m=1e-6)),
    (_pd(10), _pd(11, dim=2)),
    (_pd(12), _pd(13)),
]

_RS = (0.5, 1.5, 3)

# the (alpha x r) grids' trials: good ones, B below the PSD floor, a zero A, one at
# m = 1e-6 (A^r not safely definite for r = 1.5 and 3), expm1's overflowing
# operand and a B of another dimension
_POWER_TRIALS = [
    (_pd(1), _pd(2)),
    (_pd(3), _INDEFINITE),
    (_ZERO, _pd(4)),
    (_pd(5, m=1e-6), _pd(6, m=1e-6)),
    (_pd(7), _pd(8)),
    (_DIAG_800, _pd(9)),
    (_pd(10), _pd(11, dim=2)),
    (_pd(12), _pd(13)),
]

# suite: (group grid, per-function entries of the 1 x 1 checker, trials mixing
# good ones with broken ones)
GROUPS = {
    "subadditivity": (
        lambda fs, trials: checks.check_subadditivity_grid(fs, trials),
        _alone(lambda f, x: checks.check_subadditivity_refinement(f, *x)),
        [
            (_pd(1), _pd(2)),
            (_pd(3), _INDEFINITE),  # below the PSD floor
            (_pd(4), _pd(5)),
            (_ZERO, _pd(6)),  # one zero operand: still judged
            (_ZERO, _ZERO),  # no content to check
            (_DIAG_800, _pd(7)),
            (_pd(8), _pd(9)),
        ],
    ),
    "normal_chain": (
        lambda fs, trials: checks.check_normal_chain_grid(fs, trials),
        _alone(lambda f, x: checks.check_normal_chain(f, *x)),
        [
            (_normal(1), _normal(2)),
            (_NON_NORMAL, _normal(3)),
            (_normal(4), _normal(5)),
            (_normal(6), _ZERO),  # singular values must be positive
            (_DIAG_800, _normal(7)),
            (_normal(8), _NON_NORMAL),
            (_normal(9), _normal(10)),
        ],
    ),
    "determinant": (
        lambda fs, trials: checks.check_determinant_grid(fs, trials),
        _alone(lambda f, x: checks.check_determinant_suite(f, *x)),
        [
            (_pd(1), _pd(2), 0.25),
            (_pd(3), _INDEFINITE, 0.5),
            (_pd(4), _pd(5), 1.5),  # alpha outside (0, 1)
            (_ZERO, _pd(6), 0.5),
            (_pd(7), _pd(8), 0.75),
            (_DIAG_800, _pd(9), 0.5),
            (_pd(10), _pd(11), 0.5),
        ],
    ),
    **{
        suite: (
            lambda fs, trials, grid=grid: grid(fs, SIGMAS, trials),
            _per_mean(one),
            _MEAN_TRIALS,
        )
        for suite, grid, one in (
            ("main_chain", checks.check_main_chain_grid, checks.check_main_chain),
            ("chord", checks.check_chord_bounds_grid, checks.check_chord_bounds),
            ("eig_prod_norm", checks.check_eig_prod_norm_grid, checks.check_eig_prod_norm),
            ("inverse_function", checks.check_inverse_function_grid,
             checks.check_inverse_function),
            ("mean_diff_norm", checks.check_mean_difference_norm_grid,
             checks.check_mean_difference_norm),
        )
    },
    # (grid, entries, trials, configurations): a grid over (alpha x r), not functions
    **{
        suite: (
            lambda configs, trials, grid=grid, alphas=alphas: grid(alphas, _RS, trials),
            _per_config(one),
            _POWER_TRIALS,
            [(alpha, r) for alpha in alphas for r in _RS],
        )
        for suite, grid, one, alphas in (
            ("power_mean", checks.check_power_mean_grid, checks.check_power_mean_bounds,
             (0, 0.25, 1)),
            ("ando_hiai", checks.check_ando_hiai_grid, checks.check_ando_hiai_comparison,
             (0.25, 0.75, 1.5)),
        )
    },
}


def _bits(entry) -> str:
    if isinstance(entry, ValueError):
        return f"{type(entry).__name__}: {entry}"
    # repr of every float round-trips, so equal text means equal bits
    return json.dumps(entry.to_dict(), sort_keys=True)


@pytest.fixture
def finite_solves(monkeypatch):
    """Wrap the eigensolvers so that each asserts it is handed only finite matrices."""
    seen = []
    for name in ("eigh", "eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def checked(arr, *args, _solver=solver, **kwargs):
            seen.append(np.shape(arr))
            assert np.isfinite(arr).all(), "an eigensolver was handed a matrix that is not finite"
            return _solver(arr, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, checked)
    return seen


@pytest.mark.parametrize("suite", sorted(GROUPS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_entries_equal_per_trial_checker_entries(finite_solves, suite):
    grid, one, trials, *configs = GROUPS[suite]
    configs = configs[0] if configs else [function_by_name(name) for name in FNS]
    group = grid(configs, trials)
    assert any(len(shape) == 3 and shape[0] > 1 for shape in finite_solves), "nothing was stacked"
    expected = [[_bits(e) for c in configs for e in one(c, x)] for x in trials]
    assert [[_bits(e) for e in row] for row in group] == expected
    # the group mixes records, trial breakdowns and function breakdowns
    kinds = {type(e).__name__ for row in group for e in row}
    assert "CheckOutcome" in kinds and len(kinds) > 2, kinds


def _reports(spec, tmp_path, tag) -> list[bytes]:
    report = run_suite(spec)
    report.summary.wall_time_s = 0.0
    out = []
    for fmt in ("json", "csv"):
        path = tmp_path / f"{tag}.{fmt}"
        emit_report(report, fmt, str(path))
        out.append(path.read_bytes())
    return out


_FEW = {
    "functions": ("power:2", "sqrt", "expm1"),
    "means": ("arithmetic:1/2", "geometric:1/4"),
    "alphas": (0.25, 0.75),
}


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"M": 800.0, "functions": ("expm1", "power:2", "sqrt")},
        {"dims": (1, 2, 3)},
        # Schatten powers other than 3: a row of a stacked table and a one-row
        # table would disagree in the last bit if a row's layout mattered
        {"norms": ("schatten:1.5", "schatten:2.5", "schatten:7", "kyfan:2")},
    ],
    ids=["default", "breakdowns", "dim-1-edge", "other-norms"],
)
@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_size_changes_no_report(monkeypatch, tmp_path, suite, extra):
    spec = SuiteSpec(suite, **{"trials": 8, "dims": (1, 2, 3, 5), **extra})
    _same_reports_alone(monkeypatch, tmp_path, spec)


def _same_reports_alone(monkeypatch, tmp_path, spec):
    grouped = _reports(spec, tmp_path, "grouped")
    monkeypatch.setattr(harness, "_GROUP_ENTRIES", 1)  # every trial a group of its own
    assert _reports(spec, tmp_path, "alone") == grouped


@pytest.mark.parametrize("extra", [{}, {"M": 800.0}], ids=["large-dims", "large-breakdowns"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_large_dim_grouping_changes_no_report(monkeypatch, tmp_path, suite, extra):
    # few configurations, so that dim-16 and dim-32 trials share groups: 4 of
    # each dimension, cut 3 + 1 at dim 32 with 6 configurations
    spec = SuiteSpec(suite, trials=8, dims=(16, 32), **_FEW, **extra)
    if harness._SUITES[suite].instances is not None:
        assert max(map(len, _run_groups(spec))) >= 3
    _same_reports_alone(monkeypatch, tmp_path, spec)


def _configs(spec) -> int:
    return math.prod(len(values) for _, values in harness._SUITES[spec.suite].axes(spec))


def _run_groups(spec) -> list:
    """The trial groups of ``spec``'s run, one group per check call."""
    return harness._trial_groups(spec, spec.trials, True, _configs(spec))


@pytest.fixture
def draws(monkeypatch):
    """The shapes of the QRs a run makes: one per dimension group, 2 x trials Haar factors."""
    shapes = []
    qr = np.linalg.qr

    def counted(a, *rest):
        shapes.append(np.shape(a))
        return qr(a, *rest)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return shapes


def test_one_stacked_qr_per_dimension_group(draws):
    # a group's instances are one draw: one QR of the Haar factors of both
    # operands of all its trials, whatever the suite and the pair kind.  The
    # default 200 trials over dims 2-6 are 40 per dimension; with at most 8
    # configurations they hold at most 8 x 40 x 6^2 entries, so each dimension
    # is one group
    expected = [(80, dim, dim) for dim in SuiteSpec("main_chain").dims]
    for suite in ("subadditivity", "normal_chain", "determinant", "main_chain"):
        draws.clear()
        spec = SuiteSpec(suite)
        if suite == "main_chain":  # the axes do not change what is drawn
            spec = SuiteSpec(suite, functions=("power:2",), means=("arithmetic:1/2",))
        assert _configs(spec) in (1, 4, 8) and 8 * 40 * 6**2 <= harness._GROUP_ENTRIES
        run_suite(spec)
        assert len(_run_groups(spec)) == len(expected)
        assert draws == expected, suite


# the benchmark's workloads: main_chain at dim 32 with 6 configurations, and at
# dims 2-6 with the default 72; subadditivity, normal_chain and determinant at
# dims 2-6
_CHAIN_LARGE = SuiteSpec(
    "main_chain", trials=20, dims=(32,), functions=("power:2", "sqrt"),
    means=("arithmetic:1/2", "harmonic:1/2", "geometric:1/2"),
)
_SMALL = [SuiteSpec("main_chain", trials=10)] + [
    SuiteSpec(suite, trials=20) for suite in ("subadditivity", "normal_chain", "determinant")
]


def test_large_dim_trials_share_a_group(draws):
    # 6 configurations x 3 trials x 32^2 entries fit the budget, 4 trials do not
    run_suite(_CHAIN_LARGE)
    assert draws == [(6, 32, 32)] * 6 + [(4, 32, 32)]


@pytest.mark.parametrize("spec", _SMALL, ids=[spec.suite for spec in _SMALL])
def test_small_dim_workloads_keep_one_group_per_dimension(draws, spec):
    run_suite(spec)
    per_dim = 2 * spec.trials // len(spec.dims)
    assert draws == [(per_dim, dim, dim) for dim in spec.dims]


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_no_default_group_exceeds_the_budget(suite):
    spec = SuiteSpec(suite)
    drawn = harness._SUITES[suite].instances is not None
    groups = harness._trial_groups(spec, spec.trials, drawn, _configs(spec))
    assert sorted(t for group in groups for t in group) == list(range(spec.trials if drawn else 1))
    for group in groups:
        (dim,) = {harness._dim_for(spec, t) for t in group}
        assert len(group) * _configs(spec) * dim**2 <= harness._GROUP_ENTRIES, (suite, dim)


def test_a_run_with_no_configuration_makes_no_record():
    # no configuration: the budget divides by no zero
    assert run_suite(SuiteSpec("power_mean", alphas=(), trials=2)).records == []


@pytest.mark.parametrize("spec, dim", [(_CHAIN_LARGE, 32), (SuiteSpec("main_chain"), 6)],
                         ids=["chain_large", "default-dim-6"])
def test_group_working_set(spec, dim):
    # the budget counts what a group's stacks hold, so a main_chain group peaks
    # near 3 MB whatever its shape: 3 dim-32 trials of 6 configurations, or 7
    # dim-6 trials of the default 72
    (_, fns), (_, means) = harness._SUITES["main_chain"].axes(spec)
    fs, sigmas = [function_by_name(name) for name in fns], [mean_by_name(name) for name in means]
    size = len(next(g for g in _run_groups(spec) if harness._dim_for(spec, g[0]) == dim))
    trials = [(_pd(seed, dim=dim), _pd(seed + 1, dim=dim)) for seed in range(1, 2 * size, 2)]
    checks.check_main_chain_grid(fs, sigmas, trials)  # warm: first-call allocations
    tracemalloc.start()
    try:
        group = checks.check_main_chain_grid(fs, sigmas, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(e, checks.CheckOutcome) for row in group for e in row)
    assert size >= 3 and peak <= 3.2e6, (size, peak)


def test_an_open_group_is_judged_on_its_own_stacks(monkeypatch):
    # every trial open, the judge reads the stack PairStack.group made; a
    # closed trial (here an indefinite A) leaves the open rows copied out
    built = []
    new = checks.PairStack.__new__

    def tracked(cls, *fields):
        built.append(new(cls, *fields))
        return built[-1]

    monkeypatch.setattr(checks.PairStack, "__new__", tracked)
    fs = [function_by_name("power:2")]
    for trials, shared in (
        ([(_pd(1), _pd(2)), (_pd(3), _pd(4))], True),
        ([(_pd(1), _pd(2)), (_INDEFINITE, _pd(4)), (_pd(5), _pd(6))], False),
    ):
        built.clear()
        checks.check_main_chain_grid(fs, SIGMAS, trials)
        group, judged = built  # the group's stack, then the one its judge reads
        assert len(group.a) == len(trials)
        assert (judged.a is group.a) is shared
        assert len(judged.a) == len(group.a) - (not shared)
        assert np.shares_memory(judged.a, group.a) is shared
        assert np.shares_memory(judged.vb, group.vb) is shared


def test_chord_slopes_are_taken_once_per_open_cell(monkeypatch):
    # past the function gates (log carries a tag, the untagged one does not) and the
    # trials' (an indefinite A), each (function, trial) takes its slopes once, for
    # every mean, and the lines are read off them
    calls = []
    slopes = checks.chord_coefficients
    monkeypatch.setattr(checks, "chord_coefficients", lambda f, m, M: calls.append(
        (f.name, m, M)) or slopes(f, m, M))
    untagged = ScalarFunction("untagged", fn=lambda x: x, deriv=lambda x: 1.0)
    fs = [function_by_name("power:2"), untagged, function_by_name("sqrt")]
    trials = [(_pd(1), _pd(2)), (_INDEFINITE, _pd(4)), (_pd(5), _pd(6))]
    grid = checks.check_chord_bounds_grid(fs, SIGMAS, trials)
    assert [name for name, *_ in calls] == ["power:2", "power:2", "sqrt", "sqrt"]
    for t, row in enumerate(grid):
        for k, f in enumerate(fs):
            for j, sigma in enumerate(SIGMAS):
                want = _entry(lambda f, x: checks.check_chord_bounds(f, sigma, *x), f, trials[t])
                assert _bits(row[k * len(SIGMAS) + j]) == _bits(want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_calls_keep_no_pair_alive(monkeypatch):
    # a group's operands and factors live in the stacks and rows that the grid
    # call builds; if anything kept one of them (a memo, or a cycle through it),
    # every group would live until the cycle collector ran, and a run's memory
    # would grow with its groups.  A stored error keeps no traceback, which
    # would hold its frame's stacks: in the second group expm1 overflows at
    # M = 800, an indefinite B fails its trial's gate and log, which does not
    # fix zero, its function's.  A stack is a tuple, which takes no weak
    # reference, so each of its arrays and any array one is a view of is tracked
    built, sizes = [], []
    new = checks.PairStack.__new__

    def tracked(cls, *fields):
        pair = new(cls, *fields)
        arrays = [x for x in pair if isinstance(x, np.ndarray)]
        arrays += [x.base for x in arrays if x.base is not None]
        built.extend(map(weakref.ref, arrays))
        sizes.append(len(pair.a))
        return pair

    monkeypatch.setattr(checks.PairStack, "__new__", tracked)
    good = [(_pd(seed), _pd(seed + 1)) for seed in (1, 3, 5)]
    broken = good[:1] + [(_pd(3, M=800.0), _pd(4, M=800.0)), (_pd(5), _INDEFINITE)]
    fs = [function_by_name(name) for name in ("power:2", "sqrt", "expm1", "log")]
    grids = {
        **{grid: lambda grid, fs, trials: grid(fs, SIGMAS, trials) for grid in (
            checks.check_main_chain_grid, checks.check_chord_bounds_grid,
            checks.check_eig_prod_norm_grid, checks.check_inverse_function_grid,
        )},
        checks.check_mean_difference_norm_grid: lambda grid, fs, trials: grid(
            fs[:3:2], SIGMAS, trials
        ),
        checks.check_power_mean_grid: lambda grid, _, trials: grid((0, 0.5, 1), (1, 2), trials),
        checks.check_ando_hiai_grid: lambda grid, _, trials: grid((0.25, 0.5), (1, 2), trials),
        checks.check_subadditivity_grid: lambda grid, fs, trials: grid(fs[:1], trials),
        checks.check_determinant_grid: lambda grid, fs, trials: grid(
            fs, [(a, b, 0.5) for a, b in trials]
        ),
    }
    gc.disable()
    try:
        for trials, names, kinds in ((good, fs[:3], {False}), (broken, fs, {False, True})):
            for grid, call in grids.items():
                built.clear()
                sizes.clear()
                entries = [e for row in call(grid, names, trials) for e in row]
                record_or_error = (checks.CheckOutcome, ValueError)
                assert all(isinstance(e, record_or_error) for e in entries), grid.__name__
                assert {isinstance(e, ValueError) for e in entries} == kinds, grid.__name__
                assert sizes[0] == len(trials), grid.__name__  # the group's stack, a row per trial
                assert [ref() for ref in built] == [None] * len(built), grid.__name__
    finally:
        gc.enable()
