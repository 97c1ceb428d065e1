"""A run hands its checks one dimension group of trials at a time.

``subadditivity``, ``normal_chain`` and ``determinant`` judge a whole group
as one grid.  A trial's breakdown must stay that trial's: every entry of a
group equals, bit for bit, the 1 x 1 checker's record or error on that
trial's raw matrices, and no eigensolver sees a matrix that is not finite.
How the trials are cut into groups must change no report.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from opmeans import checks, harness
from opmeans.functions import function_by_name
from opmeans.harness import SUITE_NAMES, SuiteSpec, emit_report, run_suite
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_normal, random_pd

FNS = ("power:2", "expm1", "sqrt", "log", "power:3/2")


def _pd(seed, dim=3):
    cfg = GeneratorConfig(dim, 0.5, 4.0)
    return np.array(random_pd(cfg, derive_stream_seed(seed, 0)).entries)


def _normal(seed, dim=3):
    cfg = GeneratorConfig(dim, 0.5, 4.0, "normal_complex")
    return np.array(random_normal(cfg, derive_stream_seed(seed, 0)).entries)


_DIAG_800 = np.diag([800.0, 1.0, 2.0]).astype(complex)  # expm1(800) overflows
_ZERO = np.zeros((3, 3), dtype=complex)
_INDEFINITE = np.diag([1.0, -1.0, 2.0]).astype(complex)
_NON_NORMAL = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)

# suite: (group grid, 1 x 1 checker, trials mixing good ones with broken ones)
GROUPS = {
    "subadditivity": (
        lambda fs, trials: checks.check_subadditivity_grid(fs, trials),
        lambda f, x: checks.check_subadditivity_refinement(f, *x),
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
        lambda f, x: checks.check_normal_chain(f, *x),
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
        lambda f, x: checks.check_determinant_suite(f, *x),
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
}


def _entry(check, f, x):
    try:
        return check(f, x)
    except ValueError as exc:
        return exc


def _bits(entry) -> str:
    if isinstance(entry, ValueError):
        return f"{type(entry).__name__}: {entry}"
    # repr of every float round-trips, so equal text means equal bits
    return json.dumps(entry.to_dict(), sort_keys=True)


@pytest.fixture
def finite_solves(monkeypatch):
    """Wrap the eigensolvers so that each asserts it is handed only finite matrices."""
    seen = []
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "schur")):
        solver = getattr(module, name)

        def checked(arr, *args, _solver=solver, **kwargs):
            seen.append(np.shape(arr))
            assert np.isfinite(arr).all(), "an eigensolver was handed a matrix that is not finite"
            return _solver(arr, *args, **kwargs)

        monkeypatch.setattr(module, name, checked)
    return seen


@pytest.mark.parametrize("suite", sorted(GROUPS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_entries_equal_per_trial_checker_entries(finite_solves, suite):
    grid, one, trials = GROUPS[suite]
    fs = [function_by_name(name) for name in FNS]
    group = grid(fs, trials)
    assert any(len(shape) == 3 and shape[0] > 1 for shape in finite_solves), "nothing was stacked"
    expected = [[_bits(_entry(one, f, x)) for f in fs] for x in trials]
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


@pytest.mark.parametrize(
    "extra",
    [{}, {"M": 800.0, "functions": ("expm1", "power:2", "sqrt")}, {"dims": (1, 2, 3)}],
    ids=["default", "breakdowns", "dim-1-edge"],
)
@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_size_changes_no_report(monkeypatch, tmp_path, suite, extra):
    spec = SuiteSpec(suite, **{"trials": 8, "dims": (1, 2, 3, 5), **extra})
    grouped = _reports(spec, tmp_path, "grouped")
    monkeypatch.setattr(harness, "_GROUP_ENTRIES", 1)  # every trial a group of its own
    assert _reports(spec, tmp_path, "alone") == grouped


def test_one_stacked_qr_per_dimension_group(monkeypatch):
    # a group's instances are one draw: one QR of the Haar factors of both
    # operands of all its trials, whatever the suite and the pair kind
    shapes = []
    qr = np.linalg.qr

    def counted(a, *rest):
        shapes.append(np.shape(a))
        return qr(a, *rest)

    monkeypatch.setattr(np.linalg, "qr", counted)
    # the default 200 trials over dims 2-6 are 40 per dimension, one group
    # each, except that 28 dim-6 trials fill a group of 1024 entries
    expected = [(80, 2, 2), (80, 3, 3), (80, 4, 4), (80, 5, 5), (56, 6, 6), (24, 6, 6)]
    for suite in ("subadditivity", "normal_chain", "determinant", "main_chain"):
        shapes.clear()
        spec = SuiteSpec(suite)
        if suite == "main_chain":  # the axes do not change what is drawn
            spec = SuiteSpec(suite, functions=("power:2",), means=("arithmetic:1/2",))
        run_suite(spec)
        assert len(harness._trial_groups(spec, spec.trials, True)) == len(expected)
        assert shapes == expected, suite
