"""Loewner scales solved on demand.

A link X <= Y whose scale is 1 + ||Y||_op passes when its margin is >= 0
at any scale >= 1, so ``core._loewner`` solves Y only for the rows whose
margin is negative, all of a call's in one more stacked eigvalsh, and
leaves the other rows' scale NaN.  Every verdict is the one of the rule
that solves every row's scale.
"""

import dataclasses
import json

import numpy as np
import pytest

from opmeans import checks, core, function_by_name, loewner_leq, mean, mean_by_name
from opmeans.functions import Convexity
from opmeans.harness import SuiteSpec, run_suite
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_pd


def _every_scale(comparisons, tol, errors=None):
    """``core._loewner`` with 1 + ||Y||_op solved for every row, its rows with an error as I."""
    given = []
    for k, (x, y, scale) in enumerate(comparisons):
        if scale is None:
            wy = core._eigvalsh(y, None if errors is None else errors[k])
            scale = 1.0 + np.maximum(np.abs(wy[:, 0]), np.abs(wy[:, -1]))
        given.append((x, y, scale))
    return core._loewner(given, tol, errors)


def _report(spec):
    d = run_suite(spec).to_dict()
    d["summary"]["wall_time_s"] = 0.0
    return json.dumps(d, sort_keys=True, indent=1).splitlines()


@pytest.mark.parametrize(
    "suite, extra",
    [("power_mean", {}), ("contraction", {}), ("ando_hiai", {"M": 400.0})],
    ids=["power_mean", "contraction", "ando_hiai-M400"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scale_on_demand_changes_no_record(monkeypatch, suite, extra):
    spec = SuiteSpec(suite, trials=12, master_seed=7, **extra)
    records = run_suite(spec).records
    # the runs do judge links with a negative margin, whose scale is solved
    assert sum(m < 0.0 for r in records for m in r.margins) > 0
    on_demand = _report(spec)
    monkeypatch.setattr(checks, "_loewner", _every_scale)
    assert on_demand == _report(spec)


def _group(trials, dim=3):
    cfg = GeneratorConfig(dim, 0.5, 4.0)
    return [
        tuple(random_pd(cfg, derive_stream_seed(40 + t, k)).entries for k in (0, 1))
        for t in range(trials)
    ]


def _eigvalsh_stacks(monkeypatch):
    stacks = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: stacks.append(x) or solve(x))
    return stacks


def test_main_chain_group_solves_only_negative_margins_scales(monkeypatch):
    pairs, sigma = _group(4), mean_by_name("geometric:1/2")
    # sqrt is concave: tagged convex, its c1 S <= X links fail, and those are the
    # links whose right side X = f(A) sigma f(B) gives their scale
    wrong = dataclasses.replace(function_by_name("sqrt"), convexity=Convexity.CONVEX)
    right = function_by_name("power:2")
    stacks = _eigvalsh_stacks(monkeypatch)
    rows = checks.check_main_chain_grid((right, wrong), (sigma,), pairs)
    negative = [t for t, row in enumerate(rows) if row[1].margins[1] < 0.0]
    assert negative and all(row[0].margins[1] >= 0.0 for row in rows)
    # S's spectra, the differences of both links of every record, then the
    # norms of the negative margins' X alone
    assert [len(x) for x in stacks] == [len(pairs), 2 * 2 * len(pairs), len(negative)]
    for x, t in zip(stacks[-1], negative):
        a, b = pairs[t]
        want = mean(sigma, core.apply_fn(wrong, a), core.apply_fn(wrong, b)).entries
        assert np.allclose(np.linalg.eigvalsh(x), np.linalg.eigvalsh(want), rtol=1e-12)


def test_main_chain_group_with_no_negative_margin_solves_no_scale(monkeypatch):
    pairs, sigma = _group(4), mean_by_name("geometric:1/2")
    stacks = _eigvalsh_stacks(monkeypatch)
    fs = (function_by_name("power:2"), function_by_name("sqrt"))
    rows = checks.check_main_chain_grid(fs, (sigma,), pairs)
    assert all(m >= 0.0 for row in rows for r in row for m in r.margins)
    assert [len(x) for x in stacks] == [len(pairs), 2 * 2 * len(pairs)]


def test_unsolved_scales_are_nan_and_pass():
    x = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 1.0]), np.diag([1.0, 1.0])])
    y = np.stack([np.diag([2.0, 2.0]), np.diag([2.0, 5.0]), np.diag([1.0, -4.0])])
    (res,) = core._loewner([(x, y, None)], 1e-8)
    assert res.margin.tolist() == [0.0, -1.0, -5.0]
    assert res.passed.tolist() == [True, False, False]
    assert np.isnan(res.scale[0]) and res.scale[1:].tolist() == [6.0, 5.0]
    # with a negative tolerance a margin >= 0 can fail, so every scale is solved
    (res,) = core._loewner([(x, y, None)], -0.5)
    assert res.scale.tolist() == [3.0, 6.0, 5.0] and not res.passed.any()


def test_loewner_leq_solves_its_scale_at_every_margin():
    res = loewner_leq(np.eye(2), np.diag([3.0, 4.0]))
    assert res.passed and res.margin == 2.0 and res.scale == 5.0
    res = loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, -3.0]))
    assert not res.passed and res.scale == 4.0
