"""A suite run shares factors between configurations without changing a record.

``run_suite`` builds each trial's factors once and hands every
configuration of the trial operands that carry them.  Every record it emits
must equal, bit for bit, the record of the public checker called on the raw
instance matrices, downgrades included.
"""

import json

import numpy as np
import pytest

from opmeans import checks
from opmeans.checks import SharedPair
from opmeans.functions import function_by_name
from opmeans.harness import SuiteSpec, _pd_pair, run_suite
from opmeans.means import mean_by_name

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

MEANS = ("arithmetic:1/2", "harmonic:1/4", "geometric:3/4")


def _raw_record(suite, spec, fn, mean, t):
    a, b = (x.entries.copy() for x in _pd_pair(spec, t))
    try:
        out = SUITES[suite](function_by_name(fn), mean_by_name(mean), a, b, spec)
    except ValueError as exc:
        out = checks.CheckOutcome(suite, "not-applicable", (), {"not_applicable": str(exc)})
    context = {"suite": suite, "trial": t, "fn": fn, "mean": mean, "dim": a.shape[0]}
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
@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_shared_records_equal_raw_checker_records(suite, fns, extra):
    spec = SuiteSpec(suite, trials=3, dims=(1, 2, 3, 4), functions=fns, means=MEANS, **extra)
    records = run_suite(spec).records
    expected = [
        _raw_record(suite, spec, fn, mean, t)
        for fn in fns
        for mean in MEANS
        for t in range(spec.trials)
    ]
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert got.to_dict() == want.to_dict()
        assert _bits(got) == _bits(want)


def test_shared_operands_act_as_the_raw_matrices():
    spec = SuiteSpec("main_chain", dims=(3,))
    a, b = _pd_pair(spec, 0)
    pair = SharedPair(a, b, spec.tol)
    f, sigma = function_by_name("power:2"), mean_by_name("geometric:1/2")
    x, y = pair.operands(pair.mean(sigma), pair.image(f))
    assert np.array_equal(np.asarray(x), a.entries)
    assert np.array_equal(np.asarray(y), b.entries)
    shared = checks.check_main_chain(f, sigma, x, y, spec.tol)
    assert _bits(shared) == _bits(checks.check_main_chain(f, sigma, a, b, spec.tol))
    # levels built for another mean or function are not used for this one
    other = mean_by_name("arithmetic:1/2")
    assert _bits(checks.check_main_chain(f, other, x, y, spec.tol)) == _bits(
        checks.check_main_chain(f, other, a, b, spec.tol)
    )
    # nor are operands handed over in the wrong order
    assert _bits(checks.check_main_chain(f, sigma, y, x, spec.tol)) == _bits(
        checks.check_main_chain(f, sigma, b, a, spec.tol)
    )
