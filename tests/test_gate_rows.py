"""A checker's hypotheses run in a fixed order, and a function's own ones first.

Each function-axis checker is handed inputs that fail two of its
hypotheses at once; the reason it gives is the first one's, in the order
the checker states them.  A fixture pair of a 2 x 2 and a 3 x 3 operand
downgrades every record of every positive-definite suite with its reason,
and raises nothing: a function failing its own hypotheses is refused
before the pair is factored.  So is a configuration (an exponent or a
weight) failing its own, and both come before a pair that is not square or
not finite is refused.
"""

import math

import numpy as np
import pytest

from opmeans import checks
from opmeans.core import NotPositiveDefiniteError, NotPositiveSemidefiniteError
from opmeans.functions import REALS, Convexity, ScalarFunction, function_by_name
from opmeans.harness import SuiteSpec, run_suite, save_matrix_json
from opmeans.means import mean_by_name
from opmeans.randgen import GeneratorConfig, random_pd

# untagged, and f(0) = 1
SHIFTED = ScalarFunction("shifted", fn=lambda x: x + 1.0, deriv=lambda x: 1.0)
# convex, and f(0) = 1
EXP = ScalarFunction(
    "exp", fn=np.exp, deriv=np.exp, domain=REALS, convexity=Convexity.CONVEX
)
# convex, fixing zero, with an untagged registered inverse
CUBE = ScalarFunction(
    "cube", fn=lambda x: x**3, deriv=lambda x: 3.0 * x**2, domain=REALS,
    convexity=Convexity.CONVEX, fixes_zero=True,
    inverse=ScalarFunction("cbrt", fn=np.cbrt, deriv=lambda x: x, domain=REALS),
)
# convex, fixing zero, with an infinite derivative
STEEP = ScalarFunction(
    "steep", fn=lambda x: x**2, deriv=lambda x: math.inf,
    convexity=Convexity.CONVEX, fixes_zero=True,
)

INDEFINITE = (np.diag([1.5, -0.25]), np.diag([1.0, 2.0]))
DEFINITE = (np.diag([1.5, 0.5]), np.diag([1.0, 2.0]))
MEAN = mean_by_name("geometric:1/2")

CHECKERS = {
    "main_chain": lambda f, a, b: checks.check_main_chain(f, MEAN, a, b),
    "chord": lambda f, a, b: checks.check_chord_bounds(f, MEAN, a, b),
    "eig_prod_norm": lambda f, a, b: checks.check_eig_prod_norm(f, MEAN, a, b),
    "inverse_function": lambda f, a, b: checks.check_inverse_function(f, MEAN, a, b),
    "mean_diff_norm": lambda f, a, b: checks.check_mean_difference_norm(f, MEAN, a, b),
    "subadditivity": checks.check_subadditivity_refinement,
    "normal_chain": checks.check_normal_chain,
    "determinant": checks.check_determinant_suite,
}

UNTAGGED = (ValueError, "shifted carries no convexity tag; checker needs convex or concave")
EXP_NOT_ZERO = (ValueError, "exp does not fix zero")
NOT_PD = (NotPositiveDefiniteError, "positive definite operands required")
NOT_PSD = (NotPositiveSemidefiniteError, "operand eigenvalue -2.500000e-01 below -tol*scale")

# (checker, function, pair, the error of the first hypothesis it fails)
CASES = [
    # untagged and not fixing zero
    *((name, SHIFTED, INDEFINITE, UNTAGGED)
      for name in ("main_chain", "chord", "eig_prod_norm", "normal_chain", "determinant")),
    ("inverse_function", SHIFTED, INDEFINITE, (ValueError, "shifted has no registered inverse")),
    ("mean_diff_norm", SHIFTED, INDEFINITE,
     (ValueError, "mean-difference bound requires a convex function, got shifted")),
    ("subadditivity", SHIFTED, INDEFINITE,
     (ValueError, "subadditivity refinement requires a convex function, got shifted")),
    # not fixing zero, and m <= 0
    *((name, EXP, INDEFINITE, EXP_NOT_ZERO)
      for name in ("main_chain", "eig_prod_norm", "mean_diff_norm", "subadditivity",
                   "normal_chain", "determinant")),
    ("chord", EXP, INDEFINITE, NOT_PSD),
    ("inverse_function", EXP, INDEFINITE, (ValueError, "exp has no registered inverse")),
    # an untagged inverse: m > 0 is checked first
    ("inverse_function", CUBE, INDEFINITE, NOT_PD),
    ("inverse_function", CUBE, DEFINITE, (ValueError, "inverse of cube carries no convexity tag")),
    # a concave function on an indefinite pair
    ("mean_diff_norm", function_by_name("sqrt"), INDEFINITE,
     (ValueError, "mean-difference bound requires a convex function, got sqrt")),
    # an infinite endpoint derivative: m > 0 is checked first
    ("mean_diff_norm", STEEP, INDEFINITE, NOT_PD),
    ("mean_diff_norm", STEEP, DEFINITE, (ValueError, "infinite endpoint derivative")),
    # tagged and fixing zero, m <= 0
    ("main_chain", function_by_name("power:2"), INDEFINITE,
     (NotPositiveDefiniteError, "spectra must be positive, got m=-2.500000e-01")),
    *((name, function_by_name("power:2"), INDEFINITE, NOT_PD)
      for name in ("eig_prod_norm", "inverse_function", "mean_diff_norm", "determinant")),
    ("subadditivity", function_by_name("power:2"), INDEFINITE, NOT_PSD),
]


@pytest.mark.parametrize(
    "name, f, pair, expected", CASES,
    ids=[f"{n}-{f.name}-{'pd' if p is DEFINITE else 'indefinite'}" for n, f, p, _ in CASES],
)
def test_first_failing_hypothesis_is_the_reason(name, f, pair, expected):
    error, message = expected
    with pytest.raises(ValueError) as info:
        CHECKERS[name](f, *pair)
    assert type(info.value) is error
    assert str(info.value) == message


SHAPE = "operands must have the same dimension"

# per suite, the reason of each of power:2, log and sqrt on a 2 x 2 and a 3 x 3 operand
FIXTURE_REASONS = {
    "main_chain": (SHAPE, "log does not fix zero", SHAPE),
    "chord": (SHAPE, SHAPE, SHAPE),
    "eig_prod_norm": (SHAPE, "log does not fix zero", SHAPE),
    "inverse_function": (SHAPE, "log has no registered inverse", SHAPE),
    "mean_diff_norm": (
        SHAPE,
        "mean-difference bound requires a convex function, got log",
        "mean-difference bound requires a convex function, got sqrt",
    ),
    "subadditivity": (
        SHAPE,
        "subadditivity refinement requires a convex function, got log",
        "subadditivity refinement requires a convex function, got sqrt",
    ),
    "determinant": (SHAPE, "log does not fix zero", SHAPE),
}


@pytest.mark.parametrize("suite", sorted(FIXTURE_REASONS))
def test_mismatched_fixture_pair_downgrades_every_record(tmp_path, suite):
    paths = []
    for dim, seed in ((2, 1), (3, 2)):
        path = str(tmp_path / f"op{dim}.json")
        save_matrix_json(random_pd(GeneratorConfig(dim, 0.5, 4.0), seed), path)
        paths.append(path)
    spec = SuiteSpec(suite, fixtures=tuple(paths), functions=("power:2", "log", "sqrt"))
    records = run_suite(spec).records
    reasons = dict(zip(spec.functions, FIXTURE_REASONS[suite]))
    assert records
    for rec in records:
        assert rec.descriptions == ()
        assert rec.params["not_applicable"] == reasons[rec.params["fn"]]


NON_SQUARE = (np.ones((2, 3)), np.eye(2))
NON_FINITE = (np.diag([np.nan, 1.0]), np.eye(2))
MALFORMED = {"non-square": NON_SQUARE, "non-finite": NON_FINITE}


POWER_2 = function_by_name("power:2")

# per checker of a configuration: the call on a pair, and per configuration
# that fails a gate, the gate's message; (0.5, 2.0) and 0.5 pass every gate
CONFIGURED = {
    "power_mean": (checks.check_power_mean_bounds, {
        (0.5, 0.5): r"^exponent r must be >= 1$", (1.5, 2.0): r"^alpha must lie in \[0, 1\]$",
    }, (0.5, 2.0)),
    "ando_hiai": (checks.check_ando_hiai_comparison, {
        (0.5, 0.5): r"^exponent r must be >= 1$",
    }, (0.5, 2.0)),
    "determinant": (lambda a, b, alpha: checks.check_determinant_suite(POWER_2, a, b, alpha), {
        (1.5,): r"^alpha must lie strictly inside \(0, 1\)$",
        (0.0,): r"^alpha must lie strictly inside \(0, 1\)$",
    }, (0.5,)),
}


@pytest.mark.parametrize("checker", ["power_mean", "ando_hiai", "determinant"])
@pytest.mark.parametrize("pair", MALFORMED.values(), ids=MALFORMED)
def test_configuration_gates_come_before_the_operands(checker, pair):
    # the exponent's and the weight's gates run before the pair is validated
    call, refused, passing = CONFIGURED[checker]
    for config, message in refused.items():
        with pytest.raises(ValueError, match=message):
            call(*pair, *config)
    with pytest.raises(ValueError) as info:
        call(*pair, *passing)
    assert "exponent" not in str(info.value) and "alpha" not in str(info.value)


# per checker, the reason of its untagged function not fixing zero
SHIFTED_REASONS = {name: expected for name, f, _, expected in CASES if f is SHIFTED}


@pytest.mark.parametrize("name", sorted(SHIFTED_REASONS))
@pytest.mark.parametrize("pair", MALFORMED.values(), ids=MALFORMED)
def test_function_gates_come_before_the_operands(name, pair):
    error, message = SHIFTED_REASONS[name]
    with pytest.raises(ValueError) as info:
        CHECKERS[name](SHIFTED, *pair)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("grid", [checks.check_subadditivity_grid, checks.check_normal_chain_grid],
                         ids=lambda g: g.__name__)
def test_a_malformed_trial_is_refused_alone(grid):
    eye = np.eye(2)
    (bad,), (good,) = grid((function_by_name("power:2"),), [(np.ones((2, 3)), eye),
                                                          (eye, 2.0 * eye)])
    assert type(bad) is checks.ShapeError
    assert str(bad) == "expected a square matrix, got shape (2, 3)"
    assert isinstance(good, checks.CheckOutcome)


def test_subadditivity_refuses_a_falling_ratio():
    # tagged convex and fixing zero, but sqrt(x)/x falls: the ratio gate refuses it
    root = ScalarFunction("root", fn=np.sqrt, deriv=lambda x: 0.5 / np.sqrt(x),
                          convexity=Convexity.CONVEX, fixes_zero=True)
    ((error,),) = checks.check_subadditivity_grid((root,), [DEFINITE])
    assert type(error) is ValueError
    assert str(error) == "f(x)/x is not nondecreasing for root"


def test_contraction_refuses_a_pair_with_no_common_domain():
    # mobius-inverse lives on (-inf, 1), x_over_log on (1, inf)
    g, h = function_by_name("mobius").inverse, function_by_name("x_over_log")
    ((error,),) = checks.check_contraction_grid((g,), (h,), [DEFINITE])
    assert type(error) is ValueError
    assert str(error) == "empty grid after intersecting with domains"
