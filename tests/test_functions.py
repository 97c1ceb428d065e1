import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeans import (
    Convexity,
    DomainViolationError,
    FunctionPair,
    check_pair_conditions,
    chord_coefficients,
    function_by_name,
    function_catalog,
    iterate,
    power,
)
from opmeans.functions import Interval, times_x

FD_GRID = np.geomspace(1e-2, 50.0, 64)


def _fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_catalog_contents_and_tags():
    cat = {f.name: f for f in function_catalog()}
    for name in ("identity", "power:1/2", "power:2/3", "power:1", "power:3/2",
                 "power:2", "power:3", "log1p", "expm1", "mobius", "sqrt"):
        assert name in cat
    assert cat["power:2"].convexity is Convexity.CONVEX
    assert cat["power:2"].fixes_zero
    assert cat["power:2"].deriv(0.0) == 0.0
    assert cat["log1p"].convexity is Convexity.CONCAVE
    assert cat["log1p"].deriv(0.0) == 1.0
    assert cat["sqrt"].convexity is Convexity.CONCAVE
    assert cat["sqrt"].deriv(0.0) == math.inf
    for f in cat.values():
        if f.fixes_zero:
            assert abs(f(0.0)) <= 1e-14


def test_power_one_derivative_at_zero():
    f = power(1.0)
    assert f.deriv(0.0) == 1.0
    assert np.allclose(f.deriv(np.array([0.0, 2.0])), [1.0, 1.0])


def test_function_by_name_fractions():
    f = function_by_name("power:3/2")
    assert f(4.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        function_by_name("powerhouse:2")
    with pytest.raises(ValueError):
        power(-1.0)


def test_derivative_matches_finite_differences():
    for f in function_catalog():
        for x in FD_GRID:
            d = float(f.deriv(x))
            if not math.isfinite(d):
                continue
            assert abs(d - _fd(f, float(x))) <= 1e-6 * (1.0 + abs(d)), f.name


def test_inverse_round_trips():
    for f in function_catalog():
        if f.inverse is None:
            continue
        for y in np.geomspace(1e-2, 10.0, 32):
            y = float(y)
            if not f.inverse.domain.contains(y):
                continue
            assert f(f.inverse(y)) == pytest.approx(y, abs=1e-10, rel=1e-10), f.name


def test_functions_hash_by_identity():
    # a function and its registered inverse point at each other: a field-wise
    # hash recursed between them without end
    f = function_by_name("power:0.5")
    pair = FunctionPair(f, f.inverse)
    assert {f: 1, f.inverse: 2, pair: 3}[pair] == 3
    assert f != f.inverse and function_by_name("power:0.5") != f


def test_convexity_ratio_ordering():
    grid = np.geomspace(1e-2, 20.0, 48)
    for f in function_catalog():
        if not f.fixes_zero or f.name == "identity":
            pass
        ratios = [float(f(x)) / float(x) for x in grid]
        diffs = np.diff(ratios)
        if f.convexity is Convexity.CONVEX:
            assert np.all(diffs >= -1e-12), f.name
        elif f.convexity is Convexity.CONCAVE:
            assert np.all(diffs <= 1e-12), f.name


def test_chord_coefficients_examples():
    assert chord_coefficients(function_by_name("power:2"), 1.0, 4.0) == (2.0, 8.0)
    assert chord_coefficients(function_by_name("identity"), 0.3, 2.0) == (1.0, 1.0)
    a, b = chord_coefficients(function_by_name("log1p"), 1.0, 4.0)
    assert (a, b) == (pytest.approx(0.5), pytest.approx(0.2))
    # concave: chord slope sits between b and a
    slope = (math.log(5.0) - math.log(2.0)) / 3.0
    assert b <= slope <= a


def test_chord_coefficients_errors():
    with pytest.raises(ValueError):
        chord_coefficients(function_by_name("power:2"), 4.0, 1.0)
    with pytest.raises(ValueError):
        chord_coefficients(function_by_name("identity"), -1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["power:3/2", "power:2", "power:3", "expm1"]),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.02, max_value=6.0),
)
def test_chord_bracket_property_convex(name, m, spread):
    f = function_by_name(name)
    M = m + spread
    a, b = chord_coefficients(f, m, M)
    slope = (float(f(M)) - float(f(m))) / (M - m)
    assert a <= slope + 1e-9 * (1.0 + abs(slope))
    assert slope <= b + 1e-9 * (1.0 + abs(b))


def test_iterate_examples():
    ident = function_by_name("identity")
    assert iterate(ident, 5)(3.7) == 3.7
    f = iterate(function_by_name("power:3/2"), 2)
    assert float(f(4.0)) == pytest.approx(22.627416997969522)
    g = iterate(function_by_name("power:2"), 3)
    assert float(g(2.0)) == pytest.approx(256.0)
    assert iterate(ident, 1) is ident
    with pytest.raises(ValueError):
        iterate(ident, 0)


def test_iterate_domain_error_reports_depth():
    # mobius-inverse maps [0, 1) onto [0, inf); a second application of a
    # function whose image escapes the domain must fail at depth 1
    f = function_by_name("mobius").inverse
    it = iterate(f, 2)
    with pytest.raises(DomainViolationError, match="depth 1"):
        it(0.6)


def test_iterate_associativity():
    f = function_by_name("mobius")
    grid = np.linspace(0.0, 5.0, 21)
    lhs = iterate(f, 5)(grid)
    rhs = iterate(f, 2)(iterate(f, 3)(grid))
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
    d_lhs = iterate(f, 5).deriv(grid)
    d_rhs = iterate(f, 2).deriv(iterate(f, 3)(grid)) * iterate(f, 3).deriv(grid)
    assert np.allclose(d_lhs, d_rhs, rtol=1e-9, atol=1e-12)


def test_times_x():
    f = times_x(function_by_name("power:1/2"))
    assert float(f(4.0)) == pytest.approx(8.0)
    assert f.fixes_zero
    assert float(f.deriv(4.0)) == pytest.approx(3.0)


def test_pair_conditions_sqrt_identity():
    pair = FunctionPair(function_by_name("power:1/2"), function_by_name("power:1/2"))
    report = check_pair_conditions(pair)
    assert report.all_forward
    for res in report.results:
        assert abs(res.worst_violation) <= 1e-9


def test_pair_conditions_power_pairs_hold():
    for p in (0.25, 0.5, 0.75):
        for q in (0.25, 0.5, 0.75):
            pair = FunctionPair(power(p), power(q))
            assert check_pair_conditions(pair).all_forward


def test_pair_conditions_log_pair_third_condition_mixed():
    # On (e, 100] conditions (i) and (ii) hold but (iii) flips sign at
    # x ~ 47.34, where 1/log(x) + 1/log(log(x)) drops below 1; the grid
    # verdict is therefore mixed, with a genuine positive violation.
    pair = FunctionPair(function_by_name("log"), function_by_name("x_over_log"))
    grid = np.geomspace(math.e * 1.000001, 100.0, 256)
    report = check_pair_conditions(pair, grid=grid)
    assert report.results[0].holds_forward
    assert report.results[1].holds_forward
    third = report.results[2]
    assert third.direction == "mixed"
    x, lg = 100.0, math.log(100.0)
    expected = (x * lg) / (lg + math.log(lg)) - x / math.log(lg)
    assert third.worst_violation == pytest.approx(expected, rel=1e-9)


def test_pair_conditions_log_pair_holds_below_threshold():
    pair = FunctionPair(function_by_name("log"), function_by_name("x_over_log"))
    grid = np.geomspace(math.e * 1.000001, 40.0, 128)
    assert check_pair_conditions(pair, grid=grid).all_forward


def test_pair_conditions_domain_violation():
    pair = FunctionPair(function_by_name("log"), function_by_name("x_over_log"))
    with pytest.raises(DomainViolationError):
        check_pair_conditions(pair, grid=np.array([0.5, 2.0]))


@pytest.mark.parametrize(
    "interval",
    [
        Interval(0.0, math.inf),
        Interval(0.0, math.inf, lo_open=True),
        Interval(-1.0, 1.0, lo_open=True, hi_open=True),
        Interval(-1.0, 1.0),
        Interval(-math.inf, 1.0, hi_open=True),
        Interval(),
    ],
    ids=str,
)
def test_outside_mask_equals_pointwise_contains(interval):
    # the grid filter of check_pair_conditions: grids touching both endpoints,
    # just inside and just outside them, and beyond
    grid = np.concatenate([
        np.geomspace(1e-2, 1e2, 256),
        [-2.0, -1.0, np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0), -0.0, 0.0, 5e-324],
        [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), -math.inf, math.inf, math.nan],
    ])

    def refused(x):  # each endpoint by itself: NaN lies beyond neither
        lo, hi = interval.lo, interval.hi
        below = x <= lo if interval.lo_open else x < lo
        return below or (x >= hi if interval.hi_open else x > hi)

    mask = interval.outside(grid)
    assert mask.tolist() == [refused(float(x)) for x in grid]
    assert mask.tolist() == [not interval.contains(float(x)) for x in grid]


def test_matrix_monotone_smoke_2x2():
    # A <= B implies g(A) <= g(B) for the asserted-monotone catalog powers
    from opmeans import loewner_leq, apply_fn
    from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_pd

    for seed in range(25):
        cfg = GeneratorConfig(2, 0.5, 4.0)
        a = random_pd(cfg, derive_stream_seed(31, 2 * seed)).entries
        p = random_pd(cfg, derive_stream_seed(31, 2 * seed + 1)).entries
        b = a + 0.5 * p
        for name in ("power:1/4", "power:1/2", "power:3/4"):
            g = function_by_name(name)
            assert loewner_leq(apply_fn(g, a), apply_fn(g, b)).passed


# --- Interval.clamp ------------------------------------------------------------------

def test_clamp_refuses_an_open_upper_endpoint_at_any_tolerance():
    domain = function_by_name("mobius").inverse.domain  # [-inf, 1)
    with pytest.raises(DomainViolationError, match=r"1\.0\) outside open upper endpoint of"):
        domain.clamp(np.array([0.5, 1.0]), 1.0)
    errors = np.full(2, None, dtype=object)
    out = domain.clamp(np.array([[0.5, 1.0], [0.25, 0.5]]), 1.0, errors)
    assert isinstance(errors[0], DomainViolationError) and errors[1] is None
    assert out.tolist() == [[0.0, 0.0], [0.25, 0.5]]  # the refused row is set inside


def test_clamp_onto_a_closed_upper_endpoint_within_tolerance():
    domain = Interval(0.0, 1.0)
    assert domain.clamp(np.array([0.5, 1.0 + 5e-11]), 1e-10).tolist() == [0.5, 1.0]
    with pytest.raises(DomainViolationError, match=r"1\.000001\) outside domain \[0, 1\]"):
        domain.clamp(np.array([0.5, 1.0 + 1e-6]), 1e-10)
    # the tolerance is per row
    out = domain.clamp(np.array([[1.0 + 1e-6], [1.0 + 1e-6]]), np.array([1e-10, 1e-5]),
                       np.full(2, None, dtype=object))
    assert out.tolist() == [[0.5], [1.0]]


def test_clamp_sets_a_row_that_already_has_an_error_inside():
    earlier = ValueError("earlier")
    errors = np.array([earlier, None, None], dtype=object)
    rows = np.array([[math.nan, 2.0], [0.5, 2.0], [-1.0, 3.0]])
    out = Interval(0.0, math.inf).clamp(rows, 1e-10, errors)
    assert out.tolist() == [[1.0, 1.0], [0.5, 2.0], [1.0, 1.0]]
    assert errors[0] is earlier and errors[1] is None
    assert isinstance(errors[2], DomainViolationError)
    assert np.isnan(rows[0, 0])  # the caller's values are left alone
