import math
import warnings

import numpy as np
import pytest

from opmeans import (
    CheckOutcome,
    DomainViolationError,
    FunctionPair,
    NotNormalError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    check_ando_hiai_comparison,
    check_chord_bounds,
    check_contraction_grid,
    check_contraction_implication,
    check_determinant_suite,
    check_eig_prod_norm,
    check_inverse_function,
    check_log_example,
    check_main_chain,
    check_mean_difference_norm,
    check_normal_chain,
    check_normal_counterexample,
    check_normal_triangle,
    check_power_mean_bounds,
    check_subadditivity_refinement,
    checks,
    function_by_name,
    loewner_leq,
    mean,
    mean_by_name,
    power,
)
from opmeans.functions import Convexity, ScalarFunction
from opmeans.means import MatrixMean, normalize_for_contraction
from opmeans.harness import SuiteSpec, run_suite
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_pd

A = np.diag([1.0, 4.0])
B = np.diag([2.0, 3.0])
SQ = function_by_name("power:2")
LOG1P = function_by_name("log1p")
IDENT = function_by_name("identity")
ARITH = mean_by_name("arithmetic:1/2")
GEO = mean_by_name("geometric:1/2")
OPNORM = ("operator",)


def _margins(outcome):
    return {  # last occurrence wins; fine for unique descriptions
        link.description: link.margin for link in outcome.links if link.applicable
    }


def _pd_pair(dim, seed, m=0.5, M=4.0):
    cfg = GeneratorConfig(dim, m, M)
    return (
        random_pd(cfg, derive_stream_seed(seed, 0)).entries,
        random_pd(cfg, derive_stream_seed(seed, 1)).entries,
    )


# --- chord bounds ----------------------------------------------------------

def test_chord_identity_equalities():
    out = check_chord_bounds(IDENT, ARITH, A, B)
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-9


def test_chord_square_arithmetic_frozen():
    out = check_chord_bounds(SQ, ARITH, A, B)
    got = _margins(out)
    # lines at slopes a=2, b=8: mean of images diag(2.5, 12.5) vs diag(2, 6)
    # and diag(5, 21)
    assert got["lower-slope-line"] == pytest.approx(0.5, abs=1e-10)
    assert got["upper-slope-line"] == pytest.approx(2.5, abs=1e-10)
    assert out.passed


def test_chord_concave_reversed():
    out = check_chord_bounds(LOG1P, ARITH, A, B)
    assert out.passed
    assert all(link.margin >= -1e-12 for link in out.links)


# --- main chain -------------------------------------------------------------

def test_main_chain_square_arithmetic_frozen():
    out = check_main_chain(SQ, ARITH, A, B)
    got = _margins(out)
    assert got["fn-then-mean:edge-low"] == pytest.approx(1.5, abs=1e-10)
    assert got["fn-then-mean:low"] == pytest.approx(1.0, abs=1e-10)
    assert got["fn-then-mean:high"] == pytest.approx(1.5, abs=1e-10)
    assert got["fn-then-mean:edge-high"] == pytest.approx(6.0, abs=1e-10)
    assert got["mean-then-fn:low"] == pytest.approx(0.75, abs=1e-10)
    assert got["mean-then-fn:high"] == pytest.approx(1.75, abs=1e-10)
    assert out.passed


def test_main_chain_identity_equalities():
    a, b = _pd_pair(3, 17)
    out = check_main_chain(IDENT, GEO, a, b)
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-9


def test_main_chain_square_geometric_frozen():
    out = check_main_chain(SQ, GEO, A, B)
    got = _margins(out)
    s = (math.sqrt(2.0), math.sqrt(12.0))
    assert got["fn-then-mean:low"] == pytest.approx(min(2.0 - s[0], 12.0 - s[1]), abs=1e-10)
    assert got["fn-then-mean:high"] == pytest.approx(min(4 * s[0] - 2.0, 4 * s[1] - 12.0), abs=1e-10)
    assert out.passed


def test_main_chain_concave_sqrt_vacuous_edge():
    out = check_main_chain(function_by_name("sqrt"), ARITH, A, B)
    assert out.passed
    edge = [l for l in out.links if l.description == "fn-then-mean:edge-low"][0]
    assert not edge.applicable  # f'(0) infinite


def test_main_chain_errors():
    with pytest.raises(NotPositiveDefiniteError):
        check_main_chain(SQ, ARITH, np.diag([0.0, 1.0]), B)
    with pytest.raises(ValueError):
        check_main_chain(function_by_name("log"), ARITH, A, B)  # no zero fix / no tag


def test_main_chain_direction_discipline():
    # concave log1p on a strict instance: the convex orientation of the low
    # link is genuinely violated, so the checker must run it reversed
    c1 = math.log(2.0)
    s = mean(ARITH, A, B).entries
    x1 = mean(ARITH, np.diag(np.log1p(np.diag(A))), np.diag(np.log1p(np.diag(B)))).entries
    assert loewner_leq(c1 * s, x1).margin < -1e-3
    out = check_main_chain(LOG1P, ARITH, A, B)
    assert out.passed


def test_main_chain_scale_invariance():
    base = check_main_chain(SQ, GEO, A, B)
    for c in (0.1, 10.0):
        scaled = check_main_chain(SQ, GEO, c * A, c * B)
        for l0, l1 in zip(base.links, scaled.links):
            assert l1.passed == l0.passed
            assert l1.margin == pytest.approx(c**2 * l0.margin, rel=1e-9, abs=1e-12)
    for c in (0.1, 10.0):  # non-homogeneous f: only pass/fail stability
        out = check_main_chain(LOG1P, GEO, c * A, c * B)
        assert out.passed


def test_main_chain_degenerate_interval():
    out = check_main_chain(SQ, ARITH, 3.0 * np.eye(2), 3.0 * np.eye(2))
    assert out.passed
    assert abs(_margins(out)["fn-then-mean:high"]) <= 1e-9  # f(m)/m == f(M)/M


# --- log example -------------------------------------------------------------

def test_log_example_zero_operands():
    out = check_log_example(np.zeros((2, 2)), np.zeros((2, 2)), M=0.0)
    assert out.passed
    assert abs(out.links[0].margin) <= 1e-12


def test_log_example_identity_operands():
    out = check_log_example(np.eye(2), np.eye(2), M=1.0)
    want = 2.0 * math.log(2.0) - math.log(2.0) * math.log(3.0)
    assert out.links[0].margin == pytest.approx(want, abs=1e-10)


def test_log_example_diagonal():
    out = check_log_example(A, B, M=4.0)
    coef = math.log(5.0) / 4.0
    entries = [
        math.log(2.0) + math.log(3.0) - coef * math.log(4.0),
        math.log(5.0) + math.log(4.0) - coef * math.log(8.0),
    ]
    assert out.links[0].margin == pytest.approx(min(entries), abs=1e-10)
    assert out.passed


# --- mean difference norm ----------------------------------------------------

def test_mean_difference_frozen_values():
    out = check_mean_difference_norm(SQ, ARITH, A, B, norms=("operator", "trace"))
    got = _margins(out)
    assert got["norm-difference[operator]"] == pytest.approx(28.0 - 0.25, abs=1e-10)
    assert got["norm-difference[trace]"] == pytest.approx(40.0 - 0.5, abs=1e-10)


def test_mean_difference_identity_equality():
    out = check_mean_difference_norm(IDENT, ARITH, A, B, norms=OPNORM)
    assert out.passed
    assert abs(out.links[0].margin) <= 1e-10


def test_mean_difference_rejects_concave():
    with pytest.raises(ValueError):
        check_mean_difference_norm(LOG1P, ARITH, A, B, norms=OPNORM)


# --- eigenvalue / product / norm chains ---------------------------------------

def test_eig_prod_norm_frozen_values():
    out = check_eig_prod_norm(SQ, ARITH, A, B, norms=OPNORM)
    assert out.passed
    eig_links = [l for l in out.links if l.description.startswith("eig:")]
    # top eigenvalue chain: 0 <= 3.5 <= 12.5 <= 14 <= 28
    assert eig_links[0].margin == pytest.approx(3.5, abs=1e-10)
    assert eig_links[1].margin == pytest.approx(9.0, abs=1e-10)
    assert eig_links[2].margin == pytest.approx(1.5, abs=1e-10)
    assert eig_links[3].margin == pytest.approx(14.0, abs=1e-10)
    prod_links = [l for l in out.links if l.description.startswith("prod:")]
    # k = 2: 1*(5.25) <= 31.25 <= 16*5.25
    assert prod_links[5].margin == pytest.approx(31.25 - 5.25, abs=1e-10)
    assert prod_links[6].margin == pytest.approx(84.0 - 31.25, abs=1e-10)


def test_eig_prod_norm_identity_equalities():
    a, b = _pd_pair(3, 23)
    out = check_eig_prod_norm(IDENT, GEO, a, b)
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-8


def test_eig_prod_norm_concave():
    a, b = _pd_pair(4, 29)
    out = check_eig_prod_norm(function_by_name("mobius"), GEO, a, b)
    assert out.passed


# --- subadditivity refinement --------------------------------------------------

def test_subadditivity_frozen_example():
    out = check_subadditivity_refinement(SQ, A, B, norms=OPNORM)
    got = {l.description: l for l in out.links}
    assert not out.params["bridge_condition_met"]  # M=4 > lambda_min(A+B)=3
    assert got["images-vs-coef[operator]"].margin == pytest.approx(3.0, abs=1e-10)
    assert not got["coef-vs-image-of-sum[operator]"].applicable
    assert got["coef-vs-image-of-sum[operator]"].margin == pytest.approx(21.0, abs=1e-10)
    assert got["images-vs-image-of-sum[operator]"].margin == pytest.approx(24.0, abs=1e-10)
    assert out.passed


def test_subadditivity_bridge_applicable():
    out = check_subadditivity_refinement(SQ, np.eye(2), np.eye(2), norms=OPNORM)
    # M = 1 <= lambda_min(A+B) = 2; chain 2 <= 1*2 <= 4
    assert out.params["bridge_condition_met"]
    got = _margins(out)
    assert got["images-vs-coef[operator]"] == pytest.approx(0.0, abs=1e-12)
    assert got["coef-vs-image-of-sum[operator]"] == pytest.approx(2.0, abs=1e-12)
    assert out.passed


def test_subadditivity_identity_equalities():
    a, b = _pd_pair(3, 37, m=2.0, M=4.0)  # 2m >= M keeps the bridge applicable
    out = check_subadditivity_refinement(IDENT, a, b, norms=OPNORM)
    assert out.params["bridge_condition_met"]
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-9 * 10


# --- normal-matrix checkers ----------------------------------------------------

def test_normal_counterexample_exact():
    out = check_normal_counterexample()
    assert out.passed
    p = out.params
    assert p["norm_images_sum"] == pytest.approx(8.0, abs=1e-10)
    assert p["norm_image_of_abs_sum"] == pytest.approx(16.0, abs=1e-10)
    assert p["coef_bound"] == pytest.approx(0.0, abs=1e-10)
    assert p["deriv_bound"] == pytest.approx(0.0, abs=1e-10)
    assert p["M"] == pytest.approx(2.0, abs=1e-12)


def test_normal_triangle_fixture():
    out = check_normal_triangle(np.diag([2.0, -1.0]), np.diag([-2.0, 1.0]), norms=OPNORM)
    assert out.passed
    assert out.links[0].margin == pytest.approx(4.0, abs=1e-10)


def test_normal_triangle_random_complex_pair():
    cfg = GeneratorConfig(4, 0.5, 3.0, "normal_complex")
    from opmeans.randgen import random_normal

    a = random_normal(cfg, derive_stream_seed(61, 0))
    b = random_normal(cfg, derive_stream_seed(61, 1))
    assert check_normal_triangle(a, b).passed


def test_normal_triangle_rejects_nonnormal():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotNormalError):
        check_normal_triangle(bad, np.eye(2))


def test_normal_chain_fixture_values():
    out = check_normal_chain(SQ, np.diag([2.0, -1.0]), np.diag([-2.0, 1.0]), norms=OPNORM)
    got = _margins(out)
    assert out.params["m"] == pytest.approx(1.0)
    assert got["sep-bound[operator]"] == pytest.approx(8.0, abs=1e-10)
    assert got["sum-bound[operator]"] == pytest.approx(16.0, abs=1e-10)
    assert out.passed


def test_normal_chain_concave_random():
    cfg = GeneratorConfig(4, 1.0, 2.0, "normal_complex")
    from opmeans.randgen import random_normal

    a = random_normal(cfg, derive_stream_seed(67, 0))
    b = random_normal(cfg, derive_stream_seed(67, 1))
    out = check_normal_chain(LOG1P, a, b)
    assert out.passed and not out.params["convex"]


def test_normal_chain_identity_on_psd_equalities():
    a, b = _pd_pair(3, 41)
    out = check_normal_chain(IDENT, a, b, norms=OPNORM)
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-8


# --- power mean / entropy --------------------------------------------------------

def test_power_mean_r1_equalities():
    out = check_power_mean_bounds(A, B, 0.5, 1.0)
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-9


def test_power_mean_commuting_frozen():
    out = check_power_mean_bounds(A, B, 0.5, 2.0)
    got = _margins(out)
    s = (math.sqrt(2.0), math.sqrt(12.0))
    assert got["power-mean:low"] == pytest.approx(min(2.0 - s[0], 12.0 - s[1]), abs=1e-10)
    assert got["power-mean:high"] == pytest.approx(min(4 * s[0] - 2.0, 4 * s[1] - 12.0), abs=1e-10)


def test_power_mean_entropy_diagonal_example():
    out = check_power_mean_bounds(np.eye(2), math.e * np.eye(2), 0.5, 2.0)
    got = _margins(out)
    assert got["entropy:low"] == pytest.approx(1.0, abs=1e-9)
    assert got["entropy:high"] == pytest.approx(math.e - 2.0, abs=1e-9)
    assert out.passed


def test_power_mean_entropy_bounds_can_fail():
    # the entropy companion bounds are not theorems: the 1x1 instance
    # (1.5, 1.0) with r=2 violates the lower one, and the checker must
    # report that honestly rather than masking it
    out = check_power_mean_bounds(np.array([[1.5]]), np.array([[1.0]]), 0.5, 2.0)
    got = {l.description: l for l in out.links}
    assert got["power-mean:low"].passed and got["power-mean:high"].passed
    assert not got["entropy:low"].passed
    want = 1.5**2 * math.log(1.0 / 1.5**2) - 1.5 * math.log(1.0 / 1.5)
    assert got["entropy:low"].margin == pytest.approx(want, abs=1e-10)


# --- Ando-Hiai comparison ----------------------------------------------------------

def test_ando_hiai_r1_equalities():
    out = check_ando_hiai_comparison(A, B, 0.5, 1.0)
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-9


def test_ando_hiai_frozen_example():
    out = check_ando_hiai_comparison(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), 0.5, 2.0)
    got = _margins(out)
    r8, r3 = math.sqrt(8.0), math.sqrt(3.0)
    assert not out.params["swapped"]
    assert got["ando-hiai"] == pytest.approx(min(r8 * r3 - 3.0, 0.0), abs=1e-10)
    assert got["max-norm-bound"] == pytest.approx(min(4 * r3 - 3.0, 4 * r8 - 8.0), abs=1e-10)
    assert got["coefficient-ordering"] == pytest.approx(4.0 - r8, abs=1e-10)
    assert out.passed


def test_ando_hiai_swap_recorded():
    out = check_ando_hiai_comparison(np.diag([3.0, 4.0]), np.diag([1.0, 2.0]), 0.5, 2.0)
    assert out.params["swapped"]
    assert out.passed


@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("instance", ["diagonal", "non-commuting"])
def test_ando_hiai_swap_matches_reversed_pair(instance, alpha, r):
    # the swapped order takes B #_a A as A #_(1-a) B on the middles of the
    # given order; it must agree with the unswapped record of (B, A)
    if instance == "diagonal":
        a, b = np.diag([3.0, 4.0]), np.diag([1.0, 2.0])
    else:
        x, b = _pd_pair(3, 41)
        a = 2.0 * x
        assert np.abs(a @ b - b @ a).max() > 1e-3
    swapped = check_ando_hiai_comparison(a, b, alpha, r)
    direct = check_ando_hiai_comparison(b, a, alpha, r)
    assert swapped.params["swapped"] and not direct.params["swapped"]
    w = np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)])
    # every side of every link is at most ||B||^(r-1) ||A #_a B|| <= max ||.||^r
    scale = 1.0 + w.max() ** r
    cond = max(np.linalg.cond(a), np.linalg.cond(b)) ** r
    bound = 64 * np.finfo(float).eps * scale * cond
    assert [l.description for l in swapped.links] == [l.description for l in direct.links]
    for s_link, d_link in zip(swapped.links, direct.links):
        assert abs(s_link.margin - d_link.margin) <= bound, (s_link, d_link)
        assert s_link.passed == d_link.passed
    for key in ("c_ah", "c_chain"):
        assert swapped.params[key] == pytest.approx(direct.params[key], rel=0, abs=bound)


def test_ando_hiai_tie_is_not_swapped():
    # ||A|| = ||B|| = 4, as for every generated pair: either order meets
    # ||A|| <= ||B||, so the last bit of an eigensolver must not pick one
    c, s = math.cos(0.3), math.sin(0.3)
    u = np.array([[c, -s], [s, c]])
    a, b = np.diag([0.5, 4.0]), u @ np.diag([2.0, 4.0]) @ u.T
    for x, y in ((a, b), (b, a)):
        out = check_ando_hiai_comparison(x, y, 0.25, 2.0)
        assert not out.params["swapped"]
        assert out.passed


def test_ando_hiai_coefficient_always_dominated():
    for seed in range(50):
        a, b = _pd_pair(3, 7000 + seed)
        out = check_ando_hiai_comparison(a, b, 0.25, 3.0)
        assert _margins(out)["coefficient-ordering"] >= -1e-12


# --- contraction implication ---------------------------------------------------------

def test_contraction_trivial_identity_instance():
    pair = FunctionPair(power(0.5), power(0.5))
    out = check_contraction_implication(pair, np.eye(2), np.eye(2))
    assert out.passed
    assert out.links[0].margin == pytest.approx(0.0, abs=1e-12)


def test_contraction_commuting_frozen():
    pair = FunctionPair(power(0.5), power(0.5))
    a = np.diag([0.25, 0.64])
    b = np.diag([0.64, 0.25])
    out = check_contraction_implication(pair, a, b, n_iter=1)
    got = [l.margin for l in out.links]
    assert got[0] == pytest.approx(1.0 - 0.4, abs=1e-10)  # hypothesis: A # B = 0.4 I
    assert got[1] == pytest.approx(1.0 - math.sqrt(0.125 * 0.512), abs=1e-10)
    assert out.params["direction"] == "forward"


def test_contraction_random_normalized():
    from opmeans.means import MatrixMean, normalize_for_contraction

    pair = FunctionPair(power(0.5), power(0.5))
    sigma = MatrixMean("h:power:1/2", pair.h)
    for seed in range(20):
        a, b = _pd_pair(3, 900 + seed)
        an, bn = normalize_for_contraction(sigma, a, b)
        out = check_contraction_implication(pair, an, bn, n_iter=3)
        assert out.passed


def test_contraction_mixed_conditions_not_applicable():
    # on (e, 100] condition (iii) flips sign partway through the grid, so
    # no implication direction is available
    pair = FunctionPair(function_by_name("log"), function_by_name("x_over_log"))
    grid = np.geomspace(math.e * 1.000001, 100.0, 256)
    out = check_contraction_implication(pair, np.eye(2), np.eye(2), condition_grid=grid)
    assert out.links == ()
    assert "not_applicable" in out.params


# g = 2 with h = x^(1/2): conditions (i) and (ii) reverse and (iii) is an equality,
# so A sigma_h B >= I propagates.  f(x) = 2x doubles the mean at each iterate, so
# once the pair is scaled up to lambda_min(A sigma_h B) = 1 the margins are 2^k - 1.
TWO = ScalarFunction("two", lambda x: np.full(np.shape(x), 2.0), lambda x: np.zeros(np.shape(x)))
REVERSED_MARGINS = [0.0, 1.0, 3.0, 7.0]


def _assert_reversed(out):
    assert out.params["conditions"] == ["reversed", "reversed", "forward"]
    assert out.params["direction"] == "reversed"
    assert out.descriptions == ("hypothesis",) + ("iterate-bound",) * 3
    assert list(out.margins) == pytest.approx(REVERSED_MARGINS, abs=1e-8)
    assert out.passed


def test_contraction_reversed_pair_normalizes_upward():
    for seed in range(5):
        a, b = _pd_pair(3, 950 + seed, M=40.0)
        _assert_reversed(check_contraction_implication(FunctionPair(TWO, power(0.5)), a, b))


def test_contraction_grid_judges_reversed_forward_and_mixed_pairs(monkeypatch):
    # (log, x_over_log) is mixed on (e, 100], as in
    # test_contraction_mixed_conditions_not_applicable; the other pairs keep
    # their directions there
    grid = np.geomspace(math.e * 1.000001, 100.0, 256)
    monkeypatch.setattr("opmeans.functions.default_condition_grid", lambda: grid)
    sqrt, log, x_over_log = power(0.5), function_by_name("log"), function_by_name("x_over_log")
    pairs = [_pd_pair(3, 960 + t) for t in range(4)]
    rows = check_contraction_grid((TWO, sqrt, log), (sqrt, x_over_log), pairs)
    sigma = MatrixMean("h:power:1/2", sqrt)
    for (a, b), row in zip(pairs, rows):
        reversed_, forward, mixed = row[0], row[2], row[5]
        _assert_reversed(reversed_)
        want = check_contraction_implication(
            FunctionPair(sqrt, sqrt), *normalize_for_contraction(sigma, a, b)
        )
        assert forward.params == want.params and forward.params["direction"] == "forward"
        assert forward.descriptions == want.descriptions and forward.passes == want.passes
        # the grid divides A's and B's spectra by c where the per-pair path factors A/c
        # and B/c again, so the margins agree within test_mp_reference's 50-digit bound,
        # MARGIN_ULPS = 64 eps 2 cond(A_k), A_k = f^k(A/c) = (A/c)^((3/2)^k)
        w = np.linalg.eigvalsh(a)
        bound = [64 * np.finfo(float).eps * 2.0 * (w[-1] / w[0]) ** 1.5**k for k in range(4)]
        assert np.all(np.abs(np.subtract(forward.margins, want.margins)) <= bound)
        assert mixed.links == () and "not_applicable" in mixed.params
    # each trial's mixed record is its own, params and all, for a run to complete in place
    assert len({id(row[5].params) for row in rows}) == len(rows)


def test_contraction_grid_normalizes_at_its_tol():
    # B's smallest eigenvalue -1e-7 lies between -1e-6 and -1e-8 times its scale
    # 1 + ||B|| = 3: the scale's mean gate takes B as PSD at tol 1e-6, not at 1e-8
    rng = np.random.default_rng(3)
    (qa, _), (qb, _) = (np.linalg.qr(rng.standard_normal((3, 3))) for _ in range(2))
    a = qa @ np.diag([0.5, 1.0, 2.0]) @ qa.T
    b = qb @ np.diag([-1e-7, 1.0, 2.0]) @ qb.T
    args = (function_by_name("power:2"),), (power(0.5),), [(a, b)]
    ((strict,),) = check_contraction_grid(*args)
    assert isinstance(strict, NotPositiveSemidefiniteError)
    assert "second operand has eigenvalue" in str(strict)
    ((loose,),) = check_contraction_grid(*args, tol=1e-6)
    assert isinstance(loose, CheckOutcome) and loose.passed, loose


def test_contraction_flagged_row_is_not_evaluated_off_its_domain():
    # at tol 1e-6 B = Q diag(-1e-7, 1, 2) Q^T passes the mean's PSD gate, and its first
    # iterate x^(3/2) is refused on -1e-7: the record is that error, with no warning
    # from evaluating x^(3/2) on the refused value
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    a, b = (q @ np.diag([low, 1.0, 2.0]) @ q.T for low in (0.5, -1e-7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolationError, match="outside domain"):
            check_contraction_implication(FunctionPair(power(0.5), power(0.5)), a, b, tol=1e-6)


# --- inverse function bounds -----------------------------------------------------------

def test_inverse_identity_equalities():
    out = check_inverse_function(IDENT, ARITH, A, B)
    assert out.passed
    for link in out.links:
        assert abs(link.margin) <= 1e-10


def test_inverse_sqrt_frozen():
    out = check_inverse_function(function_by_name("sqrt"), ARITH, A, B)
    got = _margins(out)
    x = ((1.0 + math.sqrt(2.0)) / 2.0, (2.0 + math.sqrt(3.0)) / 2.0)
    assert got["inverse-low"] == pytest.approx(min(x[0] - 0.75, x[1] - 1.75), abs=1e-10)
    assert got["inverse-high"] == pytest.approx(min(1.5 - x[0], 3.5 - x[1]), abs=1e-10)
    assert out.passed


def test_inverse_sqrt_geometric():
    out = check_inverse_function(function_by_name("sqrt"), GEO, A, B)
    assert out.passed


def test_inverse_requires_registration():
    from opmeans import ScalarFunction
    from opmeans.functions import Convexity, Interval

    bare = ScalarFunction("bare", fn=lambda x: x, deriv=lambda x: 1.0,
                          domain=Interval(0.0, math.inf), convexity=Convexity.CONVEX,
                          fixes_zero=True)
    with pytest.raises(ValueError):
        check_inverse_function(bare, ARITH, A, B)


@pytest.mark.parametrize("extra", [{}, {"dims": (1, 2, 3, 32), "m": 1e-6}], ids=["default", "edge"])
def test_inverse_function_is_main_chain_against_x(extra):
    # the inverse bounds are main_chain's fn-then-mean low and high links, run
    # forward for a concave inverse and reversed, low and high swapped, for a
    # convex one: margins and passes equal bit for bit
    fns = ("power:3/2", "power:2", "power:3", "expm1", "sqrt", "power:2/3", "log1p", "mobius",
           "identity", "power:1")
    runs = {
        suite: run_suite(SuiteSpec(suite, trials=4, functions=fns, master_seed=11, **extra))
        for suite in ("inverse_function", "main_chain")
    }
    compared = 0
    for inv, chain in zip(runs["inverse_function"].records, runs["main_chain"].records):
        assert (inv.params["fn"], inv.params["mean"]) == (chain.params["fn"], chain.params["mean"])
        links = dict(zip(chain.descriptions, zip(chain.margins, chain.passes)))
        low, high = links["fn-then-mean:low"], links["fn-then-mean:high"]
        if function_by_name(inv.params["fn"]).inverse.convexity is Convexity.CONVEX:
            low, high = high, low
        assert tuple(zip(inv.margins, inv.passes)) == (low, high)
        compared += 1
    assert compared == len(fns) * 9 * 4


# --- determinant suite --------------------------------------------------------------------

def test_determinant_identity_at_equal_operands():
    out = check_determinant_suite(IDENT, np.eye(2), np.eye(2), 0.5)
    got = {l.description: l for l in out.links}
    assert abs(got["detroot-superadditivity"].margin) <= 1e-12
    assert not got["convex-combination-det"].applicable  # no gap at A = B
    reverse = got["reverse-detroot-bound"]
    assert not reverse.applicable
    assert reverse.margin == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-12)
    assert out.passed


def test_determinant_diagonal_frozen():
    out = check_determinant_suite(SQ, A, B, 0.5)
    got = _margins(out)
    assert got["detroot-superadditivity"] == pytest.approx(
        math.sqrt(21.0) - 2.0 - math.sqrt(6.0), abs=1e-10
    )
    assert out.passed


def test_determinant_gap_example_frozen():
    a, b = np.diag([3.0, 3.0]), np.diag([1.0, 1.0])
    out = check_determinant_suite(IDENT, a, b, 0.5)
    got = {l.description: l for l in out.links}
    assert out.params["gap_below"] and not out.params["gap_above"]
    assert got["convex-combination-det"].applicable
    assert got["convex-combination-det"].margin == pytest.approx(1.0, abs=1e-10)
    assert got["reverse-detroot-bound"].applicable
    assert got["reverse-detroot-bound"].margin == pytest.approx(
        math.sqrt(2.0) * 4.0 - 4.0, abs=1e-10
    )
    assert out.passed


def test_determinant_concave_branch():
    a, b = _pd_pair(3, 5151)
    out = check_determinant_suite(function_by_name("sqrt"), a, b, 0.5)
    assert out.passed
    reverse = [l for l in out.links if l.description == "reverse-detroot-bound"][0]
    assert not reverse.applicable


def test_determinant_gap_pairs_random():
    from opmeans.randgen import random_gap_pair

    for seed in range(30):
        mode = "below_a" if seed % 2 == 0 else "above_a"
        a, b = random_gap_pair(3, mode, derive_stream_seed(71, seed))
        out = check_determinant_suite(SQ, a, b, 0.25)
        assert out.params["gap_below" if mode == "below_a" else "gap_above"]
        assert out.passed


def test_fill_makes_one_own_record_per_finite_row():
    shared, results = {"k": 1}, np.full(4, None, dtype=object)
    results[3] = ValueError("earlier")
    margins = np.array([[0.0, -0.0], [1.0, 2.0], [np.inf, 0.0], [np.nan, 1.0]])
    checks._fill("chord_bounds", margins, margins >= 0.0, [[True, False]] * 4, [shared] * 4,
                 results, np.arange(4))
    first, second, overflow, earlier = results
    assert first.params == second.params == shared
    assert len({id(shared), id(first.params), id(second.params)}) == 3
    assert first.margins == (0.0, -0.0) and math.copysign(1.0, first.margins[1]) == -1.0
    assert first.applicable == (True, False) and first.passes == (True, True)
    assert first.descriptions is second.descriptions
    assert str(overflow) == "link margins must be finite" and str(earlier) == "earlier"
