"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Criterion 7b certifies the pair-compatibility verdicts for
(log x, x/log x) on (e, 100] and where they change.  The pair does not
satisfy all three conditions there: (ii) is an identity (both sides are
log log x), but (iii) reduces to 1/log x + 1/log log x >= 1, which holds
only up to the root x* ~ 47.339 of 1/log x + 1/log log x = 1 and is
reversed beyond it.  The test computes x* from that closed form and asserts
all conditions forward on (e, x*], (iii) reversed on [x*, 100], and the
exact worst violation of (iii) at x = 100.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import _diag_oracle  # noqa: F401  (oracle import checked early)
import test_harness as harness_tests
import test_oracle_equivalence as oracle_eq
from opmeans import (
    FunctionPair,
    check_determinant_suite,
    check_normal_chain,
    check_normal_counterexample,
    check_pair_conditions,
    function_by_name,
    function_catalog,
    norm_catalog,
    power,
)
from opmeans.core import eigh, hermitian_part
from opmeans.harness import (
    CONCAVE_FUNCTIONS,
    CONVEX_FUNCTIONS,
    SuiteSpec,
    run_suite,
)
from opmeans.randgen import (
    GeneratorConfig,
    RandomStream,
    derive_stream_seed,
    random_normal,
    random_pd,
)

SEED = 20240001


def _verdict(num: str, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_01_fixture_reproduction():
    t0 = time.perf_counter()
    out = check_normal_counterexample(tol=1e-10)
    elapsed = time.perf_counter() - t0
    p = out.params
    ok = (
        out.passed
        and abs(p["norm_images_sum"] - 8.0) <= 1e-10
        and abs(p["norm_image_of_abs_sum"] - 16.0) <= 1e-10
        and abs(p["coef_bound"]) <= 1e-10
        and abs(p["deriv_bound"]) <= 1e-10
        and abs(p["M"] - 2.0) <= 1e-10
        and elapsed < 1.0
    )
    _verdict("1", "counterexample fixture reproduces (8, 16, 0, 0), M=2, <1s", ok,
             f"{elapsed:.3f}s")
    assert ok


def test_criterion_02_main_chain_suite():
    t0 = time.perf_counter()
    spec = SuiteSpec(
        "main_chain",
        trials=200,
        dims=(2, 3, 4, 5, 6),
        m=0.5,
        M=4.0,
        functions=CONVEX_FUNCTIONS + CONCAVE_FUNCTIONS,
        tol=1e-8,
        master_seed=SEED,
    )
    rep = run_suite(spec)
    elapsed = time.perf_counter() - t0
    ok = rep.summary.failed_links == 0 and rep.summary.total_records == 8 * 9 * 200
    ok = ok and elapsed < 300.0
    _verdict("2", "coefficient chains, 8 functions x 9 means x 200 trials", ok,
             f"{rep.summary.total_links} links, worst {rep.summary.worst_margin:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_corollary_suites():
    spec_norm = SuiteSpec(
        "mean_diff_norm", trials=200, functions=CONVEX_FUNCTIONS, master_seed=SEED
    )
    rep_norm = run_suite(spec_norm)
    spec_eig = SuiteSpec(
        "eig_prod_norm",
        trials=200,
        functions=CONVEX_FUNCTIONS + CONCAVE_FUNCTIONS,
        master_seed=SEED,
    )
    rep_eig = run_suite(spec_eig)
    ok = rep_norm.summary.failed_links == 0 and rep_eig.summary.failed_links == 0
    _verdict("3", "norm-difference and eigenvalue/product/norm chains", ok,
             f"{rep_norm.summary.total_links + rep_eig.summary.total_links} links")
    assert ok


def test_criterion_04_normal_chain():
    fns = [function_by_name(n) for n in CONVEX_FUNCTIONS + CONCAVE_FUNCTIONS]
    failures = 0
    links = 0
    for t in range(500):
        dim = (2, 3, 4, 5, 6)[t % 5]
        cfg = GeneratorConfig(dim, 1.0, 3.0, "normal_complex")
        a = random_normal(cfg, derive_stream_seed(SEED, 2 * t))
        b = random_normal(cfg, derive_stream_seed(SEED, 2 * t + 1))
        out = check_normal_chain(fns[t % len(fns)], a, b, norms=norm_catalog(dim))
        links += len(out.links)
        failures += out.failed_links
    ok = failures == 0
    _verdict("4", "normal-matrix chains, 500 pairs, all catalog norms", ok,
             f"{links} links, {failures} failed")
    assert ok


def test_criterion_05_determinant_suite():
    spec = SuiteSpec(
        "determinant",
        trials=500,
        functions=CONVEX_FUNCTIONS + CONCAVE_FUNCTIONS,
        master_seed=SEED,
    )
    rep = run_suite(spec)
    ok = rep.summary.failed_links == 0
    worst_eq = 0.0
    ident = function_by_name("identity")
    for t in range(50):
        cfg = GeneratorConfig(2 + t % 4, 0.5, 4.0, "positive_definite")
        a = random_pd(cfg, derive_stream_seed(SEED + 5, t))
        out = check_determinant_suite(ident, a, a, 0.5)
        margin = [l.margin for l in out.links if l.description == "detroot-superadditivity"][0]
        worst_eq = max(worst_eq, abs(margin))
    ok = ok and worst_eq <= 1e-10
    _verdict("5", "determinant bounds over 500 trials; equality at A=B", ok,
             f"worst A=B margin {worst_eq:.2e}")
    assert ok


def test_criterion_06_ando_hiai():
    spec = SuiteSpec("ando_hiai", trials=200, master_seed=SEED)
    rep = run_suite(spec)
    coef_worst = rep.summary.worst_margin_by_link.get("coefficient-ordering", 0.0)
    ok = rep.summary.failed_links == 0 and coef_worst >= -1e-12
    _verdict("6", "Ando-Hiai bounds and coefficient ordering, 200 pairs x 9 configs", ok,
             f"worst coefficient margin {coef_worst:.3e}")
    assert ok


def test_criterion_07a_contraction_iterates():
    for p in (0.25, 0.5, 0.75):
        for q in (0.25, 0.5, 0.75):
            report = check_pair_conditions(FunctionPair(power(p), power(q)))
            assert report.all_forward, (p, q)
    spec = SuiteSpec("contraction", trials=200, master_seed=SEED)
    rep = run_suite(spec)
    ok = rep.summary.failed_links == 0 and rep.summary.downgraded_records == 0
    _verdict("7a", "contraction iterates stay below I for power pairs", ok,
             f"{rep.summary.total_links} links")
    assert ok


def test_criterion_07b_log_pair_conditions():
    pair = FunctionPair(function_by_name("log"), function_by_name("x_over_log"))
    # (iii) h(xg(x)) <= h(x)h(g(x)) reduces to 1/log x + 1/log log x >= 1
    # on x > e; its crossover x* is the root of the closed form.
    x_star = brentq(lambda x: 1.0 / math.log(x) + 1.0 / math.log(math.log(x)) - 1.0,
                    20.0, 100.0, xtol=1e-13, rtol=1e-15)
    x, lg = 100.0, math.log(100.0)
    violation_at_100 = (x * lg) / (lg + math.log(lg)) - x / math.log(lg)
    lo = math.e * 1.000001

    below = check_pair_conditions(pair, grid=np.geomspace(lo, x_star * (1 - 1e-6), 256))
    full = check_pair_conditions(pair, grid=np.geomspace(lo, 100.0, 256))
    beyond = check_pair_conditions(pair, grid=np.geomspace(x_star * (1 + 1e-6), 100.0, 64))
    first, second, third = full.results
    checks = {
        "x* ~ 47.339": x_star == pytest.approx(47.339016, abs=1e-6),
        "all forward on (e, x*]": below.all_forward,
        "(i) forward on (e, 100]": first.holds_forward,
        "(ii) identity on (e, 100]": (
            second.holds_forward and second.holds_reversed
            and abs(second.worst_violation) <= 1e-12
        ),
        "(iii) mixed on (e, 100], exact violation at 100": (
            third.direction == "mixed"
            and third.worst_violation == pytest.approx(violation_at_100, rel=1e-9)
        ),
        "(iii) reversed on [x*, 100]": (
            beyond.results[2].direction == "reversed"
            and not beyond.results[2].holds_forward
        ),
    }
    failed = [name for name, held in checks.items() if not held]
    _verdict("7b", "(log x, x/log x): all conditions on (e, x*], (iii) reversed beyond, "
             f"x* = {x_star:.4f}", not failed,
             f"worst violation of (iii) at x = 100: {third.worst_violation:.4f}")
    assert not failed, failed


def test_criterion_08_oracle_equivalence():
    oracle_eq.test_main_chain_matches_diagonal_oracle()
    oracle_eq.test_chord_matches_diagonal_oracle()
    oracle_eq.test_log_example_matches_diagonal_oracle()
    oracle_eq.test_power_mean_matches_diagonal_oracle()
    oracle_eq.test_ando_hiai_matches_diagonal_oracle()
    oracle_eq.test_contraction_matches_diagonal_oracle()
    oracle_eq.test_inverse_function_matches_diagonal_oracle()
    _verdict("8", "diagonal oracle equivalence, 100 instances per checker", True)


def test_criterion_09_numerical_hygiene():
    grid = np.geomspace(1e-2, 50.0, 64)
    deriv_ok = True
    for f in function_catalog():
        for x in grid:
            d = float(f.deriv(float(x)))
            if not math.isfinite(d):
                continue
            fd = (float(f(float(x) + 1e-6)) - float(f(float(x) - 1e-6))) / 2e-6
            if abs(d - fd) > 1e-6 * (1.0 + abs(d)):
                deriv_ok = False
    worst = 0.0
    for t in range(1000):
        dim = 2 + t % 15  # up to 16
        stream = RandomStream(derive_stream_seed(SEED + 9, t))
        a = hermitian_part(stream.complex_gaussian(dim))
        s = eigh(a)
        err = np.linalg.norm(s.reconstruct() - a, 2) / (1.0 + np.linalg.norm(a, 2))
        worst = max(worst, err)
    ok = deriv_ok and worst <= 1e-10
    _verdict("9", "derivative agreement and eigh reconstruction (1000 up to dim 16)", ok,
             f"worst relative reconstruction {worst:.2e}")
    assert ok


def test_criterion_10_report_determinism(tmp_path):
    spec = SuiteSpec(
        "determinant", trials=10, dims=(2, 3), functions=("power:2", "sqrt"),
        master_seed=SEED,
    )

    def render():
        d = run_suite(spec).to_dict()
        d["summary"].pop("wall_time_s")
        return json.dumps(d, sort_keys=True, indent=2).encode()

    args = ["--suite", "determinant", "--trials", "10", "--dim", "2", "--dim", "3",
            "--fn", "power:2", "--fn", "sqrt", "--seed", str(SEED)]
    ok = render() == render() and render() == harness_tests.fresh_process_report(tmp_path, args)
    _verdict("10", "byte-identical reports (same seed, in process and in a fresh process)", ok)
    assert ok
