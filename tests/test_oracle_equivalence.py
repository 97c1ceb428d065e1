"""Diagonal-oracle equivalence for every Loewner-link checker.

For simultaneously diagonal operands, the margin of each matrix link must
equal the minimum over entrywise scalar margins, computed by the pure
python-float oracles in ``_diag_oracle``.
"""

import numpy as np

import _diag_oracle as oracle
from opmeans import (
    FunctionPair,
    check_ando_hiai_comparison,
    check_chord_bounds,
    check_contraction_implication,
    check_inverse_function,
    check_log_example,
    check_main_chain,
    check_power_mean_bounds,
    function_by_name,
    mean_by_name,
    power,
)
from opmeans.means import MatrixMean, normalize_for_contraction
from opmeans.randgen import RandomStream, derive_stream_seed

FNS = ("power:3/2", "power:2", "power:3", "expm1", "sqrt", "power:2/3", "log1p", "mobius")
MEANS = ("arithmetic:1/4", "arithmetic:1/2", "harmonic:1/2", "harmonic:3/4",
         "geometric:1/4", "geometric:1/2", "geometric:3/4")
ALPHAS = (0.25, 0.5, 0.75)
RS = (1.5, 2.0, 3.0)
POWERS = (0.25, 0.5, 0.75)


def diag_instance(i, m=0.5, M=4.0):
    stream = RandomStream(derive_stream_seed(777000 + i, 1))
    dim = 2 + (i % 4)
    a = [stream.uniform(m, M) for _ in range(dim)]
    b = [stream.uniform(m, M) for _ in range(dim)]
    return a, b


def test_main_chain_matches_diagonal_oracle():
    for i in range(100):
        a, b = diag_instance(i)
        fn, mn = FNS[i % len(FNS)], MEANS[i % len(MEANS)]
        out = check_main_chain(function_by_name(fn), mean_by_name(mn), np.diag(a), np.diag(b))
        oracle.assert_margins_match(out, oracle.main_chain_margins(fn, mn, a, b))


def test_chord_matches_diagonal_oracle():
    for i in range(100):
        a, b = diag_instance(i)
        fn, mn = FNS[i % len(FNS)], MEANS[(i + 3) % len(MEANS)]
        out = check_chord_bounds(function_by_name(fn), mean_by_name(mn), np.diag(a), np.diag(b))
        oracle.assert_margins_match(out, oracle.chord_margins(fn, mn, a, b))


def test_log_example_matches_diagonal_oracle():
    for i in range(100):
        a, b = diag_instance(i)
        out = check_log_example(np.diag(a), np.diag(b))
        oracle.assert_margins_match(out, oracle.log_example_margins(a, b))


def test_power_mean_matches_diagonal_oracle():
    for i in range(100):
        a, b = diag_instance(i)
        alpha, r = ALPHAS[i % 3], RS[(i // 3) % 3]
        out = check_power_mean_bounds(np.diag(a), np.diag(b), alpha, r)
        oracle.assert_margins_match(out, oracle.power_mean_margins(a, b, alpha, r))


def test_ando_hiai_matches_diagonal_oracle():
    for i in range(100):
        a, b = diag_instance(i)
        alpha, r = ALPHAS[i % 3], RS[(i // 3) % 3]
        out = check_ando_hiai_comparison(np.diag(a), np.diag(b), alpha, r)
        oracle.assert_margins_match(out, oracle.ando_hiai_margins(a, b, alpha, r))


def test_contraction_matches_diagonal_oracle():
    for i in range(100):
        a, b = diag_instance(i)
        p, q = POWERS[i % 3], POWERS[(i // 3) % 3]
        pair = FunctionPair(power(p), power(q))
        sigma = MatrixMean(f"h:power:{q:g}", pair.h)
        an, bn = normalize_for_contraction(sigma, np.diag(a), np.diag(b))
        av = list(np.diagonal(an.entries).real)
        bv = list(np.diagonal(bn.entries).real)
        out = check_contraction_implication(pair, an, bn, n_iter=3)
        oracle.assert_margins_match(out, oracle.contraction_margins(p, q, av, bv, 3))


def test_inverse_function_matches_diagonal_oracle():
    invertible = ("sqrt", "power:2", "power:3/2", "power:2/3", "log1p", "expm1", "mobius")
    for i in range(100):
        a, b = diag_instance(i)
        fn, mn = invertible[i % len(invertible)], MEANS[(i + 5) % len(MEANS)]
        out = check_inverse_function(function_by_name(fn), mean_by_name(mn), np.diag(a), np.diag(b))
        oracle.assert_margins_match(out, oracle.inverse_margins(fn, mn, a, b))
