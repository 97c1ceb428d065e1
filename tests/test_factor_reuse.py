"""Factorization counts: each operand is factored once.

``check_main_chain`` factors A, B and S = A sigma B once each and reuses
A's eigenvectors for f(A); ``mean`` factors A once for its gate and its
congruence.  The norm and determinant checkers factor each matrix once and
read every norm kind off its one singular-value vector; normal operands are
factored once by SVD, one stacked call per side of a dimension group.  A
run of a positive definite suite shares each trial's factors between its
configurations, and a ``main_chain``, ``chord``, ``eig_prod_norm``,
``inverse_function``, ``mean_diff_norm``, ``subadditivity``,
``normal_chain``, ``determinant``, ``power_mean`` or ``ando_hiai``
dimension group of trials is one stacked grid.  The tests count the
matrices that LAPACK factors through numpy, each matrix of a stack
separately, and where it matters the LAPACK calls.
"""

import numpy as np
import pytest

from opmeans import (
    FunctionPair,
    MatrixMean,
    NormKind,
    function_by_name,
    mean,
    mean_by_name,
    norm,
    norm_catalog,
    normalize_for_contraction,
    singular_values,
)
from opmeans.checks import (
    check_ando_hiai_comparison,
    check_chord_bounds,
    check_contraction_implication,
    check_determinant_suite,
    check_main_chain,
    check_normal_chain,
    check_power_mean_bounds,
    check_subadditivity_refinement,
    check_transplanted_norm_chain,
)
from opmeans.harness import SuiteSpec, run_suite
from opmeans.core import _norm_table
from opmeans.means import _validate_representing
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_normal, random_pd


def _pd_pair(dim, seed):
    cfg = GeneratorConfig(dim, 0.5, 4.0)
    return (
        random_pd(cfg, derive_stream_seed(seed, 0)).entries,
        random_pd(cfg, derive_stream_seed(seed, 1)).entries,
    )


def _normal_pair(dim, seed):
    cfg = GeneratorConfig(dim, 0.5, 4.0, "normal_complex")
    return (
        random_normal(cfg, derive_stream_seed(seed, 0)).entries,
        random_normal(cfg, derive_stream_seed(seed, 1)).entries,
    )


@pytest.fixture
def solver_calls():
    """LAPACK calls per eigensolver, filled by :func:`eigensolves`."""
    return {"eigh": 0, "eigvalsh": 0, "svd": 0}


@pytest.fixture
def eigensolves(monkeypatch, solver_calls):
    """Count the matrices factored by numpy.linalg.eigh, eigvalsh and svd.

    A stack of matrices counts each of its matrices, the product of its
    leading dimensions; :func:`solver_calls` counts the calls.
    """
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in ("eigh", "eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            counts[_name] += int(np.prod(np.shape(args[0])[:-2]))
            solver_calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _total(counts):
    return sum(counts.values())


def _groups(spec):
    """The number of dimension groups of a run whose groups are not split by size."""
    return len({spec.dims[t % len(spec.dims)] for t in range(spec.trials)})


@pytest.mark.parametrize("fn", ["power:2", "sqrt"])
def test_main_chain_factorizations(eigensolves, fn):
    a, b = _pd_pair(4, 3)
    out = check_main_chain(function_by_name(fn), mean_by_name("geometric:1/2"), a, b)
    assert out.passed
    # eigh of A, B, S and the two congruence middles; eigvalsh for the two
    # links against f(A) sigma f(B) and for its norm
    assert _total(eigensolves) <= 8, eigensolves


def test_mean_factorizations(eigensolves):
    a, b = _pd_pair(4, 5)
    mean(mean_by_name("harmonic:1/4"), a, b)
    # eigh of A and of the congruence middle, eigvalsh of B for its gate
    assert _total(eigensolves) <= 3, eigensolves


def test_subadditivity_factorizations(eigensolves):
    a, b = _pd_pair(4, 7)
    out = check_subadditivity_refinement(function_by_name("power:2"), a, b)
    assert out.passed and len(out.links) == 3 * 8
    # eigh of A and B, eigvalsh of A + B and of f(A) + f(B); 46 before
    assert _total(eigensolves) <= 4, eigensolves


def test_normal_chain_factorizations(eigensolves):
    a, b = _normal_pair(4, 11)
    out = check_normal_chain(function_by_name("power:2"), a, b)
    assert out.passed and len(out.links) == 4 * 8
    # SVD of A and B, eigvalsh of f(|A|) + f(|B|) and of |A| + |B|, and one
    # eigvalsh of (A + B)*(A + B) for the non-normal sum; 41 before
    assert eigensolves["svd"] == 2, eigensolves
    assert _total(eigensolves) <= 5, eigensolves


def test_determinant_factorizations(eigensolves):
    a, b = _pd_pair(4, 13)
    out = check_determinant_suite(function_by_name("power:2"), a, b)
    assert out.passed
    # eigh of A and B, eigvalsh of A + B, f(A) + f(B) and alpha A + beta B; 13 before
    assert _total(eigensolves) <= 6, eigensolves


@pytest.mark.parametrize(
    "check",
    [
        lambda a, b: check_chord_bounds(
            function_by_name("power:2"), mean_by_name("geometric:1/2"), a, b
        ),
        lambda a, b: check_ando_hiai_comparison(a, b, 0.5, 2.0),
    ],
    ids=["chord", "ando_hiai"],
)
def test_image_mean_factorizations(eigensolves, check):
    a, b = _pd_pair(4, 17)
    assert check(a, b).passed
    # eigh of A and B and of each congruence middle (three means for the
    # chord, two for Ando-Hiai), eigvalsh for ||A #_a B|| and two per link;
    # 17 and 18 before
    assert _total(eigensolves) <= 9, eigensolves


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_power_mean_factorizations(eigensolves, alpha):
    a, b = _pd_pair(4, 31)
    out = check_power_mean_bounds(a, b, alpha, 2.0)
    assert len(out.links) == 4
    # eigh of A and B and of the two congruence middles, two eigvalsh per link; 22 before
    assert _total(eigensolves) <= 12, eigensolves


@pytest.mark.parametrize(
    "fns, means, trials",
    [
        (("power:2",), ("geometric:1/2",), 1),
        (("power:2", "sqrt", "expm1"), ("arithmetic:1/2", "harmonic:1/4"), 3),
        (("log1p", "power:3/2"), ("geometric:1/4", "geometric:3/4", "arithmetic:1/4"), 2),
    ],
)
def test_main_chain_run_shares_factors(eigensolves, solver_calls, fns, means, trials):
    spec = SuiteSpec("main_chain", trials=trials, dims=(2, 4), functions=fns, means=means)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    F, S, T, G = len(fns), len(means), trials, _groups(spec)
    # per trial: eigh of A, B and A^(-1/2) B A^(-1/2); per mean: eigh of S;
    # per function: eigh of the middle of f(A) sigma f(B); per record: three eigvalsh
    assert _total(eigensolves) == T * (3 + S + F + 3 * F * S), eigensolves
    assert eigensolves["eigvalsh"] == T * 3 * F * S, eigensolves
    # LAPACK calls grow with neither F, S nor T: per dimension group one for each
    # of A, B and their middles, one stacked eigh of every S, one of every
    # function's middle and one stacked eigvalsh of every record's three matrices
    # (T (4 + 2F), then T 6 before)
    assert _total(solver_calls) == G * 6, solver_calls


@pytest.mark.parametrize("fns, trials", [(("power:2",), 1), (("power:3/2", "power:2", "expm1"), 3)])
def test_subadditivity_run_shares_factors(eigensolves, solver_calls, fns, trials):
    spec = SuiteSpec("subadditivity", trials=trials, dims=(2, 4), functions=fns)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    F, T, G = len(fns), trials, _groups(spec)
    # per trial: eigh of A and B and eigvalsh of A + B; per function: eigvalsh
    # of f(A) + f(B), all functions in one stacked call (2 F T of each before)
    assert eigensolves["eigh"] == 2 * T, eigensolves
    assert eigensolves["eigvalsh"] == T * (1 + F), eigensolves
    # LAPACK calls per dimension group: each a stack of the group's trials (2 T before)
    assert solver_calls["eigh"] == 2 * G, solver_calls
    assert solver_calls["eigvalsh"] == 2 * G, solver_calls
    assert eigensolves["svd"] == 0, eigensolves


@pytest.mark.parametrize("fns, trials", [(("power:2",), 1), (("power:3/2", "sqrt", "log1p"), 3)])
def test_normal_chain_run_shares_factors(eigensolves, solver_calls, fns, trials):
    spec = SuiteSpec("normal_chain", trials=trials, dims=(2, 4), functions=fns)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    F, T, G = len(fns), trials, _groups(spec)
    # per trial: SVD of A and B, eigvalsh of |A| + |B| and of (A + B)*(A + B);
    # per function: eigvalsh of f(|A|) + f(|B|), all functions in one stacked call
    # (2 F T complex Schur factorizations and 3 F T eigvalsh before)
    assert eigensolves["svd"] == 2 * T, eigensolves
    # one stacked SVD per side per dimension group (2 T per-matrix Schur calls before)
    assert solver_calls["svd"] == 2 * G, solver_calls
    assert eigensolves["eigvalsh"] == T * (2 + F), eigensolves
    # eigvalsh calls per dimension group, each a stack of the group's trials (3 T before)
    assert solver_calls["eigvalsh"] == 3 * G, solver_calls
    assert eigensolves["eigh"] == 0, eigensolves


@pytest.mark.parametrize("fns, trials", [(("power:2",), 1), (("power:3/2", "sqrt", "log1p"), 4)])
def test_determinant_run_shares_factors(eigensolves, solver_calls, fns, trials):
    spec = SuiteSpec("determinant", trials=trials, dims=(2, 4), functions=fns)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    F, T, G = len(fns), trials, _groups(spec)
    # per trial: eigh of A and B, eigvalsh of A + B and of alpha A + beta B; per
    # function: eigvalsh of f(A) + f(B), all functions in one stacked call
    # (3 F T eigvalsh before)
    assert eigensolves["eigh"] == 2 * T, eigensolves
    assert eigensolves["eigvalsh"] == T * (2 + F), eigensolves
    # LAPACK calls per dimension group, each a stack of the group's trials (2 T and 3 T before)
    assert solver_calls["eigh"] == 2 * G, solver_calls
    assert solver_calls["eigvalsh"] == 3 * G, solver_calls
    assert eigensolves["svd"] == 0, eigensolves


@pytest.mark.parametrize("alphas, rs, trials", [((0.5,), (2.0,), 1), ((0.25, 0.75), (1.5, 3.0), 3)])
def test_power_mean_run_shares_factors(eigensolves, solver_calls, alphas, rs, trials):
    spec = SuiteSpec("power_mean", trials=trials, dims=(2, 4), alphas=alphas, rs=rs)
    assert run_suite(spec).summary.downgraded_records == 0
    T, R, G = trials, len(alphas) * len(rs) * trials, _groups(spec)
    # per trial: eigh of A, B and their middle in A's eigenbasis, and per
    # exponent of the middle of A^r, B^r; per record: two eigvalsh for each
    # of the four Loewner links
    assert eigensolves["eigh"] == T * (3 + len(rs)), eigensolves
    assert eigensolves["eigvalsh"] == 8 * R, eigensolves
    assert eigensolves["svd"] == 0, eigensolves
    # the links of every record of a dimension group are one stacked eigvalsh
    # (4R, then R before)
    assert solver_calls["eigvalsh"] == G, solver_calls
    # per dimension group: one eigh each of the A's, the B's and every middle
    assert _total(solver_calls) == G * 4, solver_calls


@pytest.mark.parametrize("alphas, rs, trials", [((0.5,), (2.0,), 1), ((0.25, 0.75), (1.5, 3.0), 3)])
def test_ando_hiai_run_shares_factors(eigensolves, solver_calls, alphas, rs, trials):
    spec = SuiteSpec("ando_hiai", trials=trials, dims=(2, 4), alphas=alphas, rs=rs)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    T, R, G = trials, len(alphas) * len(rs) * trials, _groups(spec)
    # per trial: eigh of A, B and their middle in A's eigenbasis, which the
    # swapped order shares, and per exponent of the middle of A^r, B^r;
    # per record: eigvalsh for ||A #_a B|| and two for each Loewner link
    assert eigensolves["eigh"] == T * (3 + len(rs)), eigensolves
    assert eigensolves["eigvalsh"] == 5 * R, eigensolves
    assert eigensolves["svd"] == 0, eigensolves
    # per dimension group: one stacked eigvalsh for every ||A #_a B|| and one for
    # every record's Loewner links (3R, then 2R before)
    assert solver_calls["eigvalsh"] == 2 * G, solver_calls
    # and one eigh each of the A's, the B's and every middle
    assert _total(solver_calls) == G * 5, solver_calls


@pytest.mark.parametrize("suite", ["power_mean", "ando_hiai"])
def test_power_mean_runs_build_no_mean(monkeypatch, suite):
    calls = []
    monkeypatch.setattr(
        "opmeans.means._validate_representing",
        lambda h: calls.append(h) or _validate_representing(h),
    )
    spec = SuiteSpec(suite, trials=3, dims=(2, 4), alphas=(0.25, 0.75), rs=(1.5, 3.0))
    assert run_suite(spec).summary.downgraded_records == 0
    # A #_a B is taken through its representing function x^a, so no record
    # builds a MatrixMean and runs its grid gate (one per record before)
    assert calls == []


def test_contraction_run_gates_each_representing_function_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "opmeans.means._validate_representing",
        lambda h: calls.append(h) or _validate_representing(h),
    )
    report = run_suite(SuiteSpec("contraction", trials=3, dims=(2, 4)))
    assert len(report.records) == 27
    # the harness's normalization and the checker both build each record's
    # h-mean (54 gates before); the gate runs once per distinct h
    assert 0 < len(calls) == len({id(h) for h in calls}) <= 3


@pytest.mark.parametrize(
    "fns, means, trials",
    [
        (("power:2",), ("geometric:1/2",), 1),
        (("power:2", "sqrt", "expm1"), ("arithmetic:1/2", "harmonic:1/4"), 3),
    ],
)
def test_chord_run_shares_factors(eigensolves, solver_calls, fns, means, trials):
    spec = SuiteSpec("chord", trials=trials, dims=(2, 4), functions=fns, means=means)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    F, T, G = len(fns), trials, _groups(spec)
    # per trial: eigh of A and B; per function: eigh of the middles of
    # f(A) sigma f(B) and of the two secant lines (T (2 + F) + 2R before,
    # when each record rebuilt its line middles); no S = A sigma B
    assert eigensolves["eigh"] == T * (2 + 3 * F), eigensolves
    assert eigensolves["svd"] == 0, eigensolves
    # both links of every record of a dimension group are one stacked eigvalsh
    # (2R, R, then T before)
    assert solver_calls["eigvalsh"] == G, solver_calls
    # per dimension group: one call for each of A and B, one stacked eigh of
    # every middle and one stacked eigvalsh of every record's links (T 4 before)
    assert _total(solver_calls) == G * 4, solver_calls


@pytest.mark.parametrize(
    "fns, means, trials",
    [
        (("power:2",), ("geometric:1/2",), 1),
        (("power:2", "expm1"), ("arithmetic:1/2", "harmonic:1/4"), 3),
    ],
)
def test_mean_diff_norm_run_shares_factors(eigensolves, fns, means, trials):
    spec = SuiteSpec("mean_diff_norm", trials=trials, dims=(2, 4), functions=fns, means=means)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    F, S, T, R = len(fns), len(means), trials, len(fns) * len(means) * trials
    # per trial: eigh of A, B and their middle; per function: eigh of the
    # middle of f(A) sigma f(B); per mean: eigh of S, whose eigenvalues give
    # its norms; per record: eigvalsh for the singular values of the
    # difference (R + T * S before, with a second eigvalsh of each S)
    assert eigensolves["eigh"] == T * (3 + F + S), eigensolves
    assert eigensolves["eigvalsh"] == R, eigensolves
    assert eigensolves["svd"] == 0, eigensolves


@pytest.mark.parametrize(
    "suite, eigvalsh_per_record",
    # spec(X); X - c1 S, c2 S - X and X for its norm (4 before: c2 S for its norm); X - f(S)
    [("eig_prod_norm", 1), ("inverse_function", 3), ("mean_diff_norm", 1)],
)
@pytest.mark.parametrize(
    "fns, means, trials",
    [
        (("power:2",), ("geometric:1/2",), 1),
        (("power:2", "power:3", "expm1"), ("arithmetic:1/2", "harmonic:1/4"), 3),
    ],
)
def test_corollary_run_is_one_stack_per_trial(
    eigensolves, solver_calls, suite, eigvalsh_per_record, fns, means, trials
):
    spec = SuiteSpec(suite, trials=trials, dims=(2, 4), functions=fns, means=means)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    F, S, T, R = len(fns), len(means), trials, len(fns) * len(means) * trials
    G = _groups(spec)
    # per trial: eigh of A, B and their middle, of every S and of every
    # function's image middle; per record: the eigvalsh of its links
    assert eigensolves["eigh"] == T * (3 + F + S), eigensolves
    assert eigensolves["eigvalsh"] == eigvalsh_per_record * R, eigensolves
    assert eigensolves["svd"] == 0, eigensolves
    # per dimension group: one call for each of A and B and their middles, one
    # stacked eigh of every S and one of every image middle, one stacked
    # eigvalsh for the records (T 6 before)
    assert _total(solver_calls) == G * 6, solver_calls


def test_contraction_factorizations(eigensolves, solver_calls):
    g, h = function_by_name("power:1/2"), function_by_name("power:1/2")
    a, b = normalize_for_contraction(MatrixMean("h", h), *_pd_pair(4, 19))
    for counts in (eigensolves, solver_calls):
        for name in counts:
            counts[name] = 0
    out = check_contraction_implication(FunctionPair(g, h), a, b, n_iter=3)
    assert out.passed and len(out.links) == 4
    # eigh of A and B, then per link one congruence middle and two eigvalsh: 26 before
    assert _total(eigensolves) <= 2 + 4 * 3, eigensolves
    # the four links are one stacked eigvalsh (four before)
    assert solver_calls["eigvalsh"] == 1, solver_calls


def _norm_operands():
    h = _pd_pair(4, 23)[0] - 2.0 * np.eye(4)  # Hermitian, indefinite
    n = _normal_pair(4, 29)[0]  # normal, not Hermitian
    g = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)  # not normal
    return {"hermitian": h, "normal": n, "non-normal": g}


@pytest.mark.parametrize("which", ["hermitian", "normal", "non-normal"])
def test_norm_is_a_function_of_one_singular_value_vector(which):
    x = _norm_operands()[which]
    kinds = norm_catalog(4)
    table = _norm_table(singular_values(x)[None], kinds)[0].tolist()
    for kind, value in zip(kinds, table):
        assert norm(x, kind) == value, kind
        assert norm(x, kind.label()) == value, kind


def test_transplanted_chain_takes_true_singular_values():
    # not normal: the eigenvalue moduli are 1, 1 and 2, 1, the singular values are not
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([[2.0, 0.0], [1.0, 1.0]])
    out = check_transplanted_norm_chain(function_by_name("power:2"), a, b, [NormKind.operator()])
    sv = np.concatenate([np.linalg.svd(a, compute_uv=False), np.linalg.svd(b, compute_uv=False)])
    assert out.params["m"] == pytest.approx(sv.min(), rel=1e-12)  # sqrt(2) - 1
    assert out.params["M"] == pytest.approx(sv.max(), rel=1e-12)  # sqrt(2) + 1
    assert out.params["m"] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)
    assert out.params["M"] == pytest.approx(np.sqrt(2.0) + 1.0, rel=1e-12)
