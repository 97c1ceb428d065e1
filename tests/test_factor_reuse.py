"""Factorization counts: each operand is factored once, and only as far as it is read.

``check_main_chain`` factors A and B once each by eigh, reusing A's
eigenvectors for f(A), and S = A sigma B once by eigvalsh, because it
reads only S's spectrum (``mean_diff_norm`` alone reads S's eigenvectors);
``mean`` factors A once for its gate and its congruence.  A Loewner link
whose scale is 1 + ||Y||_op solves Y only when its margin is negative: the
links of a group with no negative margin are one stacked eigvalsh of their
differences, and a group with some makes one more, of those rows' Y.  The
norm and determinant checkers factor each matrix once and read every norm
kind off its one singular-value vector; normal operands are factored once
by SVD, one stacked call per side of a dimension group, and their
non-Hermitian sums A + B by one more.  A
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


def _negative_margins(report, spec, links):
    """(rows, groups): a run's negative margins among each record's ``links(record)``.

    Those are its Loewner links scaled by 1 + ||Y||_op; each negative one
    solves its Y, all of a dimension group's in one more stacked eigvalsh.
    """
    trials = [r.params["trial"] for r in report.records for i in links(r) if r.margins[i] < 0.0]
    return len(trials), len({spec.dims[t % len(spec.dims)] for t in trials})


def _groups(spec):
    """The number of dimension groups of a run whose groups are not split by size."""
    return len({spec.dims[t % len(spec.dims)] for t in range(spec.trials)})


@pytest.mark.parametrize("fn", ["power:2", "sqrt"])
def test_main_chain_factorizations(eigensolves, fn):
    a, b = _pd_pair(4, 3)
    out = check_main_chain(function_by_name(fn), mean_by_name("geometric:1/2"), a, b)
    assert out.passed
    # eigh of A, B and the two congruence middles, eigvalsh of S and of the
    # two links against f(A) sigma f(B), whose margins are >= 0: no norm solve
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
    # SVD of A and B and of the non-normal sum A + B, eigvalsh of
    # f(|A|) + f(|B|) and of |A| + |B|; 41 before
    assert eigensolves["svd"] == 3, eigensolves
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
    # the link scaled by ||X||_op: fn-then-mean:low for a convex f, :high for a concave one
    assert _negative_margins(report, spec, lambda r: [2 - r.params["convex"]]) == (0, 0)
    # per trial: eigh of A, B and A^(-1/2) B A^(-1/2); per function: eigh of
    # the middle of f(A) sigma f(B); per mean: eigvalsh of S; per record: two
    # eigvalsh, no margin being negative (T (3 + S + F) and 3 T F S before)
    assert eigensolves["eigh"] == T * (3 + F), eigensolves
    assert eigensolves["eigvalsh"] == T * (S + 2 * F * S), eigensolves
    # LAPACK calls grow with neither F, S nor T: per dimension group one for each
    # of A, B and their middles, one stacked eigh of every function's middle,
    # one stacked eigvalsh of every S and one of every record's two differences
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
    # per trial: SVD of A, B and the non-normal A + B, eigvalsh of |A| + |B|;
    # per function: eigvalsh of f(|A|) + f(|B|), all functions in one stacked call
    # (2 F T complex Schur factorizations and 3 F T eigvalsh before, then 2 T
    # SVDs and T (2 + F) eigvalsh, one of (A + B)*(A + B) per trial)
    assert eigensolves["svd"] == 3 * T, eigensolves
    # one stacked SVD per matrix kind per dimension group (2 T per-matrix Schur
    # calls, then 2 G before)
    assert solver_calls["svd"] == 3 * G, solver_calls
    assert eigensolves["eigvalsh"] == T * (1 + F), eigensolves
    # eigvalsh calls per dimension group, each a stack of the group's trials (3 T, then 3 G before)
    assert solver_calls["eigvalsh"] == 2 * G, solver_calls
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
    report = run_suite(spec)
    assert report.summary.downgraded_records == 0
    T, R, G = trials, len(alphas) * len(rs) * trials, _groups(spec)
    # the companion entropy links fail: 1 of 4 margins, and 16 of 48 in 2 groups
    negative, groups = _negative_margins(report, spec, lambda r: range(4))
    assert (negative, groups) == ((1, 1) if R == 1 else (16, 2))
    # per trial: eigh of A, B and their middle in A's eigenbasis, and per
    # exponent of the middle of A^r, B^r; per record: one eigvalsh for each of
    # the four Loewner links, and one for the norm of each link's right side
    # whose margin is negative (8R before: every norm)
    assert eigensolves["eigh"] == T * (3 + len(rs)), eigensolves
    assert eigensolves["eigvalsh"] == 4 * R + negative, eigensolves
    assert eigensolves["svd"] == 0, eigensolves
    # the links of every record of a dimension group are one stacked eigvalsh,
    # and the norms of a group's negative margins one more (4R, then R, then G before)
    assert solver_calls["eigvalsh"] == G + groups, solver_calls
    # per dimension group: one eigh each of the A's, the B's and every middle
    assert _total(solver_calls) == G * 4 + groups, solver_calls


@pytest.mark.parametrize("alphas, rs, trials", [((0.5,), (2.0,), 1), ((0.25, 0.75), (1.5, 3.0), 3)])
def test_ando_hiai_run_shares_factors(eigensolves, solver_calls, alphas, rs, trials):
    spec = SuiteSpec("ando_hiai", trials=trials, dims=(2, 4), alphas=alphas, rs=rs)
    report = run_suite(spec)
    assert report.summary.failed_links == 0
    assert report.summary.downgraded_records == 0
    T, R, G = trials, len(alphas) * len(rs) * trials, _groups(spec)
    assert _negative_margins(report, spec, lambda r: (0, 1)) == (0, 0)
    # per trial: eigh of A, B and their middle in A's eigenbasis, which the
    # swapped order shares, and per exponent of the middle of A^r, B^r;
    # per record: eigvalsh for ||A #_a B|| and one for each Loewner link,
    # none of whose margins is negative (5R before: one more per link, for its norm)
    assert eigensolves["eigh"] == T * (3 + len(rs)), eigensolves
    assert eigensolves["eigvalsh"] == 3 * R, eigensolves
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
    F, T, G, R = len(fns), trials, _groups(spec), len(fns) * len(means) * trials
    assert _negative_margins(report, spec, lambda r: (0, 1)) == (0, 0)
    # per trial: eigh of A and B; per function: eigh of the middles of
    # f(A) sigma f(B) and of the two secant lines (T (2 + F) + 2R before,
    # when each record rebuilt its line middles); no S = A sigma B
    assert eigensolves["eigh"] == T * (2 + 3 * F), eigensolves
    assert eigensolves["svd"] == 0, eigensolves
    # per record: one eigvalsh per link, no margin being negative (4 before:
    # one more per link, for the norm of its right side)
    assert eigensolves["eigvalsh"] == 2 * R, eigensolves
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
    # spec(X); X - c1 S and c2 S - X (3 before: X for its norm; 4 before that:
    # c2 S for its norm); X - f(S)
    [("eig_prod_norm", 1), ("inverse_function", 2), ("mean_diff_norm", 1)],
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
    eigh_of_s = suite == "mean_diff_norm"  # its f(S) reads S's eigenvectors
    # inverse-low is the link whose scale is 1 + ||X||_op
    assert suite != "inverse_function" or _negative_margins(report, spec, lambda r: (0,)) == (0, 0)
    # per trial: eigh of A, B and their middle and of every function's image
    # middle, and eigh of every S where its eigenvectors are read, else eigvalsh;
    # per record: the eigvalsh of its links (T (3 + F + S) eigh before, for every suite)
    assert eigensolves["eigh"] == T * (3 + F + S * eigh_of_s), eigensolves
    assert eigensolves["eigvalsh"] == eigvalsh_per_record * R + T * S * (not eigh_of_s), eigensolves
    assert eigensolves["svd"] == 0, eigensolves
    # per dimension group: one call for each of A and B and their middles, one
    # stacked eigh or eigvalsh of every S and one eigh of every image middle, one
    # stacked eigvalsh for the records (T 6 before)
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
    # the four links are one stacked eigvalsh (four before), and the norms of
    # I for the links whose margin is negative (round-off at the unit bound) one more
    negative = sum(m < 0.0 for m in out.margins)
    assert eigensolves["eigvalsh"] == 4 + negative, eigensolves
    assert solver_calls["eigvalsh"] == 1 + (negative > 0), solver_calls


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
