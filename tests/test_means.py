import math

import numpy as np
import pytest

from opmeans import (
    MatrixMean,
    NotPositiveSemidefiniteError,
    Perspective,
    ScalarFunction,
    function_by_name,
    loewner_leq,
    mean,
    mean_by_name,
    mean_catalog,
    perspective,
    register_mean,
    relative_operator_entropy,
)
from opmeans.functions import Interval
from opmeans.means import _mean_from_middle
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_pd, random_unitary

A_DIAG = np.diag([1.0, 4.0])
B_DIAG = np.diag([2.0, 3.0])


def _pd_pair(dim, seed, m=0.5, M=4.0):
    cfg = GeneratorConfig(dim, m, M)
    return (
        random_pd(cfg, derive_stream_seed(seed, 0)).entries,
        random_pd(cfg, derive_stream_seed(seed, 1)).entries,
    )


def test_weight_names():
    # a whole weight is named as a whole number, not as k/k
    assert mean_by_name("arithmetic:1").name == "arithmetic:1"
    assert mean_by_name("arithmetic:0").name == "arithmetic:0"
    kinds = ("arithmetic", "harmonic", "geometric")
    names = [f"{kind}:{t}" for t in ("1/4", "1/2", "3/4") for kind in kinds]
    assert [m.name for m in mean_catalog()] == names


def test_catalog_shape():
    cat = mean_catalog()
    assert len(cat) == 9
    for m in cat:
        assert abs(float(m.h(1.0)) - 1.0) <= 1e-12


def test_catalog_representing_functions():
    arith = mean_by_name("arithmetic:1/2")
    assert float(arith.h(3.0)) == pytest.approx(2.0)  # (1+x)/2
    geo = mean_by_name("geometric:1/2")
    assert float(geo.h(9.0)) == pytest.approx(3.0)  # sqrt
    harm = mean_by_name("harmonic:1/2")
    assert float(harm.h(3.0)) == pytest.approx(1.5)  # 2x/(1+x)


def test_identity_axiom_all_means():
    eye = np.eye(3)
    for sigma in mean_catalog():
        out = mean(sigma, eye, eye).entries
        assert np.linalg.norm(out - eye, 2) <= 1e-10


def test_geometric_mean_commuting_closed_form():
    out = mean(mean_by_name("geometric:1/2"), A_DIAG, B_DIAG).entries
    assert np.allclose(np.diagonal(out), [math.sqrt(2.0), math.sqrt(12.0)])


def test_harmonic_mean_commuting_closed_form():
    out = mean(mean_by_name("harmonic:1/2"), A_DIAG, B_DIAG).entries
    assert np.allclose(np.diagonal(out), [4.0 / 3.0, 24.0 / 7.0])


def test_weighted_arithmetic_convention():
    # weight t sits on the second operand
    out = mean(mean_by_name("arithmetic:1/4"), A_DIAG, B_DIAG).entries
    assert np.allclose(out, 0.75 * A_DIAG + 0.25 * B_DIAG)


def test_mean_rejects_indefinite_second_operand():
    with pytest.raises(NotPositiveSemidefiniteError):
        mean(mean_by_name("arithmetic:1/2"), np.eye(2), np.diag([1.0, -1.0]))


def test_mean_regularizes_singular_first_operand():
    out = mean(mean_by_name("geometric:1/2"), np.diag([0.0, 1.0]), np.eye(2))
    assert out.meta is not None and out.meta["regularization_eps"] > 0.0
    # continuity: result close to the singular-limit geometric mean diag(0, 1)
    assert np.allclose(np.diagonal(out.entries), [0.0, 1.0], atol=1e-3)


def test_positive_homogeneity():
    a, b = _pd_pair(3, 101)
    for sigma in mean_catalog():
        base = mean(sigma, a, b).entries
        for c in (0.5, 2.0, 10.0):
            scaled = mean(sigma, c * a, c * b).entries
            assert np.linalg.norm(scaled - c * base, 2) <= 1e-9 * (1.0 + np.linalg.norm(c * base, 2))


def test_congruence_equality_invertible():
    a, b = _pd_pair(4, 202)
    u = random_unitary(4, derive_stream_seed(5, 5)).entries
    c = u @ np.diag([0.5, 0.8, 1.3, 2.0]) @ u.conj().T  # invertible, well conditioned
    for sigma in mean_catalog():
        lhs = c.conj().T @ mean(sigma, a, b).entries @ c
        rhs = mean(sigma, c.conj().T @ a @ c, c.conj().T @ b @ c).entries
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * (1.0 + np.linalg.norm(rhs, 2))


def test_mean_ordering_harmonic_geometric_arithmetic():
    for t in (0.25, 0.5, 0.75):
        harm = mean_by_name(f"harmonic:{t:g}")
        geo = mean_by_name(f"geometric:{t:g}")
        arith = mean_by_name(f"arithmetic:{t:g}")
        for seed in range(500):
            a, b = _pd_pair(2 + seed % 3, 3000 + seed)
            hm = mean(harm, a, b).entries
            gm = mean(geo, a, b).entries
            am = mean(arith, a, b).entries
            assert loewner_leq(hm, gm).passed
            assert loewner_leq(gm, am).passed


def test_monotonicity_spot_check():
    for seed in range(40):
        a, b = _pd_pair(3, 4000 + seed)
        p, q = _pd_pair(3, 5000 + seed, m=0.0 + 0.1, M=1.0)
        c, d = a + p, b + q
        for sigma in mean_catalog():
            assert loewner_leq(mean(sigma, a, b), mean(sigma, c, d)).passed


def test_commuting_oracle_equivalence():
    import _diag_oracle as oracle

    for name in ("arithmetic:1/4", "harmonic:1/2", "geometric:3/4"):
        sigma = mean_by_name(name)
        scalar = oracle.scalar_mean(name)
        a = [0.7, 1.9, 3.4]
        b = [2.2, 0.6, 1.1]
        out = np.diagonal(mean(sigma, np.diag(a), np.diag(b)).entries).real
        want = [scalar(x, y) for x, y in zip(a, b)]
        assert np.allclose(out, want, atol=1e-12)


def test_perspective_entropy_examples():
    a, _ = _pd_pair(3, 808)
    s_aa = relative_operator_entropy(a, a).entries
    assert np.linalg.norm(s_aa, 2) <= 1e-10 * (1.0 + np.linalg.norm(a, 2))
    out = relative_operator_entropy(np.eye(2), np.diag([math.e, math.e**2])).entries
    assert np.allclose(np.diagonal(out), [1.0, 2.0])


def test_perspective_identity_function_returns_second_operand():
    a, b = _pd_pair(3, 909)
    out = perspective(Perspective(function_by_name("identity")), a, b).entries
    assert np.linalg.norm(out - b, 2) <= 1e-9 * (1.0 + np.linalg.norm(b, 2))


def test_registering_custom_mean():
    h = ScalarFunction(
        "h-power-0.3",
        fn=lambda x: np.power(x, 0.3),
        deriv=lambda x: 0.3 * np.power(x, -0.7),
        domain=Interval(0.0, math.inf),
    )
    custom = register_mean(MatrixMean("custom", h, 0.3))
    assert mean_by_name("custom") is custom
    with pytest.raises(ValueError):
        mean_by_name("no-such-mean")


def test_representing_function_gates():
    bad_norm = ScalarFunction("h-bad", fn=lambda x: x + 1.0, deriv=lambda x: 1.0)
    with pytest.raises(ValueError):
        MatrixMean("bad", bad_norm)
    decreasing = ScalarFunction("h-dec", fn=lambda x: 2.0 - x, deriv=lambda x: -1.0)
    with pytest.raises(ValueError):
        MatrixMean("dec", decreasing)
    with pytest.raises(ValueError):
        mean_by_name("geometric:0")


def test_stacked_middles_gate_each_row_at_its_own_scale():
    # -1e-7 fails the congruence-spectrum gate at the scale of its own middle
    # (1 + 1), though it lies within tol times the other middle's (1 + 1e3);
    # the other middle's means are those of its 1-row stack
    wm = np.array([[-1e-7, 1.0], [1.0, 1e3]])
    eye = np.eye(2, dtype=complex)
    middles = (np.ones((2, 2)), wm, np.stack([eye, eye]), (None, None))
    hs = [mean_by_name(name).h for name in ("geometric:1/2", "arithmetic:1/4")]
    errors = np.full(4, None, dtype=object)
    stack = _mean_from_middle(hs, middles, 1e-8, errors)
    assert [type(e) for e in errors] == [NotPositiveSemidefiniteError] * 2 + [type(None)] * 2
    second = (middles[0][1:], wm[1:], middles[2][1:], (None,))
    assert np.array_equal(stack[1], _mean_from_middle(hs, second, 1e-8)[0])
    with pytest.raises(NotPositiveSemidefiniteError):
        _mean_from_middle(hs, middles, 1e-8)
