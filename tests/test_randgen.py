import math

import numpy as np
import pytest
import scipy.stats

from opmeans.means import mean_by_name, mean, normalize_for_contraction
from opmeans.randgen import (
    GeneratorConfig,
    RandomStream,
    derive_stream_seed,
    mix64,
    random_gap_pair,
    random_normal,
    random_pd,
    random_unitary,
)


def test_mix64_is_deterministic_and_spread():
    assert mix64(0) == mix64(0)
    seeds = {derive_stream_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000


def test_unitary_dim1_unit_modulus():
    u = random_unitary(1, derive_stream_seed(1, 0)).entries
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_unitary_same_seed_bit_identical():
    a = random_unitary(5, derive_stream_seed(9, 4)).entries
    b = random_unitary(5, derive_stream_seed(9, 4)).entries
    assert np.array_equal(a, b)


def test_unitary_orthonormal():
    u = random_unitary(8, derive_stream_seed(3, 7)).entries
    assert np.linalg.norm(u.conj().T @ u - np.eye(8), 2) <= 1e-10


def test_pd_dim1_degenerate_interval():
    cfg = GeneratorConfig(1, 3.0, 3.0)
    a = random_pd(cfg, derive_stream_seed(0, 0)).entries
    assert np.allclose(a, [[3.0]])


def test_pd_endpoints_attained_and_contained():
    cfg = GeneratorConfig(4, 1.0, 4.0)
    for t in range(50):
        w = np.linalg.eigvalsh(random_pd(cfg, derive_stream_seed(11, t)).entries)
        assert abs(w[0] - 1.0) <= 1e-10
        assert abs(w[-1] - 4.0) <= 1e-10
        assert np.all(w >= 1.0 - 1e-10 * 5.0)
        assert np.all(w <= 4.0 + 1e-10 * 5.0)


def test_pd_determinism_bit_identical():
    cfg = GeneratorConfig(3, 0.5, 4.0)
    a = random_pd(cfg, derive_stream_seed(77, 5)).entries
    b = random_pd(cfg, derive_stream_seed(77, 5)).entries
    assert np.array_equal(a, b)


def test_normal_commutes_with_adjoint():
    cfg = GeneratorConfig(6, 0.5, 4.0, "normal_complex")
    a = random_normal(cfg, derive_stream_seed(21, 1)).entries
    comm = a @ a.conj().T - a.conj().T @ a
    scale = 1.0 + np.linalg.norm(a, 2) ** 2
    assert np.linalg.norm(comm, 2) <= 1e-9 * scale


def test_normal_singular_values_in_interval():
    cfg = GeneratorConfig(5, 1.0, 3.0, "normal_complex")
    for t in range(20):
        a = random_normal(cfg, derive_stream_seed(22, t)).entries
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.all(sv >= 1.0 - 1e-9)
        assert np.all(sv <= 3.0 + 1e-9)
        assert abs(sv[0] - 3.0) <= 1e-9 and abs(sv[-1] - 1.0) <= 1e-9


def test_hermitian_indefinite_structure():
    cfg = GeneratorConfig(6, 0.5, 4.0, "hermitian_indefinite")
    signs = set()
    for t in range(20):
        a = random_normal(cfg, derive_stream_seed(23, t)).entries
        assert np.abs(a - a.conj().T).max() <= 1e-10 * (1.0 + np.abs(a).max())
        w = np.linalg.eigvalsh(a)
        signs.update(np.sign(w).astype(int))
    assert signs == {-1, 1}


def test_gap_pair_predicates():
    for t in range(10):
        a, b = random_gap_pair(3, "below_a", derive_stream_seed(31, t))
        wa = np.linalg.eigvalsh(a.entries)
        wb = np.linalg.eigvalsh(b.entries)
        assert wb[-1] < wa[0]  # all of B below all of A
        a, b = random_gap_pair(3, "above_a", derive_stream_seed(32, t))
        wa = np.linalg.eigvalsh(a.entries)
        wb = np.linalg.eigvalsh(b.entries)
        assert wa[-1] < wb[0]
    with pytest.raises(ValueError):
        random_gap_pair(3, "sideways", 1)


def test_normalize_for_contraction_scalar_case():
    sigma = mean_by_name("geometric:1/2")
    a, b = normalize_for_contraction(sigma, 2.0 * np.eye(3), 2.0 * np.eye(3))
    assert np.allclose(a.entries, np.eye(3))
    assert np.allclose(b.entries, np.eye(3))


def test_normalize_for_contraction_idempotent_and_topped():
    sigma = mean_by_name("geometric:1/2")
    cfg = GeneratorConfig(4, 0.5, 4.0)
    a = random_pd(cfg, derive_stream_seed(41, 0))
    b = random_pd(cfg, derive_stream_seed(41, 1))
    a1, b1 = normalize_for_contraction(sigma, a, b)
    top = np.linalg.eigvalsh(mean(sigma, a1, b1).entries)[-1]
    assert abs(top - 1.0) <= 1e-9
    a2, b2 = normalize_for_contraction(sigma, a1, b1)
    assert np.linalg.norm(a2.entries - a1.entries, 2) <= 1e-9
    assert np.linalg.norm(b2.entries - b1.entries, 2) <= 1e-9


def test_normalize_diagonal_matches_scalar_means():
    sigma = mean_by_name("geometric:1/2")
    a = np.diag([1.0, 4.0])
    b = np.diag([2.0, 3.0])
    a1, _ = normalize_for_contraction(sigma, a, b)
    c = max(math.sqrt(1.0 * 2.0), math.sqrt(4.0 * 3.0))
    assert np.allclose(a1.entries, a / c)


def test_stream_split_chi_square_smoke():
    # first uniform of 4096 derived streams, 16 equal bins
    master = 20240001
    firsts = [RandomStream(derive_stream_seed(master, t)).uniform() for t in range(4096)]
    counts, _ = np.histogram(firsts, bins=16, range=(0.0, 1.0))
    expected = 4096 / 16
    stat = float(((counts - expected) ** 2 / expected).sum())
    lo, hi = scipy.stats.chi2.ppf([1e-9, 1.0 - 1e-9], df=15)
    assert lo < stat < hi


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(0, 1.0, 2.0)
    with pytest.raises(ValueError):
        GeneratorConfig(2, 0.0, 2.0)
    with pytest.raises(ValueError):
        GeneratorConfig(2, 3.0, 2.0)
    with pytest.raises(ValueError):
        GeneratorConfig(2, 1.0, 2.0, "tridiagonal")
