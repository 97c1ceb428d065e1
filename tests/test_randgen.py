import hashlib
import math

import numpy as np
import pytest
import scipy.stats

from opmeans import randgen
from opmeans.core import hermitian_part
from opmeans.means import mean_by_name, mean, normalize_for_contraction
from opmeans.randgen import (
    GOLDEN,
    MASK64,
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


class ScalarStream:
    """The stream's per-entry definition: one mix64 per uniform, one
    Box-Muller step per pair of normals.  Oracle for ``RandomStream``."""

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._spare = None

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)

    def uniforms(self, k: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(k)], dtype=np.float64)

    def normal(self) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, k: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(k)], dtype=np.float64)

    def complex_gaussian(self, dim: int) -> np.ndarray:
        out = np.empty((dim, dim), dtype=np.complex128)
        for i in range(dim):
            for j in range(dim):
                out[i, j] = complex(self.normal(), self.normal()) / math.sqrt(2.0)
        return out


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_same_state(stream, oracle):
    assert stream._state == oracle._state
    if oracle._spare is None:
        assert stream._spare is None
    else:
        assert type(stream._spare) is float
        assert_same_bits(stream._spare, oracle._spare)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 32, 33])
def test_complex_gaussian_matches_scalar_definition(dim):
    for t in range(300):
        seed = derive_stream_seed(dim, t)
        stream, oracle = RandomStream(seed), ScalarStream(seed)
        assert_same_bits(stream.complex_gaussian(dim), oracle.complex_gaussian(dim))
        assert_same_state(stream, oracle)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [MASK64, MASK64 - 5, 1 << 63, 0, 12345])
def test_array_draws_match_scalar_definition_near_wraparound(seed):
    stream, oracle = RandomStream(seed), ScalarStream(seed)
    assert_same_bits(stream.uniforms(0), oracle.uniforms(0))
    assert_same_state(stream, oracle)
    for k, lo, hi in [(1, 0.0, 1.0), (7, 0.5, 4.0), (5, 0.0, 2.0 * math.pi)]:
        assert_same_bits(stream.uniforms(k, lo, hi), oracle.uniforms(k, lo, hi))
        assert_same_state(stream, oracle)
    got = stream.uniform(2.0, 3.0)
    assert type(got) is float
    assert_same_bits(got, oracle.uniform(2.0, 3.0))
    assert stream.next_u64() == oracle.next_u64()
    for k in (5, 0, 1, 3, 4, 2):  # odd counts leave a spare for the next draw
        assert_same_bits(stream.normals(k), oracle.normals(k))
        assert_same_state(stream, oracle)
    got = stream.normal()
    assert type(got) is float
    assert_same_bits(got, oracle.normal())
    assert_same_bits(stream.complex_gaussian(3), oracle.complex_gaussian(3))
    assert_same_state(stream, oracle)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pending_spare_comes_first():
    for t in range(50):
        seed = derive_stream_seed(7, t)
        stream, oracle = RandomStream(seed), ScalarStream(seed)
        assert_same_bits(stream.normal(), oracle.normal())
        assert_same_state(stream, oracle)
        assert_same_bits(stream.complex_gaussian(3), oracle.complex_gaussian(3))
        assert_same_state(stream, oracle)
        assert_same_bits(stream.normals(0), oracle.normals(0))
        assert_same_state(stream, oracle)


# The generators' definition, one matrix at a time with 2-D numpy operations on
# the per-entry stream: the oracle for the stacked draw of randgen.random_group.

def _haar_oracle(stream, dim):
    g = stream.complex_gaussian(dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    mod = np.abs(d)
    phases = np.where(mod == 0.0, 1.0, d / np.where(mod == 0.0, 1.0, mod))
    return q * phases[None, :]


def _moduli_oracle(stream, dim, m, M):
    lam = stream.uniforms(dim, m, M)
    if dim >= 2:
        lam[0] = M
        lam[-1] = m
    return lam


def _pd_oracle(stream, dim, m, M):
    u = _haar_oracle(stream, dim)
    lam = _moduli_oracle(stream, dim, m, M)
    return hermitian_part((u * lam) @ u.conj().T)


def _normal_oracle(stream, dim, m, M, structure):
    u = _haar_oracle(stream, dim)
    moduli = _moduli_oracle(stream, dim, m, M)
    if structure == "hermitian_indefinite":
        phases = np.where(stream.uniforms(dim) < 0.5, 0.0, math.pi)
    else:
        phases = stream.uniforms(dim, 0.0, 2.0 * math.pi)
    z = moduli * np.exp(1j * phases)
    return (u * z) @ u.conj().T


_GAPS = {"below_a": ((2.0, 3.0), (0.5, 1.0)), "above_a": ((0.5, 1.0), (2.0, 3.0))}
_INTERVALS = ((0.5, 4.0), (2.0, 2.0), (1e-6, 400.0))  # m = M included


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generators_match_scalar_definition():
    for dim in (1, 2, 3, 5, 7, 32):
        for t in range(2 if dim == 32 else 8):
            seed = derive_stream_seed(dim, t)
            m, M = _INTERVALS[t % len(_INTERVALS)]
            got = [random_pd(GeneratorConfig(dim, m, M), seed), random_unitary(dim, seed)]
            want = [_pd_oracle(ScalarStream(seed), dim, m, M)]
            want.append(_haar_oracle(ScalarStream(seed), dim))
            for structure in ("normal_complex", "hermitian_indefinite"):
                got.append(random_normal(GeneratorConfig(dim, m, M, structure), seed))
                want.append(_normal_oracle(ScalarStream(seed), dim, m, M, structure))
            for mode, ((ma, Ma), (mb, Mb)) in _GAPS.items():
                got.extend(random_gap_pair(dim, mode, seed))
                stream = ScalarStream(seed)  # B continues A's stream
                want += [_pd_oracle(stream, dim, ma, Ma), _pd_oracle(stream, dim, mb, Mb)]
            for g, w in zip(got, want, strict=True):
                assert_same_bits(g.entries, w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7, 32])
def test_group_rows_equal_one_row_draws(dim):
    rows = []
    for t in range(6):
        seed = derive_stream_seed(50 + dim, t)
        m, M = _INTERVALS[t % len(_INTERVALS)]
        rows += [(seed, 0, structure, m, M) for structure in randgen.STRUCTURES]
        rows += randgen.gap_pair_rows(dim, ("below_a", "above_a")[t % 2], seed)
        rows.append((seed, 0, None, 1.0, 1.0))
    group = randgen.random_group(dim, rows)
    assert group.shape == (len(rows), dim, dim)
    for row, got in zip(rows, group, strict=True):
        assert_same_bits(got, randgen.random_group(dim, [row])[0])


@pytest.mark.parametrize("dim", [0, -1])
def test_gap_pair_refuses_dim_below_one(dim):
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        random_gap_pair(dim, "below_a", 1)


def sha256_of(*matrices):
    return hashlib.sha256(b"".join(m.entries.tobytes() for m in matrices)).hexdigest()


def test_generated_bits_are_pinned():
    # sha256 of the entries' bytes, computed with the per-entry stream
    master = 20240001
    pd = random_pd(GeneratorConfig(32, 0.5, 4.0), derive_stream_seed(master, 0))
    assert sha256_of(pd) == "2f710d51bd8f163f7324a677f8589f6d7e278e080101e1cdcebbbd47ff0055b9"
    normal = random_normal(GeneratorConfig(5, 0.5, 4.0, "normal_complex"), derive_stream_seed(master, 1))
    assert sha256_of(normal) == "c5bc6155893eaa8c3cc32b3b01ae9f5c7b8284bda199ab51569ae366da984db2"
    herm = random_normal(GeneratorConfig(5, 0.5, 4.0, "hermitian_indefinite"), derive_stream_seed(master, 2))
    assert sha256_of(herm) == "da5c21366d69de7751f6cba4eb87cefe3acb0813cb54c504648c463e03fada2a"
    gap = random_gap_pair(4, "below_a", derive_stream_seed(master, 3))
    assert sha256_of(*gap) == "787d0b64b9d0048502e9e8724b6f5470a1138d50575a099e4dd3cc9a07465012"
    # the raw stream, with no LAPACK call in between
    g = RandomStream(derive_stream_seed(master, 5)).complex_gaussian(32)
    assert hashlib.sha256(g.tobytes()).hexdigest() == (
        "4d83d2531d306969c206f85b7b5002f57a89a113c6d420c39cf854aa68c1cd29"
    )
