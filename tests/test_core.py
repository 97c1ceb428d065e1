import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeans import (
    ComplexMatrix,
    HermitianMatrix,
    NormKind,
    ShapeError,
    NotPositiveSemidefiniteError,
    DomainViolationError,
    apply_fn,
    det_root,
    eigh,
    eigenvalues_desc,
    function_by_name,
    loewner_leq,
    matrix_abs,
    norm,
    norm_catalog,
    singular_values,
    spectral_bounds,
)
from opmeans import core
from opmeans.core import _norm_table, _singular_values
from opmeans.randgen import GeneratorConfig, RandomStream, derive_stream_seed, random_normal, random_pd, random_unitary

RTOL = 1e-10


def _pd(dim, seed, m=0.5, M=4.0):
    cfg = GeneratorConfig(dim, m, M)
    return random_pd(cfg, derive_stream_seed(seed, 0))


def test_complex_matrix_validation():
    with pytest.raises(ShapeError):
        ComplexMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix([[np.inf, 0], [0, 1]])


def test_hermitian_construction_symmetrizes():
    x = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    h = HermitianMatrix(x)
    assert np.allclose(h.entries, [[1.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(h.entries, h.entries.conj().T)


def test_eigh_diagonal():
    s = eigh(np.diag([2.0, -1.0]))
    assert np.allclose(s.eigenvalues, [2.0, -1.0])


def test_eigh_2x2_closed_form():
    s = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s.eigenvalues, [1.0, -1.0])
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(s.eigenvectors[:, 0], [r, r])
    assert np.allclose(s.eigenvectors[:, 1], [r, -r])


def test_eigh_identity():
    s = eigh(np.eye(4))
    assert np.allclose(s.eigenvalues, np.ones(4))
    assert np.allclose(s.eigenvectors, np.eye(4))


def test_eigh_deterministic_for_identical_input():
    a = _pd(5, 12345).entries
    s1, s2 = eigh(a), eigh(a.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_eigh_reconstruction_random():
    for seed in range(50):
        a = _pd(2 + seed % 7, 900 + seed).entries
        s = eigh(a)
        err = np.linalg.norm(s.reconstruct() - a, 2)
        assert err <= RTOL * (1.0 + np.linalg.norm(a, 2))


def test_apply_fn_identity_any_hermitian():
    a = np.diag([2.0, -1.0])
    out = apply_fn(function_by_name("identity"), a)
    assert np.allclose(out.entries, a, atol=1e-12)


def test_apply_fn_square_on_diagonal():
    out = apply_fn(function_by_name("power:2"), np.diag([1.0, 4.0]))
    assert np.allclose(out.entries, np.diag([1.0, 16.0]))


def test_apply_fn_log1p_identity_matrix():
    out = apply_fn(function_by_name("log1p"), np.eye(3))
    assert np.allclose(out.entries, math.log(2.0) * np.eye(3))


def test_apply_fn_domain_violation_names_eigenvalue():
    with pytest.raises(DomainViolationError, match="-4"):
        apply_fn(function_by_name("sqrt"), np.diag([1.0, -4.0]))


def test_apply_fn_unitary_covariance():
    f = function_by_name("expm1")
    for seed in range(10):
        a = _pd(4, 40 + seed).entries
        u = random_unitary(4, derive_stream_seed(99, seed)).entries
        lhs = apply_fn(f, u @ a @ u.conj().T).entries
        rhs = u @ apply_fn(f, a).entries @ u.conj().T
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * (1.0 + np.linalg.norm(rhs, 2))


def test_matrix_abs_fixtures():
    assert np.allclose(matrix_abs(np.diag([2.0, -1.0])).entries, np.diag([2.0, 1.0]))
    assert np.allclose(matrix_abs(np.diag([-2.0, 1.0])).entries, np.diag([2.0, 1.0]))
    assert np.allclose(matrix_abs(np.zeros((2, 2))).entries, np.zeros((2, 2)))


def test_matrix_abs_keeps_small_singular_values():
    # a square root of A*A loses singular values below about sqrt(eps) ||A||:
    # here it gave eigenvalues (7.7e-9, 9.99999e-6, 1), an error of 7.6e-9
    s = np.array([1.0, 1e-5, 1e-10])
    u, w = (random_unitary(3, derive_stream_seed(5, k)).entries for k in (0, 1))
    got = matrix_abs((u * s) @ w.conj().T).entries
    assert np.linalg.norm(got - (w * s) @ w.conj().T, 2) <= 1e-14
    assert np.abs(np.linalg.eigvalsh(got) - s[::-1]).max() <= 1e-14


def test_loewner_examples():
    r = loewner_leq(np.eye(2), np.eye(2))
    assert r.passed and abs(r.margin) < 1e-14
    r = loewner_leq(np.diag([1.5, 3.5]), np.diag([2.5, 12.5]))
    assert r.passed and np.isclose(r.margin, 1.0)
    r = loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]), tol=1e-8)
    assert not r.passed and np.isclose(r.margin, -1.0)


def test_loewner_dimension_mismatch():
    with pytest.raises(ShapeError):
        loewner_leq(np.eye(2), np.eye(3))


def test_norm_examples():
    assert norm(np.diag([3.0, 7.0]), "operator") == pytest.approx(7.0)
    assert norm(np.diag([3.0, 4.0]), "schatten:2") == pytest.approx(5.0)
    f = function_by_name("power:2")
    fa = apply_fn(f, matrix_abs(np.diag([2.0, -1.0])).entries).entries
    fb = apply_fn(f, matrix_abs(np.diag([-2.0, 1.0])).entries).entries
    assert norm(fa + fb, "operator") == pytest.approx(8.0)


def test_norm_kyfan_out_of_range():
    with pytest.raises(ValueError):
        norm(np.eye(2), "kyfan:3")


def test_norm_kind_parse_labels():
    assert NormKind.parse("schatten:2").label() == "schatten:2"
    assert NormKind.parse("kyfan:3").label() == "kyfan:3"
    with pytest.raises(ValueError):
        NormKind.parse("nuclearish")
    with pytest.raises(ValueError):
        NormKind("schatten", 0.5)


def test_norm_unitary_invariance():
    a = _pd(4, 321).entries
    for seed in range(5):
        u = random_unitary(4, derive_stream_seed(1, seed)).entries
        v = random_unitary(4, derive_stream_seed(2, seed)).entries
        for kind in norm_catalog(4):
            base = norm(a, kind)
            assert norm(u @ a @ v, kind) == pytest.approx(base, rel=1e-9)


def test_norm_triangle_inequality():
    for seed in range(200):
        dim = 2 + seed % 4
        a = _pd(dim, 5000 + seed).entries
        b = _pd(dim, 6000 + seed).entries - _pd(dim, 7000 + seed).entries
        for kind in norm_catalog(dim):
            assert norm(a + b, kind) <= norm(a, kind) + norm(b, kind) + 1e-9


def test_norm_alias_equivalences():
    for seed in range(20):
        dim = 2 + seed % 5
        a = _pd(dim, 800 + seed).entries
        assert norm(a, "trace") == pytest.approx(norm(a, "schatten:1"), abs=1e-10)
        assert norm(a, "trace") == pytest.approx(norm(a, NormKind.ky_fan(dim)), abs=1e-10)
        assert norm(a, "frobenius") == pytest.approx(norm(a, "schatten:2"), abs=1e-10)
        assert norm(a, "operator") == pytest.approx(norm(a, "kyfan:1"), abs=1e-10)


def test_singular_values_match_svd():
    cfg = GeneratorConfig(5, 0.5, 3.0, "normal_complex")
    a = random_normal(cfg, derive_stream_seed(55, 1)).entries
    assert np.allclose(singular_values(a), np.linalg.svd(a, compute_uv=False), atol=1e-10)


def test_singular_values_keep_small_values():
    # a square root of the eigenvalues of A*A loses singular values below about
    # sqrt(eps) ||A||: here it gave 8.28e-9 for 1e-10, and a trace norm off by 8.2e-9
    s = np.array([1.0, 1e-5, 1e-10])
    u, w = (random_unitary(3, derive_stream_seed(5, k)).entries for k in (0, 1))
    a = (u * s) @ w.conj().T
    assert np.abs(singular_values(a) - s).max() <= 1e-14
    assert norm(a, "trace") == pytest.approx(s.sum(), abs=1e-14)


def test_singular_values_of_a_mixed_stack():
    # Hermitian rows are |eigvalsh|, the others one stacked SVD, bit for bit as
    # each matrix alone; a row with an error is solved as I
    h = _pd(3, 61).entries - 2.0 * np.eye(3)
    g = RandomStream(derive_stream_seed(62, 0)).complex_gaussian(3)
    bad = np.full((3, 3), np.nan)
    stack = np.stack([g, h, bad, 2.0 * g, h.conj()])
    sv = _singular_values(stack, [None, None, ValueError("refused"), None, None])
    assert sv[0].tolist() == np.linalg.svd(g, compute_uv=False).tolist()
    assert sv[1].tolist() == np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1].tolist()
    assert sv[2].tolist() == [1.0, 1.0, 1.0]
    assert sv[3].tolist() == np.linalg.svd(2.0 * g, compute_uv=False).tolist()
    assert sv[4].tolist() == singular_values(h.conj()).tolist()


def test_det_root_examples():
    assert det_root(np.eye(2)) == pytest.approx(1.0)
    assert det_root(np.diag([1.0, 4.0])) == pytest.approx(2.0)
    assert det_root(np.diag([2.0, 0.0])) == 0.0
    with pytest.raises(NotPositiveSemidefiniteError):
        det_root(np.diag([1.0, -1.0]))


def test_det_root_diagonal_multiplicativity():
    assert det_root(np.diag([1.0, 4.0])) == 2.0
    assert det_root(np.diag([2.0, 8.0])) == pytest.approx(4.0, abs=1e-14)


def test_spectral_bounds_examples():
    assert spectral_bounds(np.diag([1.0, 4.0]), np.diag([2.0, 3.0])) == (1.0, 4.0)
    assert spectral_bounds(3.0 * np.eye(2), 3.0 * np.eye(2)) == (3.0, 3.0)
    a = matrix_abs(np.diag([2.0, -1.0])).entries
    b = matrix_abs(np.diag([-2.0, 1.0])).entries
    assert spectral_bounds(a, b) == (1.0, 2.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_loewner_reflexive_property(seed):
    dim = 2 + seed % 5
    a = _pd(dim, seed).entries
    res = loewner_leq(a, a)
    assert res.passed
    assert abs(res.margin) <= 1e-12 * res.scale


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_singular_values_nonnegative_sorted(seed):
    stream = RandomStream(derive_stream_seed(seed, 3))
    arr = stream.complex_gaussian(4)
    sv = singular_values(arr)
    assert np.all(sv >= 0.0)
    assert np.all(np.diff(sv) <= 1e-12)


def _norm_oracle(sv, kind):
    """A norm of one singular-value vector by its definition, each kind on its own."""
    if kind.variant == "operator":
        return float(sv[0])
    if kind.variant == "trace":
        return float(sv.sum())
    if kind.variant == "frobenius":
        return float(np.sqrt((sv * sv).sum()))
    if kind.variant == "schatten":
        return float((sv**kind.param).sum() ** (1.0 / kind.param))  # scalar root: libm pow
    return float(sv[: int(kind.param)].sum())


def _kinds(dim):
    return norm_catalog(dim) + [NormKind.schatten(1.5), NormKind.schatten(7.0)]


@pytest.mark.parametrize("dim", range(1, 34))
def test_norm_table_rows_equal_each_norm_on_its_own(dim):
    # dims past 8 cross numpy's pairwise-sum block, where a cumulative sum
    # for Ky Fan k adds in another order than the slice sum of one vector
    rng = np.random.default_rng(1000 + dim)
    sv = -np.sort(-rng.uniform(0.0, 10.0, (40, dim)), axis=-1)
    kinds = _kinds(dim)
    table = _norm_table(sv, kinds)
    assert table.shape == (40, len(kinds))
    for row, values in zip(sv, table.tolist()):
        for kind, value in zip(kinds, values):
            assert value == _norm_oracle(row, kind), kind
            assert _norm_table(row[None], [kind])[0, 0] == value, kind
    # a row handed over as a reversed view has the bits of its contiguous copy
    rev = np.sort(sv[0])[::-1]
    assert _norm_table(rev[None], kinds)[0].tolist() == table[0].tolist()


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 7.0])
def test_norm_table_rows_do_not_depend_on_layout(p):
    # numpy's array power takes a SIMD kernel on contiguous rows and libm's pow
    # on a lone strided one; on AVX512 the two differ in the last bit on a few
    # of these rows' values, at every p here, when the row is a reversed view
    kinds = [NormKind.schatten(p)]
    rng = np.random.default_rng(5)
    sv = -np.sort(-rng.uniform(0.0, 10.0, (40, 4)), axis=-1)
    want = _norm_table(sv.copy(), kinds)[:, 0].tolist()
    block = np.zeros((40, 8))
    block[:, ::2] = sv
    assert _norm_table(block[:, ::2], kinds)[:, 0].tolist() == want
    # the layout core.singular_values once gave a non-Hermitian matrix
    views = [_norm_table(np.sort(row)[::-1][None], kinds)[0, 0] for row in sv]
    assert views == want


def test_norm_table_takes_the_schatten_root_value_by_value():
    # on AVX512, numpy's array power gives 4.707825907044956 for the cube root
    # of this power sum, and libm's pow 4.707825907044957: a root taken over
    # the table's column at once fails here
    sv = np.array([[4.707825907044957], [1.0]])
    kind = NormKind.schatten(3.0)
    table = _norm_table(sv, [kind])
    assert table[:, 0].tolist() == [_norm_oracle(row, kind) for row in sv]
    assert norm(np.diag(sv[0]), kind) == table[0, 0]


def test_norm_table_refuses_ky_fan_above_the_dimension():
    with pytest.raises(ValueError, match="ky fan k=3 outside 1..2"):
        _norm_table(np.array([[2.0, 1.0]]), [NormKind.operator(), NormKind.ky_fan(3)])


def _hermitian_stack(count, dim, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return x + x.conj().swapaxes(-1, -2)


def test_dead_rows_are_solved_as_identity_and_live_rows_keep_their_bits():
    stack, dead = _hermitian_stack(12, 5), [2, 7]
    errors = [ValueError("dead") if k in dead else None for k in range(12)]
    stack[2] = np.nan  # a row with an error may hold anything
    # the stack with its dead rows replaced by I in a copy, as one solve
    mask = np.isin(np.arange(12), dead)[:, None, None]
    want = np.linalg.eigvalsh(np.where(mask, np.eye(5), stack))
    got = core._eigvalsh(stack, errors)
    live = [k for k in range(12) if k not in dead]
    assert got[live].tobytes() == want[live].tobytes()
    assert np.array_equal(got[dead], np.ones((2, 5)))


def test_a_dead_row_does_not_copy_the_stack():
    stack = _hermitian_stack(64, 16)
    errors = [None] * 64
    errors[5] = ValueError("dead")
    core._eigvalsh(stack.copy(), errors)  # warm-up: numpy's lazily made objects
    tracemalloc.start()
    try:
        core._eigvalsh(stack, errors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes / 2


def test_eigenvalues_desc_sorts_decreasing_and_symmetrizes():
    assert eigenvalues_desc(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx([3.0, 1.0])
    a = _pd(4, 5).entries
    got = eigenvalues_desc(a)
    assert got.tolist() == np.linalg.eigvalsh(a)[::-1].tolist()
    assert got.flags.owndata and np.all(np.diff(got) <= 0.0)
    # only the Hermitian part [[1, i], [-i, 1]] is read
    assert eigenvalues_desc(np.array([[1.0, 2.0j], [0.0, 1.0]])) == pytest.approx([2.0, 0.0])


def test_fn_values_keeps_each_breakdown_as_its_rows_error():
    seen = []

    def fn(x):
        seen.append(x.copy())
        if np.any(x > 10.0):
            raise ValueError("too large")
        return np.where(x > 5.0, math.inf, np.sqrt(x))

    f = function_by_name("sqrt")
    probe = type(f)("probe", fn=fn, deriv=fn, domain=f.domain)
    w = np.array([[4.0, 1.0], [-3.0, 1.0], [math.nan, 1.0], [9.0, 1.0]])
    errors = np.full((2, 4), None, dtype=object)
    errors[:, 2] = earlier = ValueError("earlier")
    values = core._fn_values((f, probe), w, errors)
    assert values.shape == (2, 4, 2)
    assert values[0, 0].tolist() == [2.0, 1.0] and values[1, 0].tolist() == [2.0, 1.0]
    # the row below the domain and the row that had an error are taken at 1, inside it
    assert seen[0].tolist() == [[4.0, 1.0], [1.0, 1.0], [1.0, 1.0], [9.0, 1.0]]
    for row in errors:
        assert isinstance(row[1], DomainViolationError) and row[2] is earlier
    assert errors[0, 0] is None and errors[0, 3] is None
    assert errors[1, 0] is None and str(errors[1, 3]) == "matrix entries must be finite"
    with pytest.raises(ValueError, match="too large"):
        core._fn_values((probe,), np.array([11.0, 1.0]))
    errors = np.full((1, 2), None, dtype=object)
    core._fn_values((probe,), np.array([[11.0, 1.0], [1.0, 1.0]]), errors)
    assert [str(e) for e in errors[0]] == ["too large"] * 2
