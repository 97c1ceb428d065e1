"""Main-chain, chord, contraction, power-mean and normal-chain margins against a 50-digit reference.

The diagonal oracle only sees commuting operands, and commuting operands
cannot catch a wrong eigenbasis reused for f(A) sigma f(B).  Here S = A sigma B,
f(A) sigma f(B), f(S) and all eight Loewner margins are recomputed with
``mpmath.eighe`` at 50 digits, independently of the package, and the float
margins must agree within ``MARGIN_ULPS * eps * scale * cond(A)``, with scale
the link's 1 + ||R||_op.  The secant-line means of the chord links are
checked the same way, with M/m of the pair's spectral interval.  The
contraction iterates A_k = f^k(A) are checked the same way, with cond(A_k)
of the operand whose inverse square root the mean's congruence takes; the
suite's grid, which scales each raw pair by its own c = lambda_max(A sigma_h B),
against the pair scaled by c at 50 digits.  The power-mean links are checked
the same way, with cond(A^r).  The normal-chain links are
checked on normal, non-Hermitian pairs U diag(z) U*, U an mpmath unitary,
whose |A| = U diag|z| U* is known exactly, with cond = M/m of the pair's
singular values.
"""

import numpy as np
import pytest

from opmeans import (
    FunctionPair,
    MatrixMean,
    function_by_name,
    mean_by_name,
    norm_catalog,
    normalize_for_contraction,
)
from opmeans.checks import (
    check_chord_bounds,
    check_contraction_grid,
    check_contraction_implication,
    check_main_chain,
    check_normal_chain,
    check_power_mean_bounds,
)
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_pd

mpmath = pytest.importorskip("mpmath")

#: Scalar functions and derivatives in mpmath arithmetic; f'(0) = inf for sqrt.
_FNS = {
    "power:2": (lambda x: x * x, lambda x: 2 * x, True),
    "sqrt": (mpmath.sqrt, lambda x: mpmath.inf if x == 0 else 1 / (2 * mpmath.sqrt(x)), False),
    "expm1": (mpmath.expm1, mpmath.exp, True),
}

#: Representing functions h of the means under test.
_MEANS = {
    "arithmetic:1/2": lambda x: (1 + x) / 2,
    "harmonic:1/4": lambda x: x / (mpmath.mpf(3) / 4 * x + mpmath.mpf(1) / 4),
    "geometric:3/4": lambda x: x ** (mpmath.mpf(3) / 4),
}

#: The float margins must lie within this many eps * scale * cond(A) of the reference.
MARGIN_ULPS = 64


def _mp_matrix(arr):
    return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in arr])


#: mpmath.eighe of each Hermitian matrix met, per working precision: the (f, sigma)
#: cases of one instance share the eigensystems of its operands and of their middles
_EIGENSYSTEMS = {}


def _eighe(x):
    """mpmath.eighe of the Hermitian part of x, computed once per matrix and precision."""
    y = (x + x.H) / 2
    key = (mpmath.mp.prec, tuple(map(tuple, y.tolist())))
    if key not in _EIGENSYSTEMS:
        _EIGENSYSTEMS[key] = mpmath.eighe(y)
    return _EIGENSYSTEMS[key]


def _spectrum(x):
    w, _ = _eighe(x)
    return sorted(w[i].real for i in range(x.rows))


def _fn(x, g):
    w, q = _eighe(x)
    y = q * mpmath.diag([g(w[i].real) for i in range(x.rows)]) * q.H
    return (y + y.H) / 2


def _mean(h, a, b):
    root = _fn(a, mpmath.sqrt)
    inv_root = _fn(a, lambda x: 1 / mpmath.sqrt(x))
    y = root * _fn(inv_root * b * inv_root, h) * root
    return (y + y.H) / 2


def _reference_margins(fn, mean_name, a_arr, b_arr):
    """Description -> (margin, scale) of every applicable main-chain link."""
    f, df, convex = _FNS[fn]
    h = _MEANS[mean_name]
    a, b = _mp_matrix(a_arr), _mp_matrix(b_arr)
    wa, wb = _spectrum(a), _spectrum(b)
    m, M = min(wa[0], wb[0]), max(wa[-1], wb[-1])
    s = _mean(h, a, b)
    sides = {"fn-then-mean": _mean(h, _fn(a, f), _fn(b, f)), "mean-then-fn": _fn(s, f)}
    c0, c1, c2, c3 = df(mpmath.mpf(0)), f(m) / m, f(M) / M, df(M)
    out = {}
    for prefix, x in sides.items():
        for name, needs, lo, hi in (
            ("edge-low", (c0, c1), c0 * s if mpmath.isfinite(c0) else None, c1 * s),
            ("low", (c1,), c1 * s, x),
            ("high", (), x, c2 * s),
            ("edge-high", (c3,), c2 * s, c3 * s),
        ):
            if not all(mpmath.isfinite(c) for c in needs):
                continue
            if not convex:
                lo, hi = hi, lo
            w = _spectrum(hi)
            out[f"{prefix}:{name}"] = (_spectrum(hi - lo)[0], 1 + max(abs(w[0]), abs(w[-1])))
    return out, wa[-1] / wa[0]


def _pd_pair(dim, seed, big_m=4.0):
    cfg = GeneratorConfig(dim, 0.5, big_m)
    return (
        random_pd(cfg, derive_stream_seed(seed, 0)).entries,
        random_pd(cfg, derive_stream_seed(seed, 1)).entries,
    )


def _chord_reference(fn, mean_name, a_arr, b_arr):
    """Description -> (margin, scale) of both chord links, and M/m."""
    f, df, convex = _FNS[fn]
    h = _MEANS[mean_name]
    a, b = _mp_matrix(a_arr), _mp_matrix(b_arr)
    wa, wb = _spectrum(a), _spectrum(b)
    m, M = min(wa[0], wb[0]), max(wa[-1], wb[-1])
    low, mid, high = (
        _mean(h, _fn(a, g), _fn(b, g))
        for g in (lambda x: df(m) * (x - m) + f(m), f, lambda x: df(M) * (x - m) + f(m))
    )
    out = {}
    for desc, lo, hi in (("lower-slope-line", low, mid), ("upper-slope-line", mid, high)):
        if not convex:
            lo, hi = hi, lo
        w = _spectrum(hi)
        out[desc] = (_spectrum(hi - lo)[0], 1 + max(abs(w[0]), abs(w[-1])))
    return out, M / m


def _assert_matches_reference(check, reference, fn, mean_name, dim, big_m):
    a, b = _pd_pair(dim, 100 + dim, big_m)
    assert np.abs(a @ b - b @ a).max() > 1e-3  # the operands do not commute
    out = check(function_by_name(fn), mean_by_name(mean_name), a, b)
    with mpmath.workdps(50):
        ref, cond = reference(fn, mean_name, a, b)
    applicable = {link.description: link for link in out.links if link.applicable}
    assert applicable.keys() == ref.keys()
    eps = np.finfo(float).eps
    for desc, link in applicable.items():
        margin, scale = ref[desc]
        bound = MARGIN_ULPS * eps * float(scale * cond)
        assert abs(link.margin - float(margin)) <= bound, (desc, link.margin, float(margin))
        assert link.passed


@pytest.mark.parametrize("mean_name", sorted(_MEANS))
@pytest.mark.parametrize("fn", sorted(_FNS))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_main_chain_matches_50_digit_reference(fn, mean_name, dim):
    _assert_matches_reference(check_main_chain, _reference_margins, fn, mean_name, dim, 4.0)


@pytest.mark.parametrize("mean_name", sorted(_MEANS))
@pytest.mark.parametrize("fn", ["power:2", "sqrt"])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("big_m", [60.0, 400.0])
def test_main_chain_matches_50_digit_reference_ill_conditioned(big_m, dim, fn, mean_name):
    # A's inverse square root taken through its eigenvectors, in the standard
    # basis, was off by 862 eps * scale * cond(A) at M = 60 (dim 2, power:2,
    # harmonic:1/4) and by 1.5e5 at M = 400; in A's eigenbasis it is a
    # diagonal scaling
    _assert_matches_reference(check_main_chain, _reference_margins, fn, mean_name, dim, big_m)


@pytest.mark.parametrize("mean_name", sorted(_MEANS))
@pytest.mark.parametrize(
    "fn, big_m",
    [(fn, 4.0) for fn in sorted(_FNS)]
    + [(fn, big_m) for fn in ("power:2", "sqrt") for big_m in (60.0, 400.0)],
)
@pytest.mark.parametrize("dim", [2, 3])
def test_chord_matches_50_digit_reference(dim, fn, big_m, mean_name):
    # the secant lines c (x - m) + f(m), c = f'(m) and f'(M), are taken on
    # A's and B's spectra and their means in A's eigenbasis, beside f's
    _assert_matches_reference(check_chord_bounds, _chord_reference, fn, mean_name, dim, big_m)


_POWERS = ("1/4", "1/2", "3/4")


def _contraction_pair(trial):
    """The raw pair of :func:`_contraction_instance`, as the suite draws it."""
    cfg = GeneratorConfig((2, 3, 4)[trial], 0.5, 4.0)
    return tuple(random_pd(cfg, derive_stream_seed(7, 2 * trial + k)) for k in (0, 1))


def _contraction_instance(g, h, trial):
    """Trial ``trial`` of ``opmeans --suite contraction --seed 7 --dim 2 --dim 3 --dim 4``."""
    return normalize_for_contraction(MatrixMean(f"h:{h.name}", h), *_contraction_pair(trial))


def _mp_fraction(text):
    num, den = text.split("/")
    return mpmath.mpf(num) / mpmath.mpf(den)


def _assert_iterates_match(out, a_mp, b_mp, g_power, h_power):
    """The links of ``out`` against the 50-digit iterates of the forward pair (a_mp, b_mp)."""
    assert out.params["direction"] == "forward"
    p, q = _mp_fraction(g_power), _mp_fraction(h_power)
    eps = np.finfo(float).eps
    eye = mpmath.eye(a_mp.rows)
    for k, link in enumerate(out.links):
        # f(x) = x g(x) = x^(1+p), so the k-th iterate is A^((1+p)^k)
        e = (1 + p) ** k
        ak, bk = _fn(a_mp, lambda x: x**e), _fn(b_mp, lambda x: x**e)
        margin = _spectrum(eye - _mean(lambda x: x**q, ak, bk))[0]
        w = _spectrum(ak)
        bound = MARGIN_ULPS * eps * 2.0 * float(w[-1] / w[0])
        assert abs(link.margin - float(margin)) <= bound, (k, link.margin, float(margin))
        assert link.passed


@pytest.mark.parametrize("trial", [0, 1, 2])
@pytest.mark.parametrize("h_power", _POWERS)
@pytest.mark.parametrize("g_power", _POWERS)
def test_contraction_iterates_match_50_digit_reference(g_power, h_power, trial):
    # seed 7, g = power:3/4, h = power:1/4, trial 0: the last margin is
    # 0.749528768187610 to 15 digits; re-factoring each iterate gave 0.7495287714807
    g, h = function_by_name(f"power:{g_power}"), function_by_name(f"power:{h_power}")
    a, b = _contraction_instance(g, h, trial)
    out = check_contraction_implication(FunctionPair(g, h), a, b)
    with mpmath.workdps(50):
        _assert_iterates_match(out, _mp_matrix(a.entries), _mp_matrix(b.entries), g_power, h_power)


@pytest.mark.parametrize("trial", [0, 1, 2])
@pytest.mark.parametrize("h_power", _POWERS)
@pytest.mark.parametrize("g_power", _POWERS)
def test_contraction_grid_matches_50_digit_reference(g_power, h_power, trial):
    # the suite's path: the grid scales the raw pair by c = lambda_max(A sigma_h B) on
    # its own factors; the reference scales it by c at 50 digits
    powers = [function_by_name(f"power:{p}") for p in _POWERS]
    a, b = (x.entries for x in _contraction_pair(trial))
    out = check_contraction_grid(powers, powers, [(a, b)])[0][
        3 * _POWERS.index(g_power) + _POWERS.index(h_power)
    ]
    assert (out.params["g"], out.params["h"]) == (f"power:{g_power}", f"power:{h_power}")
    with mpmath.workdps(50):
        a_mp, b_mp = _mp_matrix(a), _mp_matrix(b)
        c = _spectrum(_mean(lambda x: x ** _mp_fraction(h_power), a_mp, b_mp))[-1]
        _assert_iterates_match(out, a_mp / c, b_mp / c, g_power, h_power)


def _power_mean_reference(a_arr, b_arr, alpha, r):
    """Description -> (margin, scale) of the four power-mean links, and cond(A^r)."""
    a, b = _mp_matrix(a_arr), _mp_matrix(b_arr)
    wa, wb = _spectrum(a), _spectrum(b)
    m, M = min(wa[0], wb[0]), max(wa[-1], wb[-1])
    ar, br = _fn(a, lambda x: x**r), _fn(b, lambda x: x**r)
    if 0 < alpha < 1:
        g, gr = _mean(lambda x: x**alpha, a, b), _mean(lambda x: x**alpha, ar, br)
    else:
        g, gr = (a, ar) if alpha == 0 else (b, br)
    s1, sr = _mean(mpmath.log, a, b), _mean(mpmath.log, ar, br)
    lo, hi = m ** (r - 1), M ** (r - 1)
    out = {}
    for desc, x, y in (
        ("power-mean:low", lo * g, gr),
        ("power-mean:high", gr, hi * g),
        ("entropy:low", lo * s1, sr),
        ("entropy:high", sr, hi * s1),
    ):
        w = _spectrum(y)
        out[desc] = (_spectrum(y - x)[0], 1 + max(abs(w[0]), abs(w[-1])))
    return out, (wa[-1] / wa[0]) ** r


def _power_mean_instance(big_m, seed, trial):
    """Trial ``trial`` of ``opmeans --suite power_mean --M big_m --seed seed``, dims 2, 3, 4."""
    cfg = GeneratorConfig((2, 3, 4)[trial], 0.5, big_m)
    return (
        random_pd(cfg, derive_stream_seed(seed, 2 * trial)).entries,
        random_pd(cfg, derive_stream_seed(seed, 2 * trial + 1)).entries,
    )


# 4/3 has no short decimal form: the checker must take A^r with r exactly as given
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 4.0 / 3.0])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
@pytest.mark.parametrize(
    "big_m, seed, trial",
    # M = 800: cond(A^2) = 2.6e6; taking the congruence through eigh(A^r) was
    # off by 9.5e3 eps * scale * cond(A^r) on the first of these
    [(4.0, 7, 0), (4.0, 7, 1), (4.0, 7, 2), (800.0, 20240001, 0), (800.0, 20240001, 1)],
)
def test_power_mean_matches_50_digit_reference(big_m, seed, trial, alpha, r):
    a, b = _power_mean_instance(big_m, seed, trial)
    assert np.abs(a @ b - b @ a).max() > 1e-3  # the operands do not commute
    try:
        out = check_power_mean_bounds(a, b, alpha, r)
    except ValueError as exc:
        # A^r is not safely definite at tol once M^r dwarfs m^r
        assert big_m == 800.0 and r == 3.0, exc
        return
    with mpmath.workdps(50):
        ref, cond = _power_mean_reference(a, b, mpmath.mpf(alpha), mpmath.mpf(r))
    eps = np.finfo(float).eps
    assert [link.description for link in out.links] == list(ref)
    for link in out.links:
        margin, scale = ref[link.description]
        bound = MARGIN_ULPS * eps * float(scale * cond)
        assert abs(link.margin - float(margin)) <= bound, (link.description, link.margin, margin)


def _normal_instance(dim, seed, big_m):
    """Normal, non-Hermitian A = U diag(z) U*, B likewise, at 50 digits and rounded to floats.

    U is the Q of an mpmath QR of a complex Gaussian matrix, so unitary to
    50 digits; the moduli |z| lie in [1/2, big_m], 1/2 attained by A's and
    big_m by B's, and the phases are uniform.  Returns the float operands
    and, per operand, (U, z) in mpmath.
    """
    rng = np.random.default_rng(seed)
    floats, factors = [], []
    for end in (0.5, big_m):
        moduli = np.concatenate([[end], rng.uniform(0.5, big_m, dim - 1)])
        z = [mpmath.mpc(x.real, x.imag) for x in moduli * np.exp(2j * np.pi * rng.random(dim))]
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = mpmath.qr(_mp_matrix(g))
        x = u * mpmath.diag(z) * u.H
        floats.append(np.array([[complex(x[i, j]) for j in range(dim)] for i in range(dim)]))
        factors.append((u, z))
    return floats, factors


def _mp_norm(sv, kind):
    """A unitarily invariant norm of singular values ``sv``, sorted decreasing."""
    if kind.variant == "operator":
        return sv[0]
    if kind.variant == "schatten":
        p = mpmath.mpf(kind.param)
        return mpmath.fsum(s**p for s in sv) ** (1 / p)
    return mpmath.fsum(sv[: int(kind.param)])


def _normal_chain_reference(fn, factors, kinds):
    """Description -> (margin, scale) of every applicable normal-chain link, and M/m."""
    f, df, convex = _FNS[fn]
    (ua, za), (ub, zb) = factors
    moduli = [abs(x) for x in za + zb]
    m, M = min(moduli), max(moduli)

    def image(g):
        return [u * mpmath.diag([g(abs(x)) for x in z]) * u.H for u, z in factors]

    def sv(w):
        return sorted((abs(x) for x in w), reverse=True)

    a, b = image(lambda x: x)  # |A| and |B|, not A and B: their sum is Hermitian
    ab = ua * mpmath.diag(za) * ua.H + ub * mpmath.diag(zb) * ub.H
    base = sv(mpmath.sqrt(x) for x in _spectrum(ab.H * ab))
    fa, fb = image(f)
    images = sv(_spectrum(fa + fb))
    of_abs_sum = sv(f(x) for x in _spectrum(a + b))
    x = m if convex else M
    edge = df(mpmath.mpf(0)) if convex else df(M)
    c_sep, c_sum = f(x) / x, f(2 * x) / (2 * x)
    out = {}
    for kind in kinds:
        norm_sum = _mp_norm(base, kind)
        for name, lo, hi in (
            ("sep-edge", edge * norm_sum, c_sep * norm_sum),
            ("sep-bound", c_sep * norm_sum, _mp_norm(images, kind)),
            ("sum-edge", edge * norm_sum, c_sum * norm_sum),
            ("sum-bound", c_sum * norm_sum, _mp_norm(of_abs_sum, kind)),
        ):
            if mpmath.isfinite(lo):
                out[f"{name}[{kind.label()}]"] = (hi - lo, 1 + max(abs(lo), abs(hi)))
    return out, M / m


@pytest.mark.parametrize(
    "fn, big_m, dim",
    [(fn, 4.0, dim) for fn in sorted(_FNS) for dim in (2, 3, 4)]
    + [(fn, 400.0, dim) for fn in ("power:2", "sqrt") for dim in (2, 3)],
)
def test_normal_chain_matches_50_digit_reference(fn, big_m, dim):
    with mpmath.workdps(50):
        (a, b), factors = _normal_instance(dim, 300 + dim, big_m)
        assert np.abs(a - a.conj().T).max() > 1e-3  # not Hermitian
        out = check_normal_chain(function_by_name(fn), a, b)
        kinds = [kind for kind in norm_catalog(dim) if kind.variant not in ("trace", "frobenius")]
        ref, cond = _normal_chain_reference(fn, factors, kinds)
    applicable = {link.description: link for link in out.links if link.applicable}
    assert applicable.keys() == ref.keys()
    eps = np.finfo(float).eps
    for desc, link in applicable.items():
        margin, scale = ref[desc]
        bound = MARGIN_ULPS * eps * float(scale * cond)
        assert abs(link.margin - float(margin)) <= bound, (desc, link.margin, float(margin))
        assert link.passed
