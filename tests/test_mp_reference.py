"""check_main_chain against a 50-digit reference on non-commuting operands.

The diagonal oracle only sees commuting operands, and commuting operands
cannot catch a wrong eigenbasis reused for f(A) sigma f(B).  Here S = A sigma B,
f(A) sigma f(B), f(S) and all eight Loewner margins are recomputed with
``mpmath.eighe`` at 50 digits, independently of the package, and the float
margins must agree within ``MARGIN_ULPS * eps * scale * cond(A)``, with scale
the link's 1 + ||R||_op.
"""

import numpy as np
import pytest

from opmeans import function_by_name, mean_by_name
from opmeans.checks import check_main_chain
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


def _spectrum(x):
    w, _ = mpmath.eighe((x + x.H) / 2)
    return sorted(w[i].real for i in range(x.rows))


def _fn(x, g):
    w, q = mpmath.eighe((x + x.H) / 2)
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


def _pd_pair(dim, seed):
    cfg = GeneratorConfig(dim, 0.5, 4.0)
    return (
        random_pd(cfg, derive_stream_seed(seed, 0)).entries,
        random_pd(cfg, derive_stream_seed(seed, 1)).entries,
    )


@pytest.mark.parametrize("mean_name", sorted(_MEANS))
@pytest.mark.parametrize("fn", sorted(_FNS))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_main_chain_matches_50_digit_reference(fn, mean_name, dim):
    a, b = _pd_pair(dim, 100 + dim)
    assert np.abs(a @ b - b @ a).max() > 1e-3  # the operands do not commute
    out = check_main_chain(function_by_name(fn), mean_by_name(mean_name), a, b)
    with mpmath.workdps(50):
        ref, cond_a = _reference_margins(fn, mean_name, a, b)
    applicable = {link.description: link for link in out.links if link.applicable}
    assert applicable.keys() == ref.keys()
    eps = np.finfo(float).eps
    for desc, link in applicable.items():
        margin, scale = ref[desc]
        bound = MARGIN_ULPS * eps * float(scale * cond_a)
        assert abs(link.margin - float(margin)) <= bound, (desc, link.margin, float(margin))
        assert link.passed
