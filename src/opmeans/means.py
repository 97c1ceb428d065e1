"""Kubo-Ando matrix means and the generalized perspective.

A mean is identified by its representing function h (positive, monotone
nondecreasing on (0, inf), h(1) = 1) through the congruence formula

    A sigma B = A^(1/2) h(A^(-1/2) B A^(-1/2)) A^(1/2).

The catalog covers the weighted arithmetic, harmonic and geometric means.
A :class:`Perspective` applies the same congruence to an arbitrary
continuous function, without positivity or normalization requirements;
with phi = log it yields the relative operator entropy.
``normalize_for_contraction`` rescales a pair so that its mean tops out at I.
A mean is positively homogeneous, (A/c) sigma (B/c) = (A sigma B)/c, and
A/c keeps A's eigenvectors, so a scaled pair is its spectra divided by c.

Every congruence is taken in A's eigenbasis, where A^(+-1/2) is a diagonal
scaling; ``mean`` and ``perspective`` rotate B in and the result back out.
Only h depends on the mean, so a mean is computed in two steps: a
mean-independent one (gates, regularization, A^(+-1/2) and the
eigendecomposition of the middle A^(-1/2) B A^(-1/2)) and a mean-dependent
one (h on the middle's spectrum, reassembled).  Callers that evaluate many
means of one pair take the first step once.  Both steps work on stacks: the
middles of several pairs (say f(A), f(B) for several f) are factored by one
stacked eigh, and each h is evaluated once on all their spectra.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    HermitianMatrix,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    ShapeError,
    _compose,
    _eigh,
    _eigvalsh,
    _finite,
    _flag,
    _fn_values,
    as_hermitian_array,
    hermitian_part,
)
from .functions import Convexity, Interval, ScalarFunction, _fmt, function_by_name, parse_parameter

__all__ = [
    "MatrixMean",
    "Perspective",
    "mean",
    "perspective",
    "relative_operator_entropy",
    "normalize_for_contraction",
    "mean_catalog",
    "CATALOG_NAMES",
    "mean_by_name",
    "register_mean",
    "arithmetic",
    "harmonic",
    "geometric",
]

_H_GRID = np.geomspace(1e-3, 1e3, 512)


def _validate_representing(h: ScalarFunction) -> None:
    # sanity gate on a sampled grid, not a proof of matrix monotonicity
    if abs(float(h(1.0)) - 1.0) > 1e-12:
        raise ValueError(f"representing function {h.name} violates h(1) = 1")
    vals = np.asarray(h(_H_GRID), dtype=float)
    if not np.all(vals > 0.0):
        raise ValueError(f"representing function {h.name} not positive on the check grid")
    if np.any(np.diff(vals) < -1e-12 * (1.0 + np.abs(vals[:-1]))):
        raise ValueError(f"representing function {h.name} not nondecreasing on the check grid")


# The representing functions that passed the gate, by id; a function object
# is gated once, however many means are built on it.
_GATED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class MatrixMean:
    """A matrix mean identified by its representing function.

    ``weight`` records the parameter t for the weighted catalog families.
    Construction runs a grid sanity gate: h(1) = 1 to 1e-12, positivity and
    monotonicity of h on 512 log-spaced points of (1e-3, 1e3).  It runs
    once per function object: a ScalarFunction is immutable, so a second
    mean on the same h would repeat the same verdict.
    """

    name: str
    h: ScalarFunction
    weight: float | None = None

    def __post_init__(self):
        if _GATED.get(id(self.h)) is not self.h:
            _validate_representing(self.h)
            _GATED[id(self.h)] = self.h


@dataclass(frozen=True)
class Perspective:
    """Congruence transform for an arbitrary continuous scalar function."""

    phi: ScalarFunction


def arithmetic(t: float) -> MatrixMean:
    """Weighted arithmetic mean (1-t)A + tB, h(x) = (1-t) + t x."""
    _check_weight(t)
    h = ScalarFunction(
        f"arith_h[{_fmt(t)}]",
        fn=lambda x, _t=t: (1.0 - _t) + _t * x,
        deriv=lambda x, _t=t: _t * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else t,
        domain=Interval(0.0, math.inf),
        convexity=Convexity.CONVEX,
    )
    return MatrixMean(f"arithmetic:{_fmt(t)}", h, t)


def harmonic(t: float) -> MatrixMean:
    """Weighted harmonic mean ((1-t)A^-1 + tB^-1)^-1, h(x) = x/((1-t)x + t)."""
    _check_weight(t, endpoint_ok=False)
    h = ScalarFunction(
        f"harm_h[{_fmt(t)}]",
        fn=lambda x, _t=t: x / ((1.0 - _t) * x + _t),
        deriv=lambda x, _t=t: _t / ((1.0 - _t) * x + _t) ** 2,
        domain=Interval(0.0, math.inf),
        convexity=Convexity.CONCAVE,
    )
    return MatrixMean(f"harmonic:{_fmt(t)}", h, t)


def geometric(t: float) -> MatrixMean:
    """Weighted geometric mean A #_t B, h(x) = x**t."""
    _check_weight(t, endpoint_ok=False)
    h = ScalarFunction(
        f"geom_h[{_fmt(t)}]",
        fn=lambda x, _t=t: np.power(x, _t) if np.ndim(x) else float(x) ** _t,
        deriv=lambda x, _t=t: (
            _t * np.power(x, _t - 1.0) if np.ndim(x) else _t * float(x) ** (_t - 1.0)
        ),
        domain=Interval(0.0, math.inf),
        convexity=Convexity.CONCAVE,
    )
    return MatrixMean(f"geometric:{_fmt(t)}", h, t)


def _check_weight(t: float, endpoint_ok: bool = True) -> None:
    lo, hi = (0.0, 1.0)
    ok = lo <= t <= hi if endpoint_ok else lo < t < hi
    if not ok:
        raise ValueError(f"weight t={t} outside the unit interval")


_REGISTRY: dict[str, MatrixMean] = {}


def register_mean(mean_obj: MatrixMean) -> MatrixMean:
    """Register a custom mean so it resolves by name."""
    _REGISTRY[mean_obj.name] = mean_obj
    return mean_obj


_FAMILIES = {"arithmetic": arithmetic, "harmonic": harmonic, "geometric": geometric}
#: The catalog: each family of means at t in {1/4, 1/2, 3/4}, by name.
CATALOG_NAMES = tuple(f"{family}:{t}" for t in ("1/4", "1/2", "3/4") for family in _FAMILIES)


def mean_catalog() -> list[MatrixMean]:
    """The means of :data:`CATALOG_NAMES`."""
    return [mean_by_name(name) for name in CATALOG_NAMES]


def mean_by_name(name: str) -> MatrixMean:
    """Resolve ``arithmetic:t`` / ``harmonic:t`` / ``geometric:t`` or a registered name."""
    key = name.strip()
    if key in _REGISTRY:
        return _REGISTRY[key]
    head, _, param = key.partition(":")
    factory = _FAMILIES.get(head.lower())
    if factory is None or not param:
        raise ValueError(f"unknown mean name {name!r} (register custom means first)")
    return factory(parse_parameter(param))


def _congruence(wa: np.ndarray, b: np.ndarray, metas=None, errors=None):
    """The middles of a stack of pairs: A^(1/2), A^(-1/2) B A^(-1/2) factored, and ``metas``.

    Takes a stack of A's eigenvalues wa and of B written in A's eigenbasis, where A^(+-1/2)
    are diagonal scalings.  Returns ``(roots, wm, vm, metas)``: A^(1/2) as its diagonal, then
    the congruence matrices' eigenpairs by one stacked eigh, a row with an error (see
    ``core._flag``) or whose matrix is not finite factored as I.
    """
    root = np.sqrt(wa)
    inv = 1.0 / root
    matrices = hermitian_part(inv[..., :, None] * b * inv[..., None, :])
    return (root, *_eigh(_finite(matrices, errors), errors), metas)


def _assemble(middles, values, errors=None) -> np.ndarray:
    """A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2) for each of ``middles`` and each f in ``values``.

    ``values`` holds f on each middle's spectrum, one row per (middle, f);
    the result is one matrix per row.  A matrix with an entry that is not
    finite raises, per row with ``errors`` (see ``core._flag``).
    """
    roots, _, vm = middles[:3]
    root = roots[:, None]
    out = hermitian_part(root[..., None] * _compose(vm[:, None], values) * root[..., None, :])
    _finite(out.reshape(-1, *out.shape[-2:]), errors)
    return out


def _mean_gates(wa, b, wb, tol, errors=None):
    """The gates of A sigma B and its :func:`_congruence`, in A's eigenbasis, per row of a stack.

    Takes A's eigenvalues wa, the matrix B written in A's eigenbasis and
    B's eigenvalues wb, neither spectrum sorted, one row each per pair.
    Gates B as positive semidefinite (per row with ``errors``, see
    ``core._flag``) and regularizes a pair whose A is not safely definite;
    the regularization is the row's meta (``None`` when A is safely
    definite), an object array of one per row.
    """
    norm_b = np.abs(wb).max(axis=-1)
    low_b = wb.min(axis=-1)
    for k in np.flatnonzero(low_b < -tol * (1.0 + norm_b)):
        _flag(errors, k, NotPositiveSemidefiniteError(
            f"second operand has eigenvalue {low_b[k]:.6e} below -tol*scale"
        ))
    norm_a = np.abs(wa).max(axis=-1)
    regularized = wa.min(axis=-1) <= tol * (1.0 + norm_a)
    metas = np.full(len(wa), None, dtype=object)
    if regularized.any():
        eps = 1e-8 * (1.0 + norm_a + norm_b)
        wa = np.where(regularized[:, None], wa + eps[:, None], wa)
        b = np.where(regularized[:, None, None], b + eps[:, None, None] * np.eye(b.shape[-1]), b)
        for k in np.flatnonzero(regularized):
            metas[k] = {"regularization_eps": float(eps[k])}
    return _congruence(wa, b, metas, errors)


def _mean_from_middle(hs, middles, tol, errors=None) -> np.ndarray:
    """The mean-dependent half of A sigma B for each middle and representing function, as one stack.

    ``middles`` comes from :func:`_congruence`; the result has one matrix
    per (middle, h), middle outermost.  Each h is evaluated once, on every
    middle's clipped spectrum (``core._fn_values``).  A middle whose
    spectrum fails the gate, within its own scale, and a row whose h
    breaks down are errors of their rows; with ``errors`` (an object
    array, one entry per row) they are recorded there (see ``core._flag``).
    """
    wm = middles[1]
    n_h = len(hs)
    scale = 1.0 + np.abs(wm).max(axis=-1)
    clipped = np.where(wm < 0.0, np.where(wm >= -tol * scale[:, None], 0.0, wm), wm)
    low = clipped.min(axis=-1)
    for i in np.flatnonzero(low < 0.0):
        exc = NotPositiveSemidefiniteError(
            f"congruence spectrum has eigenvalue {low[i]:.6e} below -tol*scale"
        )
        for k in range(i * n_h, (i + 1) * n_h):
            _flag(errors, k, exc)
    rows = None if errors is None else errors.reshape(-1, n_h).T  # (h, middle), a view
    # (middle, h) in C order: a strided X would slow every later sum over it
    values = np.ascontiguousarray(_fn_values(hs, clipped, rows).swapaxes(0, 1))
    return _assemble(middles, values, errors)


def _require_definite(wa: np.ndarray, tol: float, errors=None) -> None:
    """The perspective's gate: each A, a row of eigenvalues wa, safely definite (``core._flag``)."""
    low = wa.min(axis=-1)
    for k in np.flatnonzero(low <= tol * (1.0 + np.abs(wa).max(axis=-1))):
        _flag(errors, k, NotPositiveDefiniteError(
            f"first operand has smallest eigenvalue {low[k]:.6e}; positive definite input required"
        ))


def _perspective_from_middle(phi, middles, errors=None) -> np.ndarray:
    """A^(1/2) phi(A^(-1/2) B A^(-1/2)) A^(1/2), a definite A's, per row of a stack of middles."""
    values = _fn_values((phi,), middles[1], None if errors is None else [errors])
    return _assemble(middles, values.swapaxes(0, 1), errors)[:, 0]


def _operands(A, B, name: str):
    """A and B as Hermitian arrays of one shape; else a ShapeError naming the ``name`` operands."""
    a, b = as_hermitian_array(A), as_hermitian_array(B)
    if a.shape != b.shape:
        raise ShapeError(f"{name} operands must have the same dimension")
    return a, b


def mean(sigma: MatrixMean, A, B, tol: float = DEFAULT_TOL) -> HermitianMatrix:
    """Evaluate A sigma B through the representing-function congruence.

    Parameters
    ----------
    sigma : MatrixMean
    A, B : array_like or HermitianMatrix
        A must be positive definite and B positive semidefinite.  When A is
        not safely definite, the continuity regularization
        (A + eps I) sigma (B + eps I) with eps = 1e-8 (1 + ||A|| + ||B||)
        is applied; the epsilon is recorded in the result's ``meta``.

    Raises
    ------
    NotPositiveSemidefiniteError
        If B has an eigenvalue significantly below zero.
    """
    a, b = _operands(A, B, "mean")
    wa, va = _eigh(a[None])
    vh = va.conj().swapaxes(-1, -2)
    middles = _mean_gates(wa, vh @ b[None] @ va, _eigvalsh(b[None]), tol)
    S = _mean_from_middle([sigma.h], middles, tol)[0, 0]
    return HermitianMatrix(va[0] @ S @ vh[0], meta=middles[3][0])


def perspective(p: Perspective, A, B, tol: float = DEFAULT_TOL) -> HermitianMatrix:
    """A^(1/2) phi(A^(-1/2) B A^(-1/2)) A^(1/2) for positive definite A.

    The spectrum of the congruence term must lie inside the domain of phi;
    otherwise a domain violation is raised.
    """
    a, b = _operands(A, B, "perspective")
    wa, va = _eigh(a)
    _require_definite(wa[None], tol)
    middle = _congruence(wa[None], (va.conj().T @ b @ va)[None])
    P = _perspective_from_middle(p.phi, middle)[0]
    return HermitianMatrix(va @ P @ va.conj().T)


def relative_operator_entropy(A, B, tol: float = DEFAULT_TOL) -> HermitianMatrix:
    """S(A|B) = A^(1/2) log(A^(-1/2) B A^(-1/2)) A^(1/2)."""
    return perspective(Perspective(function_by_name("log")), A, B, tol)


def normalize_for_contraction(sigma_h: MatrixMean, A, B):
    """Scale (A, B) by c = lambda_max(A sigma B) so the mean tops out at I.

    Means are positively homogeneous, so (A/c) sigma (B/c) has largest
    eigenvalue 1; the contraction hypothesis A sigma B <= I then holds with
    equality at the top.
    """
    a, b = _operands(A, B, "mean")
    c = float(_eigvalsh(mean(sigma_h, a, b).entries)[-1])
    if c <= 0.0:
        raise ValueError("mean has nonpositive largest eigenvalue")
    return HermitianMatrix(a / c), HermitianMatrix(b / c)
