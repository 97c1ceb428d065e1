"""Kubo-Ando matrix means and the generalized perspective.

A mean is identified by its representing function h (positive, monotone
nondecreasing on (0, inf), h(1) = 1) through the congruence formula

    A sigma B = A^(1/2) h(A^(-1/2) B A^(-1/2)) A^(1/2).

The catalog covers the weighted arithmetic, harmonic and geometric means.
A :class:`Perspective` applies the same congruence to an arbitrary
continuous function, without positivity or normalization requirements;
with phi = log it yields the relative operator entropy.
``normalize_for_contraction`` rescales a pair so that its mean tops out at I.

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


def mean_catalog() -> list[MatrixMean]:
    """Arithmetic, harmonic and geometric means at t in {1/4, 1/2, 3/4}."""
    out = []
    for t in (0.25, 0.5, 0.75):
        out.extend((arithmetic(t), harmonic(t), geometric(t)))
    return out


def mean_by_name(name: str) -> MatrixMean:
    """Resolve ``arithmetic:t`` / ``harmonic:t`` / ``geometric:t`` or a registered name."""
    key = name.strip()
    if key in _REGISTRY:
        return _REGISTRY[key]
    head, _, param = key.partition(":")
    factory = {"arithmetic": arithmetic, "harmonic": harmonic, "geometric": geometric}.get(
        head.lower()
    )
    if factory is None or not param:
        raise ValueError(f"unknown mean name {name!r} (register custom means first)")
    return factory(parse_parameter(param))


def _congruence(wa: np.ndarray, b: np.ndarray, meta=None):
    """A^(1/2), the congruence matrix A^(-1/2) B A^(-1/2) and ``meta``, in A's eigenbasis.

    Takes A's eigenvalues wa and B written in A's eigenbasis, where
    A^(+-1/2) are diagonal scalings: A^(1/2) is returned as its diagonal.
    :func:`_middles` factors the congruence matrices of a stack of these.
    """
    root = np.sqrt(wa)
    inv = 1.0 / root
    return root, hermitian_part(inv[:, None] * b * inv), meta


def _middles(parts, errors=None):
    """A stack of middles from ``parts``, one :func:`_congruence` per row, by one stacked eigh.

    Returns ``(roots, wm, vm, metas)``: the rows' A^(1/2) diagonals, the
    eigenpairs of their congruence matrices and their metas.  A row with an
    error (see ``core._flag``), or whose matrix is not finite, is factored as I.
    """
    roots, matrices, metas = zip(*parts)
    return (np.stack(roots), *_eigh(_finite(np.stack(matrices), errors), errors), metas)


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


def _mean_gates(wa, b, wb, tol):
    """The gates of A sigma B and its :func:`_congruence`, in A's eigenbasis.

    Takes A's eigenvalues wa, the matrix B written in A's eigenbasis and
    B's eigenvalues wb, neither spectrum sorted.  Gates B as positive
    semidefinite and regularizes a pair whose A is not safely definite; the
    regularization is the congruence's meta (``None`` when A is safely
    definite).
    """
    norm_b = float(np.abs(wb).max())
    low_b = wb.min()
    if low_b < -tol * (1.0 + norm_b):
        raise NotPositiveSemidefiniteError(
            f"second operand has eigenvalue {low_b:.6e} below -tol*scale"
        )
    norm_a = float(np.abs(wa).max())
    meta = None
    if wa.min() <= tol * (1.0 + norm_a):
        eps = 1e-8 * (1.0 + norm_a + norm_b)
        wa = wa + eps
        b = b + eps * np.eye(b.shape[0])
        meta = {"regularization_eps": eps}
    return _congruence(wa, b, meta)


def _mean_from_middle(hs, middles, tol, errors=None) -> np.ndarray:
    """The mean-dependent half of A sigma B for each middle and representing function, as one stack.

    ``middles`` comes from :func:`_middles`; the result has one matrix per
    (middle, h), middle outermost.  Each h is evaluated once, on every
    middle's spectrum.  A middle whose spectrum fails the gate, a row whose
    clipped spectrum leaves h's domain and a result that is not finite are
    errors of their rows, each within its own middle's scale; with
    ``errors`` (an object array, one entry per row) they are recorded there
    (see ``core._flag``), and a row with an error takes no value of h.
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
    values = np.zeros((wm.shape[0], n_h, wm.shape[1]))
    for j, h in enumerate(hs):
        rows = None if errors is None else errors[j::n_h]  # a view: flags land in ``errors``
        try:
            x = h.domain.clamp(clipped, 1e-10 * scale, rows)
            if rows is not None:
                x[[e is not None for e in rows]] = 1.0  # a row with an error: h(1) = 1, unused
            values[:, j] = h(x)
        except ValueError as exc:
            for k in range(j, len(wm) * n_h, n_h):
                _flag(errors, k, exc)
    return _assemble(middles, values, errors)


def _require_definite(wa: np.ndarray, tol: float) -> None:
    """The perspective's gate: A, with eigenvalues wa, must be safely positive definite."""
    scale_a = 1.0 + float(np.abs(wa).max())
    if wa.min() <= tol * scale_a:
        raise NotPositiveDefiniteError(
            f"first operand has smallest eigenvalue {wa.min():.6e}; "
            "positive definite input required"
        )


def _perspective_from_middle(phi, middle) -> np.ndarray:
    """A^(1/2) phi(A^(-1/2) B A^(-1/2)) A^(1/2) from the middle (a 1-row stack) of a definite A."""
    wm = middle[1]
    scale = 1.0 + np.abs(wm).max(axis=-1)
    values = np.asarray(phi(phi.domain.clamp(wm, 1e-10 * scale)), dtype=float)
    return _assemble(middle, values[:, None])[0, 0]


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
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    if a.shape != b.shape:
        raise ShapeError("mean operands must have the same dimension")
    wb = _eigvalsh(b)
    wa, va = _eigh(a)
    # the mean is taken in A's eigenbasis and rotated back out
    middle = _middles([_mean_gates(wa, va.conj().T @ b @ va, wb, tol)])
    S = _mean_from_middle([sigma.h], middle, tol)[0, 0]
    return HermitianMatrix(va @ S @ va.conj().T, meta=middle[3][0])


def perspective(p: Perspective, A, B, tol: float = DEFAULT_TOL) -> HermitianMatrix:
    """A^(1/2) phi(A^(-1/2) B A^(-1/2)) A^(1/2) for positive definite A.

    The spectrum of the congruence term must lie inside the domain of phi;
    otherwise a domain violation is raised.
    """
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    if a.shape != b.shape:
        raise ShapeError("perspective operands must have the same dimension")
    wa, va = _eigh(a)
    _require_definite(wa, tol)
    P = _perspective_from_middle(p.phi, _middles([_congruence(wa, va.conj().T @ b @ va)]))
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
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    g = mean(sigma_h, a, b)
    c = float(_eigvalsh(g.entries)[-1])
    if c <= 0.0:
        raise ValueError("mean has nonpositive largest eigenvalue")
    return HermitianMatrix(a / c), HermitianMatrix(b / c)
