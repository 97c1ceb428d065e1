"""Kubo-Ando matrix means and the generalized perspective.

A mean is identified by its representing function h (positive, monotone
nondecreasing on (0, inf), h(1) = 1) through the congruence formula

    A sigma B = A^(1/2) h(A^(-1/2) B A^(-1/2)) A^(1/2).

The catalog covers the weighted arithmetic, harmonic and geometric means.
A :class:`Perspective` applies the same congruence to an arbitrary
continuous function, without positivity or normalization requirements;
with phi = log it yields the relative operator entropy.
``normalize_for_contraction`` rescales a pair so that its mean tops out at I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    HermitianMatrix,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    ShapeError,
    as_hermitian_array,
    hermitian_part,
)
from .functions import Convexity, Interval, ScalarFunction, parse_parameter

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


@dataclass(frozen=True)
class MatrixMean:
    """A matrix mean identified by its representing function.

    ``weight`` records the parameter t for the weighted catalog families.
    Construction runs a grid sanity gate: h(1) = 1 to 1e-12, positivity and
    monotonicity of h on 512 log-spaced points of (1e-3, 1e3).
    """

    name: str
    h: ScalarFunction
    weight: float | None = None

    def __post_init__(self):
        _validate_representing(self.h)


@dataclass(frozen=True)
class Perspective:
    """Congruence transform for an arbitrary continuous scalar function."""

    phi: ScalarFunction


def _fmt_weight(t: float) -> str:
    for num in range(1, 8):
        for den in range(2, 9):
            if abs(t - num / den) < 1e-12:
                return f"{num}/{den}"
    return f"{t:g}"


def arithmetic(t: float) -> MatrixMean:
    """Weighted arithmetic mean (1-t)A + tB, h(x) = (1-t) + t x."""
    _check_weight(t)
    h = ScalarFunction(
        f"arith_h[{_fmt_weight(t)}]",
        fn=lambda x, _t=t: (1.0 - _t) + _t * x,
        deriv=lambda x, _t=t: _t * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else t,
        domain=Interval(0.0, math.inf),
        convexity=Convexity.CONVEX,
    )
    return MatrixMean(f"arithmetic:{_fmt_weight(t)}", h, t)


def harmonic(t: float) -> MatrixMean:
    """Weighted harmonic mean ((1-t)A^-1 + tB^-1)^-1, h(x) = x/((1-t)x + t)."""
    _check_weight(t, endpoint_ok=False)
    h = ScalarFunction(
        f"harm_h[{_fmt_weight(t)}]",
        fn=lambda x, _t=t: x / ((1.0 - _t) * x + _t),
        deriv=lambda x, _t=t: _t / ((1.0 - _t) * x + _t) ** 2,
        domain=Interval(0.0, math.inf),
        convexity=Convexity.CONCAVE,
    )
    return MatrixMean(f"harmonic:{_fmt_weight(t)}", h, t)


def geometric(t: float) -> MatrixMean:
    """Weighted geometric mean A #_t B, h(x) = x**t."""
    _check_weight(t, endpoint_ok=False)
    h = ScalarFunction(
        f"geom_h[{_fmt_weight(t)}]",
        fn=lambda x, _t=t: np.power(x, _t) if np.ndim(x) else float(x) ** _t,
        deriv=lambda x, _t=t: _t * np.power(x, _t - 1.0) if np.ndim(x) else _t * float(x) ** (_t - 1.0),
        domain=Interval(0.0, math.inf),
        convexity=Convexity.CONCAVE,
    )
    return MatrixMean(f"geometric:{_fmt_weight(t)}", h, t)


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


def _congruence(a: np.ndarray, b: np.ndarray, scalar_map, tol: float):
    """A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2) for positive definite A."""
    wa, va = np.linalg.eigh(a)
    root = (va * np.sqrt(wa)) @ va.conj().T
    inv_root = (va * (1.0 / np.sqrt(wa))) @ va.conj().T
    mid = hermitian_part(inv_root @ b @ inv_root)
    wm, vm = np.linalg.eigh(mid)
    vals = scalar_map(wm)
    inner = (vm * vals) @ vm.conj().T
    return hermitian_part(root @ inner @ root)


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
    wb = np.linalg.eigvalsh(b)
    scale_b = 1.0 + float(np.abs(wb).max())
    if wb[0] < -tol * scale_b:
        raise NotPositiveSemidefiniteError(
            f"second operand has eigenvalue {wb[0]:.6e} below -tol*scale"
        )
    wa = np.linalg.eigvalsh(a)
    scale_a = 1.0 + float(np.abs(wa).max())
    meta = None
    if wa[0] <= tol * scale_a:
        eps = 1e-8 * (1.0 + float(np.abs(wa).max()) + float(np.abs(wb).max()))
        eye = np.eye(a.shape[0])
        a = a + eps * eye
        b = b + eps * eye
        meta = {"regularization_eps": eps}

    h = sigma.h

    def scalar_map(w):
        scale = 1.0 + float(np.abs(w).max())
        clipped = np.where(w < 0.0, np.where(w >= -tol * scale, 0.0, w), w)
        if clipped.min() < 0.0:
            raise NotPositiveSemidefiniteError(
                f"congruence spectrum has eigenvalue {clipped.min():.6e} below -tol*scale"
            )
        xs = h.domain.clamp(clipped, 1e-10 * scale)
        return np.asarray(h(xs), dtype=float)

    return HermitianMatrix(_congruence(a, b, scalar_map, tol), meta=meta)


def perspective(p: Perspective, A, B, tol: float = DEFAULT_TOL) -> HermitianMatrix:
    """A^(1/2) phi(A^(-1/2) B A^(-1/2)) A^(1/2) for positive definite A.

    The spectrum of the congruence term must lie inside the domain of phi;
    otherwise a domain violation is raised.
    """
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    if a.shape != b.shape:
        raise ShapeError("perspective operands must have the same dimension")
    wa = np.linalg.eigvalsh(a)
    scale_a = 1.0 + float(np.abs(wa).max())
    if wa[0] <= tol * scale_a:
        raise NotPositiveDefiniteError(
            f"first operand has smallest eigenvalue {wa[0]:.6e}; positive definite input required"
        )
    phi = p.phi

    def scalar_map(w):
        scale = 1.0 + float(np.abs(w).max())
        xs = phi.domain.clamp(w, 1e-10 * scale)
        return np.asarray(phi(xs), dtype=float)

    return HermitianMatrix(_congruence(a, b, scalar_map, tol))


def relative_operator_entropy(A, B, tol: float = DEFAULT_TOL) -> HermitianMatrix:
    """S(A|B) = A^(1/2) log(A^(-1/2) B A^(-1/2)) A^(1/2)."""
    from .functions import function_by_name

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
    c = float(np.linalg.eigvalsh(g.entries)[-1])
    if c <= 0.0:
        raise ValueError("mean has nonpositive largest eigenvalue")
    return HermitianMatrix(a / c), HermitianMatrix(b / c)
