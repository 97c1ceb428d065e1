"""Dense Hermitian and normal matrix kernels.

Numerical substrate for the rest of the package: eigendecomposition with a
deterministic basis convention, scalar functional calculus on Hermitian
matrices, the polar absolute value, unitarily invariant norms, determinant
roots, and Loewner-order comparison with explicit margins.

All public operations are pure: inputs are never mutated and outputs are
freshly allocated, so values can be shared freely between callers.

Every factorization is numpy's: Hermitian operands go through its
eigensolvers, and |A| of any square operand through its SVD, for one
matrix or a stack in one LAPACK call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "ComplexMatrix",
    "HermitianMatrix",
    "Spectrum",
    "NormKind",
    "ComparisonResult",
    "ShapeError",
    "DomainViolationError",
    "NotPositiveSemidefiniteError",
    "NotPositiveDefiniteError",
    "NotNormalError",
    "EigenConvergenceError",
    "as_complex_array",
    "as_hermitian_array",
    "hermitian_part",
    "eigh",
    "eigenvalues_desc",
    "apply_fn",
    "matrix_abs",
    "loewner_leq",
    "norm",
    "singular_values",
    "det_root",
    "spectral_bounds",
    "norm_catalog",
]

#: Default relative tolerance for order comparisons and PSD gates.
DEFAULT_TOL = 1e-8


class ShapeError(ValueError):
    """Input is not a square matrix or dimensions do not match."""


class DomainViolationError(ValueError):
    """A spectral value falls outside the domain of a scalar function."""


class NotPositiveSemidefiniteError(ValueError):
    """Operand has an eigenvalue significantly below zero."""


class NotPositiveDefiniteError(ValueError):
    """Operand is not safely positive definite."""


class NotNormalError(ValueError):
    """Operand does not commute with its adjoint within tolerance."""


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


def as_complex_array(x) -> np.ndarray:
    """Coerce input to a validated square complex128 array (copy)."""
    if isinstance(x, ComplexMatrix):
        return x.entries.copy()
    arr = np.array(x, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    return _finite(arr)


def _flag(errors, k, exc) -> None:
    """Give row k of a stack the error ``exc`` unless it has one; with no ``errors`` list, raise it.

    A stacked kernel given ``errors``, one entry per row (``None`` for no
    error), keeps each row's first error there, traceback dropped, and goes on.
    """
    if errors is None:
        raise exc
    if errors[k] is None:
        errors[k] = exc.with_traceback(None)


def _finite(arr: np.ndarray, errors=None) -> np.ndarray:
    """Return ``arr``; raise if an entry overflowed or is NaN.

    For a stack, per row (see :func:`_flag`).
    """
    if np.isfinite(arr).all():
        return arr
    if errors is None:
        raise ValueError("matrix entries must be finite")
    for k in np.flatnonzero(~np.isfinite(arr).reshape(len(arr), -1).all(axis=1)):
        _flag(errors, k, ValueError("matrix entries must be finite"))
    return arr


def hermitian_part(arr: np.ndarray) -> np.ndarray:
    """Return (X + X*)/2, for one matrix or each of a stack."""
    return (arr + arr.conj().swapaxes(-1, -2)) / 2.0


def as_hermitian_array(x) -> np.ndarray:
    """Coerce input to a square complex array and symmetrize it."""
    if isinstance(x, HermitianMatrix):
        return x.entries.copy()
    return hermitian_part(as_complex_array(x))


class ComplexMatrix:
    """Immutable square complex matrix (row-major semantics)."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = as_complex_array(entries)
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self._entries, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class HermitianMatrix(ComplexMatrix):
    """Hermitian matrix; construction symmetrizes via (X + X*)/2.

    The symmetrization is unconditional so that accumulated round-off drift
    can never produce a non-Hermitian operand downstream.  An optional
    ``meta`` mapping carries provenance notes (e.g. the regularization
    epsilon applied by a matrix mean on singular input).
    """

    __slots__ = ("meta",)

    def __init__(self, entries, meta=None):
        super().__init__(hermitian_part(as_complex_array(entries)))
        self.meta = meta


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted decreasing with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm selector.

    Variants: ``operator``, ``schatten`` (p >= 1), ``kyfan`` (1 <= k <= n),
    ``trace`` and ``frobenius``.  Trace == Schatten(1) == KyFan(n),
    Frobenius == Schatten(2), Operator == KyFan(1).
    """

    variant: str
    param: float | None = None

    def __post_init__(self):
        if self.variant not in ("operator", "schatten", "kyfan", "trace", "frobenius"):
            raise ValueError(f"unknown norm variant {self.variant!r}")
        if self.variant == "schatten":
            if self.param is None or self.param < 1:
                raise ValueError("schatten norm requires p >= 1")
        elif self.variant == "kyfan":
            if self.param is None or int(self.param) != self.param or self.param < 1:
                raise ValueError("ky fan norm requires integer k >= 1")
        elif self.param is not None:
            raise ValueError(f"{self.variant} norm takes no parameter")

    @classmethod
    def operator(cls):
        return cls("operator")

    @classmethod
    def schatten(cls, p: float):
        return cls("schatten", float(p))

    @classmethod
    def ky_fan(cls, k: int):
        return cls("kyfan", float(int(k)))

    @classmethod
    def trace(cls):
        return cls("trace")

    @classmethod
    def frobenius(cls):
        return cls("frobenius")

    @classmethod
    def parse(cls, label: str) -> "NormKind":
        """Parse labels like ``operator``, ``schatten:2`` or ``kyfan:3``."""
        name, _, param = label.strip().lower().partition(":")
        if name in ("operator", "op"):
            return cls.operator()
        if name in ("trace", "tr"):
            return cls.trace()
        if name in ("frobenius", "fro"):
            return cls.frobenius()
        if name == "schatten":
            return cls.schatten(float(param))
        if name in ("kyfan", "ky_fan", "ky-fan"):
            return cls.ky_fan(int(param))
        raise ValueError(f"unknown norm kind {label!r}")

    def label(self) -> str:
        if self.variant == "schatten":
            return f"schatten:{self.param:g}"
        if self.variant == "kyfan":
            return f"kyfan:{int(self.param)}"
        return self.variant


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one Loewner comparison X <= Y.

    ``margin`` is the smallest eigenvalue of Y - X, ``scale`` is
    1 + operator norm of Y, and ``passed`` holds exactly when
    margin >= -tol * scale for the tolerance supplied at comparison time.
    For a stack each field holds one value per row, and a NaN scale was not solved (margin >= 0).
    """

    margin: float
    scale: float
    passed: bool


def _lapack(solver, arr: np.ndarray, errors=None):
    """``solver`` on a matrix or a stack; a row with an error (maybe not finite) is solved as I."""
    if errors is not None and any(e is not None for e in errors):
        # in place: only records that carry the row's error read the caller's stack there again
        arr[[e is not None for e in errors]] = np.eye(arr.shape[-1])
    try:
        return solver(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigensolver failed to converge (matrix norm {np.linalg.norm(arr):.3e}): {exc}"
        ) from exc


def _eigvalsh(arr: np.ndarray, errors=None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian array, or of each of a stack, in one LAPACK call."""
    return _lapack(np.linalg.eigvalsh, arr, errors)


def _eigh(arr: np.ndarray, errors=None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a Hermitian array, or of each of a stack.

    The internal factorization: the basis is LAPACK's, with no canonical
    phases, because nothing built from the pair depends on them.
    """
    return _lapack(np.linalg.eigh, arr, errors)


def _normal_factors(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values s, decreasing, and right singular vectors W of a matrix or of a stack.

    With arr = U diag(s) W*, |arr| = (arr* arr)^(1/2) = W diag(s) W* for
    any square arr (Higham, *Functions of Matrices*, ch. 8).
    """
    _, s, wh = _lapack(np.linalg.svd, arr)
    return s, wh.conj().swapaxes(-1, -2)


def _opnorm_hermitian(arr: np.ndarray) -> float:
    w = _eigvalsh(arr)
    return float(max(abs(w[0]), abs(w[-1])))


def _compose(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V* from eigenvector columns V and values w; either may be a stack."""
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _fn_values(fs, w: np.ndarray, errors=None) -> np.ndarray:
    """Each f of ``fs`` on every spectrum of ``w``, its last axis: an array (function, *w.shape).

    The one place a scalar function meets a spectrum.  Values within 1e-10 (1 + max |w|) of
    their row are clamped onto f's domain; a value further out, a ``ValueError`` f raises and
    a value that is not finite are errors of their rows, kept in ``errors``, one array of row
    errors per f viewing the caller's (see :func:`_flag`), else raised.  A row with an error
    is evaluated at a point inside f's domain, and its values are unused.
    """
    rows = w.reshape(-1, w.shape[-1])
    tol = 1e-10 * (1.0 + np.abs(rows).max(axis=-1))
    out = np.zeros((len(fs), *rows.shape))
    for j, f in enumerate(fs):
        e = None if errors is None else errors[j].reshape(-1)
        x = f.domain.clamp(rows, tol, e)
        try:
            out[j] = f(x)
        except ValueError as exc:
            for k in range(len(rows)):
                _flag(e, k, exc)
        _finite(out[j], e)
    return out.reshape(len(fs), *w.shape)


def _canonicalize_basis(w: np.ndarray, v: np.ndarray) -> None:
    """Fix eigenvector phases and degenerate-subspace ordering in place.

    Each column is rotated so its first significant component is positive
    real; inside a numerically degenerate eigenvalue group, columns are
    ordered lexicographically on their rounded components so repeated runs
    produce identical bases.
    """
    n = w.size
    absv = np.abs(v)
    thresh = absv.max(axis=0) * 1e-12
    first = (absv > thresh[None, :]).argmax(axis=0)
    lead = v[first, np.arange(n)]
    lead = np.where(np.abs(lead) == 0.0, 1.0, lead)
    v *= (lead.conj() / np.abs(lead))[None, :]

    tol = 1e-12 * (1.0 + np.abs(w).max())
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(w[stop] - w[start]) <= tol:
            stop += 1
        if stop - start > 1:
            cols = range(start, stop)
            keys = {
                j: tuple(
                    np.stack(
                        [np.round(v[:, j].real, 10), np.round(v[:, j].imag, 10)], axis=1
                    ).ravel()
                )
                for j in cols
            }
            order = sorted(cols, key=keys.get, reverse=True)
            v[:, start:stop] = v[:, order]
        start = stop


def eigh(A) -> Spectrum:
    """Hermitian eigendecomposition with a deterministic convention.

    Parameters
    ----------
    A : array_like or HermitianMatrix
        Operand; symmetrized before factoring.

    Returns
    -------
    Spectrum
        Eigenvalues sorted decreasing, eigenvector columns orthonormal.
        Identical input yields an identical decomposition: eigenvector
        phases are fixed by the sign of the first significant component,
        and degenerate subspaces use a lexicographic column ordering.
    """
    w, v = _eigh(as_hermitian_array(A))
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    _canonicalize_basis(w, v)
    return Spectrum(w, v)


def eigenvalues_desc(A) -> np.ndarray:
    """Eigenvalues of a Hermitian operand, sorted decreasing."""
    return _eigvalsh(as_hermitian_array(A))[::-1].copy()


def apply_fn(f, A) -> HermitianMatrix:
    """Apply a scalar function to a Hermitian matrix spectrally.

    Computes U diag(f(lambda_j)) U* and re-symmetrizes.  Eigenvalues that
    fall outside the domain of ``f`` by more than a round-off allowance
    raise :class:`DomainViolationError` naming the offending eigenvalue.
    """
    w, v = _eigh(as_hermitian_array(A))
    return HermitianMatrix(_compose(v, _fn_values((f,), w)[0]))


def matrix_abs(A) -> HermitianMatrix:
    """Polar absolute value |A| = (A*A)^(1/2) of a square matrix, W diag(s) W* from its SVD.

    The SVD keeps singular values far below sqrt(eps) ||A||, which a square
    root of A*A loses.
    """
    s, w = _normal_factors(as_complex_array(A))
    return HermitianMatrix(_compose(w, s))


def loewner_leq(X, Y, tol: float = DEFAULT_TOL) -> ComparisonResult:
    """Check X <= Y in the Loewner order with an explicit margin.

    The margin is the smallest eigenvalue of Y - X.  The comparison is
    relative: it passes when margin >= -tol * scale, scale = 1 + ||Y||_op
    solved at any margin, since eigensolver noise scales with the operands.
    """
    x = as_hermitian_array(X)
    y = as_hermitian_array(Y)
    if x.shape != y.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {y.shape}")
    (res,) = _loewner([(x[None], y[None], np.array([1.0 + _opnorm_hermitian(y)]))], tol)
    return ComparisonResult(float(res.margin[0]), float(res.scale[0]), bool(res.passed[0]))


def _loewner(comparisons, tol: float, errors=None) -> list[ComparisonResult]:
    """X <= Y for each row of every comparison ``(x, y, scale)``, by one stacked eigvalsh.

    ``x`` and ``y`` are stacks of Hermitian arrays, as many in every
    comparison; ``scale`` is one per row, or ``None`` for 1 + ||Y||_op on
    demand: a margin >= 0 passes at any scale >= 1 (tol >= 0), so only the
    Y of negative margins are solved, one more stacked eigvalsh, the other
    scales left NaN.  ``errors`` is ``None`` or one list of row errors per
    comparison, so one solve can span the records of several checks (those
    of the same records share one list); a difference not finite raises.
    """
    errs = [None] * len(comparisons) if errors is None else errors
    diffs = [_finite(y - x, e) for (x, y, _), e in zip(comparisons, errs)]
    rows = None if errors is None else [r for e in errs for r in e]
    margins = _eigvalsh(np.concatenate(diffs), rows)[:, 0].reshape(len(diffs), -1)
    scales = [np.full(len(y), np.nan) if s is None else s for _, y, s in comparisons]
    need = [(k, np.flatnonzero((margins[k] < 0.0) | (tol < 0.0)))
            for k, (_, _, s) in enumerate(comparisons) if s is None]
    if any(i.size for _, i in need):
        rows = None if errors is None else [errors[k][j] for k, i in need for j in i]
        wy = _eigvalsh(np.concatenate([comparisons[k][1][i] for k, i in need]), rows)
        tops = 1.0 + np.abs(wy[:, [0, -1]]).max(axis=-1)
        for (k, i), top in zip(need, np.split(tops, np.cumsum([i.size for _, i in need]))):
            scales[k][i] = top
    return [ComparisonResult(m, s, (m >= -tol * s) | (np.isnan(s) & (c[2] is None)))
            for c, m, s in zip(comparisons, margins, scales)]


def _loewner_on_spectrum(lo: np.ndarray, hi: np.ndarray, tol: float, errors=None):
    """lo(S) <= hi(S) for two functions of each Hermitian S of a stack, given by values on spec(S).

    Both sides share S's eigenvectors, so the margin is the smallest
    difference of values and the scale is 1 + max |hi|, over the last axis;
    no factorization.  The leading axis is the rows of ``errors``: a row
    may hold several comparisons, (row, comparison, eigenvalue), and one
    that is not finite is an error of its row (see :func:`_flag`).
    """
    diff = _finite(hi - lo, errors)
    scale = 1.0 + np.abs(hi).max(axis=-1)
    margin = diff.min(axis=-1)
    return ComparisonResult(margin, scale, margin >= -tol * scale)


def singular_values(A) -> np.ndarray:
    """Singular values (eigenvalues of |A|), sorted decreasing."""
    return _singular_values(as_complex_array(A)[None])[0]


def _singular_values(arr: np.ndarray, errors=None) -> np.ndarray:
    """:func:`singular_values` of each matrix of a stack, one LAPACK call per kind of matrix.

    The Hermitian matrices' are |w| on their eigenvalues, one stacked
    eigvalsh; the others' one stacked SVD, which keeps those far below
    sqrt(eps) ||A|| that the eigenvalues of A*A lose.  Returns an array
    (matrices x n), one row per matrix; a row with an error is solved as I.
    """
    adj = arr.conj().swapaxes(-1, -2)
    scale = np.abs(arr).max(axis=(-2, -1), initial=0.0)
    hermitian = np.abs(arr - adj).max(axis=(-2, -1), initial=0.0) <= 1e-12 * (1.0 + scale)
    arr, w = np.where(hermitian[:, None, None], hermitian_part(arr), arr), np.empty(arr.shape[:-1])
    for rows, solve in ((hermitian, np.linalg.eigvalsh),
                        (~hermitian, lambda x: np.linalg.svd(x, compute_uv=False))):
        if rows.any():
            errs = None if errors is None else [errors[k] for k in np.flatnonzero(rows)]
            w[rows] = _lapack(solve, arr[rows], errs)
    return _sv_hermitian(w)


def norm(A, kind) -> float:
    """Unitarily invariant norm of a square matrix.

    ``kind`` may be a :class:`NormKind` or a string label such as
    ``"schatten:2"``.  Ky Fan k sums the k largest singular values;
    Schatten p is the p-norm of the singular value vector.  The value is
    the matrix's entry of :func:`_norm_table`, bit for bit.
    """
    if isinstance(kind, str):
        kind = NormKind.parse(kind)
    return float(_norm_table(singular_values(A)[None], (kind,))[0, 0])


def _norm_table(sv: np.ndarray, kinds) -> np.ndarray:
    """Each norm in ``kinds`` of each matrix whose singular values are a row of ``sv``.

    Rows are sorted decreasing; returns an array (rows x kinds).  Every
    unitarily invariant norm is a symmetric gauge function of the singular
    values, so one vector per matrix serves every kind.  An entry has the
    bits of the norm taken on its row alone, whatever the row's memory
    layout: the table reads a C-contiguous copy of ``sv``, because numpy's
    array power takes a SIMD kernel on contiguous rows and libm's ``pow``
    on strided ones, and the two can differ in the last bit.  Ky Fan k
    sums the slice ``sv[:, :k]`` (a cumulative sum adds in another order),
    and the Schatten root is libm's ``pow`` per value.
    """
    sv = np.ascontiguousarray(sv)
    table = np.empty((len(sv), len(kinds)))
    for j, kind in enumerate(kinds):
        if kind.variant == "operator":
            table[:, j] = sv[:, 0]
        elif kind.variant == "trace":
            table[:, j] = sv.sum(axis=-1)
        elif kind.variant == "frobenius":
            table[:, j] = np.sqrt((sv * sv).sum(axis=-1))
        elif kind.variant == "schatten":
            root = 1.0 / kind.param
            table[:, j] = [s**root for s in (sv**kind.param).sum(axis=-1).tolist()]
        else:
            k = int(kind.param)
            if not 1 <= k <= sv.shape[-1]:
                raise ValueError(f"ky fan k={k} outside 1..{sv.shape[-1]}")
            table[:, j] = sv[:, :k].sum(axis=-1)
    return table


def _sv_hermitian(w: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix with eigenvalues ``w``: |w| sorted decreasing.

    ``w`` may be a stack, one row per matrix.
    """
    return np.sort(np.abs(w), axis=-1)[..., ::-1].copy()


def det_root(A, tol: float = DEFAULT_TOL) -> float:
    """n-th root of the determinant of a PSD matrix, (prod max(l_j, 0))^(1/n).

    Eigenvalues within -tol * scale of zero are clamped to zero (round-off
    on PSD input); a significantly negative eigenvalue raises
    :class:`NotPositiveSemidefiniteError`.
    """
    return _det_root(_eigvalsh(as_hermitian_array(A)), tol)


def _det_root(w: np.ndarray, tol: float, errors=None):
    """:func:`det_root` of a Hermitian matrix with eigenvalues ``w``, in any order.

    For a stack of spectra, one root per row as an array, and a row with an
    eigenvalue below -tol * scale keeps its error (see :func:`_flag`).  The
    root is libm's ``pow`` value by value, as for one matrix.
    """
    low = np.atleast_1d(w.min(axis=-1))
    scale = np.atleast_1d(1.0 + np.abs(w).max(axis=-1))
    for k in np.flatnonzero(low < -tol * scale):
        _flag(errors, k, NotPositiveSemidefiniteError(
            f"matrix has eigenvalue {low[k]:.6e}, below -tol*scale = {-tol * scale[k]:.3e}"
        ))
    products = np.atleast_1d(np.prod(np.clip(w, 0.0, None), axis=-1)).tolist()
    roots = [p ** (1.0 / w.shape[-1]) for p in products]
    return roots[0] if w.ndim == 1 else np.array(roots)


def spectral_bounds(A, B) -> tuple[float, float]:
    """(m, M): smallest and largest among the eigenvalues of A and B."""
    wa = _eigvalsh(as_hermitian_array(A))
    wb = _eigvalsh(as_hermitian_array(B))
    if wa.size != wb.size:
        raise ShapeError("operands must have the same dimension")
    return float(min(wa[0], wb[0])), float(max(wa[-1], wb[-1]))


def norm_catalog(dim: int) -> list[NormKind]:
    """Every norm kind the verification suites use, for operands of size ``dim``.

    Operator, trace, Frobenius, Schatten 1/2/3 and Ky Fan 1..dim.  Trace and
    Frobenius are Schatten 1 and 2 under their own names; the checkers'
    default set leaves them out.
    """
    kinds = [
        NormKind.operator(),
        NormKind.trace(),
        NormKind.frobenius(),
        NormKind.schatten(1.0),
        NormKind.schatten(2.0),
        NormKind.schatten(3.0),
    ]
    kinds.extend(NormKind.ky_fan(k) for k in range(1, dim + 1))
    return kinds
