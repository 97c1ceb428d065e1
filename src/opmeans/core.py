"""Dense Hermitian and normal matrix kernels.

Numerical substrate for the rest of the package: eigendecomposition with a
deterministic basis convention, scalar functional calculus on Hermitian
matrices, the polar absolute value, unitarily invariant norms, determinant
roots, and Loewner-order comparison with explicit margins.

All operations are pure: inputs are never mutated and outputs are freshly
allocated, so values can be shared freely between callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    if isinstance(x, HermitianMatrix):
        return x.entries.copy()
    if isinstance(x, ComplexMatrix):
        return x.entries.copy()
    arr = np.array(x, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    return _finite(arr)


def _finite(arr: np.ndarray) -> np.ndarray:
    """Return ``arr``; raise if an entry overflowed or is NaN."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def hermitian_part(arr: np.ndarray) -> np.ndarray:
    """Return (X + X*)/2."""
    return (arr + arr.conj().T) / 2.0


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

    def adjoint(self) -> "ComplexMatrix":
        return ComplexMatrix(self._entries.conj().T)

    def __array__(self, dtype=None):
        return np.asarray(self._entries, dtype=dtype)

    def __repr__(self):
        return f"ComplexMatrix(dim={self.dim})"


class HermitianMatrix:
    """Hermitian matrix; construction symmetrizes via (X + X*)/2.

    The symmetrization is unconditional so that accumulated round-off drift
    can never produce a non-Hermitian operand downstream.  An optional
    ``meta`` mapping carries provenance notes (e.g. the regularization
    epsilon applied by a matrix mean on singular input).
    """

    __slots__ = ("base", "meta")

    def __init__(self, entries, meta=None):
        sym = hermitian_part(as_complex_array(entries))
        self.base = ComplexMatrix(sym)
        self.meta = meta

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim

    def __array__(self, dtype=None):
        return np.asarray(self.base.entries, dtype=dtype)

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


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
    """

    margin: float
    scale: float
    passed: bool


def _lapack(solver, arr: np.ndarray):
    try:
        return solver(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigensolver failed to converge (matrix norm {np.linalg.norm(arr):.3e}): {exc}"
        ) from exc


def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian array."""
    return _lapack(np.linalg.eigvalsh, arr)


def _eigh(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a Hermitian array.

    The internal factorization: the basis is LAPACK's, with no canonical
    phases, because nothing built from the pair depends on them.
    """
    return _lapack(np.linalg.eigh, arr)


def _normal_factors(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moduli d of the eigenvalues and unitary Q of a complex Schur factorization arr = Q T Q*.

    Q diag(d) Q* is |arr| and d its singular values when arr is normal
    (then T is diagonal).
    """
    t, q = _lapack(lambda x: scipy.linalg.schur(x, output="complex"), arr)
    return np.abs(np.diagonal(t)), q


def _opnorm_hermitian(arr: np.ndarray) -> float:
    w = _eigvalsh(arr)
    return float(max(abs(w[0]), abs(w[-1])))


def _compose(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V* from eigenvector columns V and values w."""
    return (v * w) @ v.conj().T


def _fn_values(f, w: np.ndarray) -> np.ndarray:
    """f on a spectrum w; values within round-off outside f's domain are clamped onto it."""
    tol = 1e-10 * (1.0 + float(np.abs(w).max()))
    return np.asarray(f(f.domain.clamp(w, tol)), dtype=np.float64)


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
                    np.stack([np.round(v[:, j].real, 10), np.round(v[:, j].imag, 10)], axis=1).ravel()
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
    return HermitianMatrix(_compose(v, _fn_values(f, w)))


def matrix_abs(A, normal_hint: bool = False) -> HermitianMatrix:
    """Polar absolute value |A| = (A*A)^(1/2).

    With ``normal_hint`` the operand is unitarily diagonalized through a
    complex Schur factorization and |A| is assembled from the moduli of its
    eigenvalues, which is cheaper and exact for normal input.  The default
    path takes the PSD square root of A*A and works for any square matrix.
    """
    arr = as_complex_array(A)
    if normal_hint:
        d, q = _normal_factors(arr)
        return HermitianMatrix(_compose(q, d))
    gram = hermitian_part(arr.conj().T @ arr)
    spectrum = eigh(gram)
    d = np.sqrt(np.clip(spectrum.eigenvalues, 0.0, None))
    v = spectrum.eigenvectors
    return HermitianMatrix((v * d) @ v.conj().T)


def loewner_leq(X, Y, tol: float = DEFAULT_TOL) -> ComparisonResult:
    """Check X <= Y in the Loewner order with an explicit margin.

    The margin is the smallest eigenvalue of Y - X.  The comparison is
    relative: it passes when margin >= -tol * (1 + ||Y||_op), since
    eigensolver noise scales with the magnitude of the operands.
    """
    x = as_hermitian_array(X)
    y = as_hermitian_array(Y)
    if x.shape != y.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return _loewner(x, y, tol)


def _loewner(x: np.ndarray, y: np.ndarray, tol: float, scale: float | None = None):
    """X <= Y for Hermitian arrays of one shape; ``scale`` defaults to 1 + ||Y||_op."""
    margin = float(_eigvalsh(_finite(y - x))[0])
    if scale is None:
        scale = 1.0 + _opnorm_hermitian(y)
    return ComparisonResult(margin, scale, bool(margin >= -tol * scale))


def _loewner_on_spectrum(lo: np.ndarray, hi: np.ndarray, tol: float):
    """lo(S) <= hi(S) for two functions of one Hermitian S, given by their values on spec(S).

    Both sides share S's eigenvectors, so the margin is the smallest
    difference of values and the scale is 1 + max |hi|; no factorization.
    """
    diff = _finite(hi - lo)
    margin = float(diff.min())
    scale = 1.0 + float(np.abs(hi).max())
    return ComparisonResult(margin, scale, bool(margin >= -tol * scale))


def singular_values(A) -> np.ndarray:
    """Singular values (eigenvalues of |A|), sorted decreasing."""
    arr = as_complex_array(A)
    scale = float(np.abs(arr).max(initial=0.0))
    if np.abs(arr - arr.conj().T).max(initial=0.0) <= 1e-12 * (1.0 + scale):
        return _sv_hermitian(_eigvalsh(hermitian_part(arr)))
    w = eigenvalues_desc(matrix_abs(arr))
    return np.clip(w, 0.0, None)


def norm(A, kind) -> float:
    """Unitarily invariant norm of a square matrix.

    ``kind`` may be a :class:`NormKind` or a string label such as
    ``"schatten:2"``.  Ky Fan k sums the k largest singular values;
    Schatten p is the p-norm of the singular value vector.
    """
    if isinstance(kind, str):
        kind = NormKind.parse(kind)
    return _norm_of_sv(singular_values(A), kind)


def _norm_of_sv(sv: np.ndarray, kind: NormKind) -> float:
    """The norm ``kind`` of a matrix with singular values ``sv`` (sorted decreasing).

    Every unitarily invariant norm is a symmetric gauge function of the
    singular values, so one vector per matrix serves every kind.
    """
    if kind.variant == "operator":
        return float(sv[0])
    if kind.variant == "trace":
        return float(sv.sum())
    if kind.variant == "frobenius":
        return float(np.sqrt((sv * sv).sum()))
    if kind.variant == "schatten":
        return float((sv ** kind.param).sum() ** (1.0 / kind.param))
    k = int(kind.param)
    if not 1 <= k <= sv.size:
        raise ValueError(f"ky fan k={k} outside 1..{sv.size}")
    return float(sv[:k].sum())


def _sv_hermitian(w: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix with eigenvalues ``w``: |w| sorted decreasing."""
    return np.sort(np.abs(w))[::-1].copy()


def det_root(A, tol: float = DEFAULT_TOL) -> float:
    """n-th root of the determinant of a PSD matrix, (prod max(l_j, 0))^(1/n).

    Eigenvalues within -tol * scale of zero are clamped to zero (round-off
    on PSD input); a significantly negative eigenvalue raises
    :class:`NotPositiveSemidefiniteError`.
    """
    return _det_root(_eigvalsh(as_hermitian_array(A)), tol)


def _det_root(w: np.ndarray, tol: float) -> float:
    """:func:`det_root` of a Hermitian matrix with eigenvalues ``w``, in any order."""
    low = w.min()
    scale = 1.0 + float(np.abs(w).max())
    if low < -tol * scale:
        raise NotPositiveSemidefiniteError(
            f"matrix has eigenvalue {low:.6e}, below -tol*scale = {-tol * scale:.3e}"
        )
    return float(np.prod(np.clip(w, 0.0, None)) ** (1.0 / w.size))


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
