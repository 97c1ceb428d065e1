"""Deterministic, seed-driven generation of structured random instances.

The randomness source is an embedded 64-bit SplitMix sequence rather than
the platform default generator, so identical (config, stream seed) pairs
reproduce bit-for-bit across runs and implementations.  Stream seeds for
independent trials derive from a master seed through the documented
splitting rule::

    stream_seed = mix64(master_seed + GOLDEN * (trial_index + 1))

where mix64 is the SplitMix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.

A stream needs no sequential state beyond its position: its n-th output is
mix64(seed + n * GOLDEN), so k consecutive outputs are computed at once as
one uint64 array (numpy array arithmetic wraps modulo 2**64).  A uniform is
(z >> 11) * 2**-53, scaled to [lo, hi); Gaussians are Box-Muller pairs
(cos first, then sin) over consecutive uniforms.  The Box-Muller log is
taken through libm's ``math.log``: numpy's vectorised ``np.log`` differs
from it in the last bit on a few inputs per thousand, and the stream's bits
are defined by libm.  ``np.sqrt`` is correctly rounded, and ``np.sin`` and
``np.cos`` agree with libm on the stream (``tests/test_randgen.py`` pins
generated bits and checks the arrays against the one-draw-at-a-time
definition).

Matrices are drawn a group at a time (:func:`random_group`): one row per
matrix, all of one dimension, each row a stream seed read from a fixed
offset.  The group is one (rows x k) block of stream outputs, one
Box-Muller pass, one stacked QR for the Haar factors (QR of a complex
Ginibre matrix with the phase fix of Mezzadri, Notices AMS 54(5), 2007)
and one stacked product (U diag(z)) U*.  Stacked LAPACK calls and numpy's
elementwise kernels give each row the bits it gets alone, except at
dimension 1: there the one-matrix product U diag(z) broadcasts a 1 x 1
matrix against a length-1 vector, which numpy multiplies in its scalar
complex loop, while a stack goes through its SIMD loop, whose fused
multiply-add rounds a complex product differently.  So a 1 x 1 group takes
the scalar loop's formula.  The public generators are the one-row case.

Generated positive definite matrices attain their spectral endpoints
exactly (lambda_max = M, lambda_min = m for dim >= 2) so that the verified
bounds are exercised at their tightest constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexMatrix, HermitianMatrix, _finite

__all__ = [
    "MASK64",
    "GOLDEN",
    "mix64",
    "derive_stream_seed",
    "RandomStream",
    "GeneratorConfig",
    "STRUCTURES",
    "random_unitary",
    "random_pd",
    "random_normal",
    "random_gap_pair",
    "random_group",
    "gap_pair_rows",
]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_stream_seed(master_seed: int, trial_index: int) -> int:
    """The splitting rule mapping (master seed, trial index) to a stream seed."""
    return mix64((master_seed + GOLDEN * (trial_index + 1)) & MASK64)


# Constants of the array kernel; uint64 array arithmetic wraps modulo 2**64.
_GOLDEN = np.uint64(GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)


def _outputs(starts, k: int) -> np.ndarray:
    """Outputs 1..k after each stream position in ``starts``: mix64(start + j * GOLDEN).

    ``starts`` is a uint64 scalar (k outputs) or vector (one row of k per start).
    """
    z = np.add.outer(starts, np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN)
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from outputs: (z >> 11) * 2**-53, exact (shifts ``z`` in place)."""
    z >>= _S11
    return z * 2.0**-53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Gaussian pairs from uniform pairs u[..., 0], u[..., 1]: r cos(theta), then r sin(theta).

    r = sqrt(-2 log(1 - u0)) and theta = 2 pi u1, computed in place of u1.
    """
    # 1 - u lies in (0, 1], so the log is finite; libm's log, see above
    s = 1.0 - u[..., 0]
    r = np.fromiter(map(math.log, s.ravel().tolist()), np.float64, s.size).reshape(s.shape)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = u[..., 1]
    theta *= _TWO_PI
    out = np.empty(u.shape)
    np.multiply(r, np.cos(theta), out=out[..., 0])
    np.multiply(r, np.sin(theta), out=out[..., 1])
    return out


class RandomStream:
    """SplitMix64 stream with uniform and Gaussian draws, computed as arrays.

    Gaussians use Box-Muller on consecutive uniforms; the spare half is
    cached, so the draw order is fully determined by the call sequence.
    ``uniform()`` and ``normal()`` are one-element views of ``uniforms`` and
    ``normals``: drawing k values at once or one at a time gives the same bits.
    """

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._spare = None

    def _u64s(self, k: int) -> np.ndarray:
        z = _outputs(np.uint64(self._state), k)
        self._state = (self._state + GOLDEN * k) & MASK64
        return z

    def next_u64(self) -> int:
        return int(self._u64s(1)[0])

    def uniforms(self, k: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next k uniforms on [lo, hi): lo + (hi - lo) * (z >> 11) * 2**-53."""
        u = _uniforms(self._u64s(k))
        if lo != 0.0 or hi != 1.0:
            u *= hi - lo
            u += lo
        return u

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(self.uniforms(1, lo, hi)[0])

    def normals(self, k: int) -> np.ndarray:
        """The next k standard Gaussians: a pending spare first, then
        cos/sin Box-Muller pairs; an odd trailing sine becomes the spare."""
        if k == 0:
            return np.empty(0)
        spare, self._spare = self._spare, None
        head = () if spare is None else (spare,)
        pairs = (k - len(head) + 1) // 2
        drawn = _box_muller(self.uniforms(2 * pairs).reshape(pairs, 2))
        out = np.concatenate((head, drawn.ravel()))
        if out.size > k:
            self._spare = float(out[k])
        return out[:k]

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def complex_gaussian(self, dim: int) -> np.ndarray:
        """A dim x dim standard complex Gaussian: row-major (re, im) pairs / sqrt(2)."""
        g = self.normals(2 * dim * dim)
        # divide the float64 parts: numpy divides a complex array by a real
        # through its reciprocal, which changes the last bit
        g /= _SQRT2
        return g.view(np.complex128).reshape(dim, dim)


STRUCTURES = ("positive_definite", "normal_complex", "hermitian_indefinite")


@dataclass(frozen=True)
class GeneratorConfig:
    """Dimension, spectral interval [m, M] and structure class."""

    dim: int
    m: float
    M: float
    structure: str = "positive_definite"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < self.m <= self.M:
            raise ValueError(f"need 0 < m <= M, got m={self.m}, M={self.M}")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")


def random_group(dim: int, rows) -> np.ndarray:
    """One dim x dim matrix per row, drawn as one stack of shape (len(rows), dim, dim).

    A row is ``(stream_seed, offset, structure, m, M)``.  Its matrix reads
    the stream from output ``offset + 1`` on: 2 dim^2 uniforms for the
    complex Gaussian of its Haar unitary U, then dim for its eigenvalue
    moduli on [m, M] (endpoints attained when dim >= 2) and, for a normal
    structure, dim for their phases (uniform on [0, 2 pi), or 0 and pi for
    ``hermitian_indefinite``).  The matrix is (U diag(z)) U* with z the
    eigenvalues, or U itself for ``structure`` None.  A positive definite
    row is Hermitian up to round-off; :class:`HermitianMatrix` symmetrizes
    it.  (m, M) are taken as given: :class:`GeneratorConfig` validates them.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    seeds, offsets, structures, lo, hi = zip(*rows)
    if not set(structures) <= {None, *STRUCTURES}:
        raise ValueError(f"unknown structure in {structures!r}")
    ng = 2 * dim * dim  # uniforms of the complex Gaussian
    starts = [(seed + offset * GOLDEN) & MASK64 for seed, offset in zip(seeds, offsets)]
    u = _uniforms(_outputs(np.array(starts, dtype=np.uint64), ng + 2 * dim))
    g = _box_muller(u[:, :ng].reshape(len(rows), dim * dim, 2))
    g /= _SQRT2  # as RandomStream.complex_gaussian
    q, r = np.linalg.qr(g.view(np.complex128).reshape(len(rows), dim, dim))
    # the phase convention (positive real diagonal of R) makes the factorization unique
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mod = np.abs(d)
    phases = np.where(mod == 0.0, 1.0, d / np.where(mod == 0.0, 1.0, mod))
    haar = q * phases[:, None, :]

    lam = u[:, ng : ng + dim] * np.subtract(hi, lo)[:, None] + np.array(lo)[:, None]
    if dim >= 2:
        lam[:, 0] = hi
        lam[:, -1] = lo

    def rows_of(structure):
        return np.array([s == structure for s in structures])[:, None]

    phase = u[:, ng + dim :]
    signs = np.where(rows_of("hermitian_indefinite") & (phase >= 0.5), math.pi, 0.0)
    theta = np.where(rows_of("normal_complex"), phase * _TWO_PI, signs)
    z = (lam * np.exp(1j * theta))[:, None, :]
    if dim == 1:  # numpy's scalar complex product, see the module docstring
        uz = np.empty_like(haar)
        uz.real = haar.real * z.real - haar.imag * z.imag
        uz.imag = haar.real * z.imag + haar.imag * z.real
    else:
        uz = haar * z
    out = uz @ haar.conj().swapaxes(-1, -2)
    unitary = rows_of(None)[:, 0]
    out[unitary] = haar[unitary]
    return _finite(out)


def random_unitary(dim: int, stream_seed: int) -> ComplexMatrix:
    """Haar-distributed unitary matrix, deterministic in the stream seed."""
    return ComplexMatrix(random_group(dim, [(stream_seed, 0, None, 1.0, 1.0)])[0])


def random_pd(config: GeneratorConfig, stream_seed: int) -> HermitianMatrix:
    """Positive definite matrix with spectrum in [m, M], endpoints attained."""
    row = (stream_seed, 0, "positive_definite", config.m, config.M)
    return HermitianMatrix(random_group(config.dim, [row])[0])


def random_normal(config: GeneratorConfig, stream_seed: int) -> ComplexMatrix:
    """Normal matrix with singular values in [m, M], endpoints attained.

    Structure ``normal_complex`` draws uniform eigenvalue phases;
    ``hermitian_indefinite`` restricts phases to {0, pi}, producing a
    Hermitian matrix with eigenvalue moduli in [m, M] and random signs.
    """
    structure = config.structure
    if structure != "hermitian_indefinite":
        structure = "normal_complex"
    row = (stream_seed, 0, structure, config.m, config.M)
    return ComplexMatrix(random_group(config.dim, [row])[0])


_GAP_INTERVALS = {
    # B-spectrum entirely below A's, or entirely above; gap >= 0.1 by design
    "below_a": ((2.0, 3.0), (0.5, 1.0)),
    "above_a": ((0.5, 1.0), (2.0, 3.0)),
}


def gap_pair_rows(dim: int, gap_mode: str, stream_seed: int) -> list:
    """The :func:`random_group` rows of a gap pair: A, then B from the same stream after A."""
    if gap_mode not in _GAP_INTERVALS:
        raise ValueError(f"unknown gap mode {gap_mode!r}")
    (ma, Ma), (mb, Mb) = _GAP_INTERVALS[gap_mode]
    pd = "positive_definite"
    return [(stream_seed, 0, pd, ma, Ma), (stream_seed, 2 * dim * dim + dim, pd, mb, Mb)]


def random_gap_pair(dim: int, gap_mode: str, stream_seed: int):
    """A positive definite pair with disjoint spectral intervals.

    ``below_a`` realizes lambda_max(B) < lambda_min(A); ``above_a`` is the
    symmetric case lambda_max(A) < lambda_min(B).
    """
    a, b = random_group(dim, gap_pair_rows(dim, gap_mode, stream_seed))
    return HermitianMatrix(a), HermitianMatrix(b)
