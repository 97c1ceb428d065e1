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

Generated positive definite matrices attain their spectral endpoints
exactly (lambda_max = M, lambda_min = m for dim >= 2) so that the verified
bounds are exercised at their tightest constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexMatrix, HermitianMatrix

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
# GOLDEN * (1, ..., k) modulo 2**64, tabulated up to a 32 x 32 complex Gaussian
_STEPS = np.arange(1, 2 * 32 * 32 + 1, dtype=np.uint64) * _GOLDEN
_STEPS.flags.writeable = False


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
        if k <= _STEPS.size:
            steps = _STEPS[:k]
        else:
            steps = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN
        z = steps + np.uint64(self._state)
        self._state = (self._state + GOLDEN * k) & MASK64
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
        return z

    def next_u64(self) -> int:
        return int(self._u64s(1)[0])

    def uniforms(self, k: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next k uniforms on [lo, hi): lo + (hi - lo) * (z >> 11) * 2**-53."""
        z = self._u64s(k)
        z >>= _S11
        u = z * 2.0**-53  # exact: z < 2**53
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
        head = 0 if spare is None else 1
        pairs = (k - head + 1) // 2
        u = self.uniforms(2 * pairs).reshape(pairs, 2)
        # 1 - u lies in (0, 1], so the log is finite; libm's log, see above
        r = np.fromiter(map(math.log, (1.0 - u[:, 0]).tolist()), np.float64, pairs)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = u[:, 1]
        theta *= _TWO_PI
        out = np.empty(head + 2 * pairs)
        if head:
            out[0] = spare
        np.multiply(r, np.cos(theta), out=out[head::2])
        np.multiply(r, np.sin(theta), out=out[head + 1 :: 2])
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
    """Dimension, spectral interval [m, M], structure class and master seed."""

    dim: int
    m: float
    M: float
    structure: str = "positive_definite"
    master_seed: int = 20240001

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < self.m <= self.M:
            raise ValueError(f"need 0 < m <= M, got m={self.m}, M={self.M}")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")


def _haar(stream: RandomStream, dim: int) -> np.ndarray:
    # QR of a complex Ginibre matrix; the phase convention (positive real
    # diagonal of the triangular factor) makes the factorization unique.
    g = stream.complex_gaussian(dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    mod = np.abs(d)
    phases = np.where(mod == 0.0, 1.0, d / np.where(mod == 0.0, 1.0, mod))
    return q * phases[None, :]


def random_unitary(dim: int, stream_seed: int) -> ComplexMatrix:
    """Haar-distributed unitary matrix, deterministic in the stream seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return ComplexMatrix(_haar(RandomStream(stream_seed), dim))


def _spread_moduli(stream: RandomStream, dim: int, m: float, M: float) -> np.ndarray:
    lam = stream.uniforms(dim, m, M)
    if dim >= 2:
        lam[0] = M
        lam[-1] = m
    return lam


def _pd(stream: RandomStream, dim: int, m: float, M: float) -> HermitianMatrix:
    u = _haar(stream, dim)
    lam = _spread_moduli(stream, dim, m, M)
    return HermitianMatrix((u * lam) @ u.conj().T)


def random_pd(config: GeneratorConfig, stream_seed: int) -> HermitianMatrix:
    """Positive definite matrix with spectrum in [m, M], endpoints attained."""
    return _pd(RandomStream(stream_seed), config.dim, config.m, config.M)


def random_normal(config: GeneratorConfig, stream_seed: int) -> ComplexMatrix:
    """Normal matrix with singular values in [m, M], endpoints attained.

    Structure ``normal_complex`` draws uniform eigenvalue phases;
    ``hermitian_indefinite`` restricts phases to {0, pi}, producing a
    Hermitian matrix with eigenvalue moduli in [m, M] and random signs.
    """
    stream = RandomStream(stream_seed)
    dim = config.dim
    u = _haar(stream, dim)
    moduli = _spread_moduli(stream, dim, config.m, config.M)
    if config.structure == "hermitian_indefinite":
        phases = np.where(stream.uniforms(dim) < 0.5, 0.0, math.pi)
    else:
        phases = stream.uniforms(dim, 0.0, 2.0 * math.pi)
    z = moduli * np.exp(1j * phases)
    return ComplexMatrix((u * z) @ u.conj().T)


_GAP_INTERVALS = {
    # B-spectrum entirely below A's, or entirely above; gap >= 0.1 by design
    "below_a": ((2.0, 3.0), (0.5, 1.0)),
    "above_a": ((0.5, 1.0), (2.0, 3.0)),
}


def random_gap_pair(dim: int, gap_mode: str, stream_seed: int):
    """A positive definite pair with disjoint spectral intervals.

    ``below_a`` realizes lambda_max(B) < lambda_min(A); ``above_a`` is the
    symmetric case lambda_max(A) < lambda_min(B).
    """
    if gap_mode not in _GAP_INTERVALS:
        raise ValueError(f"unknown gap mode {gap_mode!r}")
    (ma, Ma), (mb, Mb) = _GAP_INTERVALS[gap_mode]
    stream = RandomStream(stream_seed)
    a = _pd(stream, dim, ma, Ma)
    b = _pd(stream, dim, mb, Mb)
    return a, b
