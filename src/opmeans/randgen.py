"""Deterministic, seed-driven generation of structured random instances.

The randomness source is an embedded 64-bit SplitMix sequence rather than
the platform default generator, so identical (config, stream seed) pairs
reproduce bit-for-bit across runs and implementations.  Stream seeds for
independent trials derive from a master seed through the documented
splitting rule::

    stream_seed = mix64(master_seed + GOLDEN * (trial_index + 1))

where mix64 is the SplitMix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.

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


class RandomStream:
    """SplitMix64 stream with uniform and Gaussian draws.

    Gaussians use Box-Muller on consecutive uniforms; the spare half is
    cached, so the draw order is fully determined by the call sequence.
    """

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._spare = None

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def normal(self) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = 1.0 - self.uniform()  # (0, 1], keeps log finite
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def complex_gaussian(self, dim: int) -> np.ndarray:
        out = np.empty((dim, dim), dtype=np.complex128)
        for i in range(dim):
            for j in range(dim):
                out[i, j] = complex(self.normal(), self.normal()) / math.sqrt(2.0)
        return out


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
    lam = np.array([stream.uniform(m, M) for _ in range(dim)])
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
        phases = np.array([0.0 if stream.uniform() < 0.5 else math.pi for _ in range(dim)])
    else:
        phases = np.array([stream.uniform(0.0, 2.0 * math.pi) for _ in range(dim)])
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
