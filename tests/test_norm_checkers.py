"""normal_triangle and transplanted_norm_chain margins, bit for bit, against norms taken one by one.

The oracle takes every norm one matrix and one kind at a time: through
``core.norm`` for a matrix, and through a one-row, one-kind
``core._norm_table`` for singular values the checker holds without their
matrix (those of f(|A|) + f(|B|) and of f(|A| + |B|)).  A checker that
takes its norms from one stacked table must give the margins of these
one-by-one norms.
"""

import numpy as np
import pytest

from opmeans import checks
from opmeans.core import (
    NormKind,
    _norm_table,
    as_complex_array,
    matrix_abs,
    norm,
    singular_values,
)
from opmeans.functions import function_by_name
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_normal

SEEDS = range(20)
F = function_by_name("power:2")


def _kinds(dim):
    fixed = ("schatten:1.5", "schatten:3", "schatten:7", "operator")
    return [NormKind.parse(k) for k in fixed] + [NormKind.ky_fan(k) for k in range(1, dim + 1)]


def _pairs(structure, dim):
    cfg = GeneratorConfig(dim, 0.5, 4.0, structure)
    for seed in SEEDS:
        yield tuple(
            as_complex_array(random_normal(cfg, derive_stream_seed(seed, k))) for k in (0, 1)
        )


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


GRID = pytest.mark.parametrize(
    "structure, dim",
    [(s, d) for s in ("normal_complex", "hermitian_indefinite") for d in (2, 3, 5, 8)],
)


@GRID
def test_normal_triangle_margins_bit_for_bit(structure, dim):
    kinds = _kinds(dim)
    for a, b in _pairs(structure, dim):
        rec = checks.check_normal_triangle(a, b, kinds)
        abs_sum = matrix_abs(a, normal_hint=True).entries + matrix_abs(b, normal_hint=True).entries
        want = [norm(abs_sum, kind) - norm(a + b, kind) for kind in kinds]
        assert _bits(rec.margins) == _bits(want)


@GRID
def test_transplanted_norm_chain_margins_bit_for_bit(structure, dim):
    kinds = _kinds(dim)
    for a, b in _pairs(structure, dim):
        rec = checks.check_transplanted_norm_chain(F, a, b, kinds)
        M = float(np.concatenate([singular_values(a), singular_values(b)]).max())
        factors, _, _, abs_sum = checks._abs_factors([a], [b])
        spectra = checks._abs_images(F, factors, abs_sum)
        want = []
        for kind in kinds:
            bound = (float(F(M)) / M) * norm(a + b, kind)
            want += [bound - _norm_table(sv[None], [kind])[0, 0] for sv in spectra]
        assert _bits(rec.margins) == _bits(want)
