"""Factorization counts: each operand is factored once.

``check_main_chain`` factors A, B and S = A sigma B once each and reuses
A's eigenvectors for f(A); ``mean`` factors A once for its gate and its
congruence.  The tests count LAPACK eigensolves through numpy.
"""

import numpy as np
import pytest

from opmeans import function_by_name, mean, mean_by_name
from opmeans.checks import check_main_chain
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_pd


def _pd_pair(dim, seed):
    cfg = GeneratorConfig(dim, 0.5, 4.0)
    return (
        random_pd(cfg, derive_stream_seed(seed, 0)).entries,
        random_pd(cfg, derive_stream_seed(seed, 1)).entries,
    )


@pytest.fixture
def eigensolves(monkeypatch):
    """Count calls of numpy.linalg.eigh and eigvalsh, the only eigensolvers used."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            counts[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("fn", ["power:2", "sqrt"])
def test_main_chain_factorizations(eigensolves, fn):
    a, b = _pd_pair(4, 3)
    out = check_main_chain(function_by_name(fn), mean_by_name("geometric:1/2"), a, b)
    assert out.passed
    # eigh of A, B, S and the two congruence middles; eigvalsh for the two
    # links against f(A) sigma f(B) and for its norm
    assert eigensolves["eigh"] + eigensolves["eigvalsh"] <= 8, eigensolves


def test_mean_factorizations(eigensolves):
    a, b = _pd_pair(4, 5)
    mean(mean_by_name("harmonic:1/4"), a, b)
    # eigh of A and of the congruence middle, eigvalsh of B for its gate
    assert eigensolves["eigh"] + eigensolves["eigvalsh"] <= 3, eigensolves
