"""Mean contraction under iteration, and the limits of the pair conditions.

For positive monotone g, h satisfying three compatibility conditions,
A sigma_h B <= I propagates to f^k(A) sigma_h f^k(B) <= I for every
iterate of f(x) = x g(x).  Power pairs satisfy the conditions with
equality; the often-quoted pair (log x, x / log x) does NOT satisfy the
third condition everywhere: h(xg(x)) <= h(x) h(g(x)) reduces to
1/log x + 1/log log x >= 1, which fails beyond x ~ 47.34.
"""

import math

import numpy as np

from opmeans import FunctionPair, check_contraction_implication, check_pair_conditions, function_by_name, power
from opmeans.means import MatrixMean, normalize_for_contraction
from opmeans.randgen import GeneratorConfig, derive_stream_seed, random_pd

pair = FunctionPair(power(0.5), power(0.5))
print("pair (g, h) = (x^1/2, x^1/2):")
for res in check_pair_conditions(pair).results:
    print(f"  {res.condition:<22} direction={res.direction}, "
          f"worst violation {res.worst_violation:+.2e}")

cfg = GeneratorConfig(3, 0.5, 4.0)
A = random_pd(cfg, derive_stream_seed(13, 0))
B = random_pd(cfg, derive_stream_seed(13, 1))
sigma_h = MatrixMean("h:power:1/2", pair.h)
A, B = normalize_for_contraction(sigma_h, A, B)
out = check_contraction_implication(pair, A, B, n_iter=4)
print("\niterates of f(x) = x^(3/2) on a normalized pair:")
for link in out.links:
    print(f"  {link.description:<15} margin {link.margin:+.6f}  "
          f"{'ok' if link.passed else 'VIOLATED'}")

print("\npair (g, h) = (log x, x/log x) on (e, 100]:")
logpair = FunctionPair(function_by_name("log"), function_by_name("x_over_log"))
grid = np.geomspace(math.e * 1.000001, 100.0, 256)
for res in check_pair_conditions(logpair, grid=grid).results:
    print(f"  {res.condition:<22} direction={res.direction}, "
          f"worst violation {res.worst_violation:+.4f}")
print("  -> condition (iii) flips sign within the interval, so the")
print("     contraction implication carries no direction for this pair there;")
print("     restricted to (e, 40] all three conditions do hold:")
for res in check_pair_conditions(logpair, grid=np.geomspace(math.e * 1.000001, 40.0, 128)).results:
    print(f"  {res.condition:<22} direction={res.direction}")
