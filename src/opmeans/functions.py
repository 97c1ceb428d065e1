"""Catalog of scalar functions with derivatives, convexity tags and inverses.

Every function is packaged as a :class:`ScalarFunction` carrying an
evaluator, an analytic derivative (``+inf`` permitted at a domain edge), a
domain interval, a convexity tag and an optional registered inverse.  The
module also provides chord-slope coefficients, n-fold composition, and the
three-part compatibility check for pairs of positive monotone functions
used by the contraction theorem checker.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import DomainViolationError, _flag

__all__ = [
    "Convexity",
    "Interval",
    "ScalarFunction",
    "FunctionPair",
    "ConditionResult",
    "PairConditionReport",
    "identity",
    "power",
    "times_x",
    "function_catalog",
    "function_by_name",
    "chord_coefficients",
    "iterate",
    "check_pair_conditions",
    "default_condition_grid",
    "parse_parameter",
]


class Convexity(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    NEITHER = "neither"


@dataclass(frozen=True)
class Interval:
    """A real interval with optionally open endpoints."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, x: float) -> bool:
        return not self.outside(x)

    def outside(self, xs):
        """Whether ``xs``, a value or an array of them, lies beyond an endpoint: elementwise."""
        return (xs <= self.lo if self.lo_open else xs < self.lo) | (
            xs >= self.hi if self.hi_open else xs > self.hi
        )

    def clamp(self, xs: np.ndarray, tol, errors=None) -> np.ndarray:
        """Clamp values within ``tol`` of a closed endpoint onto it.

        ``xs`` is a row of values or a stack of rows, ``tol`` one number or
        one per row.  A value outside by more than its row's ``tol`` (or beyond
        an open endpoint) raises :class:`DomainViolationError` naming it; with
        ``errors`` the row takes it (``core._flag``).  A row with an error, one
        it had before the call too, is set to a point inside the interval.
        """
        out = np.array(xs, dtype=np.float64, copy=True)
        rows = out.reshape(-1, out.shape[-1])
        lo, hi = self.lo, self.hi
        inside = (lo + hi) / 2.0 if hi - lo <= 2.0 else min(max(0.0, lo + 1), hi - 1)
        if errors is not None:
            rows[np.not_equal(errors, None)] = inside
        outside = self.outside(rows)
        if outside.any():
            for k in np.flatnonzero(outside.any(axis=1)):
                try:
                    self._clamp_row(rows[k], np.broadcast_to(tol, len(rows))[k])
                except DomainViolationError as exc:
                    _flag(errors, k, exc)
                    rows[k] = inside
        return out

    def _clamp_row(self, out: np.ndarray, tol: float) -> None:
        """:meth:`clamp` of one row, in place."""
        below = out < self.lo
        above = out > self.hi
        if self.lo_open:
            bad = out <= self.lo
            if np.any(bad):
                raise DomainViolationError(
                    f"value {float(out[bad][0])} outside open lower endpoint of {self}"
                )
        elif np.any(below):
            worst = out[below].min()
            if self.lo - worst > tol:
                raise DomainViolationError(f"value {float(worst)} outside domain {self}")
            out[below] = self.lo
        if self.hi_open:
            bad = out >= self.hi
            if np.any(bad):
                raise DomainViolationError(
                    f"value {float(out[bad][0])} outside open upper endpoint of {self}"
                )
        elif np.any(above):
            worst = out[above].max()
            if worst - self.hi > tol:
                raise DomainViolationError(f"value {float(worst)} outside domain {self}")
            out[above] = self.hi

    def __str__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


NONNEG = Interval(0.0, math.inf)
REALS = Interval()


@dataclass(frozen=True, eq=False)
class ScalarFunction:
    """A named scalar function with derivative, domain and convexity class.

    ``fn`` and ``deriv`` accept floats or numpy arrays.  ``fixes_zero``
    asserts f(0) = 0; ``inverse`` is an optional registered inverse used by
    the inverse-function bound checker.  A function and its inverse point
    at each other, so functions compare and hash by identity.
    """

    name: str
    fn: Callable
    deriv: Callable
    domain: Interval = NONNEG
    convexity: Convexity = Convexity.NEITHER
    fixes_zero: bool = False
    inverse: Optional["ScalarFunction"] = field(default=None, repr=False)

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"ScalarFunction({self.name!r})"


@dataclass(frozen=True)
class FunctionPair:
    """A (g, h) pair of positive matrix monotone functions.

    Matrix monotonicity is asserted by catalog metadata, not verified
    symbolically; a low-dimensional spot check lives in the test suite.
    """

    g: ScalarFunction
    h: ScalarFunction


def _pair_inverses(f: ScalarFunction, g: ScalarFunction) -> None:
    object.__setattr__(f, "inverse", g)
    object.__setattr__(g, "inverse", f)


def parse_parameter(text: str) -> float:
    """Parse a numeric parameter, accepting fractions like ``3/2``."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _fmt(r: float) -> str:
    for num in range(1, 10):
        for den in range(1, 10):
            if abs(r - num / den) < 1e-12:
                return f"{num}/{den}" if den != 1 else f"{num}"
    return f"{r:g}"


def identity() -> ScalarFunction:
    f = ScalarFunction(
        "identity",
        fn=lambda x: x + 0.0,
        deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0,
        domain=REALS,
        convexity=Convexity.CONVEX,
        fixes_zero=True,
    )
    object.__setattr__(f, "inverse", f)
    return f


def power(r: float, with_inverse: bool = True) -> ScalarFunction:
    """x**r on [0, inf) (all reals when r is 1 or 2), r > 0.

    Convex for r >= 1, concave for r < 1.  The derivative at 0 is +inf for
    r < 1.  The inverse x**(1/r) is registered unless ``with_inverse`` is
    false.
    """
    r = float(r)
    if r <= 0:
        raise ValueError("power exponent must be positive")
    domain = REALS if r in (1.0, 2.0) else NONNEG

    def fn(x, _r=r):
        return np.power(x, _r) if np.ndim(x) else float(x) ** _r

    def deriv(x, _r=r):
        if np.ndim(x):
            at_zero = 1.0 if _r == 1 else (0.0 if _r > 1 else np.inf)
            with np.errstate(divide="ignore"):
                out = np.where(
                    np.asarray(x, dtype=float) == 0.0,
                    at_zero,
                    _r * np.power(np.where(np.asarray(x, dtype=float) == 0.0, 1.0, x), _r - 1.0),
                )
            return out
        x = float(x)
        if x == 0.0:
            if _r > 1:
                return 0.0
            if _r == 1:
                return 1.0
            return math.inf
        return _r * x ** (_r - 1.0)

    f = ScalarFunction(
        f"power:{_fmt(r)}",
        fn=fn,
        deriv=deriv,
        domain=domain,
        convexity=Convexity.CONVEX if r >= 1 else Convexity.CONCAVE,
        fixes_zero=True,
    )
    if with_inverse and r != 1.0:
        _pair_inverses(f, power(1.0 / r, with_inverse=False))
    elif r == 1.0:
        _pair_inverses(f, f)
    return f


def _sqrt() -> ScalarFunction:
    def deriv(x):
        if np.ndim(x):
            with np.errstate(divide="ignore"):
                return np.where(np.asarray(x, dtype=float) == 0.0, np.inf, 0.5 / np.sqrt(x))
        return math.inf if x == 0.0 else 0.5 / math.sqrt(x)

    f = ScalarFunction(
        "sqrt", fn=np.sqrt, deriv=deriv, domain=NONNEG,
        convexity=Convexity.CONCAVE, fixes_zero=True,
    )
    _pair_inverses(f, power(2.0, with_inverse=False))
    return f


def _log1p() -> ScalarFunction:
    f = ScalarFunction(
        "log1p",
        fn=np.log1p,
        deriv=lambda x: 1.0 / (1.0 + x),
        domain=Interval(-1.0, math.inf, lo_open=True),
        convexity=Convexity.CONCAVE,
        fixes_zero=True,
    )
    g = ScalarFunction(
        "expm1",
        fn=np.expm1,
        deriv=np.exp,
        domain=REALS,
        convexity=Convexity.CONVEX,
        fixes_zero=True,
    )
    _pair_inverses(f, g)
    return f


def _mobius() -> ScalarFunction:
    f = ScalarFunction(
        "mobius",
        fn=lambda x: x / (1.0 + x),
        deriv=lambda x: 1.0 / (1.0 + x) ** 2,
        domain=Interval(-1.0, math.inf, lo_open=True),
        convexity=Convexity.CONCAVE,
        fixes_zero=True,
    )
    g = ScalarFunction(
        "mobius-inverse",
        fn=lambda x: x / (1.0 - x),
        deriv=lambda x: 1.0 / (1.0 - x) ** 2,
        domain=Interval(-math.inf, 1.0, hi_open=True),
        convexity=Convexity.CONVEX,
        fixes_zero=True,
    )
    _pair_inverses(f, g)
    return f


def _log() -> ScalarFunction:
    return ScalarFunction(
        "log",
        fn=np.log,
        deriv=lambda x: 1.0 / x,
        domain=Interval(0.0, math.inf, lo_open=True),
        convexity=Convexity.CONCAVE,
    )


def _x_over_log() -> ScalarFunction:
    # positive matrix monotone on (1, inf); companion of log in the
    # contraction pair examples
    def fn(x):
        return x / np.log(x)

    def deriv(x):
        lg = np.log(x)
        return (lg - 1.0) / lg**2

    return ScalarFunction(
        "x_over_log", fn=fn, deriv=deriv,
        domain=Interval(1.0, math.inf, lo_open=True),
    )


def times_x(g: ScalarFunction) -> ScalarFunction:
    """The function x -> x * g(x); fixes zero whenever 0 is in g's domain."""
    def fn(x, _g=g):
        return x * _g.fn(x)

    def deriv(x, _g=g):
        return _g.fn(x) + x * _g.deriv(x)

    return ScalarFunction(
        f"x*{g.name}", fn=fn, deriv=deriv, domain=g.domain,
        convexity=Convexity.NEITHER,
        fixes_zero=g.domain.contains(0.0),
    )


_CANONICAL_POWERS = ("1/2", "2/3", "1", "3/2", "2", "3")


def function_catalog() -> list[ScalarFunction]:
    """The built-in catalog: identity, powers, log1p, expm1, mobius, sqrt."""
    entries = [identity()]
    entries.extend(power(parse_parameter(p)) for p in _CANONICAL_POWERS)
    log1p = _log1p()
    entries.append(log1p)
    entries.append(log1p.inverse)
    entries.append(_mobius())
    entries.append(_sqrt())
    return entries


def function_by_name(name: str) -> ScalarFunction:
    """Resolve a function selection string.

    Accepted: ``identity``, ``power:r`` (r may be a fraction such as
    ``3/2``), ``log1p``, ``expm1``, ``mobius``, ``sqrt``, ``log``,
    ``x_over_log``.
    """
    key = name.strip()
    head, _, param = key.partition(":")
    head = head.lower()
    if head == "identity":
        return identity()
    if head == "power":
        return power(parse_parameter(param))
    if head == "log1p":
        return _log1p()
    if head == "expm1":
        return _log1p().inverse
    if head == "mobius":
        return _mobius()
    if head == "sqrt":
        return _sqrt()
    if head == "log":
        return _log()
    if head == "x_over_log":
        return _x_over_log()
    raise ValueError(f"unknown function name {name!r}")


def chord_coefficients(f: ScalarFunction, m: float, M: float) -> tuple[float, float]:
    """Endpoint derivatives (a, b) = (f'(m), f'(M)) for 0 <= m < M.

    For a convex function these bracket the chord slope,
    a <= (f(M) - f(m)) / (M - m) <= b; the ordering is reversed for a
    concave function.  The bracket is asserted as a consistency gate.
    A convex function with an infinite endpoint derivative is rejected.
    """
    if not 0.0 <= m < M:
        raise ValueError(f"need 0 <= m < M, got m={m}, M={M}")
    if not (f.domain.contains(m) and f.domain.contains(M)):
        raise DomainViolationError(f"[{m}, {M}] not inside domain of {f.name}")
    a = float(f.deriv(m))
    b = float(f.deriv(M))
    if f.convexity is Convexity.CONVEX and not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"infinite endpoint derivative for convex {f.name}")
    slope = (float(f(M)) - float(f(m))) / (M - m)
    tol = 1e-9 * (1.0 + max(abs(slope), *(abs(c) for c in (a, b) if math.isfinite(c))))
    if f.convexity is Convexity.CONVEX:
        if a > slope + tol or slope > b + tol:
            raise ValueError(f"chord ordering violated for convex {f.name}")
    elif f.convexity is Convexity.CONCAVE:
        if b > slope + tol or slope > a + tol:
            raise ValueError(f"chord ordering violated for concave {f.name}")
    return a, b


def iterate(f: ScalarFunction, n: int) -> ScalarFunction:
    """n-fold composition of f with itself; iterate(f, 1) is f.

    Evaluation validates that each intermediate value stays inside the
    domain of f and raises a domain error naming the failing depth.
    """
    if n < 1:
        raise ValueError("iteration count must be a positive integer")
    if n == 1:
        return f

    def _check(y, depth):
        arr = np.asarray(y, dtype=float)
        lo, hi = float(arr.min()), float(arr.max())
        if not (f.domain.contains(lo) and f.domain.contains(hi)):
            raise DomainViolationError(
                f"iterate({f.name}, {n}): value escapes domain at depth {depth}"
            )

    def fn(x, _f=f, _n=n):
        y = x
        for depth in range(_n):
            _check(y, depth)
            y = _f.fn(y)
        return y

    def deriv(x, _f=f, _n=n):
        y = x
        d = 1.0
        for depth in range(_n):
            _check(y, depth)
            d = d * _f.deriv(y)
            y = _f.fn(y)
        return d

    return ScalarFunction(
        f"{f.name}^{n}", fn=fn, deriv=deriv, domain=f.domain,
        convexity=f.convexity, fixes_zero=f.fixes_zero,
    )


@dataclass(frozen=True)
class ConditionResult:
    """Grid verdict for one pair condition."""

    condition: str
    direction: str  # "forward" | "reversed" | "mixed"
    worst_violation: float  # max over grid of lhs - rhs; <= 0 when forward holds
    holds_forward: bool
    holds_reversed: bool


@dataclass(frozen=True)
class PairConditionReport:
    results: tuple[ConditionResult, ...]

    @property
    def all_forward(self) -> bool:
        return all(r.holds_forward for r in self.results)

    @property
    def all_reversed(self) -> bool:
        return all(r.holds_reversed for r in self.results)


def default_condition_grid() -> np.ndarray:
    """256 log-spaced points on (1e-2, 1e2)."""
    return np.geomspace(1e-2, 1e2, 256)


def _classify(condition: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> ConditionResult:
    diff = lhs - rhs
    allow = tol * (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
    fwd = bool(np.all(diff <= allow))
    rev = bool(np.all(diff >= -allow))
    direction = "forward" if fwd else ("reversed" if rev else "mixed")
    return ConditionResult(condition, direction, float(diff.max()), fwd, rev)


def check_pair_conditions(
    pair: FunctionPair, grid: np.ndarray | None = None, tol: float = 1e-9
) -> PairConditionReport:
    """Evaluate the three (g, h) compatibility conditions pointwise.

    Conditions as stated:

    (i)   g(1/h(x)) <= 1/h(g(x))
    (ii)  g(x/h(x)) <= g(x)/h(g(x))
    (iii) h(x*g(x)) <= h(x)*h(g(x))

    Each condition is classified as holding forward, reversed, or mixed
    on the grid, together with its maximal signed violation.  A grid point
    leaving a domain raises a domain error.
    """
    g, h = pair.g, pair.h
    xs = default_condition_grid() if grid is None else np.asarray(grid, dtype=float)
    xs = xs[~(g.domain.outside(xs) | h.domain.outside(xs))]
    if xs.size == 0:
        raise ValueError("empty grid after intersecting with domains")

    def ev(f, v):
        arr = np.asarray(v, dtype=float)
        lo, hi = float(arr.min()), float(arr.max())
        if not (f.domain.contains(lo) and f.domain.contains(hi)):
            bad = lo if not f.domain.contains(lo) else hi
            raise DomainViolationError(f"{f.name} undefined at grid image {bad!r}")
        return np.asarray(f.fn(arr), dtype=float)

    hx = ev(h, xs)
    gx = ev(g, xs)
    hgx = ev(h, gx)
    c1 = _classify("g(1/h) <= (1/h)(g)", ev(g, 1.0 / hx), 1.0 / hgx, tol)
    c2 = _classify("g(x/h) <= (x/h)(g)", ev(g, xs / hx), gx / hgx, tol)
    c3 = _classify("h(xg) <= h(x)h(g)", ev(h, xs * gx), hx * hgx, tol)
    return PairConditionReport((c1, c2, c3))
