"""One checker per verified inequality statement.

Each checker evaluates every link of its claimed chain, records a signed
margin per link, and aggregates pass/fail under a relative tolerance.

Margin conventions
------------------
* Loewner link ``L <= R``: margin is the smallest eigenvalue of R - L and
  the link passes when margin >= -tol * (1 + ||R||_op).
* Scalar link ``l <= r``: margin is r - l and the link passes when
  margin >= -tol * (1 + max(|l|, |r|)).

Links whose coefficients are infinite, or whose side conditions fail, are
recorded as inapplicable (``applicable=False``) rather than failed; an
inapplicable link never fails the outcome.  Chains for concave functions
run with every comparison reversed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    NormKind,
    NotNormalError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    ShapeError,
    _compose,
    _det_root,
    _eigh,
    _eigvalsh,
    _finite,
    _fn_values,
    _loewner,
    _loewner_on_spectrum,
    _norm_of_sv,
    _normal_factors,
    _opnorm_hermitian,
    _sv_hermitian,
    as_complex_array,
    as_hermitian_array,
    apply_fn,
    hermitian_part,
    matrix_abs,
    norm,
    norm_catalog,
    singular_values,
)
from .functions import (
    Convexity,
    FunctionPair,
    ScalarFunction,
    chord_coefficients,
    check_pair_conditions,
    function_by_name,
    times_x,
)
from .means import (
    MatrixMean,
    _mean_from_middle,
    _mean_middle,
    _perspective_from_middle,
    _require_definite,
    geometric,
)

__all__ = [
    "Link",
    "CheckOutcome",
    "check_chord_bounds",
    "check_main_chain",
    "check_main_chain_grid",
    "check_log_example",
    "check_mean_difference_norm",
    "check_eig_prod_norm",
    "check_subadditivity_refinement",
    "check_normal_counterexample",
    "check_normal_triangle",
    "check_normal_chain",
    "check_transplanted_norm_chain",
    "check_power_mean_bounds",
    "check_ando_hiai_comparison",
    "check_contraction_implication",
    "check_inverse_function",
    "check_determinant_suite",
    "SharedPair",
    "SharedOperand",
]


@dataclass(frozen=True)
class Link:
    """One verified inequality link: description, margin, pass flag."""

    description: str
    margin: float
    passed: bool
    applicable: bool = True

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "margin": self.margin,
            "passed": self.passed,
            "applicable": self.applicable,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Link":
        return cls(d["description"], d["margin"], d["passed"], d["applicable"])


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one inequality-statement verification."""

    check_name: str
    claim: str
    links: tuple[Link, ...]
    params: dict

    def __post_init__(self):
        if not all(math.isfinite(link.margin) for link in self.links):
            raise ValueError("link margins must be finite")

    @property
    def passed(self) -> bool:
        return all(link.passed for link in self.links)

    @property
    def failed_links(self) -> int:
        return sum(1 for link in self.links if not link.passed)

    def with_params(self, extra: dict) -> "CheckOutcome":
        merged = dict(extra)
        merged.update(self.params)
        return replace(self, params=merged)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "claim": self.claim,
            "links": [link.to_dict() for link in self.links],
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckOutcome":
        return cls(
            d["check_name"],
            d["claim"],
            tuple(Link.from_dict(x) for x in d["links"]),
            dict(d["params"]),
        )


def _scalar_link(desc, lhs, rhs, tol, applicable=True) -> Link:
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs
    scale = 1.0 + max(abs(lhs), abs(rhs))
    passed = True if not applicable else bool(margin >= -tol * scale)
    return Link(desc, margin, passed, applicable)


def _loewner_link(desc, lo, hi, tol) -> Link:
    (res,) = _loewner([(lo[None], hi[None], None)], tol)
    return Link(desc, float(res.margin[0]), bool(res.passed[0]))


def _equality_link(desc, got, want, tol) -> Link:
    got = float(got)
    diff = abs(got - float(want))
    return Link(desc, -diff, bool(diff <= tol), True)


def _vacuous(desc) -> Link:
    return Link(desc, 0.0, True, False)


def _require_tagged(f: ScalarFunction):
    if f.convexity is Convexity.NEITHER:
        raise ValueError(f"{f.name} carries no convexity tag; checker needs convex or concave")
    return f.convexity is Convexity.CONVEX


def _chain_coefficients(f: ScalarFunction, m: float, M: float):
    return (float(f.deriv(0.0)), float(f(m)) / m, float(f(M)) / M, float(f.deriv(M)))


def _chain(prefix, coefs, forward, link):
    """Four links c0 S ? c1 S ? X ? c2 S ? c3 S (direction per tag).

    ``link(desc, lo, hi)`` makes the link lo <= hi, where a side is the
    coefficient c standing for c S, or ``None`` standing for X.  Each step
    lists the coefficients that must be finite for it to apply.
    """
    c0, c1, c2, c3 = coefs
    links = []
    for name, needs, lo, hi in (
        ("edge-low", (c0, c1), c0, c1),
        ("low", (c1,), c1, None),
        ("high", (), None, c2),
        ("edge-high", (c3,), c2, c3),
    ):
        desc = f"{prefix}:{name}"
        if not all(math.isfinite(c) for c in needs):
            links.append(_vacuous(desc))
            continue
        links.append(link(desc, lo, hi) if forward else link(desc, hi, lo))
    return links


def _scalar_chain(prefix, s, x, coefs, forward, tol):
    """The chain on numbers: s stands for S and x for X."""

    def link(desc, lo, hi):
        return _scalar_link(desc, x if lo is None else lo * s, x if hi is None else hi * s, tol)

    return _chain(prefix, coefs, forward, link)


def _psd(factors, tol):
    """:attr:`SharedPair.factors` for PSD operands.

    m below -tol * scale raises, else is floored at 0.
    """
    fa, fb, m, M = factors
    scale = 1.0 + max(abs(m), abs(M))
    if m < -tol * scale:
        raise NotPositiveSemidefiniteError(f"operand eigenvalue {m:.6e} below -tol*scale")
    return fa, fb, max(m, 0.0), M


def _image(f, w, v):
    """f(X) from the eigenpairs (w, v) of X."""
    return _finite(_compose(v, _fn_values(f, w)))


def _middle_of(wa, wb, w, tol):
    """The mean-independent half of diag(wa) sigma (W diag(wb) W*), in A's eigenbasis.

    ``w`` holds B's eigenvectors written in A's eigenbasis
    (:attr:`SharedPair.basis`), so any functions of A and B keep the form
    diag(f(wa)) and W diag(g(wb)) W* there.
    """
    return _mean_middle(wa, _finite(_compose(w, wb)), wb, tol)


@cache
def _power(r):
    """x^r, one object per exponent, so the middles of A^r sigma B^r are kept per exponent."""
    return function_by_name(f"power:{r:g}")


def _require_fixes_zero(f):
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")


def _require_positive(m):
    if m <= 0.0:
        raise NotPositiveDefiniteError("positive definite operands required")


class SharedPair:
    """A Hermitian instance (A, B): validated and factored once, its factors reused.

    Every checker of a Hermitian pair reads A, B and their factors from a
    pair.  A suite builds one pair per trial and hands each record the
    pair's :meth:`operands`, so the records of a trial share what they
    compute from it.  Each value is computed when a checker first asks for
    it and then kept: the eigenpairs of A and B and B's eigenvectors in A's
    eigenbasis once, the congruence middle A^(-1/2) B A^(-1/2) once, the
    middle of f(A) sigma f(B) once per function, and S = A sigma B with its
    eigenpairs once per tuple of means asked for together, as one stack
    (:func:`check_main_chain_grid` asks for all of a trial's means, other
    checkers for one).  Every mean is taken in A's eigenbasis, where A and
    its functions are diagonal and A^(+-1/2) is an exact scaling; checkers
    compare means only through Loewner margins, spectra and norms, which do
    not depend on the basis.  A step that raises keeps nothing, so every
    record that reaches it raises the same error; a mean whose own step
    fails keeps its error in its row.  A checker given raw matrices wraps
    them in a fresh pair, so both paths run the same code.
    """

    def __init__(self, A, B, tol=DEFAULT_TOL):
        self.a = as_hermitian_array(A)
        self.b = as_hermitian_array(B)
        self.tol = tol
        # (name, *ids of keys) -> (keys, value); holding the keys keeps their ids from being reused
        self._kept = {}

    def _keep(self, name, keys, compute):
        slot = (name, *map(id, keys))
        if slot not in self._kept:
            self._kept[slot] = (keys, compute())
        return self._kept[slot][1]

    @cached_property
    def factors(self):
        """(a, wa, va), (b, wb, vb) and the extreme eigenvalues (m, M) of both."""
        fa, fb = (self.a, *_eigh(self.a)), (self.b, *_eigh(self.b))
        wa, wb = fa[1], fb[1]
        if wa.size != wb.size:
            raise ShapeError("operands must have the same dimension")
        return fa, fb, float(min(wa[0], wb[0])), float(max(wa[-1], wb[-1]))

    @cached_property
    def basis(self):
        """B's eigenvectors written in A's eigenbasis, W = Va* Vb: there B = W diag(wb) W*."""
        (_, _, va), (_, _, vb), _, _ = self.factors
        return va.conj().T @ vb

    @cached_property
    def middle(self):
        """The mean-independent half of A sigma B."""
        (_, wa, _), (_, wb, _), _, _ = self.factors
        return _middle_of(wa, wb, self.basis, self.tol)

    def mean_stack(self, sigmas: tuple):
        """S = A sigma B, in A's eigenbasis, for each of ``sigmas`` as one stack, and row errors."""

        def compute():
            errors = [None] * len(sigmas)
            return _mean_from_middle([s.h for s in sigmas], self.middle, self.tol, errors), errors

        return self._keep("S", sigmas, compute)

    def mean_eigh(self, sigmas: tuple):
        """The eigenpairs of each S of :meth:`mean_stack`, by one stacked eigh."""
        return self._keep("eigh", sigmas, lambda: _eigh(*self.mean_stack(sigmas)))

    def mean(self, sigma):
        """S = A sigma B."""
        (S,), (error,) = self.mean_stack((sigma,))
        if error is not None:
            raise error
        return S

    def image_middle(self, f):
        """The mean-independent half of f(A) sigma f(B), from f on the spectra of A and B."""
        (_, wa, _), (_, wb, _), _, _ = self.factors

        def compute():
            return _middle_of(_finite(_fn_values(f, wa)), _fn_values(f, wb), self.basis, self.tol)

        return self._keep("image", (f,), compute)

    def means(self, f, sigma):
        """S = A sigma B and X = f(A) sigma f(B), S first."""
        S = self.mean(sigma)
        return S, _mean_from_middle([sigma.h], self.image_middle(f), self.tol)[0]

    def operands(self) -> tuple["SharedOperand", "SharedOperand"]:
        """A and B, carrying this pair to the checkers they are handed to."""
        return SharedOperand(self, 0), SharedOperand(self, 1)


@dataclass(frozen=True, eq=False)
class SharedOperand:
    """Operand A (``which`` 0) or B (1) of a :class:`SharedPair`.

    Acts as the raw matrix wherever an array is expected.
    """

    pair: SharedPair
    which: int

    def __array__(self, dtype=None, copy=None):
        # a copy unless asked for none, so no caller can write into the shared pair
        arr = self.pair.b if self.which else self.pair.a
        return np.array(arr, dtype=dtype, copy=copy is not False)


def _pair(A, B, tol):
    """The pair of operands A, B from one :meth:`SharedPair.operands` call, else a fresh one."""
    if (
        isinstance(A, SharedOperand)
        and isinstance(B, SharedOperand)
        and (A.which, B.which) == (0, 1)
        and A.pair is B.pair
        and A.pair.tol == tol
    ):
        return A.pair
    return SharedPair(A, B, tol)


def _norm_kinds(norms, dim):
    if norms is None:
        # trace and Frobenius repeat Schatten 1 and 2 under other names
        return [k for k in norm_catalog(dim) if k.variant not in ("trace", "frobenius")]
    return [NormKind.parse(k) if isinstance(k, str) else k for k in norms]


def check_chord_bounds(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Mean of the endpoint secant lines brackets the mean of the images.

    The lines slope (X - mI) + f(m) I are functions of X, so they share the
    operands' eigenvectors with f(A) and f(B); A and B are factored once, and
    f(A) sigma f(B) comes from the pair's kept middle.
    """
    pair = _pair(A, B, tol)
    forward = _require_tagged(f)
    fa, fb, m, M = _psd(pair.factors, tol)
    lo_c, hi_c = chord_coefficients(f, m, M)
    if not (math.isfinite(lo_c) and math.isfinite(hi_c)):
        raise ValueError(f"infinite chord coefficient for {f.name} on [{m}, {M}]")
    fm = float(f(m))
    (_, wa, _), (_, wb, _) = fa, fb

    def line_mean(slope):
        middle = _middle_of(slope * (wa - m) + fm, slope * (wb - m) + fm, pair.basis, tol)
        return _mean_from_middle([sigma.h], middle, tol)[0]

    mid = _mean_from_middle([sigma.h], pair.image_middle(f), tol)[0]
    low = line_mean(lo_c)
    high = line_mean(hi_c)
    if forward:
        links = (
            _loewner_link("lower-slope-line", low, mid, tol),
            _loewner_link("upper-slope-line", mid, high, tol),
        )
    else:
        links = (
            _loewner_link("lower-slope-line", mid, low, tol),
            _loewner_link("upper-slope-line", high, mid, tol),
        )
    params = {"fn": f.name, "mean": sigma.name, "m": m, "M": M, "a": lo_c, "b": hi_c}
    return CheckOutcome("chord_bounds", "secant-line-mean-bracket", links, params)


def check_main_chain(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Coefficient chain around f(A) sigma f(B) and around f(A sigma B).

    f'(0) S <= (f(m)/m) S <= f(A) sigma f(B) <= (f(M)/M) S <= f'(M) S with
    S = A sigma B, and the same chain around f(A sigma B); all comparisons
    reversed for concave f.  Links with an infinite coefficient are
    vacuous.  The 1 x 1 case of :func:`check_main_chain_grid`.
    """
    (outcome,) = check_main_chain_grid((f,), (sigma,), A, B, tol)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def check_main_chain_grid(fs, sigmas, A, B, tol=DEFAULT_TOL) -> list:
    """:func:`check_main_chain` for every function in ``fs`` and mean in ``sigmas``.

    Returns one entry per (f, sigma), f outermost: the record, or the
    ``ValueError`` that :func:`check_main_chain` raises for it.  All S =
    A sigma B are one stack with one stacked eigh (kept on the
    :class:`SharedPair`); per function, all X = f(A) sigma f(B) are one
    stack, the links between f(S) and S and the edge links are margins on
    spec(S), and the links against X and X itself for its norm take one
    stacked eigvalsh.  Gates and tolerances are each record's own, and a
    record that breaks down keeps its error and leaves the later solves.
    """
    pair = _pair(A, B, tol)
    sigmas = tuple(sigmas)
    records = []
    for f in fs:
        # per mean: None, then the record's error or its outcome
        results = [None] * len(sigmas)
        try:
            columns, params = _main_chain_links(pair, f, sigmas, results)
        except ValueError as exc:  # a step shared by all of f's records
            records += [error or exc for error in results]
            continue
        for k, sigma in enumerate(sigmas):
            if results[k] is None:
                links = tuple(column[k] for column in columns)
                params_k = {"fn": f.name, "mean": sigma.name, **params}
                try:
                    results[k] = CheckOutcome(
                        "main_chain", "mean-coefficient-chain", links, params_k
                    )
                except ValueError as exc:
                    results[k] = exc
        records += results
    return records


def _main_chain_links(pair, f, sigmas, errors):
    """f's links with each of ``sigmas``, one column per chain link, and the records' params.

    A step failing for one record sets its ``errors`` entry; one failing for all raises.
    """
    forward = _require_tagged(f)
    _require_fixes_zero(f)
    _, _, m, M = pair.factors
    if m <= 0.0:
        raise NotPositiveDefiniteError(f"spectra must be positive, got m={m:.6e}")
    tol = pair.tol
    S, errors[:] = pair.mean_stack(sigmas)
    X = _mean_from_middle([s.h for s in sigmas], pair.image_middle(f), tol, errors)
    ws, _ = pair.mean_eigh(sigmas)
    fws = _finite(_fn_values(f, ws, errors), errors)
    params = {"m": m, "M": M, "convex": forward, "dim": pair.a.shape[0]}
    if None not in errors:
        return [], params
    coefs = _chain_coefficients(f, m, M)
    norm_s = np.abs(ws).max(axis=-1)

    def against_x(lo, hi):
        scale = None if hi is None else 1.0 + abs(hi) * norm_s  # 1 + ||hi S|| from spec(S)
        return X if lo is None else lo * S, X if hi is None else hi * S, scale

    # links as (description, lo, hi); those against X are solved together
    around_x = _chain("fn-then-mean", coefs, forward, lambda *link: link)
    to_solve = [c for c in around_x if not isinstance(c, Link) and None in c[1:]]
    solved = _loewner([against_x(lo, hi) for _, lo, hi in to_solve], tol, errors)
    results = dict(zip((c[0] for c in to_solve), solved))
    columns = []
    for c in around_x + _chain("mean-then-fn", coefs, forward, lambda *link: link):
        if isinstance(c, Link):  # vacuous
            columns.append([c] * len(sigmas))
            continue
        desc, lo, hi = c
        res = results.get(desc) or _loewner_on_spectrum(
            fws if lo is None else lo * ws, fws if hi is None else hi * ws, tol, errors
        )
        columns.append([Link(desc, *r) for r in zip(res.margin.tolist(), res.passed.tolist())])
    return columns, params


def check_log_example(A, B, M=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """log(M+1)/M * log(A+B+I) <= log(A+I) + log(B+I) for PSD A, B."""
    (a, wa, va), (b, wb, vb), m, bound = _psd(_pair(A, B, tol).factors, tol)
    if M is None:
        M = bound
    M = float(M)
    coef = math.log1p(M) / M if M > 0.0 else 1.0
    log1p = function_by_name("log1p")
    lhs = coef * apply_fn(log1p, a + b).entries
    rhs = _image(log1p, wa, va) + _image(log1p, wb, vb)
    link = _loewner_link("shifted-log-bound", lhs, rhs, tol)
    return CheckOutcome(
        "log_example", "shifted-log-sum-bound", (link,), {"m": m, "M": M, "coef": coef}
    )


def check_mean_difference_norm(f, sigma, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """|||f(A) sigma f(B) - f(A sigma B)||| <= (f'(M) - f'(0)) |||A sigma B|||.

    f(S) is taken on S's eigenpairs; those and the norms of S are shared
    like S itself (see :func:`check_main_chain`).
    """
    pair = _pair(A, B, tol)
    if f.convexity is not Convexity.CONVEX:
        raise ValueError(f"mean-difference bound requires a convex function, got {f.name}")
    _require_fixes_zero(f)
    _, _, m, M = pair.factors
    _require_positive(m)
    d0, dM = float(f.deriv(0.0)), float(f.deriv(M))
    if not (math.isfinite(d0) and math.isfinite(dM)):
        raise ValueError("infinite endpoint derivative")
    _, X = pair.means(f, sigma)
    (ws,), (vs,) = pair.mean_eigh((sigma,))
    sv_diff = singular_values(X - hermitian_part(_image(f, ws, vs)))
    sv_s = _sv_hermitian(ws)
    links = tuple(
        _scalar_link(
            f"norm-difference[{kind.label()}]",
            _norm_of_sv(sv_diff, kind),
            (dM - d0) * _norm_of_sv(sv_s, kind),
            tol,
        )
        for kind in _norm_kinds(norms, pair.a.shape[0])
    )
    params = {"fn": f.name, "mean": sigma.name, "m": m, "M": M, "spread": dM - d0}
    return CheckOutcome("mean_difference_norm", "mean-difference-norm-bound", links, params)


def check_eig_prod_norm(f, sigma, A, B, tol=DEFAULT_TOL, norms=None) -> CheckOutcome:
    """Eigenvalue, product and norm versions of the coefficient chain.

    Per index j the chain holds for the j-th eigenvalues (decreasing), per
    k for the top-k eigenvalue products (requires positive spectrum), and
    per norm kind for the norms of the two sides.  S and spec(S) are shared
    like in :func:`check_main_chain`.
    """
    pair = _pair(A, B, tol)
    forward = _require_tagged(f)
    _require_fixes_zero(f)
    _, _, m, M = pair.factors
    _require_positive(m)
    _, X = pair.means(f, sigma)
    (ws,), _ = pair.mean_eigh((sigma,))
    wx = _eigvalsh(X)
    s, x = ws[::-1], wx[::-1]
    coefs = _chain_coefficients(f, m, M)
    links = []
    for j in range(s.size):
        links += _scalar_chain("eig", float(s[j]), float(x[j]), coefs, forward, tol)
    if s[-1] <= 0.0:
        raise NotPositiveSemidefiniteError("product links need a positive mean spectrum")
    for k in range(1, s.size + 1):
        ck = tuple(c**k if math.isfinite(c) else c for c in coefs)
        links += _scalar_chain(
            "prod", float(np.prod(s[:k])), float(np.prod(x[:k])), ck, forward, tol
        )
    sv_s, sv_x = _sv_hermitian(ws), _sv_hermitian(wx)
    for kind in _norm_kinds(norms, pair.a.shape[0]):
        ns, nx = _norm_of_sv(sv_s, kind), _norm_of_sv(sv_x, kind)
        links += _scalar_chain(f"norm[{kind.label()}]", ns, nx, coefs, forward, tol)
    params = {"fn": f.name, "mean": sigma.name, "m": m, "M": M, "convex": forward}
    return CheckOutcome("eig_prod_norm", "eigenvalue-product-norm-chains", tuple(links), params)


def check_subadditivity_refinement(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Refined subadditivity: |||f(A)+f(B)||| <= (f(M)/M)|||A+B||| <= |||f(A+B)|||.

    The bridging link needs M <= A + B; when that side condition fails it
    is reported inapplicable while the remaining links are still checked.
    The classical bound |||f(A)+f(B)||| <= |||f(A+B)||| is always included.

    A, B and A + B are factored once each: the singular values of f(A + B)
    are |f(w)| for the eigenvalues w of A + B.  Every norm kind is read off
    one singular-value vector per matrix.
    """
    pair = _pair(A, B, tol)
    if f.convexity is not Convexity.CONVEX:
        raise ValueError(f"subadditivity refinement requires a convex function, got {f.name}")
    _require_fixes_zero(f)
    (a, wa, va), (b, wb, vb), m, M = _psd(pair.factors, tol)
    if M <= 0.0:
        raise ValueError("zero operands leave no content to check")
    grid = np.geomspace(M * 1e-4, M, 64)
    ratios = np.asarray(f(grid), dtype=float) / grid
    if np.any(np.diff(ratios) < -1e-9 * (1.0 + np.abs(ratios[:-1]))):
        raise ValueError(f"f(x)/x is not nondecreasing for {f.name}")
    images = _image(f, wa, va) + _image(f, wb, vb)
    w_total = _eigvalsh(a + b)
    sv_image_of_total = _sv_hermitian(_finite(_fn_values(f, w_total)))
    floor = float(w_total[0])
    bridge_ok = floor >= M - tol * (1.0 + M)
    coef = float(f(M)) / M
    sv_total, sv_images = _sv_hermitian(w_total), _sv_hermitian(_eigvalsh(images))
    links = []
    for kind in _norm_kinds(norms, a.shape[0]):
        tot = coef * _norm_of_sv(sv_total, kind)
        lhs = _norm_of_sv(sv_images, kind)
        rhs = _norm_of_sv(sv_image_of_total, kind)
        label = kind.label()
        links.append(_scalar_link(f"images-vs-coef[{label}]", lhs, tot, tol))
        links.append(
            _scalar_link(f"coef-vs-image-of-sum[{label}]", tot, rhs, tol, applicable=bridge_ok)
        )
        links.append(_scalar_link(f"images-vs-image-of-sum[{label}]", lhs, rhs, tol))
    params = {
        "fn": f.name,
        "m": m,
        "M": M,
        "sum_floor": floor,
        "bridge_condition_met": bridge_ok,
    }
    return CheckOutcome("subadditivity_refinement", "subadditivity-refinement", tuple(links), params)


def _abs_images(f, a, b):
    """Shared terms of the norm chains on normal operands a, b.

    Each operand is factored once, by complex Schur: with a = Q T Q*,
    |a| = Q |diag T| Q* and f(|a|) = Q f(|diag T|) Q*.  Returns the smallest
    and largest eigenvalue modulus over both operands (their singular values
    when a and b are normal) and the singular values of f(|a|) + f(|b|) and
    of f(|a| + |b|).
    """
    (da, qa), (db, qb) = _normal_factors(a), _normal_factors(b)
    d = np.concatenate([da, db])
    images = _image(f, da, qa) + _image(f, db, qb)
    w_abs_sum = _eigvalsh(_compose(qa, da) + _compose(qb, db))
    return (
        float(d.min()),
        float(d.max()),
        _sv_hermitian(_eigvalsh(images)),
        _sv_hermitian(_finite(_fn_values(f, w_abs_sum))),
    )


def check_normal_counterexample(tol: float = 1e-10) -> CheckOutcome:
    """Reproduce the fixed 2x2 indefinite fixture that breaks the norm chain.

    With A = diag(2, -1), B = diag(-2, 1) and f(x) = x^2 the upper norm
    bounds fail spectacularly: both |||f(|A|)+f(|B|)||| = 8 and
    |||f(|A|+|B|)||| = 16 exceed (f(M)/M)|||A+B||| = f'(M)|||A+B||| = 0.
    """
    a = np.diag([2.0, -1.0]).astype(np.complex128)
    b = np.diag([-2.0, 1.0]).astype(np.complex128)
    f = function_by_name("power:2")
    m, M, sv_images, sv_image_of_abs = _abs_images(f, a, b)
    op = NormKind.operator()
    images_sum = _norm_of_sv(sv_images, op)
    image_of_abs_sum = _norm_of_sv(sv_image_of_abs, op)
    coef_bound = (float(f(M)) / M) * norm(a + b, op)
    deriv_bound = float(f.deriv(M)) * norm(a + b, op)
    links = (
        _equality_link("value[images-sum]", images_sum, 8.0, tol),
        _equality_link("value[image-of-abs-sum]", image_of_abs_sum, 16.0, tol),
        _equality_link("value[coef-bound]", coef_bound, 0.0, tol),
        _equality_link("value[deriv-bound]", deriv_bound, 0.0, tol),
        Link("violation[images-sum]", images_sum - coef_bound, images_sum > coef_bound + tol),
        Link(
            "violation[image-of-abs-sum]",
            image_of_abs_sum - coef_bound,
            image_of_abs_sum > coef_bound + tol,
        ),
    )
    params = {
        "fn": f.name,
        "M": M,
        "m": m,
        "norm_images_sum": images_sum,
        "norm_image_of_abs_sum": image_of_abs_sum,
        "coef_bound": coef_bound,
        "deriv_bound": deriv_bound,
    }
    return CheckOutcome("normal_counterexample", "normal-norm-chain-counterexample", links, params)


def _require_normal(arr: np.ndarray, tol: float, label: str) -> None:
    """Raise unless ||A A* - A* A||_2 <= tol (1 + ||A||_2^2).

    ||X||_F / sqrt(n) <= ||X||_2 <= ||X||_F brackets both spectral norms, so
    the gate is decided from Frobenius norms unless the brackets straddle
    the threshold.  Only then are the spectral norms taken, as eigenvalues
    of the Hermitian commutator and of A* A = ||A||_2^2.
    """
    n = arr.shape[0]
    adj = arr.conj().T
    gram = adj @ arr
    comm = arr @ adj - gram
    fro_comm = float(np.linalg.norm(comm))
    fro_sq = float(np.trace(gram).real)  # ||A||_F^2
    if fro_comm <= tol * (1.0 + fro_sq / n):
        return
    if fro_comm / math.sqrt(n) <= tol * (1.0 + fro_sq):
        if _opnorm_hermitian(comm) <= tol * (1.0 + float(_eigvalsh(gram)[-1])):
            return
    raise NotNormalError(f"{label} does not commute with its adjoint within tolerance")


def check_normal_triangle(A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """|||A + B||| <= ||| |A| + |B| ||| for normal A, B."""
    a = as_complex_array(A)
    b = as_complex_array(B)
    _require_normal(a, tol, "first operand")
    _require_normal(b, tol, "second operand")
    abs_sum = matrix_abs(a, normal_hint=True).entries + matrix_abs(b, normal_hint=True).entries
    sv_sum, sv_abs_sum = singular_values(a + b), singular_values(abs_sum)
    links = tuple(
        _scalar_link(
            f"triangle[{kind.label()}]",
            _norm_of_sv(sv_sum, kind),
            _norm_of_sv(sv_abs_sum, kind),
            tol,
        )
        for kind in _norm_kinds(norms, a.shape[0])
    )
    return CheckOutcome("normal_triangle", "normal-abs-triangle", links, {"dim": a.shape[0]})


def check_normal_chain(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Lower norm chains surviving on normal matrices.

    Convex f: f'(0)|||A+B||| <= (f(m)/m)|||A+B||| <= |||f(|A|)+f(|B|)|||
    and f'(0)|||A+B||| <= (f(2m)/2m)|||A+B||| <= |||f(|A|+|B|)|||, with m, M
    the extreme singular values of A and B.  Concave f uses coefficients
    f'(M), f(M)/M and f(2M)/2M instead.
    """
    a = as_complex_array(A)
    b = as_complex_array(B)
    forward = _require_tagged(f)
    _require_fixes_zero(f)
    _require_normal(a, tol, "first operand")
    _require_normal(b, tol, "second operand")
    m, M, sv_images, sv_image_of_abs = _abs_images(f, a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError("singular values must be positive")
    if forward:
        edge = float(f.deriv(0.0))
        c_sep = float(f(m)) / m
        c_sum = float(f(2.0 * m)) / (2.0 * m)
    else:
        edge = float(f.deriv(M))
        c_sep = float(f(M)) / M
        c_sum = float(f(2.0 * M)) / (2.0 * M)
    sv_sum = singular_values(a + b)
    links = []
    for kind in _norm_kinds(norms, a.shape[0]):
        base = _norm_of_sv(sv_sum, kind)
        images_sum = _norm_of_sv(sv_images, kind)
        image_of_abs_sum = _norm_of_sv(sv_image_of_abs, kind)
        label = kind.label()
        if math.isfinite(edge):
            links.append(_scalar_link(f"sep-edge[{label}]", edge * base, c_sep * base, tol))
        else:
            links.append(_vacuous(f"sep-edge[{label}]"))
        links.append(_scalar_link(f"sep-bound[{label}]", c_sep * base, images_sum, tol))
        if math.isfinite(edge):
            links.append(_scalar_link(f"sum-edge[{label}]", edge * base, c_sum * base, tol))
        else:
            links.append(_vacuous(f"sum-edge[{label}]"))
        links.append(_scalar_link(f"sum-bound[{label}]", c_sum * base, image_of_abs_sum, tol))
    params = {"fn": f.name, "m": m, "M": M, "convex": forward, "dim": a.shape[0]}
    return CheckOutcome("normal_chain", "normal-abs-norm-chain", tuple(links), params)


def check_transplanted_norm_chain(f, A, B, norms, tol=DEFAULT_TOL) -> CheckOutcome:
    """The convex upper norm bounds transplanted to normal operands.

    Off the positive definite class the bounds compare
    |||f(|A|)+f(|B|)||| and |||f(|A|+|B|)||| against (f(M)/M) |||A+B|||
    with M the largest singular value; they are expected to fail, and a
    failing link is what the counterexample search reports as a hit.

    The operands need not be normal, so m and M are their true singular
    values, not the eigenvalue moduli that :func:`_abs_images` reports.
    """
    a = as_complex_array(A)
    b = as_complex_array(B)
    sv = np.concatenate([singular_values(a), singular_values(b)])
    m, M = float(sv.min()), float(sv.max())
    _, _, sv_images, sv_image_of_abs = _abs_images(f, a, b)
    coef = float(f(M)) / M
    sv_sum = singular_values(a + b)
    links = []
    for kind in norms:
        bound = coef * _norm_of_sv(sv_sum, kind)
        label = kind.label()
        links.append(_scalar_link(f"upper-sep[{label}]", _norm_of_sv(sv_images, kind), bound, tol))
        links.append(
            _scalar_link(f"upper-sum[{label}]", _norm_of_sv(sv_image_of_abs, kind), bound, tol)
        )
    return CheckOutcome(
        "transplanted_norm_chain",
        "normal-upper-norm-bounds",
        tuple(links),
        {"fn": f.name, "M": M, "m": m},
    )


def check_power_mean_bounds(A, B, alpha, r, tol=DEFAULT_TOL) -> CheckOutcome:
    """Power scaling of the weighted geometric mean and of the entropy.

    m^(r-1) (A #_a B) <= A^r #_a B^r <= M^(r-1) (A #_a B), with m, M the
    extreme eigenvalues of A and B, and the analogous two links for the
    relative operator entropy.  Entropy operands may be indefinite; the
    Loewner comparison is evaluated on them as Hermitian matrices.

    A and B are factored once, and A^r, B^r keep their eigenvectors.
    A #_a B and S(A|B) share one congruence middle, kept per trial, and so
    do A^r #_a B^r and S(A^r|B^r), kept per exponent and trial (see
    :meth:`SharedPair.image_middle`).
    """
    if r < 1.0:
        raise ValueError("exponent r must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    pair = _pair(A, B, tol)
    (_, wa, _), (_, wb, _), m, M = pair.factors
    _require_positive(m)
    f = _power(r)
    war = _finite(_fn_values(f, wa))
    middle, middle_r = pair.middle, pair.image_middle(f)
    lo_c, hi_c = m ** (r - 1.0), M ** (r - 1.0)
    if 0.0 < alpha < 1.0:
        h = geometric(alpha).h
        G, Gr = _mean_from_middle([h], middle, tol)[0], _mean_from_middle([h], middle_r, tol)[0]
    else:
        # boundary weights degenerate to an operand power, diag(wa) or W diag(wb) W* and its power
        w, v = (wa, np.eye(wa.size)) if alpha == 0.0 else (wb, pair.basis)
        G, Gr = _compose(v, w), _image(f, w, v)
    log = function_by_name("log")
    _require_definite(wa, tol)
    S1 = _perspective_from_middle(log, middle)
    _require_definite(war, tol)
    Sr = _perspective_from_middle(log, middle_r)
    links = (
        _loewner_link("power-mean:low", lo_c * G, Gr, tol),
        _loewner_link("power-mean:high", Gr, hi_c * G, tol),
        _loewner_link("entropy:low", lo_c * S1, Sr, tol),
        _loewner_link("entropy:high", Sr, hi_c * S1, tol),
    )
    params = {"alpha": alpha, "r": r, "m": m, "M": M}
    return CheckOutcome("power_mean_bounds", "power-scaling-bounds", links, params)


def check_ando_hiai_comparison(A, B, alpha, r, tol=DEFAULT_TOL) -> CheckOutcome:
    """Ando-Hiai bound versus the coefficient-chain bound.

    A^r #_a B^r <= ||A #_a B||^(r-1) (A #_a B) and
    A^r #_a B^r <= ||B||^(r-1) (A #_a B) with ||A|| <= ||B|| (operands are
    swapped and the swap recorded otherwise), plus the scalar coefficient
    ordering ||A #_a B||^(r-1) <= ||B||^(r-1).  The swapped order takes
    B #_a A = A #_(1-a) B, on the same middles as the unswapped one.
    """
    if r < 1.0:
        raise ValueError("exponent r must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    pair = _pair(A, B, tol)
    (_, wa, _), (_, wb, _), m, _ = pair.factors
    _require_positive(m)
    # ||A|| and ||B|| are the top eigenvalues of the positive definite operands;
    # at a tie within round-off either order meets ||A|| <= ||B||, so none is swapped
    norm_a, norm_b = float(wa[-1]), float(wb[-1])
    swapped = norm_a > norm_b + tol * (1.0 + norm_b)
    # the means of the operands and of their r-th powers, from middles kept per trial
    h = geometric(1.0 - alpha if swapped else alpha).h
    G = _mean_from_middle([h], pair.middle, tol)[0]
    Gr = _mean_from_middle([h], pair.image_middle(_power(r)), tol)[0]
    c_ah = norm(G, NormKind.operator()) ** (r - 1.0)
    c_chain = (norm_a if swapped else norm_b) ** (r - 1.0)
    links = (
        _loewner_link("ando-hiai", Gr, c_ah * G, tol),
        _loewner_link("max-norm-bound", Gr, c_chain * G, tol),
        _scalar_link("coefficient-ordering", c_ah, c_chain, tol),
    )
    params = {"alpha": alpha, "r": r, "swapped": swapped, "c_ah": c_ah, "c_chain": c_chain}
    return CheckOutcome("ando_hiai_comparison", "ando-hiai-comparison", links, params)


def check_contraction_implication(
    pair: FunctionPair, A, B, n_iter: int = 3, tol: float = DEFAULT_TOL, condition_grid=None
) -> CheckOutcome:
    """Iterating f(x) = x g(x) preserves the unit bound of the h-mean.

    Requires the (g, h) compatibility conditions to hold on the condition
    grid (the default one unless the pair needs a restricted domain),
    either as stated (then A sigma_h B <= I propagates to every iterate)
    or all reversed (then >= I propagates).  Mixed conditions yield an
    inapplicable outcome with no links.
    """
    if n_iter < 1:
        raise ValueError("iteration count must be >= 1")
    report = check_pair_conditions(pair, grid=condition_grid)
    params = {
        "g": pair.g.name,
        "h": pair.h.name,
        "n_iter": n_iter,
        "conditions": [c.direction for c in report.results],
    }
    if report.all_forward:
        forward = True
    elif report.all_reversed:
        forward = False
    else:
        params["not_applicable"] = "pair conditions mixed; implication direction undefined"
        return CheckOutcome("contraction_implication", "mean-contraction-iterates", (), params)
    sigma_h = MatrixMean(f"h:{pair.h.name}", pair.h)
    f = times_x(pair.g)
    # The iterates f^k(A), f^k(B) keep the eigenvectors of A and B, and I
    # keeps its form in any basis; in A's, f^k(A) is diagonal and its
    # ill-conditioned inverse square root is exact.
    shared = _pair(A, B, tol)
    (_, wa, _), (_, wb, _), _, _ = shared.factors
    eye = np.eye(wa.size)

    def iterate_mean(wx, wy):
        return _mean_from_middle([sigma_h.h], _middle_of(wx, wy, shared.basis, tol), tol)[0]

    if not forward:
        c = float(_eigvalsh(iterate_mean(wa, wb))[0])
        if c <= 0.0:
            raise NotPositiveDefiniteError("mean not positive definite; cannot normalize upward")
        wa, wb = wa / c, wb / c
    links = []
    for k in range(n_iter + 1):
        if k:
            wa, wb = _finite(_fn_values(f, wa)), _finite(_fn_values(f, wb))
        g = iterate_mean(wa, wb)
        pairing = (g, eye) if forward else (eye, g)
        links.append(_loewner_link("iterate-bound" if k else "hypothesis", *pairing, tol))
    params["direction"] = "forward" if forward else "reversed"
    return CheckOutcome("contraction_implication", "mean-contraction-iterates", tuple(links), params)


def check_inverse_function(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Coefficient bounds driven by the convexity of the registered inverse.

    Convex inverse:  (f(M)/M) S <= f(A) sigma f(B) <= (f(m)/m) S.
    Concave inverse: (f(m)/m) S <= f(A) sigma f(B) <= (f(M)/M) S.
    """
    if f.inverse is None:
        raise ValueError(f"{f.name} has no registered inverse")
    _require_fixes_zero(f)
    pair = _pair(A, B, tol)
    _, _, m, M = pair.factors
    _require_positive(m)
    inv = f.inverse
    if inv.convexity is Convexity.NEITHER:
        raise ValueError(f"inverse of {f.name} carries no convexity tag")
    S, X = pair.means(f, sigma)
    c_m, c_M = float(f(m)) / m, float(f(M)) / M
    if inv.convexity is Convexity.CONVEX:
        links = (
            _loewner_link("inverse-low", c_M * S, X, tol),
            _loewner_link("inverse-high", X, c_m * S, tol),
        )
    else:
        links = (
            _loewner_link("inverse-low", c_m * S, X, tol),
            _loewner_link("inverse-high", X, c_M * S, tol),
        )
    params = {
        "fn": f.name,
        "mean": sigma.name,
        "m": m,
        "M": M,
        "inverse_convexity": inv.convexity.value,
    }
    return CheckOutcome("inverse_function", "inverse-convexity-bounds", links, params)


def check_determinant_suite(f, A, B, alpha=0.5, tol=DEFAULT_TOL) -> CheckOutcome:
    """Determinant-root inequalities and their coefficient generalizations.

    Always checked: the determinant-root superadditivity
    (det A)^(1/n) + (det B)^(1/n) <= (det(A+B))^(1/n) and the
    convexity-matched coefficient bounds on the f-images.  The convex
    combination bound det(aA + bB) <= a det A + b det B and the reverse
    bound need a spectral gap between the operands; without one those
    links report as inapplicable.
    """
    forward = _require_tagged(f)
    _require_fixes_zero(f)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    beta = 1.0 - alpha
    (a, wa, va), (b, wb, vb), m, M = _pair(A, B, tol).factors
    _require_positive(m)
    n = a.shape[0]
    gap_tol = tol * (1.0 + max(abs(M), abs(m)))
    gap_below = float(wa[0] - wb[-1]) >= gap_tol  # B entirely below A
    gap_above = float(wb[0] - wa[-1]) >= gap_tol  # B entirely above A
    gap_ok = gap_below or gap_above

    # f(A) keeps A's eigenvectors: its determinant root is read off f(wa)
    da, db = _det_root(wa, tol), _det_root(wb, tol)
    dsum = _det_root(_eigvalsh(a + b), tol)
    fwa, fwb = _finite(_fn_values(f, wa)), _finite(_fn_values(f, wb))
    dfa, dfb = _det_root(fwa, tol), _det_root(fwb, tol)
    dfsum = _det_root(_eigvalsh(_compose(va, fwa) + _compose(vb, fwb)), tol)

    links = [_scalar_link("detroot-superadditivity", da + db, dsum, tol)]
    det_mix = float(np.prod(_eigvalsh(alpha * a + beta * b)))
    det_a = float(np.prod(wa))
    det_b = float(np.prod(wb))
    links.append(
        _scalar_link(
            "convex-combination-det",
            det_mix,
            alpha * det_a + beta * det_b,
            tol,
            applicable=gap_ok,
        )
    )
    c_m, c_M = float(f(m)) / m, float(f(M)) / M
    if forward:
        links.append(_scalar_link("image-detroot-sum", dfa + dfb, c_M * dsum, tol))
        links.append(_scalar_link("scaled-detroot-sum", c_m * (da + db), dfsum, tol))
    else:
        links.append(_scalar_link("image-detroot-sum", dfa + dfb, c_m * dsum, tol))
        links.append(_scalar_link("scaled-detroot-sum", c_M * (da + db), dfsum, tol))
    if forward:
        links.append(
            _scalar_link(
                "reverse-detroot-bound",
                dfsum,
                2.0 ** (1.0 - 1.0 / n) * c_M * (da + db),
                tol,
                applicable=gap_ok,
            )
        )
    else:
        links.append(_vacuous("reverse-detroot-bound"))
    params = {
        "fn": f.name,
        "alpha": alpha,
        "m": m,
        "M": M,
        "dim": n,
        "gap_below": gap_below,
        "gap_above": gap_above,
        "convex": forward,
    }
    return CheckOutcome("determinant_suite", "determinant-root-bounds", tuple(links), params)
