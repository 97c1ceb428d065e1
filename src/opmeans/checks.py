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
from dataclasses import dataclass
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
    _norm_table,
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
    power,
    times_x,
)
from .means import (
    MatrixMean,
    _mean_from_middle,
    _mean_gates,
    _middles,
    _perspective_from_middle,
    _require_definite,
)

__all__ = [
    "Link",
    "CheckOutcome",
    "check_chord_bounds",
    "check_main_chain",
    "check_main_chain_grid",
    "check_log_example",
    "check_mean_difference_norm",
    "check_mean_difference_norm_grid",
    "check_eig_prod_norm",
    "check_eig_prod_norm_grid",
    "check_subadditivity_refinement",
    "check_subadditivity_grid",
    "check_normal_counterexample",
    "check_normal_triangle",
    "check_normal_chain",
    "check_normal_chain_grid",
    "check_transplanted_norm_chain",
    "check_power_mean_bounds",
    "check_ando_hiai_comparison",
    "check_contraction_implication",
    "check_inverse_function",
    "check_inverse_function_grid",
    "check_determinant_suite",
    "check_determinant_grid",
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


_LINK_FIELDS = ("description", "margin", "passed", "applicable")


@dataclass(frozen=True, init=False)
class CheckOutcome:
    """Result of one inequality-statement verification, its links stored as columns.

    Link i is (``descriptions[i]``, ``margins[i]``, ``passes[i]``,
    ``applicable[i]``); each column is a tuple of plain Python values, so
    records compare, pickle and round-trip like the :class:`Link` tuples
    they stand for.  ``CheckOutcome(check_name, claim, links, params)``
    takes :class:`Link` objects and :attr:`links` gives them back; checkers
    and the report writers use the columns.
    """

    check_name: str
    claim: str
    descriptions: tuple[str, ...]
    margins: tuple[float, ...]
    passes: tuple[bool, ...]
    applicable: tuple[bool, ...]
    params: dict

    def __init__(self, check_name: str, claim: str, links, params: dict):
        rows = [(x.description, x.margin, x.passed, x.applicable) for x in links]
        self._fill(check_name, claim, *_columns(rows), params)

    @classmethod
    def from_columns(
        cls, check_name, claim, descriptions, margins, passes, applicable, params
    ) -> "CheckOutcome":
        """A record from its link columns; every margin must be finite."""
        self = object.__new__(cls)
        self._fill(check_name, claim, descriptions, margins, passes, applicable, params)
        return self

    def _fill(self, check_name, claim, descriptions, margins, passes, applicable, params):
        margins = tuple(map(float, margins))
        if not all(map(math.isfinite, margins)):
            raise ValueError("link margins must be finite")
        # frozen: the fields are set once, here, past the dataclass __setattr__
        self.__dict__.update(
            check_name=check_name,
            claim=claim,
            descriptions=tuple(descriptions),
            margins=margins,
            passes=tuple(map(bool, passes)),
            applicable=tuple(map(bool, applicable)),
            params=params,
        )

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(map(Link, self.descriptions, self.margins, self.passes, self.applicable))

    @property
    def passed(self) -> bool:
        return all(self.passes)

    @property
    def failed_links(self) -> int:
        return self.passes.count(False)

    def with_params(self, extra: dict) -> "CheckOutcome":
        """This record with ``extra`` added to its params; its own params win."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, params={**extra, **self.params})
        return new

    def to_dict(self) -> dict:
        columns = (self.descriptions, self.margins, self.passes, self.applicable)
        return {
            "check_name": self.check_name,
            "claim": self.claim,
            "links": [dict(zip(_LINK_FIELDS, row)) for row in zip(*columns)],
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckOutcome":
        rows = [tuple(x[k] for k in _LINK_FIELDS) for x in d["links"]]
        return _outcome(d["check_name"], d["claim"], rows, dict(d["params"]))


def _columns(rows) -> tuple:
    """Link rows (description, margin, passed, applicable) as four columns."""
    return tuple(zip(*rows)) or ((), (), (), ())


def _outcome(check_name, claim, rows, params) -> CheckOutcome:
    """A record from its link rows."""
    return CheckOutcome.from_columns(check_name, claim, *_columns(rows), params)


def _one(records):
    """The record of a 1 x 1 grid, or its error raised."""
    (outcome,) = records
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


# A checker builds its links as rows (description, margin, passed, applicable)
# and hands them to _outcome; a grid builds them as arrays and hands them to
# _norm_records or _mean_grid.  Only CheckOutcome.links makes Link objects.

def _scalar_link(desc, lhs, rhs, tol, applicable=True) -> tuple:
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs
    scale = 1.0 + max(abs(lhs), abs(rhs))
    passed = True if not applicable else bool(margin >= -tol * scale)
    return desc, margin, passed, applicable


def _scalar_margins(lhs, rhs, tol, applicable=True):
    """:func:`_scalar_link`'s margins and pass flags, elementwise over arrays of sides."""
    margin = rhs - lhs
    scale = 1.0 + np.maximum(np.abs(lhs), np.abs(rhs))
    return margin, (margin >= -tol * scale) | (not applicable)


def _loewner_links(claims, tol, forward=True) -> list[tuple]:
    """A record's Loewner links lo <= hi, one per claim ``(description, lo, hi)``.

    With ``forward`` false every claim is reversed to hi <= lo.  All claims
    are judged by one stacked eigvalsh.
    """
    if not forward:
        claims = [(desc, hi, lo) for desc, lo, hi in claims]
    results = _loewner([(lo[None], hi[None], None) for _, lo, hi in claims], tol)
    return [
        (desc, float(res.margin[0]), bool(res.passed[0]), True)
        for (desc, _, _), res in zip(claims, results)
    ]


def _equality_link(desc, got, want, tol) -> tuple:
    got = float(got)
    diff = abs(got - float(want))
    return desc, -diff, bool(diff <= tol), True


def _require_tagged(f: ScalarFunction):
    if f.convexity is Convexity.NEITHER:
        raise ValueError(f"{f.name} carries no convexity tag; checker needs convex or concave")
    return f.convexity is Convexity.CONVEX


# The chain c0 S <= c1 S <= X <= c2 S <= c3 S of a convex f, as its links
# (name, left, right, needs) between the positions of (c0, c1, X, c2, c3): a
# link applies when the coefficients at its ``needs`` positions are finite.
_CHAIN = (
    ("edge-low", 0, 1, (0, 1)),
    ("low", 1, 2, (1,)),
    ("high", 2, 3, ()),
    ("edge-high", 3, 4, (4,)),
)


def _chain_sides(coefs, s, x, forward):
    """The :data:`_CHAIN` links on values, as (lo, hi, applies) of every link lo <= hi.

    ``coefs`` (function, 4, 1 or K) holds the coefficients (c0, c1, c2, c3),
    ``s`` (mean, K) stands for S and ``x`` (function, mean, K) for X.  lo and
    hi are (function, mean, link, K), reversed where ``forward`` is false,
    and ``applies`` is (function, link, K); a vacuous link is 0 <= 0.
    """
    at = np.insert(coefs, 2, 0.0, axis=1)  # the positions of (c0, c1, X, c2, c3)
    applies = np.stack([np.isfinite(at[:, list(needs)]).all(axis=1) for *_, needs in _CHAIN], 1)

    def side(positions):
        values = np.where(applies, at[:, positions], 0.0)[:, None] * s[:, None]
        return np.where((np.equal(positions, 2)[:, None] & applies)[:, None], x[:, :, None], values)

    left, right = (side([link[i] for link in _CHAIN]) for i in (1, 2))
    fwd = np.asarray(forward)[:, None, None, None]
    applies = np.broadcast_to(applies, (*applies.shape[:2], s.shape[-1]))
    return np.where(fwd, left, right), np.where(fwd, right, left), applies


def _x_links(tol, S, X, coefs, forward, ws, results):
    """The links c1 S <= X <= c2 S of every record (reversed where ``forward`` is false).

    All are judged by one stacked eigvalsh, a link with right side c S at
    the scale 1 + |c| max |spec S|.  Returns their margins and passes,
    (function, mean, link), and each function's applicable flags: low is
    vacuous (margin 0) where c1 is infinite.
    """
    n_f, n_s = results.shape
    applies = np.ones((n_f, 2), dtype=bool)
    applies[:, 0] = np.isfinite(coefs[:, 1])
    slots, comparisons = np.argwhere(applies).tolist(), []
    norm_s = np.abs(ws).max(axis=-1)
    for k, link in slots:
        c = coefs[k, 1 + link]
        if (link == 0) == forward[k]:  # c S <= X
            comparisons.append((c * S, X[k], None))
        else:
            comparisons.append((X[k], c * S, 1.0 + abs(c) * norm_s))
    margins, passes = np.zeros((n_f, n_s, 2)), np.ones((n_f, n_s, 2), dtype=bool)
    for (k, link), res in zip(slots, _loewner(comparisons, tol, [results[k] for k, _ in slots])):
        margins[k, :, link], passes[k, :, link] = res.margin, res.passed
    return margins, passes, applies


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


def _congruence_of(wa, wb, w, tol):
    """The gates and the congruence of diag(wa) sigma (W diag(wb) W*), in A's eigenbasis.

    ``w`` holds B's eigenvectors written in A's eigenbasis
    (:attr:`SharedPair.basis`), so any functions of A and B keep the form
    diag(f(wa)) and W diag(g(wb)) W* there.  One row of ``means._middles``.
    """
    return _mean_gates(wa, _finite(_compose(w, wb)), wb, tol)


@cache
def _power(r):
    """x^r, one object per exponent, so the middles of A^r sigma B^r are kept per exponent."""
    return power(r)


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
    middles of f(A) sigma f(B) once per tuple of functions and S = A sigma B
    with its eigenpairs once per tuple of means, each as one stack (a grid
    asks for all of a trial's functions and means).  Every mean is taken in
    A's eigenbasis, where A and its functions are diagonal and A^(+-1/2) is
    an exact scaling; checkers compare means only through Loewner margins,
    spectra and norms, which do not depend on the basis.  A step that
    raises keeps nothing, so every record that reaches it raises the same
    error; a mean or a function whose own step fails keeps its error in
    its row.  A checker given raw matrices wraps them in a fresh pair, so
    both paths run the same code.
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
        """The mean-independent half of A sigma B, as a 1-row stack of middles."""
        (_, wa, _), (_, wb, _), _, _ = self.factors
        return _middles([_congruence_of(wa, wb, self.basis, self.tol)])

    def mean_stack(self, sigmas: tuple):
        """S = A sigma B, in A's eigenbasis, for each of ``sigmas`` as one stack.

        Returns (S, row errors, ws, vs): the eigenpairs ws, vs of every S
        are one stacked eigh, in which a row with an error is factored as I.
        """

        def compute():
            errors = np.full(len(sigmas), None, dtype=object)
            S = _mean_from_middle([s.h for s in sigmas], self.middle, self.tol, errors)[0]
            return S, errors, *_eigh(S, errors)

        return self._keep("S", sigmas, compute)

    def image_middles(self, fs: tuple):
        """The mean-independent halves of f(A) sigma f(B) for each of ``fs``, and row errors.

        They come from f on the spectra of A and B, by one stacked eigh.  The
        row of an f whose f(A) is not finite, or whose f(B) fails the
        mean's gate, keeps that error and is factored as I.
        """
        (_, wa, _), (_, wb, _), _, _ = self.factors

        def compute():
            errors = np.full(len(fs), None, dtype=object)
            parts = []
            for k, f in enumerate(fs):
                try:
                    fa, fb = _finite(_fn_values(f, wa)), _fn_values(f, wb)
                    parts.append(_congruence_of(fa, fb, self.basis, self.tol))
                except ValueError as exc:
                    errors[k] = exc
                    parts.append((np.ones(wa.size), np.eye(wa.size), None))
            return _middles(parts, errors), errors

        return self._keep("image", fs, compute)

    def image_middle(self, f):
        """The mean-independent half of f(A) sigma f(B): the 1-row view of :meth:`image_middles`."""
        middle, (error,) = self.image_middles((f,))
        if error is not None:
            raise error
        return middle

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
    operands' eigenvectors with f(A) and f(B); A and B are factored once.
    The middles of f(A) sigma f(B) and of the two line means depend on f and
    the pair only, so they are kept on the pair per function; a record
    takes its three means from them and judges both links by one stacked
    eigvalsh.
    """
    pair = _pair(A, B, tol)
    forward = _require_tagged(f)
    fa, fb, m, M = _psd(pair.factors, tol)
    lo_c, hi_c = chord_coefficients(f, m, M)
    if not (math.isfinite(lo_c) and math.isfinite(hi_c)):
        raise ValueError(f"infinite chord coefficient for {f.name} on [{m}, {M}]")
    fm = float(f(m))
    (_, wa, _), (_, wb, _) = fa, fb

    def line_middles():
        return _middles(
            [
                _congruence_of(slope * (wa - m) + fm, slope * (wb - m) + fm, pair.basis, tol)
                for slope in (lo_c, hi_c)
            ]
        )

    mid = _mean_from_middle([sigma.h], pair.image_middle(f), tol)[0, 0]
    low, high = _mean_from_middle([sigma.h], pair._keep("lines", (f,), line_middles), tol)[:, 0]
    links = _loewner_links(
        (("lower-slope-line", low, mid), ("upper-slope-line", mid, high)), tol, forward
    )
    params = {"fn": f.name, "mean": sigma.name, "m": m, "M": M, "a": lo_c, "b": hi_c}
    return _outcome("chord_bounds", "secant-line-mean-bracket", links, params)


def check_main_chain(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Coefficient chain around f(A) sigma f(B) and around f(A sigma B).

    f'(0) S <= (f(m)/m) S <= f(A) sigma f(B) <= (f(M)/M) S <= f'(M) S with
    S = A sigma B, and the same chain around f(A sigma B); all comparisons
    reversed for concave f.  Links with an infinite coefficient are
    vacuous.  The 1 x 1 case of :func:`check_main_chain_grid`.
    """
    return _one(check_main_chain_grid((f,), (sigma,), A, B, tol))


def check_main_chain_grid(fs, sigmas, A, B, tol=DEFAULT_TOL) -> list:
    """:func:`check_main_chain` for every function in ``fs`` and mean in ``sigmas``.

    Returns one entry per (f, sigma), f outermost: the record, or the
    ``ValueError`` that :func:`check_main_chain` raises for it.  One grid
    (:func:`_mean_grid`): the links against X are one stacked eigvalsh, and
    the others margins on spec(S).
    """
    return _mean_grid(
        "main_chain", "mean-coefficient-chain", _main_chain_gate, _main_chain_judge,
        fs, sigmas, A, B, tol,
    )


def _fail(errors, exc):
    """Give every record of ``errors`` (an object array) without an error the error ``exc``."""
    errors[np.equal(errors, None)] = exc


def _mean_grid(check_name, claim, gate, judge, fs, sigmas, A, B, tol) -> list:
    """A trial's (f, sigma) records, f outermost, of a chain between S and X = f(A) sigma f(B).

    ``gate(pair, f)`` runs f's own gates and returns its tag.  For the
    functions past them the grid is one stack: every S with its eigenpairs
    (:meth:`SharedPair.mean_stack`), every X as one (function, mean) stack,
    and the coefficients (f'(0), f(m)/m, f(M)/M, f'(M)) of each function
    with records left.  ``judge(pair, fs, tags, means, X, coefs, results)``
    returns the link descriptions, the (f, sigma, link) margins and passes,
    the (f, link) applicable flags and each function's params.  A step
    failing for some records gives each its error in ``results`` (see
    ``core._flag``), one failing for all raises; a record keeps its first
    error, and its matrices are solved as I.
    """
    pair = _pair(A, B, tol)
    fs, sigmas = tuple(fs), tuple(sigmas)
    # per (f, sigma): None, then the record's error or the record
    results = np.full((len(fs), len(sigmas)), None, dtype=object)
    live, tags = [], []  # the functions past their own gates, and their tags
    for i, f in enumerate(fs):
        try:
            tags.append(gate(pair, f))
            live.append(i)
        except ValueError as exc:
            _fail(results[i], exc)
    if not live:
        return list(results.ravel())
    fs, stack = [fs[i] for i in live], results[live]
    _, _, m, M = pair.factors
    try:
        means = pair.mean_stack(sigmas)
        stack[:] = means[1]  # a record starts with its mean's error
        middles, fn_errors = pair.image_middles(tuple(fs))
        for row, error in zip(stack, fn_errors):
            if error is not None:
                _fail(row, error)
        X = _mean_from_middle([s.h for s in sigmas], middles, tol, stack.reshape(-1))
        coefs = np.zeros((len(fs), 4))
        for k, f in enumerate(fs):
            if np.equal(stack[k], None).any():
                coefs[k] = (
                    float(f.deriv(0.0)), float(f(m)) / m, float(f(M)) / M, float(f.deriv(M))
                )
        descriptions, margins, passes, applicable, params = judge(
            pair, fs, tags, means, X, coefs, stack
        )
    except ValueError as exc:  # a step shared by every record
        _fail(stack, exc)
    else:
        margins, passes, applicable = margins.tolist(), passes.tolist(), applicable.tolist()
        for k, f in enumerate(fs):
            for j, sigma in enumerate(sigmas):
                if stack[k, j] is None:
                    own = {"fn": f.name, "mean": sigma.name, "m": m, "M": M, **params[k]}
                    try:
                        stack[k, j] = CheckOutcome.from_columns(
                            check_name, claim, descriptions, margins[k][j], passes[k][j],
                            applicable[k], own,
                        )
                    except ValueError as exc:
                        stack[k, j] = exc
    results[live] = stack
    return list(results.ravel())


def _on_spectra(fs, ws, results):
    """(function, mean, index): f on every spectrum; a breakdown is its record's error."""
    fws = np.empty((len(fs), *ws.shape))
    for k, f in enumerate(fs):
        try:
            fws[k] = _finite(_fn_values(f, ws, results[k]), results[k])
        except ValueError as exc:
            _fail(results[k], exc)
    return fws


def _main_chain_gate(pair, f):
    tag = _require_tagged(f)
    _require_fixes_zero(f)
    _, _, m, _ = pair.factors
    if m <= 0.0:
        raise NotPositiveDefiniteError(f"spectra must be positive, got m={m:.6e}")
    return tag


_MAIN_CHAIN_LINKS = tuple(
    f"{prefix}:{name}" for prefix in ("fn-then-mean", "mean-then-fn") for name, *_ in _CHAIN
)


def _main_chain_judge(pair, fs, tags, means, X, coefs, results):
    S, _, ws, _ = means
    n_f, n_s = results.shape
    # the chain around f(S) on spec(S), as (f, sigma, link, eigenvalue); its edge links
    # are also fn-then-mean's, whose low and high links against X are solved apart
    lo, hi, applies = _chain_sides(coefs[..., None], ws, _on_spectra(fs, ws, results), tags)
    shape = (n_f * n_s, len(_CHAIN), ws.shape[-1])
    on_spectrum = _loewner_on_spectrum(
        lo.reshape(shape), hi.reshape(shape), pair.tol, results.reshape(-1)
    )
    margins = np.tile(on_spectrum.margin.reshape(n_f, n_s, -1), 2)
    passes = np.tile(on_spectrum.passed.reshape(n_f, n_s, -1), 2)
    margins[..., 1:3], passes[..., 1:3], _ = _x_links(pair.tol, S, X, coefs, tags, ws, results)
    params = [{"convex": tag, "dim": pair.a.shape[0]} for tag in tags]
    return _MAIN_CHAIN_LINKS, margins, passes, np.tile(applies[..., 0], 2), params


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
    links = _loewner_links((("shifted-log-bound", lhs, rhs),), tol)
    return _outcome(
        "log_example", "shifted-log-sum-bound", links, {"m": m, "M": M, "coef": coef}
    )


def check_mean_difference_norm(f, sigma, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """|||f(A) sigma f(B) - f(A sigma B)||| <= (f'(M) - f'(0)) |||A sigma B|||.

    The 1 x 1 case of :func:`check_mean_difference_norm_grid`.
    """
    return _one(check_mean_difference_norm_grid((f,), (sigma,), A, B, norms, tol))


def check_mean_difference_norm_grid(fs, sigmas, A, B, norms=None, tol=DEFAULT_TOL) -> list:
    """:func:`check_mean_difference_norm` for every function in ``fs`` and mean in ``sigmas``.

    One grid (:func:`_mean_grid`): every X - f(S) is one stacked eigvalsh,
    and every norm one table.
    """

    def judge(pair, fs, tags, means, X, coefs, results):
        _, _, ws, vs = means
        n_f, n_s = results.shape
        flat = results.reshape(-1)
        diff = X - hermitian_part(_compose(vs, _on_spectra(fs, ws, results)))
        w = _eigvalsh(_finite(diff.reshape(flat.size, *X.shape[-2:]), flat), flat)
        kinds = _norm_kinds(norms, pair.a.shape[0])
        table = _norm_table(_sv_hermitian(np.concatenate([ws, w])), kinds)
        spread = coefs[:, 3] - coefs[:, 0]  # f'(M) - f'(0)
        margins, passes = _scalar_margins(
            table[n_s:].reshape(n_f, n_s, -1), spread[:, None, None] * table[:n_s], tol
        )
        descriptions = tuple(f"norm-difference[{kind.label()}]" for kind in kinds)
        params = [{"spread": d} for d in spread.tolist()]
        return descriptions, margins, passes, np.ones((n_f, len(kinds)), dtype=bool), params

    return _mean_grid(
        "mean_difference_norm", "mean-difference-norm-bound", _mean_difference_gate, judge,
        fs, sigmas, A, B, tol,
    )


def _mean_difference_gate(pair, f):
    if f.convexity is not Convexity.CONVEX:
        raise ValueError(f"mean-difference bound requires a convex function, got {f.name}")
    _require_fixes_zero(f)
    _, _, m, M = pair.factors
    _require_positive(m)
    if not (math.isfinite(float(f.deriv(0.0))) and math.isfinite(float(f.deriv(M)))):
        raise ValueError("infinite endpoint derivative")
    return True


def check_eig_prod_norm(f, sigma, A, B, tol=DEFAULT_TOL, norms=None) -> CheckOutcome:
    """Eigenvalue, product and norm versions of the coefficient chain.

    Per index j the chain holds for the j-th eigenvalues (decreasing), per
    k for the top-k eigenvalue products (requires positive spectrum), and
    per norm kind for the norms of the two sides.  The 1 x 1 case of
    :func:`check_eig_prod_norm_grid`.
    """
    return _one(check_eig_prod_norm_grid((f,), (sigma,), A, B, tol, norms))


def _pow_or_inf(c, k):
    """c**k in Python floats (numpy's power can differ in the last bit), infinite on overflow."""
    try:
        return c**k
    except OverflowError:
        return math.inf


def check_eig_prod_norm_grid(fs, sigmas, A, B, tol=DEFAULT_TOL, norms=None) -> list:
    """:func:`check_eig_prod_norm` for every function in ``fs`` and mean in ``sigmas``.

    One grid (:func:`_mean_grid`): every spec(X) is one stacked eigvalsh,
    every norm one table, and every link one :func:`_chain_sides`.
    """

    def judge(pair, fs, tags, means, X, coefs, results):
        _, _, ws, _ = means
        n_f, n_s = results.shape
        n = ws.shape[-1]
        wx = _eigvalsh(X.reshape(-1, n, n), results.reshape(-1))
        for j in np.flatnonzero(ws[:, 0] <= 0.0):
            _fail(results[:, j], NotPositiveSemidefiniteError(
                "product links need a positive mean spectrum"
            ))
        kinds = _norm_kinds(norms, n)
        table = _norm_table(_sv_hermitian(np.concatenate([ws, wx])), kinds)
        powers = [
            [[c] * n + [_pow_or_inf(c, k) for k in range(1, n + 1)] + [c] * len(kinds) for c in row]
            for row in coefs.tolist()
        ]
        s, x = ws[:, ::-1], wx[:, ::-1].reshape(n_f, n_s, n)  # decreasing
        # an overflowing side is infinite, as in Python floats, and downgrades its record
        with np.errstate(over="ignore", invalid="ignore"):
            # the families side by side on one index: eigenvalues, top-k products, norms
            s = np.concatenate([s, np.cumprod(s, -1), table[:n_s]], -1)
            x = np.concatenate([x, np.cumprod(x, -1), table[n_s:].reshape(n_f, n_s, -1)], -1)
            lo, hi, applies = _chain_sides(np.array(powers), s, x, tags)
            # a record lists its links index by index, each index's links in chain order
            margins, passes = _scalar_margins(lo.swapaxes(-1, -2), hi.swapaxes(-1, -2), tol)
        prefixes = ["eig"] * n + ["prod"] * n + [f"norm[{kind.label()}]" for kind in kinds]
        return (
            [f"{p}:{name}" for p in prefixes for name, *_ in _CHAIN],
            margins.reshape(n_f, n_s, -1), passes.reshape(n_f, n_s, -1),
            applies.swapaxes(-1, -2).reshape(n_f, -1), [{"convex": tag} for tag in tags],
        )

    return _mean_grid(
        "eig_prod_norm", "eigenvalue-product-norm-chains", _eig_prod_norm_gate, judge,
        fs, sigmas, A, B, tol,
    )


def _eig_prod_norm_gate(pair, f):
    tag = _require_tagged(f)
    _require_fixes_zero(f)
    _require_positive(pair.factors[2])
    return tag


def check_subadditivity_refinement(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Refined subadditivity: |||f(A)+f(B)||| <= (f(M)/M)|||A+B||| <= |||f(A+B)|||.

    The bridging link needs M <= A + B; when that side condition fails it
    is reported inapplicable while the remaining links are still checked.
    The classical bound |||f(A)+f(B)||| <= |||f(A+B)||| is always included.

    The 1 x 1 case of :func:`check_subadditivity_grid`.
    """
    return _one(check_subadditivity_grid((f,), A, B, norms, tol))


def _function_rows(fs, step, results) -> tuple:
    """Run ``step(f)``, giving f's image matrix and the values f keeps, for each function of a grid.

    A function whose step raises a ``ValueError`` gets it in ``results``.
    Returns the indices of the other functions, their kept values and the
    eigenvalues of their images, all by one stacked eigvalsh.
    """
    rows, images, kept = [], [], []
    for i, f in enumerate(fs):
        try:
            image, values = step(f)
        except ValueError as exc:
            results[i] = exc
            continue
        rows.append(i)
        images.append(image)
        kept.append(values)
    return rows, kept, _eigvalsh(np.stack(images)) if rows else None


def _norm_records(check_name, claim, names, kinds, links, applicable, params, results, rows):
    """Fill ``results[rows[r]]`` with the record of row r of the link arrays, or its ValueError.

    ``links`` holds, per name in ``names``, a (margins, passes) pair of
    (rows x kinds) arrays; a record lists its links kind by kind, in the
    order of ``names`` within a kind.  ``applicable[r]`` and ``params[r]``
    are row r's flags for one kind's links and its params.
    """
    descriptions = tuple(f"{name}[{kind.label()}]" for kind in kinds for name in names)
    margins, passes = (
        np.stack(column, axis=-1).reshape(len(rows), -1).tolist() for column in zip(*links)
    )
    for r, i in enumerate(rows):
        try:
            results[i] = CheckOutcome.from_columns(
                check_name, claim, descriptions, margins[r], passes[r],
                applicable[r] * len(kinds), params[r],
            )
        except ValueError as exc:
            results[i] = exc
    return results


def check_subadditivity_grid(fs, A, B, norms=None, tol=DEFAULT_TOL) -> list:
    """:func:`check_subadditivity_refinement` for every function in ``fs``.

    Returns one entry per function: the record, or the ``ValueError`` that
    :func:`check_subadditivity_refinement` raises for it.  A, B and A + B
    are factored once: the singular values of f(A + B) are |f(w)| for the
    eigenvalues w of A + B.  Per function only f(A) + f(B) remains, and its
    eigenvalues for every function are one stacked eigvalsh.  Every norm of
    every matrix is one table (:func:`_norm_table`), and the links are
    margins over (function x norm kind) arrays.  Each function meets its
    gates in the order :func:`check_subadditivity_refinement` states them,
    and a shared step that raises gives its error to each function reaching it.
    """
    pair = _pair(A, B, tol)
    fs = tuple(fs)
    results = [None] * len(fs)

    @cache
    def trial():
        (a, wa, va), (b, wb, vb), m, M = _psd(pair.factors, tol)
        if M <= 0.0:
            raise ValueError("zero operands leave no content to check")
        return (wa, va), (wb, vb), m, M, _eigvalsh(a + b)

    def step(f):
        if f.convexity is not Convexity.CONVEX:
            raise ValueError(f"subadditivity refinement requires a convex function, got {f.name}")
        _require_fixes_zero(f)
        fa, fb, _, M, w_total = trial()
        grid = np.geomspace(M * 1e-4, M, 64)
        ratios = np.asarray(f(grid), dtype=float) / grid
        if np.any(np.diff(ratios) < -1e-9 * (1.0 + np.abs(ratios[:-1]))):
            raise ValueError(f"f(x)/x is not nondecreasing for {f.name}")
        image = _image(f, *fa) + _image(f, *fb)
        return image, (_finite(_fn_values(f, w_total)), float(f(M)) / M)

    rows, kept, w_images = _function_rows(fs, step, results)
    if not rows:
        return results
    _, _, m, M, w_total = trial()
    of_total, coef = zip(*kept)
    try:
        kinds = _norm_kinds(norms, w_total.size)
        w = np.concatenate([w_total[None], w_images, np.stack(of_total)])
        table = _norm_table(_sv_hermitian(w), kinds)
    except ValueError as exc:
        return [exc if r is None else r for r in results]
    k = len(rows)
    tot = np.array(coef)[:, None] * table[0]
    lhs, rhs = table[1 : 1 + k], table[1 + k :]
    floor = float(w_total[0])
    bridge_ok = floor >= M - tol * (1.0 + M)
    links = (
        _scalar_margins(lhs, tot, tol),
        _scalar_margins(tot, rhs, tol, bridge_ok),
        _scalar_margins(lhs, rhs, tol),
    )
    params = [
        {"fn": fs[i].name, "m": m, "M": M, "sum_floor": floor, "bridge_condition_met": bridge_ok}
        for i in rows
    ]
    return _norm_records(
        "subadditivity_refinement", "subadditivity-refinement",
        ("images-vs-coef", "coef-vs-image-of-sum", "images-vs-image-of-sum"), kinds, links,
        [(True, bridge_ok, True)] * k, params, results, rows,
    )


def _abs_factors(a, b):
    """The per-trial half of the norm chains on operands a, b, each factored once by complex Schur.

    With a = Q T Q*, |a| = Q |diag T| Q* and f(|a|) = Q f(|diag T|) Q*.
    Returns the Schur factors (moduli, Q) of a and b, the smallest and
    largest modulus over both (their singular values when a and b are
    normal), and a function giving the eigenvalues of |a| + |b|, computed
    on its first call.
    """
    (da, qa), (db, qb) = factors = _normal_factors(a), _normal_factors(b)
    d = np.concatenate([da, db])
    return factors, float(d.min()), float(d.max()), cache(
        lambda: _eigvalsh(_compose(qa, da) + _compose(qb, db))
    )


def _abs_images(f, factors, abs_sum):
    """The per-function half: f(|a|) + f(|b|), and f on the eigenvalues ``abs_sum()`` of |a| + |b|.

    ``factors`` and ``abs_sum`` are from :func:`_abs_factors`.
    """
    (da, qa), (db, qb) = factors
    images = _image(f, da, qa) + _image(f, db, qb)
    return images, _finite(_fn_values(f, abs_sum()))


def check_normal_counterexample(tol: float = 1e-10) -> CheckOutcome:
    """Reproduce the fixed 2x2 indefinite fixture that breaks the norm chain.

    With A = diag(2, -1), B = diag(-2, 1) and f(x) = x^2 the upper norm
    bounds fail spectacularly: both |||f(|A|)+f(|B|)||| = 8 and
    |||f(|A|+|B|)||| = 16 exceed (f(M)/M)|||A+B||| = f'(M)|||A+B||| = 0.
    """
    a = np.diag([2.0, -1.0]).astype(np.complex128)
    b = np.diag([-2.0, 1.0]).astype(np.complex128)
    f = function_by_name("power:2")
    factors, m, M, abs_sum = _abs_factors(a, b)
    images, of_abs_sum = _abs_images(f, factors, abs_sum)
    op = NormKind.operator()
    images_sum = _norm_of_sv(_sv_hermitian(_eigvalsh(images)), op)
    image_of_abs_sum = _norm_of_sv(_sv_hermitian(of_abs_sum), op)
    coef_bound = (float(f(M)) / M) * norm(a + b, op)
    deriv_bound = float(f.deriv(M)) * norm(a + b, op)
    links = (
        _equality_link("value[images-sum]", images_sum, 8.0, tol),
        _equality_link("value[image-of-abs-sum]", image_of_abs_sum, 16.0, tol),
        _equality_link("value[coef-bound]", coef_bound, 0.0, tol),
        _equality_link("value[deriv-bound]", deriv_bound, 0.0, tol),
        ("violation[images-sum]", images_sum - coef_bound, images_sum > coef_bound + tol, True),
        (
            "violation[image-of-abs-sum]",
            image_of_abs_sum - coef_bound,
            image_of_abs_sum > coef_bound + tol,
            True,
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
    return _outcome("normal_counterexample", "normal-norm-chain-counterexample", links, params)


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
    return _outcome("normal_triangle", "normal-abs-triangle", links, {"dim": a.shape[0]})


def check_normal_chain(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Lower norm chains surviving on normal matrices.

    Convex f: f'(0)|||A+B||| <= (f(m)/m)|||A+B||| <= |||f(|A|)+f(|B|)|||
    and f'(0)|||A+B||| <= (f(2m)/2m)|||A+B||| <= |||f(|A|+|B|)|||, with m, M
    the extreme singular values of A and B.  Concave f uses coefficients
    f'(M), f(M)/M and f(2M)/2M instead.  The 1 x 1 case of
    :func:`check_normal_chain_grid`.
    """
    return _one(check_normal_chain_grid((f,), A, B, norms, tol))


def check_normal_chain_grid(fs, A, B, norms=None, tol=DEFAULT_TOL) -> list:
    """:func:`check_normal_chain` for every function in ``fs``.

    Returns one entry per function: the record, or the ``ValueError`` that
    :func:`check_normal_chain` raises for it.  Both normality gates, both
    Schur factorizations, the eigenvalues of |A| + |B| and the singular
    values of A + B are computed once; per function only f(|A|) + f(|B|)
    remains, and its eigenvalues for every function are one stacked
    eigvalsh.  The norms are tables and the links margins over
    (function x norm kind) arrays, as in :func:`check_subadditivity_grid`.
    """
    a = as_complex_array(A)
    b = as_complex_array(B)
    fs = tuple(fs)
    results = [None] * len(fs)

    @cache
    def trial():
        _require_normal(a, tol, "first operand")
        _require_normal(b, tol, "second operand")
        return _abs_factors(a, b)

    def step(f):
        forward = _require_tagged(f)
        _require_fixes_zero(f)
        factors, m, M, abs_sum = trial()
        image, of_abs_sum = _abs_images(f, factors, abs_sum)
        if m <= 0.0:
            raise NotPositiveDefiniteError("singular values must be positive")
        x = m if forward else M
        edge = float(f.deriv(0.0 if forward else M))
        coefs = (edge, float(f(x)) / x, float(f(2.0 * x)) / (2.0 * x))
        params = {"fn": f.name, "m": m, "M": M, "convex": forward, "dim": a.shape[0]}
        return image, (of_abs_sum, coefs, params)

    rows, kept, w_images = _function_rows(fs, step, results)
    if not rows:
        return results
    of_abs_sum, coefs, params = zip(*kept)
    sv = _sv_hermitian(np.concatenate([w_images, np.stack(of_abs_sum)]))
    try:
        sv_sum = singular_values(a + b)
        kinds = _norm_kinds(norms, a.shape[0])
        # a table of its own: stacked, sv_sum would change layout, and with it its Schatten powers
        base = _norm_table(sv_sum[None], kinds)[0]
        table = _norm_table(sv, kinds)
    except ValueError as exc:
        return [exc if r is None else r for r in results]
    k = len(rows)
    edge, c_sep, c_sum = (np.array(c)[:, None] for c in zip(*coefs))
    # an infinite f'(0) or f'(M) leaves both edge links vacuous: margin 0, passed
    has_edge = np.isfinite(edge)
    edge = np.where(has_edge, edge, 0.0) * base
    sep, tot = c_sep * base, c_sum * base
    links = [
        _scalar_margins(edge, sep, tol),
        _scalar_margins(sep, table[:k], tol),
        _scalar_margins(edge, tot, tol),
        _scalar_margins(tot, table[k:], tol),
    ]
    for j in (0, 2):
        margin, passed = links[j]
        links[j] = np.where(has_edge, margin, 0.0), passed | ~has_edge
    return _norm_records(
        "normal_chain", "normal-abs-norm-chain",
        ("sep-edge", "sep-bound", "sum-edge", "sum-bound"), kinds, links,
        [(ok, True, ok, True) for ok in has_edge[:, 0].tolist()], params, results, rows,
    )


def check_transplanted_norm_chain(f, A, B, norms, tol=DEFAULT_TOL) -> CheckOutcome:
    """The convex upper norm bounds transplanted to normal operands.

    Off the positive definite class the bounds compare
    |||f(|A|)+f(|B|)||| and |||f(|A|+|B|)||| against (f(M)/M) |||A+B|||
    with M the largest singular value; they are expected to fail, and a
    failing link is what the counterexample search reports as a hit.

    The operands need not be normal, so m and M are their true singular
    values, not the eigenvalue moduli that :func:`_abs_factors` reports.
    """
    a = as_complex_array(A)
    b = as_complex_array(B)
    sv = np.concatenate([singular_values(a), singular_values(b)])
    m, M = float(sv.min()), float(sv.max())
    factors, _, _, abs_sum = _abs_factors(a, b)
    images, of_abs_sum = _abs_images(f, factors, abs_sum)
    sv_images, sv_image_of_abs = _sv_hermitian(_eigvalsh(images)), _sv_hermitian(of_abs_sum)
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
    return _outcome(
        "transplanted_norm_chain",
        "normal-upper-norm-bounds",
        links,
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
        h = _power(alpha)  # the representing function of #_alpha
        G, Gr = (_mean_from_middle([h], mid, tol)[0, 0] for mid in (middle, middle_r))
    else:
        # boundary weights degenerate to an operand power, diag(wa) or W diag(wb) W* and its power
        w, v = (wa, np.eye(wa.size)) if alpha == 0.0 else (wb, pair.basis)
        G, Gr = _compose(v, w), _image(f, w, v)
    log = function_by_name("log")
    _require_definite(wa, tol)
    S1 = _perspective_from_middle(log, middle)
    _require_definite(war, tol)
    Sr = _perspective_from_middle(log, middle_r)
    links = _loewner_links(
        (
            ("power-mean:low", lo_c * G, Gr),
            ("power-mean:high", Gr, hi_c * G),
            ("entropy:low", lo_c * S1, Sr),
            ("entropy:high", Sr, hi_c * S1),
        ),
        tol,
    )
    params = {"alpha": alpha, "r": r, "m": m, "M": M}
    return _outcome("power_mean_bounds", "power-scaling-bounds", links, params)


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
    h = _power(1.0 - alpha if swapped else alpha)  # the representing function of the mean
    G = _mean_from_middle([h], pair.middle, tol)[0, 0]
    Gr = _mean_from_middle([h], pair.image_middle(_power(r)), tol)[0, 0]
    c_ah = norm(G, NormKind.operator()) ** (r - 1.0)
    c_chain = (norm_a if swapped else norm_b) ** (r - 1.0)
    links = (
        *_loewner_links((("ando-hiai", Gr, c_ah * G), ("max-norm-bound", Gr, c_chain * G)), tol),
        _scalar_link("coefficient-ordering", c_ah, c_chain, tol),
    )
    params = {"alpha": alpha, "r": r, "swapped": swapped, "c_ah": c_ah, "c_chain": c_chain}
    return _outcome("ando_hiai_comparison", "ando-hiai-comparison", links, params)


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
        return _outcome("contraction_implication", "mean-contraction-iterates", (), params)
    sigma_h = MatrixMean(f"h:{pair.h.name}", pair.h)
    f = times_x(pair.g)
    # The iterates f^k(A), f^k(B) keep the eigenvectors of A and B, and I
    # keeps its form in any basis; in A's, f^k(A) is diagonal and its
    # ill-conditioned inverse square root is exact.
    shared = _pair(A, B, tol)
    (_, wa, _), (_, wb, _), _, _ = shared.factors
    eye = np.eye(wa.size)

    def iterate_mean(wx, wy):
        middle = _middles([_congruence_of(wx, wy, shared.basis, tol)])
        return _mean_from_middle([sigma_h.h], middle, tol)[0, 0]

    if not forward:
        c = float(_eigvalsh(iterate_mean(wa, wb))[0])
        if c <= 0.0:
            raise NotPositiveDefiniteError("mean not positive definite; cannot normalize upward")
        wa, wb = wa / c, wb / c
    claims = []
    for k in range(n_iter + 1):
        if k:
            wa, wb = _finite(_fn_values(f, wa)), _finite(_fn_values(f, wb))
        claims.append(("iterate-bound" if k else "hypothesis", iterate_mean(wa, wb), eye))
    links = _loewner_links(claims, tol, forward)
    params["direction"] = "forward" if forward else "reversed"
    return _outcome("contraction_implication", "mean-contraction-iterates", links, params)


def check_inverse_function(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Coefficient bounds driven by the convexity of the registered inverse.

    Convex inverse:  (f(M)/M) S <= f(A) sigma f(B) <= (f(m)/m) S.
    Concave inverse: (f(m)/m) S <= f(A) sigma f(B) <= (f(M)/M) S.
    The 1 x 1 case of :func:`check_inverse_function_grid`.
    """
    return _one(check_inverse_function_grid((f,), (sigma,), A, B, tol))


def check_inverse_function_grid(fs, sigmas, A, B, tol=DEFAULT_TOL) -> list:
    """:func:`check_inverse_function` for every function in ``fs`` and mean in ``sigmas``.

    One grid (:func:`_mean_grid`) of :func:`check_main_chain`'s links
    against X, run forward for a concave inverse (inverse-low is the low
    link) and reversed for a convex one (inverse-low is the high link).
    """

    def judge(pair, fs, tags, means, X, coefs, results):
        S, _, ws, _ = means
        margins, passes, applies = _x_links(pair.tol, S, X, coefs, tags, ws, results)
        swap = ~np.array(tags)  # a convex inverse: inverse-low is the high link
        for links in (margins, passes, applies):
            links[swap] = links[swap][..., ::-1]
        params = [{"inverse_convexity": f.inverse.convexity.value} for f in fs]
        return ("inverse-low", "inverse-high"), margins, passes, applies, params

    return _mean_grid(
        "inverse_function", "inverse-convexity-bounds", _inverse_gate, judge,
        fs, sigmas, A, B, tol,
    )


def _inverse_gate(pair, f):
    if f.inverse is None:
        raise ValueError(f"{f.name} has no registered inverse")
    _require_fixes_zero(f)
    _require_positive(pair.factors[2])
    if f.inverse.convexity is Convexity.NEITHER:
        raise ValueError(f"inverse of {f.name} carries no convexity tag")
    return f.inverse.convexity is Convexity.CONCAVE


def check_determinant_suite(f, A, B, alpha=0.5, tol=DEFAULT_TOL) -> CheckOutcome:
    """Determinant-root inequalities and their coefficient generalizations.

    Always checked: the determinant-root superadditivity
    (det A)^(1/n) + (det B)^(1/n) <= (det(A+B))^(1/n) and the
    convexity-matched coefficient bounds on the f-images.  The convex
    combination bound det(aA + bB) <= a det A + b det B and the reverse
    bound need a spectral gap between the operands; without one those
    links report as inapplicable.  The 1 x 1 case of
    :func:`check_determinant_grid`.
    """
    return _one(check_determinant_grid((f,), A, B, alpha, tol))


def check_determinant_grid(fs, A, B, alpha=0.5, tol=DEFAULT_TOL) -> list:
    """:func:`check_determinant_suite` for every function in ``fs``.

    Returns one entry per function: the record, or the ``ValueError`` that
    :func:`check_determinant_suite` raises for it.  The eigenvalues of
    A + B and of alpha A + beta B and the determinant roots of A, B and
    A + B are computed once; f(A) keeps A's eigenvectors, so its root is
    read off f on A's spectrum, and per function only f(A) + f(B) remains,
    its eigenvalues for every function one stacked eigvalsh.
    """
    fs = tuple(fs)
    results = [None] * len(fs)

    @cache
    def trial():
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        (a, wa, va), (b, wb, vb), m, M = _pair(A, B, tol).factors
        _require_positive(m)
        da, db = _det_root(wa, tol), _det_root(wb, tol)
        return (a, wa, va), (b, wb, vb), m, M, da, db, _det_root(_eigvalsh(a + b), tol)

    def step(f):
        forward = _require_tagged(f)
        _require_fixes_zero(f)
        (_, wa, va), (_, wb, vb), *_ = trial()
        fwa, fwb = _finite(_fn_values(f, wa)), _finite(_fn_values(f, wb))
        dfab = _det_root(fwa, tol) + _det_root(fwb, tol)
        return _compose(va, fwa) + _compose(vb, fwb), (forward, dfab)

    rows, kept, w_images = _function_rows(fs, step, results)
    if not rows:
        return results
    (a, wa, _), (b, wb, _), m, M, da, db, dsum = trial()
    beta = 1.0 - alpha
    n = a.shape[0]
    gap_tol = tol * (1.0 + max(abs(M), abs(m)))
    gap_below = float(wa[0] - wb[-1]) >= gap_tol  # B entirely below A
    gap_above = float(wb[0] - wa[-1]) >= gap_tol  # B entirely above A
    gap_ok = gap_below or gap_above
    superadditivity = _scalar_link("detroot-superadditivity", da + db, dsum, tol)
    det_mix = float(np.prod(_eigvalsh(alpha * a + beta * b)))
    mix = _scalar_link(
        "convex-combination-det",
        det_mix,
        alpha * float(np.prod(wa)) + beta * float(np.prod(wb)),
        tol,
        applicable=gap_ok,
    )
    for i, w, (forward, dfab) in zip(rows, w_images, kept):
        f = fs[i]
        try:
            dfsum = _det_root(w, tol)
            c_m, c_M = float(f(m)) / m, float(f(M)) / M
            c_lo, c_hi = (c_m, c_M) if forward else (c_M, c_m)
            reverse = 2.0 ** (1.0 - 1.0 / n) * c_M * (da + db)
            links = (
                superadditivity,
                mix,
                _scalar_link("image-detroot-sum", dfab, c_hi * dsum, tol),
                _scalar_link("scaled-detroot-sum", c_lo * (da + db), dfsum, tol),
                _scalar_link("reverse-detroot-bound", dfsum, reverse, tol, applicable=gap_ok)
                if forward
                else ("reverse-detroot-bound", 0.0, True, False),
            )
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
            results[i] = _outcome("determinant_suite", "determinant-root-bounds", links, params)
        except ValueError as exc:
            results[i] = exc
    return results
