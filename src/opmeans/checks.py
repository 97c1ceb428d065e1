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
from typing import NamedTuple

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
    _flag,
    _fn_values,
    _loewner,
    _loewner_on_spectrum,
    _norm_table,
    _normal_factors,
    _opnorm_hermitian,
    _singular_values,
    _sv_hermitian,
    as_complex_array,
    as_hermitian_array,
    apply_fn,
    hermitian_part,
    matrix_abs,
    norm,
    norm_catalog,
)
from .functions import (
    REALS,
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
    "check_chord_bounds_grid",
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


class Link(NamedTuple):
    """One verified inequality link, a row (description, margin, passed, applicable)."""

    description: str
    margin: float
    passed: bool
    applicable: bool = True

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "Link":
        return cls(*map(d.__getitem__, cls._fields))


@dataclass(frozen=True, init=False)
class CheckOutcome:
    """Result of one inequality-statement verification, its links stored as columns.

    Link i is (``descriptions[i]``, ``margins[i]``, ``passes[i]``,
    ``applicable[i]``); each column is a tuple of plain Python values, so
    records compare, pickle and round-trip like the :class:`Link` tuples
    they stand for.  ``CheckOutcome(check_name, claim, links, params)``
    takes link rows (a :class:`Link` is one) and :attr:`links` gives them
    back; grids and the report writers use the columns.
    """

    check_name: str
    claim: str
    descriptions: tuple[str, ...]
    margins: tuple[float, ...]
    passes: tuple[bool, ...]
    applicable: tuple[bool, ...]
    params: dict

    def __init__(self, check_name: str, claim: str, links, params: dict):
        self._fill(check_name, claim, *(tuple(zip(*links)) or ((),) * 4), params)

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
            "links": [dict(zip(Link._fields, row)) for row in zip(*columns)],
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckOutcome":
        return cls(d["check_name"], d["claim"], map(Link.from_dict, d["links"]), dict(d["params"]))


def _one(records):
    """The record of a 1 x 1 grid, or its error raised."""
    (outcome,) = records
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


# A checker builds its links as rows (description, margin, passed, applicable)
# and hands them to CheckOutcome; a grid builds them as arrays and hands them
# to _norm_records or _mean_grid.

def _scalar_margins(lhs, rhs, tol, applicable=True):
    """Scalar links lhs <= rhs, elementwise over arrays of sides and applicable flags.

    Returns the margins rhs - lhs and the pass flags: a link passes when
    inapplicable or when margin >= -tol * (1 + max(|lhs|, |rhs|)).
    """
    margin = rhs - lhs
    scale = 1.0 + np.maximum(np.abs(lhs), np.abs(rhs))
    return margin, (margin >= -tol * scale) | np.logical_not(applicable)


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


# A checker's hypotheses are gate rows (holds, error, message), run in order by
# _gate: the first row whose holds(f, pair) is false raises error(message), the
# message formatted with f and the pair; a holds may raise its own error
# (:func:`_secant_slopes`).  A row reads the pair's factors only when it runs,
# so a function failing its own rows never factors the operands.

_TAGGED = (
    lambda f, _: f.convexity is not Convexity.NEITHER, ValueError,
    "{f.name} carries no convexity tag; checker needs convex or concave",
)
_FIXES_ZERO = (lambda f, _: f.fixes_zero, ValueError, "{f.name} does not fix zero")
_TAGGED_FIXING_ZERO = (_TAGGED, _FIXES_ZERO)
_POSITIVE = (
    lambda _, pair: pair.factors[2] > 0.0, NotPositiveDefiniteError,
    "positive definite operands required",
)


def _gate(rows, f, pair=None):
    """Raise the error of the first of the gate ``rows`` that f (and ``pair``) fails."""
    for holds, error, message in rows:
        if not holds(f, pair):
            raise error(message.format(f=f, pair=pair))


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


class SharedPair:
    """A Hermitian instance (A, B): validated and factored once, its factors reused.

    Every checker of a Hermitian pair reads A, B and their factors from a
    pair: a suite hands the records of a trial one pair's :meth:`operands`,
    and a checker given raw matrices wraps them in a fresh pair.  Each
    value is computed when first asked for and then kept: the eigenpairs of
    A and B, B's eigenvectors in A's eigenbasis and the middle
    A^(-1/2) B A^(-1/2) once, S = A sigma B with its eigenpairs once per
    tuple of means, and the middles of f(A) sigma f(B) once per tuple of
    functions (chord's secant lines among them), each tuple as one stack.
    Every mean is taken in A's eigenbasis, where A and its functions are
    diagonal; checkers compare means only through Loewner margins, spectra
    and norms, which do not depend on the basis.  A step that raises keeps
    nothing, so every record reaching it raises the same error; a mean or
    a function whose own step fails keeps its error in its row.
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
        return self._factored(*_eigh(self.a), *_eigh(self.b))

    def _factored(self, wa, va, wb, vb):
        if wa.size != wb.size:
            raise ShapeError("operands must have the same dimension")
        m, M = float(min(wa[0], wb[0])), float(max(wa[-1], wb[-1]))
        return (self.a, wa, va), (self.b, wb, vb), m, M

    @staticmethod
    def factor_group(pairs):
        """Fill the :attr:`factors` of every pair of a dimension group: one eigh per operand.

        Every pair's A must be n x n for one n.  A pair whose B is not is
        left to :attr:`factors`, which raises for it.  A stacked eigh gives
        each matrix the bits of its own, so the factors are those
        :attr:`factors` computes.
        """
        if len({pair.a.shape for pair in pairs}) > 1:
            raise ShapeError("a group's trials must share one dimension")
        todo = [p for p in pairs if "factors" not in vars(p) and p.b.shape == p.a.shape]
        if todo:
            wa, va = _eigh(np.stack([p.a for p in todo]))
            wb, vb = _eigh(np.stack([p.b for p in todo]))
            for pair, *eigenpairs in zip(todo, wa, va, wb, vb):
                pair.factors = pair._factored(*eigenpairs)

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

    The lines are c (x - m) + f(m) with c = f'(m) below and c = f'(M) above
    a convex f on PSD operands, reversed for a concave f.  The 1 x 1 case
    of :func:`check_chord_bounds_grid`.
    """
    return _one(check_chord_bounds_grid((f,), (sigma,), A, B, tol))


def _secant_slopes(f, pair):
    """(f'(m), f'(M)), m floored at 0 (:func:`_psd`): a gate row that raises its own errors."""
    _, _, m, M = _psd(pair.factors, pair.tol)
    slopes = chord_coefficients(f, m, M)
    if not all(map(math.isfinite, slopes)):
        raise ValueError(f"infinite chord coefficient for {f.name} on [{m}, {M}]")
    return slopes


def check_chord_bounds_grid(fs, sigmas, A, B, tol=DEFAULT_TOL) -> list:
    """:func:`check_chord_bounds` for every function in ``fs`` and mean in ``sigmas``.

    One grid (:func:`_mean_grid`) with no S: the lines' middles are image
    middles in one stack with f's, and every link is one stacked eigvalsh.
    """

    def judge(pair, fs, sigmas, results):
        n_f, n_s = results.shape
        m, slopes = _psd(pair.factors, pair.tol)[2], [_secant_slopes(f, pair) for f in fs]
        # each f's lower line, then each f's upper line c (x - m) + f(m), on A's and B's spectra
        lines = [
            ScalarFunction("secant", lambda x, c=c, fm=float(f(m)): c * (x - m) + fm, None, REALS)
            for cs in zip(*slopes) for f, c in zip(fs, cs)
        ]
        errors = np.full((3 * n_f, n_s), None, dtype=object)
        mid, low, high = _images(pair, (*fs, *lines), sigmas, errors).reshape(3, -1, *pair.a.shape)
        for level in errors.reshape(3, n_f, n_s):  # X's error first, then the lower line's
            open_ = np.equal(results, None)
            results[open_] = level[open_]
        fwd = np.repeat([f.convexity is Convexity.CONVEX for f in fs], n_s)[:, None, None]
        sides = ((low, mid), (mid, high))
        claims = [(np.where(fwd, lo, hi), np.where(fwd, hi, lo), None) for lo, hi in sides]
        lower, upper = _loewner(claims, pair.tol, [results.reshape(-1)] * 2)
        margins = np.stack([lower.margin, upper.margin], -1).reshape(n_f, n_s, 2)
        passes = np.stack([lower.passed, upper.passed], -1).reshape(n_f, n_s, 2)
        params = [{"m": m, "a": a, "b": b} for a, b in slopes]  # m floored at 0
        descriptions = ("lower-slope-line", "upper-slope-line")
        return descriptions, margins, passes, np.ones((n_f, 2), dtype=bool), params

    gates, claim = (_TAGGED, (_secant_slopes, None, None)), "secant-line-mean-bracket"
    return _mean_grid("chord_bounds", claim, gates, judge, fs, sigmas, A, B, tol)


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
        "main_chain", "mean-coefficient-chain", _MAIN_CHAIN_GATES, _main_chain_judge,
        fs, sigmas, A, B, tol,
    )


def _fail(errors, exc):
    """Give every record of ``errors`` (an object array) without an error the error ``exc``."""
    errors[np.equal(errors, None)] = exc


def _open(entries):
    """The flat indices of a grid's open entries (``None``), with their row and column indices."""
    rows = np.flatnonzero(np.equal(entries, None))
    return rows, *np.divmod(rows, entries.shape[1])


def _fill(check_name, claim, descriptions, margins, passes, applicable, params, results, rows):
    """Fill ``results[rows[r]]`` with the record of row r, or the ``ValueError`` it raises.

    ``margins`` and ``passes`` are (row x link) arrays; ``applicable[r]``
    and ``params[r]`` are row r's link flags and params.
    """
    margins, passes = margins.tolist(), passes.tolist()
    for r, i in enumerate(rows.tolist()):
        try:
            results[i] = CheckOutcome.from_columns(
                check_name, claim, descriptions, margins[r], passes[r], applicable[r], params[r]
            )
        except ValueError as exc:
            results[i] = exc


def _mean_grid(check_name, claim, gates, judge, fs, sigmas, A, B, tol) -> list:
    """A trial's (f, sigma) records, f outermost, of a claim on X = f(A) sigma f(B).

    Each f runs the gate rows ``gates`` (see :func:`_gate`).  The functions
    past them are one grid: ``judge(pair, fs, sigmas, results)`` takes its
    stacks (:func:`_images`, :func:`_chain_stacks`) and returns the link
    descriptions, the (f, sigma, link) margins and passes, the (f, link)
    applicable flags and each function's params.  A step failing for some
    records gives each its error in ``results`` (see ``core._flag``), one
    failing for all raises; a record keeps its first error, and its
    matrices are solved as I.
    """
    pair = _pair(A, B, tol)
    fs, sigmas = tuple(fs), tuple(sigmas)
    # per (f, sigma): None, then the record's error or the record
    results = np.full((len(fs), len(sigmas)), None, dtype=object)
    live = []  # the functions past their own gates
    for i, f in enumerate(fs):
        try:
            _gate(gates, f, pair)
            live.append(i)
        except ValueError as exc:
            _fail(results[i], exc)
    if not live:
        return list(results.ravel())
    fs, stack = [fs[i] for i in live], results[live]
    _, _, m, M = pair.factors
    try:
        descriptions, margins, passes, applicable, params = judge(pair, fs, sigmas, stack)
    except ValueError as exc:  # a step shared by every record
        _fail(stack, exc)
    else:
        rows, fn_of, mean_of = _open(stack)
        cells, applicable = list(zip(fn_of.tolist(), mean_of.tolist())), applicable.tolist()
        _fill(
            check_name, claim, descriptions, margins.reshape(stack.size, -1)[rows],
            passes.reshape(stack.size, -1)[rows], [applicable[k] for k, _ in cells],
            [{"fn": fs[k].name, "mean": sigmas[j].name, "m": m, "M": M, **params[k]}
             for k, j in cells],
            stack.reshape(-1), rows,
        )
    results[live] = stack
    return list(results.ravel())


def _images(pair, fs, sigmas, results):
    """X = f(A) sigma f(B), one (f, sigma) stack; f's own breakdown is its row's error."""
    middles, errors = pair.image_middles(tuple(fs))
    for row, error in zip(results, errors):
        if error is not None:
            _fail(row, error)
    return _mean_from_middle([s.h for s in sigmas], middles, pair.tol, results.reshape(-1))


def _chain_stacks(pair, fs, sigmas, results):
    """:meth:`SharedPair.mean_stack`, X and (f'(0), f(m)/m, f(M)/M, f'(M)) of a chain's f's.

    S's errors come first; the coefficients are taken for an f with records left.
    """
    means = pair.mean_stack(sigmas)
    results[:] = means[1]  # a record starts with its mean's error
    X = _images(pair, fs, sigmas, results)
    _, _, m, M = pair.factors
    coefs = np.zeros((len(fs), 4))
    for k, f in enumerate(fs):
        if np.equal(results[k], None).any():
            coefs[k] = float(f.deriv(0.0)), float(f(m)) / m, float(f(M)) / M, float(f.deriv(M))
    return means, X, coefs


def _on_spectra(fs, ws, results):
    """(function, mean, index): f on every spectrum; a breakdown is its record's error."""
    fws = np.empty((len(fs), *ws.shape))
    for k, f in enumerate(fs):
        try:
            fws[k] = _finite(_fn_values(f, ws, results[k]), results[k])
        except ValueError as exc:
            _fail(results[k], exc)
    return fws


_MAIN_CHAIN_GATES = (
    *_TAGGED_FIXING_ZERO,
    (lambda _, pair: pair.factors[2] > 0.0, NotPositiveDefiniteError,
     "spectra must be positive, got m={pair.factors[2]:.6e}"),
)
_MAIN_CHAIN_LINKS = tuple(
    f"{prefix}:{name}" for prefix in ("fn-then-mean", "mean-then-fn") for name, *_ in _CHAIN
)


def _main_chain_judge(pair, fs, sigmas, results):
    (S, _, ws, _), X, coefs = _chain_stacks(pair, fs, sigmas, results)
    n_f, n_s = results.shape
    tags = [f.convexity is Convexity.CONVEX for f in fs]
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
    return CheckOutcome(
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

    def judge(pair, fs, sigmas, results):
        (_, _, ws, vs), X, coefs = _chain_stacks(pair, fs, sigmas, results)
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
        "mean_difference_norm", "mean-difference-norm-bound", _MEAN_DIFFERENCE_GATES, judge,
        fs, sigmas, A, B, tol,
    )


_MEAN_DIFFERENCE_GATES = (
    (lambda f, _: f.convexity is Convexity.CONVEX, ValueError,
     "mean-difference bound requires a convex function, got {f.name}"),
    _FIXES_ZERO,
    _POSITIVE,
    (lambda f, pair: math.isfinite(float(f.deriv(0.0)))
     and math.isfinite(float(f.deriv(pair.factors[3]))), ValueError,
     "infinite endpoint derivative"),
)


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

    def judge(pair, fs, sigmas, results):
        (_, _, ws, _), X, coefs = _chain_stacks(pair, fs, sigmas, results)
        n_f, n_s = results.shape
        n = ws.shape[-1]
        tags = [f.convexity is Convexity.CONVEX for f in fs]
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
        "eig_prod_norm", "eigenvalue-product-norm-chains", (*_TAGGED_FIXING_ZERO, _POSITIVE),
        judge, fs, sigmas, A, B, tol,
    )


def check_subadditivity_refinement(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Refined subadditivity: |||f(A)+f(B)||| <= (f(M)/M)|||A+B||| <= |||f(A+B)|||.

    The bridging link needs M <= A + B; when that side condition fails it
    is reported inapplicable while the remaining links are still checked.
    The classical bound |||f(A)+f(B)||| <= |||f(A+B)||| is always included.

    The 1 x 1 case of :func:`check_subadditivity_grid`.
    """
    return _one(check_subadditivity_grid((f,), [(A, B)], norms, tol)[0])


# A group grid judges the records of a dimension group: every function of a
# suite on every trial of one dimension.  Its entries are a (function, trial)
# array, None while a record is open.  Each function's own gates, then each
# trial's step, then the (function, trial) steps give their errors to the
# entries still open (see ``core._flag``), in the order the per-record
# checker states them; a record keeps its first error, its matrices are
# solved as I, and the records left open are filled at the end.

def _group_grid(fs, trials, gates, step, judge, prepare=None) -> list:
    """A group grid's entries, per trial one per function: the record or its ``ValueError``.

    Each f runs the gate rows ``gates`` (see :func:`_gate`); ``prepare(trials)``
    runs once if any passes them; ``step(x)`` runs each trial's gates and
    returns its values.  ``judge(fs, stacks, entries)`` fills the (function,
    trial) entries of the functions and trials past their gates, given each
    step value stacked over those trials.
    """
    results = np.full((len(fs), len(trials)), None, dtype=object)
    live_f = []
    for i, f in enumerate(fs):
        try:
            _gate(gates, f)
            live_f.append(i)
        except ValueError as exc:
            results[i] = exc
    if live_f and prepare is not None:
        prepare(trials)
    live_t, kept = [], []
    for t, x in enumerate(trials if live_f else ()):
        try:
            kept.append(step(x))
            live_t.append(t)
        except ValueError as exc:
            _fail(results[:, t], exc)
    if live_t:
        entries = results[np.ix_(live_f, live_t)]
        judge([fs[i] for i in live_f], [np.array(v) for v in zip(*kept)], entries)
        results[np.ix_(live_f, live_t)] = entries
    return results.T.tolist()


def _fail_trials(entries, errors):
    """Give each trial's error in ``errors`` to its open (function, trial) entries."""
    for t in np.flatnonzero(~np.equal(errors, None)):
        _fail(entries[:, t], errors[t])


def _image_sums(fs, factors, entries):
    """f(X) + f(Y) for every function of ``fs`` and trial of a group.

    ``factors`` holds the eigenpairs (w, v) of X and of Y, each stacked over
    the trials.  Returns f on both spectra, (function, trial, n) each, and
    the images, (function, trial, n, n).  A breakdown is its (function,
    trial) entry's error: f on X's spectrum, then f(X), then Y's.
    """
    values, images = [], []
    for w, v in factors:
        fw = _on_spectra(fs, w, entries)
        image = _compose(v, fw)
        _finite(image.reshape(-1, *image.shape[-2:]), entries.reshape(-1))
        values.append(fw)
        images.append(image)
    return (*values, images[0] + images[1])


def _norm_records(check_name, claim, names, kinds, links, applicable, params, results, rows):
    """:func:`_fill` with links per norm kind.

    ``links`` holds, per name in ``names``, a (margins, passes) pair of
    (rows x kinds) arrays; a record lists its links kind by kind, in the
    order of ``names`` within a kind, and ``applicable[r]`` gives row r's
    flags for one kind's links.
    """
    descriptions = tuple(f"{name}[{kind.label()}]" for kind in kinds for name in names)
    margins, passes = (np.stack(column, axis=-1).reshape(len(rows), -1) for column in zip(*links))
    applicable = [flags * len(kinds) for flags in applicable]
    _fill(check_name, claim, descriptions, margins, passes, applicable, params, results, rows)


def check_subadditivity_grid(fs, pairs, norms=None, tol=DEFAULT_TOL) -> list:
    """:func:`check_subadditivity_refinement` for every function in ``fs`` and trial in ``pairs``.

    ``pairs`` is a dimension group: one (A, B) per trial, every operand
    n x n for one n.  Returns, per trial, one entry per function: the
    record, or the ``ValueError`` that
    :func:`check_subadditivity_refinement` raises for it.  A, B and A + B
    are factored once per trial, each as one stacked solve over the group
    (:meth:`SharedPair.factor_group`): the singular values of f(A + B) are
    |f(w)| for the eigenvalues w of A + B.  Per function only f(A) + f(B)
    remains, and its eigenvalues for every (function, trial) are one
    stacked eigvalsh.  Every norm of every matrix is one table
    (:func:`_norm_table`), and the links are margins over (record x norm
    kind) arrays.  The gates run in the order
    :func:`check_subadditivity_refinement` states them (see
    :func:`_group_grid`).
    """
    pairs = [_pair(a, b, tol) for a, b in pairs]

    def step(pair):
        (a, wa, va), (b, wb, vb), m, M = _psd(pair.factors, tol)
        if M <= 0.0:
            raise ValueError("zero operands leave no content to check")
        return a, b, wa, va, wb, vb, m, M

    def judge(fs, stacks, entries):
        a, b, wa, va, wb, vb, m, M = stacks
        n, T = wa.shape[-1], len(M)
        w_total = _eigvalsh(a + b)
        grid = np.geomspace(M * 1e-4, M, 64, axis=-1)
        for k, f in enumerate(fs):
            ratios = np.asarray(f(grid), dtype=float) / grid
            falls = np.diff(ratios, axis=-1) < -1e-9 * (1.0 + np.abs(ratios[:, :-1]))
            for t in np.flatnonzero(falls.any(axis=-1)):
                _flag(entries[k], t, ValueError(f"f(x)/x is not nondecreasing for {f.name}"))
        *_, images = _image_sums(fs, ((wa, va), (wb, vb)), entries)
        of_total = _on_spectra(fs, w_total, entries).reshape(-1, n)
        w_images = _eigvalsh(images.reshape(-1, n, n), entries.reshape(-1))
        rows, fn_of, t_of = _open(entries)
        if not rows.size:
            return
        floor = w_total[:, 0]
        bridge = floor >= M - tol * (1.0 + M)
        m, M, floor, met = (x.tolist() for x in (m, M, floor, bridge))
        cells = list(zip(fn_of.tolist(), t_of.tolist()))
        coef = np.array([float(fs[i](M[t])) / M[t] for i, t in cells])
        try:
            kinds = _norm_kinds(norms, n)
            w = np.concatenate([w_total, w_images[rows], of_total[rows]])
            table = _norm_table(_sv_hermitian(w), kinds)
        except ValueError as exc:
            _fail(entries, exc)
            return
        k = rows.size
        tot = coef[:, None] * table[:T][t_of]
        lhs, rhs = table[T : T + k], table[T + k :]
        links = (
            _scalar_margins(lhs, tot, tol),
            _scalar_margins(tot, rhs, tol, bridge[t_of, None]),
            _scalar_margins(lhs, rhs, tol),
        )
        params = [
            {"fn": fs[i].name, "m": m[t], "M": M[t], "sum_floor": floor[t],
             "bridge_condition_met": met[t]}
            for i, t in cells
        ]
        _norm_records(
            "subadditivity_refinement", "subadditivity-refinement",
            ("images-vs-coef", "coef-vs-image-of-sum", "images-vs-image-of-sum"), kinds, links,
            [(True, met[t], True) for _, t in cells], params, entries.reshape(-1), rows,
        )

    gates = (
        (lambda f, _: f.convexity is Convexity.CONVEX, ValueError,
         "subadditivity refinement requires a convex function, got {f.name}"),
        _FIXES_ZERO,
    )
    return _group_grid(fs, pairs, gates, step, judge, SharedPair.factor_group)


def _abs_factors(a, b):
    """The per-trial half of the norm chains on stacks a, b of operands, one pair per trial.

    Each matrix is factored once by complex Schur: with a = Q T Q*,
    |a| = Q |diag T| Q* and f(|a|) = Q f(|diag T|) Q*.  Returns, stacked
    over the trials, the Schur factors (moduli, Q) of a and of b, the
    smallest and largest modulus over both (their singular values when a
    and b are normal), and the eigenvalues of |a| + |b|, one stacked
    eigvalsh.
    """
    (da, qa), (db, qb) = ([np.array(x) for x in zip(*map(_normal_factors, ops))] for ops in (a, b))
    d = np.concatenate([da, db], axis=-1)
    abs_sum = _eigvalsh(_compose(qa, da) + _compose(qb, db))
    return ((da, qa), (db, qb)), d.min(axis=-1), d.max(axis=-1), abs_sum


def _abs_images(f, factors, abs_sum):
    """Singular values of f(|a|) + f(|b|) and of f(|a| + |b|) for one trial; a breakdown raises.

    ``factors`` and ``abs_sum`` are a 1-trial :func:`_abs_factors`; returns
    two rows, one per matrix.
    """
    entries = np.full((1, 1), None, dtype=object)
    *_, images = _image_sums((f,), factors, entries)
    of_abs_sum = _on_spectra((f,), abs_sum, entries)
    if entries[0, 0] is not None:
        raise entries[0, 0]
    return _sv_hermitian(np.stack([_eigvalsh(images[0, 0]), of_abs_sum[0, 0]]))


def check_normal_counterexample(tol: float = 1e-10) -> CheckOutcome:
    """Reproduce the fixed 2x2 indefinite fixture that breaks the norm chain.

    With A = diag(2, -1), B = diag(-2, 1) and f(x) = x^2 the upper norm
    bounds fail spectacularly: both |||f(|A|)+f(|B|)||| = 8 and
    |||f(|A|+|B|)||| = 16 exceed (f(M)/M)|||A+B||| = f'(M)|||A+B||| = 0.
    """
    a = np.diag([2.0, -1.0]).astype(np.complex128)
    b = np.diag([-2.0, 1.0]).astype(np.complex128)
    f = function_by_name("power:2")
    factors, m, M, abs_sum = _abs_factors([a], [b])
    m, M = float(m[0]), float(M[0])
    sv = np.concatenate([_abs_images(f, factors, abs_sum), _singular_values((a + b)[None])])
    images_sum, image_of_abs_sum, sum_norm = _norm_table(sv, (NormKind.operator(),))[:, 0].tolist()
    coef_bound = (float(f(M)) / M) * sum_norm
    deriv_bound = float(f.deriv(M)) * sum_norm
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
    kinds = _norm_kinds(norms, a.shape[0])
    table = _norm_table(_singular_values(np.stack([a + b, abs_sum])), kinds)
    links = (_scalar_margins(table[:1], table[1:], tol),)
    return _norm_record(
        "normal_triangle", "normal-abs-triangle", ("triangle",), kinds, links, {"dim": a.shape[0]}
    )


def _norm_record(check_name, claim, names, kinds, links, params) -> CheckOutcome:
    """The one record of :func:`_norm_records` whose links are all applicable, or its error."""
    results, rows, applicable = np.full(1, None, dtype=object), np.arange(1), [(True,) * len(names)]
    _norm_records(check_name, claim, names, kinds, links, applicable, [params], results, rows)
    return _one(results)


def check_normal_chain(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Lower norm chains surviving on normal matrices.

    Convex f: f'(0)|||A+B||| <= (f(m)/m)|||A+B||| <= |||f(|A|)+f(|B|)|||
    and f'(0)|||A+B||| <= (f(2m)/2m)|||A+B||| <= |||f(|A|+|B|)|||, with m, M
    the extreme singular values of A and B.  Concave f uses coefficients
    f'(M), f(M)/M and f(2M)/2M instead.  The 1 x 1 case of
    :func:`check_normal_chain_grid`.
    """
    return _one(check_normal_chain_grid((f,), [(A, B)], norms, tol)[0])


def check_normal_chain_grid(fs, pairs, norms=None, tol=DEFAULT_TOL) -> list:
    """:func:`check_normal_chain` for every function in ``fs`` and trial in ``pairs``.

    ``pairs`` is a dimension group, as for :func:`check_subadditivity_grid`;
    returns, per trial, one entry per function: the record, or the
    ``ValueError`` that :func:`check_normal_chain` raises for it.  Per trial
    both normality gates and both Schur factorizations are computed once,
    per matrix; the eigenvalues of |A| + |B| and the singular values of
    A + B are one stacked solve each over the group.  Per function only
    f(|A|) + f(|B|) remains, and its eigenvalues for every (function,
    trial) are one stacked eigvalsh.  Every norm of every matrix is one
    table and the links are margins over (record x norm kind) arrays, as in
    :func:`check_subadditivity_grid`.
    """
    pairs = [(as_complex_array(a), as_complex_array(b)) for a, b in pairs]
    if len({a.shape for a, _ in pairs}) > 1:
        raise ShapeError("a group's trials must share one dimension")

    def step(pair):
        a, b = pair
        _require_normal(a, tol, "first operand")
        _require_normal(b, tol, "second operand")
        if b.shape != a.shape:
            raise ShapeError("operands must have the same dimension")
        return pair

    def judge(fs, stacks, entries):
        a, b = stacks
        n, forward = a.shape[-1], [f.convexity is Convexity.CONVEX for f in fs]
        factors, m, M, abs_sum = _abs_factors(a, b)
        *_, images = _image_sums(fs, factors, entries)
        of_abs_sum = _on_spectra(fs, abs_sum, entries).reshape(-1, n)
        for t in np.flatnonzero(m <= 0.0):
            _fail(entries[:, t], NotPositiveDefiniteError("singular values must be positive"))
        w_images = _eigvalsh(images.reshape(-1, n, n), entries.reshape(-1))
        errors = np.full(len(a), None, dtype=object)
        sv_sum = _singular_values(_finite(a + b, errors), errors)
        _fail_trials(entries, errors)
        rows, fn_of, t_of = _open(entries)
        if not rows.size:
            return
        m, M = m.tolist(), M.tolist()
        cells = list(zip(fn_of.tolist(), t_of.tolist()))
        coefs = []
        for i, t in cells:
            f, x = fs[i], (m[t] if forward[i] else M[t])
            edge = float(f.deriv(0.0 if forward[i] else M[t]))
            coefs.append((edge, float(f(x)) / x, float(f(2.0 * x)) / (2.0 * x)))
        try:
            kinds = _norm_kinds(norms, n)
            w = np.concatenate([w_images[rows], of_abs_sum[rows]])
            table = _norm_table(np.concatenate([sv_sum, _sv_hermitian(w)]), kinds)
        except ValueError as exc:
            _fail(entries, exc)
            return
        T, k = len(a), rows.size
        base = table[:T][t_of]
        edge, c_sep, c_sum = (np.array(c)[:, None] for c in zip(*coefs))
        # an infinite f'(0) or f'(M) leaves both edge links vacuous: margin 0, passed
        has_edge = np.isfinite(edge)
        edge = np.where(has_edge, edge, 0.0) * base
        sep, tot = c_sep * base, c_sum * base
        links = [
            _scalar_margins(edge, sep, tol),
            _scalar_margins(sep, table[T : T + k], tol),
            _scalar_margins(edge, tot, tol),
            _scalar_margins(tot, table[T + k :], tol),
        ]
        for j in (0, 2):
            margin, passed = links[j]
            links[j] = np.where(has_edge, margin, 0.0), passed | ~has_edge
        params = [
            {"fn": fs[i].name, "m": m[t], "M": M[t], "convex": forward[i], "dim": n}
            for i, t in cells
        ]
        _norm_records(
            "normal_chain", "normal-abs-norm-chain",
            ("sep-edge", "sep-bound", "sum-edge", "sum-bound"), kinds, links,
            [(ok, True, ok, True) for ok in has_edge[:, 0].tolist()], params,
            entries.reshape(-1), rows,
        )

    return _group_grid(fs, pairs, _TAGGED_FIXING_ZERO, step, judge)


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
    sv = _singular_values(np.stack([a, b, a + b]))
    m, M = float(sv[:2].min()), float(sv[:2].max())
    factors, _, _, abs_sum = _abs_factors([a], [b])
    sv = np.concatenate([sv[2:], _abs_images(f, factors, abs_sum)])
    base, sep, tot = np.split(_norm_table(sv, norms), 3)
    bound = float(f(M)) / M * base
    links = (_scalar_margins(sep, bound, tol), _scalar_margins(tot, bound, tol))
    return _norm_record(
        "transplanted_norm_chain", "normal-upper-norm-bounds", ("upper-sep", "upper-sum"), norms,
        links, {"fn": f.name, "M": M, "m": m},
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
    _gate((_POSITIVE,), None, pair)
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
    (_, wa, _), (_, wb, _), _, _ = pair.factors
    _gate((_POSITIVE,), None, pair)
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
        ("coefficient-ordering", *_scalar_margins(c_ah, c_chain, tol), True),
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
    return CheckOutcome("contraction_implication", "mean-contraction-iterates", links, params)


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

    def judge(pair, fs, sigmas, results):
        (S, _, ws, _), X, coefs = _chain_stacks(pair, fs, sigmas, results)
        # a convex inverse: inverse-low is the high link
        swap = np.array([f.inverse.convexity is Convexity.CONVEX for f in fs])
        margins, passes, applies = _x_links(pair.tol, S, X, coefs, ~swap, ws, results)
        for links in (margins, passes, applies):
            links[swap] = links[swap][..., ::-1]
        params = [{"inverse_convexity": f.inverse.convexity.value} for f in fs]
        return ("inverse-low", "inverse-high"), margins, passes, applies, params

    gates = (
        (lambda f, _: f.inverse is not None, ValueError, "{f.name} has no registered inverse"),
        _FIXES_ZERO,
        _POSITIVE,
        (lambda f, _: f.inverse.convexity is not Convexity.NEITHER, ValueError,
         "inverse of {f.name} carries no convexity tag"),
    )
    return _mean_grid(
        "inverse_function", "inverse-convexity-bounds", gates, judge, fs, sigmas, A, B, tol
    )


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
    return _one(check_determinant_grid((f,), [(A, B, alpha)], tol)[0])


def check_determinant_grid(fs, trials, tol=DEFAULT_TOL) -> list:
    """:func:`check_determinant_suite` for every function in ``fs`` and trial in ``trials``.

    ``trials`` is a dimension group: one (A, B, alpha) per trial, every
    operand n x n for one n.  Returns, per trial, one entry per function:
    the record, or the ``ValueError`` that :func:`check_determinant_suite`
    raises for it.  Per trial the factors of A and B, the eigenvalues of
    A + B and of alpha A + beta B and the determinant roots of A, B and
    A + B are computed once, each as one stacked solve or array over the
    group; f(A) keeps A's eigenvectors, so its root is read off f on A's
    spectrum, and per function only f(A) + f(B) remains, its eigenvalues
    for every (function, trial) one stacked eigvalsh.
    """
    trials = [(_pair(a, b, tol), alpha) for a, b, alpha in trials]

    def step(trial):
        pair, alpha = trial
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        (a, wa, va), (b, wb, vb), m, M = pair.factors
        _gate((_POSITIVE,), None, pair)
        return a, b, wa, va, wb, vb, m, M, alpha

    def judge(fs, stacks, entries):
        a, b, wa, va, wb, vb, m, M, alpha = stacks
        n, forward = wa.shape[-1], [f.convexity is Convexity.CONVEX for f in fs]
        errors = np.full(len(a), None, dtype=object)
        da, db = _det_root(wa, tol, errors), _det_root(wb, tol, errors)
        dsum = _det_root(_eigvalsh(a + b, errors), tol, errors)
        _fail_trials(entries, errors)
        fwa, fwb, images = _image_sums(fs, ((wa, va), (wb, vb)), entries)
        flat = entries.reshape(-1)
        dfab = _det_root(fwa.reshape(-1, n), tol, flat) + _det_root(fwb.reshape(-1, n), tol, flat)
        dfsum = _det_root(_eigvalsh(images.reshape(-1, n, n), flat), tol, flat)
        rows, fn_of, t_of = _open(entries)
        if not rows.size:
            return
        beta = 1.0 - alpha
        gap_tol = tol * (1.0 + np.maximum(np.abs(M), np.abs(m)))
        gap_below = wa[:, 0] - wb[:, -1] >= gap_tol  # B entirely below A
        gap_above = wb[:, 0] - wa[:, -1] >= gap_tol  # B entirely above A
        gap = gap_below | gap_above
        mix = np.prod(_eigvalsh(alpha[:, None, None] * a + beta[:, None, None] * b), axis=-1)
        mixed_dets = alpha * np.prod(wa, axis=-1) + beta * np.prod(wb, axis=-1)
        trial_links = (
            _scalar_margins(da + db, dsum, tol),
            _scalar_margins(mix, mixed_dets, tol, gap),
        )
        cells = list(zip(fn_of.tolist(), t_of.tolist()))
        ms, Ms = m.tolist(), M.tolist()
        c_m = np.array([float(fs[i](ms[t])) / ms[t] for i, t in cells])
        c_M = np.array([float(fs[i](Ms[t])) / Ms[t] for i, t in cells])
        convex = np.array(forward)[fn_of]
        c_lo, c_hi = np.where(convex, c_m, c_M), np.where(convex, c_M, c_m)
        d_ab, d_sum, gap_of = (da + db)[t_of], dsum[t_of], gap[t_of]
        reverse = _scalar_margins(dfsum[rows], 2.0 ** (1.0 - 1.0 / n) * c_M * d_ab, tol, gap_of)
        links = (
            *((margin[t_of], passed[t_of]) for margin, passed in trial_links),
            _scalar_margins(dfab[rows], c_hi * d_sum, tol),
            _scalar_margins(c_lo * d_ab, dfsum[rows], tol),
            (np.where(convex, reverse[0], 0.0), np.where(convex, reverse[1], True)),
        )
        margins, passes = (np.stack(column, axis=-1) for column in zip(*links))
        gap_of, below, above, alpha = (x.tolist() for x in (gap_of, gap_below, gap_above, alpha))
        applicable = [
            (True, gap, True, True, gap and forward[i]) for (i, _), gap in zip(cells, gap_of)
        ]
        params = [
            {"fn": fs[i].name, "alpha": alpha[t], "m": ms[t], "M": Ms[t], "dim": n,
             "gap_below": below[t], "gap_above": above[t], "convex": forward[i]}
            for i, t in cells
        ]
        _fill(
            "determinant_suite", "determinant-root-bounds",
            ("detroot-superadditivity", "convex-combination-det", "image-detroot-sum",
             "scaled-detroot-sum", "reverse-detroot-bound"),
            margins, passes, applicable, params, flat, rows,
        )

    return _group_grid(
        fs, trials, _TAGGED_FIXING_ZERO, step, judge,
        lambda trials: SharedPair.factor_group([pair for pair, _ in trials]),
    )
