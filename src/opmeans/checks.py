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
    "check_power_mean_grid",
    "check_ando_hiai_comparison",
    "check_ando_hiai_grid",
    "check_contraction_implication",
    "check_inverse_function",
    "check_inverse_function_grid",
    "check_determinant_suite",
    "check_determinant_grid",
    "PairStack",
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
# to _norm_records or _mean_group.

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
# (:func:`_secant_slopes`).  A pair is a :class:`PairStack` row, factored only
# once some function has passed its own rows (see :func:`_group_grid`).

_TAGGED = (
    lambda f, _: f.convexity is not Convexity.NEITHER, ValueError,
    "{f.name} carries no convexity tag; checker needs convex or concave",
)
_FIXES_ZERO = (lambda f, _: f.fixes_zero, ValueError, "{f.name} does not fix zero")
_TAGGED_FIXING_ZERO = (_TAGGED, _FIXES_ZERO)
_POSITIVE = (
    lambda _, pair: pair.m > 0.0, NotPositiveDefiniteError,
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

    ``coefs`` (function, trial, 4, 1 or K) holds the coefficients (c0, c1,
    c2, c3), ``s`` (trial, mean, K) stands for S and ``x`` (function,
    trial, mean, K) for X.  lo and hi are (function, trial, mean, link, K),
    reversed where ``forward`` is false, and ``applies`` is (function,
    trial, link, K); a vacuous link is 0 <= 0.
    """
    at = np.insert(coefs, 2, 0.0, axis=-2)  # the positions of (c0, c1, X, c2, c3)
    applies = np.stack([np.isfinite(at[..., list(n), :]).all(axis=-2) for *_, n in _CHAIN], -2)

    def side(positions):
        values = np.where(applies, at[..., positions, :], 0.0)[:, :, None] * s[:, :, None]
        at_x = (np.equal(positions, 2)[:, None] & applies)[:, :, None]
        return np.where(at_x, x[..., None, :], values)

    left, right = (side([link[i] for link in _CHAIN]) for i in (1, 2))
    fwd = np.asarray(forward)[:, None, None, None, None]
    applies = np.broadcast_to(applies, (*applies.shape[:-1], s.shape[-1]))
    return np.where(fwd, left, right), np.where(fwd, right, left), applies


def _x_links(tol, S, X, coefs, forward, ws, entries):
    """The links c1 S <= X <= c2 S of every record (reversed where ``forward`` is false).

    All are one stacked eigvalsh, a link with right side c S at the scale 1 + |c| max |spec S|,
    one with right side X at 1 + ||X||_op, solved only for a negative margin.  Returns their
    margins and passes, (function, trial, mean, link), and the applicable flags (function,
    trial, link): low is vacuous (margin 0) where c1 is infinite.
    """
    (n_f, n_t, n_s), n = entries.shape, S.shape[-1]
    applies = np.ones((n_f, n_t, 2), dtype=bool)
    applies[..., 0] = np.isfinite(coefs[..., 1])
    cs = np.where(applies, coefs[..., 1:3], 0.0)[..., None]  # a vacuous link: 0 S, masked below
    slots = [(k, link) for k in range(n_f) for link in (0, 1) if applies[k, :, link].any()]
    norm_s, comparisons = np.abs(ws).max(axis=-1), []
    for k, link in slots:
        c = cs[k, :, link]
        cS, x = (c[..., None, None] * S).reshape(-1, n, n), X[k].reshape(-1, n, n)
        if (link == 0) == forward[k]:  # c S <= X
            comparisons.append((cS, x, None))
        else:
            comparisons.append((x, cS, (1.0 + np.abs(c) * norm_s).reshape(-1)))
    margins, passes = np.zeros((n_f, n_t, n_s, 2)), np.ones((n_f, n_t, n_s, 2), dtype=bool)
    errors = [entries[k].reshape(-1) for k, _ in slots]
    for (k, link), res in zip(slots, _loewner(comparisons, tol, errors)):
        margins[k, ..., link] = res.margin.reshape(n_t, n_s)
        passes[k, ..., link] = res.passed.reshape(n_t, n_s)
    live = applies[:, :, None]
    return np.where(live, margins, 0.0), passes | ~live, applies


def _psd(pair, tol):
    """A :class:`PairStack` row of PSD operands: m below -tol * scale raises, else floored at 0."""
    m, M = pair.m, pair.M
    if m < -tol * (1.0 + max(abs(m), abs(M))):
        raise NotPositiveSemidefiniteError(f"operand eigenvalue {m:.6e} below -tol*scale")
    return pair._replace(m=max(m, 0.0))


def _image(f, w, v, errors=None):
    """f(X) from the eigenpairs (w, v) of X, or of each X of a stack (see ``core._flag``)."""
    return _finite(_compose(v, _fn_values(f, w, errors)), errors)


def _congruence_of(wa, wb, w, tol, errors=None):
    """The gates and the congruence of diag(wa) sigma (W diag(wb) W*), in A's eigenbasis.

    ``w`` holds B's eigenvectors written in A's eigenbasis
    (:meth:`PairStack.basis`), so any functions of A and B keep the form
    diag(f(wa)) and W diag(g(wb)) W* there.  The rows of ``means._middles``,
    one per spectrum of a stack; a row's breakdown is its error.
    """
    n = wa.shape[-1]
    b = _finite(_compose(w, wb).reshape(-1, n, n), errors)
    return _mean_gates(wa.reshape(-1, n), b, wb.reshape(-1, n), tol, errors)


def _secant_lines(c, m, fm):
    """The lines c (x - m) + f(m) on a group's spectra, (c, m, f(m)) one row per trial."""
    return ScalarFunction("secant", lambda x: c * (x - m) + fm, None, REALS)


class PairStack(NamedTuple):
    """Hermitian instances (A, B) with their factors: a group's stacked, or one trial's row.

    Each field holds one value per trial on a leading axis, or, in a row,
    one trial's: the operands, their eigenpairs (wa, va) and (wb, vb), and
    the extreme eigenvalues (m, M) of both.  :meth:`group` is the one place
    a pair is validated and factored.  A dimension group's S = A sigma B
    and middles of f(A) sigma f(B) are made for the call that asks and kept
    by nothing.  Every mean is taken in A's eigenbasis, where A and its
    functions are diagonal; checkers compare means only by Loewner margins,
    spectra and norms, which do not depend on the basis.  A step that fails
    keeps its error in its rows, so every record reaching it gets that error.
    """

    a: np.ndarray
    b: np.ndarray
    wa: np.ndarray
    va: np.ndarray
    wb: np.ndarray
    vb: np.ndarray
    m: float
    M: float

    @classmethod
    def group(cls, pairs) -> list:
        """A dimension group's (A, B) pairs, per trial its row or its ``ValueError``.

        A refused operand is its trial's error, A's before B's.  Every A
        left must be n x n for one n; a B that is not is its trial's error.
        The A's left are one stacked eigh, and so are the B's: a stacked
        eigh gives each matrix the bits of its own.
        """
        rows = []
        for A, B in pairs:
            try:
                rows.append((as_hermitian_array(A), as_hermitian_array(B)))
            except ValueError as exc:
                rows.append(exc.with_traceback(None))
        valid = [t for t, row in enumerate(rows) if isinstance(row, tuple)]
        if len({rows[t][0].shape for t in valid}) > 1:
            raise ShapeError("a group's trials must share one dimension")
        for t in valid:
            if rows[t][1].shape != rows[t][0].shape:
                rows[t] = ShapeError("operands must have the same dimension")
        same = [t for t in valid if isinstance(rows[t], tuple)]
        if same:
            a, b = (np.stack([rows[t][i] for t in same]) for i in (0, 1))
            (wa, va), (wb, vb) = _eigh(a), _eigh(b)
            # Python floats, min and max in (A, B) order: a -0.0 stays -0.0
            m = map(min, wa[:, 0].tolist(), wb[:, 0].tolist())
            M = map(max, wa[:, -1].tolist(), wb[:, -1].tolist())
            for t, *row in zip(same, a, b, wa, va, wb, vb, m, M):
                rows[t] = cls(*row)
        return rows

    def basis(self):
        """B's eigenvectors written in A's eigenbasis, W = Va* Vb: there B = W diag(wb) W*."""
        return self.va.conj().swapaxes(-1, -2) @ self.vb

    def mean_stack(self, sigmas: tuple, tol):
        """S = A sigma B, in A's eigenbasis, for each trial of the stack and each of ``sigmas``.

        Returns (S, errors), each (trial, mean, ...): every S and its error (its middle's
        first).  A caller factors S as it reads it, a row with an error as I.
        """
        middles, errors = self.image_middles((None,), tol)
        # (trial, mean): a mean starts with its middle's error
        errors = np.repeat(errors.T, len(sigmas), axis=1)
        return _mean_from_middle([s.h for s in sigmas], middles, tol, errors.reshape(-1)), errors

    @staticmethod
    def mean_spectra(S, errors, vectors=False):
        """Each S's eigenvalues (or ``vectors``: eigenpairs), a row per (trial, mean), one solve."""
        return (_eigh if vectors else _eigvalsh)(S.reshape(-1, *S.shape[-2:]), errors.reshape(-1))

    def image_middles(self, fs, tol):
        """The mean-independent halves of f(A) sigma f(B) for each of ``fs`` and trial of the stack.

        Returns the middles (see ``means._middles``), one row per (function,
        trial), and their errors, (function, trial).  Each f is taken once on
        the spectra of A and B of all the trials; the middles are one stacked
        eigh.  The row of an f whose f(A) is not finite, or whose f(B) fails
        the mean's gate, keeps that error and is factored as I.
        """
        wa, wb = self.wa, self.wb
        errors = np.full((len(fs), len(wa)), None, dtype=object)
        fa, fb = np.ones((2, len(fs), *wa.shape))
        for k, f in enumerate(fs):
            try:
                fa[k] = wa if f is None else _finite(_fn_values(f, wa, errors[k]), errors[k])
                fb[k] = wb if f is None else _fn_values(f, wb, errors[k])
            except ValueError as exc:
                _fail(errors[k], exc)
        dead, flat = ~np.equal(errors, None), errors.reshape(-1)
        if dead.any():
            fa[dead], fb[dead] = 1.0, 1.0
        return _middles(_congruence_of(fa, fb, self.basis(), tol, flat), flat), errors


def _norm_kinds(norms, dim):
    if norms is None:
        # trace and Frobenius repeat Schatten 1 and 2 under other names
        return [k for k in norm_catalog(dim) if k.variant not in ("trace", "frobenius")]
    return [NormKind.parse(k) if isinstance(k, str) else k for k in norms]


def _group_grid(fs, trials, gates, step, judge, prepare=None, means=(), cells=()) -> list:
    """A group grid's entries, per trial one per configuration: the record or its ``ValueError``.

    A group grid judges every configuration of a suite (a function, or a
    (function, mean) pair, function outermost) on every trial of a
    dimension group, each step one stacked solve.  Its entries are a
    (function, trial, *means) array, ``None`` while a record is open.  Each
    f runs the gate rows ``gates`` (see :func:`_gate`); ``prepare(trials)``
    runs once if any passes them and gives the trials, a trial it refuses as
    its ``ValueError``; ``step(x)`` runs each trial's gates and returns its
    values; each (f, x) left runs the gate rows ``cells``.
    ``judge(fs, stacks, entries)`` then takes the functions and trials with
    entries left and each step value stacked over those trials, and fills
    the entries; a ``ValueError`` it raises is every open record's.  Each
    step gives its errors to the entries still open (see ``core._flag``) in
    the order the 1 x 1 checker states them, and a record with an error is
    solved as I, so every entry is the 1 x 1 checker's, bit for bit.
    """
    results = np.full((len(fs), len(trials), *means), None, dtype=object)
    live_f = []
    for i, f in enumerate(fs):
        try:
            _gate(gates, f)
            live_f.append(i)
        except ValueError as exc:
            _fail(results[i], exc)
    if live_f and prepare is not None:
        trials = prepare(trials)
    kept = {}
    for t, x in enumerate(trials if live_f else ()):
        try:
            if isinstance(x, ValueError):
                raise x
            kept[t] = step(x)
        except ValueError as exc:
            _fail(results[:, t], exc)
    for i in live_f if cells else ():
        for t in kept:
            try:
                _gate(cells, fs[i], trials[t])
            except ValueError as exc:
                _fail(results[i, t], exc)
    live = np.equal(results, None).any(axis=tuple(range(2, results.ndim)))
    live_f, live_t = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    if live_t.size:
        entries = results[np.ix_(live_f, live_t)]
        stacks = [_stacked(v) for v in zip(*(kept[t] for t in live_t))]
        try:
            judge([fs[i] for i in live_f], stacks, entries)
        except ValueError as exc:
            _fail(entries, exc)
        results[np.ix_(live_f, live_t)] = entries
    return results.swapaxes(0, 1).reshape(len(trials), len(fs) * math.prod(means)).tolist()


def _stacked(rows):
    """The step values of a group's open trials, one per trial in trial order, stacked.

    A trial's step sees only its own :class:`PairStack` row, views of the
    stacks :meth:`PairStack.group` made; so values that view one stack, one
    per row and shaped as its rows, are its rows in order, and are that stack.
    """
    whole, first = getattr(rows[0], "base", None), rows[0]
    if (isinstance(whole, np.ndarray) and whole.shape == (len(rows), *first.shape)
            and whole.dtype == first.dtype and whole.strides[1:] == first.strides
            and all(row.base is whole for row in rows)):
        return whole
    return np.array(rows)


def _fail(errors, *excs):
    """Give each open entry of ``errors`` the first of ``excs`` (broadcast), traceback dropped."""
    for exc in excs:
        open_ = np.equal(errors, None)
        if np.ndim(exc):
            errors[open_] = np.broadcast_to(exc, errors.shape)[open_]
        else:
            errors[open_] = exc.with_traceback(None)


def _open(entries):
    """The flat indices of a grid's open entries (``None``), with their index along each axis."""
    rows = np.flatnonzero(np.equal(entries, None))
    return rows, *np.unravel_index(rows, entries.shape)


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
            _flag(results, i, exc)


def _mean_group(check_name, claim, gates, judge, fs, sigmas, pairs, tol) -> list:
    """A dimension group's records of a claim on X = f(A) sigma f(B), per trial one per (f, sigma).

    ``pairs`` holds one (A, B) per trial, every operand n x n for one n;
    ``gates`` the gate rows each function runs, then those each (function,
    trial) runs.  The cells past them are one :func:`_group_grid`:
    ``judge(stack, fs, sigmas, entries)``, with the open trials' one
    :class:`PairStack`, returns the link descriptions,
    the (function, trial, mean, link) margins and passes, the (function,
    trial, link) applicable flags and each (function, trial)'s params.
    """
    fn_rows, cell_rows = gates
    sigmas = tuple(sigmas)

    def run(fs, stacks, entries):
        stack = PairStack(*stacks)
        descriptions, margins, passes, applicable, params = judge(stack, fs, sigmas, entries)
        rows, fn_of, t_of, mean_of = _open(entries)
        cells = list(zip(fn_of.tolist(), t_of.tolist(), mean_of.tolist()))
        m, M, applicable = stack.m.tolist(), stack.M.tolist(), applicable.tolist()
        _fill(
            check_name, claim, descriptions, margins.reshape(entries.size, -1)[rows],
            passes.reshape(entries.size, -1)[rows], [applicable[k][t] for k, t, _ in cells],
            [{"fn": fs[k].name, "mean": sigmas[j].name, "m": m[t], "M": M[t], **params[k][t]}
             for k, t, j in cells],
            entries.reshape(-1), rows,
        )

    return _group_grid(fs, pairs, fn_rows, lambda pair: pair, run, PairStack.group,
                       (len(sigmas),), cell_rows)


def _images(stack, fs, sigmas, tol, entries):
    """X = f(A) sigma f(B), (function, trial, mean); f's breakdown on a trial is its entries'."""
    middles, errors = stack.image_middles(fs, tol)
    _fail(entries, errors[..., None])
    X = _mean_from_middle([s.h for s in sigmas], middles, tol, entries.reshape(-1))
    return X.reshape(*entries.shape, *X.shape[-2:])


def _chain_stacks(stack, fs, sigmas, tol, entries):
    """S, X and the coefficients (f'(0), f(m)/m, f(M)/M, f'(M)) of a chain's functions on a group.

    S (trial, mean) comes with its errors, for a judge to factor as it reads S, X is (function,
    trial, mean) and the coefficients (function, trial, 4), taken where records are left.
    """
    S, errors = stack.mean_stack(sigmas, tol)
    _fail(entries, errors)  # a record starts with its mean's error
    X = _images(stack, tuple(fs), sigmas, tol, entries)
    ms, Ms = stack.m.tolist(), stack.M.tolist()
    coefs = np.zeros((len(fs), len(ms), 4))
    for k, t in np.argwhere(np.equal(entries, None).any(axis=-1)).tolist():
        f, m, M = fs[k], ms[t], Ms[t]
        coefs[k, t] = float(f.deriv(0.0)), float(f(m)) / m, float(f(M)) / M, float(f.deriv(M))
    return (S, errors), X, coefs


def _on_spectra(fs, ws, results):
    """(function, *ws.shape): f on every spectrum of ``ws``; a breakdown is its record's error."""
    fws = np.empty((len(fs), *ws.shape))
    w = ws.reshape(-1, ws.shape[-1])
    for k, f in enumerate(fs):
        row = results[k].reshape(-1)
        try:
            fws[k] = _finite(_fn_values(f, w, row), row).reshape(ws.shape)
        except ValueError as exc:
            _fail(results[k], exc)
    return fws


def check_chord_bounds(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Mean of the endpoint secant lines brackets the mean of the images.

    The lines are c (x - m) + f(m) with c = f'(m) below and c = f'(M) above
    a convex f on PSD operands, reversed for a concave f.  The 1 x 1 case
    of :func:`check_chord_bounds_grid`.
    """
    return _one(check_chord_bounds_grid((f,), (sigma,), [(A, B)], tol)[0])


def _secant_slopes(f, pair, tol):
    """(f'(m), f'(M)), m floored at 0 (:func:`_psd`): a gate row that raises its own errors."""
    *_, m, M = _psd(pair, tol)
    slopes = chord_coefficients(f, m, M)
    if not all(map(math.isfinite, slopes)):
        raise ValueError(f"infinite chord coefficient for {f.name} on [{m}, {M}]")
    return slopes


def check_chord_bounds_grid(fs, sigmas, pairs, tol=DEFAULT_TOL) -> list:
    """:func:`check_chord_bounds` for every function, mean and trial of a group.

    ``pairs`` is a dimension group (see :func:`_mean_group`).  One grid with
    no S: the lines' middles are image middles in one stack with f's, and
    every link of the group is one stacked eigvalsh.
    """

    def judge(stack, fs, sigmas, entries):
        n_f, n_t, n_s = entries.shape
        # (f'(m), f'(M), f(m)) per cell; a cell closed by its gates takes the line 1, unused
        params, values = [[{}] * n_t for _ in fs], np.tile([0.0, 0.0, 1.0], (n_f, n_t, 1))
        m, M = [max(x, 0.0) for x in stack.m.tolist()], stack.M.tolist()  # m floored as _psd does
        for k, t in np.argwhere(np.equal(entries, None).all(axis=-1)).tolist():
            a, b = chord_coefficients(fs[k], m[t], M[t])  # finite: the cell passed _secant_slopes
            params[k][t], values[k, t] = {"m": m[t], "a": a, "b": b}, (a, b, float(fs[k](m[t])))
        # each f, each f's lower line, then each f's upper line c (x - m) + f(m)
        lines = [
            _secant_lines(*np.stack([values[k, :, i], m, values[k, :, 2]])[..., None])
            for i in (0, 1) for k in range(n_f)
        ]
        errors = np.full((3 * n_f, n_t, n_s), None, dtype=object)
        X = _images(stack, (*fs, *lines), sigmas, tol, errors)
        mid, low, high = X.reshape(3, -1, *X.shape[-2:])
        _fail(entries, *errors.reshape(3, n_f, n_t, n_s))  # X's error, then the lower line's
        fwd = np.repeat([f.convexity is Convexity.CONVEX for f in fs], n_t * n_s)[:, None, None]
        sides = ((low, mid), (mid, high))
        claims = [(np.where(fwd, lo, hi), np.where(fwd, hi, lo), None) for lo, hi in sides]
        lower, upper = _loewner(claims, tol, [entries.reshape(-1)] * 2)
        margins = np.stack([lower.margin, upper.margin], -1).reshape(n_f, n_t, n_s, 2)
        passes = np.stack([lower.passed, upper.passed], -1).reshape(n_f, n_t, n_s, 2)
        descriptions = ("lower-slope-line", "upper-slope-line")
        return descriptions, margins, passes, np.ones((n_f, n_t, 2), dtype=bool), params

    gates = ((_TAGGED,), ((lambda f, pair: _secant_slopes(f, pair, tol), None, None),))
    return _mean_group(
        "chord_bounds", "secant-line-mean-bracket", gates, judge, fs, sigmas, pairs, tol
    )


def check_main_chain(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Coefficient chain around f(A) sigma f(B) and around f(A sigma B).

    f'(0) S <= (f(m)/m) S <= f(A) sigma f(B) <= (f(M)/M) S <= f'(M) S with
    S = A sigma B, and the same chain around f(A sigma B); all comparisons
    reversed for concave f.  Links with an infinite coefficient are
    vacuous.  The 1 x 1 case of :func:`check_main_chain_grid`.
    """
    return _one(check_main_chain_grid((f,), (sigma,), [(A, B)], tol)[0])


def check_main_chain_grid(fs, sigmas, pairs, tol=DEFAULT_TOL) -> list:
    """:func:`check_main_chain` for every function, mean and trial of a group.

    ``pairs`` is a dimension group; returns, per trial, one entry per (f,
    sigma), f outermost (see :func:`_mean_group`).  The links against X of
    the whole group are one stacked eigvalsh, the others margins on spec(S).
    """

    def judge(stack, fs, sigmas, entries):
        (S, errors), X, coefs = _chain_stacks(stack, fs, sigmas, tol, entries)
        n_f, n_t, n_s, n = *entries.shape, S.shape[-1]
        ws = stack.mean_spectra(S, errors).reshape(n_t, n_s, n)
        tags = [f.convexity is Convexity.CONVEX for f in fs]
        # the chain around f(S) on spec(S), as (f, trial, sigma, link, eigenvalue); its edge
        # links are also fn-then-mean's, whose low and high links against X are solved apart
        lo, hi, applies = _chain_sides(coefs[..., None], ws, _on_spectra(fs, ws, entries), tags)
        shape = (entries.size, len(_CHAIN), ws.shape[-1])
        on_spectrum = _loewner_on_spectrum(
            lo.reshape(shape), hi.reshape(shape), tol, entries.reshape(-1)
        )
        margins = np.tile(on_spectrum.margin.reshape(n_f, n_t, n_s, -1), 2)
        passes = np.tile(on_spectrum.passed.reshape(n_f, n_t, n_s, -1), 2)
        margins[..., 1:3], passes[..., 1:3], _ = _x_links(tol, S, X, coefs, tags, ws, entries)
        params = [[{"convex": tag, "dim": ws.shape[-1]}] * n_t for tag in tags]
        return _MAIN_CHAIN_LINKS, margins, passes, np.tile(applies[..., 0], 2), params

    positive = (lambda _, pair: pair.m > 0.0, NotPositiveDefiniteError,
                "spectra must be positive, got m={pair.m:.6e}")
    return _mean_group(
        "main_chain", "mean-coefficient-chain", (_TAGGED_FIXING_ZERO, (positive,)), judge,
        fs, sigmas, pairs, tol,
    )


_MAIN_CHAIN_LINKS = tuple(
    f"{prefix}:{name}" for prefix in ("fn-then-mean", "mean-then-fn") for name, *_ in _CHAIN
)


def check_log_example(A, B, M=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """log(M+1)/M * log(A+B+I) <= log(A+I) + log(B+I) for PSD A, B."""
    a, b, wa, va, wb, vb, m, bound = _psd(_one(PairStack.group([(A, B)])), tol)
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
    return _one(check_mean_difference_norm_grid((f,), (sigma,), [(A, B)], norms, tol)[0])


def check_mean_difference_norm_grid(fs, sigmas, pairs, norms=None, tol=DEFAULT_TOL) -> list:
    """:func:`check_mean_difference_norm` for every function, mean and trial of a group.

    ``pairs`` is a dimension group (see :func:`_mean_group`): every
    X - f(S) of the group is one stacked eigvalsh, and every norm one table.
    """

    def judge(stack, fs, sigmas, entries):
        (S, errors), X, coefs = _chain_stacks(stack, fs, sigmas, tol, entries)
        ws, vs = stack.mean_spectra(S, errors, vectors=True)  # f(S) reads S's eigenvectors
        (n_f, n_t, n_s), n, flat = entries.shape, S.shape[-1], entries.reshape(-1)
        diff = X.reshape(n_f, -1, n, n) - hermitian_part(_compose(vs, _on_spectra(fs, ws, entries)))
        w = _eigvalsh(_finite(diff.reshape(-1, n, n), flat), flat)
        kinds = _norm_kinds(norms, n)
        table = _norm_table(_sv_hermitian(np.concatenate([ws, w])), kinds)
        spread = coefs[..., 3] - coefs[..., 0]  # f'(M) - f'(0)
        of_s = table[: n_t * n_s].reshape(n_t, n_s, -1)
        margins, passes = _scalar_margins(
            table[n_t * n_s :].reshape(n_f, n_t, n_s, -1), spread[..., None, None] * of_s, tol
        )
        descriptions = tuple(f"norm-difference[{kind.label()}]" for kind in kinds)
        params = [[{"spread": d} for d in row] for row in spread.tolist()]
        return descriptions, margins, passes, np.ones((n_f, n_t, len(kinds)), dtype=bool), params

    return _mean_group(
        "mean_difference_norm", "mean-difference-norm-bound", _MEAN_DIFFERENCE_GATES, judge,
        fs, sigmas, pairs, tol,
    )


_MEAN_DIFFERENCE_GATES = (
    ((lambda f, _: f.convexity is Convexity.CONVEX, ValueError,
      "mean-difference bound requires a convex function, got {f.name}"), _FIXES_ZERO),
    (_POSITIVE, (lambda f, pair: math.isfinite(float(f.deriv(0.0)))
                 and math.isfinite(float(f.deriv(pair.M))), ValueError,
                 "infinite endpoint derivative")),
)


def check_eig_prod_norm(f, sigma, A, B, tol=DEFAULT_TOL, norms=None) -> CheckOutcome:
    """Eigenvalue, product and norm versions of the coefficient chain.

    Per index j the chain holds for the j-th eigenvalues (decreasing), per
    k for the top-k eigenvalue products (requires positive spectrum), and
    per norm kind for the norms of the two sides.  The 1 x 1 case of
    :func:`check_eig_prod_norm_grid`.
    """
    return _one(check_eig_prod_norm_grid((f,), (sigma,), [(A, B)], tol, norms)[0])


def _pow_or_inf(c, k):
    """c**k in Python floats (numpy's power can differ in the last bit), infinite on overflow."""
    try:
        return c**k
    except OverflowError:
        return math.inf


def check_eig_prod_norm_grid(fs, sigmas, pairs, tol=DEFAULT_TOL, norms=None) -> list:
    """:func:`check_eig_prod_norm` for every function, mean and trial of a group.

    ``pairs`` is a dimension group (see :func:`_mean_group`): every spec(X)
    of the group is one stacked eigvalsh, every norm one table, and every
    link one :func:`_chain_sides`.
    """

    def judge(stack, fs, sigmas, entries):
        (S, errors), X, coefs = _chain_stacks(stack, fs, sigmas, tol, entries)
        n_f, n_t, n_s, n = *entries.shape, S.shape[-1]
        ws = stack.mean_spectra(S, errors).reshape(n_t, n_s, n)
        tags = [f.convexity is Convexity.CONVEX for f in fs]
        wx = _eigvalsh(X.reshape(-1, n, n), entries.reshape(-1))
        for t, j in np.argwhere(ws[..., 0] <= 0.0).tolist():
            _fail(entries[:, t, j], NotPositiveSemidefiniteError(
                "product links need a positive mean spectrum"
            ))
        kinds = _norm_kinds(norms, n)
        table = _norm_table(_sv_hermitian(np.concatenate([ws.reshape(-1, n), wx])), kinds)
        powers = [
            [[[c] * n + [_pow_or_inf(c, k) for k in range(1, n + 1)] + [c] * len(kinds)
              for c in row] for row in per_f]
            for per_f in coefs.tolist()
        ]
        s, x = ws[..., ::-1], wx[:, ::-1].reshape(n_f, n_t, n_s, n)  # decreasing
        # an overflowing side is infinite, as in Python floats, and downgrades its record
        with np.errstate(over="ignore", invalid="ignore"):
            # the families side by side on one index: eigenvalues, top-k products, norms
            of_s = table[: n_t * n_s].reshape(n_t, n_s, -1)
            s = np.concatenate([s, np.cumprod(s, -1), of_s], -1)
            of_x = table[n_t * n_s :].reshape(n_f, n_t, n_s, -1)
            x = np.concatenate([x, np.cumprod(x, -1), of_x], -1)
            lo, hi, applies = _chain_sides(np.array(powers), s, x, tags)
            # a record lists its links index by index, each index's links in chain order
            margins, passes = _scalar_margins(lo.swapaxes(-1, -2), hi.swapaxes(-1, -2), tol)
        prefixes = ["eig"] * n + ["prod"] * n + [f"norm[{kind.label()}]" for kind in kinds]
        return (
            [f"{p}:{name}" for p in prefixes for name, *_ in _CHAIN],
            margins.reshape(n_f, n_t, n_s, -1), passes.reshape(n_f, n_t, n_s, -1),
            applies.swapaxes(-1, -2).reshape(n_f, n_t, -1),
            [[{"convex": tag}] * n_t for tag in tags],
        )

    gates = (_TAGGED_FIXING_ZERO, (_POSITIVE,))
    return _mean_group(
        "eig_prod_norm", "eigenvalue-product-norm-chains", gates, judge, fs, sigmas, pairs, tol
    )


def check_subadditivity_refinement(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Refined subadditivity: |||f(A)+f(B)||| <= (f(M)/M)|||A+B||| <= |||f(A+B)|||.

    The bridging link needs M <= A + B; when that side condition fails it
    is reported inapplicable while the remaining links are still checked.
    The classical bound |||f(A)+f(B)||| <= |||f(A+B)||| is always included.

    The 1 x 1 case of :func:`check_subadditivity_grid`.
    """
    return _one(check_subadditivity_grid((f,), [(A, B)], norms, tol)[0])


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
    record, or the ``ValueError`` the 1 x 1 checker raises for it (see
    :func:`_group_grid`).  A, B and A + B are each one stacked solve over
    the group: the singular values of f(A + B) are |f(w)| for the
    eigenvalues w of A + B.  Every f(A) + f(B) is one stacked eigvalsh,
    every norm one table (:func:`_norm_table`), and the links are margins
    over (record x norm kind) arrays.
    """
    def step(pair):
        pair = _psd(pair, tol)
        if pair.M <= 0.0:
            raise ValueError("zero operands leave no content to check")
        return pair

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
        kinds = _norm_kinds(norms, n)
        w = np.concatenate([w_total, w_images[rows], of_total[rows]])
        table = _norm_table(_sv_hermitian(w), kinds)
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
    return _group_grid(fs, pairs, gates, step, judge, PairStack.group)


def _abs_factors(a, b):
    """The per-trial half of the norm chains on stacks a, b of operands, one pair per trial.

    Each side is one stacked SVD: with a = U diag(s) W*, |a| = W diag(s) W*
    and f(|a|) = W f(diag s) W*.  Returns, stacked over the trials, the
    factors (s, W) of a and of b, the smallest and largest singular value
    over both, and the eigenvalues of |a| + |b|, one stacked eigvalsh.
    """
    (da, qa), (db, qb) = map(_normal_factors, (a, b))
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
    abs_sum = matrix_abs(a).entries + matrix_abs(b).entries
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

    ``pairs`` is a dimension group, as for :func:`check_subadditivity_grid`.
    Both normality gates are per matrix; the SVDs of the A's and of the
    B's, the eigenvalues of |A| + |B| and the singular values of A + B are
    one stacked solve each over the group, and so are those of every
    f(|A|) + f(|B|).  Norms and links as in :func:`check_subadditivity_grid`.
    """
    if len({np.shape(a) for a, _ in pairs}) > 1:
        raise ShapeError("a group's trials must share one dimension")

    def step(pair):
        a, b = map(as_complex_array, pair)
        _require_normal(a, tol, "first operand")
        _require_normal(b, tol, "second operand")
        if b.shape != a.shape:
            raise ShapeError("operands must have the same dimension")
        return a, b

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
        _fail(entries, errors)
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
        kinds = _norm_kinds(norms, n)
        w = np.concatenate([w_images[rows], of_abs_sum[rows]])
        table = _norm_table(np.concatenate([sv_sum, _sv_hermitian(w)]), kinds)
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
    failing link is what the counterexample search reports as a hit.  The
    operands need not be normal.
    """
    a = as_complex_array(A)
    b = as_complex_array(B)
    factors, m, M, abs_sum = _abs_factors([a], [b])
    m, M = float(m[0]), float(M[0])
    sv = np.concatenate([_singular_values((a + b)[None]), _abs_images(f, factors, abs_sum)])
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
    Loewner comparison is evaluated on them as Hermitian matrices.  The
    1 x 1 case of :func:`check_power_mean_grid`.
    """
    return _one(check_power_mean_grid((alpha,), (r,), [(A, B)], tol)[0])


def _power_group(check_name, claim, descriptions, alpha_ok, judge, alphas, rs, pairs, tol):
    """A dimension group's records on A^r #_a B^r, per trial one per (alpha, r), alpha outermost.

    (alpha, r) needs r >= 1, then ``alpha_ok``; a trial m > 0.  ``judge(stack,
    alphas, a_of, powers, level, exponents, entries)`` takes the open trials'
    :class:`PairStack`, the open configurations' alphas and x^r, and each
    one's alpha index, level (see :func:`_power_means`) and r - 1.  It fails
    entries (:func:`_group_grid`) and returns the links, (margins, passes)
    per (configuration x trial), and ``params(t, i)`` of entry i.
    """

    def step(pair):
        _gate((_POSITIVE,), None, pair)
        return pair

    def run(configs, stacks, entries):
        axes = [list(dict.fromkeys(axis)) for axis in zip(*configs)]
        a_of, r_of = (np.array(list(map(axis.index, xs))) for axis, xs in zip(axes, zip(*configs)))
        links, params = judge(PairStack(*stacks), axes[0], a_of, [power(r) for r in axes[1]],
                              1 + r_of, [r - 1.0 for _, r in configs], entries)
        rows, c_of, t_of = _open(entries)
        margins, passes = (np.stack(column, -1)[rows] for column in zip(*links))
        params = [{"alpha": configs[c][0], "r": configs[c][1], **params(t, i)}
                  for i, c, t in zip(rows.tolist(), c_of.tolist(), t_of.tolist())]
        _fill(check_name, claim, descriptions, margins, passes,
              [(True,) * len(descriptions)] * rows.size, params, entries.reshape(-1), rows)

    gates = ((lambda c, _: not c[1] < 1.0, ValueError, "exponent r must be >= 1"), alpha_ok)
    return _group_grid(
        [(alpha, r) for alpha in alphas for r in rs], pairs, gates, step, run, PairStack.group
    )


def _power_means(stack, weights, k_of, powers, level, tol):
    """G = A #_w B and Gr = A^r #_w B^r per (configuration c, trial t) of a dimension group.

    w = ``weights[k_of[c, t]]`` by x^w (0 and 1 give A or B itself) and x^r =
    ``powers[level[c] - 1]``.  For G, then Gr, returns its middle's errors,
    the means and their errors, each (c, t); then the middles of (A, B) and
    every (A^r, B^r), levels 0 and 1 + j, one stacked eigh.
    """
    middles, middle_errors = stack.image_middles((None, *powers), tol)
    (n_l, n_t), n = middle_errors.shape, middles[1].shape[-1]
    means = np.empty((len(weights), n_l, n_t, n, n), dtype=complex)
    errors = np.full(means.shape[:3], None, dtype=object)
    inner = [k for k, w in enumerate(weights) if 0.0 < w < 1.0]
    if inner:
        rows = np.full((n_l * n_t, len(inner)), None, dtype=object)
        hs = [power(weights[k]) for k in inner]
        X = _mean_from_middle(hs, middles, tol, rows.reshape(-1))
        means[inner] = np.moveaxis(X.reshape(n_l, n_t, len(inner), n, n), 2, 0)
        errors[inner] = np.moveaxis(rows.reshape(n_l, n_t, -1), 2, 0)
    for k in sorted(set(range(len(weights))) - set(inner)):  # diag(wa) or W diag(wb) W*
        w, v = (stack.wb, stack.basis()) if weights[k] else (stack.wa, np.eye(n))
        means[k, 0] = _compose(v, w)
        for j, f in enumerate(powers, 1):
            means[k, j] = _image(f, w, v, errors[k, j])
    t = np.arange(n_t)
    at = [(middle_errors[i, t], means[k_of, i, t], errors[k_of, i, t]) for i in (0, level[:, None])]
    return (*at, middles)


def check_power_mean_grid(alphas, rs, pairs, tol=DEFAULT_TOL) -> list:
    """:func:`check_power_mean_bounds` for every weight, exponent and trial of a group.

    The group's middles are one stacked eigh, shared by the means and the
    entropies, and its Loewner links one stacked eigvalsh.  Past m > 0 a
    record takes the first error of A^r finite, the two middles, the two
    means, A definite, S(A|B), A^r definite and S(A^r|B^r).
    """

    def judge(stack, alphas, a_of, powers, level, exponents, entries):
        wa = stack.wa
        errors = np.full((1 + len(powers), len(wa)), None, dtype=object)  # A^r finite
        fw = np.stack([wa, *(_finite(_fn_values(f, wa, e), e) for f, e in zip(powers, errors[1:]))])
        (e0, G, g0), (er, Gr, gr), mids = _power_means(
            stack, alphas, a_of[:, None], powers, level, tol
        )
        n, definite, entropy = wa.shape[-1], *np.full((2, *errors.shape), None, dtype=object)
        _require_definite(fw.reshape(-1, n), tol, definite.reshape(-1))
        S = _perspective_from_middle(function_by_name("log"), mids, entropy.reshape(-1))
        S1, Sr = (S.reshape(fw.shape + (n,))[i] for i in (0, level))
        _fail(entries, errors[level], e0, er, g0, gr, definite[0], entropy[0], definite[level],
              entropy[level])
        m, M = stack.m.tolist(), stack.M.tolist()
        lo, hi = (np.array([[_pow_or_inf(x, k) for x in xs] for k in exponents])[..., None, None]
                  for xs in (m, M))
        claims = ((lo * G, Gr), (Gr, hi * G), (lo * S1, Sr), (Sr, hi * S1))
        results = _loewner([(x.reshape(-1, n, n), y.reshape(-1, n, n), None) for x, y in claims],
                           tol, [entries.reshape(-1)] * 4)
        return [(res.margin, res.passed) for res in results], lambda t, i: {"m": m[t], "M": M[t]}

    alpha_ok = (lambda c, _: 0.0 <= c[0] <= 1.0, ValueError, "alpha must lie in [0, 1]")
    return _power_group(
        "power_mean_bounds", "power-scaling-bounds",
        ("power-mean:low", "power-mean:high", "entropy:low", "entropy:high"), alpha_ok, judge,
        alphas, rs, pairs, tol,
    )


def check_ando_hiai_comparison(A, B, alpha, r, tol=DEFAULT_TOL) -> CheckOutcome:
    """Ando-Hiai bound versus the coefficient-chain bound.

    A^r #_a B^r <= ||A #_a B||^(r-1) (A #_a B) and
    A^r #_a B^r <= ||B||^(r-1) (A #_a B) with ||A|| <= ||B|| (operands are
    swapped and the swap recorded otherwise), plus the scalar coefficient
    ordering ||A #_a B||^(r-1) <= ||B||^(r-1).  The swapped order takes
    B #_a A = A #_(1-a) B, on the same middles as the unswapped one.  The
    1 x 1 case of :func:`check_ando_hiai_grid`.
    """
    return _one(check_ando_hiai_grid((alpha,), (r,), [(A, B)], tol)[0])


def check_ando_hiai_grid(alphas, rs, pairs, tol=DEFAULT_TOL) -> list:
    """:func:`check_ando_hiai_comparison` for every weight, exponent and trial of a group.

    The middles are one stacked eigh, the norms ||A #_a B|| one stacked
    eigvalsh and the Loewner links another.  Past m > 0 a record takes the
    first error of the middle of (A, B), A #_a B, the middle of (A^r, B^r)
    and A^r #_a B^r.
    """

    def judge(stack, alphas, a_of, powers, level, exponents, entries):
        # ||A|| and ||B|| are the top eigenvalues of the positive definite operands;
        # at a tie within round-off either order meets ||A|| <= ||B||, so none is swapped
        norm_a, norm_b = stack.wa[:, -1].tolist(), stack.wb[:, -1].tolist()
        swapped = [x > y + tol * (1.0 + y) for x, y in zip(norm_a, norm_b)]
        # each (alpha, trial)'s weight: B #_a A = A #_(1-a) B
        w_of = [[1.0 - alpha if s else alpha for s in swapped] for alpha in alphas]
        weights = list(dict.fromkeys(w for row in w_of for w in row))
        k_of = np.array([[weights.index(w) for w in row] for row in w_of])[a_of]
        (e0, G, g0), (er, Gr, gr), _ = _power_means(stack, weights, k_of, powers, level, tol)
        _fail(entries, e0, g0, er, gr)
        n, flat = G.shape[-1], entries.reshape(-1)
        G, Gr = G.reshape(-1, n, n), Gr.reshape(-1, n, n)
        tops = [x if s else y for x, y, s in zip(norm_a, norm_b, swapped)] * len(a_of)
        c_ah, c_chain = ([*map(_pow_or_inf, c, [k for k in exponents for _ in norm_a])]
                         for c in (_singular_values(G, flat)[:, 0].tolist(), tops))
        cs = np.array([c_ah, c_chain])
        results = _loewner([(Gr, c[:, None, None] * G, None) for c in cs], tol, [flat] * 2)
        links = [(res.margin, res.passed) for res in results] + [_scalar_margins(*cs, tol)]
        return links, lambda t, i: {"swapped": swapped[t], "c_ah": c_ah[i], "c_chain": c_chain[i]}

    alpha_ok = (lambda c, _: 0.0 < c[0] < 1.0, ValueError, "alpha must lie strictly inside (0, 1)")
    return _power_group(
        "ando_hiai_comparison", "ando-hiai-comparison",
        ("ando-hiai", "max-norm-bound", "coefficient-ordering"), alpha_ok, judge, alphas, rs,
        pairs, tol,
    )


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
    pair = _one(PairStack.group([(A, B)]))
    wa, wb, basis, eye = pair.wa, pair.wb, pair.basis(), np.eye(pair.wa.size)

    def iterate_mean(wx, wy):
        middle = _middles(_congruence_of(wx, wy, basis, tol))
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
    return _one(check_inverse_function_grid((f,), (sigma,), [(A, B)], tol)[0])


def check_inverse_function_grid(fs, sigmas, pairs, tol=DEFAULT_TOL) -> list:
    """:func:`check_inverse_function` for every function, mean and trial of a group.

    ``pairs`` is a dimension group (see :func:`_mean_group`): one grid of
    :func:`check_main_chain`'s links against X, forward for a concave
    inverse and reversed, inverse-low the high link, for a convex one.
    """

    def judge(stack, fs, sigmas, entries):
        (S, errors), X, coefs = _chain_stacks(stack, fs, sigmas, tol, entries)
        ws = stack.mean_spectra(S, errors).reshape(S.shape[:-1])
        # a convex inverse: inverse-low is the high link
        swap = np.array([f.inverse.convexity is Convexity.CONVEX for f in fs])
        margins, passes, applies = _x_links(tol, S, X, coefs, ~swap, ws, entries)
        for links in (margins, passes, applies):
            links[swap] = links[swap][..., ::-1]
        params = [[{"inverse_convexity": f.inverse.convexity.value}] * len(ws) for f in fs]
        return ("inverse-low", "inverse-high"), margins, passes, applies, params

    gates = (
        ((lambda f, _: f.inverse is not None, ValueError, "{f.name} has no registered inverse"),
         _FIXES_ZERO),
        (_POSITIVE, (lambda f, _: f.inverse.convexity is not Convexity.NEITHER, ValueError,
                     "inverse of {f.name} carries no convexity tag")),
    )
    return _mean_group(
        "inverse_function", "inverse-convexity-bounds", gates, judge, fs, sigmas, pairs, tol
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

    ``trials`` is a dimension group, one (A, B, alpha) per trial, as for
    :func:`check_subadditivity_grid`; an alpha outside (0, 1) is its trial's
    error, before any error of its operands.  The factors of A and B, the
    eigenvalues of A + B and of alpha A + beta B and the determinant roots
    of A, B and A + B are each one stacked solve or array over the group;
    f(A) keeps A's eigenvectors, so its root is read off f on A's spectrum,
    and every f(A) + f(B) is one stacked eigvalsh.
    """
    def step(trial):
        pair, alpha = trial
        _gate((_POSITIVE,), None, pair)
        return *pair, alpha

    def judge(fs, stacks, entries):
        a, b, wa, va, wb, vb, m, M, alpha = stacks
        n, forward = wa.shape[-1], [f.convexity is Convexity.CONVEX for f in fs]
        errors = np.full(len(a), None, dtype=object)
        da, db = _det_root(wa, tol, errors), _det_root(wb, tol, errors)
        dsum = _det_root(_eigvalsh(a + b, errors), tol, errors)
        _fail(entries, errors)
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

    def prepare(trials):  # a trial's alpha comes before its operands
        pairs = PairStack.group([trial[:2] for trial in trials])
        return [
            ValueError("alpha must lie strictly inside (0, 1)") if not 0.0 < alpha < 1.0
            else pair if isinstance(pair, ValueError) else (pair, alpha)
            for pair, (_, _, alpha) in zip(pairs, trials)
        ]

    return _group_grid(fs, trials, _TAGGED_FIXING_ZERO, step, judge, prepare)
