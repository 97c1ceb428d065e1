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

import numpy as np

from .core import (
    DEFAULT_TOL,
    NormKind,
    NotNormalError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    as_complex_array,
    as_hermitian_array,
    apply_fn,
    chain_norm_kinds,
    det_root,
    loewner_leq,
    matrix_abs,
    norm,
    singular_values,
    spectral_bounds,
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
from .means import MatrixMean, mean, relative_operator_entropy

__all__ = [
    "Link",
    "CheckOutcome",
    "check_chord_bounds",
    "check_main_chain",
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


def _loewner_link(desc, lo, hi, tol, applicable=True) -> Link:
    res = loewner_leq(lo, hi, tol)
    passed = True if not applicable else res.passed
    return Link(desc, res.margin, passed, applicable)


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


def _chain(prefix, S, X, coefs, forward, tol, link):
    """Four links c0 S ? c1 S ? X ? c2 S ? c3 S (direction per tag).

    ``link`` compares the two sides: ``_loewner_link`` for matrices,
    ``_scalar_link`` for numbers.  Each step lists the coefficients that
    must be finite for it to apply; a side of ``None`` stands for X.
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
        lo = X if lo is None else lo * S
        hi = X if hi is None else hi * S
        links.append(link(desc, lo, hi, tol) if forward else link(desc, hi, lo, tol))
    return links


def _psd_floor(a, b, tol):
    m, M = spectral_bounds(a, b)
    scale = 1.0 + max(abs(m), abs(M))
    if m < -tol * scale:
        raise NotPositiveSemidefiniteError(f"operand eigenvalue {m:.6e} below -tol*scale")
    return max(m, 0.0), M


def _norm_kinds(norms, dim):
    if norms is None:
        return chain_norm_kinds(dim)
    return [NormKind.parse(k) if isinstance(k, str) else k for k in norms]


def check_chord_bounds(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Mean of the endpoint secant lines brackets the mean of the images."""
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    forward = _require_tagged(f)
    m, M = _psd_floor(a, b, tol)
    lo_c, hi_c = chord_coefficients(f, m, M)
    if not (math.isfinite(lo_c) and math.isfinite(hi_c)):
        raise ValueError(f"infinite chord coefficient for {f.name} on [{m}, {M}]")
    eye = np.eye(a.shape[0])
    fm = float(f(m))

    def line(x, slope):
        return slope * (x - m * eye) + fm * eye

    mid = mean(sigma, apply_fn(f, a), apply_fn(f, b), tol).entries
    low = mean(sigma, line(a, lo_c), line(b, lo_c), tol).entries
    high = mean(sigma, line(a, hi_c), line(b, hi_c), tol).entries
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
    recorded as vacuous.
    """
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    forward = _require_tagged(f)
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")
    m, M = spectral_bounds(a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError(f"spectra must be positive, got m={m:.6e}")
    S = mean(sigma, a, b, tol).entries
    X1 = mean(sigma, apply_fn(f, a), apply_fn(f, b), tol).entries
    X2 = apply_fn(f, S).entries
    coefs = _chain_coefficients(f, m, M)
    links = _chain("fn-then-mean", S, X1, coefs, forward, tol, _loewner_link)
    links += _chain("mean-then-fn", S, X2, coefs, forward, tol, _loewner_link)
    params = {
        "fn": f.name,
        "mean": sigma.name,
        "m": m,
        "M": M,
        "convex": forward,
        "dim": a.shape[0],
    }
    return CheckOutcome("main_chain", "mean-coefficient-chain", tuple(links), params)


def check_log_example(A, B, M=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """log(M+1)/M * log(A+B+I) <= log(A+I) + log(B+I) for PSD A, B."""
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    m, bound = _psd_floor(a, b, tol)
    if M is None:
        M = bound
    M = float(M)
    coef = math.log1p(M) / M if M > 0.0 else 1.0
    log1p = function_by_name("log1p")
    lhs = coef * apply_fn(log1p, a + b).entries
    rhs = apply_fn(log1p, a).entries + apply_fn(log1p, b).entries
    link = _loewner_link("shifted-log-bound", lhs, rhs, tol)
    return CheckOutcome(
        "log_example", "shifted-log-sum-bound", (link,), {"m": m, "M": M, "coef": coef}
    )


def check_mean_difference_norm(f, sigma, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """|||f(A) sigma f(B) - f(A sigma B)||| <= (f'(M) - f'(0)) |||A sigma B|||."""
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    if f.convexity is not Convexity.CONVEX:
        raise ValueError(f"mean-difference bound requires a convex function, got {f.name}")
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")
    m, M = spectral_bounds(a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError("positive definite operands required")
    d0, dM = float(f.deriv(0.0)), float(f.deriv(M))
    if not (math.isfinite(d0) and math.isfinite(dM)):
        raise ValueError("infinite endpoint derivative")
    S = mean(sigma, a, b, tol).entries
    diff = mean(sigma, apply_fn(f, a), apply_fn(f, b), tol).entries - apply_fn(f, S).entries
    links = tuple(
        _scalar_link(
            f"norm-difference[{kind.label()}]",
            norm(diff, kind),
            (dM - d0) * norm(S, kind),
            tol,
        )
        for kind in _norm_kinds(norms, a.shape[0])
    )
    params = {"fn": f.name, "mean": sigma.name, "m": m, "M": M, "spread": dM - d0}
    return CheckOutcome("mean_difference_norm", "mean-difference-norm-bound", links, params)


def check_eig_prod_norm(f, sigma, A, B, tol=DEFAULT_TOL, norms=None) -> CheckOutcome:
    """Eigenvalue, product and norm versions of the coefficient chain.

    Per index j the chain holds for the j-th eigenvalues (decreasing), per
    k for the top-k eigenvalue products (requires positive spectrum), and
    per norm kind for the norms of the two sides.
    """
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    forward = _require_tagged(f)
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")
    m, M = spectral_bounds(a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError("positive definite operands required")
    Smat = mean(sigma, a, b, tol)
    Xmat = mean(sigma, apply_fn(f, a), apply_fn(f, b), tol)
    s = np.sort(np.linalg.eigvalsh(Smat.entries))[::-1]
    x = np.sort(np.linalg.eigvalsh(Xmat.entries))[::-1]
    coefs = _chain_coefficients(f, m, M)
    links = []
    for j in range(s.size):
        links += _chain("eig", float(s[j]), float(x[j]), coefs, forward, tol, _scalar_link)
    if s[-1] <= 0.0:
        raise NotPositiveSemidefiniteError("product links need a positive mean spectrum")
    for k in range(1, s.size + 1):
        ck = tuple(c**k if math.isfinite(c) else c for c in coefs)
        links += _chain(
            "prod", float(np.prod(s[:k])), float(np.prod(x[:k])), ck, forward, tol, _scalar_link
        )
    for kind in _norm_kinds(norms, a.shape[0]):
        links += _chain(
            f"norm[{kind.label()}]",
            norm(Smat.entries, kind),
            norm(Xmat.entries, kind),
            coefs,
            forward,
            tol,
            _scalar_link,
        )
    params = {"fn": f.name, "mean": sigma.name, "m": m, "M": M, "convex": forward}
    return CheckOutcome("eig_prod_norm", "eigenvalue-product-norm-chains", tuple(links), params)


def check_subadditivity_refinement(f, A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """Refined subadditivity: |||f(A)+f(B)||| <= (f(M)/M)|||A+B||| <= |||f(A+B)|||.

    The bridging link needs M <= A + B; when that side condition fails it
    is reported inapplicable while the remaining links are still checked.
    The classical bound |||f(A)+f(B)||| <= |||f(A+B)||| is always included.
    """
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    if f.convexity is not Convexity.CONVEX:
        raise ValueError(f"subadditivity refinement requires a convex function, got {f.name}")
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")
    m, M = _psd_floor(a, b, tol)
    if M <= 0.0:
        raise ValueError("zero operands leave no content to check")
    grid = np.geomspace(M * 1e-4, M, 64)
    ratios = np.asarray(f(grid), dtype=float) / grid
    if np.any(np.diff(ratios) < -1e-9 * (1.0 + np.abs(ratios[:-1]))):
        raise ValueError(f"f(x)/x is not nondecreasing for {f.name}")
    total = a + b
    images = apply_fn(f, a).entries + apply_fn(f, b).entries
    image_of_total = apply_fn(f, total).entries
    floor = float(np.linalg.eigvalsh(total)[0])
    bridge_ok = floor >= M - tol * (1.0 + M)
    coef = float(f(M)) / M
    links = []
    for kind in _norm_kinds(norms, a.shape[0]):
        tot = norm(total, kind)
        links.append(
            _scalar_link(f"images-vs-coef[{kind.label()}]", norm(images, kind), coef * tot, tol)
        )
        links.append(
            _scalar_link(
                f"coef-vs-image-of-sum[{kind.label()}]",
                coef * tot,
                norm(image_of_total, kind),
                tol,
                applicable=bridge_ok,
            )
        )
        links.append(
            _scalar_link(
                f"images-vs-image-of-sum[{kind.label()}]",
                norm(images, kind),
                norm(image_of_total, kind),
                tol,
            )
        )
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

    Returns the smallest and largest singular value over both operands,
    f(|a|) + f(|b|) and f(|a| + |b|).
    """
    sv = np.concatenate([singular_values(a), singular_values(b)])
    abs_a = matrix_abs(a, normal_hint=True).entries
    abs_b = matrix_abs(b, normal_hint=True).entries
    images_sum = apply_fn(f, abs_a).entries + apply_fn(f, abs_b).entries
    image_of_abs_sum = apply_fn(f, abs_a + abs_b).entries
    return float(sv.min()), float(sv.max()), images_sum, image_of_abs_sum


def check_normal_counterexample(tol: float = 1e-10) -> CheckOutcome:
    """Reproduce the fixed 2x2 indefinite fixture that breaks the norm chain.

    With A = diag(2, -1), B = diag(-2, 1) and f(x) = x^2 the upper norm
    bounds fail spectacularly: both |||f(|A|)+f(|B|)||| = 8 and
    |||f(|A|+|B|)||| = 16 exceed (f(M)/M)|||A+B||| = f'(M)|||A+B||| = 0.
    """
    a = np.diag([2.0, -1.0]).astype(np.complex128)
    b = np.diag([-2.0, 1.0]).astype(np.complex128)
    f = function_by_name("power:2")
    m, M, images, image_of_abs = _abs_images(f, a, b)
    op = NormKind.operator()
    images_sum = norm(images, op)
    image_of_abs_sum = norm(image_of_abs, op)
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
    comm = arr @ arr.conj().T - arr.conj().T @ arr
    scale = 1.0 + float(np.linalg.norm(arr, 2)) ** 2
    if float(np.linalg.norm(comm, 2)) > tol * scale:
        raise NotNormalError(f"{label} does not commute with its adjoint within tolerance")


def check_normal_triangle(A, B, norms=None, tol=DEFAULT_TOL) -> CheckOutcome:
    """|||A + B||| <= ||| |A| + |B| ||| for normal A, B."""
    a = as_complex_array(A)
    b = as_complex_array(B)
    _require_normal(a, tol, "first operand")
    _require_normal(b, tol, "second operand")
    abs_sum = matrix_abs(a, normal_hint=True).entries + matrix_abs(b, normal_hint=True).entries
    links = tuple(
        _scalar_link(
            f"triangle[{kind.label()}]", norm(a + b, kind), norm(abs_sum, kind), tol
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
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")
    _require_normal(a, tol, "first operand")
    _require_normal(b, tol, "second operand")
    m, M, images_sum, image_of_abs_sum = _abs_images(f, a, b)
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
    links = []
    for kind in _norm_kinds(norms, a.shape[0]):
        base = norm(a + b, kind)
        label = kind.label()
        if math.isfinite(edge):
            links.append(_scalar_link(f"sep-edge[{label}]", edge * base, c_sep * base, tol))
        else:
            links.append(_vacuous(f"sep-edge[{label}]"))
        links.append(_scalar_link(f"sep-bound[{label}]", c_sep * base, norm(images_sum, kind), tol))
        if math.isfinite(edge):
            links.append(_scalar_link(f"sum-edge[{label}]", edge * base, c_sum * base, tol))
        else:
            links.append(_vacuous(f"sum-edge[{label}]"))
        links.append(
            _scalar_link(f"sum-bound[{label}]", c_sum * base, norm(image_of_abs_sum, kind), tol)
        )
    params = {"fn": f.name, "m": m, "M": M, "convex": forward, "dim": a.shape[0]}
    return CheckOutcome("normal_chain", "normal-abs-norm-chain", tuple(links), params)


def check_transplanted_norm_chain(f, A, B, norms, tol=DEFAULT_TOL) -> CheckOutcome:
    """The convex upper norm bounds transplanted to normal operands.

    Off the positive definite class the bounds compare
    |||f(|A|)+f(|B|)||| and |||f(|A|+|B|)||| against (f(M)/M) |||A+B|||
    with M the largest singular value; they are expected to fail, and a
    failing link is what the counterexample search reports as a hit.
    """
    a = as_complex_array(A)
    b = as_complex_array(B)
    m, M, images_sum, image_of_abs_sum = _abs_images(f, a, b)
    coef = float(f(M)) / M
    links = []
    for kind in norms:
        bound = coef * norm(a + b, kind)
        links.append(_scalar_link(f"upper-sep[{kind.label()}]", norm(images_sum, kind), bound, tol))
        links.append(
            _scalar_link(f"upper-sum[{kind.label()}]", norm(image_of_abs_sum, kind), bound, tol)
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
    """
    from .means import geometric

    if r < 1.0:
        raise ValueError("exponent r must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    m, M = spectral_bounds(a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError("positive definite operands required")
    f = function_by_name(f"power:{r:g}")
    ar = apply_fn(f, a).entries
    br = apply_fn(f, b).entries
    lo_c, hi_c = m ** (r - 1.0), M ** (r - 1.0)
    sigma = geometric(alpha) if 0.0 < alpha < 1.0 else None
    if sigma is None:
        # boundary weights degenerate to an operand power
        G = a if alpha == 0.0 else b
        Gr = ar if alpha == 0.0 else br
    else:
        G = mean(sigma, a, b, tol).entries
        Gr = mean(sigma, ar, br, tol).entries
    S1 = relative_operator_entropy(a, b, tol).entries
    Sr = relative_operator_entropy(ar, br, tol).entries
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
    ordering ||A #_a B||^(r-1) <= ||B||^(r-1).
    """
    from .means import geometric

    if r < 1.0:
        raise ValueError("exponent r must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    m, _ = spectral_bounds(a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError("positive definite operands required")
    swapped = False
    if float(np.linalg.eigvalsh(a)[-1]) > float(np.linalg.eigvalsh(b)[-1]):
        a, b = b, a
        swapped = True
    sigma = geometric(alpha)
    f = function_by_name(f"power:{r:g}")
    G = mean(sigma, a, b, tol).entries
    Gr = mean(sigma, apply_fn(f, a).entries, apply_fn(f, b).entries, tol).entries
    c_ah = norm(G, NormKind.operator()) ** (r - 1.0)
    c_chain = float(np.linalg.eigvalsh(b)[-1]) ** (r - 1.0)
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
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    sigma_h = MatrixMean(f"h:{pair.h.name}", pair.h)
    f = times_x(pair.g)
    eye = np.eye(a.shape[0])
    if not forward:
        g0 = mean(sigma_h, a, b, tol).entries
        c = float(np.linalg.eigvalsh(g0)[0])
        if c <= 0.0:
            raise NotPositiveDefiniteError("mean not positive definite; cannot normalize upward")
        a = a / c
        b = b / c
    links = [
        _loewner_link("hypothesis", *(
            (mean(sigma_h, a, b, tol).entries, eye) if forward
            else (eye, mean(sigma_h, a, b, tol).entries)
        ), tol)
    ]
    ak, bk = a, b
    for _ in range(n_iter):
        ak = apply_fn(f, ak).entries
        bk = apply_fn(f, bk).entries
        gk = mean(sigma_h, ak, bk, tol).entries
        pairing = (gk, eye) if forward else (eye, gk)
        links.append(_loewner_link("iterate-bound", *pairing, tol))
    params["direction"] = "forward" if forward else "reversed"
    return CheckOutcome("contraction_implication", "mean-contraction-iterates", tuple(links), params)


def check_inverse_function(f, sigma, A, B, tol=DEFAULT_TOL) -> CheckOutcome:
    """Coefficient bounds driven by the convexity of the registered inverse.

    Convex inverse:  (f(M)/M) S <= f(A) sigma f(B) <= (f(m)/m) S.
    Concave inverse: (f(m)/m) S <= f(A) sigma f(B) <= (f(M)/M) S.
    """
    if f.inverse is None:
        raise ValueError(f"{f.name} has no registered inverse")
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    m, M = spectral_bounds(a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError("positive definite operands required")
    inv = f.inverse
    if inv.convexity is Convexity.NEITHER:
        raise ValueError(f"inverse of {f.name} carries no convexity tag")
    S = mean(sigma, a, b, tol).entries
    X = mean(sigma, apply_fn(f, a), apply_fn(f, b), tol).entries
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
    if not f.fixes_zero:
        raise ValueError(f"{f.name} does not fix zero")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    beta = 1.0 - alpha
    a = as_hermitian_array(A)
    b = as_hermitian_array(B)
    m, M = spectral_bounds(a, b)
    if m <= 0.0:
        raise NotPositiveDefiniteError("positive definite operands required")
    n = a.shape[0]
    wa = np.linalg.eigvalsh(a)
    wb = np.linalg.eigvalsh(b)
    gap_tol = tol * (1.0 + max(abs(M), abs(m)))
    gap_below = float(wa[0] - wb[-1]) >= gap_tol  # B entirely below A
    gap_above = float(wb[0] - wa[-1]) >= gap_tol  # B entirely above A
    gap_ok = gap_below or gap_above

    da, db = det_root(a, tol), det_root(b, tol)
    dsum = det_root(a + b, tol)
    fa = apply_fn(f, a).entries
    fb = apply_fn(f, b).entries
    dfa, dfb = det_root(fa, tol), det_root(fb, tol)
    dfsum = det_root(fa + fb, tol)

    links = [_scalar_link("detroot-superadditivity", da + db, dsum, tol)]
    det_mix = float(np.prod(np.linalg.eigvalsh(alpha * a + beta * b)))
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
