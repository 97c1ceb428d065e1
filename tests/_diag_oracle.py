"""Entrywise scalar oracles for simultaneously diagonal instances.

Pure python-float computations, fully independent of the numpy matrix
path: for diagonal operands, the margin of every Loewner link must equal
the minimum of the entrywise scalar margins.  Each oracle returns
(description, margin) pairs in the checker's link order, restricted to
applicable links.
"""

import math


def parse_frac(text):
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def scalar_fn(name):
    head, _, param = name.partition(":")
    if head == "identity":
        return (lambda x: x), (lambda x: 1.0)
    if head == "power":
        r = parse_frac(param)

        def deriv(x, r=r):
            if x == 0.0:
                return 0.0 if r > 1 else (1.0 if r == 1 else math.inf)
            return r * x ** (r - 1.0)

        return (lambda x, r=r: x**r), deriv
    if head == "sqrt":
        return (lambda x: math.sqrt(x)), (
            lambda x: math.inf if x == 0.0 else 0.5 / math.sqrt(x)
        )
    if head == "log1p":
        return (lambda x: math.log1p(x)), (lambda x: 1.0 / (1.0 + x))
    if head == "expm1":
        return (lambda x: math.expm1(x)), (lambda x: math.exp(x))
    if head == "mobius":
        return (lambda x: x / (1.0 + x)), (lambda x: 1.0 / (1.0 + x) ** 2)
    raise ValueError(name)


def is_convex(name):
    head, _, param = name.partition(":")
    if head == "power":
        return parse_frac(param) >= 1.0
    return name in ("identity", "expm1")


def inverse_is_convex(name):
    head, _, param = name.partition(":")
    if head == "power":
        return parse_frac(param) <= 1.0
    return name in ("identity", "sqrt", "log1p", "mobius")


def scalar_mean(name):
    head, _, param = name.partition(":")
    t = parse_frac(param)
    if head == "arithmetic":
        return lambda x, y: (1.0 - t) * x + t * y
    if head == "harmonic":
        return lambda x, y: 1.0 / ((1.0 - t) / x + t / y)
    if head == "geometric":
        return lambda x, y: x ** (1.0 - t) * y**t
    raise ValueError(name)


def _min_diff(lhs, rhs):
    return min(r - l for l, r in zip(lhs, rhs))


def _chain(prefix, svec, xvec, coefs, forward):
    c0, c1, c2, c3 = coefs
    out = []
    if math.isfinite(c0) and math.isfinite(c1):
        lo = [c0 * s for s in svec]
        hi = [c1 * s for s in svec]
        out.append((f"{prefix}:edge-low", _min_diff(lo, hi) if forward else _min_diff(hi, lo)))
    if math.isfinite(c1):
        lo = [c1 * s for s in svec]
        out.append((f"{prefix}:low", _min_diff(lo, xvec) if forward else _min_diff(xvec, lo)))
    hi = [c2 * s for s in svec]
    out.append((f"{prefix}:high", _min_diff(xvec, hi) if forward else _min_diff(hi, xvec)))
    if math.isfinite(c3):
        top = [c3 * s for s in svec]
        out.append((f"{prefix}:edge-high", _min_diff(hi, top) if forward else _min_diff(top, hi)))
    return out


def main_chain_margins(fn_name, mean_name, a, b):
    f, d = scalar_fn(fn_name)
    mn = scalar_mean(mean_name)
    m, M = min(a + b), max(a + b)
    svec = [mn(x, y) for x, y in zip(a, b)]
    x1 = [mn(f(x), f(y)) for x, y in zip(a, b)]
    x2 = [f(v) for v in svec]
    coefs = (d(0.0), f(m) / m, f(M) / M, d(M))
    forward = is_convex(fn_name)
    return _chain("fn-then-mean", svec, x1, coefs, forward) + _chain(
        "mean-then-fn", svec, x2, coefs, forward
    )


def chord_margins(fn_name, mean_name, a, b):
    f, d = scalar_fn(fn_name)
    mn = scalar_mean(mean_name)
    m, M = min(a + b), max(a + b)
    lo_c, hi_c = d(m), d(M)
    fm = f(m)

    def line(v, slope):
        return slope * (v - m) + fm

    low = [mn(line(x, lo_c), line(y, lo_c)) for x, y in zip(a, b)]
    high = [mn(line(x, hi_c), line(y, hi_c)) for x, y in zip(a, b)]
    mid = [mn(f(x), f(y)) for x, y in zip(a, b)]
    if is_convex(fn_name):
        return [
            ("lower-slope-line", _min_diff(low, mid)),
            ("upper-slope-line", _min_diff(mid, high)),
        ]
    return [
        ("lower-slope-line", _min_diff(mid, low)),
        ("upper-slope-line", _min_diff(high, mid)),
    ]


def log_example_margins(a, b, M=None):
    if M is None:
        M = max(a + b)
    coef = math.log1p(M) / M if M > 0.0 else 1.0
    lhs = [coef * math.log1p(x + y) for x, y in zip(a, b)]
    rhs = [math.log1p(x) + math.log1p(y) for x, y in zip(a, b)]
    return [("shifted-log-bound", _min_diff(lhs, rhs))]


def power_mean_margins(a, b, alpha, r):
    m, M = min(a + b), max(a + b)
    g = [x ** (1.0 - alpha) * y**alpha for x, y in zip(a, b)]
    gr = [(x**r) ** (1.0 - alpha) * (y**r) ** alpha for x, y in zip(a, b)]
    s1 = [x * math.log(y / x) for x, y in zip(a, b)]
    sr = [(x**r) * math.log(y**r / x**r) for x, y in zip(a, b)]
    lo_c, hi_c = m ** (r - 1.0), M ** (r - 1.0)
    return [
        ("power-mean:low", _min_diff([lo_c * v for v in g], gr)),
        ("power-mean:high", _min_diff(gr, [hi_c * v for v in g])),
        ("entropy:low", _min_diff([lo_c * v for v in s1], sr)),
        ("entropy:high", _min_diff(sr, [hi_c * v for v in s1])),
    ]


def ando_hiai_margins(a, b, alpha, r):
    if max(a) > max(b):
        a, b = b, a
    g = [x ** (1.0 - alpha) * y**alpha for x, y in zip(a, b)]
    gr = [(x**r) ** (1.0 - alpha) * (y**r) ** alpha for x, y in zip(a, b)]
    c_ah = max(g) ** (r - 1.0)
    c_chain = max(b) ** (r - 1.0)
    return [
        ("ando-hiai", _min_diff(gr, [c_ah * v for v in g])),
        ("max-norm-bound", _min_diff(gr, [c_chain * v for v in g])),
        ("coefficient-ordering", c_chain - c_ah),
    ]


def contraction_margins(p, q, a, b, n_iter):
    mn = lambda x, y: x ** (1.0 - q) * y**q
    step = lambda x: x * x**p
    out = [("hypothesis", min(1.0 - mn(x, y) for x, y in zip(a, b)))]
    ak, bk = list(a), list(b)
    for _ in range(n_iter):
        ak = [step(x) for x in ak]
        bk = [step(x) for x in bk]
        out.append(("iterate-bound", min(1.0 - mn(x, y) for x, y in zip(ak, bk))))
    return out


def inverse_margins(fn_name, mean_name, a, b):
    f, _ = scalar_fn(fn_name)
    mn = scalar_mean(mean_name)
    m, M = min(a + b), max(a + b)
    svec = [mn(x, y) for x, y in zip(a, b)]
    xvec = [mn(f(x), f(y)) for x, y in zip(a, b)]
    c_m, c_M = f(m) / m, f(M) / M
    if inverse_is_convex(fn_name):
        return [
            ("inverse-low", _min_diff([c_M * s for s in svec], xvec)),
            ("inverse-high", _min_diff(xvec, [c_m * s for s in svec])),
        ]
    return [
        ("inverse-low", _min_diff([c_m * s for s in svec], xvec)),
        ("inverse-high", _min_diff(xvec, [c_M * s for s in svec])),
    ]


def _sorted_desc(values):
    return sorted(values, reverse=True)


def _norms(sv, dim):
    """The checkers' default norms of sorted moduli ``sv``, as (label, value) pairs."""
    out = [("operator", sv[0])]
    for p in (1, 2, 3):
        out.append((f"schatten:{p}", sum(s**p for s in sv) ** (1.0 / p)))
    out.extend((f"kyfan:{k}", sum(sv[:k])) for k in range(1, dim + 1))
    return out


def _scalar_chain(prefix, s, x, coefs, forward):
    """The chain on numbers s (for S) and x (for X): (description, margin, scale) per applicable link."""
    c0, c1, c2, c3 = coefs
    sides = (c0, c1, None, c2, c3)
    links = (("edge-low", 0, 1, (0, 1)), ("low", 1, 2, (1,)), ("high", 2, 3, ()),
             ("edge-high", 3, 4, (4,)))
    out = []
    for name, left, right, needs in links:
        if not all(math.isfinite(sides[p]) for p in needs):
            continue
        lo, hi = (sides[left], sides[right]) if forward else (sides[right], sides[left])
        lo, hi = (x if c is None else c * s for c in (lo, hi))
        out.append((f"{prefix}:{name}", hi - lo, 1.0 + max(abs(lo), abs(hi))))
    return out


def eig_prod_norm_margins(fn_name, mean_name, a, b):
    """Eigenvalue, top-k product and norm chains: S and X each sorted decreasing on its own."""
    f, d = scalar_fn(fn_name)
    mn = scalar_mean(mean_name)
    m, M = min(a + b), max(a + b)
    svec = _sorted_desc(mn(x, y) for x, y in zip(a, b))
    xvec = _sorted_desc(mn(f(x), f(y)) for x, y in zip(a, b))
    coefs = (d(0.0), f(m) / m, f(M) / M, d(M))
    forward = is_convex(fn_name)
    out = []
    for s, x in zip(svec, xvec):
        out += _scalar_chain("eig", s, x, coefs, forward)
    for k in range(1, len(svec) + 1):
        ck = tuple(c**k for c in coefs)
        out += _scalar_chain("prod", math.prod(svec[:k]), math.prod(xvec[:k]), ck, forward)
    for (label, ns), (_, nx) in zip(_norms(svec, len(a)), _norms(xvec, len(a))):
        out += _scalar_chain(f"norm[{label}]", ns, nx, coefs, forward)
    return out


def mean_diff_norm_margins(fn_name, mean_name, a, b):
    """|||X - f(S)||| <= (f'(M) - f'(0)) |||S|||, from the moduli of the diagonals."""
    f, d = scalar_fn(fn_name)
    mn = scalar_mean(mean_name)
    M = max(a + b)
    svec = [mn(x, y) for x, y in zip(a, b)]
    diff = _sorted_desc(abs(mn(f(x), f(y)) - f(s)) for x, y, s in zip(a, b, svec))
    spread = d(M) - d(0.0)
    out = []
    for (label, nd), (_, ns) in zip(_norms(diff, len(a)), _norms(_sorted_desc(svec), len(a))):
        rhs = spread * ns
        out.append((f"norm-difference[{label}]", rhs - nd, 1.0 + max(nd, abs(rhs))))
    return out


def assert_margins_match(outcome, expected, tol=1e-10):
    """Compare applicable checker links against oracle pairs, in order.

    An oracle entry (description, margin, scale) is matched within
    ``tol * scale``, for links whose sides are large; a pair within ``tol``.
    """
    actual = [(link.description, link.margin) for link in outcome.links if link.applicable]
    assert len(actual) == len(expected), (actual, expected)
    for (got_desc, got), (want_desc, want, *scale) in zip(actual, expected):
        assert got_desc == want_desc
        assert abs(got - want) <= tol * (scale[0] if scale else 1.0), (got_desc, got, want)
