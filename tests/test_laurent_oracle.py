"""The packed Laurent kernel against sympy, an independent oracle.

A Laurent polynomial times a monomial is a polynomial, so products and
quotients are checked by shifting both sides into polynomials and asking
sympy to ``expand`` and ``div`` them.
"""

import random

import pytest
import sympy

from clusterflag.quiver import MAX_EXPONENT, LaurentError, LaurentExpr

NVARS = 3
XS = sympy.symbols("x0:%d" % NVARS)


def random_laurent(rng: random.Random, nterms: int, low: int = -3, high: int = 3) -> LaurentExpr:
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(low, high) for _ in range(NVARS))
        terms[exps] = rng.choice([-3, -2, -1, 1, 2, 3])
    return LaurentExpr(NVARS, terms)


def shifted(expr: LaurentExpr) -> tuple[sympy.Expr, tuple[int, ...]]:
    """(polynomial, shift): the polynomial is ``expr`` times x**(-shift),
    with ``shift`` the least exponent of each variable."""
    items = expr.exponent_items()
    shift = tuple(min(exps[i] for exps, _ in items) for i in range(NVARS))
    poly = sympy.Add(*(
        c * sympy.Mul(*(x ** (e - s) for x, e, s in zip(XS, exps, shift)))
        for exps, c in items
    ))
    return poly, shift


def monomial(shift) -> sympy.Expr:
    return sympy.Mul(*(x ** s for x, s in zip(XS, shift)))


def as_sympy(expr: LaurentExpr) -> sympy.Expr:
    poly, shift = shifted(expr)
    return sympy.expand(poly * monomial(shift))


def test_products_match_sympy():
    rng = random.Random(11)
    for _ in range(150):
        f = random_laurent(rng, rng.randint(1, 5))
        g = random_laurent(rng, rng.randint(1, 5))
        pf, sf = shifted(f)
        pg, sg = shifted(g)
        expect = sympy.expand(pf * pg) * monomial(tuple(a + b for a, b in zip(sf, sg)))
        assert sympy.expand(as_sympy(f * g) - expect) == 0


def sympy_quotient(h: LaurentExpr, g: LaurentExpr) -> sympy.Expr | None:
    """h / g as a Laurent polynomial with integer coefficients, or None
    when there is none."""
    ph, sh = shifted(h)
    pg, sg = shifted(g)
    quo, rem = sympy.div(ph, pg, *XS, domain=sympy.QQ)
    if rem != 0 or not all(c.is_integer for c in sympy.Poly(quo, *XS).coeffs()):
        return None
    return sympy.expand(quo * monomial(tuple(a - b for a, b in zip(sh, sg))))


def test_exact_quotients_match_sympy():
    rng = random.Random(12)
    for _ in range(150):
        f = random_laurent(rng, rng.randint(1, 5))
        g = random_laurent(rng, rng.randint(1, 4))
        h = f * g
        if h.is_zero():
            continue
        expect = sympy_quotient(h, g)
        assert expect is not None
        assert sympy.expand(as_sympy(h.exact_div(g)) - expect) == 0


def test_division_stream_edge_cases_match_sympy():
    x = LaurentExpr.generator(NVARS, 0)
    one = LaurentExpr.constant(NVARS, 1)
    shift = LaurentExpr(NVARS, {(0, -1, 2): 1})
    x2 = x * x
    rng = random.Random(15)
    # a single-term divisor: no quotient product adds a key
    for _ in range(20):
        f = random_laurent(rng, rng.randint(1, 5))
        g = random_laurent(rng, 1)
        expect = sympy_quotient(f * g, g)
        assert sympy.expand(as_sympy((f * g).exact_div(g)) - expect) == 0
    # x^4 + x^2 + 1 over x^2 + x + 1: the first quotient product cancels the
    # numerator's x^2, the second adds it back
    h = (x2 * x2 + x2 + one) * shift
    g = x2 + x + one
    expect = sympy_quotient(h, g)
    assert sympy.expand(as_sympy(h.exact_div(g)) - expect) == 0
    assert h.exact_div(g) == (x2 + LaurentExpr(NVARS, {(1, 0, 0): -1}) + one) * shift
    # inexact: a remainder term leaves the quotient box, or a coefficient
    # does not divide
    for h, g in (
        (x2 + one, x + one),
        (x2 + x + x + one + one, x + one),
        (x2 + x + one, x + x),
    ):
        assert sympy_quotient(h * shift, g) is None
        with pytest.raises(LaurentError, match="inexact"):
            (h * shift).exact_div(g)
    # the quotient x^(MAX_EXPONENT + 1) exists but cannot be packed
    top = LaurentExpr(NVARS, {(MAX_EXPONENT, 0, 0): 1, (MAX_EXPONENT - 1, 0, 0): 1})
    low = LaurentExpr(NVARS, {(-1, 0, 0): 1, (-2, 0, 0): 1})
    assert sympy_quotient(top, low) is not None
    with pytest.raises(LaurentError, match="quotient exponents may pass"):
        top.exact_div(low)


def test_inexact_quotients_raise():
    rng = random.Random(13)
    raised = 0
    for _ in range(150):
        g = random_laurent(rng, rng.randint(2, 4))
        h = random_laurent(rng, 1) * g + random_laurent(rng, rng.randint(1, 2))
        if h.is_zero():
            continue
        if sympy_quotient(h, g) is not None:
            assert h.exact_div(g) * g == h
        else:
            raised += 1
            with pytest.raises(LaurentError, match="inexact"):
                h.exact_div(g)
    assert raised > 100


def test_inexact_coefficients_raise():
    rng = random.Random(14)
    for _ in range(50):
        f = random_laurent(rng, rng.randint(1, 3))
        g = random_laurent(rng, rng.randint(1, 3))
        if all(c % 2 == 0 for _, c in f.exponent_items()):
            continue                        # 3f/2 would be integral
        h = f * g
        with pytest.raises(LaurentError, match="inexact"):
            (h + h + h).exact_div(g + g)


def test_exponents_past_the_packing_limit_raise():
    x = LaurentExpr.generator(1, 0)
    top = LaurentExpr(1, {(MAX_EXPONENT - 1,): 1})
    assert top * x == LaurentExpr(1, {(MAX_EXPONENT,): 1})
    for exps in ((MAX_EXPONENT + 1,), (-MAX_EXPONENT - 1,), (1 << 16,)):
        with pytest.raises(LaurentError):
            LaurentExpr(1, {exps: 1})
    limit = LaurentExpr(1, {(MAX_EXPONENT,): 1})
    with pytest.raises(LaurentError):
        limit * x
    with pytest.raises(LaurentError):
        LaurentExpr(1, {(-MAX_EXPONENT,): 1}).exact_div(limit)
    # a wrapped field would carry into the neighbouring variable
    pair = LaurentExpr(2, {(MAX_EXPONENT, 0): 1})
    with pytest.raises(LaurentError):
        pair * pair


def envelope(expr: LaurentExpr) -> tuple[int, int]:
    """Packed keys of the per-variable least and greatest exponents, taken
    from the decoded terms."""
    exps = [e for e, _ in expr.exponent_items()]
    lo, hi = tuple(map(min, zip(*exps))), tuple(map(max, zip(*exps)))
    return tuple(next(iter(LaurentExpr(NVARS, {e: 1}).terms)) for e in (lo, hi))


def test_every_result_carries_its_envelope():
    rng = random.Random(16)
    results = [LaurentExpr.generator(NVARS, i) for i in range(NVARS)]
    results += [LaurentExpr.constant(NVARS, c) for c in (1, -4)]
    for _ in range(60):
        f = random_laurent(rng, rng.randint(1, 5))
        g = random_laurent(rng, rng.randint(1, 4))
        results += [f, g, f + g, f * g, (f + g) * g, (f * g).exact_div(g)]
        if not (f + g).is_zero():
            results.append((f * (f + g) + g * (f + g)).exact_div(f + g))
    # sums where an extreme term cancels: the envelope shrinks
    for _ in range(60):
        f = random_laurent(rng, rng.randint(2, 5))
        exps, c = min(f.exponent_items())
        g = LaurentExpr(NVARS, {exps: -c}) + random_laurent(rng, 1, 0, 1)
        results += [f + g, (f + g) * f, (f * f + g * f).exact_div(f)]
    results = [r for r in results if not r.is_zero()]
    assert len(results) > 500
    for r in results:
        assert r._env_keys() == envelope(r)
