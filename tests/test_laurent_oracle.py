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


def test_exact_quotients_match_sympy():
    rng = random.Random(12)
    for _ in range(150):
        f = random_laurent(rng, rng.randint(1, 5))
        g = random_laurent(rng, rng.randint(1, 4))
        h = f * g
        if h.is_zero():
            continue
        ph, sh = shifted(h)
        pg, sg = shifted(g)
        quo, rem = sympy.div(ph, pg, *XS)
        assert rem == 0
        expect = sympy.expand(quo * monomial(tuple(a - b for a, b in zip(sh, sg))))
        assert sympy.expand(as_sympy(h.exact_div(g)) - expect) == 0


def test_inexact_quotients_raise():
    rng = random.Random(13)
    raised = 0
    for _ in range(150):
        g = random_laurent(rng, rng.randint(2, 4))
        h = random_laurent(rng, 1) * g + random_laurent(rng, rng.randint(1, 2))
        if h.is_zero():
            continue
        ph, _ = shifted(h)
        pg, _ = shifted(g)
        quo, rem = sympy.div(ph, pg, *XS, domain=sympy.QQ)
        exact = rem == 0 and all(c.is_integer for c in sympy.Poly(quo, *XS).coeffs())
        if exact:
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
