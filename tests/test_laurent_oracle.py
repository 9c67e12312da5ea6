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
    from the decoded terms and packed at the expression's own width:
    exponent plus 2**(bits - 2) in the ``bits``-bit field of each variable."""
    bits = expr._bits
    exps = [e for e, _ in expr.exponent_items()]
    corners = tuple(map(min, zip(*exps))), tuple(map(max, zip(*exps)))
    return tuple(
        sum((e + (1 << (bits - 2))) << (bits * i) for i, e in enumerate(corner))
        for corner in corners
    )


def test_every_result_carries_its_envelope():
    """With exponents within +-3 every result packs narrow; within +-33 the
    results straddle the two widths."""
    for span in (3, 33):
        rng = random.Random(16)
        results = [LaurentExpr.generator(NVARS, i) for i in range(NVARS)]
        results += [LaurentExpr.constant(NVARS, c) for c in (1, -4)]
        for _ in range(60):
            f = random_laurent(rng, rng.randint(1, 5), -span, span)
            g = random_laurent(rng, rng.randint(1, 4), -span, span)
            results += [f, g, f + g, f * g, (f + g) * g, (f * g).exact_div(g)]
            if not (f + g).is_zero():
                results.append((f * (f + g) + g * (f + g)).exact_div(f + g))
        # sums where an extreme term cancels: the envelope shrinks
        for _ in range(60):
            f = random_laurent(rng, rng.randint(2, 5), -span, span)
            exps, c = min(f.exponent_items())
            g = LaurentExpr(NVARS, {exps: -c}) + random_laurent(rng, 1, 0, 1)
            results += [f + g, (f + g) * f, (f * f + g * f).exact_div(f)]
        results = [r for r in results if not r.is_zero()]
        assert len(results) > 500
        assert {r._bits for r in results} == ({8} if span < 32 else {8, 16})
        for r in results:
            assert r._env_keys() == envelope(r)


# -- the two field widths ----------------------------------------------------


def test_width_crossing_arithmetic_matches_sympy():
    """Exponents from -33..33: operands, sums, products and quotients on
    both sides of +-31, where keys change from 8-bit to 16-bit fields."""
    rng = random.Random(17)
    widths = set()
    raised = 0
    for _ in range(80):
        f = random_laurent(rng, rng.randint(1, 4), -33, 33)
        g = random_laurent(rng, rng.randint(1, 3), -33, 33)
        widths.add((f._bits, g._bits))
        assert sympy.expand(as_sympy(f + g) - as_sympy(f) - as_sympy(g)) == 0
        h = f * g
        assert sympy.expand(as_sympy(h) - as_sympy(f) * as_sympy(g)) == 0
        assert sympy.expand(as_sympy(h.exact_div(g)) - sympy_quotient(h, g)) == 0
        inexact = h + random_laurent(rng, 1, -33, 33)
        if inexact.is_zero():
            continue
        expect = sympy_quotient(inexact, g)
        if expect is None:
            raised += 1
            with pytest.raises(LaurentError, match="inexact"):
                inexact.exact_div(g)
        else:
            assert sympy.expand(as_sympy(inexact.exact_div(g)) - expect) == 0
    assert widths == {(8, 8), (8, 16), (16, 8), (16, 16)}
    assert raised > 40


def test_narrow_operand_meets_wide_operand():
    x, y, z = (LaurentExpr.generator(NVARS, i) for i in range(NVARS))
    narrow = x * y + LaurentExpr(NVARS, {(-2, 0, 3): -5})
    wide = LaurentExpr(NVARS, {(40, 0, -1): 2, (0, -35, 0): 1})
    assert (narrow._bits, wide._bits) == (8, 16)
    for result, expect in (
        (narrow + wide, as_sympy(narrow) + as_sympy(wide)),
        (wide + narrow, as_sympy(narrow) + as_sympy(wide)),
        (narrow * wide, as_sympy(narrow) * as_sympy(wide)),
        (wide * narrow, as_sympy(narrow) * as_sympy(wide)),
        ((narrow * wide).exact_div(narrow), as_sympy(wide)),
        ((narrow * wide).exact_div(wide), as_sympy(narrow)),
    ):
        assert result._bits == 16
        assert sympy.expand(as_sympy(result) - expect) == 0
    # narrow factors whose product leaves +-31, and then +-63, which no
    # 8-bit field holds
    edge = LaurentExpr(NVARS, {(31, -31, 0): 1, (0, 0, -31): 2})
    square = edge * edge
    cube = square * edge
    assert (edge._bits, square._bits, cube._bits, cube.bound) == (8, 16, 16, 93)
    assert sympy.expand(as_sympy(cube) - as_sympy(edge) ** 3) == 0
    # narrow operands whose quotient box leaves +-31: the division runs wide
    top = LaurentExpr(NVARS, {(30, 0, 0): 1, (30, 1, 0): 1})
    low = LaurentExpr(NVARS, {(-5, 0, 0): 1})
    quo = top.exact_div(low)
    assert (top._bits, low._bits, quo._bits, quo.bound) == (8, 8, 16, 35)
    assert quo == LaurentExpr(NVARS, {(35, 0, 0): 1, (35, 1, 0): 1})
    # wide operands with a small quotient: it stays wide, and equal
    quo = (wide * (y + z)).exact_div(wide)
    assert quo._bits == 16 and quo == y + z
    with pytest.raises(LaurentError, match="inexact"):
        (narrow * wide + x).exact_div(wide)


def test_equal_expressions_at_different_widths_compare_equal():
    rng = random.Random(18)
    far = LaurentExpr(NVARS, {(0, 0, 40): 1})
    for _ in range(40):
        f = random_laurent(rng, rng.randint(1, 5))
        wide = (f + far) + LaurentExpr(NVARS, {(0, 0, 40): -1})   # cancels back to f
        assert (f._bits, wide._bits) == (8, 16)
        assert f == wide and wide == f
        assert not f == wide + LaurentExpr.constant(NVARS, 1)
        assert not wide + LaurentExpr.constant(NVARS, 1) == f
    assert LaurentExpr.zero(NVARS) == far + far * LaurentExpr.constant(NVARS, -1)


@pytest.mark.parametrize("span, bits", [(31, 8), (32, 16), (MAX_EXPONENT, 16)])
def test_exponent_items_round_trip_at_both_widths(span, bits):
    rng = random.Random(span)
    for _ in range(40):
        terms = {
            tuple(rng.randint(-span, span) for _ in range(NVARS)): rng.choice([-2, 1, 7])
            for _ in range(rng.randint(1, 6))
        }
        terms[(span, -span, 0)] = 3
        expr = LaurentExpr(NVARS, terms)
        assert (expr._bits, expr.bound) == (bits, span)
        assert dict(expr.exponent_items()) == terms
        assert LaurentExpr(NVARS, dict(expr.exponent_items())) == expr
