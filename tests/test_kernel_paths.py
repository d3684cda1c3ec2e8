"""The one-walk derivatives, the lift table and the int invariant of the
kernel, on seeded random Laurent polynomials with sin/cos/exp atoms."""

import random
from fractions import Fraction

import pytest

from jetvar import JetContext, OrderOverflow, total_derivative
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import (
    ZERO,
    add,
    coords_in,
    func,
    gradient,
    integrate_param,
    is_zero,
    mul,
    num,
    ordered_terms,
    partial,
    pow_,
    substitute,
    sym,
)

from corpus import coordinate_atoms, random_laurent

CTX = JetContext(n=2, m=2, order=2)
CASES = 25
# a coordinate the context does not declare
OUTSIDE = BaseCoord(3)


def assert_int_when_integral(e):
    """No coefficient, here or inside a function argument, is a Fraction
    with denominator 1."""
    for coeff, factors in ordered_terms(e):
        assert coeff.__class__ is int or coeff.denominator != 1, (e, coeff)
        for atom, _ in factors:
            if isinstance(atom, tuple):
                assert_int_when_integral(atom[1])


@pytest.mark.parametrize("seed", range(CASES))
def test_gradient_matches_partial(seed):
    rng = random.Random(3000 + seed)
    e = mul(random_laurent(rng, CTX), random_laurent(rng, CTX, terms=2))
    if seed % 2:
        e = mul(e, add(sym(OUTSIDE), sym(BaseCoord(1))))
    grad = gradient(e)
    assert set(grad) <= coords_in(e)
    for c in coordinate_atoms(CTX, CTX.order + 1) + [OUTSIDE]:
        want = partial(e, c)
        assert grad.get(c, ZERO) == want
        assert (c in grad) == (not is_zero(want))


@pytest.mark.parametrize("seed", range(CASES))
def test_integral_coefficients_stay_int(seed):
    rng = random.Random(4000 + seed)
    a, b = random_laurent(rng, CTX), random_laurent(rng, CTX)
    # halves and thirds that recombine into integers
    half, third = num(Fraction(1, 2)), num(Fraction(1, 3))
    halved = mul(half, a)
    u = JetCoord(1)
    results = [
        add(halved, halved),
        add(mul(third, b), mul(num(Fraction(2, 3)), b), a),
        mul(a, b),
        mul(num(6), mul(half, third, a)),
        mul(num(2), halved),
        pow_(add(halved, halved), 2),
        pow_(mul(num(Fraction(1, 2)), sym(u)), -1),
        partial(pow_(mul(half, sym(u)), 2), u),
        total_derivative(mul(halved, sym(JetCoord(2))), 1, CTX),
        substitute(halved, {u: mul(num(2), sym(JetCoord(2)))}),
        integrate_param(add(mul(num(6), pow_(sym(u), -4)), mul(num(3), pow_(sym(u), 2)))),
    ]
    results.extend(gradient(mul(halved, pow_(sym(u), 2))).values())
    for e in results:
        assert_int_when_integral(e)


@pytest.mark.parametrize("high_first", [True, False], ids=["high-first", "low-first"])
def test_lift_table_follows_each_ceiling(high_first):
    # a fiber index no other test lifts, so this call order is the first
    sigma = 3 if high_first else 4
    # order 7 gives ceiling 14, order 6 gives ceiling 12
    high = JetContext(n=1, m=4, order=7)
    low = JetContext(n=1, m=4, order=6)
    top = sym(JetCoord(sigma, (1,) * 12))
    e = mul(top, func("sin", top))
    lifted = sym(JetCoord(sigma, (1,) * 13))
    want = add(mul(lifted, func("sin", top)), mul(top, func("cos", top), lifted))
    for ctx in (high, low) if high_first else (low, high):
        if ctx is high:
            assert total_derivative(e, 1, ctx) == want
        else:
            with pytest.raises(OrderOverflow):
                total_derivative(e, 1, ctx)
            with pytest.raises(OrderOverflow):
                total_derivative(func("sin", top), 1, ctx)
    # the coordinates below the ceiling still lift under the low one
    below = sym(JetCoord(sigma, (1,) * 11))
    assert total_derivative(below, 1, low) == top
