"""Expression kernel: canonical form, calculus, fiber-scaling integration."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetvar import (
    ExpansionBudget,
    JetContext,
    NonPolynomialDivision,
    NonPolynomialParameter,
    UnboundCoordinate,
    parse_expr,
    render_expr,
)
from jetvar import expr
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import (
    COEFFICIENT_BITS,
    EXPONENT_LIMIT,
    ZERO,
    add,
    coords_in,
    evaluate,
    func,
    integrate_param,
    is_zero,
    max_jet_order,
    mul,
    neg,
    num,
    ordered_terms,
    partial,
    pow_,
    substitute,
    sym,
)

from corpus import evaluate_at, random_env, random_laurent, random_mixed, random_polynomial

X = BaseCoord(1)
U = JetCoord(1)
U1 = JetCoord(1, (1,))
V = JetCoord(2)


def test_constant_folding():
    assert add(num(1), num(2)) == num(3)
    assert mul(num(2), num(Fraction(3, 4))) == num(Fraction(3, 2))
    assert pow_(num(2), 3) == num(8)
    assert pow_(num(2), -2) == num(Fraction(1, 4))
    assert neg(num(5)) == num(-5)
    assert mul(num(0), sym(U)) == ZERO


def test_like_terms_collect():
    assert add(sym(U), sym(U)) == mul(num(2), sym(U))
    assert add(sym(U), neg(sym(U))) == ZERO
    assert add(mul(num(3), sym(U)), mul(num(-3), sym(U))) == ZERO
    # repeated factors merge into powers
    assert mul(sym(U), sym(U)) == pow_(sym(U), 2)


def test_products_distribute():
    u = sym(U)
    left = mul(add(u, num(1)), add(u, num(-1)))
    assert left == add(pow_(u, 2), num(-1))
    square = pow_(add(u, num(1)), 2)
    assert square == add(pow_(u, 2), mul(num(2), u), num(1))


def test_canonical_is_idempotent():
    rng = random.Random(11)
    ctx = JetContext(n=2, m=2, order=2)
    for _ in range(30):
        e = random_mixed(rng, ctx)
        assert parse_expr(render_expr(e, ctx), ctx).expr == e


def test_arithmetic_matches_float_evaluation():
    rng = random.Random(23)
    ctx = JetContext(n=2, m=2, order=2)
    for _ in range(30):
        a = random_mixed(rng, ctx)
        b = random_mixed(rng, ctx)
        env = random_env(rng, coords_in(a) | coords_in(b))
        fa, fb = evaluate_at(a, env), evaluate_at(b, env)
        assert evaluate_at(add(a, b), env) == pytest.approx(fa + fb, rel=1e-12, abs=1e-12)
        assert evaluate_at(mul(a, b), env) == pytest.approx(fa * fb, rel=1e-12, abs=1e-9)
        assert evaluate_at(neg(a), env) == pytest.approx(-fa, rel=1e-12, abs=1e-12)
        assert evaluate_at(pow_(a, 2), env) == pytest.approx(fa * fa, rel=1e-12, abs=1e-9)


def test_partial_product_rule():
    rng = random.Random(37)
    ctx = JetContext(n=2, m=2, order=2)
    for _ in range(25):
        a = random_polynomial(rng, ctx)
        b = random_polynomial(rng, ctx)
        c = rng.choice(sorted(coords_in(a) | {U}, key=str))
        lhs = partial(mul(a, b), c)
        rhs = add(mul(partial(a, c), b), mul(a, partial(b, c)))
        assert lhs == rhs


def test_partial_matches_difference_quotient():
    rng = random.Random(41)
    ctx = JetContext(n=2, m=1, order=2)
    h = Fraction(1, 10**6)
    for _ in range(20):
        e = random_mixed(rng, ctx)
        coords = sorted(coords_in(e), key=str)
        if not coords:
            continue
        c = rng.choice(coords)
        env = random_env(rng, coords)
        up = dict(env)
        down = dict(env)
        up[c] += h
        down[c] -= h
        numeric = (evaluate_at(e, up) - evaluate_at(e, down)) / (2 * float(h))
        assert evaluate_at(partial(e, c), env) == pytest.approx(numeric, rel=1e-5, abs=1e-4)


def test_partial_chain_rules():
    u = sym(U)
    assert partial(func("sin", u), U) == func("cos", u)
    assert partial(func("cos", u), U) == neg(func("sin", u))
    assert partial(func("exp", u), U) == func("exp", u)
    assert partial(func("sin", pow_(u, 2)), U) == mul(num(2), u, func("cos", pow_(u, 2)))
    assert partial(func("sin", u), X) == ZERO


def test_substitute_is_simultaneous():
    u, v = sym(U), sym(V)
    e = mul(u, pow_(v, 2))
    swapped = substitute(e, {U: v, V: u})
    assert swapped == mul(v, pow_(u, 2))


def test_substitute_matches_composition():
    rng = random.Random(53)
    ctx = JetContext(n=1, m=1, order=1)
    for _ in range(15):
        e = random_mixed(rng, ctx)
        inner = random_polynomial(rng, ctx, order=0, degree=2, terms=2)
        env = random_env(rng, coords_in(e) | coords_in(inner) | {X, U})
        composed = substitute(e, {U1: inner})
        direct_env = dict(env)
        direct_env[U1] = evaluate_at(inner, env)
        assert evaluate_at(composed, env) == pytest.approx(
            evaluate_at(e, direct_env), rel=1e-12, abs=1e-9
        )


def test_integrate_param_monomials():
    u, u1, x = sym(U), sym(U1), sym(X)
    # a monomial of fiber-jet degree k is weighed by 1/(k+1), the integral
    # of t^k over [0, 1]
    for k in range(7):
        weighed = mul(num(Fraction(1, k + 1)), pow_(u, k))
        assert integrate_param(pow_(u, k)) == weighed
    assert integrate_param(num(5)) == num(5)
    # base coordinates, also inside atoms, do not scale; negative jet
    # exponents count towards the degree: here 3 - 1 = 2
    e = mul(x, func("sin", x), pow_(u, 3), pow_(u1, -1))
    assert integrate_param(e) == mul(num(Fraction(1, 3)), e)
    # an integral coefficient stays an int: 3 * 1/3 = 1
    integral = integrate_param(add(mul(num(3), pow_(u, 2)), num(Fraction(1, 2))))
    assert [c.__class__ for c, _ in ordered_terms(integral)] == [int, Fraction]


def test_integrate_param_matches_quadrature():
    np = pytest.importorskip("numpy")
    rng = random.Random(61)
    ctx = JetContext(n=1, m=2, order=1)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    laurent = mul(func("sin", sym(X)), pow_(sym(U), 2), pow_(sym(U1), -1))
    for _ in range(15):
        e = add(random_polynomial(rng, ctx, degree=3, terms=3), laurent)
        env = random_env(rng, coords_in(e))
        exact = evaluate_at(integrate_param(e), env)
        # Gauss-Legendre in t on [0, 1] of e at the jets scaled by t
        approx = 0.0
        for tk, wk in zip(nodes, weights):
            t = (tk + 1) / 2
            point = {c: t * v if isinstance(c, JetCoord) else v for c, v in env.items()}
            approx += wk / 2 * evaluate_at(e, point)
        assert exact == pytest.approx(approx, rel=1e-10, abs=1e-10)


def test_integrate_param_rejects_nonpolynomial_parameter():
    u, x = sym(U), sym(X)
    inside = "^parameter inside a function application$"
    for e in (func("sin", u), mul(x, func("exp", add(x, sym(U1))))):
        with pytest.raises(NonPolynomialParameter, match=inside):
            integrate_param(e)
    # a negative degree d other than -1 is weighed by 1/(d+1) as well
    for e, weight in (
        (pow_(u, -2), -1),
        (pow_(u, -3), Fraction(-1, 2)),
        (mul(x, u, pow_(sym(U1), -3)), -1),
    ):
        assert integrate_param(e) == mul(num(weight), e)
    for e in (pow_(u, -1), mul(x, pow_(u, 2), pow_(sym(U1), -3)), add(u, pow_(sym(U1), -1))):
        with pytest.raises(NonPolynomialParameter, match="fiber degree -1"):
            integrate_param(e)
    # an atom of base coordinates only scales like a constant
    assert integrate_param(func("cos", x)) == func("cos", x)


def test_division():
    u = sym(U)
    # a quotient is the product with the divisor's inverse
    assert mul(pow_(u, 3), pow_(u, -1)) == pow_(u, 2)
    assert mul(u, pow_(pow_(u, 3), -1)) == pow_(u, -2)
    assert mul(mul(num(6), u), pow_(num(3), -1)) == mul(num(2), u)
    with pytest.raises(NonPolynomialDivision):
        mul(num(1), pow_(add(u, num(1)), -1))


def test_evaluate_errors_and_functions():
    u = sym(U)
    with pytest.raises(UnboundCoordinate):
        evaluate(u, {})
    assert evaluate(func("sin", u), {U: [math.pi / 2, 0.0]}) == pytest.approx([1.0, 0.0])
    # with no coordinate bound, a value is taken at one point
    assert evaluate(func("exp", num(0)), {}) == [1.0]


def test_structure_queries():
    e = add(mul(sym(X), sym(U1)), pow_(sym(U), 2))
    assert coords_in(e) == {X, U1, U}
    assert max_jet_order(e) == 1
    assert max_jet_order(num(4)) == 0
    assert is_zero(ZERO) and not is_zero(sym(U))


def test_negative_powers_evaluate():
    u = sym(U)
    e = pow_(u, -2)
    assert ordered_terms(e) == [(1, ((U, -2),))]
    assert evaluate_at(e, {U: 2}) == pytest.approx(0.25)
    d = partial(e, U)
    assert d == mul(num(-2), pow_(u, -3))


def test_exponents_past_the_limit_exceed_the_budget():
    # a packed monomial holds exponents below 2^15; a product, power or
    # derivative that could reach it raises before building anything
    u = sym(U)
    top = pow_(u, EXPONENT_LIMIT - 1)
    assert ordered_terms(top) == [(1, ((U, EXPONENT_LIMIT - 1),))]
    assert ordered_terms(pow_(u, 1 - EXPONENT_LIMIT)) == [(1, ((U, 1 - EXPONENT_LIMIT),))]
    with pytest.raises(ExpansionBudget):
        mul(pow_(u, 20000), pow_(u, 20000))
    with pytest.raises(ExpansionBudget):
        pow_(add(u, sym(X)), EXPONENT_LIMIT)
    with pytest.raises(ExpansionBudget):
        partial(top, U)
    # the bound is kept even where the product's exponents cancel
    with pytest.raises(ExpansionBudget):
        mul(pow_(u, 20000), pow_(u, -20000))


def test_powers_of_long_coefficients_exceed_the_budget():
    # |k| times the bits of the longer of numerator and denominator is
    # checked before the power is computed: 2 and 1/2 have 2 bits
    limit = COEFFICIENT_BITS // 2
    assert pow_(num(2), limit) == num(2**limit)
    assert pow_(num(Fraction(1, 2)), -limit) == num(2**limit)
    for base, k in ((2, limit + 1), (3, 20_000_000), (Fraction(2, 3), -200_000)):
        with pytest.raises(ExpansionBudget):
            pow_(num(base), k)
    # 3^100 has 159 bits: the budget, not the exponent bound, refuses
    with pytest.raises(ExpansionBudget, match="coefficient"):
        pow_(mul(num(3**100), sym(U)), 1000)


def test_products_of_single_terms():
    u, x = sym(U), sym(X)
    half = num(Fraction(1, 2))
    product = mul(half, num(-4), pow_(x, 2), u)
    assert product == mul(mul(mul(half, num(-4)), pow_(x, 2)), u)
    assert ordered_terms(product) == [(-2, ((X, 2), (U, 1)))]
    assert type(ordered_terms(mul(half, num(2), u))[0][0]) is int
    assert mul(u, pow_(u, -1), num(3)) == num(3)
    # the bounds add, as in a pairwise product
    with pytest.raises(ExpansionBudget):
        mul(pow_(u, 20000), pow_(x, 20000), u)


def test_jet_atoms_are_memoized_by_index(monkeypatch):
    value = expr.jet(1, (1, 2))
    built = []
    monkeypatch.setattr(expr, "JetCoord", lambda *args: built.append(args) or JetCoord(*args))
    assert expr.jet(1, (1, 2)) is value is sym(JetCoord(1, (2, 1)))
    assert built == []
    # one entry per interned jet coordinate
    assert len(expr._JET_VALUES) <= len(expr._ATOMS)


# each corpus value nests sin/cos/exp atoms three deep; a child builds the
# values in index order, or with "decoys" first interns atoms that sort
# before many of theirs and then builds the values in reverse; either way it
# prints each value's text by index
HISTORY = """
import random, sys
from corpus import random_mixed
from jetvar import JetContext, render_expr
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import add, func, num, sym

ctx = JetContext(n=2, m=2, order=2)

def value(i):
    rng = random.Random(i)
    e = random_mixed(rng, ctx)
    for name in ("sin", "cos", "exp"):
        e = add(func(name, e), random_mixed(rng, ctx))
    return e

order = range(40)
if sys.argv[1] == "decoys":
    sym(BaseCoord(3))
    sym(JetCoord(1, (1, 1, 1)))
    for k in (1, 2, 3):
        for name in ("sin", "cos", "exp"):
            func(name, num(k))
    order = reversed(order)
values = {i: value(i) for i in order}
for i in sorted(values):
    print(render_expr(values[i], ctx))
"""


def test_canonical_order_is_independent_of_intern_history():
    # no two atoms share a sort key, not even atoms whose arguments differ by
    # a factor, so ordering by the keys is a total order that the ids never
    # enter; two processes that intern the same values in different orders,
    # one with extra atoms first, render the same text
    rng = random.Random(73)
    ctx = JetContext(n=2, m=2, order=2)
    for _ in range(40):
        e = random_mixed(rng, ctx)
        for name in ("sin", "cos", "exp"):
            e = add(func(name, e), func(name, mul(num(2), e)), random_mixed(rng, ctx))
    keys = expr._ATOM_KEYS
    assert len(set(keys)) == len(keys)
    paths = [str(Path(expr.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    texts = [
        subprocess.run(
            [sys.executable, "-c", HISTORY, side], env=env, capture_output=True, text=True, check=True
        ).stdout
        for side in ("plain", "decoys")
    ]
    assert texts[0] == texts[1]
    assert texts[0].count("\n") == 40 and "exp(" in texts[0]


def test_a_full_factor_table_empties_itself_and_changes_no_result(monkeypatch):
    # the same seeded values, their gradients and canonical rows, once with
    # the decode, row and factor key tables left to grow and once capped low
    # enough to empty each many times: no capped table passes its limit, and
    # no result moves
    ctx = JetContext(n=2, m=2, order=2)

    def run(check):
        rng = random.Random(31)
        out = []
        for _ in range(30):
            e = mul(random_laurent(rng, ctx), random_laurent(rng, ctx))
            check()
            grad = expr.gradient(e)
            check()
            out.append((expr._rows(e), {c: expr._rows(d) for c, d in grad.items()}))
            check()
        return out

    uncleared = run(lambda: None)
    limit = 64
    monkeypatch.setattr(expr, "FACTOR_TABLE_LIMIT", limit)
    tables = (expr._FACTORS, expr._ORDERED, expr._FACTOR_KEYS)
    for table in tables:
        table.clear()
    sizes = []
    assert run(lambda: sizes.append([len(table) for table in tables])) == uncleared
    assert max(max(s) for s in sizes) <= limit
    # a table shrinks between two checks only by emptying itself
    for t in range(len(tables)):
        assert sum(b[t] < a[t] for a, b in zip(sizes, sizes[1:])) >= 4
    # every row's monomial was decoded and ordered, far more monomials than
    # the limit
    monomials = {f for rows, grad in uncleared for r in (rows, *grad.values()) for _, f in r}
    assert len(monomials) > 4 * limit
