"""The polynomial kernel against sympy as an independent oracle.

Seeded random Laurent polynomials in jet coordinates, with sin/cos/exp
atoms around small polynomial arguments, go through add, mul, pow_,
partial, total_derivative and the Tonti Lagrangian; each result must equal
what sympy's expand/diff/integrate compute from the same inputs.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from jetvar import (  # noqa: E402
    JetContext,
    NonPolynomialParameter,
    SourceForm,
    tonti_lagrangian,
    total_derivative,
)
from jetvar.coords import BaseCoord, JetCoord, index_with  # noqa: E402
from jetvar.expr import (  # noqa: E402
    _intern,
    add,
    coords_in,
    func,
    mul,
    num,
    ordered_terms,
    partial,
    pow_,
    sym,
)

from corpus import coordinate_atoms, random_laurent, random_polynomial  # noqa: E402

CTX = JetContext(n=2, m=2, order=2)
CASES = 25


def oracle_symbol(c):
    if isinstance(c, BaseCoord):
        return sympy.Symbol(f"x{c.i}")
    return sympy.Symbol("_".join([f"y{c.sigma}"] + [str(i) for i in c.J]))


def to_sympy(e):
    functions = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp}
    total = sympy.Integer(0)
    for coeff, factors in ordered_terms(e):
        term = sympy.Rational(Fraction(coeff).numerator, Fraction(coeff).denominator)
        for atom, k in factors:
            if isinstance(atom, tuple):
                name, arg = atom
                base = functions[name](to_sympy(arg))
            else:
                base = oracle_symbol(atom)
            term *= base**k
        total += term
    return total


def same(got, want) -> bool:
    return sympy.expand(to_sympy(got) - want) == 0


@pytest.mark.parametrize("seed", range(CASES))
def test_arithmetic_matches_sympy(seed):
    rng = random.Random(seed)
    a, b = random_laurent(rng, CTX), random_laurent(rng, CTX)
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(add(a, b), sa + sb)
    assert same(add(a, b, a), 2 * sa + sb)
    assert same(mul(a, b), sa * sb)
    k = rng.randint(0, 3)
    assert same(pow_(a, k), sa**k)
    single = random_laurent(rng, CTX, terms=1)
    k = rng.choice((-3, -2, -1, 2))
    assert same(pow_(single, k), to_sympy(single) ** k)


@pytest.mark.parametrize("seed", range(CASES))
def test_partial_matches_sympy_diff(seed):
    rng = random.Random(1000 + seed)
    e = mul(random_laurent(rng, CTX), random_laurent(rng, CTX, terms=2))
    se = to_sympy(e)
    candidates = sorted(coords_in(e), key=str) + [rng.choice(coordinate_atoms(CTX, CTX.order))]
    for c in candidates:
        assert same(partial(e, c), sympy.diff(se, oracle_symbol(c)))


@pytest.mark.parametrize("seed", range(CASES))
def test_total_derivative_matches_sympy_chain_rule(seed):
    rng = random.Random(2000 + seed)
    e = mul(random_laurent(rng, CTX, order=1), random_laurent(rng, CTX, terms=2, order=1))
    se = to_sympy(e)
    for i in range(1, CTX.n + 1):
        want = sympy.diff(se, oracle_symbol(BaseCoord(i)))
        for c in coords_in(e):
            if isinstance(c, JetCoord):
                lifted = oracle_symbol(JetCoord(c.sigma, index_with(c.J, i)))
                want += lifted * sympy.diff(se, oracle_symbol(c))
        assert same(total_derivative(e, i, CTX), want)


def test_wide_keys_and_large_exponents_match_sympy():
    # 150 more coordinates first, so that the atoms below sit past bit 2400
    # of a packed monomial; exponents near +-2^14 fill their digits next to
    # small ones, and y^K * y^-K cancels in the product
    ctx = JetContext(n=1, m=9, order=2)
    for k in range(150):
        sym(JetCoord(8, (1,) * k))
    x = BaseCoord(1)
    ys = [JetCoord(9, (1,) * k) for k in range(4)]
    y, y1, y2 = (sym(c) for c in ys[:3])
    assert min(_intern(c) for c in ys) >= 150
    K = 2**14 - 8
    a = add(
        mul(num(3), pow_(y, K)),
        mul(pow_(sym(x), -2), y1),
        mul(func("sin", y1), y2),
    )
    b = add(mul(pow_(y, -K), y2), mul(num(Fraction(-1, 2)), sym(x)))
    sa, sb = to_sympy(a), to_sympy(b)
    product = mul(a, b)
    want = sympy.expand(sa * sb)
    assert same(product, want)
    assert same(pow_(mul(pow_(y, K // 4), y2), -4), to_sympy(y) ** -K * to_sympy(y2) ** -4)
    for c in (x,) + tuple(ys[:3]):
        assert same(partial(product, c), sympy.diff(want, oracle_symbol(c)))
    lifted = sympy.diff(want, oracle_symbol(x)) + sum(
        oracle_symbol(up) * sympy.diff(want, oracle_symbol(c)) for c, up in zip(ys, ys[1:])
    )
    assert same(total_derivative(product, 1, ctx), lifted)


@pytest.mark.parametrize("seed", range(CASES))
def test_tonti_matches_sympy_integral(seed):
    rng = random.Random(5000 + seed)
    # half the components gain a Laurent term, which may put t^-1 or t
    # inside an atom; then half gain a term of fiber degree -2 or -3: 17 of
    # the 25 forms are accepted, 13 of them with such a term
    eps = []
    for _ in range(CTX.m):
        e = random_polynomial(rng, CTX)
        if rng.random() < 0.5:
            e = add(e, random_laurent(rng, CTX, terms=1))
        eps.append(e)
    jets = [sym(c) for c in coordinate_atoms(CTX, CTX.order) if isinstance(c, JetCoord)]
    for sigma in range(CTX.m):
        if rng.random() < 0.5:
            pole = pow_(rng.choice(jets), rng.choice((-2, -3)))
            eps[sigma] = add(eps[sigma], mul(num(rng.randint(1, 5)), pole, sym(BaseCoord(1))))
    sf = SourceForm(tuple(eps), CTX)
    t = sympy.Symbol("t")
    scaling = {
        oracle_symbol(c): t * oracle_symbol(c)
        for c in coordinate_atoms(CTX, CTX.order)
        if isinstance(c, JetCoord)
    }
    integrands = [sympy.expand(to_sympy(e).xreplace(scaling)) for e in eps]
    atoms = set().union(*(f.atoms(sympy.sin, sympy.cos, sympy.exp) for f in integrands))
    if any(a.has(t) for a in atoms) or any(f.coeff(t, -1) != 0 for f in integrands):
        # t inside sin/cos/exp, or a monomial of fiber degree -1: no weight
        with pytest.raises(NonPolynomialParameter):
            tonti_lagrangian(sf)
        return
    # the antiderivative at t = 1 is the integral over [0, 1] of the
    # polynomial part, and weighs a t^d with d <= -2 by 1/(d+1)
    want = sum(
        oracle_symbol(JetCoord(sigma)) * sympy.integrate(f, t).subs(t, 1)
        for sigma, f in enumerate(integrands, start=1)
    )
    assert same(tonti_lagrangian(sf).L, want)
