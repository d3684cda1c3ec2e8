"""The polynomial kernel against sympy as an independent oracle.

Seeded random Laurent polynomials in jet coordinates, with sin/cos/exp
atoms around small polynomial arguments, go through add, mul, pow_,
partial and total_derivative; each result must equal what sympy's
expand/diff compute from the same inputs.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from jetvar import (  # noqa: E402
    BaseCoord,
    JetContext,
    JetCoord,
    add,
    cos,
    exp,
    mul,
    num,
    partial,
    pow_,
    sin,
    sym,
    total_derivative,
)
from jetvar.coords import PARAM, index_with, multi_indices_up_to  # noqa: E402
from jetvar.expr import coords_in, ordered_terms  # noqa: E402

CTX = JetContext(n=2, m=2, order=2)
CASES = 25


def coordinate_atoms(order=CTX.order):
    out = [BaseCoord(i) for i in range(1, CTX.n + 1)]
    for sigma in range(1, CTX.m + 1):
        out.extend(JetCoord(sigma, J) for J in multi_indices_up_to(CTX.n, order))
    return out


def oracle_symbol(c):
    if isinstance(c, BaseCoord):
        return sympy.Symbol(f"x{c.i}")
    if isinstance(c, JetCoord):
        return sympy.Symbol("_".join([f"y{c.sigma}"] + [str(i) for i in c.J]))
    assert c == PARAM
    return sympy.Symbol("t")


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


def random_laurent(rng, terms=3, order=CTX.order, functions=True):
    """A sum of monomials with rational coefficients and exponents in
    -2..3, some of them with a sin/cos/exp factor."""
    atoms = coordinate_atoms(order)
    parts = []
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
        factors = [num(coeff)]
        for _ in range(rng.randint(0, 3)):
            factors.append(pow_(sym(rng.choice(atoms)), rng.choice((-2, -1, 1, 1, 2, 3))))
        if functions and rng.random() < 0.4:
            arg = add(
                mul(num(rng.randint(1, 3)), sym(rng.choice(atoms))),
                pow_(sym(rng.choice(atoms)), rng.randint(1, 2)),
            )
            factors.append(rng.choice((sin, cos, exp))(arg))
        parts.append(mul(*factors))
    return add(*parts)


def same(got, want) -> bool:
    return sympy.expand(to_sympy(got) - want) == 0


@pytest.mark.parametrize("seed", range(CASES))
def test_arithmetic_matches_sympy(seed):
    rng = random.Random(seed)
    a, b = random_laurent(rng), random_laurent(rng)
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(add(a, b), sa + sb)
    assert same(add(a, b, a), 2 * sa + sb)
    assert same(mul(a, b), sa * sb)
    k = rng.randint(0, 3)
    assert same(pow_(a, k), sa**k)
    single = random_laurent(rng, terms=1)
    k = rng.choice((-3, -2, -1, 2))
    assert same(pow_(single, k), to_sympy(single) ** k)


@pytest.mark.parametrize("seed", range(CASES))
def test_partial_matches_sympy_diff(seed):
    rng = random.Random(1000 + seed)
    e = mul(random_laurent(rng), random_laurent(rng, terms=2))
    se = to_sympy(e)
    candidates = sorted(coords_in(e), key=str) + [rng.choice(coordinate_atoms())]
    for c in candidates:
        assert same(partial(e, c), sympy.diff(se, oracle_symbol(c)))


@pytest.mark.parametrize("seed", range(CASES))
def test_total_derivative_matches_sympy_chain_rule(seed):
    rng = random.Random(2000 + seed)
    e = mul(random_laurent(rng, order=1), random_laurent(rng, terms=2, order=1))
    se = to_sympy(e)
    for i in range(1, CTX.n + 1):
        want = sympy.diff(se, oracle_symbol(BaseCoord(i)))
        for c in coords_in(e):
            if isinstance(c, JetCoord):
                lifted = oracle_symbol(JetCoord(c.sigma, index_with(c.J, i)))
                want += lifted * sympy.diff(se, oracle_symbol(c))
        assert same(total_derivative(e, i, CTX), want)
