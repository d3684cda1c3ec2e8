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
    mul,
    partial,
    pow_,
    total_derivative,
)
from jetvar.coords import PARAM, index_with  # noqa: E402
from jetvar.expr import coords_in, ordered_terms  # noqa: E402

from corpus import coordinate_atoms, random_laurent  # noqa: E402

CTX = JetContext(n=2, m=2, order=2)
CASES = 25


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
