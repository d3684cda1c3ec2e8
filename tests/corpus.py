"""Seeded random corpora shared across the test modules."""

import random
from fractions import Fraction

from jetvar.coords import BaseCoord, JetCoord, multi_indices
from jetvar.expr import add, evaluate, func, mul, num, pow_, sym


def coordinate_atoms(ctx, order):
    out = [BaseCoord(i) for i in range(1, ctx.n + 1)]
    for sigma in range(1, ctx.m + 1):
        for k in range(order + 1):
            out.extend(JetCoord(sigma, J) for J in multi_indices(ctx.n, k))
    return out


def random_polynomial(rng, ctx, order=None, degree=3, terms=3):
    """Fully expanded random polynomial in the base and jet coordinates up
    to the given order, with small integer coefficients."""
    order = ctx.order if order is None else order
    atoms = coordinate_atoms(ctx, order)
    parts = []
    for _ in range(rng.randint(1, terms)):
        coeff = rng.randint(-4, 4) or 1
        factors = [num(Fraction(coeff))]
        for _ in range(rng.randint(1, degree)):
            factors.append(sym(rng.choice(atoms)))
        parts.append(mul(*factors))
    return add(*parts)


def random_laurent(rng, ctx, terms=3, order=None, functions=True):
    """A sum of monomials with rational coefficients and exponents in
    -2..3, some of them with a sin/cos/exp factor."""
    atoms = coordinate_atoms(ctx, ctx.order if order is None else order)
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
            factors.append(func(rng.choice(("sin", "cos", "exp")), arg))
        parts.append(mul(*factors))
    return add(*parts)


def random_base_polynomial(rng, ctx, degree=3, terms=2):
    """Random polynomial in the base coordinates only (section material)."""
    atoms = [BaseCoord(i) for i in range(1, ctx.n + 1)]
    parts = []
    for _ in range(rng.randint(1, terms)):
        coeff = rng.randint(-4, 4) or 1
        factors = [num(Fraction(coeff))]
        for _ in range(rng.randint(0, degree)):
            factors.append(sym(rng.choice(atoms)))
        parts.append(mul(*factors))
    return add(*parts)


def random_mixed(rng, ctx, order=None):
    """Polynomial with some sin/cos/exp factors wrapped around small
    polynomial arguments."""
    base = random_polynomial(rng, ctx, order, degree=2, terms=2)
    wrapper = rng.choice([None, "sin", "cos", "exp"])
    if wrapper is None:
        return base
    atom = sym(rng.choice(coordinate_atoms(ctx, order or ctx.order)))
    arg = atom if rng.random() < 0.7 else pow_(atom, 2)
    return add(base, mul(num(Fraction(rng.randint(1, 3))), func(wrapper, arg)))


def random_env(rng, coords):
    """Rational sample point bounded away from the coordinate hyperplanes."""
    env = {}
    for c in coords:
        magnitude = Fraction(rng.randint(50, 250), 100)
        env[c] = magnitude if rng.random() < 0.5 else -magnitude
    return env


def evaluate_at(e, env, values=None):
    """The value of e at the one point env binds (coordinate -> number):
    `evaluate` on columns of one number each, sharing the atom table values."""
    return evaluate(e, {c: [x] for c, x in env.items()}, values)[0]


# each kind of nesting the expression language counts against its limit:
# the openers, taken in turn level by level, and the innermost atom
NESTINGS = {
    "parentheses": (("(",), "u"),
    "sin": (("sin(",), "u_{1}"),
    "minus": (("-",), "u"),
    "mixed": (("sin(", "-", "("), "u_{1}"),
}


def nested(openers, atom, depth):
    """atom under depth openers, each opening parenthesis closed."""
    opened = [openers[k % len(openers)] for k in range(depth)]
    return "".join(opened) + atom + ")" * sum(o.endswith("(") for o in opened)


def opened_length(openers, depth):
    """Where the opener of level depth + 1 starts in `nested`'s text."""
    return sum(len(openers[k % len(openers)]) for k in range(depth))
