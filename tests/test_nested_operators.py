"""The nested evaluation of the Euler-Lagrange and Helmholtz sums against
the flat formulas of their docstrings, and Euler-Lagrange against sympy.

The flat formulas below are the reference implementation: every term
d_J [...] is computed on its own with iterated_total_derivative and the
terms are summed in the order the docstrings write them.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from jetvar import (
    JetContext,
    Lagrangian,
    SourceForm,
    euler_lagrange,
    helmholtz_residuals,
)
from jetvar.coords import BaseCoord, JetCoord, multi_indices, multiplicity
from jetvar.expr import ZERO, add, is_zero, mul, neg, num, ordered_terms, partial, sym
from jetvar.jets import iterated_total_derivative
from jetvar.variational import _completion_plan

from corpus import coordinate_atoms, random_polynomial

CASES = [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2), (1, 1, 3)]
PER_CASE = 3


def flat_euler_lagrange(lam):
    """eps_sigma = sum_k (-1)^k sum_{|J|=k} d_J partial(L, y^sigma_J)."""
    ctx = lam.ctx
    eps = []
    for sigma in range(1, ctx.m + 1):
        acc = ZERO
        for k in range(lam.r + 1):
            for J in multi_indices(ctx.n, k):
                term = iterated_total_derivative(
                    partial(lam.L, JetCoord(sigma, J)), J, ctx
                )
                acc = add(acc, term if k % 2 == 0 else neg(term))
        eps.append(acc)
    return tuple(eps)


def flat_helmholtz(sf):
    """(level, I, sigma, nu, residual) in record order, with

    R = [partial(eps_sigma, y^nu_I) - (-1)^l partial(eps_nu, y^sigma_I)] / mult(I)
      - sum_{k=l+1}^s (-1)^k C(k, l) sum_{|M|=k-l} mult(M)
            d_M [partial(eps_nu, y^sigma_{I+M}) / mult(I+M)]
    """
    ctx = sf.ctx
    out = []
    for l in range(sf.s + 1):
        for I in multi_indices(ctx.n, l):
            for sigma in range(1, ctx.m + 1):
                for nu in range(1, ctx.m + 1):
                    es, en = sf.eps[sigma - 1], sf.eps[nu - 1]
                    second = partial(en, JetCoord(sigma, I))
                    head = add(
                        partial(es, JetCoord(nu, I)),
                        neg(second) if l % 2 == 0 else second,
                    )
                    residual = mul(num(Fraction(1, multiplicity(I))), head)
                    for k in range(l + 1, sf.s + 1):
                        weight = (-1) ** k * comb(k, l)
                        for M in multi_indices(ctx.n, k - l):
                            full = tuple(sorted(I + M))
                            inner = mul(
                                num(Fraction(1, multiplicity(full))),
                                partial(en, JetCoord(sigma, full)),
                            )
                            tail = iterated_total_derivative(inner, M, ctx)
                            factor = num(-weight * multiplicity(M))
                            residual = add(residual, mul(factor, tail))
                    out.append((l, I, sigma, nu, residual))
    return out


def records(report):
    return [
        (rec.level, rec.I, rec.sigma, rec.nu, rec.residual) for rec in report.records
    ]


def nonzero(flat):
    """The flat residuals a report keeps: the nonzero ones, in record order.
    The flat formula computes every residual, so a zero residual kept or a
    nonzero one dropped still fails the comparison."""
    return [rec for rec in flat if not is_zero(rec[-1])]


def random_lagrangian(rng, n, m, r):
    """A random polynomial plus a cubic term with two top-order factors, so
    that mixed multi-indices of length r occur often when n > 1."""
    ctx = JetContext(n=n, m=m, order=r)
    top = [JetCoord(sigma, J) for sigma in range(1, m + 1) for J in multi_indices(n, r)]
    cubic = mul(
        sym(rng.choice(top)),
        sym(rng.choice(top)),
        sym(rng.choice(coordinate_atoms(ctx, r))),
    )
    return Lagrangian(add(random_polynomial(rng, ctx, order=r), cubic), ctx, r)


@pytest.mark.parametrize("n,m,r", CASES)
def test_nested_euler_lagrange_matches_flat_formula(n, m, r):
    rng = random.Random(1000 * n + 100 * m + r)
    for _ in range(PER_CASE):
        lam = random_lagrangian(rng, n, m, r)
        eps = euler_lagrange(lam).eps
        assert eps == flat_euler_lagrange(lam)
        # declared above the occurring order: the same source form
        lifted = Lagrangian(lam.L, lam.ctx, r + 2)
        assert euler_lagrange(lifted).eps == flat_euler_lagrange(lifted) == eps


@pytest.mark.parametrize("n,m,r", CASES)
def test_nested_helmholtz_matches_flat_formula(n, m, r):
    rng = random.Random(2000 * n + 100 * m + r)
    kept = 0
    for _ in range(PER_CASE):
        sf = euler_lagrange(random_lagrangian(rng, n, m, r))
        assert records(helmholtz_residuals(sf)) == nonzero(flat_helmholtz(sf)) == []
        # a non-variational perturbation, so that nonzero residuals compare too
        ctx = sf.ctx
        bumped = list(sf.eps)
        sigma = rng.randrange(ctx.m)
        bumped[sigma] = add(
            bumped[sigma], random_polynomial(rng, ctx, order=sf.s, degree=2)
        )
        perturbed = SourceForm(tuple(bumped), ctx, sf.s)
        expected = nonzero(flat_helmholtz(perturbed))
        assert records(helmholtz_residuals(perturbed)) == expected
        kept += len(expected)
        # declared above the occurring order: the residuals of the levels
        # above s are zero, so the report keeps the same records
        lifted = SourceForm(perturbed.eps, ctx, sf.s + 2)
        report = helmholtz_residuals(lifted)
        assert records(report) == nonzero(flat_helmholtz(lifted)) == expected
        assert report.s == sf.s + 2
    assert kept > 0


def test_helmholtz_builds_one_plan_per_shape():
    # two source forms with n = 2 and s = 2 that differ in m and in their
    # fiber names share one completion plan; the second is read over an
    # order-7 context (ceiling 14) and perturbed off the Euler-Lagrange
    # image, so nonzero residuals compare too
    rng = random.Random(4212)
    a = euler_lagrange(random_lagrangian(rng, 2, 1, 1))
    named = JetContext(2, 2, 7, ("a", "b"), ("p", "q"))
    bump = random_polynomial(rng, named, order=2, degree=2)
    b = SourceForm((bump, ZERO), named, 2)
    assert (a.ctx.n, a.s) == (b.ctx.n, b.s)
    assert (a.ctx.m, a.ctx.fiber_names) != (b.ctx.m, b.ctx.fiber_names)

    _completion_plan.cache_clear()
    shared = records(helmholtz_residuals(a)), records(helmholtz_residuals(b))
    info = _completion_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for sf, expected in zip((b, a), reversed(shared)):
        _completion_plan.cache_clear()
        assert records(helmholtz_residuals(sf)) == expected
    assert shared[1] == nonzero(flat_helmholtz(b))
    assert shared[1]


# --- sympy's euler_equations as an independent oracle --------------------------


SYMPY_CASES = [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1), (2, 1, 2)]


@pytest.mark.parametrize("n,m,r", SYMPY_CASES)
def test_euler_lagrange_matches_sympy_euler_equations(n, m, r):
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    xs = sympy.symbols(f"x1:{n + 1}")
    fs = [sympy.Function(f"y{sigma}")(*xs) for sigma in range(1, m + 1)]

    def coordinate(c):
        if isinstance(c, BaseCoord):
            return xs[c.i - 1]
        f = fs[c.sigma - 1]
        return sympy.Derivative(f, *(xs[i - 1] for i in c.J)) if c.J else f

    def to_sympy(e):
        total = sympy.Integer(0)
        for coeff, factors in ordered_terms(e):
            c = Fraction(coeff)
            term = sympy.Rational(c.numerator, c.denominator)
            for atom, k in factors:
                term *= coordinate(atom) ** k
            total += term
        return total

    # sympy drops an equation that evaluates to true or false, such as
    # 4 = 0; the parameter z keeps every equation symbolic
    z = sympy.Symbol("z")
    rng = random.Random(3000 * n + 100 * m + r)
    for _ in range(PER_CASE):
        lam = random_lagrangian(rng, n, m, r)
        L = to_sympy(lam.L)
        for f, eps in zip(fs, euler_lagrange(lam).eps):
            (equation,) = euler_equations(L + z * f, [f], xs)
            assert equation.rhs == 0
            assert sympy.expand(equation.lhs - z - to_sympy(eps)) == 0
