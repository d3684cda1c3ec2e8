"""The nested evaluation of the Euler-Lagrange and Helmholtz sums against
the flat formulas of their docstrings, the skew-adjoint identity of the
Helmholtz residuals, and both operators against sympy.

The flat formulas below are the reference implementation: every term
d_J [...] is computed on its own with iterated_total_derivative and the
terms are summed in the order the docstrings write them.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest

from jetvar import (
    JetContext,
    Lagrangian,
    SourceForm,
    euler_lagrange,
    helmholtz_residuals,
    jets,
    parse_expr,
    tonti_lagrangian,
    variational,
)
from jetvar.coords import BaseCoord, JetCoord, multi_indices, multiplicity
from jetvar.expr import ZERO, add, is_zero, mul, neg, num, ordered_terms, partial, pow_
from jetvar.expr import func, sym
from jetvar.jets import iterated_total_derivative

from corpus import coordinate_atoms, random_laurent, random_polynomial

CASES = [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 2), (2, 3, 1), (3, 1, 1), (3, 1, 2), (1, 1, 3)]
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


def test_euler_lagrange_adds_each_derivative_into_its_target(monkeypatch):
    # the dense n3m2r1 Lagrangian of the benchmark ladder, its Tonti
    # Lagrangian, and the first times 5/7 plus a term over 3, whose
    # denominators are cleared first: the recursion sums through
    # jets.add_total_derivatives, without add or neg, on integer
    # coefficients, with one total derivative per nonzero F(K), K
    # nonempty, as many as when it summed with add
    ctx = JetContext(n=3, m=2, order=1, base_names=("x1", "x2", "x3"), fiber_names=("u1", "u2"))
    source = "(u1_{1}^2+u1_{2}^2+u1_{3}^2-u2_{1}^2-u2_{2}^2-u2_{3}^2)^3 + u1^2*u2^2"
    lam = Lagrangian(parse_expr(source, ctx).expr, ctx, 1)
    tonti = tonti_lagrangian(euler_lagrange(lam))
    rational = parse_expr(f"5/7*({source}) + 1/3*u1_{{1}}^2*u2_{{2}}", ctx).expr
    mixed = Lagrangian(rational, ctx, 1)
    assert denominator(lam) == denominator(tonti) == 1 and denominator(mixed) == 21
    cases = [(lam, 6), (tonti, 18), (mixed, 6)]
    expected = [flat_euler_lagrange(case) for case, _ in cases]
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            if name == "total_derivative":
                calls["fraction"] += any(isinstance(c, Fraction) for c in args[0].terms.values())
            return real(*args, **kwargs)

        return call

    for module, name in ((variational, "add"), (variational, "neg"), (jets, "total_derivative")):
        monkeypatch.setattr(module, name, counted(module, name))
    for (case, derivatives), eps in zip(cases, expected):
        calls.clear()
        assert euler_lagrange(case).eps == eps
        assert +calls == {"total_derivative": derivatives}


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


def test_helmholtz_of_one_shape_over_two_contexts_matches_flat_formula():
    # two source forms with n = 2 and s = 2 that differ in m and in their
    # fiber names; the second is read over an order-7 context (ceiling 14)
    # and perturbed off the Euler-Lagrange image, so nonzero residuals
    # compare too, and each report is the same when computed again after
    # the other
    rng = random.Random(4212)
    a = euler_lagrange(random_lagrangian(rng, 2, 1, 1))
    named = JetContext(2, 2, 7, ("a", "b"), ("p", "q"))
    bump = random_polynomial(rng, named, order=2, degree=2)
    b = SourceForm((bump, ZERO), named, 2)
    assert (a.ctx.n, a.s) == (b.ctx.n, b.s)
    assert (a.ctx.m, a.ctx.fiber_names) != (b.ctx.m, b.ctx.fiber_names)

    shared = records(helmholtz_residuals(a)), records(helmholtz_residuals(b))
    for sf, expected in zip((b, a), reversed(shared)):
        assert records(helmholtz_residuals(sf)) == expected
    assert shared[1] == nonzero(flat_helmholtz(b))
    assert shared[1]


# --- the skew-adjoint identity the Helmholtz shortcut rests on ----------------


def adjoint_sum(R, ctx, s, l, I, sigma, nu, start):
    """sum_{k=start}^s (-1)^k C(k, l) sum_{|M|=k-l} mult(M) d_M R(k, I+M, sigma, nu)
    over the full residuals R, keyed (level, I, sigma, nu)."""
    total = ZERO
    for k in range(start, s + 1):
        for M in multi_indices(ctx.n, k - l):
            tail = iterated_total_derivative(R[k, tuple(sorted(I + M)), sigma, nu], M, ctx)
            total = add(total, mul(num((-1) ** k * comb(k, l) * multiplicity(M)), tail))
    return total


IDENTITY_CASES = [
    (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (2, 1, 2),
    (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 1),
]  # fmt: skip


@pytest.mark.parametrize("n,m,s", IDENTITY_CASES)
def test_helmholtz_residuals_satisfy_the_skew_adjoint_identity(n, m, s):
    # R(l, I, nu, sigma) = -sum_{k>=l} (-1)^k C(k, l) sum_{|M|=k-l} mult(M)
    #                       d_M R(k, I+M, sigma, nu)
    # on every residual of the flat formula, zeros included, of random
    # source forms with negative powers and sin/cos/exp atoms; on the
    # diagonal the even levels are -1/2 of their higher-level sum
    rng = random.Random(5000 * n + 100 * m + s)
    ctx = JetContext(n=n, m=m, order=s)
    half = num(Fraction(-1, 2))
    nonzero_keys = 0
    for _ in range(6):
        eps = [
            add(random_polynomial(rng, ctx, order=s), random_laurent(rng, ctx, order=s))
            for _ in range(m)
        ]
        sf = SourceForm(tuple(eps), ctx, s)
        R = {rec[:4]: rec[4] for rec in flat_helmholtz(sf)}
        for (l, I, sigma, nu), value in R.items():
            assert value == neg(adjoint_sum(R, ctx, s, l, I, nu, sigma, l))
            if sigma == nu and l % 2 == 0:
                assert value == mul(half, adjoint_sum(R, ctx, s, l, I, sigma, nu, l + 1))
            nonzero_keys += not is_zero(value)
    assert nonzero_keys > 0


# an Euler-Lagrange image plus a term whose first nonzero residual shows in
# one block: an off-diagonal one, an odd diagonal level, or (staying
# variational) the top even diagonal level
FALLBACK_CASES = {
    "off_diagonal": (1, 2, JetCoord(2), True),
    "odd_diagonal_level": (1, 1, JetCoord(1, (1,)), True),
    "top_even_diagonal_level": (1, 1, JetCoord(1, (1, 1)), False),
    "off_diagonal_plane": (2, 2, JetCoord(2, (1,)), True),
}


@pytest.mark.parametrize("n,m,term,shows", FALLBACK_CASES.values(), ids=FALLBACK_CASES)
def test_helmholtz_fallback_matches_flat_formula(n, m, term, shows):
    rng = random.Random(6000 * n + 100 * m)
    sf = euler_lagrange(random_lagrangian(rng, n, m, 1))
    assert records(helmholtz_residuals(sf)) == []
    bumped = SourceForm((add(sf.eps[0], sym(term)),) + sf.eps[1:], sf.ctx, sf.s)
    report = helmholtz_residuals(bumped)
    assert records(report) == nonzero(flat_helmholtz(bumped))
    assert bool(report.records) is shows
    assert report.verdict == ("not_variational" if shows else "variational")


def counted_pairs(monkeypatch, sf):
    """The (sigma, nu) of every adjoint entry helmholtz_residuals computes,
    in the order it computes them."""
    pairs = []
    compute = variational._adjoint

    def counting(partials, sigma, nu, ctx):
        pairs.append((sigma, nu))
        return compute(partials, sigma, nu, ctx)

    monkeypatch.setattr(variational, "_adjoint", counting)
    report = helmholtz_residuals(sf)
    monkeypatch.undo()
    return report, pairs


def test_helmholtz_computes_the_free_residuals_alone_when_they_vanish(monkeypatch):
    # the pairs sigma <= nu hold every free residual (sigma < nu, odd levels
    # of sigma = nu); on the Euler-Lagrange image only they are computed
    rng = random.Random(4223)
    sf = euler_lagrange(random_lagrangian(rng, 2, 2, 1))
    report, pairs = counted_pairs(monkeypatch, sf)
    assert report.records == () and report.verdict == "variational"
    assert pairs == [(1, 1), (1, 2), (2, 2)]
    # off the image every pair is computed, each of them once
    bumped = SourceForm((sf.eps[0], add(sf.eps[1], sym(JetCoord(1, (2,))))), sf.ctx, sf.s)
    report, pairs = counted_pairs(monkeypatch, bumped)
    assert records(report) == nonzero(flat_helmholtz(bumped)) != []
    assert pairs == [(1, 1), (1, 2), (2, 2), (2, 1)]


# --- sympy as an independent oracle --------------------------------------------


def to_sympy(sympy, e, xs, fs):
    """e in sympy: x^i as xs[i - 1], y^sigma_J as fs[sigma - 1] differentiated
    along J, and a sin/cos/exp atom as sympy's function of its argument."""
    total = sympy.Integer(0)
    for coeff, factors in ordered_terms(e):
        c = Fraction(coeff)
        term = sympy.Rational(c.numerator, c.denominator)
        for atom, k in factors:
            if isinstance(atom, BaseCoord):
                base = xs[atom.i - 1]
            elif isinstance(atom, JetCoord):
                f = fs[atom.sigma - 1]
                base = sympy.diff(f, *(xs[i - 1] for i in atom.J)) if atom.J else f
            else:
                name, arg = atom
                base = getattr(sympy, name)(to_sympy(sympy, arg, xs, fs))
            term *= base**k
        total += term
    return total


SYMPY_CASES = [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1), (2, 1, 2)]


def assert_sympy_euler_equations(sympy, lam, eps):
    """eps is sympy's Euler-Lagrange expression of lam, component by
    component."""
    from sympy.calculus.euler import euler_equations

    n, m = lam.ctx.n, lam.ctx.m
    xs = sympy.symbols(f"x1:{n + 1}")
    fs = [sympy.Function(f"y{sigma}")(*xs) for sigma in range(1, m + 1)]
    # sympy drops an equation that evaluates to true or false, such as
    # 4 = 0; the parameter z keeps every equation symbolic
    z = sympy.Symbol("z")
    L = to_sympy(sympy, lam.L, xs, fs)
    for f, e in zip(fs, eps):
        (equation,) = euler_equations(L + z * f, [f], xs)
        assert equation.rhs == 0
        assert sympy.expand(equation.lhs - z - to_sympy(sympy, e, xs, fs)) == 0


def denominator(lam):
    """D, the lcm of the denominators of the coefficients of lam."""
    return lcm(*(Fraction(c).denominator for c, _ in ordered_terms(lam.L)))


@pytest.mark.parametrize("n,m,r", SYMPY_CASES)
def test_euler_lagrange_matches_sympy_euler_equations(n, m, r):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3000 * n + 100 * m + r)
    for _ in range(PER_CASE):
        lam = random_lagrangian(rng, n, m, r)
        assert_sympy_euler_equations(sympy, lam, euler_lagrange(lam).eps)


def rational_lagrangian(rng, n, m, r):
    """random_lagrangian with its terms scaled in turn by 2/3 and 5/7."""
    lam = random_lagrangian(rng, n, m, r)
    weights = itertools.cycle((Fraction(2, 3), Fraction(5, 7)))
    terms = [
        mul(num(c * next(weights)), *(pow_(sym(atom), k) for atom, k in factors))
        for c, factors in ordered_terms(lam.L)
    ]
    return Lagrangian(add(*terms), lam.ctx, r)


@pytest.mark.parametrize("n,m,r", list(itertools.product((1, 2), repeat=3)))
def test_euler_lagrange_matches_sympy_on_rational_coefficients(n, m, r):
    # euler_lagrange runs on D L with integer coefficients and divides by D
    # at the end
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4000 * n + 100 * m + r)
    for _ in range(2):
        lam = rational_lagrangian(rng, n, m, r)
        assert denominator(lam) == 21
        assert_sympy_euler_equations(sympy, lam, euler_lagrange(lam).eps)


@pytest.mark.parametrize("m,r", [(1, 2), (2, 1)])
def test_tonti_round_trip_of_an_n2_image_matches_sympy(m, r):
    # the Tonti Lagrangian of an image carries the weights 1/(d+1), so its
    # Euler-Lagrange form runs with D > 1; it returns the image, and sympy
    # agrees
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4500 + 10 * m + r)
    lam = random_lagrangian(rng, 2, m, r)
    sf = euler_lagrange(Lagrangian(add(lam.L, random_lagrangian(rng, 2, m, r).L), lam.ctx, r))
    tonti = tonti_lagrangian(sf)
    assert denominator(tonti) > 1
    eps = euler_lagrange(tonti).eps
    assert eps == sf.eps
    assert_sympy_euler_equations(sympy, tonti, eps)


# (n, m, r, a sin term in L, a bump off the image)
SELF_ADJOINT_CASES = [
    (1, 1, 1, False, False), (1, 1, 1, True, True), (1, 1, 2, True, False),
    (1, 1, 2, False, True), (1, 2, 1, False, False), (1, 2, 1, True, True),
    (1, 2, 2, False, True), (2, 1, 1, True, False), (2, 1, 1, False, True),
    (2, 1, 2, False, False), (2, 2, 1, True, False), (2, 2, 1, False, True),
]  # fmt: skip


@pytest.mark.parametrize("n,m,r,trig,bumped", SELF_ADJOINT_CASES)
def test_helmholtz_verdict_matches_self_adjointness_of_the_frechet_derivative(
    n, m, r, trig, bumped
):
    # eps is variational iff its Frechet derivative D_eps(v) = d/ds eps(u + s v)
    # at s = 0 is formally self-adjoint (Olver, Thm 5.92); the adjoint
    # D_eps*(w) is the Euler-Lagrange expression of w . D_eps(v) in v
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    rng = random.Random(7000 * n + 100 * m + 10 * r + 2 * trig + bumped)
    lam = random_lagrangian(rng, n, m, r)
    if trig:
        jets = [c for c in coordinate_atoms(lam.ctx, r) if isinstance(c, JetCoord)]
        term = mul(num(rng.randint(1, 3)), func("sin", sym(rng.choice(jets))))
        lam = Lagrangian(add(lam.L, term), lam.ctx, r)
    sf = euler_lagrange(lam)
    if bumped:
        # u^m_{1} in eps_1 puts 1 into a residual the random part cannot cancel
        bump = add(random_polynomial(rng, sf.ctx, order=sf.s, degree=2), sym(JetCoord(m, (1,))))
        sf = SourceForm((add(sf.eps[0], bump),) + sf.eps[1:], sf.ctx, sf.s)

    xs = sympy.symbols(f"x1:{n + 1}")
    us, vs, ws = (
        [sympy.Function(f"{name}{sigma}")(*xs) for sigma in range(1, m + 1)]
        for name in "uvw"
    )
    t, z = sympy.symbols("t z")

    def frechet(directions):
        moved = [u + t * v for u, v in zip(us, directions)]
        return [sympy.diff(to_sympy(sympy, e, xs, moved), t).subs(t, 0) for e in sf.eps]

    pairing = sum(w * d for w, d in zip(ws, frechet(vs)))
    self_adjoint = True
    for v, d in zip(vs, frechet(ws)):
        # z keeps the equation from evaluating to true (see above)
        (equation,) = euler_equations(pairing + z * v, [v], xs)
        assert equation.rhs == 0
        self_adjoint &= sympy.expand(equation.lhs - z - d) == 0

    verdict = helmholtz_residuals(sf).verdict
    assert verdict == ("not_variational" if bumped else "variational")
    assert (verdict == "variational") == self_adjoint
