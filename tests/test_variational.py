"""Euler-Lagrange operator, variationality tests, reconstruction, and
behavior under fibered automorphisms."""

import random
from fractions import Fraction

import pytest

import jetvar.variational
from jetvar import (
    DegreeMismatch,
    DimensionMismatch,
    FiberedIso,
    JetContext,
    Lagrangian,
    NonPolynomialParameter,
    NotODEContext,
    SourceForm,
    classical_helmholtz_ode,
    decide_zero,
    euler_lagrange,
    helmholtz_residuals,
    naturality_report,
    null_lagrangian_from_eta,
    pullback_lagrangian,
    tonti_lagrangian,
    total_derivative,
)
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import ZERO, add, func, is_zero, mul, neg, num, pow_, sym
from jetvar.forms import form_from_terms, max_form_order

from corpus import random_polynomial

X = BaseCoord(1)
U = JetCoord(1)
U1 = JetCoord(1, (1,))
U11 = JetCoord(1, (1, 1))
V = JetCoord(2)
V1 = JetCoord(2, (1,))


def half(e):
    return mul(num(Fraction(1, 2)), e)


def test_euler_lagrange_free_particle(ode1):
    lam = Lagrangian(half(pow_(sym(U1), 2)), ode1, 1)
    sf = euler_lagrange(lam)
    assert sf.s == 2
    assert sf.eps == (neg(sym(U11)),)


def test_euler_lagrange_beam(ode2):
    lam = Lagrangian(half(pow_(sym(U11), 2)), ode2, 2)
    sf = euler_lagrange(lam)
    assert sf.s == 4
    assert sf.eps == (sym(JetCoord(1, (1, 1, 1, 1))),)


def test_euler_lagrange_laplace(plane1):
    u1, u2 = sym(JetCoord(1, (1,))), sym(JetCoord(1, (2,)))
    lam = Lagrangian(add(half(pow_(u1, 2)), half(pow_(u2, 2))), plane1, 1)
    sf = euler_lagrange(lam)
    assert sf.eps == (
        add(neg(sym(JetCoord(1, (1, 1)))), neg(sym(JetCoord(1, (2, 2))))),
    )


def test_euler_lagrange_coupled_fields():
    ctx = JetContext(n=1, m=2, order=1)
    lam = Lagrangian(mul(sym(U), sym(V1)), ctx, 1)
    sf = euler_lagrange(lam)
    assert sf.eps == (sym(V1), neg(sym(U1)))


def test_euler_lagrange_kills_total_divergences():
    rng = random.Random(103)
    for n in (1, 2):
        ctx = JetContext(n=n, m=1, order=2)
        for _ in range(8):
            f = random_polynomial(rng, ctx, order=1, degree=2, terms=2)
            density = add(
                *[total_derivative(f, i, ctx) for i in range(1, n + 1)]
            )
            lam = Lagrangian(density, ctx, 2)
            assert all(is_zero(e) for e in euler_lagrange(lam).eps)
            assert decide_zero(euler_lagrange(lam).eps) is True


def test_euler_lagrange_is_linear():
    rng = random.Random(107)
    ctx = JetContext(n=1, m=2, order=1)
    for _ in range(8):
        a = random_polynomial(rng, ctx)
        b = random_polynomial(rng, ctx)
        combo = Lagrangian(add(mul(num(3), a), b), ctx, 1)
        ea = euler_lagrange(Lagrangian(a, ctx, 1))
        eb = euler_lagrange(Lagrangian(b, ctx, 1))
        expected = tuple(
            add(mul(num(3), x), y) for x, y in zip(ea.eps, eb.eps)
        )
        assert euler_lagrange(combo).eps == expected


def test_null_lagrangian_from_closed_form_input(plane1):
    eta = form_from_terms(plane1, 0, [((), pow_(sym(U), 2))])
    with pytest.raises(DegreeMismatch):
        null_lagrangian_from_eta(eta)


def test_null_lagrangian_from_eta_ode(ode1):
    # eta = u^2 (a 0-form): the null density is its total derivative,
    # declared one order above the jets occurring in eta
    eta = form_from_terms(ode1, 0, [((), pow_(sym(U), 2))])
    lam = null_lagrangian_from_eta(eta)
    assert lam.L == mul(num(2), sym(U), sym(U1))
    assert lam.r == max_form_order(eta) + 1 == 1
    assert decide_zero(euler_lagrange(lam).eps) is True
    eta = form_from_terms(ode1, 0, [((), mul(sym(U), sym(U1)))])
    lam = null_lagrangian_from_eta(eta)
    assert lam.L == add(pow_(sym(U1), 2), mul(sym(U), sym(U11)))
    assert lam.r == max_form_order(eta) + 1 == 2
    assert decide_zero(euler_lagrange(lam).eps) is True


def test_helmholtz_on_euler_lagrange_images():
    rng = random.Random(109)
    for n, m, r in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 2, 1)):
        ctx = JetContext(n=n, m=m, order=r)
        for _ in range(3):
            lam = Lagrangian(random_polynomial(rng, ctx, order=r), ctx, r)
            report = helmholtz_residuals(euler_lagrange(lam))
            assert report.verdict == "variational"
            assert all(is_zero(rec.residual) for rec in report.records)


def test_helmholtz_first_order_obstruction(ode1):
    sf = SourceForm((sym(U1),), ode1, 1)
    report = helmholtz_residuals(sf)
    assert report.verdict == "not_variational"
    assert (report.s, len(report.records)) == (1, 1)
    by_key = {(rec.level, rec.I): rec.residual for rec in report.records}
    assert by_key[(1, (1,))] == num(2)
    assert is_zero(by_key.get((0, ()), ZERO))


def test_helmholtz_record_ordering():
    # eps = (x1*u_{1,2} + v_{2,2}, u*v_{1,1} + x2*u_{1}) on n = m = 2 has
    # nonzero residuals on every level, at several I and component pairs
    ctx = JetContext(n=2, m=2, order=2)
    y = lambda sigma, *J: sym(JetCoord(sigma, J))
    eps = (
        add(mul(sym(BaseCoord(1)), y(1, 1, 2)), y(2, 2, 2)),
        add(mul(y(1), y(2, 1, 1)), mul(sym(BaseCoord(2)), y(1, 1))),
    )
    report = helmholtz_residuals(SourceForm(eps, ctx, 2))
    keys = [(rec.level, rec.I, rec.sigma, rec.nu) for rec in report.records]
    assert keys == sorted(keys)
    assert keys == [
        (0, (), 1, 2), (0, (), 2, 1), (0, (), 2, 2),
        (1, (1,), 1, 2), (1, (1,), 2, 1), (1, (1,), 2, 2), (1, (2,), 1, 1),
        (2, (2, 2), 1, 2), (2, (2, 2), 2, 1),
    ]
    assert report.verdict == "not_variational" and report.s == 2


def test_helmholtz_probe_rejects_opaque_nonzero(ode1):
    sf = SourceForm((func("sin", sym(U1)),), ode1, 1)
    assert helmholtz_residuals(sf).verdict == "not_variational"


def test_helmholtz_opaque_zero_order_is_variational(ode1):
    sf = SourceForm((func("sin", sym(U)),), ode1.with_order(0), 0)
    assert helmholtz_residuals(sf).verdict == "variational"


def test_helmholtz_undecided_on_hidden_identity(ode1):
    # the level-1 residual is sin^2 + cos^2 - 1: structurally nonzero,
    # numerically indistinguishable from zero at every probe point
    u1 = sym(U1)
    eps = mul(
        half(u1),
        add(pow_(func("sin", u1), 2), pow_(func("cos", u1), 2), num(-1)),
    )
    report = helmholtz_residuals(SourceForm((eps,), ode1, 1))
    assert report.verdict == "undecided"
    nonzero = [rec for rec in report.records if not is_zero(rec.residual)]
    assert len(nonzero) == 1
    assert nonzero[0].level == 1


def test_classical_agrees_with_general():
    rng = random.Random(113)
    for m in (1, 2, 3):
        ctx = JetContext(n=1, m=m, order=2)
        for _ in range(4):
            eps = tuple(
                random_polynomial(rng, ctx, order=2, degree=2, terms=2)
                for _ in range(m)
            )
            sf = SourceForm(eps, ctx, 2)
            assert (
                classical_helmholtz_ode(sf).verdict
                == helmholtz_residuals(sf).verdict
            )


def test_classical_oscillator_pair():
    ctx = JetContext(n=1, m=2, order=2)
    eps = (
        add(sym(JetCoord(1, (1, 1))), sym(U)),
        add(sym(JetCoord(2, (1, 1))), sym(V)),
    )
    sf = SourceForm(eps, ctx, 2)
    classical = classical_helmholtz_ode(sf)
    general = helmholtz_residuals(sf)
    assert classical.verdict == general.verdict == "variational"
    assert all(is_zero(rec.residual) for rec in classical.records)


def test_classical_context_guards(plane1, ode1):
    with pytest.raises(NotODEContext):
        classical_helmholtz_ode(SourceForm((sym(U),), plane1, 0))
    third = SourceForm((sym(JetCoord(1, (1, 1, 1))),), ode1.with_order(3), 3)
    with pytest.raises(NotODEContext):
        classical_helmholtz_ode(third)


def test_tonti_free_ode(ode2):
    sf = SourceForm((sym(U11),), ode2, 2)
    lam = tonti_lagrangian(sf)
    assert lam.L == half(mul(sym(U), sym(U11)))
    assert lam.r == 2
    assert euler_lagrange(lam).eps == sf.eps


def test_tonti_laplace(plane2):
    eps = add(sym(JetCoord(1, (1, 1))), sym(JetCoord(1, (2, 2))))
    sf = SourceForm((eps,), plane2, 2)
    lam = tonti_lagrangian(sf)
    assert lam.L == add(
        half(mul(sym(U), sym(JetCoord(1, (1, 1))))),
        half(mul(sym(U), sym(JetCoord(1, (2, 2))))),
    )
    assert euler_lagrange(lam).eps == sf.eps


def test_tonti_with_base_inhomogeneity(ode2):
    sf = SourceForm((add(sym(U11), sym(X)),), ode2, 2)
    lam = tonti_lagrangian(sf)
    assert euler_lagrange(lam).eps == sf.eps


def test_tonti_round_trip_random():
    rng = random.Random(127)
    for n, m, r in ((1, 1, 1), (2, 1, 1), (1, 2, 2)):
        ctx = JetContext(n=n, m=m, order=r)
        for _ in range(4):
            lam = Lagrangian(random_polynomial(rng, ctx, order=r), ctx, r)
            sf = euler_lagrange(lam)
            rebuilt = tonti_lagrangian(sf)
            assert euler_lagrange(rebuilt).eps == sf.eps
            difference = Lagrangian(
                add(rebuilt.L, neg(lam.L)), ctx.with_order(rebuilt.r), rebuilt.r
            )
            assert decide_zero(euler_lagrange(difference).eps) is True


def test_tonti_rejects_transcendental_fiber_dependence(ode1):
    sf = SourceForm((func("sin", sym(U)),), ode1.with_order(0), 0)
    with pytest.raises(NonPolynomialParameter):
        tonti_lagrangian(sf)


def test_a_record_at_the_declared_order_keeps_its_context(ode1, ode2):
    # one context per declared order: a record copies the context only
    # when it declares another order
    lam = Lagrangian(half(pow_(sym(U1), 2)), ode1, ode1.order)
    assert lam.ctx is ode1
    assert euler_lagrange(lam).ctx == ode2
    assert tonti_lagrangian(euler_lagrange(lam)).ctx == ode2
    assert Lagrangian(lam.L, ode1, 2).ctx == ode2


def test_source_form_validation(ode1):
    with pytest.raises(DimensionMismatch):
        SourceForm((sym(U), sym(U)), ode1, 1)
    with pytest.raises(ValueError):
        SourceForm((sym(U11),), ode1, 1)


def test_pullback_lagrangian_base_scaling(ode1):
    # xbar = 2x: the density picks up dxbar = 2 dx against ubar_1 = u_1/2
    lam = Lagrangian(pow_(sym(U1), 2), ode1, 1)
    iso = FiberedIso((mul(num(2), sym(X)),), (sym(U),))
    pulled = pullback_lagrangian(lam, iso)
    assert pulled.L == half(pow_(sym(U1), 2))


def test_naturality_under_fibered_automorphisms(ode1):
    lam = Lagrangian(half(pow_(sym(U1), 2)), ode1, 1)
    isos = [
        FiberedIso((mul(num(2), sym(X)),), (sym(U),)),
        FiberedIso((sym(X),), (add(sym(U), pow_(sym(U), 2)),)),
        FiberedIso((add(sym(X), num(-1)),), (mul(num(3), sym(U)),)),
    ]
    for iso in isos:
        report = naturality_report(lam, iso)
        assert set(report) == {"theorem3", "theorem4"}
        assert report["theorem3"] and report["theorem4"]


def hidden_zero(e):
    """e*(sin(e)^2 + cos(e)^2 - 1): identically zero, structurally not."""
    return mul(e, add(pow_(func("sin", e), 2), pow_(func("cos", e), 2), num(-1)))


def test_decide_zero_answers_yes_no_or_undecided():
    u, u1 = sym(U), sym(U1)
    assert decide_zero([]) is True
    assert decide_zero([ZERO, ZERO]) is True
    assert decide_zero([ZERO, u]) is False  # a nonzero polynomial
    assert decide_zero([func("sin", u1)]) is False  # probed away from zero
    assert decide_zero([hidden_zero(u1)]) is None
    assert decide_zero([hidden_zero(u1), u]) is False  # a no outweighs undecided
    assert not decide_zero([hidden_zero(u1)])  # undecided never reads as yes


@pytest.mark.parametrize(
    "build, answer",
    [
        # overflows for u above about 1.9, clearly nonzero below
        pytest.param(lambda u: func("exp", func("exp", func("exp", u))), False, id="some"),
        # overflows at every probe point, |u| >= 1/2
        pytest.param(lambda u: func("exp", mul(num(10**6), pow_(u, 2))), None, id="all"),
    ],
)
# seeds whose points include u > 1.9: 3, 1 and 6 of the 20
@pytest.mark.parametrize("seed", [0, 1, 6])
def test_the_probe_reads_a_failing_point_as_nothing(build, answer, seed):
    assert decide_zero([build(sym(U))], seed) is answer


def test_the_probe_stops_at_the_first_clearly_nonzero_point(monkeypatch):
    calls = []
    real = jetvar.variational.evaluate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jetvar.variational, "evaluate", counting)
    # |sin(u)| > 0.47 at every probe point, |u| in [1/2, 5/2]
    assert decide_zero([func("sin", sym(U))]) is False
    assert [len(env[U]) for _, env in calls] == [1]
    calls.clear()
    assert decide_zero([hidden_zero(sym(U1))]) is None
    assert len(calls) == jetvar.variational.PROBE_POINTS


@pytest.mark.parametrize(
    "extra, answers",
    [
        (lambda: sym(U), (False, False)),
        # a null Lagrangian: the Cartan forms differ, the source forms do not
        (lambda: mul(sym(U), sym(U1)), (False, True)),
        (lambda: mul(sym(U), hidden_zero(sym(X))), (None, None)),
    ],
)
def test_naturality_decides_the_gap_of_unequal_sides(ode1, monkeypatch, extra, answers):
    # the pulled-back Lagrangian is skewed by extra, so each side built
    # from it differs from the pullback of the same side of lam
    density = jetvar.variational._density

    def skewed(pulled, ctx, r):
        out = density(pulled, ctx, r)
        return Lagrangian(add(out.L, extra()), out.ctx, out.r)

    monkeypatch.setattr(jetvar.variational, "_density", skewed)
    lam = Lagrangian(half(pow_(sym(U1), 2)), ode1, 1)
    report = naturality_report(lam, FiberedIso((mul(num(2), sym(X)),), (sym(U),)))
    assert (report["theorem3"], report["theorem4"]) == answers
