"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL line, so the suite output doubles as an acceptance report.  All
symbolic assertions are exact; the numeric test carries its tolerance
inline.
"""

import random
import time
from fractions import Fraction

from jetvar import (
    FiberedIso,
    JetContext,
    Lagrangian,
    SectionSpec,
    SourceForm,
    VariationProbe,
    cartan_form,
    classical_helmholtz_ode,
    decide_zero,
    euler_lagrange,
    first_variation_check,
    helmholtz_residuals,
    naturality_report,
    null_lagrangian_from_eta,
    parse_expr,
    tonti_lagrangian,
    total_derivative,
)
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import ZERO, add, is_zero, mul, neg, num, pow_, sym
from jetvar.forms import (
    contact_decompose,
    exterior_derivative,
    form_from_terms,
    horizontalize,
)

from corpus import random_polynomial

X = BaseCoord(1)
U = JetCoord(1)
U1 = JetCoord(1, (1,))
U11 = JetCoord(1, (1, 1))


def report(k: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'}")


def lagrangian_corpus():
    """Fifty seeded random polynomial Lagrangians with n, m, r <= 2."""
    rng = random.Random(20260825)
    out = []
    for _ in range(50):
        n, m, r = rng.choice([1, 2]), rng.choice([1, 2]), rng.choice([1, 2])
        ctx = JetContext(n=n, m=m, order=r)
        out.append(Lagrangian(random_polynomial(rng, ctx, order=r), ctx, r))
    return out


def expr(text, ctx):
    return parse_expr(text, ctx).expr


def test_acceptance_1_source_forms_of_lagrangians_are_variational():
    ok = True
    try:
        start = time.perf_counter()
        for lam in lagrangian_corpus():
            rep = helmholtz_residuals(euler_lagrange(lam))
            assert rep.verdict == "variational"
            assert all(is_zero(rec.residual) for rec in rep.records)
        assert time.perf_counter() - start <= 60.0
    except BaseException:
        ok = False
        raise
    finally:
        report(1, "Euler-Lagrange images satisfy the variationality conditions", ok)


def test_acceptance_2_tonti_round_trip():
    ok = True
    try:
        for lam in lagrangian_corpus():
            sf = euler_lagrange(lam)
            rebuilt = tonti_lagrangian(sf)
            assert euler_lagrange(rebuilt).eps == sf.eps
            order = max(rebuilt.r, lam.r)
            gap = Lagrangian(
                add(rebuilt.L, neg(lam.L)), lam.ctx.with_order(order), order
            )
            assert decide_zero(euler_lagrange(gap).eps) is True
    except BaseException:
        ok = False
        raise
    finally:
        report(2, "Tonti Lagrangian reproduces the source form exactly", ok)


def test_acceptance_3_boundary_forms_have_zero_source():
    ok = True
    try:
        rng = random.Random(31)
        for case in range(30):
            n = rng.choice([1, 2])
            m = rng.choice([1, 2])
            ctx = JetContext(n=n, m=m, order=1)
            if n == 1:
                eta = form_from_terms(ctx, 0, [((), random_polynomial(rng, ctx, order=1))])
            else:
                gens = [(BaseCoord(1),), (BaseCoord(2),)]
                for sigma in range(1, m + 1):
                    gens += [
                        (JetCoord(sigma),),
                        (JetCoord(sigma, (1,)),),
                        (JetCoord(sigma, (2,)),),
                    ]
                items = [
                    (rng.choice(gens), random_polynomial(rng, ctx, order=1, terms=2))
                    for _ in range(rng.randint(1, 3))
                ]
                eta = form_from_terms(ctx, 1, items)
            lam = null_lagrangian_from_eta(eta)
            assert all(is_zero(e) for e in euler_lagrange(lam).eps)
            assert decide_zero(euler_lagrange(lam).eps) is True
    except BaseException:
        ok = False
        raise
    finally:
        report(3, "exact-form Lagrangians lie in the Euler-Lagrange kernel", ok)


def test_acceptance_4_cartan_form_splits():
    cases = [
        (1, 1, 1, "1/2*u_{1}^2"),
        (1, 1, 2, "1/2*u_{1,1}^2"),
        (1, 1, 1, "1/2*u_{1}^2 + u^3"),
        (1, 2, 1, "u_{1}*v_{1} + u*v"),
        (2, 1, 1, "1/2*u_{1}^2 + 1/2*u_{2}^2"),
        (2, 1, 1, "u_{1}*u_{2} - u^2"),
        (2, 1, 2, "x1^2*u_{1,1} + u*u_{2,2}"),
        (1, 1, 2, "u_{1,1}^2 + u_{1}*u"),
        (1, 2, 2, "u*v_{1,1}"),
        (1, 1, 1, "(x^2 + 1)*u_{1}^2"),
    ]
    ok = True
    try:
        for n, m, r, text in cases:
            names = {"base_names": ("x",), "fiber_names": ("u", "v")[:m]} if n == 1 else {}
            ctx = JetContext(n=n, m=m, order=r, **names)
            lam = Lagrangian(expr(text, ctx), ctx, r)
            theta = cartan_form(lam)
            assert horizontalize(theta) == lam.as_form()
            pieces = dict(contact_decompose(exterior_derivative(theta)))
            assert pieces[1] == euler_lagrange(lam).as_form()
    except BaseException:
        ok = False
        raise
    finally:
        report(4, "Cartan form recovers Lagrangian and source form", ok)


def test_acceptance_5_classical_and_general_ode_conditions_agree():
    ok = True
    try:
        rng = random.Random(54)
        systems = []
        for case in range(12):
            m = rng.choice([1, 2, 3])
            ctx = JetContext(n=1, m=m, order=2)
            eps = tuple(
                random_polynomial(rng, ctx, order=2, degree=2) for _ in range(m)
            )
            systems.append(SourceForm(eps, ctx, 2))
        for case in range(8):
            m = rng.choice([1, 2, 3])
            ctx = JetContext(n=1, m=m, order=1)
            lam = Lagrangian(random_polynomial(rng, ctx, order=1, degree=2), ctx, 1)
            systems.append(euler_lagrange(lam))
        half = num(Fraction(-1, 2))
        for sf in systems:
            general = helmholtz_residuals(sf)
            classical = classical_helmholtz_ode(sf)
            assert general.verdict == classical.verdict
            assert (general.s, classical.s) == (sf.s, 2)
            if general.verdict == "variational":
                assert general.records == classical.records == ()
            ctx = sf.ctx
            # a report keeps only its nonzero residuals; the others are zero
            R = {
                (rec.level, rec.sigma, rec.nu): rec.residual
                for rec in general.records
            }
            C = {
                (rec.level, rec.sigma, rec.nu): rec.residual
                for rec in classical.records
            }
            for sigma in range(1, ctx.m + 1):
                for nu in range(1, ctx.m + 1):
                    r0, r1, r2 = (R.get((l, sigma, nu), ZERO) for l in (0, 1, 2))
                    c1, c2, c3 = (C.get((l, sigma, nu), ZERO) for l in (0, 1, 2))
                    assert c1 == add(r0, mul(half, total_derivative(r1, 1, ctx)))
                    assert c2 == add(r1, neg(total_derivative(r2, 1, ctx)))
                    assert c3 == r2
    except BaseException:
        ok = False
        raise
    finally:
        report(5, "second-order ODE conditions match the general residuals", ok)


def test_acceptance_6_known_closed_forms():
    ok = True
    try:
        ode = JetContext(n=1, m=1, order=2, base_names=("x",), fiber_names=("u",))
        sf = SourceForm((sym(U11),), ode, 2)
        assert tonti_lagrangian(sf).L == expr("1/2*u*u_{1,1}", ode)

        first = JetContext(n=1, m=1, order=1, base_names=("x",), fiber_names=("u",))
        rep = helmholtz_residuals(SourceForm((sym(U1),), first, 1))
        nonzero = [rec for rec in rep.records if not is_zero(rec.residual)]
        assert rep.verdict == "not_variational"
        assert len(nonzero) == 1
        rec = nonzero[0]
        assert (rec.level, rec.I, rec.residual) == (1, (1,), num(2))

        plane = JetContext(n=2, m=1, order=2)
        laplace = SourceForm((expr("u_{1,1} + u_{2,2}", plane),), plane, 2)
        assert tonti_lagrangian(laplace).L == expr(
            "1/2*u*u_{1,1} + 1/2*u*u_{2,2}", plane
        )
    except BaseException:
        ok = False
        raise
    finally:
        report(6, "textbook instances come out in closed form", ok)


def test_acceptance_7_naturality_under_fibered_isomorphisms():
    x, u = sym(X), sym(U)
    ode = JetContext(n=1, m=1, order=1, base_names=("x",), fiber_names=("u",))
    plane = JetContext(n=2, m=1, order=1)
    pair = JetContext(n=1, m=2, order=1, base_names=("x",), fiber_names=("u", "v"))
    x1, x2 = sym(BaseCoord(1)), sym(BaseCoord(2))
    v = sym(JetCoord(2))
    cases = [
        (
            Lagrangian(expr("1/2*u_{1}^2", ode), ode, 1),
            FiberedIso((mul(num(2), x),), (u,)),
        ),
        (
            Lagrangian(expr("1/2*u_{1}^2", ode), ode, 1),
            FiberedIso((x,), (add(u, pow_(u, 2)),)),
        ),
        (
            Lagrangian(expr("u_{1}^2 + u^3", ode), ode, 1),
            FiberedIso((add(x, num(1)),), (mul(num(2), u),)),
        ),
        (
            Lagrangian(expr("u_{1}*u_{2}", plane), plane, 1),
            FiberedIso((add(x1, x2), add(neg(x1), x2)), (u,)),
        ),
        (
            Lagrangian(expr("u_{1}*v_{1} + u*v", pair), pair, 1),
            FiberedIso((add(mul(num(3), x), num(-1)),), (v, u)),
        ),
    ]
    ok = True
    try:
        for lam, iso in cases:
            rep = naturality_report(lam, iso)
            assert rep == {"theorem3": True, "theorem4": True}
    except BaseException:
        ok = False
        raise
    finally:
        report(7, "Cartan and source forms commute with pullback", ok)


def test_acceptance_8_numeric_first_variation():
    ok = True
    try:
        start = time.perf_counter()
        ode = JetContext(n=1, m=1, order=1, base_names=("x",), fiber_names=("u",))
        probe = VariationProbe(
            SectionSpec((expr("x^2", ode),)),
            SectionSpec((expr("x^2*(1 - x)^2", ode),)),
        )
        lam = Lagrangian(expr("1/2*u_{1}^2 + u^3", ode), ode, 1)
        res = first_variation_check(lam, probe)
        assert abs(res.rhs - (-23.0 / 420.0)) <= 1e-12
        assert res.abs_diff / max(abs(res.lhs), 1e-12) <= 1e-6

        null = Lagrangian(expr("2*u*u_{1}", ode), ode, 1)
        res0 = first_variation_check(null, probe)
        assert res0.rhs == 0.0
        assert abs(res0.lhs) <= 1e-8
        assert time.perf_counter() - start <= 1.0
    except BaseException:
        ok = False
        raise
    finally:
        report(8, "first variation matches the source form numerically", ok)
