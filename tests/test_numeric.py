"""Numeric cross-checks: quadrature, action values, first variation, and
on-section residuals."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import jetvar
from jetvar import (
    DimensionMismatch,
    DivisionByZero,
    JetContext,
    Lagrangian,
    NotODEContext,
    NumericOverflow,
    ProbeBoundaryError,
    QuadratureSpec,
    SectionSpec,
    SourceForm,
    UnknownCoordinate,
    VariationProbe,
    euler_lagrange,
    first_variation_check,
    residual_on_section,
)
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import add, atom_id, evaluate, func, gradient, mul, num, ordered_terms, pow_, sym
from jetvar.jets import prolong_section
from jetvar.numeric import action

from corpus import coordinate_atoms, evaluate_at, random_env, random_laurent, random_polynomial

X = BaseCoord(1)
U = JetCoord(1)
U1 = JetCoord(1, (1,))
U11 = JetCoord(1, (1, 1))


def poly_x(*coeffs):
    """Polynomial in x with the given coefficients, constant term first."""
    x = sym(X)
    return add(*[mul(num(c), pow_(x, k)) for k, c in enumerate(coeffs)])


def test_quadrature_is_exact_on_polynomials():
    quad = QuadratureSpec()
    points, weights = quad.points_weights()
    assert len(points) == 32
    for k in range(0, 21):
        integral = sum(w * t**k for t, w in zip(points, weights))
        assert integral == pytest.approx(1.0 / (k + 1), abs=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32, 64])
def test_quadrature_matches_numpy_leggauss(n):
    np = pytest.importorskip("numpy")
    x, w = np.polynomial.legendre.leggauss(n)
    points, weights = QuadratureSpec(nodes=n).points_weights()
    assert len(points) == len(weights) == n
    for got, want in zip(points, (x + 1.0) / 2.0):
        assert abs(got - want) <= 1e-14
    for got, want in zip(weights, w / 2.0):
        assert abs(got - want) <= 1e-14


def test_cli_import_leaves_numpy_out():
    code = "import sys, jetvar.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(jetvar.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_action_known_values(ode1):
    gamma = SectionSpec((sym(X),))
    lam = Lagrangian(pow_(sym(U1), 2), ode1, 1)
    assert action(lam, gamma) == pytest.approx(1.0, abs=1e-12)
    lam2 = Lagrangian(pow_(sym(X), 2), ode1.with_order(0), 0)
    assert action(lam2, gamma) == pytest.approx(1.0 / 3.0, abs=1e-12)
    parabola = SectionSpec((pow_(sym(X), 2),))
    lam3 = Lagrangian(pow_(sym(U), 2), ode1.with_order(0), 0)
    assert action(lam3, parabola) == pytest.approx(1.0 / 5.0, abs=1e-12)


def test_action_requires_one_base_variable(plane1):
    lam = Lagrangian(sym(U), plane1, 1)
    with pytest.raises(NotODEContext):
        action(lam, SectionSpec((sym(X),)))


def test_variation_probe_boundary_guard(ode1, ode2):
    gamma = SectionSpec((pow_(sym(X), 2),))
    # x does not vanish at the right endpoint
    bad = VariationProbe(gamma, SectionSpec((sym(X),)))
    lam = Lagrangian(pow_(sym(U1), 2), ode1, 1)
    with pytest.raises(ProbeBoundaryError):
        first_variation_check(lam, bad)
    # x(1-x) vanishes at both ends but its derivative does not, which a
    # second-order Lagrangian needs
    tent = SectionSpec((mul(sym(X), add(num(1), mul(num(-1), sym(X)))),))
    lam2 = Lagrangian(pow_(sym(U11), 2), ode2, 2)
    with pytest.raises(ProbeBoundaryError):
        first_variation_check(lam2, VariationProbe(gamma, tent))
    # first order only needs the values to vanish
    first_variation_check(lam, VariationProbe(gamma, tent))
    # each section is validated once, when it is prolonged, the base
    # section first: when both are malformed the base section is reported
    both_bad = VariationProbe(SectionSpec((sym(U),)), SectionSpec((sym(X), sym(X))))
    with pytest.raises(UnknownCoordinate):
        first_variation_check(lam, both_bad)
    with pytest.raises(DimensionMismatch):
        first_variation_check(lam, VariationProbe(gamma, both_bad.phi))


@pytest.mark.parametrize(
    "phi, r, outcome",
    [
        # an order-0 Lagrangian leaves no boundary terms: L = u^2 on gamma = x
        # with phi = 1 gives int 2x = 1 on both sides
        ((1,), 0, 1.0),
        ((0, 1), 1, "variation direction has u = 1.0 at x = 1.0"),
        ((0, 1, -1), 1, 0.0),
        ((0, 1, -1), 2, "variation direction has u_{1} = 1.0 at x = 0.0"),
        ((0, 0, 1, -1), 2, "variation direction has u_{1} = -1.0 at x = 1.0"),
        ((0, 0, 1, -2, 1), 3, "variation direction has u_{1,1} = 2.0 at x = 0.0"),
    ],
    ids=["r0-free", "r1-value", "r1-vanishes", "r2-slope", "r2-right-slope", "r3-curvature"],
)
def test_boundary_check_names_the_first_nonvanishing_jet(phi, r, outcome):
    ctx = JetContext(n=1, m=1, order=r)
    lam = Lagrangian(pow_(sym(JetCoord(1, (1,) * r)), 2), ctx, r)
    probe = VariationProbe(SectionSpec((sym(X),)), SectionSpec((poly_x(*phi),)))
    # the endpoint loop runs outside the jets, and the jets run by order
    if isinstance(outcome, str):
        with pytest.raises(ProbeBoundaryError) as info:
            first_variation_check(lam, probe)
        assert str(info.value) == outcome
    else:
        result = first_variation_check(lam, probe)
        assert result.lhs == pytest.approx(outcome, abs=1e-8)
        assert result.rhs == pytest.approx(outcome, abs=1e-12)


def test_the_boundary_check_reads_both_endpoints_before_it_judges_either(ode1):
    # the endpoints are one column, so an overflow at x = 1 is raised ahead
    # of the jet u = 1.0 that does not vanish at x = 0
    lam = Lagrangian(pow_(sym(U1), 2), ode1, 1)
    phi = SectionSpec((func("exp", mul(num(1000), sym(X))),))
    with pytest.raises(NumericOverflow):
        first_variation_check(lam, VariationProbe(SectionSpec((sym(X),)), phi))


def test_first_variation_simple_potential(ode1):
    # L = u^3 on gamma = x: dS = int 3x^2 phi = 3/20 for phi = x(1-x)
    gamma = SectionSpec((sym(X),))
    phi = SectionSpec((mul(sym(X), add(num(1), mul(num(-1), sym(X)))),))
    lam = Lagrangian(pow_(sym(U), 3), ode1, 1)
    result = first_variation_check(lam, VariationProbe(gamma, phi))
    assert result.rhs == pytest.approx(3.0 / 20.0, abs=1e-12)
    assert result.abs_diff <= 1e-8


def test_first_variation_richardson_extrapolation(ode1):
    # a quartic Lagrangian, whose central difference has a large truncation
    # error: the five-point difference, the Richardson extrapolation of the
    # central differences at h and h/2, is near the exact derivative
    gamma = SectionSpec((pow_(sym(X), 2),))
    phi = SectionSpec(
        (mul(pow_(sym(X), 2), pow_(add(num(1), mul(num(-1), sym(X))), 2)),)
    )
    lam = Lagrangian(pow_(sym(U1), 4), ode1, 1)
    probe = VariationProbe(gamma, phi)
    result = first_variation_check(lam, probe)
    assert result.rhs == pytest.approx(-32.0 / 35.0, abs=1e-10)
    assert result.abs_diff <= 1e-9
    assert_near_exact(lam, probe, QuadratureSpec())


def test_first_variation_second_order(ode2):
    # L = u_11^2 on gamma = x^4 with phi = x^2(1-x)^2: both sides are
    # 2 int gamma'' phi'' = 2 int 24 phi = 48/30
    gamma = SectionSpec((pow_(sym(X), 4),))
    phi = SectionSpec(
        (mul(pow_(sym(X), 2), pow_(add(num(1), mul(num(-1), sym(X))), 2)),)
    )
    lam = Lagrangian(pow_(sym(U11), 2), ode2, 2)
    result = first_variation_check(lam, VariationProbe(gamma, phi))
    assert result.lhs == pytest.approx(1.6, abs=1e-7)
    assert result.rhs == pytest.approx(1.6, abs=1e-10)


def test_residual_on_section_values(ode2, plane2):
    gamma = SectionSpec((pow_(sym(X), 2),))
    sf = SourceForm((sym(U11),), ode2, 2)
    rows = residual_on_section(sf, gamma, [0.1, 0.5, 0.9])
    assert [row[0] for row in rows] == pytest.approx([2.0, 2.0, 2.0])
    matched = SourceForm((add(sym(U), mul(num(-1), pow_(sym(X), 2))),), ode2, 2)
    rows = residual_on_section(matched, gamma, [0.25, 0.75])
    assert [row[0] for row in rows] == pytest.approx([0.0, 0.0], abs=1e-14)
    # two base variables take point tuples
    x1, x2 = sym(BaseCoord(1)), sym(BaseCoord(2))
    dome = SectionSpec((add(pow_(x1, 2), pow_(x2, 2)),))
    laplace = SourceForm(
        (add(sym(JetCoord(1, (1, 1))), sym(JetCoord(1, (2, 2)))),), plane2, 2
    )
    rows = residual_on_section(laplace, dome, [(0.2, 0.3), (0.5, 0.5)])
    assert [row[0] for row in rows] == pytest.approx([4.0, 4.0])


def test_residuals_read_the_section_at_every_point_first(ode1):
    # the section u = 1/x has a pole at x = 0, the second point; at the
    # first, u = 2 and exp(1000 u) overflows, but the section's jets are
    # taken at every point before any component is
    sf = SourceForm((func("exp", mul(num(1000), sym(U))),), ode1, 0)
    gamma = SectionSpec((pow_(sym(X), -1),))
    with pytest.raises(NumericOverflow):
        residual_on_section(sf, gamma, [0.5])
    with pytest.raises(DivisionByZero):
        residual_on_section(sf, gamma, [0.5, 0.0])


def test_eval_expr_at_transcendental():
    e = mul(func("exp", sym(X)), sym(U))
    value = evaluate_at(e, {X: 1.0, U: 2.0})
    assert value == pytest.approx(2.0 * math.e)


# --- bit-identity of the float plans ---------------------------------------------


def reference_evaluate(e, env):
    """Term-by-term evaluation in canonical order with nothing cached: each
    rational is converted at its term and every atom is evaluated afresh
    wherever it occurs."""

    def atom_value(atom):
        if isinstance(atom, tuple):
            name, arg = atom
            return {"sin": math.sin, "cos": math.cos, "exp": math.exp}[name](
                reference_evaluate(arg, env)
            )
        return float(env[atom])

    def term(coeff, factors):
        product = 1.0 if coeff == 1 and factors else float(coeff)
        for atom, k in factors:
            v = atom_value(atom)
            product *= v if k == 1 else v**k
        return product

    rows = ordered_terms(e)
    if len(rows) == 1:
        return term(*rows[0])
    total = 0.0
    for row in rows:
        total += term(*row)
    return total


def same_float(a, b):
    return a == b and a.hex() == b.hex()


def same_floats(column, reference):
    return len(column) == len(reference) and all(map(same_float, column, reference))


LAURENT_CTX = JetContext(n=2, m=2, order=2)


@pytest.mark.parametrize("seed", range(20))
def test_evaluate_matches_term_by_term_reference(seed):
    rng = random.Random(6000 + seed)
    e = mul(random_laurent(rng, LAURENT_CTX), random_laurent(rng, LAURENT_CTX, terms=2))
    coords = coordinate_atoms(LAURENT_CTX, LAURENT_CTX.order)
    # columns of 1, 2 and 32 points, so that later ones run on the plan the
    # first one cached, and a shared table on the last
    for n in (1, 2, 32):
        points = [random_env(rng, coords) for _ in range(n)]
        env = {c: [p[c] for p in points] for c in coords}
        assert same_floats(evaluate(e, env), [reference_evaluate(e, p) for p in points])
    table: dict = {}
    for part in (e, mul(e, e), add(e, num(Fraction(1, 3)))):
        reference = [reference_evaluate(part, p) for p in points]
        assert same_floats(evaluate(part, env, table), reference)
    # a single term keeps the sign of a zero value
    single = mul(num(-2), sym(U))
    reference = [reference_evaluate(single, {U: x}) for x in (0.0, 1.5)]
    assert same_floats(evaluate(single, {U: [0.0, 1.5]}), reference)
    # with no coordinate bound, a constant is taken at one point
    third = num(Fraction(-1, 3))
    assert same_floats(evaluate(third, {}), [reference_evaluate(third, {})])


def section_jets(ctx, order):
    """Every jet coordinate y^sigma_{1^k}, k <= order, of an ODE context:
    the reference evaluates them all, whichever the density uses."""
    return [JetCoord(s, (1,) * k) for s in range(1, ctx.m + 1) for k in range(order + 1)]


def reference_first_variation(lam, probe, quad):
    """The first-variation check with each section prolonged on its own, to
    the order each side needs, every value evaluated term by term, and the
    jets of gamma + s phi shifted as floats."""
    ctx, h = lam.ctx, 1e-3
    gamma = prolong_section(probe.gamma, lam.r, ctx)
    phi = prolong_section(probe.phi, lam.r, ctx)
    shifts = (h / 2.0, -h / 2.0, h, -h)
    actions = [0.0] * len(shifts)
    points, weights = quad.points_weights()
    coords = section_jets(ctx, lam.r)
    for x, w in zip(points, weights):
        base = {X: x}
        g = {c: reference_evaluate(gamma[c], base) for c in coords}
        p = {c: reference_evaluate(phi[c], base) for c in coords}
        for i, s in enumerate(shifts):
            env = dict(base)
            for c in coords:
                env[c] = g[c] + s * p[c]
            actions[i] += w * reference_evaluate(lam.L, env)
    lhs = (8.0 * (actions[0] - actions[1]) - (actions[2] - actions[3])) / (6.0 * h)
    sf = euler_lagrange(lam)
    jets = prolong_section(probe.gamma, sf.s, ctx)
    rhs = 0.0
    for x, w in zip(points, weights):
        base = {X: x}
        env = dict(base)
        for coord in section_jets(ctx, sf.s):
            env[coord] = reference_evaluate(jets[coord], base)
        value = 0.0
        for eps, phi in zip(sf.eps, probe.phi.components):
            value += reference_evaluate(eps, env) * reference_evaluate(phi, base)
        rhs += w * value
    return lhs, rhs, abs(lhs - rhs)


def exact_first_variation(lam, probe, quad):
    """The s-derivative of the action in closed form: the quadrature of
    sum_sigma,J dL/dy^sigma_J(j gamma) phi^sigma_J, with the partials from
    `gradient`."""
    ctx = lam.ctx
    gamma = prolong_section(probe.gamma, lam.r, ctx)
    phi = prolong_section(probe.phi, lam.r, ctx)
    partials = [(c, d) for c, d in gradient(lam.L).items() if c.__class__ is JetCoord]
    points, weights = quad.points_weights()
    total = 0.0
    for x, w in zip(points, weights):
        base = {X: x}
        env = dict(base)
        for coord in section_jets(ctx, lam.r):
            env[coord] = evaluate_at(gamma[coord], base)
        total += w * sum(evaluate_at(d, env) * evaluate_at(phi[c], base) for c, d in partials)
    return total


def assert_near_exact(lam, probe, quad):
    result = first_variation_check(lam, probe, quad)
    exact = exact_first_variation(lam, probe, quad)
    assert abs(result.lhs - exact) <= 1e-8 * max(1.0, abs(exact))


def random_variation_case(rng, r, m):
    ctx = JetContext(n=1, m=m, order=r)
    L = random_polynomial(rng, ctx, degree=3, terms=3)
    L = add(L, pow_(sym(JetCoord(1, (1,) * r)), 2))
    if rng.random() < 0.5:
        wrap = rng.choice(("sin", "cos", "exp"))
        L = add(
            L, mul(num(rng.randint(1, 3)), func(wrap, sym(rng.choice(coordinate_atoms(ctx, r)))))
        )
    x = sym(X)
    bump = mul(pow_(x, r), pow_(add(num(1), mul(num(-1), x)), r))
    gamma = tuple(
        add(*[mul(num(Fraction(rng.randint(-3, 3), rng.randint(1, 3))), pow_(x, k)) for k in range(4)])
        for _ in range(m)
    )
    phi = tuple(mul(bump, add(num(rng.randint(1, 3)), mul(num(rng.randint(-2, 2)), x))) for _ in range(m))
    return Lagrangian(L, ctx, r), VariationProbe(SectionSpec(gamma), SectionSpec(phi))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("seed", range(2))
def test_first_variation_matches_separate_prolongations(r, m, seed):
    rng = random.Random(7000 + 100 * r + 10 * m + seed)
    lam, probe = random_variation_case(rng, r, m)
    quad = QuadratureSpec(nodes=12)
    result = first_variation_check(lam, probe, quad)
    lhs, rhs, abs_diff = reference_first_variation(lam, probe, quad)
    assert same_float(result.lhs, lhs)
    assert same_float(result.rhs, rhs)
    assert same_float(result.abs_diff, abs_diff)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("nodes", [12, 32])
def test_first_variation_is_near_the_exact_derivative(r, m, nodes):
    # a central difference at step 1e-4 errs by up to 1.2e-6 on these draws
    for seed in range(20):
        rng = random.Random(7000 + 100 * r + 10 * m + seed)
        assert_near_exact(*random_variation_case(rng, r, m), QuadratureSpec(nodes=nodes))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_prolongation_is_linear_in_the_section(r, m):
    # the jets of gamma + s phi are those of gamma plus s times those of
    # phi, exactly, so the check shifts the jets as floats
    for seed in range(4):
        rng = random.Random(9000 + 100 * r + 10 * m + seed)
        _, probe = random_variation_case(rng, r, m)
        wrap = func(rng.choice(("sin", "cos", "exp")), mul(num(rng.randint(1, 3)), sym(X)))
        gamma = (add(probe.gamma.components[0], wrap),) + probe.gamma.components[1:]
        s = num(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        ctx = JetContext(n=1, m=m, order=r)
        shifted = SectionSpec(tuple(add(g, mul(s, p)) for g, p in zip(gamma, probe.phi.components)))
        jets = prolong_section(shifted, 2 * r, ctx)
        g_jets = prolong_section(SectionSpec(gamma), 2 * r, ctx)
        p_jets = prolong_section(probe.phi, 2 * r, ctx)
        for c in section_jets(ctx, 2 * r):
            assert jets[c] == add(g_jets[c], mul(s, p_jets[c]))


def test_first_variation_prolongs_each_section_once(ode2, monkeypatch):
    calls = []
    real = jetvar.numeric.prolong_section

    def counting(spec, order, ctx):
        calls.append(order)
        return real(spec, order, ctx)

    monkeypatch.setattr(jetvar.numeric, "prolong_section", counting)
    lam, probe = random_variation_case(random.Random(1), 2, 1)
    first_variation_check(lam, probe)
    # the variation, whose jets also serve the boundary check, and the base
    # section
    assert sorted(calls) == [2, 4]


def test_columns_of_different_lengths_are_refused():
    e = add(mul(sym(U), sym(U1)), num(1))
    with pytest.raises(ValueError, match="different lengths"):
        evaluate(e, {U: [1.0, 2.0], U1: [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="different lengths"):
        evaluate(e, {U1: [1.0, 2.0, 3.0]}, {atom_id(U): [1.0, 2.0]})
    # with no coordinate bound, N is the length of the table's columns
    table = {atom_id(U): [1.0, 2.0, 3.0], atom_id(U1): [0.5, 0.5, 0.5]}
    assert evaluate(e, {}, table) == [1.5, 2.0, 2.5]
    with pytest.raises(ValueError, match="different lengths"):
        evaluate(e, {}, {atom_id(U): [1.0, 2.0, 3.0], atom_id(U1): [0.5]})


def test_numeric_work_does_not_grow_with_the_points(monkeypatch):
    # each value is taken at all its points in one call, so the number of
    # calls is the same at any number of nodes or base points
    calls = []
    real = jetvar.numeric.evaluate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jetvar.numeric, "evaluate", counting)
    lam, probe = random_variation_case(random.Random(1), 2, 2)
    sf = euler_lagrange(lam)
    counts = []
    for nodes, points in ((8, 2), (64, 20)):
        first_variation_check(lam, probe, QuadratureSpec(nodes=nodes))
        checked = len(calls)
        residual_on_section(sf, probe.gamma, [k / points for k in range(points)])
        counts.append((checked, len(calls) - checked))
        calls.clear()
    assert counts[0] == counts[1]


def test_cached_plan_keeps_pole_and_overflow_checks():
    u, u1 = sym(U), sym(U1)
    pole = add(pow_(u, -1), u1)
    assert evaluate_at(pole, {U: 2.0, U1: 1.0}) == 1.5
    with pytest.raises(DivisionByZero):
        evaluate_at(pole, {U: 0.0, U1: 1.0})
    growth = mul(func("exp", u), u1)
    assert evaluate_at(growth, {U: 1.0, U1: 1.0}) == math.e
    with pytest.raises(NumericOverflow):
        evaluate_at(growth, {U: 1000.0, U1: 1.0})
    product = mul(pow_(u, 200), pow_(u1, 200))
    assert evaluate_at(product, {U: 1.0, U1: 1.0}) == 1.0
    with pytest.raises(NumericOverflow):
        evaluate_at(product, {U: 100.0, U1: 100.0})
    # an argument that is not finite, reached through a shared table
    wave = func("sin", product)
    table: dict = {}
    assert evaluate_at(wave, {U: 1.0, U1: 1.0}, table) == math.sin(1.0)
    with pytest.raises(NumericOverflow):
        evaluate_at(wave, {U: 100.0, U1: 100.0}, {})


@pytest.mark.parametrize("case", ["pole", "exp", "power", "product", "argument"])
@pytest.mark.parametrize("where", [0, 1, 31])
def test_a_failing_point_fails_its_column_as_it_fails_alone(case, where):
    u, u1 = sym(U), sym(U1)
    e, bad = {
        "pole": (add(pow_(u, -1), u1), {U: 0.0, U1: 1.0}),
        "exp": (mul(func("exp", u), u1), {U: 1000.0, U1: 1.0}),
        "power": (mul(pow_(u, 200), pow_(u1, 200)), {U: 100.0, U1: 100.0}),
        # a product that overflows to inf, alone and as a sin argument
        "product": (mul(u, u1), {U: 1e200, U1: 1e200}),
        "argument": (func("sin", mul(u, u1)), {U: 1e200, U1: 1e200}),
    }[case]
    with pytest.raises((DivisionByZero, NumericOverflow)) as alone:
        evaluate_at(e, bad)
    points = [{U: 1.0 + k / 64, U1: 0.5} for k in range(32)]
    points[where] = bad
    with pytest.raises(alone.type) as column:
        evaluate(e, {c: [p[c] for p in points] for c in (U, U1)})
    assert str(column.value) == str(alone.value)
    assert getattr(column.value, "pole", None) == getattr(alone.value, "pole", None)
