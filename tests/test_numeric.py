"""Numeric cross-checks: quadrature, action values, first variation, and
on-section residuals."""

import math
import os
import subprocess
import sys

import pytest

import jetvar
from jetvar import (
    BaseCoord,
    JetContext,
    JetCoord,
    Lagrangian,
    NotODEContext,
    ProbeBoundaryError,
    QuadratureSpec,
    SectionSpec,
    SourceForm,
    VariationProbe,
    action,
    add,
    evaluate,
    exp,
    first_variation_check,
    mul,
    num,
    pow_,
    residual_on_section,
    sym,
)

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


def test_first_variation_simple_potential(ode1):
    # L = u^3 on gamma = x: dS = int 3x^2 phi = 3/20 for phi = x(1-x)
    gamma = SectionSpec((sym(X),))
    phi = SectionSpec((mul(sym(X), add(num(1), mul(num(-1), sym(X)))),))
    lam = Lagrangian(pow_(sym(U), 3), ode1, 1)
    result = first_variation_check(lam, VariationProbe(gamma, phi))
    assert result.rhs == pytest.approx(3.0 / 20.0, abs=1e-12)
    assert result.abs_diff <= 1e-8


def test_first_variation_richardson_extrapolation(ode1):
    # quartic Lagrangian with a coarse step: the plain central difference
    # errs at the 1e-5 scale, so a small final difference shows the
    # extrapolated value is used
    gamma = SectionSpec((pow_(sym(X), 2),))
    phi = SectionSpec(
        (mul(pow_(sym(X), 2), pow_(add(num(1), mul(num(-1), sym(X))), 2)),)
    )
    lam = Lagrangian(pow_(sym(U1), 4), ode1, 1)
    quad = QuadratureSpec(nodes=32, step=1e-2)
    result = first_variation_check(lam, VariationProbe(gamma, phi), quad)
    assert result.rhs == pytest.approx(-32.0 / 35.0, abs=1e-10)
    assert result.abs_diff <= 1e-9


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


def test_eval_expr_at_transcendental():
    e = mul(exp(sym(X)), sym(U))
    value = evaluate(e, {X: 1.0, U: 2.0})
    assert value == pytest.approx(2.0 * math.e)
