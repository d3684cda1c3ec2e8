"""Golden rendered output: exact strings and floats, not order-free.

`tests/golden/dense_render.json` pins the exact text of `render_expr` and
`render_form` for the four dense Lagrangians of the ROADMAP ladder (their
Euler-Lagrange components, the nonzero Helmholtz residuals of a rescaled
non-variational source form, the Cartan form and the Tonti Lagrangian), the
naturality booleans of a dense n=2 m=2 r=2 Lagrangian, and one first-variation
float payload.  Term and factor order and every float bit are part of the
contract, so a kernel change that reorders output fails here.

Regenerate only at a commit whose outputs are the reference:

    PYTHONPATH=src python tests/test_golden_render.py
"""

import json
from pathlib import Path

import pytest

from jetvar import (
    FiberedIso,
    JetContext,
    Lagrangian,
    QuadratureSpec,
    SectionSpec,
    SourceForm,
    VariationProbe,
    cartan_form,
    euler_lagrange,
    first_variation_check,
    helmholtz_residuals,
    naturality_report,
    parse_expr,
    render_expr,
    render_form,
    tonti_lagrangian,
)
from jetvar.coords import BaseCoord
from jetvar.expr import is_zero, mul, sym

GOLDEN = Path(__file__).parent / "golden" / "dense_render.json"

DENSE_CASES = {
    "n3m2r1": (
        (3, 2, 1, ("x1", "x2", "x3"), ("u1", "u2")),
        "(u1_{1}^2+u1_{2}^2+u1_{3}^2-u2_{1}^2-u2_{2}^2-u2_{3}^2)^3 + u1^2*u2^2",
    ),
    "n2m2r1": (
        (2, 2, 1, ("x", "y"), ("u", "v")),
        "(u_{1}^2+u_{2}^2+v_{1}^2+v_{2}^2)^3 + u*v*(u_{1}*v_{2}-u_{2}*v_{1})^2",
    ),
    "n2m1r2": (
        (2, 1, 2, ("x", "y"), ("u",)),
        "(u_{1,1}+u_{2,2})^2*(1+u_{1}^2+u_{2}^2)^2 + sin(x)*u^3",
    ),
    "n1m2r3": (
        (1, 2, 3, ("x",), ("u1", "u2")),
        "(u1_{1,1,1}*u2_{1}+u1_{1}*u2_{1,1,1})^2*(1+u1^2)^2",
    ),
}

NATURALITY = (
    "u_{1,1}*v_{2}^2 + u_{1}^2*v*v_{1,2} + x*u*v_{2,2}",
    ("2*x + y + 1", "x + y - 2"),
    ("u + 2*v^2", "2*v + x*y"),
)

FIRST_VARIATION = (
    "1/2*u_{1}^2 + sin(u)*u_{1}^3 + exp(x)*u^2*u_{1} - 1/3*u^4 + cos(x*u)*u_{1}",
    "x^2 + 1/3*x",
    "x^2*(1-x)^2",
)


def _context(shape) -> JetContext:
    n, m, r, base, fiber = shape
    return JetContext(n=n, m=m, order=r, base_names=base, fiber_names=fiber)


def dense_payload(name: str) -> dict:
    shape, source = DENSE_CASES[name]
    ctx = _context(shape)
    lam = Lagrangian(parse_expr(source, ctx).expr, ctx, shape[2])
    sf = euler_lagrange(lam)
    # x1 * eps_1 is not variational, so its residuals are dense and nonzero
    rescaled = SourceForm(
        (mul(sym(BaseCoord(1)), sf.eps[0]),) + sf.eps[1:], sf.ctx, sf.s
    )
    report = helmholtz_residuals(rescaled)
    residuals = [
        [rec.level, list(rec.I), rec.sigma, rec.nu, render_expr(rec.residual, ctx)]
        for rec in report.records
        if not is_zero(rec.residual)
    ]
    return {
        "el": [render_expr(e, ctx) for e in sf.eps],
        "verdict": report.verdict,
        "residuals": residuals,
        "cartan": render_form(cartan_form(lam), ctx),
        "tonti": render_expr(tonti_lagrangian(sf).L, ctx),
    }


def naturality_payload() -> dict:
    source, base_map, fiber_map = NATURALITY
    ctx = JetContext(n=2, m=2, order=2, base_names=("x", "y"), fiber_names=("u", "v"))
    lam = Lagrangian(parse_expr(source, ctx).expr, ctx, 2)
    iso = FiberedIso(
        tuple(parse_expr(e, ctx).expr for e in base_map),
        tuple(parse_expr(e, ctx).expr for e in fiber_map),
    )
    return naturality_report(lam, iso)


def first_variation_payload() -> dict:
    source, gamma, phi = FIRST_VARIATION
    ctx = JetContext(n=1, m=1, order=1, base_names=("x",), fiber_names=("u",))
    lam = Lagrangian(parse_expr(source, ctx).expr, ctx, 1)
    probe = VariationProbe(
        SectionSpec((parse_expr(gamma, ctx).expr,)),
        SectionSpec((parse_expr(phi, ctx).expr,)),
    )
    result = first_variation_check(lam, probe, QuadratureSpec())
    return {"lhs": result.lhs, "rhs": result.rhs, "abs_diff": result.abs_diff}


def golden_payload() -> dict:
    return {
        "dense": {name: dense_payload(name) for name in DENSE_CASES},
        "naturality": naturality_payload(),
        "first_variation": first_variation_payload(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(DENSE_CASES))
def test_dense_render_is_byte_identical(golden, name):
    want = golden["dense"][name]
    got = dense_payload(name)
    for key in want:
        assert got[key] == want[key], f"{name}: {key} differs from the golden text"


def test_naturality_booleans(golden):
    assert naturality_payload() == golden["naturality"]


def test_first_variation_floats_are_bit_identical(golden):
    assert first_variation_payload() == golden["first_variation"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    text = json.dumps(golden_payload(), indent=1, sort_keys=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
