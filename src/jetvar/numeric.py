"""Numeric verification layer: quadrature and finite differences along
concrete sections.

Each comparison keeps the symbolic Euler-Lagrange machinery off one side,
so that an error in it shows up as a numeric mismatch instead of
cancelling.  So the s-derivative of the action is a difference of values
of L: the exact one, built from the partials that `gradient` also gives
`euler_lagrange`, equals the other side by integration by parts whatever
those partials are, and a wrong partial would cancel.  Each value is
taken at all nodes or points by one `evaluate` call, summed in node order."""

from __future__ import annotations

import functools
import math
import operator

from .coords import BaseCoord, JetContext, JetCoord, coord_key
from .dsl import render_expr
from .errors import DivisionByZero, NotODEContext, NumericOverflow, ProbeBoundaryError
from .expr import atom_id, coords_in, evaluate, max_jet_order
from .jets import SectionSpec, prolong_section
from .variational import euler_lagrange

BOUNDARY_TOL = 1e-12
# the most quadrature nodes a spec takes: building the rule costs O(nodes^2)
MAX_NODES = 1000
# the step h of the five-point difference of the action: its truncation
# error is O(h^4), and below about 1e-3 rounding in the action dominates
STEP = 1e-3


class QuadratureSpec:
    """Gauss-Legendre quadrature on [0, 1]."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: int = 32):
        if not 2 <= nodes <= MAX_NODES:
            raise ValueError(f"need 2 to {MAX_NODES} quadrature nodes, got {nodes}")
        self.nodes = nodes

    def points_weights(self):
        """Nodes in ascending order and weights of the Gauss-Legendre rule
        on [0, 1], as tuples shared by every spec with this node count."""
        return _gauss_legendre(self.nodes)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [0, 1] as (nodes, weights).  Each
    root z of P_n in [0, 1) is found by Newton's method from a cosine guess
    and mirrored to -z."""
    points = [0.0] * n
    weights = [0.0] * n
    for i in range((n + 1) // 2):
        z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, z)
            dz = p / dp
            z -= dz
            if abs(dz) <= 1e-15:
                break
        dp = _legendre(n, z)[1]
        points[i], points[n - 1 - i] = (1.0 - z) / 2.0, (1.0 + z) / 2.0
        weights[i] = weights[n - 1 - i] = 1.0 / ((1.0 - z * z) * dp * dp)
    return tuple(points), tuple(weights)


def _legendre(n: int, z: float) -> tuple:
    """P_n(z) and P_n'(z) by the three-term recurrence, for n >= 1 and
    |z| < 1."""
    p, p_prev = z, 1.0
    for k in range(2, n + 1):
        p, p_prev = ((2 * k - 1) * z * p - (k - 1) * p_prev) / k, p
    return p, n * (z * p - p_prev) / (z * z - 1.0)


class VariationProbe:
    """A base section and a variation direction; the direction and its
    derivatives below the highest jet order of the Lagrangian must vanish
    at both ends of [0, 1] so the boundary terms of integration by parts drop."""

    __slots__ = ("gamma", "phi")

    def __init__(self, gamma: SectionSpec, phi: SectionSpec):
        self.gamma, self.phi = gamma, phi


def _check_vanishing(jets: dict, r: int, ctx: JetContext) -> None:
    """Raise ProbeBoundaryError unless each jet y^s_{1^k}, k < r, of a
    prolonged variation vanishes at both endpoints: the boundary terms of a
    Lagrangian with jets up to order r involve those only, so r = 0 has none."""
    coords = [JetCoord(s, (1,) * k) for s in range(1, ctx.m + 1) for k in range(r)]
    env, values = {BaseCoord(1): (0.0, 1.0)}, {}
    columns = [evaluate(jets[coord], env, values) for coord in coords]
    for endpoint, *row in zip(env[BaseCoord(1)], *columns):
        for coord, value in zip(coords, row):
            if abs(value) > BOUNDARY_TOL:
                raise ProbeBoundaryError(
                    f"variation direction has {ctx.coord_name(coord)} = "
                    f"{value} at x = {endpoint}"
                )


def _naming_poles(entry):
    """entry, with the atom of a pole it meets named as render_expr names it
    in the context of entry's first argument, a Lagrangian or source form."""

    @functools.wraps(entry)
    def named(obj, *args, **kwargs):
        try:
            return entry(obj, *args, **kwargs)
        except DivisionByZero as exc:
            if exc.pole is None:
                raise
            atom, k = exc.pole
            raise DivisionByZero(
                f"{render_expr(atom, obj.ctx)} is 0 at this point, so its power {k} has a pole"
            ) from None

    return named


class FirstVariationResult:
    __slots__ = ("lhs", "rhs", "abs_diff")

    def __init__(self, lhs: float, rhs: float, abs_diff: float):
        self.lhs, self.rhs, self.abs_diff = lhs, rhs, abs_diff


def _jets_by_atom(jets: dict, *exprs) -> tuple:
    """The jets of a prolonged section that occur in exprs, as (atom id,
    Expr) pairs in coordinate order."""
    coords = {c for e in exprs for c in coords_in(e) if c.__class__ is JetCoord}
    return tuple((atom_id(c), jets[c]) for c in sorted(coords, key=coord_key))


def _point_values(jets: tuple, base_env: dict) -> dict:
    """The atom table of the base points of base_env: every jet of the
    section is evaluated into it, under the atom id of its coordinate, so
    later values at the points read the jets, and every atom met, from it."""
    values: dict = {}
    for a, e in jets:
        values[a] = evaluate(e, base_env, values)
    return values


def _quadrature(weights, values) -> float:
    """The sum of w * v over the nodes, added in node order to 0.0."""
    return functools.reduce(operator.add, map(operator.mul, weights, values), 0.0)


@_naming_poles
def action(lam, gamma: SectionSpec, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Quadrature of the Lagrangian density along the prolonged section
    over the base interval [0, 1]."""
    ctx = lam.ctx
    if ctx.n != 1:
        raise NotODEContext(f"the action oracle needs one base variable, got {ctx.n}")
    jets = _jets_by_atom(prolong_section(gamma, lam.r, ctx), lam.L)
    points, weights = quad.points_weights()
    env = {BaseCoord(1): points}
    return _quadrature(weights, evaluate(lam.L, env, _point_values(jets, env)))


@_naming_poles
def first_variation_check(
    lam, probe: VariationProbe, quad: QuadratureSpec = QuadratureSpec()
) -> FirstVariationResult:
    """Compare the derivative of s -> action(gamma + s phi) at s = 0 against
    the quadrature of sum_sigma eps_sigma(j^2r gamma) phi^sigma.

    The two sides agree in the continuum because the probe's boundary
    condition kills the boundary terms of integration by parts.  The
    derivative is the five-point difference
    (8 (S(h/2) - S(-h/2)) - (S(h) - S(-h))) / 6h, h = STEP.  Raises
    NumericOverflow unless both sides and their difference are finite."""
    ctx = lam.ctx
    if ctx.n != 1:
        raise NotODEContext(f"the variation oracle needs one base variable, got {ctx.n}")
    # each section is prolonged once, gamma first, to 2r, the order of the
    # source form; d/dx is linear, so the jets of gamma + s phi are the
    # jets of gamma plus s times those of phi, and are shifted as floats
    gamma_jets = prolong_section(probe.gamma, 2 * lam.r, ctx)
    phi_jets = prolong_section(probe.phi, lam.r, ctx)
    _check_vanishing(phi_jets, max_jet_order(lam.L), ctx)
    sf = euler_lagrange(lam)
    gamma_jets = _jets_by_atom(gamma_jets, lam.L, *sf.eps)
    phi_jets = _jets_by_atom(phi_jets, lam.L)
    points, weights = quad.points_weights()
    env = {BaseCoord(1): points}
    g = _point_values(gamma_jets, env)
    p = _point_values(phi_jets, env)
    # a fresh table per shift: only the jets move with s, and an atom
    # such as sin(u_{1}) cached at one shift is wrong at another
    shifts = (STEP / 2.0, -STEP / 2.0, STEP, -STEP)
    tables = ({a: [y + s * z for y, z in zip(g[a], p[a])] for a, _ in phi_jets} for s in shifts)
    half_up, half_down, up, down = (_quadrature(weights, evaluate(lam.L, env, t)) for t in tables)
    density = [0.0] * len(points)
    for eps, phi in zip(sf.eps, probe.phi.components):
        pairs = zip(density, evaluate(eps, env, g), evaluate(phi, env, g))
        density = [v + e * f for v, e, f in pairs]
    rhs = _quadrature(weights, density)
    lhs = (8.0 * (half_up - half_down) - (up - down)) / (6.0 * STEP)
    abs_diff = abs(lhs - rhs)
    if not math.isfinite(abs_diff):
        raise NumericOverflow("the first variation overflows floating point")
    return FirstVariationResult(lhs, rhs, abs_diff)


@_naming_poles
def residual_on_section(sf, gamma: SectionSpec, points) -> list:
    """Source form components evaluated along the prolonged section at the
    given base points (numbers for n = 1, index-ordered tuples otherwise)."""
    ctx = sf.ctx
    jets = _jets_by_atom(prolong_section(gamma, sf.s, ctx), *sf.eps)
    rows = [(p,) if ctx.n == 1 and not isinstance(p, (tuple, list)) else p for p in points]
    for p in rows:
        if len(p) != ctx.n:
            raise ValueError(f"base point {p!r} has wrong dimension")
    base_env = {BaseCoord(i): [float(p[i - 1]) for p in rows] for i in range(1, ctx.n + 1)}
    values = _point_values(jets, base_env)
    return [list(row) for row in zip(*[evaluate(e, base_env, values) for e in sf.eps])]
