"""Total derivatives on jet coordinates and prolongation on demand."""

from __future__ import annotations

from collections import defaultdict

from .coords import BaseCoord, JetContext, JetCoord, MultiIndex, Value
from .errors import DimensionMismatch, OrderOverflow, UnknownCoordinate
from .expr import ZERO, Expr, _collect, coords_in, derive, gradient, is_zero, lift


def total_derivative(e: Expr, i: int, ctx: JetContext, into: dict = None, scale=1):
    """Total derivative in the i-th base direction: differentiates x^i to 1,
    lifts every jet coordinate one level (y^s_J to y^s_{Ji}).  With `into`,
    the term dict of `add_total_derivatives`, adds scale * d_i e into it,
    building no Expr, and returns the exponent bound of what it added.

    Raises OrderOverflow when a lifted coordinate would exceed the context
    ceiling, max(12, 2 * ctx.order): no operator needs more, so the ceiling
    only stops runaway iterated derivatives.  `into` is then left half
    filled and should be dropped with the exception.
    """
    if not 1 <= i <= ctx.n:
        raise UnknownCoordinate(f"no base direction {i} in a {ctx.n}-dimensional base")
    ceiling = ctx.ceiling
    if into is not None:
        return derive(e, lambda a: lift(a, i, ceiling), {None: into}, scale)
    return derive(e, lambda a: lift(a, i, ceiling), None, scale).get(None, ZERO)


def add_total_derivatives(head: Expr, parts, ctx: JetContext) -> Expr:
    """head + sum of scale * d_i e over the (e, i, scale) triples of parts:
    every derivative is added into one term dict, collected once; with no
    parts, head itself.  Errors propagate as from total_derivative."""
    acc, bound = None, head._bound
    for e, i, scale in parts:
        acc = dict(head.terms) if acc is None else acc
        bound = max(bound, total_derivative(e, i, ctx, into=acc, scale=scale))
    return head if acc is None else _collect(acc, bound)


def jet_partials(e: Expr) -> defaultdict:
    """The nonzero partials of e by jet coordinate, from one gradient walk
    and grouped by order: levels[k][sigma, K] = partial(e, y^sigma_K)."""
    levels = defaultdict(dict)
    for c, d in gradient(e).items():
        if c.__class__ is JetCoord:
            levels[len(c.J)][c.sigma, c.J] = d
    return levels


def iterated_total_derivative(e: Expr, J: MultiIndex, ctx: JetContext) -> Expr:
    """d_J applied entrywise; total derivatives commute so the order of the
    entries of J does not matter."""
    out = e
    for i in J:
        if is_zero(out):
            return ZERO
        out = total_derivative(out, i, ctx)
    return out


class SectionSpec(Value):
    """A section of the fibration given by one expression per fiber
    component, each depending on base coordinates only."""

    __slots__ = ("components",)

    def __init__(self, components: tuple):
        self.components = tuple(components)

    def validate(self, ctx: JetContext) -> None:
        if len(self.components) != ctx.m:
            raise DimensionMismatch(
                f"section has {len(self.components)} components, context expects {ctx.m}"
            )
        for comp in self.components:
            for c in coords_in(comp):
                if not isinstance(c, BaseCoord) or not 1 <= c.i <= ctx.n:
                    raise UnknownCoordinate(
                        f"section component may only use base coordinates, found {c}"
                    )


class Prolongation(dict):
    """The jets of a prolonged map, seeded with the order-0 values.  Any
    other y^s_J with |J| <= order is built on its first request, also
    through `get` (which `substitute` calls), from its parent y^s_{J[:-1]}
    by the chain rule y^s_{Jl} = sum_k b[k][l] d_k(y^s_J), b the inverse
    base Jacobian, and then kept; one above the order raises OrderOverflow.
    Iterating yields only the jets built so far."""

    def __init__(self, seeds: dict, order: int, b: list, ctx: JetContext):
        if order < 0:
            raise ValueError("prolongation order must be nonnegative")
        super().__init__(seeds)
        self.order, self.b = order, b
        self.ctx = ctx if ctx.order >= order else ctx.with_order(order)

    def __missing__(self, c):
        if c.__class__ is not JetCoord:
            raise KeyError(c)
        if len(c.J) > self.order:
            raise OrderOverflow(f"{self.ctx.coord_name(c)} is above order {self.order}")
        self.ctx.check_coord(c)
        chain = []  # parents first and without recursion: chains grow long
        while c not in self:
            chain.append(c)
            c = JetCoord(c.sigma, c.J[:-1])
        value = self[c]
        for c in reversed(chain):
            l = c.J[-1]
            parts = [(value, k, row[l - 1]) for k, row in enumerate(self.b, 1) if row[l - 1]]
            value = self[c] = add_total_derivatives(ZERO, parts, self.ctx)
        return value

    def get(self, c, default=None):
        return self[c] if c in self or c.__class__ is JetCoord else default


def prolong_section(spec: SectionSpec, order: int, ctx: JetContext) -> Prolongation:
    """The jets of the prolonged section up to the given order, built on
    request as expressions in the base coordinates: y^s_J is the J-th
    partial of component s, the chain rule with b the identity."""
    spec.validate(ctx)
    seeds = {JetCoord(s): e for s, e in enumerate(spec.components, start=1)}
    identity = [[int(k == l) for l in range(ctx.n)] for k in range(ctx.n)]
    return Prolongation(seeds, order, identity, ctx)
