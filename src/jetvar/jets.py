"""Total derivatives on jet coordinates and prolongation of sections."""

from __future__ import annotations

from collections import defaultdict

from .coords import BaseCoord, JetContext, JetCoord, MultiIndex, Value, multi_indices
from .errors import DimensionMismatch, UnknownCoordinate
from .expr import ZERO, Expr, coords_in, derive, gradient, is_zero, lift, partial


def total_derivative(e: Expr, i: int, ctx: JetContext) -> Expr:
    """Total derivative in the i-th base direction: differentiates x^i to 1,
    lifts every jet coordinate one level (y^s_J to y^s_{Ji}).

    Raises OrderOverflow when a lifted coordinate would exceed the context
    ceiling, max(12, 2 * ctx.order): no operator needs more, so the ceiling
    only stops runaway iterated derivatives.
    """
    if not 1 <= i <= ctx.n:
        raise UnknownCoordinate(f"no base direction {i} in a {ctx.n}-dimensional base")
    ceiling = ctx.ceiling
    return derive(e, lambda a: lift(a, i, ceiling)).get(None, ZERO)


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


def prolong_section(spec: SectionSpec, order: int, ctx: JetContext) -> dict:
    """Jet coordinates of the prolonged section as expressions in the base
    coordinates: y^s_J evaluates to the J-th partial of component s."""
    spec.validate(ctx)
    if order < 0:
        raise ValueError("prolongation order must be nonnegative")
    out: dict[JetCoord, Expr] = {}
    for sigma, comp in enumerate(spec.components, start=1):
        out[JetCoord(sigma)] = comp
        for k in range(1, order + 1):
            for J in multi_indices(ctx.n, k):
                parent = out[JetCoord(sigma, J[:-1])]
                out[JetCoord(sigma, J)] = partial(parent, BaseCoord(J[-1]))
    return out
