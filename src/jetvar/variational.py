"""Euler-Lagrange operator, variationality tests, and Lagrangian
reconstruction.

The central objects are Lagrangians L omega_0 of declared order r and
source forms eps_sigma dy^sigma ^ omega_0 of declared order s.  The
Euler-Lagrange mapping sends the former to the latter; the generalized
and classical Helmholtz residuals decide (local) variationality of the
latter; the fiber-scaling reconstruction inverts the mapping on its
image; null Lagrangians form its kernel.

Sums over the ordered index tuples of the defining formulas are realized
over sorted multi-indices: tuple derivatives carry the normalization
1/mult(J), and each sorted completion enters with its multiplicity (the
number of ordered tuples representing it).
"""

from __future__ import annotations

import contextlib
import functools
import random
from fractions import Fraction
from math import comb

from .coords import (
    JetContext,
    JetCoord,
    Value,
    coord_key,
    index_with,
    multi_indices,
    multiplicity,
)
from .errors import DegreeMismatch, DimensionMismatch, DivisionByZero
from .errors import NotODEContext, NumericOverflow
from .expr import (
    Expr,
    ZERO,
    add,
    as_expr,
    coords_in,
    evaluate,
    has_functions,
    integrate_param,
    is_zero,
    mul,
    neg,
    num,
    partial,
    sym,
)
from .forms import (
    DX,
    DY,
    DiffForm,
    cartan_form,
    exterior_derivative,
    FiberedIso,
    form_add,
    form_from_terms,
    horizontalize,
    omega_0,
    prolong_isomorphism,
    pullback,
    scale,
    _pullback_prolonged,
)
from .jets import jet_partials, total_derivative

PROBE_POINTS = 20
PROBE_THRESHOLD = 1e-8
VERDICTS = {True: "variational", False: "not_variational", None: "undecided"}


def _declared(exprs, ctx: JetContext, order) -> tuple:
    """Check the coordinates of exprs against ctx and the declared order
    against the occurring one, which it defaults to; returns ctx, copied
    when it declares another order, and the order."""
    actual = 0
    for e in exprs:
        for c in coords_in(e):
            ctx.check_coord(c)
            if c.__class__ is JetCoord and len(c.J) > actual:
                actual = len(c.J)
    if order is None:
        order = actual
    if order < actual:
        raise ValueError(f"declared order {order} below occurring order {actual}")
    return (ctx if ctx.order == order else ctx.with_order(order)), order


class Lagrangian(Value):
    """A horizontal n-form L omega_0 of declared order r (at least the
    maximal jet order occurring in L)."""

    __slots__ = ("L", "ctx", "r")

    def __init__(self, L: Expr, ctx: JetContext, r: int = None):
        self.L = as_expr(L)
        self.ctx, self.r = _declared((self.L,), ctx, r)

    def as_form(self) -> DiffForm:
        pairs = [(gens, self.L) for gens in omega_0(self.ctx).terms]
        return form_from_terms(self.ctx, self.r, self.ctx.n, pairs)


class SourceForm(Value):
    """A source form eps_sigma dy^sigma ^ omega_0 of declared order s."""

    __slots__ = ("eps", "ctx", "s")

    def __init__(self, eps: tuple, ctx: JetContext, s: int = None):
        eps = tuple(as_expr(e) for e in eps)
        if len(eps) != ctx.m:
            raise DimensionMismatch(
                f"{len(eps)} components for {ctx.m} fiber variables"
            )
        self.eps = eps
        self.ctx, self.s = _declared(eps, ctx, s)

    def as_form(self) -> DiffForm:
        pairs = [
            ((DY(sigma),) + gens, e)
            for sigma, e in enumerate(self.eps, start=1)
            for gens in omega_0(self.ctx).terms
        ]
        return form_from_terms(self.ctx, self.s, self.ctx.n + 1, pairs)


class HelmholtzRecord:
    __slots__ = ("level", "I", "sigma", "nu", "residual")

    def __init__(self, level: int, I: tuple, sigma: int, nu: int, residual: Expr):
        self.level, self.I, self.sigma, self.nu = level, I, sigma, nu
        self.residual = residual


class HelmholtzReport:
    """The nonzero residuals in (level, I, sigma, nu) order, decided with
    the probe seeded by seed; every other residual up to level s is zero."""

    __slots__ = ("records", "answer", "verdict", "ctx", "s")

    def __init__(self, records: tuple, seed: int, ctx: JetContext, s: int):
        self.records = records
        self.answer = decide_zero([rec.residual for rec in records], seed)
        self.verdict = VERDICTS[self.answer]
        self.ctx, self.s = ctx, s


# --- Euler-Lagrange operator --------------------------------------------------


def euler_lagrange(lam: Lagrangian) -> SourceForm:
    """The source form of a Lagrangian of declared order r:

        eps_sigma = sum_{k=0}^r (-1)^k sum_{|J|=k} d_J partial(L, y^sigma_J)

    summed over sorted multi-indices J; the multiplicity of J cancels
    against the tuple-derivative normalization.  The sum is evaluated in
    nested form, from the longest multi-indices that occur in L down:

        F(J) = partial(L, y^sigma_J) - sum_{i >= last(J)} d_i F(J+i)

    and eps_sigma = F(()); a sorted K has the one parent K minus its last
    index, so every sorted J is reached along exactly one chain of
    appended indices and enters once with sign (-1)^|J|.  Only the nonzero
    F are walked, so the cost follows the jets that occur in L, not the
    declared order.  The result is declared on the jet space of order 2r."""
    ctx = lam.ctx
    F = jet_partials(lam.L)
    for k in range(max(F, default=0), 0, -1):
        below = F[k - 1]
        for (sigma, K), value in sorted(F[k].items()):
            if not is_zero(value):
                d = total_derivative(value, K[-1], ctx)
                below[sigma, K[:-1]] = add(below.get((sigma, K[:-1]), ZERO), neg(d))
    eps = tuple(F[0].get((sigma, ()), ZERO) for sigma in range(1, ctx.m + 1))
    return SourceForm(eps, ctx, 2 * lam.r)


def null_lagrangian_from_eta(eta: DiffForm) -> Lagrangian:
    """The Lagrangian with density h(d eta) for an (n-1)-form eta; its
    source form vanishes identically, so it lies in the kernel of the
    Euler-Lagrange mapping."""
    ctx = eta.ctx
    if eta.degree != ctx.n - 1:
        raise DegreeMismatch(
            f"need a degree {ctx.n - 1} form, got degree {eta.degree}"
        )
    lifted = horizontalize(exterior_derivative(eta))
    vol = tuple(DX(i) for i in range(1, ctx.n + 1))
    density = lifted.terms.get(vol, ZERO)
    return Lagrangian(density, ctx, eta.order + 1)


# --- Helmholtz conditions ------------------------------------------------------


def _probe_nonzero(e: Expr, seed: int) -> bool:
    """Evaluate at random rational points away from coordinate zeros; true
    when some value is clearly nonzero.  An overflow or a pole reads nothing."""
    rng = random.Random(seed)
    coords = sorted(coords_in(e), key=coord_key)
    for _ in range(PROBE_POINTS):
        env = {}
        for c in coords:
            magnitude = Fraction(rng.randint(50, 250), 100)
            env[c] = magnitude if rng.random() < 0.5 else -magnitude
        with contextlib.suppress(NumericOverflow, DivisionByZero):
            if abs(evaluate(e, env)) > PROBE_THRESHOLD:
                return True
    return False


def decide_zero(exprs, seed: int = 0):
    """True when no value has a term, False when one is a nonzero polynomial
    or the probe seeded by seed reads it away from zero, else None (undecided)."""
    answer = True
    for e in exprs:
        if e.terms:
            if not has_functions(e) or _probe_nonzero(e, seed):
                return False
            answer = None
    return answer


@functools.lru_cache(maxsize=32)  # verdict_mix alone uses 10 (n, t) shapes
def _completion_plan(n: int, t: int) -> tuple:
    """The completions of the Helmholtz sums for base dimension n and jets
    of order at most t, shared by every source form whose partials reach
    order t.  One entry (l, I, 1/mult(I), levels) per level l and sorted I
    of length l, in record order; levels run longest completions first,
    and each holds rows (M, I+M, w_|M|/mult(I+M), ((i, M+i) for i = 1..n))
    with w_j as in helmholtz_residuals.  The rationals are constant values
    and nothing refers to a context, so the ceiling check stays with each
    total_derivative call."""
    plan = []
    for l in range(t + 1):
        for I in multi_indices(n, l):
            levels = []
            for j in range(t - l, -1, -1):
                weight = -comb(l + j, l) if (l + j) % 2 == 0 else comb(l + j, l)
                levels.append(
                    tuple(
                        (
                            M,
                            tuple(sorted(I + M)),
                            num(Fraction(weight, multiplicity(I + M))),
                            tuple((i, index_with(M, i)) for i in range(1, n + 1)),
                        )
                        for M in multi_indices(n, j)
                    )
                )
            plan.append((l, I, num(Fraction(1, multiplicity(I))), tuple(levels)))
    return tuple(plan)


def helmholtz_residuals(sf: SourceForm, probe_seed: int = 0) -> HelmholtzReport:
    """Variationality residuals of a source form of declared order s.

    For each level l, sorted free multi-index I of length l, and component
    pair (sigma, nu):

        R = [partial(eps_sigma, y^nu_I) - (-1)^l partial(eps_nu, y^sigma_I)] / mult(I)
          - sum_{k=l+1}^s (-1)^k C(k, l) sum_{|M|=k-l} mult(M)
                d_M [partial(eps_nu, y^sigma_{I+M}) / mult(I+M)]

    where the inner sum runs over sorted completions M, weighted by the
    number of ordered tuples each represents.  The second head term and
    the tail are evaluated in nested form, from the longest completions
    down, with q_F = partial(eps_nu, y^sigma_F):

        G(M) = w_|M| q_{I+M} / mult(I+M) + sum_{i=1..n} d_i G(M+i)
        w_j  = -(-1)^(l+j) C(l+j, l)

    so that R = partial(eps_sigma, y^nu_I) / mult(I) + G(()).  G is kept
    per sorted M; summing d_i over every i reaches M along mult(M)
    ordered chains, which supplies the weight mult(M).  The completions,
    weights and up-links depend on n and on the highest order t of a jet
    in the partials of eps alone; `_completion_plan` builds them once per
    (n, t) and process.  Every residual of a level above t is zero, since
    no partial reaches its jets, and the report keeps the nonzero residuals
    alone, so neither time nor memory grows with s.  The verdict is
    variational iff no residual is kept; a kept residual containing opaque
    atoms downgrades the verdict to undecided unless probing bounds it
    away from zero."""
    ctx = sf.ctx
    # q[nu][(sigma, F)] = partial(eps_nu, y^sigma_F), nonzero entries only
    partials = [jet_partials(e) for e in sf.eps]
    top = max(max(p, default=0) for p in partials)
    q = [{key: d for level in p.values() for key, d in level.items()} for p in partials]
    records = []
    for l, I, mu_I, levels in _completion_plan(ctx.n, top):
        for sigma in range(1, ctx.m + 1):
            for nu in range(1, ctx.m + 1):
                q_nu = q[nu - 1]
                upper: dict = {}  # nonzero G at the level above, by completion
                for rows in levels:
                    level = {}
                    for M, full, coeff, ups in rows:
                        head = q_nu.get((sigma, full))
                        value = ZERO if head is None else mul(coeff, head)
                        for i, up in ups:
                            above = upper.get(up)
                            if above is not None:
                                value = add(value, total_derivative(above, i, ctx))
                        if value.terms:
                            level[M] = value
                    upper = level
                head = q[sigma - 1].get((nu, I))
                first = ZERO if head is None else mul(mu_I, head)
                residual = add(first, upper.get((), ZERO))
                if residual.terms:
                    records.append(HelmholtzRecord(l, I, sigma, nu, residual))
    return HelmholtzReport(tuple(records), probe_seed, ctx, sf.s)


def classical_helmholtz_ode(sf: SourceForm, probe_seed: int = 0) -> HelmholtzReport:
    """The three classical residual families for second-order ODE source
    forms, as an implementation path independent of helmholtz_residuals:

        level 2:  partial(eps_s, y^n_xx) - partial(eps_n, y^s_xx)
        level 1:  partial(eps_s, y^n_x) + partial(eps_n, y^s_x)
                    - d/dx [partial(eps_s, y^n_xx) + partial(eps_n, y^s_xx)]
        level 0:  partial(eps_s, y^n) - partial(eps_n, y^s)
                    - (1/2) d/dx [partial(eps_s, y^n_x) - partial(eps_n, y^s_x)]
    """
    ctx = sf.ctx
    if ctx.n != 1:
        raise NotODEContext(f"classical conditions need one base variable, got {ctx.n}")
    if sf.s > 2:
        raise NotODEContext(f"classical conditions cover order <= 2, got {sf.s}")
    half = num(Fraction(1, 2))
    dx = lambda e: total_derivative(e, 1, ctx)
    records = []
    for sigma in range(1, ctx.m + 1):
        for nu in range(1, ctx.m + 1):
            # each partial taken once: p[k] = partial(eps_s, y^n_{1^k}) and
            # q[k] = partial(eps_n, y^s_{1^k})
            p = [partial(sf.eps[sigma - 1], JetCoord(nu, (1,) * k)) for k in range(3)]
            q = [partial(sf.eps[nu - 1], JetCoord(sigma, (1,) * k)) for k in range(3)]
            residuals = (
                add(p[0], neg(q[0]), neg(mul(half, dx(add(p[1], neg(q[1])))))),
                add(p[1], q[1], neg(dx(add(p[2], q[2])))),
                add(p[2], neg(q[2])),
            )
            for l, c in enumerate(residuals):
                if c.terms:
                    records.append(HelmholtzRecord(l, (1,) * l, sigma, nu, c))
    records.sort(key=lambda rec: (rec.level, rec.I, rec.sigma, rec.nu))
    return HelmholtzReport(tuple(records), probe_seed, ctx, 2)


# --- Tonti reconstruction ------------------------------------------------------


def tonti_lagrangian(sf: SourceForm) -> Lagrangian:
    """The fiber-scaling Lagrangian

        L = sum_sigma y^sigma int_0^1 eps_sigma(x, t y, ..., t y_J) dt

    where a monomial of eps_sigma of total fiber-jet degree d is weighed by
    int_0^1 t^d dt = 1/(d+1) (`integrate_param`); requires each component
    to be polynomial in all fiber jet coordinates.  For a variational
    source form, euler_lagrange of the result returns the input
    symbolically."""
    total = ZERO
    for sigma, e in enumerate(sf.eps, start=1):
        total = add(total, mul(sym(JetCoord(sigma)), integrate_param(e, 0, 1)))
    return Lagrangian(total, sf.ctx, sf.s)


# --- naturality under fibered isomorphisms -------------------------------------


def pullback_lagrangian(lam: Lagrangian, iso: FiberedIso) -> Lagrangian:
    """The Lagrangian of the pulled-back horizontal form: the base-map
    Jacobian determinant enters through the pullback of omega_0."""
    return _density(pullback(lam.as_form(), iso), lam)


def _density(pulled: DiffForm, lam: Lagrangian) -> Lagrangian:
    vol = tuple(DX(i) for i in range(1, lam.ctx.n + 1))
    return Lagrangian(pulled.terms.get(vol, ZERO), lam.ctx, lam.r)


def naturality_report(lam: Lagrangian, iso: FiberedIso, probe_seed: int = 0) -> dict:
    """Whether the Cartan form and the Euler-Lagrange form commute with
    pullback along the prolonged isomorphism: True, False or None as
    decide_zero answers on each gap.  The pullbacks share one prolongation
    up to the order 2r of the source form, built for the jets that occur."""
    pro = prolong_isomorphism(iso, 2 * lam.r, lam.ctx)
    pulled = _density(_pullback_prolonged(lam.as_form(), pro), lam)

    def commutes(form: DiffForm, image: DiffForm):  # == costs a tenth of the gap
        form = _pullback_prolonged(form, pro)
        gap = () if form == image else form_add(form, scale(image, -1)).terms.values()
        return decide_zero(gap, probe_seed)

    theta = commutes(cartan_form(lam), cartan_form(pulled))
    el = commutes(euler_lagrange(lam).as_form(), euler_lagrange(pulled).as_form())
    return {"theorem3": theta, "theorem4": el}
