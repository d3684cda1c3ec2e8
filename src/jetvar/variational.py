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
import random
from fractions import Fraction
from math import lcm

from .coords import (
    BaseCoord,
    JetContext,
    JetCoord,
    Value,
    coord_key,
    index_with,
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
    mul,
    neg,
    num,
    partial,
    sym,
)
from .forms import (
    DiffForm,
    cartan_form,
    exterior_derivative,
    FiberedIso,
    form_add,
    form_from_terms,
    horizontalize,
    max_form_order,
    omega_0,
    prolong_isomorphism,
    pullback,
    scale,
    _pullback_prolonged,
)
from .jets import add_total_derivatives, jet_partials, total_derivative

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
        return form_from_terms(self.ctx, self.ctx.n, pairs)


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
            ((JetCoord(sigma),) + gens, e)
            for sigma, e in enumerate(self.eps, start=1)
            for gens in omega_0(self.ctx).terms
        ]
        return form_from_terms(self.ctx, self.ctx.n + 1, pairs)


class HelmholtzRecord:
    __slots__ = ("level", "I", "sigma", "nu", "residual")

    def __init__(self, level: int, I: tuple, sigma: int, nu: int, residual: Expr):
        self.level, self.I, self.sigma, self.nu = level, I, sigma, nu
        self.residual = residual


class HelmholtzReport:
    """The nonzero residuals in (level, I, sigma, nu) order, decided with
    the probe seeded by seed; every other residual up to level s is zero."""

    __slots__ = ("records", "answer", "verdict", "s")

    def __init__(self, records: tuple, seed: int, s: int):
        self.records = records
        self.answer = decide_zero([rec.residual for rec in records], seed)
        self.verdict = VERDICTS[self.answer]
        self.s = s


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
    declared order.  The d_i F(J+i) of one F(J) are summed by one
    `add_total_derivatives` call.  The mapping is Q-linear, so the
    recursion runs on D L, D the lcm of the denominators of L's
    coefficients, on integers, and each eps_sigma is divided by D at the
    end, exactly.  The result is declared on the jet space of order 2r."""
    ctx = lam.ctx
    D = lcm(*(c.denominator for c in lam.L.terms.values()))
    F = jet_partials(mul(num(D), lam.L))
    for k in range(max(F, default=0), 0, -1):
        parents = {}
        for (sigma, K), value in sorted(F[k].items()):
            if value.terms:
                parents.setdefault((sigma, K[:-1]), []).append((value, K[-1], -1))
        for key, parts in parents.items():
            F[k - 1][key] = add_total_derivatives(F[k - 1].get(key, ZERO), parts, ctx)
    inverse = num(Fraction(1, D))
    eps = tuple(mul(inverse, F[0].get((sigma, ()), ZERO)) for sigma in range(1, ctx.m + 1))
    return SourceForm(eps, ctx, 2 * lam.r)


def null_lagrangian_from_eta(eta: DiffForm) -> Lagrangian:
    """The Lagrangian h(d eta), one order above eta, for an (n-1)-form eta;
    its source form vanishes identically, so it lies in the kernel of the
    Euler-Lagrange mapping."""
    ctx = eta.ctx
    if eta.degree != ctx.n - 1:
        raise DegreeMismatch(
            f"need a degree {ctx.n - 1} form, got degree {eta.degree}"
        )
    lifted = horizontalize(exterior_derivative(eta))
    return _density(lifted, ctx, max_form_order(eta) + 1)


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
            env[c] = [magnitude if rng.random() < 0.5 else -magnitude]
        with contextlib.suppress(NumericOverflow, DivisionByZero):
            if abs(evaluate(e, env)[0]) > PROBE_THRESHOLD:
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


def _adjoint(partials: list, sigma: int, nu: int, ctx: JetContext) -> dict:
    """The (sigma, nu) entry of the formal adjoint D_eps* = sum_F (-D)_F (q_F .),
    q_F = partial(eps_nu, y^sigma_F), as its nonzero coefficients {K: u_K}
    of D_K.  Horner's rule over the tree of sorted F that euler_lagrange
    walks, from the longest F that occurs down:

        U(F) = (-1)^|F| q_F + sum_{i >= last(F)} D_i U(F+i)

    and the adjoint is U(()).  D_i sends the coefficient u_K of an operator
    to d_i u_K at K plus u_K at K+i, so each coefficient of U(F) costs one
    `add_total_derivatives` call."""
    levels = partials[nu - 1]
    below = {}  # the nonzero U(F) of the level below, by F
    for k in range(max(levels, default=0), -1, -1):
        sums = {}  # F -> K -> (coefficients shifted to K, derivative parts)
        for (s, F), d in levels.get(k, {}).items():
            if s == sigma:
                sums[F] = {(): ([neg(d) if k % 2 else d], [])}
        for F, U in below.items():
            i, coefficients = F[-1], sums.setdefault(F[:-1], {})
            for K, u in U.items():
                coefficients.setdefault(index_with(K, i), ([], []))[0].append(u)
                coefficients.setdefault(K, ([], []))[1].append((u, i, 1))
        below = {}
        for F, coefficients in sums.items():
            U = {}
            for K, (shifted, parts) in coefficients.items():
                value = add_total_derivatives(add(*shifted), parts, ctx)
                if value.terms:
                    U[K] = value
            if U:
                below[F] = U
    return below.get((), {})


def helmholtz_residuals(sf: SourceForm, probe_seed: int = 0) -> HelmholtzReport:
    """Variationality residuals of a source form of declared order s.

    For each level l, sorted free multi-index I of length l, and component
    pair (sigma, nu):

        R = [partial(eps_sigma, y^nu_I) - (-1)^l partial(eps_nu, y^sigma_I)] / mult(I)
          - sum_{k=l+1}^s (-1)^k C(k, l) sum_{|M|=k-l} mult(M)
                d_M [partial(eps_nu, y^sigma_{I+M}) / mult(I+M)]

    where the inner sum runs over sorted completions M, weighted by the
    number of ordered tuples each represents.  By the Leibniz rule, D_I
    enters (-D)_{I+M} (q .) with coefficient (-1)^k C(k, l) mult(I) mult(M)
    d_M q / mult(I+M), so mult(I) R is the coefficient of D_I in the (sigma,
    nu) entry of D_eps - D_eps*, the skew-adjoint part of the Frechet
    derivative: partial(eps_sigma, y^nu_I) less that of `_adjoint`.  No
    level above the highest jet order in the partials of eps holds a
    nonzero residual, and the report keeps the nonzero ones alone, so
    neither time nor memory grows with s.  Skew-adjointness gives

        R(l, I, nu, sigma) = -sum_{k>=l} (-1)^k C(k, l) sum_{|M|=k-l} mult(M)
                               d_M R(k, sorted(I+M), sigma, nu)

    so the free residuals (sigma < nu, odd levels of sigma = nu) vanish
    only if all do: for even l, 2 R(l, I, sigma, sigma) is a sum of higher
    levels.  The pairs sigma <= nu hold every free residual; they come
    first, and the pairs sigma > nu only if one of their residuals is
    nonzero.  No chain lifts a jet of order 2s, so none overflows.  The
    verdict is variational iff no residual is kept; a kept residual
    containing opaque atoms downgrades the verdict to undecided unless
    probing bounds it away from zero."""
    ctx, m = sf.ctx, sf.ctx.m
    # partials[sigma - 1][k][nu, I] = partial(eps_sigma, y^nu_I), nonzero only
    partials = [jet_partials(e) for e in sf.eps]
    q = [{key: d for level in p.values() for key, d in level.items()} for p in partials]
    pairs = [(sigma, nu) for sigma in range(1, m + 1) for nu in range(1, m + 1)]
    cells = {}
    for sigma, nu in sorted(pairs, key=lambda pair: pair[0] > pair[1]):
        if sigma > nu and not cells:
            break
        adjoint = _adjoint(partials, sigma, nu, ctx)
        heads = {I: d for (s, I), d in q[sigma - 1].items() if s == nu}
        for I in heads.keys() | adjoint.keys():
            value = add(heads.get(I, ZERO), neg(adjoint.get(I, ZERO)))
            if value.terms:
                cells[len(I), I, sigma, nu] = mul(num(Fraction(1, multiplicity(I))), value)
    records = tuple(HelmholtzRecord(*key, cells[key]) for key in sorted(cells))
    return HelmholtzReport(records, probe_seed, sf.s)


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
    return HelmholtzReport(tuple(records), probe_seed, 2)


# --- Tonti reconstruction ------------------------------------------------------


def tonti_lagrangian(sf: SourceForm) -> Lagrangian:
    """L = sum_sigma y^sigma eps_sigma with each monomial of total fiber-jet
    degree d weighed by 1/(d+1) (`integrate_param`), the homotopy formula of
    Vainberg and Tonti (Olver, §5.4).  E shifts every fiber degree by the
    same amount, so a variational eps splits into variational parts eps_d
    homogeneous of degree d, and E(y eps_d) = eps_d + D*_{eps_d}(y) =
    eps_d + D_{eps_d}(y) = (d+1) eps_d by self-adjointness and Euler's
    theorem.  So euler_lagrange of L returns a variational input exactly
    for every d != -1; d = -1 (as in u^-1, whose Lagrangian is log u), or
    a jet inside sin/cos/exp, raises NonPolynomialParameter."""
    parts = (mul(sym(JetCoord(sigma)), integrate_param(e)) for sigma, e in enumerate(sf.eps, 1))
    return Lagrangian(add(*parts), sf.ctx, sf.s)


# --- naturality under fibered isomorphisms -------------------------------------


def pullback_lagrangian(lam: Lagrangian, iso: FiberedIso) -> Lagrangian:
    """The Lagrangian of the pulled-back horizontal form: the base-map
    Jacobian determinant enters through the pullback of omega_0."""
    return _density(pullback(lam.as_form(), iso), lam.ctx, lam.r)


def _density(form: DiffForm, ctx: JetContext, r: int) -> Lagrangian:
    """The Lagrangian of order r with the volume coefficient of form."""
    vol = tuple(BaseCoord(i) for i in range(1, ctx.n + 1))
    return Lagrangian(form.terms.get(vol, ZERO), ctx, r)


def naturality_report(lam: Lagrangian, iso: FiberedIso, probe_seed: int = 0) -> dict:
    """Whether the Cartan form and the Euler-Lagrange form commute with
    pullback along the prolonged isomorphism: True, False or None as
    decide_zero answers on each gap.  The pullbacks share one prolongation
    up to the order 2r of the source form, built for the jets that occur."""
    pro = prolong_isomorphism(iso, 2 * lam.r, lam.ctx)
    pulled = _density(_pullback_prolonged(lam.as_form(), pro), lam.ctx, lam.r)

    def commutes(form: DiffForm, image: DiffForm):  # == costs a tenth of the gap
        form = _pullback_prolonged(form, pro)
        gap = () if form == image else form_add(form, scale(image, -1)).terms.values()
        return decide_zero(gap, probe_seed)

    theta = commutes(cartan_form(lam), cartan_form(pulled))
    el = commutes(euler_lagrange(lam).as_form(), euler_lagrange(pulled).as_form())
    return {"theorem3": theta, "theorem4": el}
