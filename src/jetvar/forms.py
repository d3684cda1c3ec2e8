"""Differential forms on jet spaces.

A form is a formal sum of terms, each a canonical coefficient expression
times a sorted wedge word of basis one-forms.  A word holds each basis
one-form as the coordinate it differentiates: `BaseCoord(i)` for dx^i and
`JetCoord(s, J)` for dy^s_J.  Storage always uses this raw coordinate
basis; the contact forms w^s_J = dy^s_J - sum_i y^s_{Ji} dx^i, the one
generator class of their own (`W`), exist only transiently inside the
contact decomposition and the Cartan form assembly.  With canonical
coefficients and sorted wedge words, structural equality of two forms
of the same degree decides equality on the polynomial fragment.  A form
is identified with its pullbacks to higher jet orders: its order is the
highest occurring, `max_form_order`.

The contraction basis is signed: the (n-1)-form paired with direction i
carries (-1)^(i-1), which makes dx^j wedge omega_i equal delta^j_i omega_0.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction

from .coords import (
    BaseCoord,
    JetContext,
    JetCoord,
    Value,
    coord_key,
    index_with,
    multiplicity,
)
from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DimensionMismatch,
    OrderOverflow,
    OrderZeroWarning,
    SingularBaseMap,
    SingularFiberMap,
    UnknownCoordinate,
)
from .expr import (
    Expr,
    ONE,
    ZERO,
    _rational,
    add,
    as_expr,
    coords_in,
    gradient,
    is_constant,
    is_zero,
    max_jet_order,
    mul,
    neg,
    num,
    partial,
    substitute,
    sym,
)
from .jets import Prolongation, add_total_derivatives, jet_partials


# --- basis one-form generators ----------------------------------------------


class W(Value):
    """Contact form w^sigma_J (transient basis element)."""

    __slots__ = ("sigma", "J")

    def __init__(self, sigma: int, J: tuple = ()):
        self.sigma = sigma
        self.J = tuple(sorted(J))

    def _fields(self) -> tuple:
        return (self.sigma, self.J)


def gen_key(g) -> tuple:
    # Contact generators sort first so transient terms read w ^ ... ^ dy ^ dx.
    if isinstance(g, BaseCoord):
        return (2, g.i)
    return (0 if isinstance(g, W) else 1, g.sigma, len(g.J), g.J)


def _normalize_gens(gens):
    """Sort generators, returning (sign, sorted tuple), or (0, ()) when a
    generator repeats."""
    items = list(gens)
    sign = 1
    # insertion sort with parity tracking; wedge words are short
    for a in range(1, len(items)):
        b = a
        while b > 0 and gen_key(items[b - 1]) > gen_key(items[b]):
            items[b - 1], items[b] = items[b], items[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(items)):
        if items[a] == items[a - 1]:
            return 0, ()
    return sign, tuple(items)


# --- forms -------------------------------------------------------------------


class DiffForm(Value):
    """A differential form on a jet space.

    The context is carried for dimension data and error reporting but does
    not take part in equality; two forms are equal when degree and
    canonical terms agree.  A form is not hashable: its terms are a dict.
    """

    __slots__ = ("ctx", "degree", "terms")
    __hash__ = None

    def __init__(self, ctx: JetContext, degree: int, terms: dict):
        self.ctx = ctx
        self.degree = degree
        self.terms = terms  # sorted generator tuple -> nonzero canonical Expr

    def _fields(self) -> tuple:
        return (self.degree, self.terms)


def form_from_terms(ctx: JetContext, degree: int, items) -> DiffForm:
    """Build a form from (generators, coefficient) pairs: generator words
    may arrive unsorted; each word's coefficients sum in one add, zeros drop."""
    acc: dict[tuple, list] = {}
    for gens, coeff in items:
        if len(gens) != degree:
            raise DegreeMismatch(
                f"term has {len(gens)} generators in a degree-{degree} form"
            )
        sign, sorted_gens = _normalize_gens(gens)
        if sign == 0:
            continue
        coeff = as_expr(coeff)
        acc.setdefault(sorted_gens, []).append(coeff if sign == 1 else neg(coeff))
    sums = ((g, add(*coeffs)) for g, coeffs in acc.items())
    return DiffForm(ctx, degree, {g: c for g, c in sums if c.terms})


def _require_compatible(a: DiffForm, b: DiffForm) -> None:
    if not a.ctx.compatible(b.ctx):
        raise ContextMismatch("forms live over different charts")


def form_add(a: DiffForm, b: DiffForm) -> DiffForm:
    _require_compatible(a, b)
    if a.degree != b.degree:
        raise DegreeMismatch(f"cannot add degree {a.degree} to degree {b.degree}")
    pairs = itertools.chain(a.terms.items(), b.terms.items())
    return form_from_terms(a.ctx, a.degree, pairs)


def scale(a: DiffForm, factor) -> DiffForm:
    factor = as_expr(factor)
    pairs = ((gens, mul(factor, coeff)) for gens, coeff in a.terms.items())
    return form_from_terms(a.ctx, a.degree, pairs)


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    _require_compatible(a, b)
    pairs = (
        (ga + gb, mul(ca, cb))
        for ga, ca in a.terms.items()
        for gb, cb in b.terms.items()
    )
    return form_from_terms(a.ctx, a.degree + b.degree, pairs)


def omega_0(ctx: JetContext) -> DiffForm:
    """Base volume form dx^1 ^ ... ^ dx^n."""
    gens = tuple(BaseCoord(i) for i in range(1, ctx.n + 1))
    return DiffForm(ctx, ctx.n, {gens: ONE})


def omega_i(i: int, ctx: JetContext) -> DiffForm:
    """The contraction of the base volume form with the i-th coordinate
    direction; signed so that dx^j ^ omega_i == delta^j_i omega_0."""
    if not 1 <= i <= ctx.n:
        raise UnknownCoordinate(f"no base direction {i} in a {ctx.n}-dimensional base")
    gens = tuple(BaseCoord(j) for j in range(1, ctx.n + 1) if j != i)
    coeff = ONE if i % 2 == 1 else num(-1)
    return DiffForm(ctx, ctx.n - 1, {gens: coeff})


def max_form_order(form: DiffForm) -> int:
    """Highest jet order actually occurring in coefficients or generators."""
    order = 0
    for gens, coeff in form.terms.items():
        order = max(
            order,
            max_jet_order(coeff),
            *(len(g.J) for g in gens if not isinstance(g, BaseCoord)),
        )
    return order


# --- exterior derivative, horizontalization, contact split -------------------


def differential(e, ctx: JetContext) -> DiffForm:
    """Exterior derivative of a function, in the coordinate basis."""
    e = as_expr(e)
    grad = gradient(e)
    pairs = [((c,), grad[c]) for c in sorted(grad, key=coord_key)]
    return form_from_terms(ctx, 1, pairs)


def exterior_derivative(form: DiffForm) -> DiffForm:
    """d in the coordinate basis; d(d(form)) has no terms."""
    ctx = form.ctx
    if form.degree == 0:
        return differential(form.terms.get((), ZERO), ctx)
    pairs = []
    for gens, coeff in form.terms.items():
        df = differential(coeff, ctx)
        for (g,), dc in df.terms.items():
            pairs.append(((g,) + gens, dc))
    return form_from_terms(ctx, form.degree + 1, pairs)


def _map_generators(form: DiffForm, image, coeff=None) -> DiffForm:
    """The form with each basis one-form g replaced by the 1-form image(g),
    given as (generator, coefficient) pairs, and each coefficient c by
    coeff(c); every wedge word is multiplied out.  Each generator's image
    is computed once per call."""
    images: dict = {}
    pairs = []
    for gens, c in form.terms.items():
        products = [((), c if coeff is None else coeff(c))]
        for g in gens:
            if g not in images:
                images[g] = image(g)
            products = [
                (word + (h,), mul(p, hc))
                for word, p in products
                for h, hc in images[g]
                if h not in word
            ]
        pairs.extend(products)
    return form_from_terms(form.ctx, form.degree, pairs)


def _horizontal_part(g, ctx: JetContext) -> list:
    """sum_i y^s_{Ji} dx^i for g = dy^s_J or w^s_J, as (generator,
    coefficient) pairs; the one place where lifting a generator checks the
    ceiling."""
    if len(g.J) + 1 > ctx.ceiling:
        raise OrderOverflow(
            f"lifting a differential of order {len(g.J)} would raise jet order "
            f"past ceiling {ctx.ceiling}"
        )
    return [
        (BaseCoord(i), sym(JetCoord(g.sigma, index_with(g.J, i))))
        for i in range(1, ctx.n + 1)
    ]


def expand_contact(form: DiffForm) -> DiffForm:
    """Rewrite transient contact generators back into the raw dx/dy basis,
    w^s_J -> dy^s_J - sum_i y^s_{Ji} dx^i."""
    if not any(isinstance(g, W) for gens in form.terms for g in gens):
        return form

    def image(g):
        if not isinstance(g, W):
            return [(g, ONE)]
        pairs = [(JetCoord(g.sigma, g.J), ONE)]
        return pairs + [(h, neg(c)) for h, c in _horizontal_part(g, form.ctx)]

    return _map_generators(form, image)


def contact_decompose(form: DiffForm) -> list:
    """Split a form into its l-contact components, l = 0..degree.

    Each coordinate differential dy^s_J is rewritten as
    w^s_J + sum_i y^s_{Ji} dx^i on the once-prolonged space, while dx^i and
    contact generators already present stay; terms are grouped by their
    number of contact factors, and every group is expanded back to the raw
    basis.  Returns the list of pairs (l, component) for l = 0..degree;
    the components sum to the form, its contact generators expanded.
    """
    ctx = form.ctx

    def image(g):
        if not isinstance(g, JetCoord):
            return [(g, ONE)]
        return [(W(g.sigma, g.J), ONE)] + _horizontal_part(g, ctx)

    groups = [{} for _ in range(form.degree + 1)]
    for gens, coeff in _map_generators(form, image).terms.items():
        groups[sum(isinstance(g, W) for g in gens)][gens] = coeff
    return [
        (l, expand_contact(DiffForm(ctx, form.degree, terms)))
        for l, terms in enumerate(groups)
    ]


def horizontalize(form: DiffForm) -> DiffForm:
    """The 0-contact component: contact factors drop and each dy^s_J turns
    into sum_i y^s_{Ji} dx^i, leaving only base differentials."""
    return contact_decompose(form)[0][1]


# --- the generalized Poincare-Cartan equivalent ------------------------------


def cartan_form_contact(lam) -> DiffForm:
    """Like cartan_form, but keeps the contact generators w^s_J unexpanded
    so the result displays in the L omega_0 + sum f w^s_J ^ omega_i shape."""
    ctx = lam.ctx
    if lam.r == 0:
        warnings.warn(
            "order-0 Lagrangian: the Cartan form is the Lagrangian itself",
            OrderZeroWarning,
        )
        return lam.as_form()
    f = jet_partials(lam.L)
    for level in f.values():
        for (sigma, K), d in level.items():
            level[sigma, K] = mul(num(Fraction(1, multiplicity(K))), d)
    pairs = [(gens, lam.L) for gens in omega_0(ctx).terms]
    for k in range(max(f, default=0), 0, -1):
        parents = {}
        for (sigma, K), value in sorted(f[k].items()):
            if value.terms:
                for i in dict.fromkeys(K):
                    J = K[: K.index(i)] + K[K.index(i) + 1 :]
                    weight = num(multiplicity(J))
                    for gens, sign in omega_i(i, ctx).terms.items():
                        pairs.append(((W(sigma, J),) + gens, mul(sign, weight, value)))
                    if k > 1:
                        parents.setdefault((sigma, J), []).append((value, i, -1))
        for key, parts in parents.items():
            f[k - 1][key] = add_total_derivatives(f[k - 1].get(key, ZERO), parts, ctx)
    return form_from_terms(ctx, ctx.n, pairs)


def cartan_form(lam) -> DiffForm:
    """The canonical Lepagean equivalent of a Lagrangian of order r, as a
    form on the jet space of order 2r - 1.

    The contact coefficients are defined by the descending recursion

        f[s][K] = partial(L, y^s_K) / mult(K) - sum_i d_i f[s][K + i]

    (tuple-derivative normalization; f with r+1 indices vanishes) and the
    form is assembled over sorted multi-indices, each contributing with its
    multiplicity:

        Theta = L omega_0
              + sum_s sum_{|J| <= r-1} mult(J) f[s][J + i] w^s_J ^ omega_i

    Both run over the nonzero f[s][K] only, longest first, each feeding
    J = K minus one i for each distinct i in K, so the cost follows the
    jets that occur in L, not the declared order.
    """
    return expand_contact(cartan_form_contact(lam))


# --- fibered isomorphisms and pullback ---------------------------------------


class FiberedIso(Value):
    """A fibration automorphism: an affine invertible base map together
    with an invertible fiber map in the base and order-0 fiber
    coordinates."""

    __slots__ = ("base_map", "fiber_map")

    def __init__(self, base_map: tuple, fiber_map: tuple):
        self.base_map = tuple(as_expr(e) for e in base_map)
        self.fiber_map = tuple(as_expr(e) for e in fiber_map)

    @property
    def n(self) -> int:
        return len(self.base_map)

    @property
    def m(self) -> int:
        return len(self.fiber_map)

    def jacobian(self):
        """Constant base Jacobian as rows of exact rationals.  Raises
        SingularFiberMap when the Jacobian determinant of the fiber map in
        the order-0 fiber coordinates vanishes identically."""
        n = self.n
        rows = []
        for comp in self.base_map:
            for c in coords_in(comp):
                if not isinstance(c, BaseCoord) or not 1 <= c.i <= n:
                    raise UnknownCoordinate(
                        f"base map may only use base coordinates, found {c}"
                    )
            row = []
            for k in range(1, n + 1):
                entry = partial(comp, BaseCoord(k))
                if not is_constant(entry):
                    raise ValueError("base map must be affine in the base coordinates")
                row.append(entry.value)
            rows.append(row)
        for comp in self.fiber_map:
            for c in coords_in(comp):
                ok = (isinstance(c, BaseCoord) and 1 <= c.i <= n) or (
                    isinstance(c, JetCoord) and c.J == () and 1 <= c.sigma <= self.m
                )
                if not ok:
                    raise UnknownCoordinate(
                        f"fiber map may only use base and order-0 coordinates, found {c}"
                    )
        fiber_rows = [
            [partial(comp, JetCoord(nu)) for nu in range(1, self.m + 1)]
            for comp in self.fiber_map
        ]
        if is_zero(_determinant(fiber_rows)):
            raise SingularFiberMap(
                "fiber map Jacobian determinant vanishes identically"
            )
        return rows


def _determinant(rows) -> Expr:
    """Determinant of a square matrix of expressions by cofactor expansion,
    built from the bottom row up: the minor of the last rows on each set of
    columns is computed once, so the cost grows as 2^m, not m!."""
    m = len(rows)
    minors = {(): ONE}
    for k in range(m - 1, -1, -1):
        minors = {
            cols: add(
                *(
                    mul(num((-1) ** p), rows[k][j], minors[cols[:p] + cols[p + 1 :]])
                    for p, j in enumerate(cols)
                )
            )
            for cols in itertools.combinations(range(m), m - k)
        }
    return minors[tuple(range(m))]


def _invert_matrix(rows):
    """Exact inverse of a matrix of rationals, the transposed cofactors over
    the determinant, each taken with _determinant, an integral entry as an
    int; raises SingularBaseMap."""
    entries = [[num(v) for v in row] for row in rows]
    det = _determinant(entries)
    if is_zero(det):
        raise SingularBaseMap("base map Jacobian is singular")

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(entries) if k != i]
        return (-1) ** (i + j) * _determinant(minor).value

    n = len(rows)
    return [[_rational(cofactor(j, i) / det.value) for j in range(n)] for i in range(n)]


def prolong_isomorphism(iso: FiberedIso, order: int, ctx: JetContext) -> Prolongation:
    """Components of the automorphism prolonged to the given order, on the
    chart of ctx: each transformed coordinate as an expression in the source
    coordinates.  Each jet is built on its first request by the chain rule
    against the constant base Jacobian A, ybar^s_{Jl} = sum_k inv(A)[k][l]
    d_k(ybar^s_J), on the context raised to the order if it declares less."""
    if iso.n != ctx.n or iso.m != ctx.m:
        raise DimensionMismatch(
            f"isomorphism is {iso.n}x{iso.m}, context is {ctx.n}x{ctx.m}"
        )
    a_inv = _invert_matrix(iso.jacobian())
    seeds = {BaseCoord(i): e for i, e in enumerate(iso.base_map, start=1)}
    seeds.update((JetCoord(s), e) for s, e in enumerate(iso.fiber_map, start=1))
    return Prolongation(seeds, order, a_inv, ctx)


def pullback(form: DiffForm, iso: FiberedIso) -> DiffForm:
    """Pullback along the automorphism prolonged to the jet order occurring
    in the form, building only the jets that occur."""
    pro = prolong_isomorphism(iso, max_form_order(form), form.ctx)
    return _pullback_prolonged(form, pro)


def _pullback_prolonged(form: DiffForm, pro: dict) -> DiffForm:
    """Pullback of a form along bindings prolonged at least to its order:
    each coefficient has the bindings substituted and each basis one-form
    becomes the differential of its binding.  The result keeps the form's
    degree, also when every term vanishes."""

    def image(g):
        return [(h, c) for (h,), c in differential(pro[g], form.ctx).terms.items()]

    return _map_generators(form, image, lambda c: substitute(c, pro))
