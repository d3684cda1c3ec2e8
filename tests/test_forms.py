"""Differential forms: wedge algebra, exterior derivative, contact
structure, Cartan forms, and pullback along fibered automorphisms."""

import itertools
import random
from fractions import Fraction

import pytest

from jetvar import (
    ContextMismatch,
    DegreeMismatch,
    DimensionMismatch,
    FiberedIso,
    JetContext,
    JetvarError,
    Lagrangian,
    OrderOverflow,
    OrderZeroWarning,
    SingularBaseMap,
    SingularFiberMap,
    UnknownCoordinate,
    cartan_form,
    cartan_form_contact,
    euler_lagrange,
    naturality_report,
    pullback,
    pullback_lagrangian,
)
from jetvar.coords import BaseCoord, JetCoord
from jetvar.expr import add, mul, neg, num, pow_, substitute, sym
from jetvar.forms import (
    DiffForm,
    W,
    _determinant,
    _invert_matrix,
    _pullback_prolonged,
    contact_decompose,
    differential,
    expand_contact,
    exterior_derivative,
    form_add,
    form_from_terms,
    horizontalize,
    max_form_order,
    omega_0,
    omega_i,
    prolong_isomorphism,
    scale,
    wedge,
)

from corpus import random_polynomial

X = BaseCoord(1)
U = JetCoord(1)
U1 = JetCoord(1, (1,))
U11 = JetCoord(1, (1, 1))
U111 = JetCoord(1, (1, 1, 1))


def contact_form(sigma: int, J: tuple, ctx: JetContext) -> DiffForm:
    """w^sigma_J in the raw basis: dy^sigma_J - sum_i y^sigma_{Ji} dx^i."""
    return expand_contact(DiffForm(ctx, 1, {(W(sigma, J),): num(1)}))


def _random_one_form(rng, ctx):
    gens = [(BaseCoord(i),) for i in range(1, ctx.n + 1)]
    for sigma in range(1, ctx.m + 1):
        gens.append((JetCoord(sigma),))
        gens.append((JetCoord(sigma, (1,)),))
    picked = rng.sample(gens, rng.randint(1, min(3, len(gens))))
    pairs = [
        (g, random_polynomial(rng, ctx, order=1, degree=2, terms=2)) for g in picked
    ]
    return form_from_terms(ctx, 1, pairs)


def test_wedge_antisymmetry(plane1):
    dx1 = DiffForm(plane1, 1, {(BaseCoord(1),): num(1)})
    dx2 = DiffForm(plane1, 1, {(BaseCoord(2),): num(1)})
    du = DiffForm(plane1, 1, {(JetCoord(1),): num(1)})
    assert not wedge(dx1, dx1).terms
    assert not wedge(du, du).terms
    assert wedge(dx1, dx2) == scale(wedge(dx2, dx1), num(-1))
    assert wedge(dx1, dx2).terms == {(BaseCoord(1), BaseCoord(2)): num(1)}
    # dy sorts before dx in the wedge word
    assert wedge(dx1, du).terms == {(JetCoord(1), BaseCoord(1)): num(-1)}


def test_wedge_associative_and_bilinear():
    rng = random.Random(71)
    ctx = JetContext(n=2, m=1, order=1)
    for _ in range(12):
        a, b, c = (_random_one_form(rng, ctx) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(form_add(a, b), c) == form_add(wedge(a, c), wedge(b, c))


def test_contraction_basis_is_signed():
    for n in (1, 2, 3):
        ctx = JetContext(n=n, m=1, order=1)
        vol = omega_0(ctx)
        for j in range(1, n + 1):
            dxj = DiffForm(ctx, 1, {(BaseCoord(j),): num(1)})
            for i in range(1, n + 1):
                product = wedge(dxj, omega_i(i, ctx))
                assert product == (vol if i == j else DiffForm(ctx, n, {}))


def test_omega_i_n1_is_the_unit(ode1):
    assert omega_i(1, ode1).terms == {(): num(1)}


def test_differential_of_functions(ode1):
    x, u = sym(X), sym(U)
    d = differential(pow_(x, 2), ode1)
    assert d.terms == {(BaseCoord(1),): mul(num(2), x)}
    d2 = differential(mul(x, u), ode1)
    assert d2.terms == {(BaseCoord(1),): u, (JetCoord(1),): x}
    assert not differential(num(3), ode1).terms


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(73)
    ctx = JetContext(n=2, m=1, order=1)
    for _ in range(10):
        f = random_polynomial(rng, ctx, order=1)
        assert not exterior_derivative(differential(f, ctx)).terms
    for _ in range(10):
        alpha = _random_one_form(rng, ctx)
        assert not exterior_derivative(exterior_derivative(alpha)).terms


def test_exterior_derivative_leibniz_on_functions():
    rng = random.Random(79)
    ctx = JetContext(n=2, m=2, order=1)
    for _ in range(10):
        f = random_polynomial(rng, ctx, order=1)
        g = random_polynomial(rng, ctx, order=1)
        lhs = differential(mul(f, g), ctx)
        rhs = form_add(scale(differential(f, ctx), g), scale(differential(g, ctx), f))
        assert lhs == rhs


def test_contact_form_expansion(plane1):
    w = contact_form(1, (), plane1)
    assert max_form_order(w) == 1
    assert w.terms == {
        (JetCoord(1),): num(1),
        (BaseCoord(1),): neg(sym(JetCoord(1, (1,)))),
        (BaseCoord(2),): neg(sym(JetCoord(1, (2,)))),
    }


def test_expand_contact_matches_contact_form(plane1):
    # w_{1} = du_{1} - u_{1,1} dx - u_{1,2} dy, one jet order up
    transient = DiffForm(plane1, 1, {(W(1, (1,)),): num(1)})
    assert expand_contact(transient).terms == {
        (JetCoord(1, (1,)),): num(1),
        (BaseCoord(1),): neg(sym(JetCoord(1, (1, 1)))),
        (BaseCoord(2),): neg(sym(JetCoord(1, (1, 2)))),
    }


def test_contact_decompose_reassembles():
    rng = random.Random(83)
    ctx = JetContext(n=2, m=1, order=1)
    forms = []
    for _ in range(8):
        alpha = _random_one_form(rng, ctx)
        forms += [alpha, wedge(alpha, _random_one_form(rng, ctx))]
    # two fiber variables, and degree-3 words mixing dy and dx
    ctx = JetContext(n=2, m=2, order=1)
    for _ in range(8):
        alpha, beta, gamma = (_random_one_form(rng, ctx) for _ in range(3))
        forms += [wedge(alpha, beta), wedge(wedge(alpha, beta), gamma)]
    # words that already hold a contact generator w, which stays contact
    contact = []
    for n, m, r in ((1, 1, 2), (2, 1, 1), (2, 2, 2)):
        ctx = JetContext(n=n, m=m, order=r)
        top = pow_(sym(JetCoord(m, (n,) * r)), 2)
        lam = Lagrangian(add(random_polynomial(rng, ctx, order=r), top), ctx, r)
        theta = cartan_form_contact(lam)
        w = DiffForm(ctx, 1, {(W(1, ()),): num(1)})
        contact.append(wedge(w, wedge(*(_random_one_form(rng, ctx) for _ in range(2)))))
        pieces = dict(contact_decompose(theta))
        assert pieces[0] == lam.as_form()
        words = {gens: c for gens, c in theta.terms.items() if isinstance(gens[0], W)}
        assert words
        assert pieces[1] == expand_contact(DiffForm(ctx, n, words))
        forms.append(theta)
    for form in contact:
        assert form.terms and not contact_decompose(form)[0][1].terms
    for form in forms + contact:
        pieces = contact_decompose(form)
        assert [l for l, _ in pieces] == list(range(form.degree + 1))
        total = DiffForm(form.ctx, form.degree, {})
        for _, comp in pieces:
            # dy^s_J splits through y^s_{Ji}: one order up at most
            assert max_form_order(comp) <= max_form_order(form) + 1
            total = form_add(total, comp)
        assert total == expand_contact(form)


def test_lifting_a_differential_of_ceiling_order_overflows():
    # order 6 gives ceiling 12: dy and w with twelve 1s are declared, but
    # their horizontal parts would need thirteen; one order lower is fine
    ctx = JetContext(n=1, m=1, order=6)
    top, below = (1,) * 12, (1,) * 11
    with pytest.raises(OrderOverflow):
        contact_form(1, top, ctx)
    with pytest.raises(OrderOverflow):
        expand_contact(DiffForm(ctx, 1, {(W(1, top),): num(1)}))
    for g in (JetCoord(1, top), W(1, top)):
        with pytest.raises(OrderOverflow):
            contact_decompose(DiffForm(ctx, 1, {(g,): num(1)}))
    assert max_form_order(contact_form(1, below, ctx)) == 12
    assert horizontalize(DiffForm(ctx, 1, {(JetCoord(1, below),): num(1)})).terms == {
        (BaseCoord(1),): sym(JetCoord(1, top))
    }


def test_contact_decompose_grades(ode1):
    # a contact form is purely 1-contact; its horizontal part vanishes
    w = contact_form(1, (), ode1)
    pieces = dict(contact_decompose(w))
    assert 0 not in pieces or not pieces[0].terms
    assert not horizontalize(w).terms
    du = DiffForm(ode1, 1, {(JetCoord(1),): num(1)})
    assert horizontalize(du).terms == {(BaseCoord(1),): sym(U1)}
    assert max_form_order(horizontalize(du)) == 1


def test_horizontalize_is_identity_on_horizontal_forms(plane1):
    f = mul(sym(JetCoord(1, (1,))), sym(BaseCoord(2)))
    alpha = scale(omega_0(plane1), f)
    assert horizontalize(alpha) == alpha


def test_cartan_form_first_order_is_classical(ode1):
    u1 = sym(U1)
    lam = Lagrangian(mul(num(Fraction(1, 2)), pow_(u1, 2)), ode1, 1)
    theta = cartan_form(lam)
    assert max_form_order(theta) == 1
    assert theta.terms == {
        (JetCoord(1),): u1,
        (BaseCoord(1),): mul(num(Fraction(-1, 2)), pow_(u1, 2)),
    }


def test_cartan_form_second_order_frozen(ode2):
    u1, u11, u111 = sym(U1), sym(U11), sym(U111)
    lam = Lagrangian(mul(num(Fraction(1, 2)), pow_(u11, 2)), ode2, 2)
    theta = cartan_form(lam)
    assert max_form_order(theta) == 3
    assert theta.terms == {
        (JetCoord(1),): neg(u111),
        (JetCoord(1, (1,)),): u11,
        (BaseCoord(1),): add(
            mul(u1, u111), mul(num(Fraction(-1, 2)), pow_(u11, 2))
        ),
    }


def test_cartan_form_contact_rendering(ode2):
    u11 = sym(U11)
    lam = Lagrangian(mul(num(Fraction(1, 2)), pow_(u11, 2)), ode2, 2)
    mixed = cartan_form_contact(lam)
    assert (W(1, ()),) in mixed.terms
    assert (W(1, (1,)),) in mixed.terms
    assert expand_contact(mixed) == cartan_form(lam)


def test_cartan_form_splits_lagrangian_and_source():
    rng = random.Random(89)
    cases = []
    for n, m, r in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 2)):
        ctx = JetContext(n=n, m=m, order=r)
        lam = Lagrangian(random_polynomial(rng, ctx, order=r), ctx, r)
        # declared above the occurring order: the same form
        lifted = Lagrangian(lam.L, ctx, r + 2)
        assert cartan_form(lifted) == cartan_form(lam)
        cases += [lam, lifted]
    for lam in cases:
        theta = cartan_form(lam)
        # horizontal part recovers the Lagrangian
        assert horizontalize(theta) == lam.as_form()
        # 1-contact part of d theta recovers the source form
        pieces = dict(contact_decompose(exterior_derivative(theta)))
        assert pieces[1] == euler_lagrange(lam).as_form()


def test_cartan_form_order_zero_warns():
    ctx = JetContext(n=1, m=1, order=0)
    lam = Lagrangian(sym(U), ctx, 0)
    with pytest.warns(OrderZeroWarning):
        theta = cartan_form(lam)
    assert theta == lam.as_form()


def test_fibered_iso_guards():
    x = sym(X)
    with pytest.raises(ValueError):
        FiberedIso((pow_(x, 2),), (sym(U),)).jacobian()
    with pytest.raises(UnknownCoordinate):
        FiberedIso((sym(U),), (sym(U),)).jacobian()
    with pytest.raises(UnknownCoordinate):
        FiberedIso((x,), (sym(U1),)).jacobian()
    degenerate = FiberedIso(
        (add(sym(BaseCoord(1)), sym(BaseCoord(2))), add(sym(BaseCoord(1)), sym(BaseCoord(2)))),
        (sym(U),),
    )
    with pytest.raises(SingularBaseMap):
        prolong_isomorphism(degenerate, 1, JetContext(n=2, m=1, order=1))
    assert FiberedIso((mul(num(2), x),), (sym(U),)).jacobian() == [[Fraction(2)]]


def test_prolong_isomorphism_chain_rule():
    # xbar = 2x, ubar = u: each derivative picks up a factor 1/2; the
    # order-0 context is raised to the requested order
    iso = FiberedIso((mul(num(2), sym(X)),), (sym(U),))
    pro = prolong_isomorphism(iso, 2, JetContext(n=1, m=1, order=0))
    assert pro[BaseCoord(1)] == mul(num(2), sym(X))
    assert pro[U1] == mul(num(Fraction(1, 2)), sym(U1))
    assert pro[U11] == mul(num(Fraction(1, 4)), sym(U11))


def test_a_jet_above_the_prolonged_order_raises_order_overflow(ode1):
    # the prolongation bounds the order: a coefficient reaches it through
    # substitute's bindings.get, a generator through pro[...]; each ends as
    # a JetvarError (exit 2), never as a KeyError (exit 3)
    assert issubclass(OrderOverflow, JetvarError)
    iso = FiberedIso((mul(num(2), sym(X)),), (add(sym(U), pow_(sym(U), 2)),))
    pro = prolong_isomorphism(iso, 1, ode1)
    for reach in (lambda: pro[U11], lambda: pro.get(U11), lambda: substitute(sym(U11), pro)):
        with pytest.raises(OrderOverflow, match="is above order 1"):
            reach()
    # only the requested jets and their parents are built
    pro = prolong_isomorphism(iso, 3, ode1)
    pro[U11]
    assert set(pro) == {X, U, U1, U11}
    assert pro.get(BaseCoord(2)) is None


def test_pullback_prolongs_to_the_order_occurring_in_the_form(ode1):
    # a coefficient or a generator of order 2 prolongs the map to order 2,
    # also on an order-1 context; the result is what bindings prolonged
    # further give
    iso = FiberedIso((mul(num(2), sym(X)),), (add(sym(U), pow_(sym(U), 2)),))
    coefficient = form_from_terms(ode1, 1, [((BaseCoord(1),), sym(U11))])
    generator = form_from_terms(ode1, 1, [((JetCoord(1, (1, 1)),), sym(U))])
    for form in (coefficient, generator):
        assert max_form_order(form) == 2
        pulled = pullback(form, iso)
        assert pulled == _pullback_prolonged(form, prolong_isomorphism(iso, 2, ode1))
        assert pulled == _pullback_prolonged(form, prolong_isomorphism(iso, 4, ode1))
        assert max_form_order(pulled) == 2


def test_prolonged_pullback_preserves_contact_forms():
    # pullback of a contact form along a prolonged automorphism stays
    # contact: its horizontal part must vanish
    rng = random.Random(97)
    isos = [
        FiberedIso((mul(num(2), sym(X)),), (add(sym(U), pow_(sym(U), 2)),)),
        FiberedIso((add(sym(X), num(1)),), (mul(num(3), sym(U)),)),
    ]
    ctx = JetContext(n=1, m=1, order=2)
    for iso in isos:
        for J in ((), (1,)):
            w = contact_form(1, J, ctx)
            pulled = pullback(w, iso)
            assert not horizontalize(pulled).terms


def test_pullback_respects_wedge_and_differential():
    rng = random.Random(101)
    ctx = JetContext(n=2, m=1, order=1)
    iso = FiberedIso(
        (
            add(sym(BaseCoord(1)), sym(BaseCoord(2))),
            add(sym(BaseCoord(1)), neg(sym(BaseCoord(2)))),
        ),
        (add(sym(U), pow_(sym(U), 3)),),
    )
    for _ in range(6):
        alpha = _random_one_form(rng, ctx)
        beta = _random_one_form(rng, ctx)
        lhs = pullback(wedge(alpha, beta), iso)
        rhs = wedge(pullback(alpha, iso), pullback(beta, iso))
        assert lhs == rhs
    for _ in range(6):
        f = random_polynomial(rng, ctx, order=0, degree=2, terms=2)
        lhs = pullback(differential(f, ctx), iso)
        rhs = exterior_derivative(pullback(form_from_terms(ctx, 0, [((), f)]), iso))
        assert lhs == rhs


def test_pullback_along_identity(ode1):
    iso = FiberedIso((sym(X),), (sym(U),))
    alpha = form_from_terms(ode1, 1, [((BaseCoord(1),), sym(U1)), ((JetCoord(1),), sym(X))])
    assert pullback(alpha, iso) == alpha


def test_pullback_drops_a_term_that_vanishes_partway():
    # ubar = x1 turns the coefficient u - x1 into 0 before dx1 ^ dx2 is
    # pulled back, and du ^ dx1 ^ dx2 into dx1 ^ dx1 ^ dx2 after two of its
    # three generators: each term contributes nothing to the sum.  That
    # fiber map is singular and every public entry point refuses it, so the
    # bindings go to the pullback directly
    ctx = JetContext(n=2, m=1, order=0)
    x1, x2 = sym(BaseCoord(1)), sym(BaseCoord(2))
    pro = {BaseCoord(1): x1, BaseCoord(2): x2, U: x1}
    lam = Lagrangian(add(sym(U), neg(x1)), ctx, 0)
    pulled = _pullback_prolonged(lam.as_form(), pro)
    assert not pulled.terms and pulled.degree == 2
    volume = form_from_terms(ctx, 3, [((JetCoord(1), BaseCoord(1), BaseCoord(2)), sym(U))])
    pulled = _pullback_prolonged(volume, pro)
    assert not pulled.terms and pulled.degree == 3
    with pytest.raises(SingularFiberMap):
        pullback_lagrangian(lam, FiberedIso((x1, x2), (x1,)))


@pytest.mark.parametrize(
    "fiber",
    [
        lambda x1, u, v: (x1, v),
        lambda x1, u, v: (add(u, v), mul(num(2), add(u, v))),
        lambda x1, u, v: (mul(u, v), pow_(mul(u, v), 2)),
    ],
    ids=["no-u", "dependent-rows", "dependent-functions"],
)
def test_fiber_map_with_identically_singular_jacobian_is_refused(fiber):
    # the determinants of d(ubar)/d(u, v) cancel to 0 as polynomials
    ctx = JetContext(n=1, m=2, order=1)
    x1, u, v = sym(BaseCoord(1)), sym(JetCoord(1)), sym(JetCoord(2))
    iso = FiberedIso((x1,), fiber(x1, u, v))
    with pytest.raises(SingularFiberMap, match="vanishes identically"):
        iso.jacobian()
    lam = Lagrangian(pow_(sym(JetCoord(1, (1,))), 2), ctx, 1)
    with pytest.raises(SingularFiberMap):
        naturality_report(lam, iso)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_determinant_matches_the_permutation_sum(m):
    # reference: the Leibniz formula, a signed product over every permutation
    rng = random.Random(300 + m)
    ctx = JetContext(n=1, m=m, order=0)
    for _ in range(3):
        rows = [
            [random_polynomial(rng, ctx, degree=2, terms=2) for _ in range(m)]
            for _ in range(m)
        ]
        expected = []
        for perm in itertools.permutations(range(m)):
            odd = sum(perm[a] > perm[b] for b in range(m) for a in range(b)) % 2
            term = mul(*(rows[i][perm[i]] for i in range(m)))
            expected.append(neg(term) if odd else term)
        assert _determinant(rows) == add(*expected)


def test_fiber_map_singular_only_somewhere_is_accepted():
    # determinants 3u^2, -1 and 1 + 2u vanish at points or nowhere: only a
    # map that is certainly singular is refused
    x1, u, v = sym(BaseCoord(1)), sym(JetCoord(1)), sym(JetCoord(2))
    assert FiberedIso((x1,), (pow_(u, 3),)).jacobian() == [[1]]
    assert FiberedIso((x1,), (v, u)).jacobian() == [[1]]
    assert FiberedIso((x1,), (add(u, pow_(u, 2)), add(v, x1))).jacobian() == [[1]]


@pytest.mark.parametrize(
    "iso",
    [
        FiberedIso((sym(X),), (sym(U),)),
        FiberedIso((sym(BaseCoord(1)), sym(BaseCoord(2))), (sym(U), sym(U))),
    ],
    ids=["n-differs", "m-differs"],
)
def test_prolongation_rejects_an_isomorphism_of_other_dimensions(iso, plane1):
    # the context is n = 2, m = 1; each entry point prolongs through the
    # one dimension check of prolong_isomorphism
    lam = Lagrangian(pow_(sym(JetCoord(1, (1,))), 2), plane1, 1)
    calls = (
        lambda: prolong_isomorphism(iso, 1, plane1),
        lambda: pullback(lam.as_form(), iso),
        lambda: naturality_report(lam, iso),
    )
    for call in calls:
        with pytest.raises(DimensionMismatch, match="context is 2x1"):
            call()


def test_form_arithmetic_guards(ode1, plane1):
    a = form_from_terms(ode1, 0, [((), sym(U))])
    b = form_from_terms(plane1, 0, [((), sym(U))])
    with pytest.raises(ContextMismatch):
        form_add(a, b)
    dx = DiffForm(ode1, 1, {(BaseCoord(1),): num(1)})
    with pytest.raises(DegreeMismatch):
        form_add(a, dx)
    assert not form_add(dx, scale(dx, num(-1))).terms
    assert scale(dx, num(-1)).terms == {(BaseCoord(1),): num(-1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_invert_matrix_is_an_exact_inverse(n):
    rng = random.Random(700 + n)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inverted = 0
    while inverted < 5:
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            inverse = _invert_matrix(rows)
        except SingularBaseMap:
            continue
        product = [
            [sum(inverse[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == identity
        assert all(isinstance(v, Fraction) for row in inverse for v in row)
        inverted += 1


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        [[1, 2], [0, 0]],
        [[1, 2], [Fraction(1, 2), 1]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
    ],
    ids=["zero-1x1", "zero-row", "proportional-rows", "sum-of-rows"],
)
def test_invert_matrix_refuses_a_singular_matrix(rows):
    with pytest.raises(SingularBaseMap, match="^base map Jacobian is singular$"):
        _invert_matrix(rows)


def test_zero_results_keep_their_degree(ode1, plane1):
    a = form_from_terms(plane1, 1, [((BaseCoord(1),), sym(U)), ((JetCoord(1, (2,)),), sym(X))])
    for zero in (scale(a, 0), scale(a, num(0)), form_add(a, scale(a, -1))):
        assert not zero.terms
        assert zero.degree == 1
        assert zero == DiffForm(plane1, 1, {})
    f = form_from_terms(ode1, 0, [((), 0)])
    assert not f.terms
    assert f.degree == 0
