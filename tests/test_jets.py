"""Multi-indices, contexts, total derivatives, and section prolongation."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetvar import (
    DimensionMismatch,
    JetContext,
    OrderOverflow,
    SectionSpec,
    UnknownCoordinate,
    total_derivative,
)
from jetvar.coords import (
    BaseCoord,
    JetCoord,
    index_with,
    multi_indices,
    multiplicity,
)
from jetvar import expr, jets
from jetvar.expr import ZERO, _collect, add, coords_in, func, gradient, mul, neg, num
from jetvar.expr import ordered_terms, partial, pow_, substitute, sym
from jetvar.forms import FiberedIso, prolong_isomorphism
from jetvar.jets import add_total_derivatives, iterated_total_derivative, prolong_section

from corpus import random_base_polynomial, random_laurent, random_mixed, random_polynomial

X1, X2 = BaseCoord(1), BaseCoord(2)
U = JetCoord(1)


def test_multiplicity_counts_ordered_tuples():
    rng = random.Random(5)
    for _ in range(40):
        J = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 6))))
        assert multiplicity(J) == len(set(itertools.permutations(J)))


def test_multi_indices_are_sorted_and_complete():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            idx = list(multi_indices(n, k))
            assert len(idx) == math.comb(n + k - 1, k)
            assert len(set(idx)) == len(idx)
            for J in idx:
                assert J == tuple(sorted(J))


def test_index_helpers():
    assert index_with((1, 2), 1) == (1, 1, 2)
    assert JetCoord(1, (2, 1)).J == (1, 2)


def test_context_validation():
    with pytest.raises(ValueError):
        JetContext(n=0, m=1, order=1)
    with pytest.raises(ValueError):
        JetContext(n=1, m=1, order=1, base_names=("u",), fiber_names=("u",))
    with pytest.raises(ValueError):
        JetContext(n=1, m=1, order=1, base_names=("sin",))
    with pytest.raises(ValueError):
        JetContext(n=1, m=1, order=-1)
    # the ceiling follows from the order and is no argument
    with pytest.raises(TypeError):
        JetContext(n=1, m=1, order=3, ceiling=2)
    ceilings = [JetContext(n=1, m=1, order=k).ceiling for k in (0, 3, 6, 7, 20)]
    assert ceilings == [12, 12, 12, 14, 40]
    with pytest.raises(ValueError):
        JetContext(n=2, m=1, order=1, base_names=("x",))


@pytest.mark.parametrize(
    "base, fiber, message",
    [
        (("x",), ("u_a",), "letter followed by letters or digits"),
        (("x",), ("u\u0301",), "letter followed by letters or digits"),
        (("x",), ("dx",), "differential of 'x'"),
        (("x", "y"), ("u", "du"), "differential of 'u'"),
        # the earlier checks come first
        (("x",), ("u_a", "sin"), "'sin' is reserved"),
        (("x",), ("dx", "dx"), "pairwise distinct"),
    ],
)
def test_context_refuses_names_the_language_cannot_read(base, fiber, message):
    with pytest.raises(ValueError, match=message):
        JetContext(n=len(base), m=len(fiber), order=1, base_names=base, fiber_names=fiber)


def test_context_names_and_coords():
    ctx = JetContext(n=2, m=2, order=2)
    assert ctx.base_names == ("x1", "x2")
    assert ctx.fiber_names == ("u1", "u2")
    assert ctx.coord_name(JetCoord(2, (1, 2))) == "u2_{1,2}"
    assert ctx.coord_name(BaseCoord(1)) == "x1"
    lifted = ctx.with_order(5)
    assert lifted.order == 5 and lifted.ceiling == 12
    assert lifted.compatible(ctx)
    with pytest.raises(UnknownCoordinate):
        ctx.check_coord(JetCoord(3))


def test_total_derivative_on_atoms():
    ctx = JetContext(n=2, m=1, order=1)
    assert total_derivative(sym(X1), 1, ctx) == num(1)
    assert total_derivative(sym(X1), 2, ctx) == num(0)
    assert total_derivative(sym(U), 1, ctx) == sym(JetCoord(1, (1,)))
    assert total_derivative(sym(JetCoord(1, (1,))), 2, ctx) == sym(JetCoord(1, (1, 2)))
    # the other base coordinate is treated as a constant
    assert total_derivative(mul(sym(X2), sym(U)), 1, ctx) == mul(
        sym(X2), sym(JetCoord(1, (1,)))
    )


def test_total_derivative_leibniz():
    rng = random.Random(19)
    ctx = JetContext(n=2, m=2, order=2)
    for _ in range(25):
        a = random_polynomial(rng, ctx)
        b = random_polynomial(rng, ctx)
        i = rng.randint(1, 2)
        lhs = total_derivative(mul(a, b), i, ctx)
        rhs = add(
            mul(total_derivative(a, i, ctx), b),
            mul(a, total_derivative(b, i, ctx)),
        )
        assert lhs == rhs


def test_total_derivatives_commute():
    rng = random.Random(29)
    ctx = JetContext(n=2, m=1, order=2)
    for _ in range(20):
        e = random_polynomial(rng, ctx)
        d12 = total_derivative(total_derivative(e, 1, ctx), 2, ctx)
        d21 = total_derivative(total_derivative(e, 2, ctx), 1, ctx)
        assert d12 == d21


def test_total_derivative_agrees_with_derivative_along_sections():
    # the defining property: on a prolonged section, the total derivative
    # is the base derivative of the composed function
    rng = random.Random(31)
    for n in (1, 2):
        ctx = JetContext(n=n, m=2, order=2)
        for _ in range(12):
            e = random_polynomial(rng, ctx)
            gamma = SectionSpec(
                tuple(random_base_polynomial(rng, ctx) for _ in range(2))
            )
            jets2 = prolong_section(gamma, 2, ctx)
            jets3 = prolong_section(gamma, 3, ctx)
            i = rng.randint(1, n)
            lhs = substitute(total_derivative(e, i, ctx), jets3)
            rhs = partial(substitute(e, jets2), BaseCoord(i))
            assert lhs == rhs


def test_adding_a_total_derivative_into_a_dict_equals_adding_it():
    # scale * d_i e added into the terms of a, then collected, is
    # a + scale * d_i e; values with sin/cos/exp atoms, negative powers and
    # rational coefficients, and scales that keep, flip and break integers
    rng = random.Random(67)
    for n in (1, 2):
        ctx = JetContext(n=n, m=2, order=2)
        for _ in range(12):
            e = add(random_polynomial(rng, ctx), random_laurent(rng, ctx))
            a = add(random_polynomial(rng, ctx), random_laurent(rng, ctx))
            i = rng.randint(1, n)
            d = total_derivative(e, i, ctx)
            for c in (1, -1, Fraction(2, 3)):
                # adding returns the exponent bound that returning carries
                into = dict(a.terms)
                bound = total_derivative(e, i, ctx, into=into, scale=c)
                assert bound == d._bound
                assert _collect(into, bound) == add(a, mul(num(c), d))
                # a target that cancels the sum collects to zero
                into = dict(mul(num(-c), d).terms)
                bound = total_derivative(e, i, ctx, into=into, scale=c)
                assert _collect(into, bound) == ZERO
            into = {}
            assert _collect(into, total_derivative(e, i, ctx, into=into)) == d


def test_the_bound_of_a_chain_of_derivatives_stays_at_its_exponents():
    # every exponent of d^k exp(x1) = exp(x1) is 1, and the chain rule moves
    # none of them, so the bound stays 1
    ctx = JetContext(n=1, m=1, order=1)
    e = func("exp", sym(X1))
    for _ in range(8):
        e = total_derivative(e, 1, ctx)
    assert e == func("exp", sym(X1))
    assert e._bound == 1


def _max_exponent(e):
    return max((abs(k) for _, factors in ordered_terms(e) for _, k in factors), default=0)


@pytest.mark.parametrize("seed", range(30))
def test_derivative_bounds_cover_every_exponent(seed):
    # corpus values, and one times a power of a sin/cos/exp atom, whose own
    # exponent the chain rule moves; three derivatives in a row
    rng = random.Random(seed)
    ctx = JetContext(n=2, m=2, order=2)
    arg = rng.choice((random_polynomial, random_laurent, random_mixed))(rng, ctx)
    atom = pow_(func(rng.choice(("sin", "cos", "exp")), arg), rng.choice((-3, -1, 1, 2)))
    values = [random_polynomial(rng, ctx), random_laurent(rng, ctx), random_mixed(rng, ctx)]
    values.append(add(random_laurent(rng, ctx), mul(atom, random_mixed(rng, ctx))))
    for e in values:
        for _ in range(3):
            for d in gradient(e).values():
                assert d._bound >= _max_exponent(d)
            e = total_derivative(e, rng.randint(1, ctx.n), ctx)
            assert e._bound >= _max_exponent(e)


def test_adding_into_a_dict_raises_as_returning_does():
    ctx = JetContext(n=1, m=1, order=6)
    top = add(sym(X1), sym(JetCoord(1, (1,) * 12)))
    target = dict(sym(U).terms)
    with pytest.raises(OrderOverflow):
        total_derivative(top, 1, ctx, into=target)
    # a bad direction is refused before anything is added
    target = dict(sym(U).terms)
    with pytest.raises(UnknownCoordinate):
        total_derivative(top, 2, ctx, into=target, scale=-1)
    assert target == sym(U).terms


def test_add_total_derivatives_equals_summing_them():
    # head + sum of s * d_i e over the parts, from one term dict, is the sum
    # that add builds; values with sin/cos/exp atoms, negative powers and
    # rational coefficients, and scales that keep, flip and break integers
    rng = random.Random(71)
    for n in (1, 2):
        ctx = JetContext(n=n, m=2, order=2)
        for _ in range(12):
            head = add(random_polynomial(rng, ctx), random_laurent(rng, ctx))
            parts = [
                (add(random_polynomial(rng, ctx), random_laurent(rng, ctx)), rng.randint(1, n), s)
                for s in (1, -1, Fraction(2, 3))
            ]
            expected = add(head, *(mul(num(s), total_derivative(e, i, ctx)) for e, i, s in parts))
            assert add_total_derivatives(head, parts, ctx) == expected
            # a head that cancels the sum collects to zero
            cancel = add(*(mul(num(-s), total_derivative(e, i, ctx)) for e, i, s in parts))
            assert add_total_derivatives(cancel, parts, ctx) == ZERO
            assert add_total_derivatives(head, [], ctx) is head
    # errors propagate, and the head's terms are left as they were
    ctx = JetContext(n=1, m=1, order=6)
    top = add(sym(X1), sym(JetCoord(1, (1,) * 12)))
    before = dict(head.terms)
    with pytest.raises(OrderOverflow):
        add_total_derivatives(head, [(sym(U), 1, 1), (top, 1, -1)], ctx)
    with pytest.raises(UnknownCoordinate):
        add_total_derivatives(head, [(sym(U), 2, 1)], ctx)
    assert head.terms == before


def test_only_expr_and_jets_handle_term_dicts():
    # the term-dict format stays in the kernel: only expr and jets name
    # _collect, only jets passes a dict to total_derivative to add into,
    # and only expr names the tables that pack and unpack monomials
    naming, adding, packing = set(), set(), set()
    for path in sorted(Path(jets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {
                getattr(node, field, None) for field in ("id", "attr", "name", "asname")
            }
            if "_collect" in names:
                naming.add(path.name)
            if names & {"_FACTORS", "_UNIT"}:
                packing.add(path.name)
            if isinstance(node, ast.Call) and any(k.arg == "into" for k in node.keywords):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "total_derivative":
                    adding.add(path.name)
    assert naming == {"expr.py", "jets.py"}
    assert adding == {"jets.py"}
    assert packing == {"expr.py"}


def test_iterated_total_derivative_is_composition():
    rng = random.Random(43)
    ctx = JetContext(n=2, m=1, order=1)
    for _ in range(10):
        e = random_polynomial(rng, ctx)
        J = tuple(rng.randint(1, 2) for _ in range(3))
        step = e
        for i in J:
            step = total_derivative(step, i, ctx)
        assert iterated_total_derivative(e, J, ctx) == step


def test_order_ceiling_guard():
    # order 6 gives ceiling 12: u_{1,...} with twelve 1s does not lift;
    # at order 7 (ceiling 14) it does
    ctx = JetContext(n=1, m=1, order=6)
    top = sym(JetCoord(1, (1,) * 12))
    with pytest.raises(OrderOverflow):
        total_derivative(top, 1, ctx)
    with pytest.raises(UnknownCoordinate):
        total_derivative(top, 2, ctx)
    assert total_derivative(top, 1, ctx.with_order(7)) == sym(JetCoord(1, (1,) * 13))


def test_prolong_section_jets():
    ctx = JetContext(n=1, m=1, order=3)
    x = sym(X1)
    gamma = SectionSpec((pow_(x, 3),))
    jets = prolong_section(gamma, 3, ctx)
    assert jets[JetCoord(1)] == pow_(x, 3)
    assert jets[JetCoord(1, (1,))] == mul(num(3), pow_(x, 2))
    assert jets[JetCoord(1, (1, 1))] == mul(num(6), x)
    assert jets[JetCoord(1, (1, 1, 1))] == num(6)


def test_prolong_section_mixed_partials():
    ctx = JetContext(n=2, m=1, order=2)
    x1, x2 = sym(X1), sym(X2)
    gamma = SectionSpec((mul(pow_(x1, 2), x2),))
    jets = prolong_section(gamma, 2, ctx)
    assert jets[JetCoord(1, (1, 2))] == mul(num(2), x1)
    assert jets[JetCoord(1, (2, 2))] == num(0)


def test_prolong_section_keeps_a_context_that_declares_the_order():
    ctx = JetContext(n=2, m=1, order=3)
    gamma = SectionSpec((mul(sym(X1), sym(X2)),))
    for k in range(4):
        assert prolong_section(gamma, k, ctx).ctx is ctx
    raised = prolong_section(gamma, 5, ctx)
    assert raised.ctx.order == 5 and raised[JetCoord(1, (1, 2))] == num(1)


def test_prolong_section_builds_long_chains_without_recursion():
    # a 3000-long chain of parents runs past the default recursion limit
    # if it is built recursively
    ctx = JetContext(n=1, m=1, order=1)
    e = func("exp", sym(X1))
    jets = prolong_section(SectionSpec((e,)), 3000, ctx)
    assert jets[JetCoord(1, (1,) * 3000)] == e
    assert len(jets) == 3001
    with pytest.raises(OrderOverflow):
        jets[JetCoord(1, (1,) * 3001)]


def test_prolong_section_on_demand_matches_the_eager_formula():
    ctx = JetContext(n=2, m=2, order=3)
    rng = random.Random(11)
    gamma = SectionSpec(
        tuple(random_base_polynomial(rng, ctx, degree=4, terms=4) for _ in range(2))
    )
    eager = {JetCoord(s): comp for s, comp in enumerate(gamma.components, start=1)}
    for k in range(1, 4):
        for s in (1, 2):
            for J in multi_indices(2, k):
                parent = eager[JetCoord(s, J[:-1])]
                eager[JetCoord(s, J)] = partial(parent, BaseCoord(J[-1]))
    jets = prolong_section(gamma, 3, ctx)
    # a deep request builds its chain of parents and nothing else
    deep = JetCoord(2, (1, 2, 2))
    assert jets[deep] == eager[deep]
    chain = {JetCoord(2), JetCoord(2, (1,)), JetCoord(2, (1, 2)), deep}
    assert set(jets) == {JetCoord(1)} | chain
    # then every jet, deepest first, read through [] and get alike
    for c in sorted(eager, key=lambda c: -len(c.J)):
        assert jets[c] == jets.get(c) == eager[c]
    assert len(jets) == len(eager)
    assert jets.get(X1, "none") == "none"


def test_section_validation():
    ctx = JetContext(n=1, m=2, order=1)
    with pytest.raises(DimensionMismatch):
        SectionSpec((sym(X1),)).validate(ctx)
    bad = SectionSpec((sym(X1), sym(U)))
    with pytest.raises(UnknownCoordinate):
        bad.validate(ctx)
    good = SectionSpec((sym(X1), num(0)))
    good.validate(ctx)
    assert coords_in(good.components[0]) == {X1}


def test_a_prolonged_jet_is_collected_once(monkeypatch):
    # a non-diagonal base map: each new jet sums a total derivative per
    # nonzero entry of its inverse-Jacobian column straight into one dict
    calls = []
    real = expr._collect
    for module in (expr, jets):
        monkeypatch.setattr(
            module, "_collect", lambda acc, bound: calls.append(1) or real(acc, bound)
        )
    x, y = sym(X1), sym(X2)
    u, v = sym(U), sym(JetCoord(2))
    ctx = JetContext(n=2, m=2, order=1)
    iso = FiberedIso((add(mul(num(2), x), y), add(x, y)), (add(u, pow_(v, 2)), mul(x, v)))
    pro = prolong_isomorphism(iso, 2, ctx)
    calls.clear()
    first = pro[JetCoord(1, (1,))]
    assert len(calls) == 1
    # inv([[2, 1], [1, 1]]) = [[1, -1], [-1, 2]]: d_1 - d_2 of the seed
    seed = add(u, pow_(v, 2))
    d1, d2 = (total_derivative(seed, i, ctx) for i in (1, 2))
    assert first == add(d1, neg(d2))
    calls.clear()
    pro[JetCoord(2, (1, 2))]  # two links of a chain: a collect each
    assert len(calls) == 2
