"""Expression language: parsing, precedence, diagnostics, rendering."""

import importlib.util
import inspect
import random
import re
import sys
import threading
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import jetvar.problem
from jetvar import (
    DegreeMismatch,
    DslSyntaxError,
    JetContext,
    JetvarError,
    Lagrangian,
    OrderExceeded,
    UnknownIdentifier,
    cartan_form,
    euler_lagrange,
    parse_expr,
    parse_form,
    render_expr,
    dsl,
    render_form,
)
from jetvar import expr as jetvar_expr
from jetvar.coords import BaseCoord, JetCoord
from jetvar.dsl import MAX_NESTING
from jetvar.expr import add, func, mul, neg, num, ordered_terms, partial, pow_, sym
from jetvar.forms import form_add, form_from_terms, max_form_order, scale

from corpus import NESTINGS, nested, opened_length, random_mixed, random_polynomial
from test_golden_render import DENSE_CASES, dense_payload

X = BaseCoord(1)
U = JetCoord(1)
U1 = JetCoord(1, (1,))
U12 = JetCoord(1, (1, 2))
BENCH = Path(__file__).resolve().parent.parent / "bench"


def expr(source, ctx):
    return parse_expr(source, ctx).expr


def test_numbers_and_rationals(ode1):
    assert expr("3", ode1) == num(3)
    assert expr("1/2", ode1) == num(Fraction(1, 2))
    assert expr("-5", ode1) == num(-5)
    assert expr("2^3", ode1) == num(8)


def test_operators_associate_left(ode1):
    assert expr("2-3-4", ode1) == num(-5)
    assert expr("8/4/2", ode1) == num(1)
    # exponentiation too: (2^3)^2, not 2^(3^2)
    assert expr("2^3^2", ode1) == num(64)
    # a minus after ^ takes the power that follows it: u^(-(2^3))
    assert expr("u^-2^3", ode1) == pow_(sym(U), -8)


def test_precedence(ode1):
    u, u1 = sym(U), sym(U1)
    assert expr("-u^2", ode1) == neg(pow_(u, 2))
    assert expr("-2^2", ode1) == num(-4)
    assert expr("2*-u", ode1) == mul(num(-2), u)
    assert expr("1/2*u_{1}^2", ode1) == mul(num(Fraction(1, 2)), pow_(u1, 2))
    assert expr("2*u + 3", ode1) == add(mul(num(2), u), num(3))
    assert expr("(u + 1)^2", ode1) == add(pow_(u, 2), mul(num(2), u), num(1))
    assert expr("u^(-2)", ode1) == pow_(u, -2)
    assert expr("sin(u)^2", ode1) == pow_(func("sin", u), 2)


def test_jet_atoms():
    ctx = JetContext(n=2, m=1, order=2)
    assert expr("u", ctx) == sym(U)
    assert expr("u_{1,2}", ctx) == sym(U12)
    assert expr("x1*x2", ctx) == mul(sym(BaseCoord(1)), sym(BaseCoord(2)))
    with pytest.warns(UserWarning, match="normalized"):
        assert expr("u_{2,1}", ctx) == sym(U12)


def test_named_coordinates():
    ctx = JetContext(n=1, m=2, order=1, base_names=("s",), fiber_names=("a", "b"))
    e = expr("a_{1}*b + s", ctx)
    assert e == add(mul(sym(JetCoord(1, (1,))), sym(JetCoord(2))), sym(BaseCoord(1)))


def test_syntax_errors_carry_spans(ode1):
    with pytest.raises(DslSyntaxError) as err:
        parse_expr("u_{1}^ + 2", ode1)
    assert err.value.span == (7, 8)
    with pytest.raises(DslSyntaxError) as err:
        parse_expr("2u", ode1)
    assert err.value.span == (1, 2)
    with pytest.raises(DslSyntaxError):
        parse_expr("u +", ode1)
    with pytest.raises(DslSyntaxError):
        parse_expr("(u + 1", ode1)
    with pytest.raises(DslSyntaxError):
        parse_expr("u ? 1", ode1)


@pytest.mark.parametrize(
    "source, span",
    [("²*u_{1}", (0, 1)), ("u_{¹}^2", (3, 4)), ("u + ٣", (4, 5))],
    ids=["superscript", "superscript-index", "arabic-indic"],
)
def test_only_ascii_digits_make_numbers(ode1, source, span):
    with pytest.raises(DslSyntaxError, match="unexpected character") as err:
        parse_expr(source, ode1)
    assert err.value.span == span


def test_over_long_integer_literal_is_a_syntax_error(ode1):
    limit = 4300
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert expr("9" * limit, ode1) == num(int("9" * limit))
        with pytest.raises(DslSyntaxError, match=f"{limit + 1} digits") as err:
            parse_expr("2*" + "9" * (limit + 1) + "*u_{1}^2", ode1)
        assert err.value.span == (2, limit + 3)
        with pytest.raises(DslSyntaxError, match="digits") as err:
            parse_expr("u_{" + "0" * limit + "1}", ode1)
        assert err.value.span == (3, limit + 4)
    finally:
        sys.set_int_max_str_digits(previous)


def test_identifier_errors(ode1):
    with pytest.raises(UnknownIdentifier):
        parse_expr("q + 1", ode1)
    with pytest.raises(UnknownIdentifier) as err:
        parse_expr("u_{3}", ode1)
    assert err.value.span == (3, 4)
    with pytest.raises(OrderExceeded):
        parse_expr("u_{1,1}", ode1)
    with pytest.raises(DslSyntaxError):
        parse_expr("x1_{1}", ode1)


_X = JetContext(n=1, m=1, order=1, base_names=("x",), fiber_names=("u",))
_XY = JetContext(n=2, m=1, order=2, base_names=("x", "y"), fiber_names=("u",))
_NORMALIZED = "jet index (2, 1) normalized to (1, 2)"


_JET_INDEX_CASES = [
    ("u_{0}", _X, False, UnknownIdentifier, "no base direction 0 (n = 1)", (3, 4), None),
    ("u_{2}", _X, False, UnknownIdentifier, "no base direction 2 (n = 1)", (3, 4), None),
    ("u_{3,0}", _XY, False, UnknownIdentifier, "no base direction 3 (n = 2)", (3, 4), None),
    ("u_{2,0}", _XY, False, UnknownIdentifier, "no base direction 0 (n = 2)", (5, 6), None),
    ("u_{0,x}", _X, False, UnknownIdentifier, "no base direction 0 (n = 1)", (3, 4), None),
    ("u_{1,x}", _X, False, DslSyntaxError, "expected a base index, found 'x'", (5, 6), None),
    ("u_{1,}", _X, False, DslSyntaxError, "expected a base index, found '}'", (5, 6), None),
    ("u_{}", _X, False, DslSyntaxError, "expected a base index, found '}'", (3, 4), None),
    ("u_{1", _X, False, DslSyntaxError, "expected '}', found 'end of input'", (4, 4), None),
    ("u_{1 2}", _X, False, DslSyntaxError, "expected '}', found '2'", (5, 6), None),
    ("x_{1}", _X, False, DslSyntaxError, "base variable 'x' carries no jet index", (0, 1), None),
    ("y_{1}", _XY, True, DslSyntaxError, "base variable 'y' carries no jet index", (0, 1), None),
    ("q_{1}", _X, False, UnknownIdentifier, "unknown identifier 'q'", (0, 1), None),
    ("dq_{1}", _X, True, UnknownIdentifier, "unknown identifier 'dq'", (0, 2), None),
    ("sin_{1}(u)", _X, False, DslSyntaxError, "expected '(', found '_'", (3, 4), None),
    ("du_{1}", _X, True, None, None, None, None),
    ("du_{1}", _X, False, DslSyntaxError, "differential 'du' is not a scalar expression", (0, 2), None),
    ("dx_{1}", _X, True, DslSyntaxError, "base differential 'dx' carries no jet index", (0, 2), None),
    ("u_{1,1}", _X, False, OrderExceeded, "jet index of length 2 exceeds declared order 1", (0, 7), None),
    ("u _ { 1 , 1 }", _X, False, OrderExceeded, "jet index of length 2 exceeds declared order 1", (0, 13), None),
    ("du_{1,1}", _X, True, OrderExceeded, "jet index of length 2 exceeds declared order 1", (0, 8), None),
    ("u_{1,2,2}", _XY, False, OrderExceeded, "jet index of length 3 exceeds declared order 2", (0, 9), None),
    ("u_{2,1}", _XY, False, None, None, None, _NORMALIZED),
    ("u _ { 2 , 1 }", _XY, False, None, None, None, _NORMALIZED),
    ("du_{2,1}", _XY, True, None, None, None, _NORMALIZED),
    # a jet coordinate where an operator is due is quoted by its name
    ("u_{1}_{1}", _X, False, DslSyntaxError, "unexpected trailing input '_'", (5, 6), None),
    ("u u_{1}", _X, False, DslSyntaxError, "unexpected trailing input 'u'", (2, 3), None),
    ("(u u_{1})", _X, False, DslSyntaxError, "expected ')', found 'u'", (3, 4), None),
    ("u_{1}2", _X, False, DslSyntaxError, "unexpected trailing input '2'", (5, 6), None),
]


@pytest.mark.parametrize(
    "source, ctx, forms, error, message, span, warned",
    _JET_INDEX_CASES,
    ids=[case[0] + (" form" if case[2] else "") for case in _JET_INDEX_CASES],
)
def test_jet_index_diagnostics(source, ctx, forms, error, message, span, warned):
    # class, message and span of each error, and the one warning of an
    # unsorted index, left to right as the index reads
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            (parse_form if forms else parse_expr)(source, ctx)
            raised = None
        except Exception as exc:  # compared with the expected class below
            raised = exc
    assert [str(w.message) for w in caught] == ([warned] if warned else [])
    if error is None:
        assert raised is None
    else:
        assert type(raised) is error
        assert (raised.message, raised.span) == (message, span)


def test_a_jet_coordinate_is_one_token():
    assert [tok[0] for tok in dsl.tokenize("u_{1,2}*v")] == ["JET", "OP", "IDENT", "END"]
    # spaces may stand between the parts of an index, as between tokens
    assert [tok[0] for tok in dsl.tokenize("u _ { 1 , 2 } * v")] == ["JET", "OP", "IDENT", "END"]


def test_a_base_name_is_memoized_by_index(monkeypatch):
    ctx = JetContext(n=2, m=1, order=1, base_names=("s", "t"))
    first = parse_expr("t^2 + s*t*u", ctx).expr
    built = []
    for module in (dsl, jetvar_expr):
        monkeypatch.setattr(module, "BaseCoord", lambda *args: built.append(args) or BaseCoord(*args))
    again = parse_expr("t^2 + s*t*u", ctx).expr
    assert again == first and built == []
    assert render_expr(again, ctx) == "s*t*u + t^2"


def test_a_product_of_single_terms_is_built_as_one_value(monkeypatch):
    ctx = JetContext(n=1, m=1, order=1, base_names=("x",))
    products = []
    pairwise = jetvar_expr._mul2
    monkeypatch.setattr(jetvar_expr, "_mul2", lambda a, b: products.append(1) or pairwise(a, b))
    value = expr("3*x^2*u_{1}", ctx)
    assert products == []
    assert value == pairwise(pairwise(num(3), pow_(sym(X), 2)), sym(U1))


def _bench_expressions(monkeypatch, tmp_path) -> list:
    """(source, context, form mode) of every expression that loading the
    problem files of the benchmark's pools parses."""
    spec = importlib.util.spec_from_file_location("bench_problems", BENCH / "problems.py")
    problems = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_problems", problems)  # for its dataclass
    spec.loader.exec_module(problems)
    seen = []

    def recording(parse, form):
        def recorded(source, ctx):
            seen.append((source, ctx, form))
            return parse(source, ctx)

        return recorded

    monkeypatch.setattr(jetvar.problem, "parse_expr", recording(parse_expr, False))
    monkeypatch.setattr(jetvar.problem, "parse_form", recording(parse_form, True))
    pools = problems.verdict_pool() + problems.cli_pool() + problems.dense_ladder(1)
    for k, item in enumerate(pools):
        if item.text is not None:
            path = tmp_path / f"{k}.ini"
            path.write_text(item.text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    jetvar.load_problem(str(path))
                except JetvarError:  # a malformed file of the CLI pool
                    pass
    monkeypatch.undo()
    return seen


def _outcome(parse, source, ctx):
    """The value of source, or the class and message of its error, and
    the warnings parsing it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(source, ctx)
            result = result.expr if isinstance(result, dsl.ParsedExpr) else result
        except JetvarError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def test_spaces_inside_jet_indices_change_no_bench_value(monkeypatch, tmp_path):
    seen = _bench_expressions(monkeypatch, tmp_path)
    assert len(seen) > 700
    spaced = 0
    for source, ctx, form in seen:
        parse = parse_form if form else parse_expr
        respaced = re.sub(r"([_{,}])", r" \1 ", source)
        spaced += respaced != source
        assert _outcome(parse, respaced, ctx) == _outcome(parse, source, ctx), source
    assert spaced > 500


def test_exponent_must_be_integer(ode1):
    with pytest.raises(DslSyntaxError):
        parse_expr("u^(1/2)", ode1)
    with pytest.raises(DslSyntaxError):
        parse_expr("u^u", ode1)


def test_scalar_mode_rejects_differentials(ode1):
    with pytest.raises(DslSyntaxError):
        parse_expr("du", ode1)
    with pytest.raises(DslSyntaxError):
        parse_expr("u*dx1", ode1)


def test_form_literals(ode1):
    du = parse_form("du", ode1)
    assert du.degree == 1 and du.terms == {(JetCoord(1),): num(1)}
    scaled = parse_form("u*dx1", ode1)
    assert scaled.terms == {(BaseCoord(1),): sym(U)}
    zero = parse_form("dx1 ^ dx1", ode1)
    assert not zero.terms
    scalar = parse_form("u^2", ode1)
    assert scalar.degree == 0 and scalar.terms == {(): pow_(sym(U), 2)}
    # ^ binds tighter than *, so the power applies before scaling
    mixed = parse_form("u^2*dx1", ode1)
    assert mixed.terms == {(BaseCoord(1),): pow_(sym(U), 2)}


def test_form_wedges():
    ctx = JetContext(n=2, m=1, order=1)
    two = parse_form("du ^ dx1 + dx1 ^ du", ctx)
    assert not two.terms
    area = parse_form("u*dx1 ^ dx2", ctx)
    assert area.degree == 2
    assert area.terms == {(BaseCoord(1), BaseCoord(2)): sym(U)}
    jet = parse_form("du_{1} ^ dx2", ctx)
    assert jet.terms == {(JetCoord(1, (1,)), BaseCoord(2)): num(1)}
    assert max_form_order(jet) == 1


def test_form_mode_errors(ode1):
    with pytest.raises(DslSyntaxError, match="use \\^"):
        parse_form("du*dx1", ode1)
    with pytest.raises(DslSyntaxError):
        parse_form("1/du", ode1)
    with pytest.raises(DslSyntaxError):
        parse_form("sin(du)", ode1)
    with pytest.raises(DslSyntaxError):
        parse_form("u + du", ode1)
    with pytest.raises(DslSyntaxError):
        parse_form("dx1_{1}", ode1)
    # forms add pairwise: the mismatch of the first + comes before the
    # scalar of the second
    with pytest.raises(DegreeMismatch):
        parse_form("du + du^dx1 + x1", ode1)
    with pytest.raises(DslSyntaxError, match="use \\^") as err:
        parse_form("dx*du*x", JetContext(n=1, m=1, order=1, base_names=("x",)))
    assert err.value.span == (2, 3)


def test_declared_names_shadow_differential_prefix():
    # a fiber variable legitimately named like a differential
    ctx = JetContext(n=1, m=1, order=1, base_names=("x",), fiber_names=("du",))
    assert expr("du", ctx) == sym(U)
    assert parse_form("du_{1}", ctx).degree == 0


@pytest.mark.parametrize("openers, atom", list(NESTINGS.values()), ids=list(NESTINGS))
def test_nesting_up_to_limit(ode1, openers, atom):
    e = expr(nested(openers, atom, MAX_NESTING), ode1)
    assert expr(render_expr(e, ode1), ode1) == e
    d = partial(e, U1)
    assert expr(render_expr(d, ode1), ode1) == d
    with pytest.raises(DslSyntaxError, match="nesting") as err:
        expr(nested(openers, atom, MAX_NESTING + 1), ode1)
    assert err.value.span[0] == opened_length(openers, MAX_NESTING)


def test_nesting_costs_at_most_five_frames_a_level(ode1):
    # MAX_NESTING rests on the stack depth a level of nesting costs; a fresh
    # thread parses each kind at the limit with five frames a level to spare
    parsed = []

    def parse_at_limit():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 5 * MAX_NESTING + 20)
        try:
            for openers, atom in NESTINGS.values():
                parsed.append(expr(nested(openers, atom, MAX_NESTING), ode1))
        finally:
            sys.setrecursionlimit(limit)

    thread = threading.Thread(target=parse_at_limit)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(parsed) == len(NESTINGS)


def test_readme_examples_parse(plane1):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Expression DSL", 1)[1]
    block = section.split("```", 2)[1]
    examples = [line for line in block.splitlines() if line.strip()]
    assert examples
    for line in examples:
        parse_form(line, plane1)


def test_render_expr_round_trip_corpus():
    rng = random.Random(131)
    ctx = JetContext(n=2, m=2, order=2)
    for _ in range(200):
        e = random_mixed(rng, ctx)
        assert expr(render_expr(e, ctx), ctx) == e


def test_render_expr_edge_cases(ode1):
    cases = [
        num(0),
        num(Fraction(-3, 7)),
        neg(sym(U)),
        pow_(sym(U), -2),
        add(neg(pow_(sym(U), 2)), num(1)),
        mul(num(Fraction(1, 2)), sym(U), pow_(sym(U1), 3)),
        func("sin", add(sym(U), num(-1))),
    ]
    for e in cases:
        assert expr(render_expr(e, ode1), ode1) == e


def test_render_form_round_trip():
    rng = random.Random(137)
    ctx = JetContext(n=2, m=1, order=1)
    coords = [BaseCoord(1), BaseCoord(2), JetCoord(1), JetCoord(1, (1,)), JetCoord(1, (2,))]
    gens = [(c,) for c in coords]
    for _ in range(40):
        picked = rng.sample(gens, rng.randint(1, 3))
        pairs = [
            (g, random_polynomial(rng, ctx, order=1, degree=2, terms=2))
            for g in picked
        ]
        form = form_from_terms(ctx, 1, pairs)
        again = parse_form(render_form(form, ctx), ctx)
        assert again.terms == form.terms
        assert again.degree == form.degree


def test_render_form_sum_coefficients(ode1):
    form = form_from_terms(ode1, 1, [((BaseCoord(1),), add(sym(U), num(1)))])
    text = render_form(form, ode1)
    assert parse_form(text, ode1).terms == form.terms


def test_render_form_of_a_zero_form_is_zero(plane1):
    dx = form_from_terms(plane1, 1, [((BaseCoord(1),), sym(U))])
    zeros = [form_from_terms(plane1, degree, []) for degree in (0, 1, 2)]
    for form in zeros + [form_add(dx, scale(dx, -1))]:
        assert not form.terms
        assert render_form(form, plane1) == "0"


def test_parsed_expr_holds_the_value_alone(ode1):
    parsed = parse_expr(" u + 1 ", ode1)
    assert parsed.expr == add(sym(U), num(1))
    assert parsed.__slots__ == ("expr",)


def reference_render(e, ctx):
    """`render_expr` without a text table: each factor, and each atom's
    argument, is rendered again wherever it occurs."""

    def factor(atom, k):
        if isinstance(atom, tuple):
            base = f"{atom[0]}({reference_render(atom[1], ctx)})"
        else:
            base = ctx.coord_name(atom)
        if k == 1:
            return base
        return f"{base}^({k})" if k < 0 else f"{base}^{k}"

    parts = []
    for coeff, factors in ordered_terms(e):
        if not factors:
            parts.append(str(coeff))
            continue
        word = "*".join(factor(atom, k) for atom, k in factors)
        parts.append(word if coeff == 1 else "-" + word if coeff == -1 else f"{coeff}*{word}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def nested_sin_lagrangian(depth, ctx):
    return Lagrangian(expr("sin(" * depth + "u_{1}" + ")" * depth, ctx), ctx, 1)


def atom_arguments(e, into=None):
    """Every argument of a sin/cos/exp atom in e, inner ones included."""
    into = set() if into is None else into
    for _, factors in ordered_terms(e):
        for atom, _ in factors:
            if isinstance(atom, tuple) and atom[1] not in into:
                into.add(atom[1])
                atom_arguments(atom[1], into)
    return into


def test_render_matches_unmemoized_reference(ode1, monkeypatch):
    lam = nested_sin_lagrangian(10, ode1)
    for e in (lam.L,) + euler_lagrange(lam).eps:
        assert render_expr(e, ode1) == reference_render(e, ode1)

    # every value the golden file renders, its Euler-Lagrange components,
    # Helmholtz residuals, Cartan form coefficients and Tonti Lagrangian,
    # rendered again with each expression going through the reference
    got = [dense_payload(name) for name in DENSE_CASES]
    monkeypatch.setattr(dsl, "_render_sum", lambda e, ctx, texts: reference_render(e, ctx))
    assert [dense_payload(name) for name in DENSE_CASES] == got


def test_render_takes_each_atom_argument_once(ode1, monkeypatch):
    counts = Counter()
    real = dsl._render_sum

    def counting(e, ctx, texts):
        counts[e] += 1
        return real(e, ctx, texts)

    monkeypatch.setattr(dsl, "_render_sum", counting)
    lam = nested_sin_lagrangian(10, ode1)
    (el,) = euler_lagrange(lam).eps
    render_expr(el, ode1)
    arguments = atom_arguments(el)
    assert len(arguments) == 10
    assert counts == Counter({el: 1, **{a: 1 for a in arguments}})

    # one memo serves every coefficient of a form
    counts.clear()
    theta = cartan_form(lam)
    render_form(theta, ode1)
    arguments = set()
    for coeff in theta.terms.values():
        atom_arguments(coeff, arguments)
    assert arguments and all(counts[a] == 1 for a in arguments)


def distinct_factors(values) -> set:
    """The distinct (atom, exponent) factors of the values and of every
    sin/cos/exp argument inside them."""
    values = list(values)
    arguments = set()
    for e in values:
        atom_arguments(e, arguments)
    return {f for e in values + list(arguments) for _, fs in ordered_terms(e) for f in fs}


def test_render_takes_each_factor_once(monkeypatch):
    calls = Counter()
    real = dsl._render_factor

    def counting(f, ctx, texts):
        calls[f] += 1
        return real(f, ctx, texts)

    monkeypatch.setattr(dsl, "_render_factor", counting)
    # a dense Lagrangian, with a function atom under two exponents and a
    # negative power
    ctx = JetContext(n=2, m=1, order=2, base_names=("x", "y"), fiber_names=("u",))
    source = (
        "(u_{1,1}+u_{2,2})^2*(1+u_{1}^2+u_{2}^2)^2 + sin(x)*u^3"
        " + cos(u*u_{1})^2*u_{2}^(-1) + cos(u*u_{1})"
    )
    lam = Lagrangian(expr(source, ctx), ctx, 2)
    (el,) = euler_lagrange(lam).eps
    for e in (lam.L, el):
        calls.clear()
        render_expr(e, ctx)
        factors = distinct_factors([e])
        occurrences = sum(len(fs) for _, fs in ordered_terms(e))
        assert len(calls) == len(factors) < occurrences
        assert set(calls.values()) == {1}

    # one table serves every coefficient of a form
    calls.clear()
    theta = cartan_form(lam)
    render_form(theta, ctx)
    factors = distinct_factors(theta.terms.values())
    assert len(calls) == len(factors)
    assert set(calls.values()) == {1}
