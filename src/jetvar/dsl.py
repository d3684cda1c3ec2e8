"""Expression language: parsing and rendering.

Grammar (scalar mode); the parser has one method per production:

    sum       := product (('+' | '-') product)*
    product   := power (('*' | '/') power)*
    power     := unary ('^' unary)*             left-associative; integer exponents
    unary     := '-' power | primary
    primary   := INTEGER | FUNC '(' sum ')' | '(' sum ')' | IDENT jet-index?
    jet-index := '_' '{' INTEGER (',' INTEGER)* '}'

So `^` binds tighter than unary minus and associates left: `-2^2` is -4,
`u^2^3` is u^6 and `u^-2^3` is u^(-8).  An INTEGER is a run of ASCII
digits; an IDENT is a letter followed by letters or digits, and must be a
declared coordinate name or a FUNC (sin, cos, exp).  Jet indices are
written `u_{1,2}` after a fiber name and are normalized to sorted order
(with a warning when given unsorted).  Parentheses, function calls and unary
minus signs nest at most MAX_NESTING levels deep.  Rational literals are
spelled as quotients, `1/2`.  In form mode the additional atoms `dx1`, `du`,
`du_{1,2}` denote basis one-forms (`d` followed by a declared name), `^`
between forms is the wedge product, and `*` scales a form by a scalar.

The tokenizer lexes an IDENT and a well-formed jet-index after it as one
JET token, spaces allowed wherever they may stand between tokens, and the
parser reads the indices from that token; it walks the tokens of a
malformed jet-index only to report its first error.

Rendering produces strings that re-parse to the same canonical value.
"""

from __future__ import annotations

import re
import warnings

from .coords import FUNCTIONS, BaseCoord, JetContext, JetCoord
from .errors import DslSyntaxError, ExpansionBudget, OrderExceeded, UnknownIdentifier
from .expr import (
    _ATOMS,
    ONE,
    Expr,
    _base,
    _rows,
    add,
    func,
    is_constant,
    jet,
    mul,
    neg,
    num,
    pow_,
)
from .forms import (
    DiffForm,
    W,
    form_add,
    form_from_terms,
    gen_key,
    scale,
    wedge,
)

# Deeper nesting would exhaust the interpreter stack while parsing or
# rendering; each level costs at most five Python frames.
MAX_NESTING = 100


class ParsedExpr:
    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr


# --- tokenizer ----------------------------------------------------------------

# after spaces: a number; a run of letters and digits, with the body of a
# well-formed jet index when one follows (spaces allowed between its parts,
# as between tokens); an operator; or any other character.  `[0-9]` because
# `\d` and str.isdigit also take digits int() rejects, such as ²
_TOKEN = re.compile(
    r"\s*(?:([0-9]+)|([^\W_]+)(?:\s*_\s*\{(\s*[0-9]+(?:\s*,\s*[0-9]+)*\s*)\})?"
    r"|([-+*/^(){},_])|(\S))"
)
_KINDS = (None, "NUM", "IDENT", "JET", "OP")


def tokenize(source: str) -> list:
    """The tokens of source as (kind, text, start, end, index), kind NUM,
    IDENT, JET or OP, closed by an END token whose text is 'end of input'.
    A name starts with a letter.  A name followed by a well-formed jet index
    is one JET token: its text and span are the name's, and index is its
    regex match, whose group 3 is the body of the index; index is None on
    every other token."""
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastindex
        start, end = match.span(2 if kind == 3 else kind)
        if kind == 5 or 1 < kind < 4 and not source[start].isalpha():
            raise DslSyntaxError(f"unexpected character {source[start]!r}", (start, start + 1))
        if kind == 3:
            tokens.append(("JET", match[2], start, end, match))
        else:
            tokens.append((_KINDS[kind], match[kind], start, end, None))
    tokens.append(("END", "end of input", len(source), len(source), None))
    return tokens


def _integer(tok: tuple) -> int:
    """The value of a NUM token; a literal past the interpreter's limit on
    digits converted to int is a syntax error at the token."""
    text = tok[1]
    try:
        return int(text)
    except ValueError:
        raise DslSyntaxError(
            f"integer literal of {len(text)} digits is too long", tok[2:4]
        ) from None


# --- parser -------------------------------------------------------------------


def _negate(value):
    return scale(value, num(-1)) if isinstance(value, DiffForm) else neg(value)


def _as_form(ctx: JetContext, value) -> DiffForm:
    """value, a 0-form when it is a scalar."""
    if isinstance(value, DiffForm):
        return value
    return form_from_terms(ctx, 0, [((), value)])


class _Parser:
    def __init__(self, source: str, ctx: JetContext, allow_forms: bool):
        self.ctx = ctx
        self.allow_forms = allow_forms
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    def accept(self, ops: str = ""):
        """The next token, consumed, if it is one of the operator characters
        ops, or whatever it is when ops is empty; None otherwise."""
        tok = self.tokens[self.pos]
        if ops and tok[1] not in ops:
            return None
        self.pos += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.accept(text)
        if tok is None:
            self.fail(text)
        return tok

    def fail(self, text: str):
        """Raise: text was expected where the next token is."""
        tok = self.tokens[self.pos]
        raise DslSyntaxError(f"expected {text!r}, found {tok[1]!r}", tok[2:4])

    def enter(self, tok: tuple) -> None:
        """One more level of nesting opens at tok."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok[2:4])

    def parse(self):
        value = self.sum()
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            raise DslSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2:4])
        return value

    def sum(self):
        """sum := product (('+' | '-') product)*.  Forms add pairwise, so a
        degree mismatch is reported before anything later in the sum."""
        first = self.product()
        is_form = isinstance(first, DiffForm)
        terms = [first]
        while op := self.accept("+-"):
            term = self.product()
            if isinstance(term, DiffForm) != is_form:
                raise DslSyntaxError("cannot add a scalar and a form", op[2:4])
            if op[1] == "-":
                term = _negate(term)
            if is_form:
                terms[0] = form_add(terms[0], term)
            else:
                terms.append(term)
        return add(*terms) if len(terms) > 1 else terms[0]

    def product(self):
        """product := power (('*' | '/') power)*.  At most one factor is a
        form, scaled by the product of the others; a divisor is inverted at
        its '/'."""
        first = self.power()
        form, factors = (first, []) if isinstance(first, DiffForm) else (None, [first])
        while op := self.accept("*/"):
            factor = self.power()
            if not isinstance(factor, DiffForm):
                factors.append(factor if op[1] == "*" else pow_(factor, -1))
            elif op[1] == "/":
                raise DslSyntaxError("cannot divide by a form", op[2:4])
            elif form is not None:
                raise DslSyntaxError("use ^ to combine two forms", op[2:4])
            else:
                form = factor
        if not factors:
            return form
        scalar = mul(*factors) if len(factors) > 1 else factors[0]
        return scalar if form is None else scale(form, scalar)

    def power(self):
        """power := unary ('^' unary)*, left-associative; the wedge product
        when either side is a form."""
        value = self.unary()
        while op := self.accept("^"):
            right = self.unary()
            if isinstance(value, DiffForm) or isinstance(right, DiffForm):
                value = wedge(_as_form(self.ctx, value), _as_form(self.ctx, right))
            elif not is_constant(right) or right.value.denominator != 1:
                raise DslSyntaxError("exponent must be an integer", op[2:4])
            else:
                value = pow_(value, int(right.value))
        return value

    def unary(self):
        """unary := '-' power | primary"""
        tok = self.accept("-")
        if tok is None:
            return self.primary()
        self.enter(tok)
        value = self.power()
        self.depth -= 1
        return _negate(value)

    def primary(self):
        """primary := INTEGER | FUNC '(' sum ')' | '(' sum ')' | identifier"""
        tok = self.accept()
        kind, text, start, end, index = tok
        if kind == "NUM":
            return num(_integer(tok))
        if text == "(" or text in FUNCTIONS:
            if index:  # the '(' is due where the index opens
                underscore = index.string.index("_", end)
                raise DslSyntaxError("expected '(', found '_'", (underscore, underscore + 1))
            if text != "(":
                self.expect("(")
            self.enter(tok)
            inner = self.sum()
            self.expect(")")
            self.depth -= 1
            if text == "(":
                return inner
            if isinstance(inner, DiffForm):
                raise DslSyntaxError(f"{text} takes a scalar argument", (start, end))
            return func(text, inner)
        if kind == "IDENT" or kind == "JET":
            return self.identifier(tok)
        raise DslSyntaxError(f"unexpected {text!r}", (start, end))

    def identifier(self, tok: tuple):
        """A declared name, or in form mode `d` before one: a basis one-form."""
        _, name, start, end, index = tok
        ctx = self.ctx
        span = (start, end)
        if name in ctx.base_names:
            if index or self.accept("_"):
                raise DslSyntaxError(f"base variable {name!r} carries no jet index", span)
            return _base(ctx.base_names.index(name) + 1)
        if name in ctx.fiber_names:
            return jet(ctx.fiber_names.index(name) + 1, self._jet_index(tok))
        rest = name[1:]
        if name.startswith("d") and rest:
            if not self.allow_forms:
                raise DslSyntaxError(
                    f"differential {name!r} is not a scalar expression", span
                )
            if rest in ctx.base_names:
                if index or self.accept("_"):
                    raise DslSyntaxError(
                        f"base differential {name!r} carries no jet index", span
                    )
                i = ctx.base_names.index(rest) + 1
                return DiffForm(ctx, 1, {(BaseCoord(i),): ONE})
            if rest in ctx.fiber_names:
                sigma = ctx.fiber_names.index(rest) + 1
                J = self._jet_index(tok)
                return DiffForm(ctx, 1, {(JetCoord(sigma, J),): ONE})
        raise UnknownIdentifier(f"unknown identifier {name!r}", span)

    def _jet_index(self, tok: tuple) -> tuple:
        """The indices of the jet index of a fiber name's token, sorted; ()
        for a name without one."""
        index = tok[4]
        if index is None:
            if self.accept("_"):
                self._malformed_index()
            return ()
        try:
            given = tuple(map(int, index[3].split(",")))
        except ValueError:  # a run of digits too long to convert
            given = (0,)
        J = tuple(sorted(given))
        if J[0] < 1 or J[-1] > self.ctx.n:  # raise at the first bad index
            for match in _TOKEN.finditer(index.string, index.start(3), index.end(3)):
                if match.lastindex == 1:
                    self._check_index(("NUM", match[1], *match.span(1), None))
        if len(J) > self.ctx.order:
            raise OrderExceeded(
                f"jet index of length {len(J)} exceeds declared order {self.ctx.order}",
                (tok[2], index.end()),
            )
        if J != given:
            warnings.warn(f"jet index {given} normalized to {J}", stacklevel=3)
        return J

    def _malformed_index(self):
        """Raise the first error, from the left, of the jet index after a
        name token: a well-formed one lexes with its name as a JET token."""
        self.expect("{")
        while True:
            tok = self.accept()
            if tok[0] != "NUM":
                raise DslSyntaxError(f"expected a base index, found {tok[1]!r}", tok[2:4])
            self._check_index(tok)
            if not self.accept(","):
                break
        self.fail("}")

    def _check_index(self, tok: tuple) -> None:
        """Raise unless a NUM token in a jet index names a base direction."""
        value = _integer(tok)
        if not 1 <= value <= self.ctx.n:
            raise UnknownIdentifier(f"no base direction {value} (n = {self.ctx.n})", tok[2:4])


def parse_expr(source: str, ctx: JetContext) -> ParsedExpr:
    """Parse a scalar expression in the declared context."""
    return ParsedExpr(_Parser(source, ctx, allow_forms=False).parse())


def parse_form(source: str, ctx: JetContext) -> DiffForm:
    """Parse a differential-form literal; a scalar result is returned as a
    0-form."""
    return _as_form(ctx, _Parser(source, ctx, allow_forms=True).parse())


# --- rendering ----------------------------------------------------------------


def render_expr(e: Expr, ctx: JetContext) -> str:
    """Render to the expression grammar in canonical order; re-parses to an
    equal Expr.  Each distinct factor is rendered once per call."""
    return _render_sum(e, ctx, {})


def _render_sum(e: Expr, ctx: JetContext, texts: dict) -> str:
    """`render_expr` with `texts`, the table of text already rendered in
    this call: each factor's text keyed by its (atom id, exponent) pair as
    the kernel's canonical rows hold it, and each sin/cos/exp argument's
    text keyed by the argument, so each is rendered once however often it
    occurs."""
    return _join_signed([_render_term(c, factors, ctx, texts) for c, factors in _rows(e)])


def _join_signed(parts: list) -> str:
    """Rendered terms joined into a sum, a term's leading '-' turned into
    the operator before it; no terms render as 0."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _render_term(coeff, factors: tuple, ctx: JetContext, texts: dict) -> str:
    if not factors:
        return _coefficient_text(coeff)
    rendered = "*".join([texts.get(f) or _render_factor(f, ctx, texts) for f in factors])
    if coeff == 1:
        return rendered
    if coeff == -1:
        return "-" + rendered
    return f"{_coefficient_text(coeff)}*{rendered}"


def _coefficient_text(coeff) -> str:
    """The text of an int or Fraction; a number past the interpreter's
    limit on digits converted to text exceeds the expansion budget."""
    try:
        return str(coeff)
    except ValueError:
        raise ExpansionBudget("a coefficient has too many digits to render") from None


def _render_factor(f: tuple, ctx: JetContext, texts: dict) -> str:
    """The text of factor f, an (atom id, exponent) pair, entered in texts."""
    a, k = f
    atom = _ATOMS[a]
    if isinstance(atom, tuple):
        name, arg = atom
        inner = texts.get(arg)
        if inner is None:
            inner = texts[arg] = _render_sum(arg, ctx, texts)
        text = f"{name}({inner})"
    else:
        text = ctx.coord_name(atom)
    if k != 1:
        text += f"^({k})" if k < 0 else f"^{k}"
    texts[f] = text
    return text


def _render_generator(g, ctx: JetContext) -> str:
    if isinstance(g, W):
        return "w_" + ctx.coord_name(JetCoord(g.sigma, g.J))
    return "d" + ctx.coord_name(g)


def render_form(form: DiffForm, ctx: JetContext) -> str:
    """Render a form; raw-basis output re-parses to an equal form, while
    contact generators (from transient representations) render as w_u_{J}
    for display only."""
    texts: dict = {}
    parts = []
    for gens in sorted(form.terms, key=lambda gs: tuple(map(gen_key, gs))):
        coeff = form.terms[gens]
        word = " ^ ".join(_render_generator(g, ctx) for g in gens)
        if not gens:
            parts.append(_render_sum(coeff, ctx, texts))
            continue
        if coeff == ONE:
            parts.append(word)
        elif coeff == neg(ONE):
            parts.append("-" + word)
        elif len(coeff.terms) > 1:
            parts.append(f"({_render_sum(coeff, ctx, texts)})*{word}")
        else:
            parts.append(f"{_render_sum(coeff, ctx, texts)}*{word}")
    return _join_signed(parts)
