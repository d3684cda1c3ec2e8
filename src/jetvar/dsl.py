"""Expression language: parsing and rendering.

Grammar (scalar mode):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' primary)*          integer exponents only
    primary := INTEGER | IDENT jet-index? | FUNC '(' expr ')' | '(' expr ')'

Identifiers are the declared coordinate names; jet indices are written
`u_{1,2}` after a fiber name and are normalized to sorted order (with a
warning when given unsorted).  Parentheses, function calls and unary minus
signs nest at most MAX_NESTING levels deep.  Rational literals are spelled as quotients,
`1/2`.  In form mode the additional atoms `dx1`, `du`, `du_{1,2}` denote
basis one-forms (`d` followed by a declared name), `^` between forms is the
wedge product, and `*` scales a form by a scalar.

Rendering produces strings that re-parse to the same canonical value.
"""

from __future__ import annotations

import warnings

from .coords import FUNCTIONS, BaseCoord, JetContext, JetCoord
from .errors import DslSyntaxError, ExpansionBudget, OrderExceeded, UnknownIdentifier
from .expr import (
    _ATOMS,
    ONE,
    Expr,
    _rows,
    add,
    div,
    func,
    is_constant,
    max_jet_order,
    mul,
    neg,
    num,
    pow_,
    sym,
)
from .forms import (
    DX,
    DY,
    DiffForm,
    form_add,
    function_form,
    gen_key,
    max_form_order,
    scale,
    wedge,
)

# Deeper nesting would exhaust the interpreter stack while parsing or
# rendering; each level costs a few Python frames.
MAX_NESTING = 100


class ParsedExpr:
    __slots__ = ("expr", "source", "span")

    def __init__(self, expr: Expr, source: str, span: tuple):
        self.expr, self.source, self.span = expr, source, span


# --- tokenizer ----------------------------------------------------------------


class Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind = kind  # NUM | IDENT | OP | END
        self.text, self.start, self.end = text, start, end


_OPS = set("+-*/^(){},_")
_DIGITS = set("0123456789")  # str.isdigit also takes digits int() rejects


def tokenize(source: str) -> list:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            tokens.append(Token("NUM", source[i:j], i, j))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (source[j].isalnum()):
                j += 1
            tokens.append(Token("IDENT", source[i:j], i, j))
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token("OP", ch, i, i + 1))
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", (i, i + 1))
    tokens.append(Token("END", "", n, n))
    return tokens


def _integer(tok: Token) -> int:
    """The value of a NUM token; a literal past the interpreter's limit on
    digits converted to int is a syntax error at the token."""
    try:
        return int(tok.text)
    except ValueError:
        raise DslSyntaxError(
            f"integer literal of {len(tok.text)} digits is too long",
            (tok.start, tok.end),
        ) from None


# --- parser -------------------------------------------------------------------


_ADD_PREC = 10
_MUL_PREC = 20
_UNARY_PREC = 30
_POW_PREC = 40
_PREC = {
    "+": _ADD_PREC,
    "-": _ADD_PREC,
    "*": _MUL_PREC,
    "/": _MUL_PREC,
    "^": _POW_PREC,
}


class _Parser:
    def __init__(self, source: str, ctx: JetContext, allow_forms: bool):
        self.source = source
        self.ctx = ctx
        self.allow_forms = allow_forms
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    # token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != text:
            raise DslSyntaxError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                (tok.start, tok.end),
            )
        return self.advance()

    def enter(self, tok: Token) -> None:
        """One more level of nesting opens at tok."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", (tok.start, tok.end)
            )

    # entry

    def parse(self):
        value = self.expression(_ADD_PREC)
        tok = self.peek()
        if tok.kind != "END":
            raise DslSyntaxError(
                f"unexpected trailing input {tok.text!r}", (tok.start, tok.end)
            )
        return value

    def expression(self, min_prec: int):
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind != "OP":
                return left
            prec = _PREC.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.expression(prec + 1)  # left associative throughout
            left = self.combine(tok, left, right)

    def unary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            self.enter(tok)
            operand = self.expression(_UNARY_PREC)
            self.depth -= 1
            if isinstance(operand, DiffForm):
                return scale(operand, num(-1))
            return neg(operand)
        return self.primary()

    def combine(self, op: Token, left, right):
        span = (op.start, op.end)
        lf, rf = isinstance(left, DiffForm), isinstance(right, DiffForm)
        if op.text in "+-":
            if lf != rf:
                raise DslSyntaxError("cannot add a scalar and a form", span)
            if lf:
                return form_add(left, right if op.text == "+" else scale(right, num(-1)))
            return add(left, right if op.text == "+" else neg(right))
        if op.text == "*":
            if lf and rf:
                raise DslSyntaxError("use ^ to combine two forms", span)
            if lf:
                return scale(left, right)
            if rf:
                return scale(right, left)
            return mul(left, right)
        if op.text == "/":
            if rf:
                raise DslSyntaxError("cannot divide by a form", span)
            if lf:
                return scale(left, div(ONE, right))
            return div(left, right)
        # '^': power on scalars, wedge when a form is involved
        if lf or rf:
            return wedge(self._as_form(left), self._as_form(right))
        if not is_constant(right) or right.value.denominator != 1:
            raise DslSyntaxError("exponent must be an integer", span)
        return pow_(left, int(right.value))

    def _as_form(self, value):
        if isinstance(value, DiffForm):
            return value
        return function_form(self.ctx, value, max_jet_order(value))

    def primary(self):
        tok = self.advance()
        if tok.kind == "NUM":
            return num(_integer(tok))
        if tok.kind == "OP" and tok.text == "(":
            self.enter(tok)
            inner = self.expression(_ADD_PREC)
            self.expect_op(")")
            self.depth -= 1
            return inner
        if tok.kind == "IDENT":
            return self.identifier(tok)
        raise DslSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", (tok.start, tok.end)
        )

    def identifier(self, tok: Token):
        name = tok.text
        ctx = self.ctx
        span = (tok.start, tok.end)
        if name in FUNCTIONS:
            self.expect_op("(")
            self.enter(tok)
            arg = self.expression(_ADD_PREC)
            self.expect_op(")")
            self.depth -= 1
            if isinstance(arg, DiffForm):
                raise DslSyntaxError(f"{name} takes a scalar argument", span)
            return func(name, arg)
        if name in ctx.base_names:
            if self._index_follows():
                raise DslSyntaxError(
                    f"base variable {name!r} carries no jet index", span
                )
            return sym(BaseCoord(ctx.base_names.index(name) + 1))
        if name in ctx.fiber_names:
            sigma = ctx.fiber_names.index(name) + 1
            return sym(JetCoord(sigma, self._jet_index(span)))
        if name.startswith("d") and len(name) > 1:
            rest = name[1:]
            if not self.allow_forms:
                raise DslSyntaxError(
                    f"differential {name!r} is not a scalar expression", span
                )
            if rest in ctx.base_names:
                if self._index_follows():
                    raise DslSyntaxError(
                        f"base differential {name!r} carries no jet index", span
                    )
                i = ctx.base_names.index(rest) + 1
                return DiffForm(ctx, 0, 1, {(DX(i),): ONE})
            if rest in ctx.fiber_names:
                sigma = ctx.fiber_names.index(rest) + 1
                J = self._jet_index(span)
                return DiffForm(ctx, len(J), 1, {(DY(sigma, J),): ONE})
        raise UnknownIdentifier(f"unknown identifier {name!r}", span)

    def _index_follows(self) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == "_"

    def _jet_index(self, name_span: tuple) -> tuple:
        if not self._index_follows():
            return ()
        self.advance()
        self.expect_op("{")
        indices = []
        while True:
            tok = self.advance()
            if tok.kind != "NUM":
                raise DslSyntaxError(
                    f"expected a base index, found {tok.text or 'end of input'!r}",
                    (tok.start, tok.end),
                )
            value = _integer(tok)
            if not 1 <= value <= self.ctx.n:
                raise UnknownIdentifier(
                    f"no base direction {value} (n = {self.ctx.n})",
                    (tok.start, tok.end),
                )
            indices.append(value)
            tok = self.peek()
            if tok.kind == "OP" and tok.text == ",":
                self.advance()
                continue
            break
        close = self.expect_op("}")
        if len(indices) > self.ctx.order:
            raise OrderExceeded(
                f"jet index of length {len(indices)} exceeds declared order "
                f"{self.ctx.order}",
                (name_span[0], close.end),
            )
        J = tuple(indices)
        if J != tuple(sorted(J)):
            warnings.warn(
                f"jet index {J} normalized to {tuple(sorted(J))}", stacklevel=3
            )
        return tuple(sorted(J))


def parse_expr(source: str, ctx: JetContext) -> ParsedExpr:
    """Parse a scalar expression in the declared context."""
    value = _Parser(source, ctx, allow_forms=False).parse()
    return ParsedExpr(value, source, (0, len(source)))


def parse_form(source: str, ctx: JetContext) -> DiffForm:
    """Parse a differential-form literal; a scalar result is returned as a
    0-form.  The declared order is the highest jet order occurring."""
    value = _Parser(source, ctx, allow_forms=True).parse()
    if isinstance(value, DiffForm):
        return value.at_order(max_form_order(value))
    return function_form(ctx, value, max_jet_order(value))


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
    if isinstance(g, DX):
        return "d" + ctx.coord_name(BaseCoord(g.i))
    prefix = "d" if isinstance(g, DY) else "w_"
    return prefix + ctx.coord_name(JetCoord(g.sigma, g.J))


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
        elif coeff.terms == {(): -1}:
            parts.append("-" + word)
        elif len(coeff.terms) > 1:
            parts.append(f"({_render_sum(coeff, ctx, texts)})*{word}")
        else:
            parts.append(f"{_render_sum(coeff, ctx, texts)}*{word}")
    return _join_signed(parts)
