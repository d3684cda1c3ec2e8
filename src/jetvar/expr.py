"""Exact sparse-polynomial kernel over jet coordinates.

Every expression is one immutable value, a sparse Laurent polynomial with
exact rational coefficients.  Its `terms` dict maps each monomial to a
nonzero coefficient, an int when integral and otherwise a Fraction; every
constructor and operation here keeps that invariant, so integral
arithmetic never pays for Fraction.  Zero has no terms.  An atom is a
coordinate or an application sin/cos/exp(arg) whose argument is itself a
kernel value; each distinct atom is interned once per process to a small
int a.  A monomial is one int, the sum of k * 2^(16a) over its factors
(atom id a, exponent k) in balanced base 2^16, so negative exponents need
no bias, the constant monomial is 0 and a product of monomials is one int
addition.  A process-wide table decodes each key to its factors once.  A
key is unique only while every |k| < 2^15, so each value carries a bound
on its exponents, set by each constructor from its operands' (a product
adds them, a sum takes the maximum, a power multiplies, a derivative adds
the most a leaf moves an exponent); an operation whose bound would reach
EXPONENT_LIMIT raises ExpansionBudget instead.

Products distribute on construction, so structural equality decides
equality of the functions denoted on the (Laurent-)polynomial fragment;
sin/cos/exp atoms are opaque and compare syntactically.  A product of
single terms is built as one value, and `jet(sigma, J)` finds the value of
a jet coordinate by its indices, so a parsed monomial costs one value per
factor and one for the product.

All differentiation goes through one chain-rule walker, `derive`.  For a
coordinate atom, `leaf(atom id)` returns (slot, pairs) pairs, the
derivative of that coordinate into each output slot with its keys less the
atom's own, so each term costs one int addition, and in a single pass
over the terms the walker adds the result per slot, times a scale, into
term dicts the caller owns; without them it collects its own into values.
`gradient` has a slot per coordinate (every first partial at once),
`partial` and the total derivative `jets.total_derivative` have one, and
an operator that sums total derivatives adds each straight into its
target.  The total derivative d_i of a coordinate atom comes from a
process-wide lift table next to the intern table, so each atom is lifted
once per process; the jet-order ceiling is checked on every call, against
the caller's context, never cached.

Intern ids depend on which atoms a process met first, so nothing is ever
ordered by them.  The canonical order (constants last, higher total degree
first, factors by coordinate order, see `ordered_terms`) compares atoms by
the sort key that `_intern` computes once per atom; no two atoms share a
key.  Each monomial's row, its term sort key and its factors in that
order, is worked out once per process into a second bounded table beside
the decode table (the key's (atom key, -exponent) pairs are shared through
a third), so a value's order, computed on demand and cached on it, costs
one lookup per term and one sort of the terms.  Rendering and
floating-point evaluation follow it, so neither text nor floats depend on
the history of the process.
Rendering reads the cached rows directly and keeps a table per call of the
text of each (atom id, exponent) factor and of each sin/cos/exp argument,
so each is rendered once per call.

`evaluate` takes N points at once, a column of N numbers per coordinate,
and walks a float plan once for all of them: the canonical rows, each
coefficient converted once by float(c), built on a value's first
evaluation and cached on it.  Each point gets the operations of a
term-by-term evaluation, so its float is bit-identical to one: the same
row order, a single term returned as it is, several summed from 0.0, and
each product started at float(c) and multiplied by each factor in turn.
Each call evaluates each atom once, into a table of its own; a caller
binds what it knows, such as the jets of a section, as coordinate columns.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .coords import FUNCTIONS, BaseCoord, Coord, JetCoord, coord_key, index_with
from .errors import (
    DivisionByZero,
    ExpansionBudget,
    NonPolynomialDivision,
    NonPolynomialParameter,
    NumericOverflow,
    OrderOverflow,
    UnboundCoordinate,
)

_FUNC_INDEX = {name: k for k, name in enumerate(FUNCTIONS)}
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
# an operation whose exponent bound would reach this raises ExpansionBudget
EXPONENT_LIMIT = 1 << 15
# so does a power whose numerator or denominator could pass this many bits:
# |k| times the bits of the coefficient's, at most twice what the power has,
# so a refused power has over 2^15 bits, past the renderer's 4300 digits
COEFFICIENT_BITS = 1 << 16
# the monomial decode and row tables and the factor key table each empty
# themselves at this size, so a long-lived process keeps them bounded; the
# benchmark's workloads stay below 4000 decoded monomials and 1500 rows
FACTOR_TABLE_LIMIT = 1 << 16


class Expr:
    """A sparse polynomial; build values with the constructors below and
    never mutate `terms`."""

    # _bound bounds |exponent| over the terms; _plan, the float plan of
    # `evaluate`, is set on first evaluation only
    __slots__ = ("terms", "_bound", "_hash", "_rows", "_plan")

    def __init__(self, terms: dict, bound: int):
        self.terms = terms
        self._bound = bound
        self._hash = None
        self._rows = None

    def __eq__(self, other):
        if other.__class__ is not Expr:
            return NotImplemented
        return self is other or self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        parts = []
        for coeff, factors in ordered_terms(self):
            word = "*".join(
                f"{_atom_text(a)}^{k}" if k != 1 else _atom_text(a) for a, k in factors
            )
            parts.append(f"{coeff}*{word}" if word else str(coeff))
        return f"Expr({' + '.join(parts) or '0'})"

    @property
    def value(self) -> Fraction:
        """The rational value of a constant; AttributeError otherwise."""
        if not is_constant(self):
            raise AttributeError("a non-constant expression has no value")
        return Fraction(self.terms.get(0, 0))


ZERO = Expr({}, 0)
ONE = Expr({0: 1}, 0)


# --- atoms ---------------------------------------------------------------------

# The intern table, one entry per distinct atom the process has met.  An atom
# is a Coord or a (function name, argument) pair.
_ATOM_ID: dict = {}
_ATOMS: list = []  # id -> atom
_ATOM_VALUES: list = []  # id -> the Expr of the atom alone
_UNIT: list = []  # id -> the packed monomial of the atom alone
_ATOM_KEYS: list = []  # id -> sort key in the canonical order
_ATOM_COORDS: list = []  # id -> frozenset of the coordinates inside
_ATOM_ORDERS: list = []  # id -> jet order of a jet coordinate, -1 otherwise
# (sigma, J sorted) -> the Expr of that jet coordinate, one per interned atom
_JET_VALUES: dict = {}
# (atom id, i) -> d_i of that coordinate as derive leaf pairs
_LIFTS: dict = {}


class _Memo(dict):
    """key -> fill(key), kept until the table holds FACTOR_TABLE_LIMIT keys,
    then emptied in place: fill is pure, so a clear costs only filling
    again."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        if len(self) >= FACTOR_TABLE_LIMIT:
            self.clear()
        value = self[key] = self.fill(key)
        return value


def _decode(m: int) -> tuple:
    """The (atom id, exponent) factors of packed monomial m by atom id; a
    step skips the zero digits below the lowest set bit."""
    factors = []
    a, rest = 0, m
    while rest:
        skip = ((rest & -rest).bit_length() - 1) >> 4
        a += skip
        rest >>= skip << 4
        k = ((rest + 0x8000) & 0xFFFF) - 0x8000
        factors.append(_PAIRS.setdefault((a, k), (a, k)))
        rest = (rest - k) >> 16
        a += 1
    return tuple(factors)


_FACTORS = _Memo(_decode)
_PAIRS: dict = {}  # (atom id, exponent) -> that pair, one tuple each


def _intern(atom) -> int:
    a = _ATOM_ID.get(atom)
    if a is None:
        order = -1
        if atom.__class__ is tuple:
            name, arg = atom
            key = (2, _FUNC_INDEX[name], _tree_key(arg))
            inside = frozenset(coords_in(arg))
        else:
            key = (1,) + coord_key(atom)
            inside = frozenset((atom,))
            if atom.__class__ is JetCoord:
                order = len(atom.J)
        a = len(_ATOMS)
        _ATOMS.append(atom)
        _UNIT.append(1 << (16 * a))
        _ATOM_VALUES.append(Expr({_UNIT[a]: 1}, 1))
        _ATOM_KEYS.append(key)
        _ATOM_COORDS.append(inside)
        _ATOM_ORDERS.append(order)
        _ATOM_ID[atom] = a
    return a


def _atom_text(atom) -> str:
    if atom.__class__ is tuple:
        return f"{atom[0]}({atom[1]!r})"
    return repr(atom)


# --- constructors --------------------------------------------------------------


def _rational(value):
    if value.__class__ is int:
        return value
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _collect(acc: dict, bound: int) -> Expr:
    """The value of accumulated coefficients with exponent bound `bound`:
    zeros drop and integral Fractions become ints."""
    return Expr(
        {
            m: c if c.__class__ is int or c.denominator != 1 else c.numerator
            for m, c in acc.items()
            if c
        },
        bound,
    )


def _checked(bound: int) -> int:
    if bound >= EXPONENT_LIMIT:
        raise ExpansionBudget(f"an exponent could reach {bound}, past the kernel's limit")
    return bound


def num(value) -> Expr:
    """Exact rational constant."""
    c = _rational(value)
    return Expr({0: c}, 0) if c else ZERO


def sym(coord: Coord) -> Expr:
    return _ATOM_VALUES[_intern(coord)]


def jet(sigma: int, J: tuple) -> Expr:
    """The value of the jet coordinate y^sigma_J, J sorted; a repeat builds
    and hashes no JetCoord."""
    value = _JET_VALUES.get((sigma, J))
    if value is None:
        value = _JET_VALUES[(sigma, J)] = sym(JetCoord(sigma, J))
    return value


@functools.cache
def _base(i: int) -> Expr:
    """The value of the base coordinate x^i; a repeat builds and hashes no
    BaseCoord."""
    return sym(BaseCoord(i))


def as_expr(value) -> Expr:
    if value.__class__ is Expr:
        return value
    if isinstance(value, (int, Fraction)):
        return num(value)
    raise TypeError(f"cannot coerce {value!r} to an expression")


def func(name: str, arg: Expr) -> Expr:
    if name not in _FUNC_INDEX:
        raise ValueError(f"unsupported function {name!r}")
    return _ATOM_VALUES[_intern((name, as_expr(arg)))]


# --- arithmetic ----------------------------------------------------------------


def _mul2(a: Expr, b: Expr) -> Expr:
    at, bt = a.terms, b.terms
    if len(at) < len(bt):
        a, b, at, bt = b, a, bt, at
    if not bt:
        return ZERO
    bound = _checked(a._bound + b._bound)
    if len(bt) == 1:
        # multiplying by one term maps distinct monomials to distinct ones
        ((mb, cb),) = bt.items()
        if not mb:
            if cb == 1:
                return a
            return _collect({m: c * cb for m, c in at.items()}, bound)
        return _collect({m + mb: c * cb for m, c in at.items()}, bound)
    acc: dict = {}
    get = acc.get
    for mb, cb in bt.items():
        for ma, ca in at.items():
            m = ma + mb
            prev = get(m)
            acc[m] = ca * cb if prev is None else prev + ca * cb
    return _collect(acc, bound)


def add(*args) -> Expr:
    """Sum: like monomials collect and zero coefficients drop."""
    nonzero = [a for a in args if a.terms]
    if len(nonzero) <= 1:
        return nonzero[0] if nonzero else ZERO
    acc = dict(nonzero[0].terms)
    get = acc.get
    for a in nonzero[1:]:
        for m, c in a.terms.items():
            prev = get(m)
            acc[m] = c if prev is None else prev + c
    return _collect(acc, max([a._bound for a in nonzero]))


def mul(*args) -> Expr:
    """Product, distributed over sums so that values stay expanded; a
    product of single terms is built as one value."""
    if len(args) == 2:
        return _mul2(args[0], args[1])
    m, c, bound = 0, 1, 0
    for a in args:
        if len(a.terms) != 1:
            break
        ((ma, ca),) = a.terms.items()
        m, c, bound = m + ma, c * ca, bound + a._bound
    else:
        if c.__class__ is Fraction and c.denominator == 1:
            c = c.numerator
        return Expr({m: c}, _checked(bound))
    result = ONE
    for a in sorted(args, key=lambda a: len(a.terms)):
        result = _mul2(result, a)
        if not result.terms:
            break
    return result


def neg(e: Expr) -> Expr:
    return Expr({m: -c for m, c in e.terms.items()}, e._bound)


def pow_(base: Expr, k: int) -> Expr:
    """Integer power; powers of sums are expanded, negative powers are
    allowed on single terms only (no rational-function arithmetic)."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k == 0:
        return ONE
    if k == 1:
        return base
    bound = _checked(abs(k) * base._bound)
    terms = base.terms
    if len(terms) == 1:
        ((m, c),) = terms.items()
        if abs(k) * max(c.numerator.bit_length(), c.denominator.bit_length()) > COEFFICIENT_BITS:
            raise ExpansionBudget(f"a coefficient to the power {k} could pass {COEFFICIENT_BITS} bits")
        c = Fraction(c) ** k if k < 0 else c**k
        if c.__class__ is Fraction and c.denominator == 1:
            c = c.numerator
        return Expr({m * k: c}, bound)
    if not terms:
        if k < 0:
            raise DivisionByZero("division by zero")
        return ZERO
    if k < 0:
        raise NonPolynomialDivision("negative power of a sum of terms")
    result = base
    for _ in range(k - 1):
        result = _mul2(result, base)
    return result


# --- queries -------------------------------------------------------------------


def is_zero(e: Expr) -> bool:
    """True iff the value is the zero polynomial.  Complete on the
    polynomial fragment; sound (never true for a nonzero function)."""
    return not e.terms


def is_constant(e: Expr) -> bool:
    return not e.terms or (len(e.terms) == 1 and 0 in e.terms)


def has_functions(e: Expr) -> bool:
    """True iff a sin/cos/exp atom occurs."""
    return any(_ATOMS[a].__class__ is tuple for m in e.terms for a, _ in _FACTORS[m])


def coords_in(e: Expr) -> set:
    """All coordinates occurring, also inside functions."""
    atoms = {a for m in e.terms for a, _ in _FACTORS[m]}
    return set().union(*(_ATOM_COORDS[a] for a in atoms))


def max_jet_order(e: Expr) -> int:
    return max((len(c.J) for c in coords_in(e) if isinstance(c, JetCoord)), default=0)


# --- canonical order -----------------------------------------------------------


def _order(m: int) -> tuple:
    """The row of monomial m: the sort key of its terms, (0, -grade, ((atom
    key, -k), ...)) or (1,) for the constant, and its (atom id, exponent)
    factors in coordinate order."""
    keys, pairs = _ATOM_KEYS, _FACTOR_KEYS
    factors = tuple(sorted(_FACTORS[m], key=lambda f: keys[f[0]]))
    if not factors:
        return (1,), ()
    grade = sum(k for _, k in factors)
    return (0, -grade, tuple([pairs[f] for f in factors])), factors


_ORDERED = _Memo(_order)
# (atom id, exponent) -> (atom key, -exponent), one tuple each, so that rows
# share them
_FACTOR_KEYS = _Memo(lambda f: (_ATOM_KEYS[f[0]], -f[1]))


def _rows(e: Expr) -> tuple:
    """(coefficient, factors) per term in canonical order, factors as
    (atom id, exponent) in coordinate order; cached on e."""
    rows = e._rows
    if rows is None:
        ordered = _ORDERED
        keyed = [(ordered[m], c) for m, c in e.terms.items()]
        keyed.sort(key=lambda row: row[0][0])
        rows = e._rows = tuple((c, row[1]) for row, c in keyed)
    return rows


def ordered_terms(e: Expr) -> list:
    """The terms in canonical order as (coefficient, factors) pairs, each
    factor an (atom, exponent) pair whose atom is a coordinate or a
    (function name, argument) pair."""
    atoms = _ATOMS
    return [
        (c, tuple((atoms[a], k) for a, k in factors)) for c, factors in _rows(e)
    ]


def _tree_key(e: Expr) -> tuple:
    """Sort key of e inside a function atom: a constant, an atom, a power, a
    product and a sum rank in that order, each compared by its parts in
    canonical order."""
    keys = []
    for c, factors in _rows(e):
        parts = [
            _ATOM_KEYS[a] if k == 1 else (3, _ATOM_KEYS[a], k) for a, k in factors
        ]
        if not parts:
            keys.append((0, c))
        elif c == 1 and len(parts) == 1:
            keys.append(parts[0])
        else:
            keys.append((4, tuple(parts if c == 1 else [(0, c)] + parts)))
    if not keys:
        return (0, 0)
    return keys[0] if len(keys) == 1 else (5, tuple(keys))


# --- calculus ------------------------------------------------------------------


def derive(e: Expr, leaf, accs: dict = None, scale=1):
    """The chain rule, shared by every derivative: leaf(a) gives the
    derivative of the coordinate atom with id a as (slot, pairs) pairs, each
    (dm, dc) a term dc * dm, dm a constant or another atom packed minus a's
    own unit, so that a^k in monomial m adds k * c * dc at m + dm; sin/cos/
    exp atoms differentiate through their argument.  One pass over the
    terms adds scale times the result per slot into accs, slot -> term
    dict, which the caller owns and collects, and returns the exponent
    bound of what it added; without accs, returns slot -> nonzero Expr.  If
    a leaf or the bound's ExpansionBudget raises, the dicts are left filled
    in part."""
    if accs is None:
        accs = {}
        bound = derive(e, leaf, accs, scale)
        return {slot: v for slot, acc in accs.items() if (v := _collect(acc, bound)).terms}
    shift = 0  # the most a leaf moves any exponent, so the bound's growth
    memo: dict = {}
    factors = _FACTORS
    terms = e.terms.items() if scale == 1 else [(m, c * scale) for m, c in e.terms.items()]
    for m, c in terms:
        for a, k in factors[m]:
            d = memo.get(a)
            if d is None:
                if _ATOMS[a].__class__ is tuple:
                    d, step = _derive_function(a, leaf)
                else:
                    d = leaf(a)
                    step = 1 if d else 0
                shift = max(shift, step)
                memo[a] = d
            if not d:
                continue
            ck = c if k == 1 else c * k
            for slot, pairs in d:
                acc = accs.get(slot)
                if acc is None:
                    acc = accs[slot] = {}
                for dm, dc in pairs:
                    key = m + dm
                    term = ck if dc == 1 else ck * dc
                    prev = acc.get(key)
                    acc[key] = term if prev is None else prev + term
    return _checked(e._bound + shift)


def _derive_function(a: int, leaf) -> tuple:
    """The leaf pairs of sin/cos/exp atom a by the chain rule, and the
    largest |exponent| of their keys, the most any exponent moves."""
    name, arg = _ATOMS[a]
    dargs = derive(arg, leaf)
    if not dargs:
        return (), 0
    if name == "sin":
        outer = func("cos", arg)
    elif name == "cos":
        outer = neg(func("sin", arg))
    else:
        outer = _ATOM_VALUES[a]
    u = _UNIT[a]
    chains = [(slot, _mul2(outer, d).terms) for slot, d in dargs.items()]
    pairs = [(slot, [(dm - u, dc) for dm, dc in p.items()]) for slot, p in chains]
    shift = max((abs(k) for _, p in pairs for dm, _ in p for _, k in _FACTORS[dm]), default=0)
    return pairs, shift


def _gradient_leaf(a: int) -> tuple:
    return ((a, ((-_UNIT[a], 1),)),)


def gradient(e: Expr) -> dict:
    """Every nonzero first partial derivative of e, keyed by coordinate,
    from one pass over the terms."""
    return {_ATOMS[a]: d for a, d in derive(e, _gradient_leaf).items()}


def partial(e: Expr, c: Coord) -> Expr:
    """Formal partial derivative treating every coordinate as an
    independent symbol."""
    target = _ATOM_ID.get(c)
    if target is None:  # never interned, so e cannot contain it
        return ZERO
    hit = ((None, ((-_UNIT[target], 1),)),)
    return derive(e, lambda a: hit if a == target else ()).get(None, ZERO)


def lift(a: int, i: int, ceiling: int) -> tuple:
    """The total derivative d_i of the coordinate atom a as derive leaf
    pairs in the single slot None: x^i goes to 1, y^s_J to y^s_{Ji}, every
    other coordinate to 0.  Each (a, i) is lifted once per process; the
    check that y^s_{Ji} stays within the caller's ceiling runs on every
    call, and raises OrderOverflow."""
    if _ATOM_ORDERS[a] >= ceiling:
        raise OrderOverflow(
            f"total derivative would raise jet order past ceiling {ceiling}"
        )
    pairs = _LIFTS.get((a, i))
    if pairs is None:
        atom = _ATOMS[a]
        if atom.__class__ is JetCoord:
            up = _intern(JetCoord(atom.sigma, index_with(atom.J, i)))
            pairs = ((None, ((_UNIT[up] - _UNIT[a], 1),)),)
        elif atom.__class__ is BaseCoord and atom.i == i:
            pairs = ((None, ((-_UNIT[a], 1),)),)
        else:
            pairs = ()
        _LIFTS[(a, i)] = pairs
    return pairs


def substitute(e: Expr, bindings: dict) -> Expr:
    """Simultaneous substitution of coordinates by expressions."""
    if not bindings:
        return e
    images: dict = {}  # atom id -> its image, None when unchanged
    powers: dict = {}  # (atom id, exponent) -> image to that power
    pieces = []
    for m, c in e.terms.items():
        kept = 0  # the packed factors left as they are
        term = None
        for a, k in _FACTORS[m]:
            if a not in images:
                images[a] = _substitute_atom(a, bindings)
            if images[a] is None:
                kept += k * _UNIT[a]
                continue
            power = powers.get((a, k))
            if power is None:
                power = powers[(a, k)] = pow_(images[a], k)
            term = power if term is None else _mul2(term, power)
        own = Expr({kept: c}, e._bound)
        pieces.append(own if term is None else _mul2(own, term))
    return add(*pieces)


def _substitute_atom(a: int, bindings: dict):
    atom = _ATOMS[a]
    if atom.__class__ is not tuple:
        return bindings.get(atom)
    name, arg = atom
    image = func(name, substitute(arg, bindings))
    return None if image is _ATOM_VALUES[a] else image


def integrate_param(e: Expr) -> Expr:
    """e with each monomial of total fiber-jet degree d weighed by 1/(d+1),
    the integral of t^d over t from 0 to 1 when d >= 0.
    NonPolynomialParameter when a jet coordinate sits inside a sin/cos/exp
    atom, or when d = -1."""
    acc: dict = {}
    for m, c in e.terms.items():
        degree = 0
        for a, k in _FACTORS[m]:
            atom = _ATOMS[a]
            if atom.__class__ is JetCoord:
                degree += k
            elif atom.__class__ is tuple and any(
                x.__class__ is JetCoord for x in _ATOM_COORDS[a]
            ):
                raise NonPolynomialParameter("parameter inside a function application")
        if degree == -1:
            raise NonPolynomialParameter("a monomial of fiber degree -1 has no Tonti weight")
        acc[m] = c * Fraction(1, degree + 1)
    return _collect(acc, e._bound)


# --- numeric evaluation --------------------------------------------------------


def evaluate(e: Expr, env: dict) -> list:
    """Floating-point values at N points, each summed term by term in
    canonical order: env binds each coordinate to a column of N numbers,
    and value i is bit-identical to one taken at point i alone, as in
    `evaluate(e, {c: [x]})[0]`.  Raises NumericOverflow when a value, or
    the argument of a sin/cos/exp atom, is not finite at some point, and
    ValueError unless every column of env holds N numbers.  With no
    column, N is 1."""
    lengths = set(map(len, env.values())) or {1}
    if len(lengths) > 1:
        raise ValueError(f"columns of different lengths {sorted(lengths)}")
    try:
        column = _evaluate(e, env, {}, lengths.pop())
        if all(map(math.isfinite, column)):
            return column
    except OverflowError:
        pass
    raise NumericOverflow("a value overflows floating point at this point")


def _evaluate(e: Expr, env: dict, values: dict, n: int) -> list:
    try:
        plan = e._plan
    except AttributeError:  # first evaluation of this value
        plan = e._plan = tuple((float(c), factors) for c, factors in _rows(e))
    total = [0.0] * n
    for c, factors in plan:
        product = [c] * n
        for a, k in factors:
            v = values.get(a)
            if v is None:
                v = values[a] = _evaluate_atom(a, env, values, n)
            if k != 1:
                if k < 0 and 0.0 in v:
                    raise DivisionByZero(
                        f"{_atom_text(_ATOMS[a])} is 0 at this point, so its power {k} has a pole",
                        (_ATOM_VALUES[a], k),
                    )
                v = [x**k for x in v]
            product = [p * x for p, x in zip(product, v)]
        if len(plan) > 1:
            total = [t + p for t, p in zip(total, product)]
    # a single term is its own value: 0.0 + -0.0 would lose the sign
    return product if len(plan) == 1 else total


def _evaluate_atom(a: int, env: dict, values: dict, n: int) -> list:
    atom = _ATOMS[a]
    if atom.__class__ is tuple:
        arg = _evaluate(atom[1], env, values, n)
        if not all(map(math.isfinite, arg)):
            raise OverflowError  # evaluate reports it as NumericOverflow
        return list(map(_MATH[atom[0]], arg))
    try:
        return list(map(float, env[atom]))
    except KeyError:
        raise UnboundCoordinate(f"no value bound for {atom}") from None
