"""Coordinates on jet spaces: base variables and symmetric jet variables,
together with the ambient JetContext.

Jet coordinates are labelled by a fiber index and a *sorted* multi-index of
base-variable indices; ``y_{2,1}`` and ``y_{1,2}`` denote the same symmetric
coordinate and are normalized to the sorted form on construction.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .errors import UnknownCoordinate

MultiIndex = tuple  # sorted tuple of 1-based base indices


def index_with(J: MultiIndex, i: int) -> MultiIndex:
    """The multi-index J with one extra occurrence of i, kept sorted."""
    return tuple(sorted(J + (i,)))


def multiplicity(J: MultiIndex) -> int:
    """Number of distinct ordered tuples representing the multi-index J."""
    counts = Counter(J)
    result = math.factorial(len(J))
    for c in counts.values():
        result //= math.factorial(c)
    return result


def multi_indices(n: int, length: int):
    """All sorted multi-indices of the given length over base indices 1..n."""
    return itertools.combinations_with_replacement(range(1, n + 1), length)


class Value:
    """Base of the records compared by value.  A record equals a record of
    the same class whose fields (its __slots__) are equal, and hashes as the
    tuple of its fields.  Records are immutable by convention, as `Expr` is:
    build a new record instead of assigning to a field.  Coordinates and
    generators, hashed in hot loops, spell out `_fields`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({inner})"


class BaseCoord(Value):
    """The base variable x^i (1-based)."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        self.i = i

    def _fields(self) -> tuple:
        return (self.i,)


class JetCoord(Value):
    """The jet variable y^sigma_J (sigma 1-based, J sorted)."""

    __slots__ = ("sigma", "J")

    def __init__(self, sigma: int, J: MultiIndex = ()):
        self.sigma = sigma
        self.J = tuple(sorted(J))

    def _fields(self) -> tuple:
        return (self.sigma, self.J)


Coord = BaseCoord | JetCoord

# the functions an expression may apply; their names are no coordinate names
FUNCTIONS = ("sin", "cos", "exp")
_RESERVED_NAMES = frozenset(FUNCTIONS)

# the least prolongation ceiling of any context
DEFAULT_CEILING = 12


def coord_key(c: Coord) -> tuple:
    """Total order on coordinates: base first, then jets graded by
    (fiber index, index length, index)."""
    if isinstance(c, BaseCoord):
        return (0, c.i)
    return (1, c.sigma, len(c.J), c.J)


class JetContext(Value):
    """Ambient chart data: n base variables, m fiber variables, a maximum
    declared jet order, display names, and a hard prolongation ceiling.

    The ceiling is max(DEFAULT_CEILING, 2 * order), derived from the order
    and never set: every operator stays within twice the order it is
    declared on (Euler-Lagrange reaches 2r, the Cartan form 2r - 1, the
    Helmholtz residuals 2s), so each runs at any declared order, while
    iterated total derivatives past the bound raise OrderOverflow."""

    __slots__ = ("n", "m", "order", "base_names", "fiber_names", "ceiling")

    def __init__(
        self,
        n: int,
        m: int,
        order: int,
        base_names: tuple = (),
        fiber_names: tuple = (),
    ):
        if n < 1 or m < 1 or order < 0:
            raise ValueError("need n >= 1, m >= 1, order >= 0")
        if not base_names:
            base_names = tuple(f"x{i}" for i in range(1, n + 1))
        if not fiber_names:
            fiber_names = ("u",) if m == 1 else tuple(f"u{s}" for s in range(1, m + 1))
        self.n, self.m, self.order = n, m, order
        self.ceiling = max(DEFAULT_CEILING, 2 * order)
        self.base_names, self.fiber_names = base_names, fiber_names
        if len(base_names) != n or len(fiber_names) != m:
            raise ValueError("name counts must match n and m")
        names = tuple(base_names) + tuple(fiber_names)
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be pairwise distinct")
        for name in names:
            if name in _RESERVED_NAMES:
                raise ValueError(f"{name!r} is reserved")
            if not name.isidentifier():
                raise ValueError(f"{name!r} is not a valid identifier")
        # the expression language reads a name as a letter followed by
        # letters or digits, and d before a declared name as its differential
        for name in names:
            if not (name[:1].isalpha() and name.isalnum()):
                raise ValueError(f"{name!r} is not a letter followed by letters or digits")
            if name[:1] == "d" and name[1:] in names:
                raise ValueError(f"{name!r} reads as the differential of {name[1:]!r}")

    def with_order(self, order: int) -> "JetContext":
        """Copy of this context carrying a different declared order."""
        return JetContext(self.n, self.m, order, self.base_names, self.fiber_names)

    def declares(self, c: Coord) -> bool:
        if isinstance(c, BaseCoord):
            return 1 <= c.i <= self.n
        return (
            isinstance(c, JetCoord)
            and 1 <= c.sigma <= self.m
            and all(1 <= i <= self.n for i in c.J)
            and len(c.J) <= self.ceiling
        )

    def check_coord(self, c: Coord) -> None:
        if not self.declares(c):
            raise UnknownCoordinate(f"{self.coord_name(c)} is not declared")

    def compatible(self, other: "JetContext") -> bool:
        """Same chart up to the declared order, and so the ceiling."""
        return (
            self.n == other.n
            and self.m == other.m
            and self.base_names == other.base_names
            and self.fiber_names == other.fiber_names
        )

    def coord_name(self, c: Coord) -> str:
        if isinstance(c, BaseCoord):
            if 1 <= c.i <= self.n:
                return self.base_names[c.i - 1]
            return f"x{c.i}"
        if 1 <= c.sigma <= self.m:
            name = self.fiber_names[c.sigma - 1]
        else:
            name = f"u{c.sigma}"
        if not c.J:
            return name
        return name + "_{" + ",".join(str(i) for i in c.J) + "}"
