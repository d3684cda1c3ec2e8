"""Problem files: INI-style text input for the command-line frontend.

A problem file declares a context block plus exactly one primary payload
(a Lagrangian, a source form, or a form literal), with optional blocks for
an isomorphism, sections, evaluation points, and options:

    [context]
    n = 1
    m = 1
    order = 2
    base = x
    fiber = u

    [lagrangian]
    expr = 1/2*u_{1}^2

The file is UTF-8 text, read in one pass over its lines (universal
newlines: LF, CR LF or CR ends a line, and nothing else does):

- a blank line, or one whose first non-blank character is `#` or `;`, is
  skipped; there are no inline comments;
- a line indented deeper than the last key line continues that key's
  value: its stripped text is appended after a newline;
- a stripped line `[name]` opens the section `name`; names are
  case-sensitive, and `[DEFAULT]` is a section like any other;
- any other line is `key = value` or `key: value`, split at the first
  `=` or `:`; the key is stripped and lowercased, the value stripped.

A duplicate section, a duplicate key within a section, a key before the
first section, and a line with no delimiter or an empty key are
ProblemFileErrors that name the line.  Values are read literally, with
no `%` interpolation.  Sections that no command reads are ignored; in a
section that one reads, a key it does not take is a ProblemFileError.
The prolongation ceiling follows from the declared order (see JetContext).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coords import BaseCoord, JetContext
from .dsl import parse_expr, parse_form
from .errors import ProblemFileError
from .expr import add, mul, num, sym
from .forms import FiberedIso
from .jets import SectionSpec
from .numeric import QuadratureSpec
from .variational import Lagrangian, SourceForm

DEFAULT_OPTIONS = {
    "tolerance": 1e-6,
    "seed": 0,
    "verbose": False,
    "skip-variational-check": False,
    "nodes": 32,
}
# the spellings of a boolean option, read case-insensitively
_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False
)


class ProblemFile:
    """A loaded problem: the context, an options dict, and one attribute
    per block, None where the file has no such block."""

    __slots__ = (
        "ctx",
        "options",
        "lagrangian",
        "source",
        "eta",
        "iso",
        "section",
        "variation",
        "points",
    )

    def __init__(self, ctx: JetContext, options: dict):
        self.ctx, self.options = ctx, options
        self.lagrangian = self.source = self.eta = self.iso = None
        self.section = self.variation = self.points = None


def _names(raw: str) -> tuple:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _get_int(section, key: str) -> int:
    try:
        return int(section[key])
    except ValueError:
        raise ProblemFileError(f"{key!r} in [context] must be an integer") from None


def _malformed(lineno: int, what: str) -> ProblemFileError:
    return ProblemFileError(f"malformed problem file: line {lineno}: {what}")


def _read_sections(handle) -> dict:
    """{section: {key: value}} from the lines of an open problem file, by
    the rules in the module docstring."""
    sections = {}
    section = key = None
    indent = 0
    for lineno, line in enumerate(handle, start=1):
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            section[key] += "\n" + text
            continue
        indent = depth
        if text[0] == "[" and text[-1] == "]" and len(text) > 2:
            name = text[1:-1]
            if name in sections:
                raise _malformed(lineno, f"duplicate section [{name}]")
            section = sections[name] = {}
            key = None
            continue
        if section is None:
            raise _malformed(lineno, "key before the first [section]")
        eq, colon = text.find("="), text.find(":")
        cut = eq if colon < 0 or 0 <= eq < colon else colon
        if cut < 0:
            raise _malformed(lineno, f"no '=' or ':' in {text!r}")
        key = text[:cut].rstrip().lower()
        if not key:
            raise _malformed(lineno, f"empty key in {text!r}")
        if key in section:
            raise _malformed(lineno, f"duplicate key {key!r} in [{name}]")
        section[key] = text[cut + 1 :].strip()
    return sections


def _section(sections: dict, name: str, required, optional=()) -> dict:
    """The section [name], refusing a key outside required and optional,
    then the first missing required key."""
    section = sections[name]
    for key in section:
        if key not in required and key not in optional:
            raise ProblemFileError(f"unknown key {key!r} in [{name}]")
    for key in required:
        if key not in section:
            raise ProblemFileError(f"missing {key!r} in [{name}]")
    return section


def _context(sections: dict) -> JetContext:
    if "context" not in sections:
        raise ProblemFileError("missing [context] section")
    keys = ("n", "m", "order")
    section = _section(sections, "context", keys, ("base", "fiber"))
    n, m, order = (_get_int(section, key) for key in keys)
    base = _names(section.get("base", ""))
    fiber = _names(section.get("fiber", ""))
    try:
        return JetContext(n, m, order, base, fiber)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None


def _numbered(prefix: str, ctx: JetContext) -> list:
    return [f"{prefix}{k}" for k in range(1, ctx.m + 1)]


def _parsed(section: dict, keys, ctx: JetContext) -> tuple:
    return tuple(parse_expr(section[key], ctx).expr for key in keys)


def _fractions(raw: str, what: str):
    try:
        return [Fraction(part.strip()) for part in raw.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ProblemFileError(f"bad rational entry in {what}: {raw!r}") from None


def _iso(sections: dict, ctx: JetContext) -> FiberedIso:
    fibers = _numbered("fiber", ctx)
    section = _section(sections, "iso", fibers + ["a"], ("b",))
    fiber_map = _parsed(section, fibers, ctx)
    rows = [_fractions(row, "[iso] a") for row in section["a"].split(";")]
    if len(rows) != ctx.n or any(len(r) != ctx.n for r in rows):
        raise ProblemFileError(f"[iso] a must be a {ctx.n}x{ctx.n} matrix")
    shift = (
        _fractions(section["b"], "[iso] b")
        if "b" in section
        else [Fraction(0)] * ctx.n
    )
    if len(shift) != ctx.n:
        raise ProblemFileError(f"[iso] b must have {ctx.n} entries")
    base_map = []
    for i in range(ctx.n):
        pieces = [num(shift[i])]
        for k in range(ctx.n):
            if rows[i][k] != 0:
                pieces.append(mul(num(rows[i][k]), sym(BaseCoord(k + 1))))
        base_map.append(add(*pieces))
    return FiberedIso(tuple(base_map), fiber_map)


def _points(raw: str, ctx: JetContext) -> list:
    # n = 1: flat comma list of scalars; n > 1: points split by ';',
    # coordinates within a point by ','.
    out = []
    for row in raw.split(";"):
        row = row.strip()
        if not row:
            continue
        try:
            values = [float(part) for part in row.split(",")]
        except ValueError:
            raise ProblemFileError(f"bad point {row!r} in [points]") from None
        if not all(math.isfinite(v) for v in values):
            raise ProblemFileError(f"point {row!r} in [points] is not finite")
        if ctx.n == 1:
            out.extend(values)
        elif len(values) != ctx.n:
            raise ProblemFileError(
                f"point {row!r} has {len(values)} entries, need {ctx.n}"
            )
        else:
            out.append(tuple(values))
    if not out:
        raise ProblemFileError("[points] lists no points")
    return out


def check_tolerance(tolerance: float) -> float:
    """The tolerance of a numeric check, which must be finite and
    non-negative, from a problem file or the command line."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ProblemFileError(
            f"option 'tolerance' must be finite and non-negative, got {tolerance}"
        )
    return tolerance


def _options(section: dict) -> dict:
    out = dict(DEFAULT_OPTIONS)
    if section is None:
        return out
    for key in section:
        if key not in DEFAULT_OPTIONS:
            raise ProblemFileError(f"unknown option {key!r}")
        default = DEFAULT_OPTIONS[key]
        raw = section[key]
        try:
            if isinstance(default, bool):
                out[key] = _BOOLEANS[raw.lower()]
            elif isinstance(default, int):
                out[key] = int(raw)
            else:
                out[key] = float(raw)
        except (KeyError, ValueError):
            raise ProblemFileError(f"bad value for option {key!r}: {raw!r}") from None
    check_tolerance(out["tolerance"])
    try:
        QuadratureSpec(nodes=out["nodes"])
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None
    return out


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as handle:
            sections = _read_sections(handle)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path} is not UTF-8 text: {exc}") from None

    ctx = _context(sections)
    problem = ProblemFile(ctx=ctx, options=_options(sections.get("options")))

    payloads = [name for name in ("lagrangian", "source", "eta") if name in sections]
    if len(payloads) != 1:
        raise ProblemFileError(
            "need exactly one of [lagrangian], [source], [eta]; "
            f"found {payloads or 'none'}"
        )

    if "lagrangian" in sections:
        expr = _section(sections, "lagrangian", ("expr",))["expr"]
        problem.lagrangian = Lagrangian(parse_expr(expr, ctx).expr, ctx, ctx.order)
    if "source" in sections:
        keys = _numbered("eps", ctx)
        eps = _parsed(_section(sections, "source", keys), keys, ctx)
        problem.source = SourceForm(eps, ctx, ctx.order)
    if "eta" in sections:
        problem.eta = parse_form(_section(sections, "eta", ("form",))["form"], ctx)

    if "iso" in sections:
        problem.iso = _iso(sections, ctx)
    keys = _numbered("comp", ctx)
    for name in ("section", "variation"):
        if name in sections:
            comps = _parsed(_section(sections, name, keys), keys, ctx)
            setattr(problem, name, SectionSpec(comps))
    if "points" in sections:
        values = _section(sections, "points", ("values",))["values"]
        problem.points = _points(values, ctx)
    return problem
