"""Problem corpora of the three workloads, made from the workload seed.

Every problem is a jetvar problem file plus a known answer that comes from
a theorem or was fixed by hand, never from jetvar.  The verdict_mix and
cli_small problems are drawn from fixed pools (generated from POOL_SEED),
so that every problem a seed can select has a reference digest in
reference.json.  For verdict_mix the seed orders the whole pool; for
cli_small it picks the members and the order.

Problems that the seed commit is known to get wrong stay in every run and
carry the name of their entry in KNOWN_DEFECTS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

POOL_SEED = 2002

KNOWN_DEFECTS = {
    "hidden_trig_1e7": "probe threshold: roundoff of an identically zero residual reads as nonzero",
    "hidden_trig_1e9": "probe threshold: roundoff of an identically zero residual reads as nonzero",
    "hidden_exp_1e6": "probe threshold: roundoff of an identically zero residual reads as nonzero",
    "hidden_exp_1e9": "probe threshold: roundoff of an identically zero residual reads as nonzero",
    "hidden_prod_1e5": "probe threshold: roundoff of an identically zero residual reads as nonzero",
    "hidden_prod_1e9": "probe threshold: roundoff of an identically zero residual reads as nonzero",
    "crash_div_zero": "expr = u/0 raises ZeroDivisionError: traceback and exit 1",
    "crash_exp_overflow": "numcheck of exp(u_{1}) on 1000*x raises OverflowError: exit 1",
    "crash_negative_step": "[options] step = -1 raises ValueError: exit 1",
    "crash_one_node": "[options] nodes = 1 raises ValueError: exit 1",
    "crash_pole_at_point": "u^(-1) at a point where u = 0 raises ZeroDivisionError: exit 1",
    "nan_tolerance": "tolerance = nan is accepted and reported as a failed check: exit 1",
}


@dataclass
class Problem:
    id: str  # unique within its workload; keys the reference digest
    kind: str
    text: str | None  # problem file contents; None for a missing file
    expect: dict = field(default_factory=dict)
    defect: str | None = None
    path: str | None = None


def ini(**sections) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def context(n: int, m: int, order: int, base, fiber) -> dict:
    return {"n": n, "m": m, "order": order, "base": ", ".join(base), "fiber": ", ".join(fiber)}


def jet(name: str, J=()) -> str:
    return name if not J else name + "_{" + ",".join(map(str, J)) + "}"


def sorted_indices(n: int, k: int):
    if k == 0:
        return [()]
    return [J + (i,) for J in sorted_indices(n, k - 1) for i in range(J[-1] if J else 1, n + 1)]


def atoms(base, fiber, order: int) -> list:
    out = list(base)
    for name in fiber:
        for k in range(order + 1):
            out.extend(jet(name, J) for J in sorted_indices(len(base), k))
    return out


def join_terms(terms) -> str:
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def random_polynomial(rng, pool, terms: int, degree: int, must=None) -> str:
    """Sum of `terms` monomials of 2..degree atoms with small integer
    coefficients; the first monomial contains `must` when given."""
    parts = []
    for k in range(terms):
        factors = [rng.choice(pool) for _ in range(rng.randint(2, degree))]
        if k == 0 and must is not None:
            factors[0] = must
        coeff = rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1))
        parts.append(f"{coeff}*" + "*".join(factors))
    return join_terms(parts)


# --- dense_ladder ---------------------------------------------------------------

DENSE_CASES = (
    (
        "n3m2r1",
        (3, 2, 1),
        ("x1", "x2", "x3"),
        ("u1", "u2"),
        "(u1_{1}^2+u1_{2}^2+u1_{3}^2-u2_{1}^2-u2_{2}^2-u2_{3}^2)^3 + u1^2*u2^2",
    ),
    (
        "n2m2r1",
        (2, 2, 1),
        ("x", "y"),
        ("u", "v"),
        "(u_{1}^2+u_{2}^2+v_{1}^2+v_{2}^2)^3 + u*v*(u_{1}*v_{2}-u_{2}*v_{1})^2",
    ),
    (
        "n2m1r2",
        (2, 1, 2),
        ("x", "y"),
        ("u",),
        "(u_{1,1}+u_{2,2})^2*(1+u_{1}^2+u_{2}^2)^2 + sin(x)*u^3",
    ),
    (
        "n1m2r3",
        (1, 2, 3),
        ("x",),
        ("u1", "u2"),
        "(u1_{1,1,1}*u2_{1}+u1_{1}*u2_{1,1,1})^2*(1+u1^2)^2",
    ),
)

NATURALITY_LAGRANGIAN = "u_{1,1}*v_{2}^2 + u_{1}^2*v*v_{1,2} + x*u*v_{2,2}"


NATURALITY_ISO = {"a": "2, 1; 1, 1", "b": "1, -2", "fiber1": "u + 2*v^2", "fiber2": "2*v + x*y"}


def dense_ladder(seed: int) -> list:
    """The four dense Lagrangians of the ladder in a seeded order, then one
    naturality problem (n=2, m=2, r=2) under a fixed non-diagonal affine
    fibered isomorphism.  The ladder is fixed so that its work is the same
    for every seed; the seed only orders it."""
    rng = random.Random(seed)
    out = []
    for name, (n, m, r), base, fiber, expr in DENSE_CASES:
        text = ini(context=context(n, m, r, base, fiber), lagrangian={"expr": expr})
        out.append(Problem(name, "dense", text))
    rng.shuffle(out)
    text = ini(
        context=context(2, 2, 2, ("x", "y"), ("u", "v")),
        lagrangian={"expr": NATURALITY_LAGRANGIAN},
        iso=NATURALITY_ISO,
    )
    out.append(Problem("naturality", "naturality", text))
    return out


# --- verdict_mix ----------------------------------------------------------------

VERDICT_POOL = {"el_poly": 128, "el_trig": 128, "perturbed": 128, "first_variation": 64, "residual": 64}

HIDDEN = (
    # name, source expression; each is identically zero
    ("trig", "{c}*u_{{1}}^2*(sin(u_{{1}})^2+cos(u_{{1}})^2-1)", ("1", "1e3", "1e5", "1e6", "1e7", "1e9")),
    ("exp", "{c}*(exp(2*u_{{1}})-exp(u_{{1}})^2)", ("1", "1e3", "1e6", "1e9")),
    ("prod", "{c}*x*u_{{1}}*(exp(u+u_{{1}})-exp(u)*exp(u_{{1}}))", ("1", "1e5", "1e9")),
    ("lin", "{c}*u*(sin(u_{{1}})^2+cos(u_{{1}})^2-1)", ("1e9",)),
)


def _scale(tag: str) -> str:
    if "e" not in tag:
        return tag
    return "1" + "0" * int(tag.split("e")[1])


def _shape(rng):
    n, m, r = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    return n, m, r, ("x", "y")[:n], ("u", "v")[:m]


def _lagrangian(rng, trig: bool):
    n, m, r, base, fiber = _shape(rng)
    pool = atoms(base, fiber, r)
    top = [jet(name, J) for name in fiber for J in sorted_indices(n, r)]
    expr = random_polynomial(rng, pool, rng.randint(4, 6), 4, must=rng.choice(top))
    if trig:
        f = rng.choice(("sin", "cos", "exp"))
        expr += f" + {rng.randint(1, 3)}*{f}({rng.choice(pool)})*{rng.choice(pool)}"
    return context(n, m, r, base, fiber), expr, (n, m)


def _perturbation(rng, n: int, m: int) -> str:
    """A term whose Helmholtz residual is nonzero by hand: c*u_{i} or
    c*x*u_{i} in eps_1 gives the level-1 residual 2c (or 2c*x) at I = (i);
    c*v in eps_1 gives the level-0 residual c for the pair (1, 2)."""
    c = rng.choice((1, 2, 3)) * rng.choice((1, -1))
    i = rng.randint(1, n)
    options = [f"{c}*u_{{{i}}}", f"{c}*x*u_{{{i}}}"]
    if m == 2:
        options.append(f"{c}*v")
    return rng.choice(options)


def _polynomial_in_x(rng, degree: int) -> list:
    return [rng.randint(-3, 3) for _ in range(degree)] + [rng.choice((1, 2, -1, -2))]


def _render_poly_x(coeffs) -> str:
    terms = [f"{c}*x^{k}" if k else f"{c}" for k, c in enumerate(coeffs) if c]
    return join_terms(terms).replace("*x^1", "*x")


def _poly_value(coeffs, x: Fraction, derivative: int) -> Fraction:
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        if k < derivative:
            continue
        factor = 1
        for j in range(derivative):
            factor *= k - j
        total += c * factor * x ** (k - derivative)
    return total


def verdict_pool() -> list:
    rng = random.Random(POOL_SEED)
    out = []
    for kind, count in VERDICT_POOL.items():
        for k in range(count):
            out.append(_verdict_problem(rng, kind, f"{kind}-{k:03d}"))
    for family, template, scales in HIDDEN:
        for tag in scales:
            expr = template.format(c=_scale(tag))
            text = ini(context=context(1, 1, 1, ("x",), ("u",)), source={"eps1": expr})
            name = f"hidden_{family}_{tag}"
            defect = name if name in KNOWN_DEFECTS else None
            out.append(Problem(name, "hidden", text, {"verdict": ("variational", "undecided")}, defect))
    return out


def _verdict_problem(rng, kind: str, pid: str) -> Problem:
    if kind in ("el_poly", "el_trig"):
        ctx, expr, _ = _lagrangian(rng, kind == "el_trig")
        return Problem(pid, kind, ini(context=ctx, lagrangian={"expr": expr}), {"verdict": ("variational",)})
    if kind == "perturbed":
        ctx, expr, (n, m) = _lagrangian(rng, rng.random() < 0.5)
        expect = {"verdict": ("not_variational",), "perturb": _perturbation(rng, n, m)}
        return Problem(pid, kind, ini(context=ctx, lagrangian={"expr": expr}), expect)
    r = rng.randint(1, 2)
    pool = atoms(("x",), ("u",), r)
    gamma = _polynomial_in_x(rng, rng.randint(1, 3))
    if kind == "first_variation":
        expr = random_polynomial(rng, pool, rng.randint(2, 3), 3, must=jet("u", (1,) * r))
        if rng.random() < 0.5:
            expr += f" + {rng.randint(1, 3)}*{rng.choice(('sin', 'cos'))}(u)"
        variation = f"x^2*(1-x)^2*({rng.randint(1, 3)} + {rng.randint(-2, 2)}*x)"
        text = ini(
            context=context(1, 1, r, ("x",), ("u",)),
            lagrangian={"expr": expr},
            section={"comp1": _render_poly_x(gamma)},
            variation={"comp1": variation},
        )
        return Problem(pid, kind, text, {"tolerance": 1e-6})
    # residual: a source form built from monomials whose value on the
    # section is computed here exactly, from the section's derivatives
    monomials = []
    for _ in range(rng.randint(4, 8)):
        powers = {a: rng.randint(1, 2) for a in rng.sample(pool, rng.randint(1, 3))}
        monomials.append((rng.choice((1, 2, 3, -1, -2)), powers))
    expr = join_terms(
        [f"{c}*" + "*".join(f"{a}^{p}" for a, p in powers.items()) for c, powers in monomials]
    )
    points = [Fraction(rng.randint(1, 15), 16) for _ in range(8)]
    values = []
    for x in points:
        env = {"x": x}
        for k in range(r + 1):
            env[jet("u", (1,) * k)] = _poly_value(gamma, x, k)
        value = Fraction(0)
        for c, powers in monomials:
            term = Fraction(c)
            for a, p in powers.items():
                term *= env[a] ** p
            value += term
        values.append(float(value))
    text = ini(
        context=context(1, 1, r, ("x",), ("u",)),
        source={"eps1": expr},
        section={"comp1": _render_poly_x(gamma)},
        points={"values": ", ".join(str(float(x)) for x in points)},
    )
    return Problem(pid, kind, text, {"values": values})


def verdict_mix(seed: int) -> list:
    """The whole pool in a seeded order.  A seeded subset would make the
    work of a pass depend on the seed: problem costs spread so widely that
    drawing a quarter of each kind moves throughput by over a tenth from
    seed to seed."""
    out = verdict_pool()
    random.Random(seed).shuffle(out)
    return out


# --- cli_small ------------------------------------------------------------------

CLI_VARIANTS = 8  # pool members per valid kind

ODE = context(1, 1, 1, ("x",), ("u",))
ODE2 = context(1, 1, 2, ("x",), ("u",))


def _cli_valid(rng, kind: str):
    """(subcommand, file text, expected exit code, expected extra) for one
    tiny valid problem; the exit codes follow from the construction."""
    a, b, c = rng.randint(1, 4), rng.randint(1, 4) * rng.choice((1, -1)), rng.randint(1, 3)
    k = rng.randint(2, 4)
    if kind == "el":
        return "el", ini(context=ODE, lagrangian={"expr": f"{a}/2*u_{{1}}^2 + {b}*u^{k}"}), 0, {}
    if kind in ("helmholtz", "tonti"):
        # the Euler-Lagrange form of a/2*u_{1}^2 + b*u^k, derived by hand
        eps = f"{k * b}*u^{k - 1} - {a}*u_{{1,1}}"
        return kind, ini(context=ODE2, source={"eps1": eps}), 0, {}
    if kind == "helmholtz_obstructed":
        # the level-1 residual of c*u_{1} is 2c
        eps = f"{a}*u_{{1,1}} + {c}*u_{{1}} + {b}*u^{k}"
        return "helmholtz", ini(context=ODE2, source={"eps1": eps}), 1, {}
    if kind == "cartan":
        return "cartan", ini(context=ODE2, lagrangian={"expr": f"{a}/2*u_{{1,1}}^2 + {b}*u*u_{{1}}^{k}"}), 0, {}
    if kind == "null_check":
        # c*u^k*u_{1} + b*(x*u_{1} + u) is the total derivative of
        # c*u^(k+1)/(k+1) + b*x*u
        expr = f"{c}*u^{k}*u_{{1}} + {b}*x*u_{{1}} + {b}*u"
        return "null-check", ini(context=ODE, lagrangian={"expr": expr}), 0, {}
    if kind == "null_check_lively":
        return "null-check", ini(context=ODE, lagrangian={"expr": f"{a}*u_{{1}}^2 + {b}*u^{k}"}), 1, {}
    if kind == "null_from_eta":
        # h(d eta) has zero Euler-Lagrange form for every (n-1)-form eta
        form = f"{b}*u^{k}*dx1 + {c}*x1*u*dx2"
        return "null-from-eta", ini(context=context(2, 1, 1, ("x1", "x2"), ("u",)), eta={"form": form}), 0, {}
    if kind == "naturality":
        iso = {"a": str(rng.choice((2, 3, -1))), "b": str(rng.randint(-2, 2)), "fiber1": f"u + {c}*u^2"}
        lag = {"expr": f"{a}/2*u_{{1}}^2 + {b}*u^{k}"}
        return "naturality", ini(context=ODE, lagrangian=lag, iso=iso), 0, {}
    if kind == "numcheck_variation":
        text = ini(
            context=ODE,
            lagrangian={"expr": f"{a}/2*u_{{1}}^2 + {b}*u^{k}"},
            section={"comp1": f"{c}*x^2 + x"},
            variation={"comp1": "x^2*(1-x)^2"},
        )
        return "numcheck", text, 0, {}
    # numcheck on a section: u_{1,1} + b*u on c*x^2 equals 2c + b*c*x^2
    points = [Fraction(j, 4) for j in range(1, 4)]
    values = [float(2 * c + b * c * x * x) for x in points]
    text = ini(
        context=ODE2,
        source={"eps1": f"u_{{1,1}} + {b}*u"},
        section={"comp1": f"{c}*x^2"},
        points={"values": ", ".join(str(float(x)) for x in points)},
    )
    return "numcheck", text, 0, {"values": values}


CLI_KINDS = (
    "el",
    "helmholtz",
    "helmholtz_obstructed",
    "tonti",
    "cartan",
    "null_check",
    "null_check_lively",
    "null_from_eta",
    "naturality",
    "numcheck_variation",
    "numcheck_section",
)

_FV = {"section": {"comp1": "x^2"}, "variation": {"comp1": "x^2*(1-x)^2"}}
_HALF = {"expr": "1/2*u_{1}^2"}

CLI_CRASHERS = (
    # name, subcommand, file text; bad input, so exit 2 by the README contract
    ("crash_div_zero", "el", ini(context=ODE, lagrangian={"expr": "u/0"})),
    (
        "crash_exp_overflow",
        "numcheck",
        ini(context=ODE, lagrangian={"expr": "exp(u_{1})"}, section={"comp1": "1000*x"}, variation=_FV["variation"]),
    ),
    ("crash_negative_step", "numcheck", ini(context=ODE, lagrangian=_HALF, **_FV, options={"step": "-1"})),
    ("crash_one_node", "numcheck", ini(context=ODE, lagrangian=_HALF, **_FV, options={"nodes": "1"})),
    (
        "crash_pole_at_point",
        "numcheck",
        ini(context=context(1, 1, 0, ("x",), ("u",)), source={"eps1": "u^(-1)"}, section={"comp1": "x"}, points={"values": "0"}),
    ),
    ("nan_tolerance", "numcheck", ini(context=ODE, lagrangian=_HALF, **_FV, options={"tolerance": "nan"})),
)

_C2 = context(2, 1, 1, ("x1", "x2"), ("u",))
CLI_MALFORMED = (
    # name, subcommand, file text (None: the file does not exist)
    ("syntax", "el", ini(context=ODE, lagrangian={"expr": "u_{1}^ + 2"})),
    ("unknown_identifier", "el", ini(context=ODE, lagrangian={"expr": "w*u"})),
    ("no_context", "el", ini(lagrangian={"expr": "u"})),
    ("bad_n", "el", ini(context={"n": "abc", "m": 1, "order": 1}, lagrangian={"expr": "u"})),
    ("no_payload", "el", ini(context=ODE)),
    ("two_payloads", "el", ini(context=ODE, lagrangian={"expr": "u"}, source={"eps1": "u"})),
    ("wrong_payload", "el", ini(context=ODE2, source={"eps1": "u_{1,1}"})),
    ("unknown_option", "el", ini(context=ODE, lagrangian={"expr": "u"}, options={"colour": "red"})),
    ("bad_option", "numcheck", ini(context=ODE, lagrangian={"expr": "u"}, options={"nodes": "many"})),
    ("order_exceeded", "el", ini(context=ODE, lagrangian={"expr": "u_{1,1}"})),
    ("iso_size", "naturality", ini(context=ODE, lagrangian={"expr": "u_{1}^2"}, iso={"a": "1, 2", "fiber1": "u"})),
    ("iso_singular", "naturality", ini(context=ODE, lagrangian={"expr": "u_{1}^2"}, iso={"a": "0", "fiber1": "u"})),
    ("missing_component", "helmholtz", ini(context=context(1, 2, 1, ("x",), ("u", "v")), source={"eps1": "u"})),
    ("bad_rational", "naturality", ini(context=ODE, lagrangian={"expr": "u_{1}^2"}, iso={"a": "1/0", "fiber1": "u"})),
    ("open_paren", "el", ini(context=ODE, lagrangian={"expr": "(u + 1"})),
    ("point_dimension", "numcheck", ini(context=_C2, source={"eps1": "u"}, section={"comp1": "x1"}, points={"values": "1, 2, 3"})),
    ("empty_expression", "el", ini(context=ODE, lagrangian={"expr": ""})),
    ("duplicate_names", "el", ini(context=context(1, 1, 1, ("u",), ("u",)), lagrangian={"expr": "u"})),
    ("fractional_exponent", "el", ini(context=ODE, lagrangian={"expr": "u^(1/2)"})),
    ("missing_file", "el", None),
    ("inverse_of_sum", "el", ini(context=ODE, lagrangian={"expr": "(u+1)^(-1)"})),
    ("iso_uses_jets", "naturality", ini(context=ODE, lagrangian={"expr": "u_{1}^2"}, iso={"a": "1", "fiber1": "u_{1}"})),
    ("section_uses_fiber", "numcheck", ini(context=ODE, lagrangian={"expr": "u_{1}^2"}, section={"comp1": "u"}, variation=_FV["variation"])),
    ("variation_at_boundary", "numcheck", ini(context=ODE, lagrangian={"expr": "u_{1}^2"}, section={"comp1": "x"}, variation={"comp1": "x"})),
    ("numcheck_two_bases", "numcheck", ini(context=_C2, lagrangian={"expr": "u_{1}^2"}, section={"comp1": "x1"}, variation={"comp1": "x1"})),
    ("eta_degree", "null-from-eta", ini(context=_C2, eta={"form": "u*dx1 ^ dx2"})),
)


def cli_pool() -> list:
    rng = random.Random(POOL_SEED)
    out = []
    for kind in CLI_KINDS:
        for k in range(CLI_VARIANTS):
            command, text, code, extra = _cli_valid(rng, kind)
            out.append(Problem(f"{kind}-{k}", kind, text, {"command": command, "exit": code, **extra}))
    for name, command, text in CLI_CRASHERS:
        out.append(Problem(name, "crasher", text, {"command": command, "exit": 2}, name))
    for name, command, text in CLI_MALFORMED:
        out.append(Problem(name, "malformed", text, {"command": command, "exit": 2}))
    return out


def cli_small(seed: int) -> list:
    """A seeded variant of every valid kind, every crasher and every
    malformed file, in a seeded order; the mix of kinds is the same for
    every seed, so the slowest tenth of the children is too."""
    rng = random.Random(seed)
    pool = cli_pool()
    out = [rng.choice([p for p in pool if p.kind == kind]) for kind in CLI_KINDS]
    out.extend(p for p in pool if p.kind in ("crasher", "malformed"))
    rng.shuffle(out)
    return out
