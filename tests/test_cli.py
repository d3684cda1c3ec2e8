"""Command-line frontend: problem files, subcommands, exit codes, JSON."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

import jetvar.cli
from jetvar.cli import build_parser, main
from jetvar.dsl import MAX_NESTING
from jetvar.errors import DslError
from jetvar.problem import load_problem
from jetvar.variational import helmholtz_residuals

from corpus import NESTINGS, nested, opened_length

FREE_PARTICLE = """
    [context]
    n = 1
    m = 1
    order = 1
    base = x
    fiber = u

    [lagrangian]
    expr = 1/2*u_{1}^2
"""

FREE_SOURCE = """
    [context]
    n = 1
    m = 1
    order = 2
    base = x
    fiber = u

    [source]
    eps1 = u_{1,1}
"""

OBSTRUCTED_SOURCE = """
    [context]
    n = 1
    m = 1
    order = 1
    base = x
    fiber = u

    [source]
    eps1 = u_{1}
"""


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def problem(tmp_path, text, name="problem.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    diagnostic = json.loads(captured.err) if captured.err else None
    return code, payload, diagnostic


def test_el(tmp_path, capsys):
    path = problem(tmp_path, FREE_PARTICLE)
    code, payload, _ = run(capsys, ["el", path])
    assert code == 0
    assert payload == {"order": 2, "components": ["-u_{1,1}"]}


def test_helmholtz_variational(tmp_path, capsys):
    path = problem(tmp_path, FREE_SOURCE)
    code, payload, _ = run(capsys, ["helmholtz", path])
    assert code == 0
    assert payload["verdict"] == "variational"
    assert payload["residuals"] == []
    assert payload["classical"]["verdict"] == "variational"
    assert payload["verdicts_agree"] is True


def test_helmholtz_obstruction(tmp_path, capsys):
    path = problem(tmp_path, OBSTRUCTED_SOURCE)
    code, payload, _ = run(capsys, ["helmholtz", path])
    assert code == 1
    assert payload["verdict"] == "not_variational"
    assert payload["residuals"] == [
        {"level": 1, "multi_index": [1], "sigma": 1, "nu": 1, "residual": "2"}
    ]


def test_helmholtz_verbose_includes_zero_residuals(tmp_path, capsys):
    path = problem(tmp_path, FREE_SOURCE)
    _, quiet, _ = run(capsys, ["helmholtz", path])
    _, loud, _ = run(capsys, ["helmholtz", path, "--verbose"])
    assert quiet["residuals"] == []
    # order 2, one base direction: levels 0..2 over one component pair
    assert len(loud["residuals"]) == 3
    assert all(rec["residual"] == "0" for rec in loud["residuals"])
    # order 1: the general residuals stop at level 1, the classical ones
    # always run to level 2; the zero ones sit between the nonzero ones
    path = problem(tmp_path, OBSTRUCTED_SOURCE, "obstructed.ini")
    _, loud, _ = run(capsys, ["helmholtz", path, "--verbose"])
    levels = lambda report: [(r["level"], r["residual"]) for r in report["residuals"]]
    assert levels(loud) == [(0, "0"), (1, "2")]
    assert levels(loud["classical"]) == [(0, "0"), (1, "2"), (2, "0")]


def test_helmholtz_output_is_deterministic(tmp_path, capsys):
    path = problem(tmp_path, OBSTRUCTED_SOURCE)
    main(["helmholtz", path])
    first = capsys.readouterr().out
    main(["helmholtz", path])
    second = capsys.readouterr().out
    assert first == second


def test_helmholtz_skips_classical_outside_ode_scope(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 2
        m = 1
        order = 2

        [source]
        eps1 = u_{1,1} + u_{2,2}
        """,
    )
    code, payload, _ = run(capsys, ["helmholtz", path])
    assert code == 0
    assert "classical" not in payload


def test_tonti_reconstruction(tmp_path, capsys):
    path = problem(tmp_path, FREE_SOURCE)
    code, payload, _ = run(capsys, ["tonti", path])
    assert code == 0
    assert payload["lagrangian"] == "1/2*u*u_{1,1}"
    assert payload["verified"] is True
    assert payload["verdict"] == "variational"


def test_tonti_refuses_nonvariational_input(tmp_path, capsys):
    path = problem(tmp_path, OBSTRUCTED_SOURCE)
    code, payload, _ = run(capsys, ["tonti", path])
    assert code == 1
    assert "lagrangian" not in payload
    assert payload["verdict"] == "not_variational"


def test_tonti_skip_flag_reports_failed_verification(tmp_path, capsys):
    path = problem(tmp_path, OBSTRUCTED_SOURCE)
    code, payload, _ = run(capsys, ["tonti", path, "--skip-variational-check"])
    assert code == 1
    assert payload["lagrangian"] == "1/2*u*u_{1}"
    assert payload["verified"] is False


SCALAR_SOURCE = """
    [context]
    n = 1
    m = 1
    order = 2
    base = x
    fiber = u

    [source]
    eps1 = {eps1}
"""


def test_tonti_weighs_negative_fiber_degrees(tmp_path, capsys):
    # the Ermakov source has parts of fiber degree 1 and -3, weighed by 1/2
    # and -1/2
    path = problem(tmp_path, SCALAR_SOURCE.format(eps1="-u_{1,1} - 2*u^-3"))
    code, payload, _ = run(capsys, ["tonti", path])
    assert code == 0
    assert payload["lagrangian"] == "-1/2*u*u_{1,1} + u^(-2)"
    assert payload["verified"] is True


@pytest.mark.parametrize(
    "eps1, message",
    [
        # the Euler-Lagrange form of u_{1}^2*u^-2: fiber degree -1, and its
        # Lagrangians need log u
        ("2*u_{1}^2*u^-3 - 2*u_{1,1}*u^-2", "fiber degree -1"),
        ("u_{1,1} + sin(u)", "parameter inside a function application"),
    ],
    ids=["degree-minus-one", "jet-inside-sin"],
)
def test_tonti_refuses_a_variational_source_without_a_weight(tmp_path, capsys, eps1, message):
    path = problem(tmp_path, SCALAR_SOURCE.format(eps1=eps1))
    code, payload, _ = run(capsys, ["helmholtz", path])
    assert code == 0 and payload["verdict"] == "variational"
    code, payload, diagnostic = run(capsys, ["tonti", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "NonPolynomialParameter"
    assert message in diagnostic["message"]


def test_cartan(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 1
        m = 1
        order = 2
        base = x
        fiber = u

        [lagrangian]
        expr = 1/2*u_{1,1}^2
        """,
    )
    code, payload, _ = run(capsys, ["cartan", path])
    assert code == 0
    assert payload["order"] == 3
    assert "w_u" in payload["contact"]
    assert "w_" not in payload["raw"]
    assert payload["raw"].count("du") == 2


def test_null_check(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 1
        m = 1
        order = 1
        base = x
        fiber = u

        [lagrangian]
        expr = 2*u*u_{1}
        """,
    )
    code, payload, _ = run(capsys, ["null-check", path])
    assert code == 0
    assert payload == {"null": True, "components": ["0"]}
    lively = problem(tmp_path, FREE_PARTICLE, "lively.ini")
    code, payload, _ = run(capsys, ["null-check", lively])
    assert code == 1
    assert payload["null"] is False


def test_null_from_eta(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 2
        m = 1
        order = 1

        [eta]
        form = u^2*dx1 + x1*u*dx2
        """,
    )
    code, payload, _ = run(capsys, ["null-from-eta", path])
    assert code == 0
    assert payload["verified"] is True
    assert payload["order"] == 1
    assert payload["lagrangian"] == "x1*u_{1} - 2*u*u_{2} + u"


def test_naturality(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 1
        m = 1
        order = 1
        base = x
        fiber = u

        [lagrangian]
        expr = 1/2*u_{1}^2

        [iso]
        a = 2
        b = 0
        fiber1 = u + u^2
        """,
    )
    code, payload, _ = run(capsys, ["naturality", path])
    assert code == 0
    assert payload == {"theorem3": "pass", "theorem4": "pass"}


def test_numcheck_first_variation(tmp_path, capsys):
    text = """
        [context]
        n = 1
        m = 1
        order = 1
        base = x
        fiber = u

        [lagrangian]
        expr = 1/2*u_{1}^2 + u^3

        [section]
        comp1 = x^2

        [variation]
        comp1 = x^2*(1-x)^2
    """
    path = problem(tmp_path, text)
    code, payload, _ = run(capsys, ["numcheck", path])
    assert code == 0
    assert payload["pass"] is True
    assert payload["abs_diff"] <= 1e-8
    assert payload["lhs"] == pytest.approx(payload["rhs"], rel=1e-6)
    # an absurd tolerance flips the verdict but not the computation
    code, payload, _ = run(capsys, ["numcheck", path, "--tolerance", "1e-16"])
    assert code == 1
    assert payload["pass"] is False


def test_numcheck_tolerance_file_option_and_override(tmp_path, capsys):
    text = """
        [context]
        n = 1
        m = 1
        order = 1
        base = x
        fiber = u

        [lagrangian]
        expr = 1/2*u_{1}^2 + u^3

        [section]
        comp1 = x^2

        [variation]
        comp1 = x^2*(1-x)^2

        [options]
        tolerance = 1e-16
    """
    path = problem(tmp_path, text)
    code, payload, _ = run(capsys, ["numcheck", path])
    assert code == 1
    code, payload, _ = run(capsys, ["numcheck", path, "--tolerance", "1e-6"])
    assert code == 0


def test_numcheck_residual_mode(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 1
        m = 1
        order = 2
        base = x
        fiber = u

        [source]
        eps1 = u_{1,1}

        [section]
        comp1 = x^2

        [points]
        values = 0.1, 0.5, 0.9
        """,
    )
    code, payload, _ = run(capsys, ["numcheck", path])
    assert code == 0
    assert payload["points"] == [0.1, 0.5, 0.9]
    assert payload["values"] == [[2.0], [2.0], [2.0]]


def test_input_errors_exit_2(tmp_path, capsys):
    code, _, diagnostic = run(capsys, ["el", str(tmp_path / "missing.ini")])
    assert code == 2
    assert diagnostic["error"] == "ProblemFileError"

    nopayload = problem(tmp_path, "[context]\nn = 1\nm = 1\norder = 1\n", "a.ini")
    code, _, diagnostic = run(capsys, ["el", nopayload])
    assert code == 2
    assert "exactly one" in diagnostic["message"]

    both = problem(
        tmp_path,
        """
        [context]
        n = 1
        m = 1
        order = 1

        [lagrangian]
        expr = u

        [source]
        eps1 = u
        """,
        "b.ini",
    )
    code, _, diagnostic = run(capsys, ["el", both])
    assert code == 2

    wrong_payload = problem(tmp_path, FREE_SOURCE, "c.ini")
    code, _, diagnostic = run(capsys, ["el", wrong_payload])
    assert code == 2
    assert "needs a [lagrangian] section" in diagnostic["message"]


def test_dsl_errors_carry_spans_through_cli(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 1
        m = 1
        order = 1
        base = x
        fiber = u

        [lagrangian]
        expr = u_{1}^ + 2
        """,
    )
    code, _, diagnostic = run(capsys, ["el", path])
    assert code == 2
    assert diagnostic["error"] == "DslSyntaxError"
    assert diagnostic["span"] == [7, 8]


@pytest.mark.parametrize(
    "expr, error, span",
    [
        ("u_{1}%2", "DslSyntaxError", [5, 6]),
        ("u_{1}%(x)s", "DslSyntaxError", [5, 6]),
        ("²*u_{1}", "DslSyntaxError", [0, 1]),
        ("u_{¹}^2", "DslSyntaxError", [3, 4]),
        ("9" * 5000 + "*u_{1}^2", "DslSyntaxError", [0, 5000]),
        # a power whose coefficient could pass the kernel's bits, met when
        # parsing; the first exited 2 at rendering, the second ran for
        # seconds and exited 0, since its Euler-Lagrange form is 0
        ("2^99999*u_{1}^2", "ExpansionBudget", None),
        ("3^20000000*u_{1}", "ExpansionBudget", None),
        ("(2/3)^-200000*u_{1}", "ExpansionBudget", None),
        # a coefficient past the digit limit, met when rendering
        ("(10^4299*u_{1})^2", "ExpansionBudget", None),
        # an exponent past the kernel's limit, met when parsing
        ("u^40000", "ExpansionBudget", None),
    ],
    ids=[
        "percent",
        "percent-interpolation",
        "superscript",
        "superscript-index",
        "long-literal",
        "long-power",
        "huge-coefficient",
        "huge-negative-power",
        "long-square",
        "huge-exponent",
    ],
)
def test_crashing_expressions_exit_2(tmp_path, capsys, expr, error, span):
    path = problem(tmp_path, FREE_PARTICLE.replace("1/2*u_{1}^2", expr))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        code, payload, diagnostic = run(capsys, ["el", path])
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 2 and payload is None
    assert diagnostic["error"] == error
    assert diagnostic.get("span") == span


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(problem, opts):
        raise RuntimeError("a bug")

    monkeypatch.setitem(jetvar.cli._COMMANDS, "el", (broken, "a broken command"))
    code, payload, diagnostic = run(capsys, ["el", problem(tmp_path, FREE_PARTICLE)])
    assert code == 3 and payload is None
    assert diagnostic == {"error": "InternalError", "message": "RuntimeError: a bug"}


def test_unencodable_payload_exits_3(tmp_path, capsys, monkeypatch):
    # the payload is written as it is encoded, so the failure comes from
    # the writer, here before its first batch of chunks reaches stdout
    def unencodable(problem, opts):
        return 0, {"value": Fraction(1, 2)}

    monkeypatch.setitem(jetvar.cli._COMMANDS, "el", (unencodable, "unencodable"))
    assert main(["el", problem(tmp_path, FREE_PARTICLE)]) == 3
    diagnostic = {
        "error": "InternalError",
        "message": "TypeError: Object of type Fraction is not JSON serializable",
    }
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps(diagnostic, indent=2, sort_keys=True) + "\n"


def test_stdout_is_one_indented_sorted_document(tmp_path, capsys):
    path = problem(tmp_path, OBSTRUCTED_SOURCE)
    assert main(["helmholtz", path, "--verbose"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert captured.out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert captured.err == "" and len(payload["classical"]["residuals"]) == 3


def test_span_less_dsl_error_reports_null_span(tmp_path, capsys, monkeypatch):
    def fail(path):
        raise DslError("no position for this error")

    monkeypatch.setattr("jetvar.cli.load_problem", fail)
    code, payload, diagnostic = run(capsys, ["el", str(tmp_path / "any.ini")])
    assert code == 2 and payload is None
    assert diagnostic == {
        "error": "DslError",
        "message": "no position for this error",
        "span": None,
    }


def test_division_by_zero_constant_exits_2(tmp_path, capsys):
    path = problem(tmp_path, FREE_PARTICLE.replace("1/2*u_{1}^2", "u/0"))
    code, payload, diagnostic = run(capsys, ["el", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "DivisionByZero"


def test_pole_at_evaluation_point_exits_2(tmp_path, capsys):
    path = problem(
        tmp_path,
        """
        [context]
        n = 1
        m = 1
        order = 0
        base = x
        fiber = u

        [source]
        eps1 = u^(-1)

        [section]
        comp1 = x

        [points]
        values = 0
        """,
    )
    code, payload, diagnostic = run(capsys, ["numcheck", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "DivisionByZero"
    assert diagnostic["message"] == "u is 0 at this point, so its power -1 has a pole"


POLE_ON_SECTION = """
    [context]
    n = 1
    m = 1
    order = 1
    base = x
    fiber = u

    [section]
    comp1 = x - 1/2
"""


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            "[source]\n    eps1 = x*sin(x*u)^(-2)\n    [points]\n    values = 0.5",
            "sin(x*u) is 0 at this point, so its power -2 has a pole",
        ),
        (
            # the middle node of three is x = 1/2, where the source form
            # -u^(-2) of the Lagrangian has its pole
            "[lagrangian]\n    expr = u^(-1)\n    [variation]\n    comp1 = x^2*(1-x)^2\n"
            "    [options]\n    nodes = 3",
            "u is 0 at this point, so its power -2 has a pole",
        ),
    ],
    ids=["residual", "first-variation"],
)
def test_a_pole_names_its_atom_as_rendered(tmp_path, capsys, payload, message):
    path = problem(tmp_path, POLE_ON_SECTION + "\n    " + payload + "\n")
    code, out, diagnostic = run(capsys, ["numcheck", path])
    assert code == 2 and out is None
    assert diagnostic == {"error": "DivisionByZero", "message": message}


FIRST_VARIATION = """
    [context]
    n = 1
    m = 1
    order = 1
    base = x
    fiber = u

    [lagrangian]
    expr = 1/2*u_{1}^2

    [section]
    comp1 = x^2

    [variation]
    comp1 = x^2*(1-x)^2
"""


@pytest.mark.parametrize(
    "option",
    [
        "nodes = 1",
        "nodes = 1001",
        "step = -1",
        "tolerance = nan",
        "tolerance = -1",
    ],
)
def test_bad_numeric_option_exits_2(tmp_path, capsys, option):
    path = problem(tmp_path, FIRST_VARIATION + f"\n    [options]\n    {option}\n")
    code, payload, diagnostic = run(capsys, ["numcheck", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "ProblemFileError"
    if option.startswith("step"):
        # the finite-difference step is the constant numeric.STEP
        assert diagnostic["message"] == "unknown option 'step'"


@pytest.mark.parametrize(
    "option", ["verbose = maybe", "skip-variational-check = ture", "verbose ="]
)
def test_misspelt_boolean_option_exits_2(tmp_path, capsys, option):
    # a misspelt boolean was read as false: tonti ran its gate and exited 1
    text = OBSTRUCTED_SOURCE + f"\n    [options]\n    {option}\n"
    code, payload, diagnostic = run(capsys, ["tonti", problem(tmp_path, text)])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "ProblemFileError"
    key = option.split("=")[0].strip()
    assert diagnostic["message"].startswith(f"bad value for option {key!r}")


def test_boolean_option_spellings(tmp_path, capsys):
    # with the gate skipped, tonti reports its Lagrangian; with it, it stops
    for word, skipped in (("1", True), ("True", True), ("YES", True), ("on", True),
                          ("0", False), ("FALSE", False), ("no", False), ("Off", False)):
        text = OBSTRUCTED_SOURCE + f"\n    [options]\n    skip-variational-check = {word}\n"
        code, payload, _ = run(capsys, ["tonti", problem(tmp_path, text)])
        assert code == 1 and ("lagrangian" in payload) is skipped


def test_evaluation_overflow_exits_2(tmp_path, capsys):
    text = FIRST_VARIATION.replace("1/2*u_{1}^2", "exp(u_{1})").replace(
        "comp1 = x^2\n", "comp1 = 1000*x\n", 1
    )
    path = problem(tmp_path, text)
    code, payload, diagnostic = run(capsys, ["numcheck", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "NumericOverflow"


def test_product_overflow_exits_2(tmp_path, capsys):
    # each factor is finite (about 1e300); only their product overflows
    text = FIRST_VARIATION.replace("1/2*u_{1}^2", "u^100*u_{1}^100").replace(
        "comp1 = x^2\n", "comp1 = 1000*x\n", 1
    )
    path = problem(tmp_path, text)
    code, payload, diagnostic = run(capsys, ["numcheck", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "NumericOverflow"


def test_first_variation_overflow_exits_2(tmp_path, capsys):
    # every value is finite, but the source form times the variation
    # overflows in the quadrature sum; the check read it as a pass, with
    # rhs -inf and rel_diff NaN
    text = FIRST_VARIATION.replace("1/2*u_{1}^2", "10^305*u_{1}^2").replace(
        "comp1 = x^2*(1-x)^2", "comp1 = 10^4*x^2*(1-x)^2"
    )
    code, payload, diagnostic = run(capsys, ["numcheck", problem(tmp_path, text)])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "NumericOverflow"
    text = text.replace("10^305", "10^300")
    code, payload, _ = run(capsys, ["numcheck", problem(tmp_path, text)])
    assert code == 0 and payload["pass"] is True
    assert payload["rhs"] == pytest.approx(-4.0 / 3.0 * 1e303)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_tolerance_flag_exits_2(tmp_path, capsys, value):
    path = problem(tmp_path, FIRST_VARIATION)
    code, payload, diagnostic = run(capsys, ["numcheck", path, "--tolerance", value])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "ProblemFileError"


@pytest.mark.parametrize("values", ["inf", "0.5, nan", "-inf"])
def test_non_finite_point_exits_2(tmp_path, capsys, values):
    text = """
        [context]
        n = 1
        m = 1
        order = 0
        base = x
        fiber = u

        [source]
        eps1 = sin(u)

        [section]
        comp1 = x

        [points]
        values = {values}
    """.replace("{values}", values)
    path = problem(tmp_path, text)
    code, payload, diagnostic = run(capsys, ["numcheck", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "ProblemFileError"


def test_non_utf8_problem_file_exits_2(tmp_path, capsys):
    path = tmp_path / "problem.ini"
    path.write_bytes(textwrap.dedent(FREE_PARTICLE).encode() + b"# \xff\xfe\n")
    code, payload, diagnostic = run(capsys, ["el", str(path)])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "ProblemFileError"
    assert "UTF-8" in diagnostic["message"]


@pytest.mark.parametrize("openers, atom", list(NESTINGS.values()), ids=list(NESTINGS))
def test_nesting_past_limit_exits_2(tmp_path, capsys, openers, atom):
    expr = nested(openers, atom, MAX_NESTING + 1)
    path = problem(tmp_path, FREE_PARTICLE.replace("1/2*u_{1}^2", expr))
    code, payload, diagnostic = run(capsys, ["el", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "DslSyntaxError"
    assert diagnostic["span"][0] == opened_length(openers, MAX_NESTING)


@pytest.mark.parametrize(
    "names, refused",
    [("fiber = u_a", "'u_a'"), ("fiber = u\u0301", "'u\u0301'"), ("fiber = dx", "'dx'")],
    ids=["underscore", "combining-accent", "differential"],
)
def test_names_the_language_cannot_read_exit_2(tmp_path, capsys, names, refused):
    # with them, an expression such as u_a_{1}^2 could not be written, and
    # the rendering of dx, the 1-form, would parse back as the coordinate
    path = problem(tmp_path, FREE_PARTICLE.replace("fiber = u", names).replace("u_{1}", "x"))
    code, payload, diagnostic = run(capsys, ["el", path])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "ProblemFileError"
    assert diagnostic["message"].startswith(refused)


def test_order_seven_operators_run_under_the_derived_ceiling(tmp_path, capsys):
    # the ceiling of an order-7 file is 14, which EL (order 14), Cartan
    # (order 13) and the Helmholtz residuals (order 14) each stay within;
    # a fixed ceiling of 12 stopped all three with OrderOverflow
    def jet(k):
        return "u_{" + ",".join("1" * k) + "}"

    lagrangian = FREE_PARTICLE.replace("1/2*u_{1}^2", jet(7) + "^2")
    path = problem(tmp_path, lagrangian.replace("order = 1", "order = 7"))
    code, payload, _ = run(capsys, ["el", path])
    assert code == 0
    assert payload == {"order": 14, "components": ["-2*" + jet(14)]}
    code, payload, _ = run(capsys, ["cartan", path])
    assert code == 0 and payload["order"] == 13
    source = OBSTRUCTED_SOURCE.replace("u_{1}", jet(7) + "^2")
    path = problem(tmp_path, source.replace("order = 1", "order = 7"), "source.ini")
    code, payload, _ = run(capsys, ["helmholtz", path])
    assert code == 1 and payload["verdict"] == "not_variational"
    assert payload["residuals"][0]["residual"] == "2*" + jet(14)


PLANE_LAGRANGIAN = """
    [context]
    n = 2
    m = 1
    order = {order}
    base = x1, x2
    fiber = u

    [lagrangian]
    expr = u_{{1}}^2 + u_{{2}}^2
"""

PLANE_SOURCE = """
    [context]
    n = 2
    m = 1
    order = {order}
    base = x1, x2
    fiber = u

    [source]
    eps1 = u_{{1,1}} + u_{{2,2}}
"""

PLANE_ISO = """
    [iso]
    a = 2, 0; 0, 1
    fiber1 = u + u^2
"""

LINE_VARIATION = """
    [context]
    n = 1
    m = 1
    order = {order}
    base = x
    fiber = u

    [lagrangian]
    expr = 1/2*u_{{1}}^2

    [section]
    comp1 = x^2

    [variation]
    comp1 = x^2*(1-x)^2
"""

PLANE_SECTION = """
    [section]
    comp1 = x1^3*x2 + x2^2

    [points]
    values = 0.1, 0.2; 0.5, 0.5; 0.9, 0.3
"""


def timed(capsys, argv):
    start = time.perf_counter()
    code, payload, _ = run(capsys, argv)
    return code, payload, time.perf_counter() - start


def test_operators_walk_the_jets_that_occur_not_the_declared_order(tmp_path, capsys):
    # Euler-Lagrange and Cartan descend from the partials of L, so an
    # order-500 declaration costs what an order-1 one does, well under the
    # seconds a walk over every multi-index up to order 500 takes; only
    # the declared output order moves
    low = problem(tmp_path, PLANE_LAGRANGIAN.format(order=1), "low.ini")
    high = problem(tmp_path, PLANE_LAGRANGIAN.format(order=500), "high.ini")
    cases = (("el", (2, 1000)), ("cartan", (1, 999)), ("null-check", None))
    for command, orders in cases:
        code, expected, _ = timed(capsys, [command, low])
        high_code, payload, seconds = timed(capsys, [command, high])
        assert seconds <= 1.0, command
        if orders:
            assert (expected.pop("order"), payload.pop("order")) == orders
        assert (high_code, payload) == (code, expected)
    # the Helmholtz residuals above the occurring order are zero, and a
    # report keeps none of them
    low = problem(tmp_path, PLANE_SOURCE.format(order=2), "low.ini")
    high = problem(tmp_path, PLANE_SOURCE.format(order=300), "high.ini")
    for command in ("helmholtz", "tonti"):
        code, expected, _ = timed(capsys, [command, low])
        high_code, payload, seconds = timed(capsys, [command, high])
        assert seconds <= 1.0, command
        if command == "tonti":
            assert (expected.pop("order"), payload.pop("order")) == (2, 300)
        assert code == 0 and payload["verdict"] == "variational"
        assert (high_code, payload) == (code, expected)
    assert helmholtz_residuals(load_problem(high).source).records == ()
    # pullback and the numeric layer prolong only the jets that occur, and
    # the boundary guard of the first variation asks only the jets below
    # the order of the highest jet of L to vanish
    for template, command, orders in (
        (PLANE_LAGRANGIAN + PLANE_ISO, "naturality", (1, 40)),
        (PLANE_SOURCE + PLANE_SECTION, "numcheck", (2, 120)),
        (LINE_VARIATION, "numcheck", (1, 40)),
    ):
        low = problem(tmp_path, template.format(order=orders[0]), "low.ini")
        high = problem(tmp_path, template.format(order=orders[1]), "high.ini")
        code, expected, _ = timed(capsys, [command, low])
        high_code, payload, seconds = timed(capsys, [command, high])
        assert seconds <= 1.0, command
        assert code == 0 and (high_code, payload) == (code, expected)


def test_no_module_reads_the_process_environment():
    # a run depends on the problem file and the flags only
    for path in Path(jetvar.cli.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name


def test_console_script_entry_point(tmp_path, capsys):
    # the [project.scripts] target runs in-process wherever the package is
    # importable; the installed script, where there is one, runs as well
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(PYPROJECT, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["jetvar"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    path = problem(tmp_path, FREE_PARTICLE)
    assert entry(["el", path]) == 0
    assert json.loads(capsys.readouterr().out)["components"] == ["-u_{1,1}"]
    if shutil.which("jetvar") is not None:
        proc = subprocess.run(["jetvar", "el", path], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["components"] == ["-u_{1,1}"]


def test_singular_fiber_map_exits_2(tmp_path, capsys):
    # ubar = x1 does not depend on u, so the map is no fibered isomorphism
    text = """
        [context]
        n = 2
        m = 1
        order = 1
        base = x1, x2
        fiber = u

        [lagrangian]
        expr = u - x1

        [iso]
        a = 1, 0; 0, 1
        fiber1 = x1
        """
    code, payload, diagnostic = run(capsys, ["naturality", problem(tmp_path, text)])
    assert code == 2 and payload is None
    assert diagnostic == {
        "error": "SingularFiberMap",
        "message": "fiber map Jacobian determinant vanishes identically",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus", "FILE"], "argument command: invalid choice: 'bogus'"),
        (["el"], "the following arguments are required: file"),
        ([], "the following arguments are required: command"),
        (["el", "FILE", "--tolerance", "abc"], "argument --tolerance: invalid float"),
        (["el", "FILE", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["el", "FILE", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    ],
    ids=["subcommand", "missing-file", "missing-command", "tolerance", "seed", "flag"],
)
def test_usage_error_is_a_json_diagnostic(tmp_path, capsys, argv, message):
    path = problem(tmp_path, FREE_PARTICLE)
    with pytest.raises(SystemExit) as exit_info:
        main([path if arg == "FILE" else arg for arg in argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = json.loads(captured.err)
    assert set(diagnostic) == {"error", "message"}
    assert diagnostic["error"] == "UsageError"
    assert diagnostic["message"].startswith(message)
    assert captured.err == json.dumps(diagnostic, indent=2, sort_keys=True) + "\n"


def test_help_stays_plain_text(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["el", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: jetvar el")


# --- how a command line is read ----------------------------------------------


def test_a_command_line_the_reader_accepts_reads_the_same_through_argparse():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tokens = ["--verbose", "--skip-variational-check", "--verb", "--skip", "-h", "--help", "--"]
    tokens += ["--tolerance", "--seed", "--tol", "--tolerance=1e-3", "--seed=-5", "--verbose=1"]
    tokens += ["1e-3", "3", "-5", "-1e-3", "abc", "nan", ""]
    commands = list(jetvar.cli._COMMANDS) + ["bogus", "e", "-h", "--help"]
    files = ["p.ini", "p.ini", "el", "", "-", "-p.ini", "--verbose", "a=b"]
    accepted, drawn = [], []

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
    @hypothesis.given(
        st.sampled_from(commands),
        st.sampled_from(files),
        st.lists(st.sampled_from(tokens), max_size=4),
        st.sampled_from([0, 0, 0, 1, 2]),
    )
    def agree(command, file, tokens, at):
        argv = [command] + tokens[:at] + [file] + tokens[at:]
        drawn.append(argv)
        read = jetvar.cli._read_argv(argv)
        if read is not None:
            accepted.append(argv)
            parsed = vars(build_parser().parse_args(argv))
            assert repr(sorted(read.items())) == repr(sorted(parsed.items()))

    agree()
    assert len(drawn) >= 300 and len(accepted) >= 20
    assert all(len(argv) == 2 for argv in accepted)


def outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv), an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "text, argv, flags, same_as",
    [
        (OBSTRUCTED_SOURCE, ["helmholtz", "FILE", "--verbose"], {"verbose": True}, None),
        (OBSTRUCTED_SOURCE, ["helmholtz", "FILE", "--verb"], {"verbose": True}, ["--verbose"]),
        (
            FIRST_VARIATION,
            ["numcheck", "FILE", "--tolerance=1e-3"],
            {"tolerance": 1e-3},
            ["--tolerance", "1e-3"],
        ),
        (FREE_PARTICLE, ["el", "--verbose", "FILE"], {"verbose": True}, ["--verbose"]),
        (FREE_SOURCE, ["helmholtz", "FILE", "--seed", "-5"], {"seed": -5}, None),
    ],
    ids=["flag", "abbreviation", "equals", "flag-before-file", "dash-led-value"],
)
def test_argparse_reads_what_the_reader_leaves(
    tmp_path, capsys, monkeypatch, text, argv, flags, same_as
):
    # each command line runs with its flags, and prints what the full spelling prints
    path = problem(tmp_path, text)
    argv = [path if arg == "FILE" else arg for arg in argv]
    assert jetvar.cli._read_argv(argv) is None
    seen = []
    real_run = jetvar.cli._run
    monkeypatch.setattr(jetvar.cli, "_run", lambda *args: seen.append(args) or real_run(*args))
    left = outcome(capsys, argv)
    assert seen == [(argv[0], path, flags)]
    assert left[0] in (0, 1) and left[1] and left[2] == ""
    if same_as is not None:
        assert left == outcome(capsys, [argv[0], path, *same_as])


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["el", "FILE", "--help"]], ids=["help", "h", "el-help"]
)
def test_help_is_argparse_text(tmp_path, capsys, argv):
    argv = [problem(tmp_path, FREE_PARTICLE) if arg == "FILE" else arg for arg in argv]
    assert jetvar.cli._read_argv(argv) is None
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    text = capsys.readouterr().out
    assert exit_info.value.code == 0 and text.startswith("usage: jetvar")
    assert outcome(capsys, argv) == (0, text, "")


def in_child(code, *args, env=None, **kwargs):
    """Run python -c code with jetvar importable from this checkout."""
    src = str(Path(jetvar.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, **kwargs)


@pytest.mark.parametrize("argv, loaded", [([], False), (["--verbose"], True)])
def test_a_bare_command_line_never_imports_argparse(tmp_path, argv, loaded):
    code = (
        "import sys, jetvar.cli; jetvar.cli.main(sys.argv[1:]); "
        "print('argparse' in sys.modules)"
    )
    path = problem(tmp_path, FREE_PARTICLE)
    proc = in_child(code, "el", path, *argv, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.endswith(f"\n{loaded}\n")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "stream, argv",
    [
        ("stdout", ["el", "FILE"]),
        ("stderr", ["el", "MISSING"]),
        ("stdout", ["el", "FILE", "--help"]),
        ("stderr", ["el"]),
    ],
    ids=["payload", "diagnostic", "help", "usage-error"],
)
def test_a_closed_stream_exits_141_and_writes_nothing_more(tmp_path, stream, argv, unbuffered):
    # a good file's payload and the help text go to stdout, a missing file's
    # diagnostic and a usage error to stderr; the other stream must stay empty
    files = {"FILE": problem(tmp_path, FREE_PARTICLE), "MISSING": str(tmp_path / "no.ini")}
    read, write = os.pipe()
    os.close(read)
    other = "stderr" if stream == "stdout" else "stdout"
    try:
        proc = in_child(
            "import sys, jetvar.cli; sys.exit(jetvar.cli.main(sys.argv[1:]))",
            *[files.get(arg, arg) for arg in argv],
            env={"PYTHONUNBUFFERED": unbuffered},
            **{stream: write, other: subprocess.PIPE},
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert getattr(proc, other) == b""


@pytest.mark.parametrize(
    "stream, sink, argv",
    [
        ("stdout", "closed", ["el", "FILE"]),
        ("stdout", "full", ["el", "FILE"]),
        ("stderr", "closed", ["el", "MISSING"]),
        ("stderr", "full", ["el", "MISSING"]),
        ("stderr", "full", ["el"]),
    ],
    ids=["payload-closed", "payload-full", "diagnostic-closed", "diagnostic-full", "usage-full"],
)
def test_an_unwritable_stream_exits_141_and_writes_nothing_more(tmp_path, stream, sink, argv):
    # a descriptor closed before start leaves sys.stdout or sys.stderr None;
    # /dev/full fails every write; the other stream must stay empty
    files = {"FILE": problem(tmp_path, FREE_PARTICLE), "MISSING": str(tmp_path / "no.ini")}
    other = "stderr" if stream == "stdout" else "stdout"
    fd = 1 if stream == "stdout" else 2
    with open("/dev/full", "wb") as full:
        proc = in_child(
            "import sys, jetvar.cli; sys.exit(jetvar.cli.main(sys.argv[1:]))",
            *[files.get(arg, arg) for arg in argv],
            preexec_fn=(lambda: os.close(fd)) if sink == "closed" else None,
            **{stream: full, other: subprocess.PIPE},
        )
    assert proc.returncode == 141
    assert getattr(proc, other) == b""


UNSORTED_INDEX = """
    [context]
    n = 2
    m = 1
    order = 2
    base = x, y
    fiber = u

    [lagrangian]
    expr = u_{2,1}
"""


def test_warnings_join_the_diagnostic_of_an_error(tmp_path, capsys):
    text = UNSORTED_INDEX.replace("u_{2,1}", "u_{2,1} + (")
    code, payload, diagnostic = run(capsys, ["el", problem(tmp_path, text)])
    assert code == 2 and payload is None
    assert diagnostic["error"] == "DslSyntaxError"
    assert diagnostic["warnings"] == ["jet index (2, 1) normalized to (1, 2)"]


def test_warnings_of_a_success_are_one_json_object(tmp_path, capsys):
    code, payload, diagnostic = run(capsys, ["el", problem(tmp_path, UNSORTED_INDEX)])
    assert code == 0
    assert payload["components"] == ["0"]
    assert diagnostic == {"warnings": ["jet index (2, 1) normalized to (1, 2)"]}
    order_zero = FREE_PARTICLE.replace("order = 1", "order = 0").replace(
        "1/2*u_{1}^2", "u^2"
    )
    code, payload, diagnostic = run(capsys, ["cartan", problem(tmp_path, order_zero)])
    assert code == 0
    assert payload["order"] == 0
    assert payload["contact"] == "u^2*dx"
    assert diagnostic == {
        "warnings": ["order-0 Lagrangian: the Cartan form is the Lagrangian itself"]
    }


def test_stderr_of_a_process_with_warnings_is_one_json_document(tmp_path):
    text = UNSORTED_INDEX.replace("u_{2,1}", "u_{2,1} + (")
    proc = subprocess.run(
        [sys.executable, "-m", "jetvar.cli", "el", problem(tmp_path, text)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetvar.cli.__file__).parents[1])},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    diagnostic = json.loads(proc.stderr)
    assert diagnostic["error"] == "DslSyntaxError"
    assert len(diagnostic["warnings"]) == 1


def test_a_base_named_t_parses_and_renders(tmp_path, capsys):
    text = FREE_PARTICLE.replace("base = x", "base = t").replace(
        "1/2*u_{1}^2", "1/2*u_{1}^2 + t*u"
    )
    code, payload, diagnostic = run(capsys, ["el", problem(tmp_path, text)])
    assert code == 0 and diagnostic is None
    assert payload == {"order": 2, "components": ["t - u_{1,1}"]}


# --- one decider behind every claim that can exit 1 ----------------------------


def ode_problem(tmp_path, section, key, value):
    """FREE_PARTICLE with its [lagrangian] replaced by one key of section."""
    old = "[lagrangian]\n    expr = 1/2*u_{1}^2"
    new = f"[{section}]\n    {key} = {value}"
    return problem(tmp_path, FREE_PARTICLE.replace(old, new))


@pytest.mark.parametrize("seed", range(10))
def test_a_probe_point_that_overflows_gives_no_reading(tmp_path, capsys, seed):
    # some probe points of exp(exp(exp(u_{1}))) overflow; the others read
    # the residual as nonzero, so no seed ends as bad input
    path = ode_problem(tmp_path, "source", "eps1", "exp(exp(exp(u_{1})))")
    code, payload, diagnostic = run(capsys, ["helmholtz", path, "--seed", str(seed)])
    assert code == 1 and diagnostic is None
    assert payload["verdict"] == payload["classical"]["verdict"] == "not_variational"


def test_null_check_of_a_hidden_identity_is_undecided(tmp_path, capsys):
    expr = "u_{1}^2*(sin(u)^2+cos(u)^2-1)"
    path = ode_problem(tmp_path, "lagrangian", "expr", expr)
    code, payload, _ = run(capsys, ["null-check", path])
    assert code == 1
    assert payload["null"] == "undecided"


def test_tonti_and_helmholtz_agree_on_a_hidden_identity(tmp_path, capsys):
    path = ode_problem(tmp_path, "source", "eps1", "u_{1}*(sin(x)^2+cos(x)^2-1)")
    code, payload, _ = run(capsys, ["tonti", path, "--skip-variational-check"])
    assert code == 1
    assert payload["verified"] == "undecided"
    code, payload, _ = run(capsys, ["helmholtz", path])
    assert code == 1
    assert payload["verdict"] == "undecided"


@pytest.mark.parametrize("answer, code", [(True, 0), (False, 1), (None, 1)])
def test_the_exit_code_follows_the_answer(tmp_path, capsys, monkeypatch, answer, code):
    def answering(problem, opts):
        return answer, {"k": 1}

    monkeypatch.setitem(jetvar.cli._COMMANDS, "el", (answering, "an answer"))
    path = problem(tmp_path, FREE_PARTICLE)
    assert run(capsys, ["el", path]) == (code, {"k": 1}, None)


@pytest.mark.parametrize(
    "answers, shown, answer",
    [
        ((True, None), ("pass", "undecided"), None),
        ((None, False), ("undecided", "fail"), False),
    ],
)
def test_naturality_prints_an_undecided_theorem(
    tmp_path, capsys, monkeypatch, answers, shown, answer
):
    # the command answers no when a theorem fails, else undecided when one
    # is undecided; both exit 1
    keys = ("theorem3", "theorem4")

    def report(lag, iso, probe_seed):
        return dict(zip(keys, answers))

    monkeypatch.setattr(jetvar.cli, "naturality_report", report)
    path = problem(tmp_path, FREE_PARTICLE + "\n    [iso]\n    a = 2\n    fiber1 = u\n")
    assert run(capsys, ["naturality", path]) == (1, dict(zip(keys, shown)), None)
    loaded = load_problem(path)
    assert jetvar.cli._cmd_naturality(loaded, loaded.options)[0] is answer


ABSOLUTE_THRESHOLD = (
    "ROADMAP item 1(a): the probe compares a float with an absolute threshold, "
    "so the roundoff of a large identically zero value reads as nonzero"
)


@pytest.mark.xfail(strict=True, reason=ABSOLUTE_THRESHOLD)
def test_a_scaled_hidden_identity_is_no_helmholtz_negative(tmp_path, capsys):
    eps = "10000000*u_{1}^2*(sin(u_{1})^2+cos(u_{1})^2-1)"
    path = ode_problem(tmp_path, "source", "eps1", eps)
    _, payload, _ = run(capsys, ["helmholtz", path])
    assert payload["verdict"] != "not_variational"


@pytest.mark.xfail(strict=True, reason=ABSOLUTE_THRESHOLD)
def test_a_scaled_hidden_identity_is_no_null_check_negative(tmp_path, capsys):
    expr = "1000000000*u_{1}^2*(sin(u_{1})^2+cos(u_{1})^2-1)"
    path = ode_problem(tmp_path, "lagrangian", "expr", expr)
    _, payload, _ = run(capsys, ["null-check", path])
    assert payload["null"] is not False
