"""Problem-file reader: the documented INI subset, pinned through main()."""

import json
import os
import subprocess
import sys

import pytest

import jetvar
from jetvar.cli import main

CONTEXT = "[context]\nn = 1\nm = 1\norder = 1\nbase = x\nfiber = u\n"
FREE_PARTICLE = CONTEXT + "\n[lagrangian]\nexpr = 1/2*u_{1}^2\n"


def write(tmp_path, text, newline="\n"):
    path = tmp_path / "problem.ini"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return str(path)


def run_el(capsys, path):
    code = main(["el", path])
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    diagnostic = json.loads(captured.err) if captured.err else None
    return code, payload, diagnostic


@pytest.fixture
def free_particle_output(tmp_path, capsys):
    code, payload, _ = run_el(capsys, write(tmp_path, FREE_PARTICLE))
    assert code == 0
    return payload


@pytest.mark.parametrize(
    "text, line, what",
    [
        (FREE_PARTICLE + "\n[context]\nn = 1\n", 11, "duplicate section [context]"),
        (FREE_PARTICLE + "EXPR = u\n", 10, "duplicate key 'expr' in [lagrangian]"),
        ("# comment\nn = 1\n" + FREE_PARTICLE, 2, "key before the first [section]"),
        (FREE_PARTICLE + "u_{1}^2\n", 10, "no '=' or ':'"),
        (FREE_PARTICLE + "= u\n", 10, "empty key"),
        (FREE_PARTICLE + ": u\n", 10, "empty key"),
        (FREE_PARTICLE + "[points] 0\n", 10, "no '=' or ':'"),
    ],
    ids=[
        "duplicate_section",
        "duplicate_key",
        "key_before_header",
        "no_delimiter",
        "empty_key",
        "empty_key_colon",
        "text_after_header",
    ],
)
def test_malformed_lines_exit_2_with_their_line(tmp_path, capsys, text, line, what):
    code, payload, diagnostic = run_el(capsys, write(tmp_path, text))
    assert code == 2 and payload is None
    assert diagnostic["error"] == "ProblemFileError"
    assert diagnostic["message"].startswith(f"malformed problem file: line {line}: ")
    assert what in diagnostic["message"]


@pytest.mark.parametrize(
    "text, newline",
    [
        ("# a comment\n; another\n" + CONTEXT + "  # indented\n"
         "\n[lagrangian]\nexpr = 1/2*u_{1}^2\n", "\n"),
        (CONTEXT.replace("n = 1", "N = 1") + "\n[lagrangian]\nExpr = 1/2*u_{1}^2\n", "\n"),
        (CONTEXT.replace(" = ", ": ") + "\n[lagrangian]\nexpr: 1/2*u_{1}^2\n", "\n"),
        ("  " + FREE_PARTICLE.replace("\n", "\n  "), "\n"),
        (FREE_PARTICLE, "\r\n"),
        (FREE_PARTICLE, "\r"),
    ],
    ids=["comments", "upper_case_keys", "colon", "uniform_indent", "crlf", "cr"],
)
def test_accepted_forms_load_as_before(
    tmp_path, capsys, free_particle_output, text, newline
):
    code, payload, _ = run_el(capsys, write(tmp_path, text, newline))
    assert code == 0
    assert payload == free_particle_output


def test_indented_line_continues_the_value(tmp_path, capsys):
    text = CONTEXT + "\n[lagrangian]\nexpr = 1/2*u_{1}^2\n    + u\n\n  - x*u\n"
    code, payload, _ = run_el(capsys, write(tmp_path, text))
    one_line = CONTEXT + "\n[lagrangian]\nexpr = 1/2*u_{1}^2 + u - x*u\n"
    assert code == 0
    assert (code, payload) == run_el(capsys, write(tmp_path, one_line))[:2]


@pytest.mark.parametrize(
    "separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"]
)
def test_only_newlines_end_a_line(tmp_path, capsys, free_particle_output, separator):
    # the separator stays in the value, where the parser reads it as
    # whitespace; splitting the value there would leave "u_{1}^2" as a
    # line with no delimiter
    text = FREE_PARTICLE.replace("1/2*u_{1}^2", f"1/2*{separator}u_{{1}}^2")
    code, payload, _ = run_el(capsys, write(tmp_path, text))
    assert code == 0
    assert payload == free_particle_output


def test_default_section_is_an_ordinary_section(tmp_path, capsys, free_particle_output):
    # keys of [DEFAULT] are not copied into [options], where "colour"
    # would be an unknown option
    text = "[DEFAULT]\ncolour = red\n\n" + FREE_PARTICLE + "\n[options]\nseed = 1\n"
    code, payload, _ = run_el(capsys, write(tmp_path, text))
    assert code == 0
    assert payload == free_particle_output


def test_section_names_are_case_sensitive(tmp_path, capsys):
    text = FREE_PARTICLE.replace("[context]", "[Context]")
    code, _, diagnostic = run_el(capsys, write(tmp_path, text))
    assert code == 2
    assert diagnostic["message"] == "missing [context] section"


SOURCE = CONTEXT + "\n[source]\neps1 = u_{1}\n"


@pytest.mark.parametrize(
    "text, key, section",
    [
        (CONTEXT + "dim = 1\n" + FREE_PARTICLE[len(CONTEXT):], "dim", "context"),
        (FREE_PARTICLE + "expresion = u\n", "expresion", "lagrangian"),
        (FREE_PARTICLE + "[points] values = 0.5\n", "[points] values", "lagrangian"),
        (SOURCE + "eps2 = u\n", "eps2", "source"),
        (CONTEXT + "\n[eta]\nform = u*dx\nfrom = u\n", "from", "eta"),
        (FREE_PARTICLE + "\n[iso]\na = 1\nfiber1 = u\nc = 0\n", "c", "iso"),
        (FREE_PARTICLE + "\n[section]\ncomp1 = x\ncomp2 = x\n", "comp2", "section"),
        (FREE_PARTICLE + "\n[variation]\ncomp0 = x\n", "comp0", "variation"),
        (FREE_PARTICLE + "\n[points]\nvalues = 0.5\nvalue = 1\n", "value", "points"),
    ],
    ids=[
        "context",
        "lagrangian",
        "text_after_header",
        "source",
        "eta",
        "iso",
        "section",
        "variation",
        "points",
    ],
)
def test_unknown_key_exits_2(tmp_path, capsys, text, key, section):
    code, payload, diagnostic = run_el(capsys, write(tmp_path, text))
    assert code == 2 and payload is None
    assert diagnostic == {
        "error": "ProblemFileError",
        "message": f"unknown key {key!r} in [{section}]",
    }


def test_every_key_a_section_takes_is_accepted(tmp_path, capsys, free_particle_output):
    text = FREE_PARTICLE + (
        "\n[iso]\na = 2\nb = 1\nfiber1 = u\n"
        "\n[section]\ncomp1 = x\n"
        "\n[variation]\ncomp1 = x^2\n"
        "\n[points]\nvalues = 0.5\n"
    )
    code, payload, _ = run_el(capsys, write(tmp_path, text))
    assert code == 0
    assert payload == free_particle_output


PLANE = CONTEXT.replace("n = 1", "n = 2").replace("base = x", "base = x, y")
PLANE_PARTICLE = PLANE + "\n[lagrangian]\nexpr = u\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (FREE_PARTICLE.replace("n = 1\n", "", 1), "missing 'n' in [context]"),
        (CONTEXT + "\n[lagrangian]\n", "missing 'expr' in [lagrangian]"),
        (CONTEXT + "\n[eta]\n", "missing 'form' in [eta]"),
        (FREE_PARTICLE + "\n[points]\n", "missing 'values' in [points]"),
        (
            CONTEXT.replace("m = 1", "m = 2").replace("fiber = u", "fiber = u, v")
            + "\n[source]\neps1 = u\n",
            "missing 'eps2' in [source]",
        ),
        (FREE_PARTICLE + "\n[section]\n", "missing 'comp1' in [section]"),
        (FREE_PARTICLE + "\n[iso]\na = 1\n", "missing 'fiber1' in [iso]"),
        (FREE_PARTICLE + "\n[iso]\nfiber1 = u\n", "missing 'a' in [iso]"),
        (FREE_PARTICLE.replace("n = 1", "n = one"), "'n' in [context] must be an integer"),
        (FREE_PARTICLE.replace("base = x", "base = sin"), "'sin' is reserved"),
        (
            FREE_PARTICLE.replace("base = x", "base = u"),
            "coordinate names must be pairwise distinct",
        ),
        (
            FREE_PARTICLE + "\n[iso]\na = one\nfiber1 = u\n",
            "bad rational entry in [iso] a: 'one'",
        ),
        (FREE_PARTICLE + "\n[iso]\na = 1, 2\nfiber1 = u\n", "[iso] a must be a 1x1 matrix"),
        (
            FREE_PARTICLE + "\n[iso]\na = 1\nb = 1, 2\nfiber1 = u\n",
            "[iso] b must have 1 entries",
        ),
        (FREE_PARTICLE + "\n[points]\nvalues = half\n", "bad point 'half' in [points]"),
        (
            PLANE_PARTICLE + "\n[points]\nvalues = 0.5\n",
            "point '0.5' has 1 entries, need 2",
        ),
        (FREE_PARTICLE + "\n[points]\nvalues = ;\n", "[points] lists no points"),
    ],
    ids=[
        "missing_n",
        "missing_expr",
        "missing_form",
        "missing_values",
        "missing_eps2",
        "missing_comp1",
        "missing_fiber1",
        "missing_a",
        "non_integer_n",
        "reserved_name",
        "duplicate_name",
        "bad_rational",
        "a_not_square",
        "b_wrong_length",
        "bad_point",
        "point_arity",
        "no_points",
    ],
)
def test_reader_refusals_exit_2_with_their_message(tmp_path, capsys, text, message):
    code, payload, diagnostic = run_el(capsys, write(tmp_path, text))
    assert code == 2 and payload is None
    assert diagnostic == {"error": "ProblemFileError", "message": message}


def test_unknown_option_keeps_its_message(tmp_path, capsys):
    text = FREE_PARTICLE + "\n[options]\ncolour = red\n"
    code, _, diagnostic = run_el(capsys, write(tmp_path, text))
    assert code == 2
    assert diagnostic["message"] == "unknown option 'colour'"


def test_cli_import_leaves_configparser_out():
    code = "import sys, jetvar.cli; print('configparser' in sys.modules)"
    src = os.path.dirname(os.path.dirname(jetvar.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
