"""Command-line frontend.

Usage: jetvar <subcommand> <problem-file> [--verbose]
       [--skip-variational-check] [--tolerance T] [--seed S]

Results are printed to stdout as JSON; diagnostics and warnings go to
stderr as one JSON document.
Exit code 0 means the check passed, 1 means it ran but answered in the
negative or could not decide, 2 means the input could not be processed, 3
means an internal error (a bug, never an answer).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import warnings

from .coords import multi_indices
from .dsl import render_expr, render_form
from .errors import DslError, JetvarError, ProblemFileError
from .expr import add, neg
from .forms import cartan_form_contact, expand_contact
from .numeric import QuadratureSpec, VariationProbe, first_variation_check, residual_on_section
from .problem import ProblemFile, check_tolerance, load_problem
from .variational import (
    classical_helmholtz_ode,
    decide_zero,
    euler_lagrange,
    helmholtz_residuals,
    naturality_report,
    null_lagrangian_from_eta,
    tonti_lagrangian,
)


def _shown(answer, yes=True, no=False):
    return "undecided" if answer is None else yes if answer else no


def _need(value, command: str, section: str):
    if value is None:
        raise ProblemFileError(f"'{command}' needs a [{section}] section")
    return value


def _report_payload(report, ctx, verbose: bool) -> dict:
    """The kept (nonzero) residuals in record order; verbose lists every
    (level, I, sigma, nu) up to the report's order s, the others as "0"."""
    text = {
        (rec.level, rec.I, rec.sigma, rec.nu): render_expr(rec.residual, ctx)
        for rec in report.records
    }
    keys = list(text)
    if verbose:
        m = range(1, ctx.m + 1)
        keys = [
            (l, I, sigma, nu)
            for l in range(report.s + 1)
            for I in multi_indices(ctx.n, l)
            for sigma in m
            for nu in m
        ]
    fields = ("level", "multi_index", "sigma", "nu", "residual")
    residuals = [
        dict(zip(fields, (l, list(I), sigma, nu, text.get((l, I, sigma, nu), "0"))))
        for l, I, sigma, nu in keys
    ]
    return {"verdict": report.verdict, "residuals": residuals}


def _cmd_el(problem: ProblemFile, opts: dict):
    lag = _need(problem.lagrangian, "el", "lagrangian")
    sf = euler_lagrange(lag)
    payload = {
        "order": sf.s,
        "components": [render_expr(e, problem.ctx) for e in sf.eps],
    }
    return True, payload


def _cmd_helmholtz(problem: ProblemFile, opts: dict):
    sf = _need(problem.source, "helmholtz", "source")
    report = helmholtz_residuals(sf, probe_seed=opts["seed"])
    payload = _report_payload(report, problem.ctx, opts["verbose"])
    if problem.ctx.n == 1 and sf.s <= 2:
        classical = classical_helmholtz_ode(sf, probe_seed=opts["seed"])
        payload["classical"] = _report_payload(classical, problem.ctx, opts["verbose"])
        payload["verdicts_agree"] = classical.verdict == report.verdict
    return report.answer, payload


def _cmd_tonti(problem: ProblemFile, opts: dict):
    sf = _need(problem.source, "tonti", "source")
    payload = {}
    if not opts["skip-variational-check"]:
        report = helmholtz_residuals(sf, probe_seed=opts["seed"])
        payload.update(_report_payload(report, problem.ctx, opts["verbose"]))
        if report.answer is not True:
            return report.answer, payload
    lag = tonti_lagrangian(sf)
    gaps = map(add, euler_lagrange(lag).eps, map(neg, sf.eps))
    verified = decide_zero(gaps, opts["seed"])
    payload.update(
        {
            "lagrangian": render_expr(lag.L, problem.ctx),
            "order": lag.r,
            "verified": _shown(verified),
        }
    )
    return verified, payload


def _cmd_cartan(problem: ProblemFile, opts: dict):
    lag = _need(problem.lagrangian, "cartan", "lagrangian")
    contact = cartan_form_contact(lag)
    raw = expand_contact(contact)
    payload = {
        "order": max(2 * lag.r - 1, 0),
        "raw": render_form(raw, problem.ctx),
        "contact": render_form(contact, problem.ctx),
    }
    return True, payload


def _cmd_null_check(problem: ProblemFile, opts: dict):
    lag = _need(problem.lagrangian, "null-check", "lagrangian")
    sf = euler_lagrange(lag)
    null = decide_zero(sf.eps, opts["seed"])
    payload = {
        "null": _shown(null),
        "components": [render_expr(e, problem.ctx) for e in sf.eps],
    }
    return null, payload


def _cmd_null_from_eta(problem: ProblemFile, opts: dict):
    eta = _need(problem.eta, "null-from-eta", "eta")
    lag = null_lagrangian_from_eta(eta)
    verified = decide_zero(euler_lagrange(lag).eps, opts["seed"])
    payload = {
        "lagrangian": render_expr(lag.L, problem.ctx),
        "order": lag.r,
        "verified": _shown(verified),
    }
    return verified, payload


def _cmd_naturality(problem: ProblemFile, opts: dict):
    lag = _need(problem.lagrangian, "naturality", "lagrangian")
    iso = _need(problem.iso, "naturality", "iso")
    report = naturality_report(lag, iso, probe_seed=opts["seed"])
    payload = {key: _shown(answer, "pass", "fail") for key, answer in report.items()}
    return min(report.values(), key=[False, None, True].index), payload


def _cmd_numcheck(problem: ProblemFile, opts: dict):
    if problem.lagrangian is not None:
        gamma = _need(problem.section, "numcheck", "section")
        phi = _need(problem.variation, "numcheck", "variation")
        quad = QuadratureSpec(nodes=opts["nodes"])
        result = first_variation_check(
            problem.lagrangian, VariationProbe(gamma, phi), quad
        )
        tol = opts["tolerance"]
        # Hybrid criterion: relative when the values are O(1) or larger,
        # absolute when both sides are near zero.
        scale = max(1.0, abs(result.lhs), abs(result.rhs))
        ok = bool(result.abs_diff <= tol * scale)
        payload = {
            "lhs": float(result.lhs),
            "rhs": float(result.rhs),
            "abs_diff": float(result.abs_diff),
            "rel_diff": float(result.abs_diff / scale),
            "tolerance": tol,
            "pass": ok,
        }
        return ok, payload
    if problem.source is not None:
        gamma = _need(problem.section, "numcheck", "section")
        points = _need(problem.points, "numcheck", "points")
        values = residual_on_section(problem.source, gamma, points)
        payload = {
            "points": points,
            "values": [list(row) for row in values],
        }
        return True, payload
    raise ProblemFileError("'numcheck' needs a [lagrangian] or [source] payload")


_COMMANDS = {
    "el": (_cmd_el, "Euler-Lagrange source form of a Lagrangian"),
    "helmholtz": (_cmd_helmholtz, "variationality test for a source form"),
    "tonti": (_cmd_tonti, "reconstruct a Lagrangian from a variational source form"),
    "cartan": (_cmd_cartan, "Poincare-Cartan equivalent of a Lagrangian"),
    "null-check": (
        _cmd_null_check,
        "test whether a Lagrangian has identically zero source form",
    ),
    "null-from-eta": (_cmd_null_from_eta, "build a null Lagrangian from an (n-1)-form"),
    "naturality": (
        _cmd_naturality,
        "check Cartan form and source form naturality under a change of variables",
    ),
    "numcheck": (_cmd_numcheck, "numeric first-variation or on-section residual check"),
}


def _emit(document, stream) -> None:
    """Write one JSON document and a newline as it is encoded, in batches of
    chunks: not the whole text at once, nor a system call per chunk."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(document)
    while batch := "".join(itertools.islice(chunks, 1 << 16)):
        stream.write(batch)
    stream.write("\n")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as a JSON diagnostic,
    exit 2; its subcommand parsers are of the same class."""

    def error(self, message):
        _emit({"error": "UsageError", "message": message}, sys.stderr)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetvar",
        description="symbolic variational calculus on jet spaces",
    )
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("file", help="problem file (INI format)")
    # a flag's dest is the option key it overrides; an absent flag sets none
    common.add_argument(
        "--verbose",
        action="store_true",
        help="list every Helmholtz residual up to the declared order, zero ones too",
    )
    common.add_argument(
        "--skip-variational-check",
        action="store_true",
        dest="skip-variational-check",
        help="skip the variationality gate before reconstruction",
    )
    common.add_argument("--tolerance", type=float, metavar="T")
    common.add_argument("--seed", type=int, metavar="S")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _run(command: str, path: str, flags: dict):
    """The exit code and stdout payload of a command: 1 unless it answers yes."""
    problem = load_problem(path)
    opts = {**problem.options, **flags}
    check_tolerance(opts["tolerance"])
    answer, payload = _COMMANDS[command][0](problem, opts)
    return (0 if answer is True else 1), payload


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command, path = flags.pop("command"), flags.pop("file")
    diag = {}
    # the warnings the filters let through join the JSON on stderr instead
    # of printing as raw text
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, payload = _run(command, path, flags)
            _emit(payload, sys.stdout)
        except DslError as exc:
            code, diag = 2, {"error": type(exc).__name__, "message": exc.message}
            diag["span"] = None if exc.span is None else list(exc.span)
        except JetvarError as exc:
            code, diag = 2, {"error": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # exit 1 would read as a mathematical negative
            message = f"{type(exc).__name__}: {exc}"
            code, diag = 3, {"error": "InternalError", "message": message}
    messages = list(dict.fromkeys(str(w.message) for w in caught))
    if messages:
        diag["warnings"] = messages
    if diag:
        _emit(diag, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
