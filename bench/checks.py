"""Execution and known-answer checks of one problem.

`execute_*` runs a problem and returns what a user would see (rendered
strings, verdicts, numbers); it is the timed part.  `check_*` compares that
against the problem's known answer and against the reference digest of its
rendered output, and is not timed.

The digest is taken over an order-free form of the output: the terms of
each rendered expression and the factors of each term are sorted, and
floats are rounded to 6 significant digits, so that outputs which are
structurally equal give equal digests whatever order a kernel emits
terms in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
from dataclasses import dataclass

import jetvar as jv

CHILD_TIMEOUT_S = 120


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    decided: bool | None = None  # Helmholtz problems: a correct decided verdict


# --- order-free digest ----------------------------------------------------------


def _split_top(s: str, seps) -> list:
    """Split at separators that sit outside every bracket."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(s):
        ch = s[i]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif depth == 0:
            sep = next((sep for sep in seps if s.startswith(sep, i)), None)
            if sep is not None:
                parts.append(s[start:i])
                parts.append(sep)
                i += len(sep)
                start = i
                continue
        i += 1
    parts.append(s[start:])
    return parts


def _canon_factor(f: str) -> str:
    if "(" not in f:
        return f
    head, _, rest = f.partition("(")
    depth, k = 1, 0
    while depth:
        depth += {"(": 1, ")": -1}.get(rest[k], 0)
        k += 1
    return f"{head}({canon_expr(rest[: k - 1])}){_canon_factor(rest[k:])}"


def canon_expr(s: str) -> str:
    """Rendered expression or form with its terms and factors sorted."""
    parts = _split_top(s.strip(), (" + ", " - "))
    signed, sign = [], "+"
    for k, part in enumerate(parts):
        if k % 2:
            sign = part.strip()
            continue
        if part.startswith("-"):
            part, term_sign = part[1:], "-" if sign == "+" else "+"
        else:
            term_sign = sign
        factors = sorted(_canon_factor(f) for f in _split_top(part, ("*",))[::2])
        signed.append(term_sign + "*".join(factors))
    return " ".join(sorted(signed))


def _canon_value(value):
    if isinstance(value, str):
        return canon_expr(value)
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        return "0" if abs(value) < 1e-6 else f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return [_canon_value(v) for v in value]
    return {k: _canon_value(v) for k, v in value.items() if k not in ("abs_diff", "rel_diff")}


def digest(payload) -> str:
    text = json.dumps(_canon_value(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- in-process execution -------------------------------------------------------


def _nonzero_residuals(report, ctx) -> list:
    return [
        [rec.level, list(rec.I), rec.sigma, rec.nu, jv.render_expr(rec.residual, ctx)]
        for rec in report.records
        if not jv.is_zero(rec.residual)
    ]


def execute_dense(problem) -> dict:
    """parse -> euler_lagrange -> helmholtz_residuals -> cartan_form ->
    tonti_lagrangian -> EL of the Tonti Lagrangian -> render."""
    loaded = jv.load_problem(problem.path)
    ctx = loaded.ctx
    lam = loaded.lagrangian
    if problem.kind == "naturality":
        return {"output": {"report": jv.naturality_report(lam, loaded.iso)}}
    sf = jv.euler_lagrange(lam)
    report = jv.helmholtz_residuals(sf)
    theta = jv.cartan_form(lam)
    tonti = jv.tonti_lagrangian(sf)
    round_trip = jv.euler_lagrange(tonti).eps == sf.eps
    return {
        "verdict": report.verdict,
        "round_trip": round_trip,
        "output": {
            "el": [jv.render_expr(e, ctx) for e in sf.eps],
            "residuals": _nonzero_residuals(report, ctx),
            "cartan": jv.render_form(theta, ctx),
            "tonti": jv.render_expr(tonti.L, ctx),
        },
    }


def execute_verdict(problem) -> dict:
    loaded = jv.load_problem(problem.path)
    ctx = loaded.ctx
    kind = problem.kind
    if kind == "first_variation":
        probe = jv.VariationProbe(loaded.section, loaded.variation)
        result = jv.first_variation_check(loaded.lagrangian, probe, jv.QuadratureSpec())
        return {"output": {"lhs": result.lhs, "rhs": result.rhs, "abs_diff": result.abs_diff}}
    if kind == "residual":
        values = jv.residual_on_section(loaded.source, loaded.section, loaded.points)
        return {"output": {"values": [v for row in values for v in row]}}
    if kind == "hidden":
        sf = loaded.source
    else:
        sf = jv.euler_lagrange(loaded.lagrangian)
        if kind == "perturbed":
            extra = jv.parse_expr(problem.expect["perturb"], sf.ctx).expr
            sf = jv.SourceForm((jv.add(sf.eps[0], extra),) + sf.eps[1:], sf.ctx, sf.s)
    report = jv.helmholtz_residuals(sf)
    output = {"residuals": _nonzero_residuals(report, sf.ctx)}
    if kind in ("el_poly", "el_trig"):
        output["el"] = [jv.render_expr(e, ctx) for e in sf.eps]
    return {"verdict": report.verdict, "output": output}


# --- command-line children ------------------------------------------------------


def _alarm(signum, frame):
    raise TimeoutError


def spawn(argv: list, env: dict, out_path: str, err_path: str):
    """Run one child with stdout and stderr sent to files; return its exit
    code and peak resident set size in KiB."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def read_child(out_path: str, err_path: str) -> tuple:
    with open(out_path, encoding="utf-8") as handle:
        out = handle.read()
    with open(err_path, encoding="utf-8") as handle:
        err = handle.read()
    return out, err


def strip_importtime(err: str) -> str:
    return "\n".join(line for line in err.splitlines() if not line.startswith("import time:"))


# --- checks ---------------------------------------------------------------------


def _close(got, want) -> bool:
    return len(got) == len(want) and all(
        math.isfinite(g) and abs(g - w) <= 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)
    )


def _check_digest(problem, output, reference: dict) -> str:
    want = reference.get(problem.id, {}).get("digest")
    if want is None:
        return "no reference digest"
    if digest(output) != want:
        return "output differs from the reference"
    return ""


def check_in_process(problem, raw, reference: dict) -> Outcome:
    """Known answer first, then the reference digest (skipped for known
    defects, whose output is expected to change when they are fixed)."""
    if isinstance(raw, BaseException):
        return Outcome(False, f"uncaught {type(raw).__name__}: {raw}")
    verdict = raw.get("verdict")
    allowed = problem.expect.get("verdict", ("variational",) if problem.kind == "dense" else None)
    decided = None
    if verdict is not None:
        decided = verdict != "undecided" and verdict in allowed
        if verdict not in allowed:
            return Outcome(False, f"verdict {verdict}, expected {'/'.join(allowed)}", decided)
    output = raw["output"]
    if problem.kind == "naturality":
        report = output["report"]
        if not (report.get("theorem3") and report.get("theorem4")):
            return Outcome(False, f"naturality failed: {report}")
    if problem.kind == "dense" and not raw["round_trip"]:
        return Outcome(False, "EL of the Tonti Lagrangian differs from EL", decided)
    if problem.kind == "first_variation":
        scale = max(1.0, abs(output["lhs"]), abs(output["rhs"]))
        if not output["abs_diff"] <= problem.expect["tolerance"] * scale:
            return Outcome(False, f"first variation off by {output['abs_diff']}")
    if problem.kind == "residual" and not _close(output["values"], problem.expect["values"]):
        return Outcome(False, "residual values differ from the exact values")
    if problem.defect is None:
        reason = _check_digest(problem, output, reference)
        if reason:
            return Outcome(False, reason, decided)
    return Outcome(True, "", decided)


def check_cli(problem, code: int, out: str, err: str, reference: dict) -> Outcome:
    """Exit code as constructed, no traceback, a JSON diagnostic for bad
    input, and JSON on stdout that matches the reference digest."""
    want = problem.expect["exit"]
    err = strip_importtime(err)
    if "Traceback" in err:
        return Outcome(False, f"traceback, exit {code}: {err.strip().splitlines()[-1]}")
    if code != want:
        return Outcome(False, f"exit {code}, expected {want}")
    if want == 2:
        try:
            diagnostic = json.loads(err)
        except ValueError:
            return Outcome(False, "diagnostic is not JSON")
        if out.strip() or not {"error", "message"} <= set(diagnostic):
            return Outcome(False, "malformed diagnostic")
        return Outcome(True)
    try:
        payload = json.loads(out)
    except ValueError:
        return Outcome(False, "stdout is not JSON")
    decided = None
    if problem.expect["command"] in ("helmholtz", "tonti"):
        decided = payload.get("verdict") in ("variational", "not_variational")
    if "values" in problem.expect:
        got = [v for row in payload.get("values", []) for v in row]
        if not _close(got, problem.expect["values"]):
            return Outcome(False, "numcheck values differ from the exact values", decided)
    if problem.defect is None:
        reason = _check_digest(problem, payload, reference)
        if reason:
            return Outcome(False, reason, decided)
    return Outcome(True, "", decided)
