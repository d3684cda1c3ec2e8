"""Write bench/reference.json from the current sources.

    python3 bench/make_reference.py

For every problem any seed can select, records the digest of its output
(see checks.digest).  Run it only at the commit whose outputs are the
reference.  It writes nothing if a known answer fails on a problem that is
not a registered known defect.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import BENCH, SRC

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import problems  # noqa: E402


def _in_process(execute, items, directory: Path) -> dict:
    out = {}
    for p in items:
        p.path = str(directory / f"{p.id}.ini")
        Path(p.path).write_text(p.text, encoding="utf-8")
        raw = execute(p)
        entry = {}
        if p.defect is None:
            entry["digest"] = checks.digest(raw["output"])
        outcome = checks.check_in_process(p, raw, {p.id: entry})
        if not outcome.ok and p.defect is None:
            sys.exit(f"{p.id}: {outcome.reason}")
        out[p.id] = entry
    return out


def _cli(items, directory: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = {}
    for p in items:
        if p.expect["exit"] == 2:
            continue
        p.path = str(directory / f"{p.id}.ini")
        Path(p.path).write_text(p.text, encoding="utf-8")
        argv = [sys.executable, "-m", "jetvar.cli", p.expect["command"], p.path]
        out_path, err_path = str(directory / "child.out"), str(directory / "child.err")
        code, _ = checks.spawn(argv, env, out_path, err_path)
        stdout, stderr = checks.read_child(out_path, err_path)
        entry = {"digest": checks.digest(json.loads(stdout))}
        outcome = checks.check_cli(p, code, stdout, stderr, {p.id: entry})
        if not outcome.ok:
            sys.exit(f"{p.id}: {outcome.reason}")
        out[p.id] = entry
    return out


def main() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        directory = Path(tmp)
        reference = {
            "dense_ladder": _in_process(checks.execute_dense, problems.dense_ladder(0), directory),
            "verdict_mix": _in_process(checks.execute_verdict, problems.verdict_pool(), directory),
            "cli_small": _cli(problems.cli_pool(), directory),
        }
    with open(BENCH / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
