"""Self-test of the benchmark's checks and of its output format.

    python3 bench/selftest.py

1. A problem given a deliberately wrong expected answer, and a command-line
   child whose stdout is malformed, must both count as failed and make the
   result incorrect.
2. The metric names a run prints, untraced and traced, must be exactly the
   end_to_end and per_layer names in BENCHMARK.json.

Exits 0 and prints "selftest ok" when both hold.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from calibration import ReferenceWorker, python_clock
from run import BENCH, ROOT, SRC

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import problems  # noqa: E402
from run import Runner, build, load_reference, report  # noqa: E402


def injected_failures() -> list:
    """Failures the checks must catch; returns a list of complaints."""
    reference = load_reference()
    complaints = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        directory = Path(tmp)
        items = build("verdict_mix", 0, directory / "v")
        runner = Runner("verdict_mix", reference, directory)
        good = next(p for p in items if p.kind == "el_poly")
        wrong = copy.copy(good)
        wrong.expect = {"verdict": ("not_variational",)}
        worker = ReferenceWorker()
        try:
            runner.run_in_process(good, python_clock(worker))
            runner.run_in_process(wrong, python_clock(worker))
        finally:
            worker.close()

        cli_items = build("cli_small", 0, directory / "c")
        child = next(p for p in cli_items if p.expect["exit"] == 0)
        out_path, err_path = str(directory / "child.out"), str(directory / "child.err")
        code, _ = checks.spawn([sys.executable, "-m", "jetvar.cli", child.expect["command"], child.path], runner.env, out_path, err_path)
        out, err = checks.read_child(out_path, err_path)
        runner.outcomes.append((child, checks.check_cli(child, code, out, err, reference["cli_small"])))
        truncated = out[: len(out) // 2]
        runner.outcomes.append((child, checks.check_cli(child, code, truncated, err, reference["cli_small"])))
        altered = out.replace("u", "v", 1)
        runner.outcomes.append((child, checks.check_cli(child, code, altered, err, reference["cli_small"])))

        result = report("selftest", 0, runner, {}, 0)
    oks = [o.ok for _, o in runner.outcomes]
    if oks != [True, False, True, False, False]:
        complaints.append(f"outcomes {oks}, expected [True, False, True, False, False]")
    if result["failed"] != 3 or result["correct"]:
        complaints.append(f"result {result}, expected 3 failed and correct false")
    return complaints


def metric_names() -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    complaints = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", "verdict_mix", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        printed = set(json.loads(proc.stdout.splitlines()[-1])["metrics"])
        declared = {m["name"] for m in spec[key]}
        if printed != declared:
            complaints.append(f"--trace {trace}: printed but not declared {sorted(printed - declared)}, declared but not printed {sorted(declared - printed)}")
    return complaints


def main() -> int:
    complaints = injected_failures() + metric_names()
    for complaint in complaints:
        print(f"selftest: {complaint}", file=sys.stderr)
    if complaints:
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
