"""jetvar benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's problems are made from
the seed, then run closed loop, one at a time, in as many whole passes as
end within S seconds (at least one).  Every output is checked against a
known answer and against the reference digest in bench/reference.json.

Times are reported in reference seconds: each measured time is scaled by
the machine speed that calibration.py measures alongside it, because the
shared machine's speed drifts by tens of percent from minute to minute.

--trace 0 prints the end-to-end metrics.  --trace 1 runs pairs of passes,
one untraced and then one under the span recorder (bench/spans.py), as
many as end within S seconds (at least one), then one traced command-line
child per subcommand; it prints the per-layer metrics of the last traced pass, the
command-line layer breakdown and the tracing overhead.  The last line of
stdout is one JSON object; a readable report goes to stderr, and traced
runs leave their spans under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import ReferenceWorker, process_clock, python_clock
from spans import FUNCTIONS, Recorder, merge_totals, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
WORKLOADS = ("dense_ladder", "verdict_mix", "cli_small")


def load_reference() -> dict:
    path = BENCH / "reference.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build(workload: str, seed: int, directory: Path) -> list:
    """The workload's problems, written as files under `directory`; every
    file that should load is loaded once to confirm it parses."""
    import jetvar

    import problems

    if workload == "dense_ladder":
        items = problems.dense_ladder(seed)
    elif workload == "verdict_mix":
        items = problems.verdict_mix(seed)
    else:
        items = problems.cli_small(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for p in items:
        p.path = str(directory / f"{p.id}.ini")
        if p.text is not None:
            with open(p.path, "w", encoding="utf-8") as handle:
                handle.write(p.text)
        if p.text is not None and p.expect.get("exit", 0) != 2:
            try:
                jetvar.load_problem(p.path)
            except Exception:  # the timed run records it as a failure
                pass
    return items


def timed_setup(workload: str, seed: int, scratch: Path) -> float:
    """Median time, in reference seconds, of fresh interpreters that
    import jetvar and build the workload's inputs (after one untimed
    warm-up run)."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        target = scratch / f"setup-{k}"
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--build-only", str(target)]
        clock = process_clock()
        _, elapsed, _ = clock.time(subprocess.run, argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        shutil.rmtree(target, ignore_errors=True)
        if k:
            times.append(elapsed * clock.scale())
    return statistics.median(times)


class Runner:
    """Runs problems of one workload and keeps their outcomes."""

    def __init__(self, workload: str, reference: dict, scratch: Path):
        import checks

        self.checks = checks
        self.workload = workload
        self.reference = reference.get(workload, {})
        self.cli_reference = reference.get("cli_small", {})
        self.scratch = scratch
        self.outcomes = []  # (problem, Outcome)
        self.child_rss_kb = 0
        self.child_stats = []  # recorder totals and spans from traced children
        self.import_us = []  # (jetvar + jetvar.cli, numpy) per traced child
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _execute(self, problem):
        execute = self.checks.execute_dense if self.workload == "dense_ladder" else self.checks.execute_verdict
        try:
            return execute(problem)
        except Exception as exc:  # a failure of the program under test
            return exc

    def run_in_process(self, problem, clock) -> tuple:
        """Run and check one problem; its seconds and reference sample."""
        raw, elapsed, sample = clock.time(self._execute, problem)
        self.outcomes.append((problem, self.checks.check_in_process(problem, raw, self.reference)))
        return elapsed, sample

    def run_untraced(self, problem, clock) -> tuple:
        if self.workload == "cli_small":
            return self.run_cli(problem, False, clock)
        return self.run_in_process(problem, clock)

    def run_cli(self, problem, traced: bool, clock) -> tuple:
        """Run and check one command-line child; its seconds and reference
        sample."""
        out_path, err_path = str(self.scratch / "child.out"), str(self.scratch / "child.err")
        stats_path = self.scratch / "child.stats.json"
        if traced:
            argv = [sys.executable, "-X", "importtime", str(BENCH / "cli_shim.py"), str(stats_path)]
        else:
            argv = [sys.executable, "-m", "jetvar.cli"]
        argv += [problem.expect["command"], problem.path]
        (code, rss_kb), elapsed, sample = clock.time(self.checks.spawn, argv, self.env, out_path, err_path)
        out, err = self.checks.read_child(out_path, err_path)
        if traced:
            self._collect_child_trace(stats_path, err)
        outcome = self.checks.check_cli(problem, code, out, err, self.cli_reference)
        self.outcomes.append((problem, outcome))
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return elapsed, sample

    def _collect_child_trace(self, stats_path: Path, err: str) -> None:
        if stats_path.is_file():
            with open(stats_path, encoding="utf-8") as handle:
                self.child_stats.append(json.load(handle))
            stats_path.unlink()
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                name = name.strip()
                if name in ("jetvar", "jetvar.cli", "numpy") and name not in cumulative:
                    cumulative[name] = int(cum)
        if "jetvar" in cumulative:
            self.import_us.append(
                (cumulative["jetvar"] + cumulative.get("jetvar.cli", 0), cumulative.get("numpy", 0))
            )


def measure(items: list, seconds: float, run_one, make_clock) -> list:
    """Whole passes over items, as many as end within `seconds` at the pace
    of the passes so far (at least one); every problem's latency in
    reference seconds.  Each time is scaled by the machine speed measured
    with it, or during its pass when it is short (see calibration.Clock)."""
    latencies = []
    start = time.perf_counter()
    passes = 0
    while True:
        clock = make_clock()
        times = [run_one(p, clock) for p in items]
        latencies.extend(t * clock.scale(sample) for t, sample in times)
        passes += 1
        if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
            return latencies


def end_to_end(runner: Runner, latencies: list, setup_s: float) -> dict:
    helmholtz = [o for _, o in runner.outcomes if o.decided is not None]
    if runner.workload == "cli_small":
        rss_kb = runner.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "throughput_pps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "decided_ratio": (sum(o.decided for o in helmholtz) / len(helmholtz), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(runner: Runner, recorder, untraced_pps: list, traced_pps: list) -> dict:
    totals = recorder.totals()
    for stats in runner.child_stats:
        merge_totals(totals, stats["totals"])
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = (totals["calls"].get(name, 0), "count")
        out[f"{name}.self_s"] = (totals["self_s"].get(name, 0.0), "s")
    calls = max(totals["partial_calls"], 1)
    out["expr.partial.unique_ratio"] = (totals["partial_unique"] / calls, "ratio")
    out["expr.partial.zero_ratio"] = (totals["partial_zero"] / calls, "ratio")
    out["variational.out_terms"] = (totals["out_terms"], "count")
    out["cli.main.self_s"] = (totals["self_s"].get("cli.main", 0.0), "s")
    out["cli.import_s"] = (statistics.median(i for i, _ in runner.import_us) / 1e6, "s")
    out["cli.import_numpy_s"] = (statistics.median(n for _, n in runner.import_us) / 1e6, "s")
    untraced, traced = statistics.median(untraced_pps), statistics.median(traced_pps)
    out["trace.untraced_pps"] = (untraced, "1/s")
    out["trace.traced_pps"] = (traced, "1/s")
    out["trace.overhead_pps"] = (traced - untraced, "1/s")
    return out


def report(workload: str, seed: int, runner: Runner, metrics: dict, samples: int) -> dict:
    failures = [(p, o) for p, o in runner.outcomes if not o.ok]
    unexpected = [(p, o) for p, o in failures if p.defect is None]
    attempted = len(runner.outcomes)
    lines = [f"{workload} seed={seed}: {attempted} problems, {samples} timed, {len(failures)} failed"]
    lines += [f"  {name:38s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  {'failed_ratio':38s} {len(failures) / attempted:.6g} ratio")
    for name in sorted({p.defect for p, _ in failures if p.defect}):
        lines.append(f"  known defect failed: {name}")
    for p, o in unexpected[:20]:
        lines.append(f"  UNEXPECTED FAILURE {p.id}: {o.reason}")
    print("\n".join(lines), file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    scratch = WORK / f"{workload}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cli = workload == "cli_small"
    worker = None
    try:
        setup_s = None if trace else timed_setup(workload, seed, scratch)
        items = build(workload, seed, scratch / "problems")
        runner = Runner(workload, reference, scratch)
        if not cli:
            worker = ReferenceWorker()
        if not trace:
            make_clock = process_clock if cli else lambda: python_clock(worker)
            latencies = measure(items, seconds, runner.run_untraced, make_clock)
            return report(workload, seed, runner, end_to_end(runner, latencies, setup_s), len(latencies))
        recorder, untraced_pps, traced_pps, samples = traced_passes(runner, items, seconds, worker)
        if not cli:
            # one command-line child per subcommand gives the cli layer
            for p in build_probe(seed, scratch / "probe"):
                runner.run_cli(p, True, process_clock())
        groups = [("main", recorder.spans)]
        groups += [(f"child{k}", stats["spans"]) for k, stats in enumerate(runner.child_stats)]
        write_spans(WORK / f"spans-{workload}-{seed}.csv", groups)
        metrics = per_layer(runner, recorder, untraced_pps, traced_pps)
        return report(workload, seed, runner, metrics, samples)
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(scratch, ignore_errors=True)


def traced_passes(runner: Runner, items: list, seconds: float, worker) -> tuple:
    """Pairs of passes, one untraced and then one traced, as many as end
    within `seconds` at the pace so far (at least one).  Both sides run
    reference work only after each problem, so that none runs inside a
    span, and are timed alike.  Returns the
    recorder of the last traced pass, the throughput of every pass of each
    side, and the number of problems timed."""
    make_clock = process_clock if runner.workload == "cli_small" else lambda: python_clock(worker, interleave=False)
    untraced_pps, traced_pps, samples = [], [], 0
    start = time.perf_counter()
    pairs = 0
    while True:
        untraced = measure(items, 0, runner.run_untraced, make_clock)
        recorder, traced = traced_pass(runner, items, make_clock)
        untraced_pps.append(len(untraced) / sum(untraced))
        traced_pps.append(len(traced) / sum(traced))
        samples += len(untraced) + len(traced)
        pairs += 1
        if (time.perf_counter() - start) * (pairs + 1) / pairs > seconds:
            return recorder, untraced_pps, traced_pps, samples


def traced_pass(runner: Runner, items: list, make_clock) -> tuple:
    """One pass under a fresh recorder (command-line children record
    their own); the recorder and the pass's latencies."""
    recorder = Recorder()
    runner.child_stats, runner.import_us = [], []
    if runner.workload == "cli_small":
        return recorder, measure(items, 0, lambda p, clock: runner.run_cli(p, True, clock), make_clock)

    def traced_one(p, clock):
        recorder.begin_problem(p.id)
        try:
            return runner.run_in_process(p, clock)
        finally:
            recorder.end_problem()

    recorder.install()
    try:
        return recorder, measure(items, 0, traced_one, make_clock)
    finally:
        recorder.uninstall()


def build_probe(seed: int, directory: Path) -> list:
    import random

    import problems

    rng = random.Random(seed)
    pool = problems.cli_pool()
    kinds = ("el", "helmholtz", "tonti", "cartan", "null_check", "null_from_eta", "naturality", "numcheck_variation", "numcheck_section")
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for kind in kinds:
        p = rng.choice([q for q in pool if q.kind == kind])
        p.path = str(directory / f"{p.id}.ini")
        with open(p.path, "w", encoding="utf-8") as handle:
            handle.write(p.text)
        out.append(p)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "jetvar" / "__init__.py").is_file():
        print(f"bench: no jetvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # stay on one processor, children included: moving between processors
    # of unequal speed shifts whole runs by several percent
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.build_only:
        build(args.workload, args.seed, Path(args.build_only))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
