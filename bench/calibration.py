"""Fixed reference work that measures how fast the machine is at the
moment.

The machine is shared: what other tenants run changes the speed of the
same code by tens of percent, from one tenth of a second to the next and
from one minute to the next.  The benchmark pairs every measurement with
reference work and scales it to the speed the reference rate stands for.

In-process problems are paired with `python_unit`, whose work resembles
jetvar's own (small frozen objects, hashing, sorting, exact rational
arithmetic on dict polynomials, string building).  It runs in a
`ReferenceWorker`, a child process on the same processor as the
benchmark, so that it shares neither jetvar's heap nor its garbage
collector; the benchmark waits while the worker runs, so the two never run
at the same time.  A SIGPROF handler asks the worker for one unit every
INTERVAL of CPU time while a problem runs, and more units run after the
problem when that gave too few.  Command-line children are paired with
`interpreter_start`, a bare interpreter started the same way, run after
each child.  Neither uses jetvar.

    python3 bench/calibration.py --worker

runs the worker loop: for each line N on stdin it runs N units and writes
their seconds on stdout.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

PYTHON_RATE = 200.0  # python_unit() calls per second at reference speed
PROCESS_RATE = 20.0  # interpreter_start() calls per second at reference speed
DUTY = 0.2  # reference time run after a measurement, per measured second
INTERVAL = 0.05  # CPU seconds between reference units run during one
LOCAL_CALLS = 10  # units enough to scale one measurement by its own sample


@dataclass(frozen=True)
class _Node:
    name: str
    args: tuple


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node(f"x{k}", ())
    return _Node("f" if k % 2 else "g", tuple(_tree(depth - 1, k + j) for j in range(3)))


def _key(node: _Node) -> tuple:
    return (node.name, tuple(_key(a) for a in node.args))


def _render(node: _Node) -> str:
    if not node.args:
        return node.name
    return node.name + "(" + ", ".join(_render(a) for a in node.args) + ")"


def python_unit() -> int:
    """One fixed amount of work, a few milliseconds long."""
    p = {((0, i), (1, j)): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    product: dict = {}
    for ma, ca in p.items():
        for mb, cb in p.items():
            mono = tuple(sorted(ma + mb))
            product[mono] = product.get(mono, Fraction(0)) + ca * cb
    trees = [_tree(4, k) for k in range(3)]
    keys = sorted(_key(t) for t in trees)
    text = "".join(_render(t) for t in trees)
    return len(product) + len({hash(t) for t in trees}) + len(keys) + len(text)


def _worker_loop() -> None:
    for line in sys.stdin:
        start = time.perf_counter()
        for _ in range(int(line)):
            python_unit()
        print(time.perf_counter() - start, flush=True)


class ReferenceWorker:
    """A child process that runs python_unit on request; calling it runs one
    unit and returns the seconds the unit took in the child."""

    def __init__(self):
        argv = [sys.executable, os.path.abspath(__file__), "--worker"]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.request, self.reply = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        self()  # the first unit pays for imports and warm-up

    def __call__(self) -> float:
        os.write(self.request, b"1\n")
        line = b""
        while not line.endswith(b"\n"):
            line += os.read(self.reply, 64)
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def interpreter_start() -> float:
    """Start a bare interpreter, wait for it to end; its seconds."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "pass"], os.environ)
    os.waitpid(pid, 0)
    return time.perf_counter() - start


class Clock:
    """Times measurements in reference seconds.  `unit` runs one unit of
    reference work and returns its own seconds."""

    def __init__(self, unit, reference_rate: float, interleave: bool):
        self.unit = unit
        self.reference_rate = reference_rate
        self.interleave = interleave
        self.calls = 0
        self.seconds = 0.0  # the units' own time
        self.paused = 0.0  # wall time spent waiting for units

    def _run_unit(self, *_) -> None:
        start = time.perf_counter()
        self.seconds += self.unit()
        self.paused += time.perf_counter() - start
        self.calls += 1

    def time(self, fn, *args, **kwargs):
        """Call fn(*args, **kwargs); return its result, its seconds without the
        pauses for reference work, and the reference sample (calls,
        seconds) that belongs to it."""
        calls, seconds, paused = self.calls, self.seconds, self.paused
        if self.interleave:
            previous = signal.signal(signal.SIGPROF, self._run_unit)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if self.interleave:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                signal.signal(signal.SIGPROF, previous)
        elapsed -= self.paused - paused
        if self.calls - calls < LOCAL_CALLS:
            budget = self.seconds + DUTY * elapsed
            self._run_unit()
            while self.seconds < budget:
                self._run_unit()
        return result, elapsed, (self.calls - calls, self.seconds - seconds)

    def scale(self, sample: tuple = None) -> float:
        """Factor from measured to reference seconds: from one sample when
        it holds LOCAL_CALLS units or more, else from all samples so far."""
        calls, seconds = (self.calls, self.seconds)
        if sample is not None and sample[0] >= LOCAL_CALLS:
            calls, seconds = sample
        return calls / seconds / self.reference_rate


def python_clock(worker: ReferenceWorker, interleave: bool = True) -> Clock:
    return Clock(worker, PYTHON_RATE, interleave)


def process_clock() -> Clock:
    return Clock(interpreter_start, PROCESS_RATE, False)


if __name__ == "__main__" and sys.argv[1:] == ["--worker"]:
    _worker_loop()
