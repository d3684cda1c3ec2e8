"""Run the jetvar command line under the span recorder.

    python -X importtime bench/cli_shim.py STATS_FILE SUBCOMMAND PROBLEM_FILE

Behaves like `python -m jetvar.cli SUBCOMMAND PROBLEM_FILE` (same stdout,
stderr and exit code, tracebacks included) and also writes the recorder's
totals and spans, with `cli.main` as the outermost span, as JSON to
STATS_FILE.
`jetvar.cli` is imported first so that `-X importtime` times its import as
`python -m jetvar.cli` would.
"""

import jetvar.cli  # isort: skip

import json
import sys
from pathlib import Path

from spans import Recorder


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    recorder.begin_problem(Path(argv[-1]).stem)
    try:
        return recorder.run_span("cli.main", jetvar.cli.main, argv)
    finally:
        recorder.end_problem()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump({"totals": recorder.totals(), "spans": recorder.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
