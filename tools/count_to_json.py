"""MetricMatrix.to_json calls in one `tables` pass, per command, and the
tracemalloc peak of its metric `indep` job, before and after, added to a
bench file as its "to_json_calls" section.

    python3 tools/count_to_json.py --before DIR --after DIR --into BENCH_N.json

DIR is the root of an evslib checkout. One process per side runs every job
of `perfbench/workloads.py` (`tables`, seed 0, from the after side) through
its own `evslib.cli.main`, in a temporary directory, with stdout discarded,
and counts the calls of `MetricMatrix.to_json` by wrapping it. Counts are
deterministic, so each side runs once.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import collections, contextlib, io, json, os, sys, tempfile, tracemalloc
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[2] + "/perfbench"]
from evslib import cli, metrics
from workloads import generate, write
jobs, files = generate("tables", 0)
calls = collections.Counter()
to_json = metrics.MetricMatrix.to_json
def counted(self):
    calls[job_kind] += 1
    return to_json(self)
metrics.MetricMatrix.to_json = counted
peak = None
with tempfile.TemporaryDirectory() as root:
    write(root, files)
    os.chdir(root)
    for job in jobs:
        argv = job["argv"]
        job_kind = " ".join(argv[:2] if argv[0] == "order" else argv[:1])
        traced = job["id"] == "indep-000"
        if traced:
            tracemalloc.start()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
        if traced:
            peak = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
            tracemalloc.stop()
print(json.dumps({"total": sum(calls.values()), "by_command": dict(calls),
                  "indep_peak_mib": peak}))
"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--into", required=True)
    args = parser.parse_args()
    roots = {"before": str(Path(args.before).resolve()),
             "after": str(Path(args.after).resolve())}
    counts = {side: json.loads(subprocess.run(
        [sys.executable, "-c", CHILD, roots[side], roots["after"]],
        check=True, capture_output=True, text=True).stdout)
        for side in roots}
    print(json.dumps(counts), flush=True)
    path = Path(args.into)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["to_json_calls"] = {
        "command": ("python3 tools/count_to_json.py --before BEFORE"
                    f" --after AFTER --into {path.name}"),
        **counts}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
