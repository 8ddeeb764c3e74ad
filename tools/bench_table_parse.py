"""Microseconds per MetricMatrix.from_json of the 16-point `tables` tables,
before and after, added to a bench file as its "from_json_us" section.

    python3 tools/bench_table_parse.py --before DIR --after DIR \
        --into BENCH_N.json

DIR is the root of an evslib checkout. Each round starts one process per
side, alternating which side goes first; the process reads the 16 universe
tables of `perfbench/workloads.py` (seed 0) from the after side, once as
written (diagonal "0/1") and once with the diagonal spelled "0", and
reports the minimum over 7 passes of the mean time per table. The section
holds every round and the median of the rounds per side and spelling.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[2] + "/perfbench"]
from evslib.metrics import MetricMatrix
from workloads import generate
_, files = generate("tables", 0)
docs = [json.loads(t) for rel, t in sorted(files.items())
        if rel.startswith("universe/m") and rel != "universe/metrics.json"]
zero = [{"labels": d["labels"], "rows": [[("0" if i == j else v)
        for j, v in enumerate(r)] for i, r in enumerate(d["rows"])]}
        for d in docs]
out = {}
for name, tables in (("diagonal 0/1", docs), ("diagonal 0", zero)):
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(20):
            for doc in tables:
                MetricMatrix.from_json(doc)
        best = min(best, (time.perf_counter() - t0) / (20 * len(tables)))
    out[name] = round(best * 1e6, 1)
print(json.dumps(out))
"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--into", required=True)
    args = parser.parse_args()
    roots = {"before": str(Path(args.before).resolve()),
             "after": str(Path(args.after).resolve())}
    rounds = []
    for k in range(args.rounds):
        order = ("before", "after") if k % 2 == 0 else ("after", "before")
        rounds.append({side: json.loads(subprocess.run(
            [sys.executable, "-c", CHILD, roots[side], roots["after"]],
            check=True, capture_output=True, text=True).stdout)
            for side in order})
        print(json.dumps(rounds[-1]), flush=True)
    median = {side: {name: statistics.median(r[side][name] for r in rounds)
                     for name in rounds[0][side]} for side in roots}
    path = Path(args.into)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["from_json_us"] = {
        "command": ("python3 tools/bench_table_parse.py --before BEFORE"
                    f" --after AFTER --rounds {args.rounds} --into {path.name}"),
        "rounds": rounds, "median": median}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
