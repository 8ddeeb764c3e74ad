"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads axioms,countable,tables \
        --seeds 1-10 [--trace 0|1] [--out FILE]

Run from the root of an evslib checkout. For every workload it runs
`run.py` once per seed with BENCHMARK.json's `run_seconds`, then prints, per
metric, the median, the quartiles (`statistics.quantiles(n=4)`), the spread
(upper minus lower quartile, over the median) and, for end-to-end metrics,
the bound BENCHMARK.json gives it, then each workload's run wall time and
what 4 + 22 x (workloads) runs would take. `--out` writes every run's
result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    ok = True
    total_mean = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, check=True, capture_output=True,
                                 text=True, stdin=subprocess.DEVNULL).stdout
            line = json.loads(out.strip().splitlines()[-1])
            line["seed"] = seed
            line["run_wall_s"] = time.perf_counter() - t0
            runs.append(line)
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in line["metrics"].items()
                           if k in bounds), flush=True)
            ok = ok and line["correct"]
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name]["value"]
                                       for r in runs])
            summary[name]["unit"] = runs[0]["metrics"][name]["unit"]
            if name in bounds:
                s = summary[name]
                s["bound"] = bounds[name]
                within = s["spread"] <= bounds[name]
                ok = ok and within
                print(f"  {name:14} median {s['median']:.4f} "
                      f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                      f"spread {s['spread']:.4f} bound {bounds[name]}"
                      f"{'' if within else '  OUTSIDE BOUND'}")
        walls = [r["run_wall_s"] for r in runs]
        print(f"  run wall time: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        total_mean += statistics.mean(walls)
    n = len(args.workloads.split(","))
    print(f"{4 + 22 * n} runs (an acceptance check) at these mean wall "
          f"times: about {total_mean * 22 + 4 * total_mean / n:.0f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
