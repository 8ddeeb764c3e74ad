"""Interleaved before/after runs of the benchmark, and the replay of the
before side's reports by the after side, written to one JSON file.

    python3 tools/bench_pairs.py --before DIR --after DIR \
        --workloads axioms=10,countable=1,tables=1 --traced axioms \
        --replay-corpus --out BENCH_N.json

DIR is the root of an evslib checkout (each is measured on its own
`src/evslib` by its own `perfbench/run.py`). Pair k of a workload runs
`perfbench/run.py --workload W --seed k` once in each checkout, with the
`run_seconds` of the after side's BENCHMARK.json; even pairs run the before
side first and odd pairs the after side, so a drift in machine speed does
not favour either side. `--traced W` adds one `--trace 1` run per side.
The file holds every result line, and per gated metric the median and
quartiles of each side, the number of pairs the after side won, and
`claim_met`, the gain rule of `claim_met()`. Both sides must run the same
benchmark: the tool refuses to start, with exit code 2, when the files
under `perfbench/` or `BENCHMARK.json` differ between the checkouts.

`--replay-corpus` runs the three job lists at seed 0 on the before side
and keeps every report, then runs `evs --replay` on each with the after
side. It uses the benchmark's own child process (`perfbench/child.py`:
`setup`, `pass --save-reports` and `replay`), and records per workload the
number of reports replayed, the jobs whose replay did not say `match:
true`, the replays that exited with a code other than 0, and the jobs that
printed no report, with their exit codes. Either mode may run alone.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: the job lists whose reports --replay-corpus replays, and their seed
CORPUS_WORKLOADS = ("axioms", "countable", "tables")
CORPUS_SEED = 0


def _run(root: Path, workload: str, seed: int, seconds: int,
         trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True,
                         text=True, stdin=subprocess.DEVNULL).stdout
    line = json.loads(out.strip().splitlines()[-1])
    line["seed"] = seed
    line["run_wall_s"] = round(time.perf_counter() - t0, 3)
    return line


def _commit(root: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def _benchmark_files(root: Path) -> dict:
    """The bytes of BENCHMARK.json and of every file under perfbench/,
    by relative path, leaving out bytecode caches."""
    files = [root / "BENCHMARK.json"] + sorted(
        path for path in (root / "perfbench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts)
    return {str(path.relative_to(root)): path.read_bytes() for path in files}


def _differing(roots: dict) -> list[str]:
    before, after = (_benchmark_files(roots[side])
                     for side in ("before", "after"))
    return sorted(name for name in before.keys() | after.keys()
                  if before.get(name) != after.get(name))


def _sign(better: str) -> int:
    """+1 when lower values are better, -1 when higher ones are."""
    return 1 if better == "lower" else -1


def _wins(before: list[float], after: list[float], better: str) -> int:
    """Pairs where the after side is better; a tie counts for neither."""
    return sum(_sign(better) * (b - a) > 0 for a, b in zip(after, before))


def claim_met(before: list[float], after: list[float], better: str) -> bool:
    """The gain rule: over at least ten pairs, the after side wins at least
    nine of every ten, and its median is better than the before side's by
    more than the before side's interquartile range. `better` is "lower"
    or "higher"."""
    if len(before) < 10:
        return False
    q1, _, q3 = statistics.quantiles(before, n=4)
    gap = _sign(better) * (statistics.median(before)
                           - statistics.median(after))
    return (10 * _wins(before, after, better) >= 9 * len(before)
            and gap > q3 - q1)


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def _pairs(roots: dict, workload: str, count: int, seconds: int,
           gated: dict) -> dict:
    pairs = []
    for seed in range(count):
        order = ("before", "after") if seed % 2 == 0 else ("after", "before")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(roots[side], workload, seed, seconds, 0)
            print(f"{workload} seed {seed} {side}: " + " ".join(
                f"{k}={v['value']:.4g}"
                for k, v in pair[side]["metrics"].items())
                + f" correct={pair[side]['correct']}", flush=True)
        pairs.append(pair)
    summary = {}
    for name, better in gated.items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("before", "after")}
        summary[name] = {side: _summary(v) for side, v in sides.items()}
        summary[name]["after_wins"] = _wins(sides["before"], sides["after"],
                                            better)
        summary[name]["pairs"] = count
        summary[name]["claim_met"] = claim_met(sides["before"],
                                               sides["after"], better)
    return {"pairs": pairs, "summary": summary}


def _child(root: Path, *args) -> None:
    """Run perfbench/child.py of a checkout, from its root."""
    subprocess.run([sys.executable, "perfbench/child.py", *map(str, args)],
                   cwd=root, check=True, capture_output=True,
                   stdin=subprocess.DEVNULL)


def replay_corpus(roots: dict, workloads) -> dict:
    """Every report the before side prints for the job lists of the named
    workloads at CORPUS_SEED, replayed by the after side (see the module
    docstring)."""
    doc = {}
    for workload in workloads:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            before = roots["before"]
            _child(before, "setup", before, work, workload, CORPUS_SEED)
            _child(before, "pass", before, work, "corpus", "--save-reports")
            jobs = json.loads((work / "pass-corpus.json").read_text(
                encoding="utf-8"))["jobs"]
            reports = {job["report"]: job["id"] for job in jobs
                       if job["report"]}
            _child(roots["after"], "replay", roots["after"], work, *reports)
            replays = json.loads((work / "replays.json").read_text(
                encoding="utf-8"))
        doc[workload] = {
            "count": len(replays),
            "mismatches": sorted(reports[path] for path, r in replays.items()
                                 if not r["match"]),
            "nonzero_exits": {reports[path]: r["code"]
                              for path, r in sorted(replays.items())
                              if r["code"] != 0},
            "unreported": {job["id"]: job["code"] for job in jobs
                           if not job["report"]},
        }
        print(f"replay corpus {workload}: " + json.dumps(doc[workload]),
              flush=True)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--workloads", default="",
                        help="comma separated WORKLOAD=PAIRS")
    parser.add_argument("--traced", default="",
                        help="comma separated workloads to trace once per side")
    parser.add_argument("--replay-corpus", action="store_true",
                        help="replay the before side's reports with the "
                             "after side")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if not (args.workloads or args.replay_corpus):
        parser.error("give --workloads, --replay-corpus or both")

    roots = {"before": Path(args.before).resolve(),
             "after": Path(args.after).resolve()}
    differing = _differing(roots)
    if differing:
        print("error: the checkouts run different benchmarks; these differ: "
              + ", ".join(differing), file=sys.stderr)
        return 2
    bench = json.loads((roots["after"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    gated = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {
        # the checkouts are named by their commits and the output by its
        # file name, not by their paths
        "command": (f"python3 tools/bench_pairs.py --before BEFORE --after AFTER"
                    f" --workloads {args.workloads} --traced {args.traced}"
                    + " --replay-corpus" * args.replay_corpus
                    + f" --out {Path(args.out).name}"),
        "commits": {side: _commit(root) for side, root in roots.items()},
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version()},
        "run_seconds": seconds,
        "workloads": {},
        "traced": {},
    }
    for spec in filter(None, args.workloads.split(",")):
        workload, _, count = spec.partition("=")
        doc["workloads"][workload] = _pairs(roots, workload, int(count),
                                            seconds, gated)
    for workload in filter(None, args.traced.split(",")):
        doc["traced"][workload] = {
            side: _run(root, workload, 0, seconds, 1)
            for side, root in roots.items()}
    if args.replay_corpus:
        doc["replay_corpus"] = replay_corpus(roots, CORPUS_WORKLOADS)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
