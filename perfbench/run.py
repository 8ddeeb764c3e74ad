"""Benchmark of the `evs` command line on fixed, seeded job lists.

    python3 perfbench/run.py --workload {axioms,countable,tables,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of an evslib checkout; the program measured is the
checkout's `src/evslib`, called through `evslib.cli.main(argv)`. The run and
every process it starts keep to one CPU.

One run of a workload:

1. Set-up, repeated SETUP_REPEATS times: a fresh Python process imports
   `evslib.cli` and writes the workload's inputs from the seed. `setup_s` is
   the median of those set-ups' times in reference seconds (see
   refclock.py), from the process's first statement to its inputs being
   written, so the interpreter's own start-up and exit are left out.
2. Passes: each pass is a fresh child process that runs the whole job list
   once, one job after another (closed loop, one client, no think time),
   while a timer probes the machine's speed. The number of passes depends
   only on the workload and `--seconds` (see `pass_count`), never on how
   fast the passes run. `pass_s` is the median pass in reference seconds.
3. With `--trace 1`, one more pass runs with every public function of the
   seven evslib modules wrapped in spans (see tracer.py).
4. Replays, untimed, in one child process: every report of the first pass
   goes through `evs --replay` and must say `match: true`.
5. Checks: every job's exit code, its stdout digest against
   `expected/<workload>.json` (on the default seed, and on every seed for
   jobs whose inputs do not depend on it), its replay, the counterexample of
   each broken instance, and, when tracing, that the traced pass printed the
   same bytes as the first pass.

The report lists every metric with its unit and sample count. The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and the
`GATED` end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 2
DEFAULT_SECONDS = 24
#: the nominal seconds of one pass of each workload, fixed when the benchmark
#: was defined. It turns `--seconds` into a number of passes; it is not a
#: measurement and does not change with the program's speed.
NOMINAL_PASS_S = {"axioms": 10.0, "countable": 12.0, "tables": 8.0}

#: every end-to-end metric of the report, name -> unit
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.p95": "ms",
    "peak_rss_mib": "MiB",
    "fail_frac": "ratio",
}
#: the ones in the result line and BENCHMARK.json. The job percentiles are
#: left out: on `axioms` (6 jobs) and `countable` (10) they are single jobs'
#: times and spread too widely between runs; `fail_frac` is 0 on two
#: workloads.
GATED = ("setup_s", "pass_s", "peak_rss_mib")


def child_cmd(root: Path, *args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), args[0], str(root),
            *map(str, args[1:])]


def run_child(cmd: list[str]) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _p95(values: list[float]) -> float:
    """Interpolated within the samples, never beyond the largest."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def pass_count(workload: str, seconds: float) -> int:
    """How many passes a run of `seconds` makes: as many nominal passes as
    fit, and at least MIN_PASSES."""
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def _replay(root: Path, work: Path, first_pass: dict) -> dict:
    """Replay the first pass's reports in one child process."""
    reports = [r["report"] for r in first_pass["jobs"] if r["report"]]
    run_child(child_cmd(root, "replay", work, *reports))
    return read_json(work / "replays.json")


def _has_counterexample(report_path: str) -> bool:
    report = read_json(Path(report_path))["report"]
    entries = report.get("axioms", []) + report.get("properties", [])
    return any("counterexample" in e for e in entries)


def check(workload: str, seed: int, jobs: list, passes: list,
          replays: dict, traced) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems). A job execution fails when it
    raises, exits with another code than recorded, prints other bytes than
    recorded, or its report does not replay. Only the recorded known crash
    leaves the run correct."""
    expected = read_json(HERE / "expected" / f"{workload}.json")
    spec = {j["id"]: j for j in jobs}
    correct, attempted, failed, problems = True, 0, 0, []
    first = {r["id"]: r for r in passes[0]["jobs"]}
    for k, p in enumerate(passes + ([traced] if traced else [])):
        for rec in p["jobs"]:
            job, why = spec[rec["id"]], []
            attempted += 1
            if rec["crash"]:
                why.append(f"raised {rec['crash']}")
            elif job["code"] is not None and rec["code"] != job["code"]:
                why.append(f"exit {rec['code']} != {job['code']}")
            digest = expected.get(rec["id"], {}).get("sha256")
            if seed != workloads.DEFAULT_SEED and not job.get("fixed"):
                digest = None
            if not rec["crash"] and digest and rec["sha256"] != digest:
                why.append("stdout differs from the recorded digest")
            if p is traced and rec["sha256"] != first[rec["id"]]["sha256"]:
                why.append("traced stdout differs from untraced stdout")
            if p is passes[0] and rec["report"]:
                rp = replays.get(rec["report"], {})
                if (rp.get("crash") or rp.get("code") != 0
                        or not rp.get("match")):
                    why.append(f"replay failed: {rp}")
                if (job.get("mutant")
                        and not _has_counterexample(rec["report"])):
                    why.append("broken instance gave no counterexample")
            if why:
                failed += 1
                label = "traced pass" if p is traced else f"pass {k}"
                problems.append(f"{label} {rec['id']}: {'; '.join(why)}")
                if why != [f"raised {job.get('known_crash')}"]:
                    correct = False
    return correct, attempted, failed, problems


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    work = root / ".perfbench" / f"{workload}-seed{seed}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        before = refclock.tick()
        run_child(child_cmd(root, "setup", work, workload, seed))
        timing = read_json(work / "setup.json")
        ticks = refclock.Ticks([before] + timing["ticks"])
        setup_times.append(ticks.ref_seconds(*timing["interval"]))
    jobs = read_json(work / "jobs.json")

    passes = []
    for k in range(pass_count(workload, seconds)):
        extra = ["--save-reports"] if k == 0 else []
        run_child(child_cmd(root, "pass", work, k, *extra))
        passes.append(read_json(work / f"pass-{k}.json"))
    traced = None
    if trace:
        run_child(child_cmd(root, "pass", work, "traced", "--trace"))
        traced = read_json(work / "pass-traced.json")

    started = perf_counter()
    replays = _replay(root, work, passes[0])
    replay_s = perf_counter() - started
    correct, attempted, failed, problems = check(
        workload, seed, jobs, passes, replays, traced)

    job_ms = [r["ref_seconds"] * 1000 for p in passes for r in p["jobs"]]
    pass_s = statistics.median(p["pass_s"] for p in passes)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "pass_s": (pass_s, len(passes)),
        "pass_wall_s": (statistics.median(p["pass_wall_s"] for p in passes),
                        len(passes)),
        "job_ms.p50": (statistics.median(job_ms), len(job_ms)),
        "job_ms.p95": (_p95(job_ms), len(job_ms)),
        "peak_rss_mib": (statistics.median(p["peak_rss_kib"] / 1024
                                           for p in passes), len(passes)),
        "fail_frac": (failed / attempted, attempted),
    }
    layers = {}
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["pass_s"] / pass_s
    crashes = sorted({f"{r['id']}: {r['crash']}" for p in passes
                      for r in p["jobs"] if r["crash"]})
    return {
        "workload": workload, "seed": seed, "jobs_per_pass": len(jobs),
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "crashes": crashes,
        "replays": (len(replays), replay_s),
        "end_to_end": values, "layers": layers, "workdir": str(work),
    }


def print_report(res: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  "
          f"jobs/pass {res['jobs_per_pass']}  workdir {res['workdir']}")
    print(f"  {'metric (* in the result line)':44} {'value':>14}  "
          f"{'unit':6} samples")
    for name, (value, n) in res["end_to_end"].items():
        label = name + (" *" if name in GATED else "")
        print(f"  {label:44} {value:14.4f}  {END_TO_END[name]:6} {n}")
    print("  untimed replays: {} reports in {:.1f} s".format(*res["replays"]))
    for line in res["crashes"]:
        print(f"  exception: {line}")
    for line in res["problems"]:
        print(f"  failed: {line}")
    if res["layers"]:
        print("  per layer (one traced pass):")
        for name, unit in LAYER_METRICS.items():
            value = res["layers"][name]
            shown = (f"{value:14d}" if name in COUNT_METRICS
                     else f"{value:14.6f}")
            print(f"  {name:44} {shown}  {unit}")
    print(f"  correct: {res['correct']}", flush=True)


def result_line(results: list[dict], trace: bool) -> dict:
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        if trace:
            for name, unit in LAYER_METRICS.items():
                metrics[prefix + name] = {"value": res["layers"][name],
                                          "unit": unit}
        else:
            for name in GATED:
                metrics[prefix + name] = {"value": res["end_to_end"][name][0],
                                          "unit": END_TO_END[name]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one CPU for the benchmark and every process it starts, so that the
    # probes around a set-up measure the CPU the set-up runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd().resolve()
    if not (root / "src" / "evslib" / "cli.py").is_file():
        print(f"error: {root} holds no src/evslib/cli.py; run the benchmark "
              "from the root of an evslib checkout", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    results = []
    for name in names:
        res = run_workload(root, name, args.seed, args.seconds,
                           bool(args.trace))
        print_report(res)
        results.append(res)
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
