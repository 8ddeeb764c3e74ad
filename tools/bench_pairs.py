"""Interleaved before/after runs of the benchmark, and the replay of the
before side's reports by the after side, written to one JSON file.

    python3 tools/bench_pairs.py --before DIR --after DIR \
        --workloads axioms=10,countable=1,tables=1 --traced axioms \
        --replay-corpus --process-wall 10 --out BENCH_N.json

DIR is the root of an evslib checkout (each is measured on its own
`src/evslib` by its own `perfbench/run.py`). Pair k of a workload runs
`perfbench/run.py --workload W --seed k` once in each checkout, with the
`run_seconds` of the after side's BENCHMARK.json; even pairs run the before
side first and odd pairs the after side, so a drift in machine speed does
not favour either side. `--traced W` adds one `--trace 1` run per side.
The file holds every result line, and per gated metric the median and
quartiles of each side, the number of pairs the after side won,
`claim_met`, the gain rule of `claim_met()`, the ratio of the after
median to the before median, and `within_bound`, the rule of
`within_bound()` for a metric on which no gain is claimed. Per side it
also holds the median reference milliseconds of each job kind, a job's id
without its trailing number (`in-l` for `in-l-003`): the median over the
pairs of each run's median job of that kind, read from the `pass-<k>.json`
files that `perfbench/run.py` leaves in `.perfbench/<workload>-seed<k>/`
of the checkout, so the file shows which jobs a change made faster or
slower. Both sides
must run the same benchmark: the tool refuses to start, with exit code 2,
when the files under `perfbench/` or `BENCHMARK.json` differ between the
checkouts. It refuses the same way when a side is not the root of a git
checkout, since the file names each side by its commit, and when a side
holds a `__pycache__` directory under `src/`, which it names: a fresh
checkout has no bytecode, so every child of the benchmark compiles each
module it imports, and a cache would spare one side that cost. The tool
runs the benchmark's children with PYTHONDONTWRITEBYTECODE=1, whatever
the caller's environment, so that no run leaves such a cache (the
process-wall commands write theirs to a cache of their own).

`--replay-corpus` runs the three job lists at seed 0 on the before side
and keeps every report, then runs `evs --replay` on each with the after
side. It uses the benchmark's own child process (`perfbench/child.py`:
`setup`, `pass --save-reports` and `replay`), and records per workload the
number of reports replayed, the jobs whose replay did not say `match:
true`, the replays that exited with a code other than 0, and the jobs that
printed no report, with their exit codes.

`--process-wall N` times whole `evs` processes: ROADMAP aim 1's set
(`axioms --seed 0 --sample 50` on four instances, `validate` on kappa
tables of depth 41, 81 and 121, `partial-compare` of discrete and
shrinking, `norms witness` at `--eps 1e-30`), `import evslib.cli`,
`python -c pass`, and the first `compare` and `order in-l` argv of the
`tables` job list at seed 0. The before side writes the inputs. Each
command runs as a subprocess of each checkout, with the checkout's `src`
as PYTHONPATH and its own fresh PYTHONPYCACHEPREFIX, warmed by one untimed
run of every command. Then N rounds run every command once per side; even
rounds run the before side first and odd rounds the after side. Per
command the file holds each side's median and quartiles of wall seconds,
its exit codes and its stdout digests, and whether both sides printed one
and the same stdout; the tool exits 1, after writing the file, where they
did not. No gain is judged from these times.

Any of the three modes may run alone. The file records the command that
made it, with each flag that was given and no other, so that it reruns as
written once BEFORE and AFTER name the checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: the job lists whose reports --replay-corpus replays, and their seed
CORPUS_WORKLOADS = ("axioms", "countable", "tables")
CORPUS_SEED = 0


def _child_env() -> dict:
    """The environment of a benchmark child: the caller's, writing no
    bytecode, so that no run leaves a cache under a checkout's src/."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def _run(root: Path, workload: str, seed: int, seconds: int,
         trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, env=_child_env(), check=True,
                         capture_output=True, text=True,
                         stdin=subprocess.DEVNULL).stdout
    line = json.loads(out.strip().splitlines()[-1])
    line["seed"] = seed
    line["run_wall_s"] = round(time.perf_counter() - t0, 3)
    line["job_kind_ms"] = job_kind_ms(
        root / ".perfbench" / f"{workload}-seed{seed}")
    return line


def job_kind_ms(workdir: Path) -> dict:
    """Job kind -> the median reference milliseconds of its jobs over the
    numbered passes (`pass-<k>.json`, not `pass-traced.json`) in a
    workdir of perfbench/run.py. A job's kind is its id without a
    trailing "-<number>"."""
    times = {}
    for path in sorted(workdir.glob("pass-*.json")):
        if not path.stem.removeprefix("pass-").isdigit():
            continue
        jobs = json.loads(path.read_text(encoding="utf-8"))["jobs"]
        for job in jobs:
            kind = re.sub(r"-[0-9]+\Z", "", job["id"])
            times.setdefault(kind, []).append(job["ref_seconds"] * 1000)
    return {kind: statistics.median(ms) for kind, ms in sorted(times.items())}


def _commit(root: Path):
    """The commit checked out at root, or None where root is not the top
    of a git work tree (a plain copy of the files, say)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True)
    except OSError:   # no such directory, or no git
        return None
    lines = out.stdout.splitlines()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


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


def _src_caches(root: Path) -> list[str]:
    """The __pycache__ directories under the checkout's src/."""
    return [str(path) for path in sorted((root / "src").rglob("__pycache__"))]


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


def within_bound(before: float, after: float, better: str,
                 bound: float) -> bool:
    """The rule for a gated metric on which no gain is claimed: the after
    median is worse than the before median by at most the share `bound`
    of it, the metric's bound in BENCHMARK.json."""
    return _sign(better) * (after - before) <= bound * abs(before)


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
    for name, metric in gated.items():
        better = metric["better"]
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("before", "after")}
        entry = summary[name] = {side: _summary(v)
                                 for side, v in sides.items()}
        entry["after_wins"] = _wins(sides["before"], sides["after"], better)
        entry["pairs"] = count
        entry["claim_met"] = claim_met(sides["before"], sides["after"],
                                       better)
        before, after = (entry[side]["median"] for side in sides)
        entry["ratio"] = after / before
        entry["within_bound"] = within_bound(before, after, better,
                                             metric["bound"])
    return {"pairs": pairs, "summary": summary,
            "job_kind_ms": job_kind_medians(pairs)}


def job_kind_medians(pairs: list) -> dict:
    """Side -> job kind -> the median over the pairs of each run's
    job_kind_ms."""
    return {side: {kind: statistics.median(p[side]["job_kind_ms"][kind]
                                           for p in pairs)
                   for kind in pairs[0][side]["job_kind_ms"]}
            for side in ("before", "after")}


def _child(root: Path, *args) -> None:
    """Run perfbench/child.py of a checkout, from its root."""
    subprocess.run([sys.executable, "perfbench/child.py", *map(str, args)],
                   cwd=root, env=_child_env(), check=True, capture_output=True,
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


#: `evs` as its console script runs it, from the checkout on PYTHONPATH
EVS = "import sys; from evslib.cli import main; sys.exit(main())"

#: the process-wall commands that are not `evs` calls, by name
STARTUP = {"python -c pass": ["-c", "pass"],
           "python -c 'import evslib.cli'": ["-c", "import evslib.cli"]}


def _wall_env(root: Path, pycache: Path) -> dict:
    """The environment of a process-wall child of a checkout: its own
    source and bytecode cache, and bytecode written."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(pycache))
    return env


def _wall_commands(before: Path, inputs: Path, env: dict) -> dict:
    """Write the inputs of the process-wall commands into `inputs` with
    the before side; return name -> interpreter arguments per command."""
    _child(before, "setup", before, inputs, "tables", CORPUS_SEED)
    jobs = json.loads((inputs / "jobs.json").read_text(encoding="utf-8"))
    argvs = [["axioms", "--instance", instance, "--seed", "0", "--sample",
              "50"] for instance in ("metrics", "norms", "cone",
                                     "hyperspace")]
    for depth in (41, 81, 121):
        subprocess.run([sys.executable, "-c", EVS, "builtin", "kappa",
                        "--depth", str(depth), "--out", f"kappa-{depth}.json"],
                       cwd=inputs, env=env, check=True, capture_output=True,
                       stdin=subprocess.DEVNULL)
        argvs.append(["validate", f"kappa-{depth}.json"])
    argvs.append(["partial-compare", "--first", "discrete", "--second",
                  "shrinking", "--depths", "50,100,200"])
    for name, subset, gamma in (("p", "h0", "2"), ("q", "h2", "3")):
        (inputs / f"{name}.json").write_text(json.dumps(
            {"depth": 12, "subsetC": [subset], "gamma": gamma}))
    argvs.append(["norms", "witness", "--spec", "p.json", "--spec", "q.json",
                  "--eps", "1e-30"])
    for start in (["compare"], ["order", "in-l"]):
        argvs.append(next(job["argv"] for job in jobs
                          if job["argv"][:len(start)] == start))
    commands = dict(STARTUP)
    commands.update((" ".join(["evs", *argv]), ["-c", EVS, *argv])
                    for argv in argvs)
    return commands


def _timed(args: list, cwd: Path, env: dict) -> tuple:
    """(wall seconds, exit code, stdout sha256) of one interpreter run."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, stdin=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall, done.returncode, hashlib.sha256(done.stdout).hexdigest()


def process_wall(roots: dict, count: int) -> dict:
    """Interleaved wall times of whole processes of both checkouts (see
    the module docstring)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        envs = {side: _wall_env(root, work / f"pycache-{side}")
                for side, root in roots.items()}
        inputs = work / "inputs"
        inputs.mkdir()
        commands = _wall_commands(roots["before"], inputs, envs["before"])
        for side in roots:
            for args in commands.values():
                _timed(args, inputs, envs[side])
        runs = {name: {"before": [], "after": []} for name in commands}
        for k in range(count):
            order = ("before", "after") if k % 2 == 0 else ("after", "before")
            for name, args in commands.items():
                for side in order:
                    runs[name][side].append(_timed(args, inputs, envs[side]))
            print(f"process wall round {k}: " + " ".join(
                f"{name!r}={sides['before'][-1][0]:.3f}/"
                f"{sides['after'][-1][0]:.3f}"
                for name, sides in runs.items()), flush=True)
    doc = {}
    for name, sides in runs.items():
        entry = {}
        for side, results in sides.items():
            walls, codes, digests = zip(*results)
            entry[side] = {**_summary(list(walls)),
                           "codes": sorted(set(codes)),
                           "digests": sorted(set(digests))}
        entry["after_wins"] = _wins([r[0] for r in sides["before"]],
                                    [r[0] for r in sides["after"]], "lower")
        entry["same_stdout"] = (len(entry["before"]["digests"]) == 1
                                and entry["before"]["digests"]
                                == entry["after"]["digests"])
        doc[name] = entry
    return {"rounds": count, "commands": doc}


def arguments() -> argparse.ArgumentParser:
    """The tool's command-line parser."""
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
    parser.add_argument("--process-wall", type=int, default=0, metavar="N",
                        help="time whole processes of both sides, N rounds")
    parser.add_argument("--out", required=True)
    return parser


def recorded_command(args: argparse.Namespace) -> str:
    """The command of a run, as its file records it: the checkouts named
    BEFORE and AFTER, the output by its file name, and each valued flag
    only when it was given."""
    words = ["python3", "tools/bench_pairs.py", "--before", "BEFORE",
             "--after", "AFTER"]
    if args.workloads:
        words += ["--workloads", args.workloads]
    if args.traced:
        words += ["--traced", args.traced]
    if args.replay_corpus:
        words.append("--replay-corpus")
    if args.process_wall:
        words += ["--process-wall", str(args.process_wall)]
    words += ["--out", Path(args.out).name]
    return shlex.join(words)


def main() -> int:
    parser = arguments()
    args = parser.parse_args()
    if not (args.workloads or args.replay_corpus or args.process_wall):
        parser.error("give --workloads, --replay-corpus, --process-wall "
                     "or more than one")

    roots = {"before": Path(args.before).resolve(),
             "after": Path(args.after).resolve()}
    commits = {side: _commit(root) for side, root in roots.items()}
    unnamed = [f"--{side} {root}" for side, root in roots.items()
               if commits[side] is None]
    if unnamed:
        print("error: not the root of a git checkout, so no commit names it: "
              + ", ".join(unnamed), file=sys.stderr)
        return 2
    differing = _differing(roots)
    if differing:
        print("error: the checkouts run different benchmarks; these differ: "
              + ", ".join(differing), file=sys.stderr)
        return 2
    caches = [path for root in roots.values() for path in _src_caches(root)]
    if caches:
        print("error: bytecode caches under src/ would spare a side the "
              "compile a fresh checkout pays; remove them: "
              + ", ".join(caches), file=sys.stderr)
        return 2
    bench = json.loads((roots["after"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    doc = {
        # the checkouts are named by their commits and the output by its
        # file name, not by their paths
        "command": recorded_command(args),
        "commits": commits,
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
    if args.process_wall:
        doc["process_wall"] = process_wall(roots, args.process_wall)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n",
                              encoding="utf-8")
    walls = doc.get("process_wall", {}).get("commands", {})
    differing = [name for name, entry in walls.items()
                 if not entry["same_stdout"]]
    if differing:
        print("error: the sides printed different stdout for: "
              + ", ".join(differing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
