"""One fresh Python process of the benchmark: set-up, a pass, or replays.

    python3 child.py setup  ROOT WORKDIR WORKLOAD SEED
    python3 child.py pass   ROOT WORKDIR LABEL [--save-reports] [--trace]
    python3 child.py replay ROOT WORKDIR REPORT...

ROOT is the checkout whose `src/evslib` is measured. `setup` imports
`evslib.cli`, makes the workload's inputs and writes them and `jobs.json`
into WORKDIR, and its timing into `setup.json`.
`pass` runs every job of `jobs.json` in order through `evslib.cli.main`,
one after another with no pause, with WORKDIR as the working directory, and
writes `pass-LABEL.json`. `replay` runs `evs --replay` on each report and
writes `replays.json`. Results go to files, never to stdout, so nothing
the program prints can be mistaken for them.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()      # before the imports, which set-up counts

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path

import refclock
import workloads


def _import_cli(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from evslib import cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"evslib was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def _call(cli, argv):
    """Run one `evs` invocation in-process: (exit code, exception class
    name or None, stdout text, start, end), the last two from
    `perf_counter`."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:           # noqa: BLE001 - recorded below
            code, crash = 1, type(exc).__name__
        t1 = perf_counter()
    return code, crash, out.getvalue(), t0, t1


def setup(root: Path, workdir: Path, workload: str, seed: int) -> None:
    """Import the program and make the inputs in memory, while the machine's
    speed is probed, then write the inputs. `setup.json` gets the probes and
    the set-up's wall interval, from this process's first statement to the
    inputs being made; writing the files is left out (see README.md)."""
    with refclock.Ticks(every=refclock.SETUP_TICK_S) as ticks:
        _import_cli(root)
        jobs, files = workloads.generate(workload, seed)
        interval = [STARTED, perf_counter()]
    workloads.write(workdir, files)
    (workdir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    (workdir / "setup.json").write_text(
        json.dumps({"ticks": ticks.ticks, "interval": interval}),
        encoding="utf-8")


def run_jobs(cli, jobs: list, ticks, save_reports=None,
             tracer=None) -> dict:
    """Run the jobs in order from the current directory while the machine's
    speed is probed (see refclock.py). Each record holds the job's wall
    seconds and its reference seconds. With a tracer installed, also gather
    the inputs each job reads for the per-layer metrics."""
    records, spans = [], []
    input_bytes = input_rationals = parses = stdout_bytes = 0
    for job in jobs:
        if tracer is not None:
            first = tracer.begin_job()
            size = sum(os.path.getsize(path) for path, _ in job["inputs"])
        code, crash, text, t0, t1 = _call(cli, job["argv"])
        spans.append((t0, t1))
        data = text.encode("utf-8")
        records.append({
            "id": job["id"], "code": code, "crash": crash,
            "seconds": t1 - t0, "sha256": hashlib.sha256(data).hexdigest(),
            "report": None,
        })
        if save_reports is not None and data:
            path = save_reports / f"{job['id']}.json"
            path.write_bytes(data)
            records[-1]["report"] = str(path)
        if tracer is not None:
            input_bytes += size
            stdout_bytes += len(data)
            rationals = sum(n for _, n in job["inputs"])
            if rationals:
                input_rationals += rationals
                parses += tracer.count_between("rationals.parse_rational",
                                               first, len(tracer.start))
    for rec, (t0, t1) in zip(records, spans):
        rec["ref_seconds"] = ticks.ref_seconds(t0, t1)
    result = {"jobs": records,
              "pass_s": sum(r["ref_seconds"] for r in records),
              "pass_wall_s": sum(r["seconds"] for r in records)}
    if tracer is not None:
        result["layers"] = tracer.layer_values(
            input_bytes, input_rationals, parses, stdout_bytes)
    return result


def run_pass(root: Path, workdir: Path, label: str, save: bool,
             trace: bool) -> None:
    cli = _import_cli(root)
    jobs = json.loads((workdir / "jobs.json").read_text(encoding="utf-8"))
    reports = None
    if save:
        reports = workdir / "reports"
        reports.mkdir(exist_ok=True)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    os.chdir(workdir)
    with refclock.Ticks() as ticks:
        result = run_jobs(cli, jobs, ticks, reports, tracer)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(workdir / "trace")
    (workdir / f"pass-{label}.json").write_text(json.dumps(result),
                                                encoding="utf-8")


def run_replays(root: Path, workdir: Path, reports: list) -> None:
    cli = _import_cli(root)
    results = {}
    for path in reports:
        code, crash, text, _, _ = _call(cli, ["--replay", path])
        try:
            match = json.loads(text)["match"] is True
        except (ValueError, KeyError, TypeError):
            match = False
        results[path] = {"code": code, "crash": crash, "match": match}
    (workdir / "replays.json").write_text(json.dumps(results),
                                          encoding="utf-8")


def main(argv) -> None:
    mode, root, workdir = argv[0], Path(argv[1]), Path(argv[2])
    if mode == "setup":
        setup(root, workdir, argv[3], int(argv[4]))
    elif mode == "pass":
        run_pass(root, workdir, argv[3], "--save-reports" in argv,
                 "--trace" in argv)
    elif mode == "replay":
        run_replays(root, workdir, argv[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
