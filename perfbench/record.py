"""Record each job's exit code and stdout digest on the default seed.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of an evslib checkout. Writes `expected/<workload>.json`,
which `run.py` checks on the default seed. A job may only be recorded with
the exit code its workload constructs, or with the exception its workload
lists as a known crash; anything else stops the recording.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, child_cmd, read_json, run_child
import workloads


def record(root: Path, workload: str) -> None:
    work = root / ".perfbench" / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    run_child(child_cmd(root, "setup", work, workload,
                        workloads.DEFAULT_SEED))
    run_child(child_cmd(root, "pass", work, 0))
    jobs = read_json(work / "jobs.json")
    records = read_json(work / "pass-0.json")["jobs"]
    out = {}
    for job, rec in zip(jobs, records):
        if rec["crash"]:
            if rec["crash"] != job.get("known_crash"):
                raise SystemExit(f"{job['id']} raised {rec['crash']}")
            out[job["id"]] = {"code": None, "sha256": None,
                              "raises": rec["crash"]}
        elif job["code"] is not None and rec["code"] != job["code"]:
            raise SystemExit(f"{job['id']} exited {rec['code']}, "
                             f"expected {job['code']}")
        else:
            out[job["id"]] = {"code": rec["code"], "sha256": rec["sha256"]}
    path = HERE / "expected" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{path}: {len(out)} jobs")


if __name__ == "__main__":
    root = Path.cwd().resolve()
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(root, name)
