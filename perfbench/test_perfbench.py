"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload):
    jobs_a, files_a = workloads.generate(workload, 7)
    assert (jobs_a, files_a) == workloads.generate(workload, 7)
    jobs_c, files_c = workloads.generate(workload, 8)
    if workload == "countable":      # fixed inputs by design
        assert jobs_c == jobs_a and files_c == files_a
    else:
        assert jobs_c != jobs_a


def test_tables_pass_is_large_enough_for_p95():
    jobs, _ = workloads.generate("tables", 0)
    assert len(jobs) >= 200
    assert len({j["id"] for j in jobs}) == len(jobs)


def test_pass_count_depends_only_on_workload_and_seconds():
    assert [run.pass_count(w, 24) for w in workloads.WORKLOADS] == [2, 2, 3]
    assert all(run.pass_count(w, 1) == run.MIN_PASSES
               for w in workloads.WORKLOADS)


def _sample_jobs(tmp_path) -> list:
    """One cheap job of every kind, from all three workloads."""
    slow = ("-81", "-121", "discrete-shrinking", "1001-1000")
    picked, kinds = [], set()
    for workload in ("tables", "countable"):
        jobs, files = workloads.generate(workload, 0)
        workloads.write(tmp_path, files)
        for job in jobs:
            kind = job["id"].rsplit("-", 1)[0]
            if kind not in kinds and not any(s in job["id"] for s in slow):
                kinds.add(kind)
                picked.append(job)
    picked.sort(key=lambda j: not j["id"].startswith("builtin"))
    picked += [j for j in workloads.generate("axioms", 0)[0]
               if j["id"] == "axioms-metrics-no-abs-scale"]
    return picked


def test_tracing_repeats_counts_and_keeps_stdout(tmp_path, monkeypatch):
    jobs = _sample_jobs(tmp_path)
    monkeypatch.chdir(tmp_path)
    cli = child._import_cli(ROOT)
    with refclock.Ticks() as ticks:
        plain = child.run_jobs(cli, jobs, ticks)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            with refclock.Ticks() as ticks:
                traced.append(child.run_jobs(cli, jobs, ticks,
                                             tracer=tracer))
        finally:
            tracer.uninstall()
    digests = [[r["sha256"] for r in res["jobs"]]
               for res in [plain] + traced]
    assert digests[0] == digests[1] == digests[2]
    counts = [{k: res["layers"][k] for k in COUNT_METRICS
               if k in res["layers"]} for res in traced]
    assert counts[0] == counts[1]
    layers = traced[0]["layers"]
    assert layers["metrics.pcf_repeat_frac"] == pytest.approx(1 / 3)
    assert layers["instances.metrics-no-abs-scale.add.calls"] > 0
    assert layers["norms.decay_index_sum"] > 0
    # the wrappers are gone again
    from evslib import metrics, rationals
    assert metrics.parse_rational is rationals.parse_rational
    assert not hasattr(rationals.parse_rational, "__wrapped__")


def test_ref_seconds_weights_each_stretch_by_the_probe_before_it():
    ticks = refclock.Ticks()
    # probes busy in [0, 1], [10, 11] and [20, 21]; factors 1, 2 and 0.5
    ticks.ticks = [(0.0, 1.0, 1.0), (10.0, 11.0, 2.0), (20.0, 21.0, 0.5)]
    assert ticks.ref_seconds(2.0, 5.0) == 3.0
    assert ticks.ref_seconds(5.0, 15.0) == 5.0 + 4.0 * 2.0
    assert ticks.ref_seconds(0.5, 25.0) == 9.0 + 9.0 * 2.0 + 4.0 * 0.5
    assert ticks.ref_seconds(10.2, 10.8) == 0.0


def test_ticks_probe_while_the_block_runs():
    with refclock.Ticks() as ticks:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * refclock.TICK_S:
            pass
        t1 = time.perf_counter()
    assert len(ticks.ticks) >= 3
    assert all(f > 0 for _, _, f in ticks.ticks)
    assert 0 < ticks.ref_seconds(t0, t1)
    n = len(ticks.ticks)
    time.sleep(2 * refclock.TICK_S)
    assert len(ticks.ticks) == n          # the timer is off again


def _record(job_id, code=0, crash=None, sha="a", report=None):
    return {"id": job_id, "code": code, "crash": crash, "seconds": 0.1,
            "ref_seconds": 0.1,
            "sha256": sha, "report": report}


def test_check_counts_the_known_crash_but_stays_correct():
    jobs = [{"id": "ok", "code": 0, "inputs": []},
            {"id": "known", "code": None, "inputs": [],
             "known_crash": "ValueError"}]
    passes = [{"jobs": [_record("ok"),
                        _record("known", 1, "ValueError")]}]
    correct, attempted, failed, _ = run.check("countable", 1, jobs, passes,
                                              {}, None)
    assert (correct, attempted, failed) == (True, 2, 1)

    passes = [{"jobs": [_record("ok", 1), _record("known", 0)]}]
    correct, _, failed, problems = run.check("countable", 1, jobs, passes,
                                             {}, None)
    assert (correct, failed) == (False, 1)
    assert "exit 1 != 0" in problems[0]

    passes = [{"jobs": [_record("ok", crash="KeyError"),
                        _record("known", 0)]}]
    assert run.check("countable", 1, jobs, passes, {}, None)[0] is False


def test_check_compares_digests_on_the_default_seed_and_fixed_jobs():
    jobs, _ = workloads.generate("axioms", workloads.DEFAULT_SEED)
    passes = [{"jobs": [_record(j["id"], j["code"]) for j in jobs]}]
    correct, _, failed, _ = run.check("axioms", workloads.DEFAULT_SEED, jobs,
                                      passes, {}, None)
    assert not correct and failed == len(jobs)
    jobs, _ = workloads.generate("axioms", 3)
    passes = [{"jobs": [_record(j["id"], j["code"]) for j in jobs]}]
    correct, _, failed, problems = run.check("axioms", 3, jobs, passes, {},
                                             None)
    assert not correct
    assert failed == len(workloads.AXIOM_INSTANCES)   # the seed-0 jobs only
    assert all("digest" in p for p in problems)


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)
    assert all(m["unit"] == run.END_TO_END[m["name"]]
               for m in bench["end_to_end"])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
