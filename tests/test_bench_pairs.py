"""tools/bench_pairs.py: the gain rule it writes as `claim_met`, its
refusal to compare checkouts that run different benchmarks, that are not
git checkouts or that hold bytecode under src/, the command it records,
its replay corpus, and its process-wall mode."""

import hashlib
import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from evslib.norms import PartitionSpec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# quartiles 0.09875 and 0.102: an interquartile range of 0.00325
BEFORE = [0.100, 0.102, 0.098, 0.101, 0.099, 0.103, 0.100, 0.097, 0.102,
          0.101]


@pytest.mark.parametrize("after, met", [
    ([x - 0.010 for x in BEFORE], True),            # ten wins, gap 0.010
    ([x - 0.010 for x in BEFORE[:9]] + [0.2], True),   # nine wins
    ([x - 0.010 for x in BEFORE[:8]] + [0.2] * 2, False),  # eight wins
    ([x - 0.010 for x in BEFORE[:9]] + [BEFORE[9]], True),  # a tie is no win
    ([x - 0.010 for x in BEFORE[:8]] + BEFORE[8:], False),  # two ties
    ([x - 0.003 for x in BEFORE], False),           # gap 0.003 < IQR 0.0033
    ([x - 0.004 for x in BEFORE], True),            # gap 0.004 > IQR
    ([x + 0.010 for x in BEFORE], False),           # worse on every pair
])
def test_claim_met_needs_nine_of_ten_wins_and_a_gap_past_the_iqr(
        bench_pairs, after, met):
    assert bench_pairs.claim_met(BEFORE, after, "lower") is met
    # the same runs of a metric where higher is better
    assert bench_pairs.claim_met([-x for x in BEFORE], [-x for x in after],
                                 "higher") is met


def test_claim_met_needs_ten_pairs(bench_pairs):
    assert bench_pairs.claim_met(BEFORE[:9], [x - 0.01 for x in BEFORE[:9]],
                                 "lower") is False


@pytest.mark.parametrize("after, within", [
    (0.100, True), (0.080, True),       # no change, and a gain
    (0.125, True),                      # worse by exactly the bound
    (0.1251, False),                    # worse by more than the bound
])
def test_within_bound_allows_a_loss_of_at_most_the_bound(bench_pairs, after,
                                                         within):
    assert bench_pairs.within_bound(0.100, after, "lower", 0.25) is within
    # the same medians of a metric where higher is better
    assert bench_pairs.within_bound(-0.100, -after, "higher", 0.25) is \
        within


def checkout(root: Path, tracer: str) -> Path:
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "perfbench" / "tracer.py").write_text(tracer)
    (root / "perfbench" / "__pycache__" / "tracer.pyc").write_bytes(
        tracer.encode())
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 24, "end_to_end": []}))
    return root


def test_refuses_checkouts_whose_benchmarks_differ(bench_pairs, tmp_path,
                                                   monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "_run", no_run)
    monkeypatch.setattr(bench_pairs, "_commit", lambda root: "0" * 40)
    before = checkout(tmp_path / "before", "A = 1\n")
    after = checkout(tmp_path / "after", "A = 2\n")
    out = tmp_path / "BENCH.json"
    argv = ["bench_pairs.py", "--before", str(before), "--after", str(after),
            "--workloads", "axioms=1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 2
    assert "perfbench/tracer.py" in capsys.readouterr().err
    assert not out.exists()

    # bytecode caches differ, the sources do not: the runs start
    (after / "perfbench" / "tracer.py").write_text("A = 1\n")
    with pytest.raises(AssertionError, match="a benchmark run started"):
        bench_pairs.main()

    (before / "BENCHMARK.json").write_text("{}")
    assert bench_pairs.main() == 2
    assert "BENCHMARK.json" in capsys.readouterr().err


REPO = TOOL.parent.parent


def no_run(*args, **kwargs):
    raise AssertionError("a benchmark run started")


def git_checkout(root: Path) -> Path:
    """checkout(root, "A = 1\\n") with its files committed to a new git
    repository."""
    checkout(root, "A = 1\n")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "x"]):
        subprocess.run(git + args, cwd=root, check=True, capture_output=True)
    return root


@pytest.mark.parametrize("sides", [("plain", "git"), ("git", "nested"),
                                   ("plain", "plain")],
                         ids=["before-plain", "after-nested", "both-plain"])
def test_refuses_checkouts_that_are_not_git_repositories(
        bench_pairs, tmp_path, monkeypatch, capsys, sides):
    # a plain copy of the files, and a directory inside a git work tree
    # that is not its root: neither has a commit of its own
    monkeypatch.setattr(bench_pairs, "_run", no_run)
    monkeypatch.setattr(bench_pairs, "replay_corpus", no_run)
    make = {"plain": lambda root: checkout(root, "A = 1\n"),
            "git": git_checkout,
            "nested": lambda root: checkout(git_checkout(root) / "copy",
                                            "A = 1\n")}
    roots = [make[kind](tmp_path / side)
             for side, kind in zip(("before", "after"), sides)]
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--before", str(roots[0]), "--after", str(roots[1]),
        "--workloads", "axioms=1", "--replay-corpus", "--out", str(out)])
    assert bench_pairs.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not the root of a git checkout")
    assert err.count("\n") == 1
    for side, kind, root in zip(("before", "after"), sides, roots):
        assert (f"--{side} {root}" in err) is (kind != "git")
    assert not out.exists()


@pytest.mark.parametrize("cached", [("before",), ("after",),
                                    ("before", "after")])
def test_refuses_checkouts_with_bytecode_under_src(bench_pairs, tmp_path,
                                                   monkeypatch, capsys,
                                                   cached):
    """A bytecode cache under src/ would spare its side the compile that
    the benchmark's fresh checkouts pay; the tool names each cache."""
    roots = {side: git_checkout(tmp_path / side)
             for side in ("before", "after")}
    caches = [roots[side] / "src" / "evslib" / "__pycache__"
              for side in cached]
    for cache in caches:
        cache.mkdir(parents=True)
        (cache / "errors.cpython-311.pyc").write_bytes(b"")
    monkeypatch.setattr(bench_pairs, "_run", no_run)
    monkeypatch.setattr(bench_pairs, "replay_corpus", no_run)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--before", str(roots["before"]), "--after",
        str(roots["after"]), "--workloads", "axioms=1", "--replay-corpus",
        "--out", str(out)])
    assert bench_pairs.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bytecode caches under src/")
    for side, root in roots.items():
        assert (str(root / "src" / "evslib" / "__pycache__") in err) is (
            side in cached)
    assert not out.exists()

    # a cache outside src/ is no refusal
    for cache in caches:
        cache.rename(cache.parent.parent.parent / "__pycache__")
    with pytest.raises(AssertionError, match="a benchmark run started"):
        bench_pairs.main()


def test_git_checkouts_are_named_by_their_commits(bench_pairs, tmp_path,
                                                  monkeypatch):
    roots = [git_checkout(tmp_path / side) for side in ("before", "after")]
    commit = bench_pairs._commit(roots[0])
    assert len(commit) == 40 and set(commit) <= set("0123456789abcdef")
    monkeypatch.setattr(bench_pairs, "_run", no_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--before", str(roots[0]), "--after", str(roots[1]),
        "--workloads", "axioms=1", "--out", str(tmp_path / "BENCH.json")])
    with pytest.raises(AssertionError, match="a benchmark run started"):
        bench_pairs.main()


@pytest.mark.parametrize("flags", [
    ["--replay-corpus"],
    ["--workloads", "axioms=2,tables=1"],
    ["--process-wall", "3"],
    ["--workloads", "countable=1", "--traced", "axioms,tables",
     "--replay-corpus", "--process-wall", "2"],
], ids=["replay-corpus", "workloads", "process-wall", "every-flag"])
def test_the_recorded_command_parses_back_to_its_arguments(
        bench_pairs, tmp_path, monkeypatch, flags):
    """The `command` of the file, split as a shell splits it and with the
    checkouts put for BEFORE and AFTER, parses to the arguments of the run
    that wrote it."""
    for name in ("_pairs", "_run", "replay_corpus"):
        monkeypatch.setattr(bench_pairs, name, lambda *args: {})
    monkeypatch.setattr(bench_pairs, "process_wall", lambda *args: {})
    monkeypatch.setattr(bench_pairs, "_differing", lambda roots: [])
    monkeypatch.setattr(bench_pairs, "_commit", lambda root: "0" * 40)
    sides = {"BEFORE": str(tmp_path / "before"),
             "AFTER": str(tmp_path / "after")}
    (tmp_path / "after").mkdir()
    (tmp_path / "after" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 24, "end_to_end": []}))
    monkeypatch.chdir(tmp_path)
    argv = ["--before", sides["BEFORE"], "--after", sides["AFTER"], *flags,
            "--out", "BENCH.json"]
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", *argv])
    assert bench_pairs.main() == 0
    words = shlex.split(json.loads(
        (tmp_path / "BENCH.json").read_text())["command"])
    assert words[:2] == ["python3", "tools/bench_pairs.py"]
    parser = bench_pairs.arguments()
    assert parser.parse_args([sides.get(word, word) for word in words[2:]]) \
        == parser.parse_args(argv)


# A before side that prints a report the after side replays, the same
# report with its verdict changed, a document that is no report, and
# nothing at all (a crash): one job each.
STUB_WORKLOADS = '''
def generate(workload, seed):
    jobs = [{"id": name, "argv": [name], "code": None, "inputs": []}
            for name in ("good", "changed", "broken", "crash")]
    return jobs, {}


def write(root, files):
    pass
'''

STUB_CLI = '''
import json

REPORT = {"command": "norms-partition", "inputs": {"depth": 4},
          "report": REPORT_DOC}


def main(argv):
    name = argv[0]
    if name == "crash":
        return 3
    if name == "broken":
        print(json.dumps({"command": "norms-partition"}))
        return 0
    if name == "changed":
        REPORT["inputs"]["depth"] = 5
    print(json.dumps(REPORT))
    return 0
'''


def stub_checkout(root: Path, workloads: str = STUB_WORKLOADS,
                  cli: str = STUB_CLI) -> Path:
    """A checkout whose perfbench child is the real one, whose job list is
    `workloads` (STUB_WORKLOADS) and whose `evs` is `cli` (STUB_CLI)."""
    (root / "perfbench").mkdir(parents=True)
    for name in ("child.py", "refclock.py"):
        (root / "perfbench" / name).write_bytes(
            (REPO / "perfbench" / name).read_bytes())
    (root / "perfbench" / "workloads.py").write_text(workloads)
    (root / "src" / "evslib").mkdir(parents=True)
    (root / "src" / "evslib" / "__init__.py").write_text("")
    (root / "src" / "evslib" / "cli.py").write_text(cli.replace(
        "REPORT_DOC", json.dumps(PartitionSpec(4).to_json())))
    return root


def test_replay_corpus_records_mismatches_exits_and_missing_reports(
        bench_pairs, tmp_path):
    roots = {"before": stub_checkout(tmp_path / "before"), "after": REPO}
    doc = bench_pairs.replay_corpus(roots, ("tiny", "again"))
    expected = {"count": 3, "mismatches": ["broken", "changed"],
                "nonzero_exits": {"broken": 2, "changed": 1},
                "unreported": {"crash": 3}}
    assert doc == {"tiny": expected, "again": expected}


def test_children_write_no_bytecode_under_src(bench_pairs, tmp_path,
                                              monkeypatch):
    """Run from an environment that writes bytecode, a benchmark child
    still leaves no cache under the checkout's src/ for the refusal above
    to find on the next run."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    root = stub_checkout(tmp_path / "checkout")
    bench_pairs._child(root, "setup", root, tmp_path, "tiny", 0)
    assert (tmp_path / "jobs.json").exists()
    assert bench_pairs._src_caches(root) == []


def test_replay_corpus_alone_writes_its_section(bench_pairs, tmp_path,
                                                monkeypatch):
    before = stub_checkout(tmp_path / "before")
    monkeypatch.setattr(bench_pairs, "_differing", lambda roots: [])
    monkeypatch.setattr(bench_pairs, "_commit", lambda root: "0" * 40)
    # the tests' own imports may leave bytecode under this checkout's src/
    monkeypatch.setattr(bench_pairs, "_src_caches", lambda root: [])
    monkeypatch.setattr(bench_pairs, "CORPUS_WORKLOADS", ("tiny",))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--before", str(before), "--after", str(REPO),
        "--replay-corpus", "--out", str(out)])
    assert bench_pairs.main() == 0
    doc = json.loads(out.read_text())
    assert doc["command"].endswith("--replay-corpus --out BENCH.json")
    assert doc["workloads"] == {} and doc["traced"] == {}
    assert doc["replay_corpus"]["tiny"]["count"] == 3
    assert doc["replay_corpus"]["tiny"]["mismatches"] == ["broken",
                                                          "changed"]


# A tables job list whose first `compare` and `order in-l` argv follow
# other jobs, and an `evs` that prints its argv, exits 1 on `compare`, and
# writes no files.
WALL_WORKLOADS = '''
def generate(workload, seed):
    argvs = [["validate", "v.json"], ["compare", "a.json", "b.json"],
             ["order", "indep", "--universe", "u.json"],
             ["order", "in-l", "--universe", "u.json", "--x", "x.json",
              "--y", "y.json"], ["compare", "c.json", "d.json"]]
    return [{"id": str(k), "argv": argv, "code": 0, "inputs": []}
            for k, argv in enumerate(argvs)], {}


def write(root, files):
    pass
'''

WALL_CLI = '''
import json
import sys

MARK = ""


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    print(json.dumps(argv) + MARK)
    return 1 if argv[:1] == ["compare"] else 0
'''

EVS_COMMANDS = [
    "evs axioms --instance metrics --seed 0 --sample 50",
    "evs axioms --instance norms --seed 0 --sample 50",
    "evs axioms --instance cone --seed 0 --sample 50",
    "evs axioms --instance hyperspace --seed 0 --sample 50",
    "evs validate kappa-41.json", "evs validate kappa-81.json",
    "evs validate kappa-121.json",
    "evs partial-compare --first discrete --second shrinking --depths "
    "50,100,200",
    "evs norms witness --spec p.json --spec q.json --eps 1e-30",
    "evs compare a.json b.json",
    "evs order in-l --universe u.json --x x.json --y y.json",
]


def wall_checkout(root: Path, mark: str = "") -> Path:
    root = stub_checkout(root, WALL_WORKLOADS,
                         WALL_CLI.replace('MARK = ""', f"MARK = {mark!r}"))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 24, "end_to_end": []}))
    return root


def test_process_wall_times_every_command_on_both_sides(bench_pairs,
                                                        tmp_path):
    roots = {side: wall_checkout(tmp_path / side)
             for side in ("before", "after")}
    doc = bench_pairs.process_wall(roots, 2)
    assert doc["rounds"] == 2
    commands = doc["commands"]
    assert list(commands) == [*bench_pairs.STARTUP, *EVS_COMMANDS]
    for name, entry in commands.items():
        for side in ("before", "after"):
            assert set(entry[side]) == {"median", "q1", "q3", "codes",
                                        "digests"}
            assert entry[side]["q1"] <= entry[side]["median"] \
                <= entry[side]["q3"]
            assert entry[side]["codes"] == [int(name.startswith(
                "evs compare"))]
            assert len(entry[side]["digests"]) == 1
        assert entry["same_stdout"] is True
        assert 0 <= entry["after_wins"] <= 2
    # each command ran from the inputs the before side wrote, through the
    # checkout's own evslib.cli.main
    argv = EVS_COMMANDS[-1].split()[1:]
    printed = (json.dumps(argv) + "\n").encode()
    assert commands[EVS_COMMANDS[-1]]["after"]["digests"] == [
        hashlib.sha256(printed).hexdigest()]


def test_process_wall_exits_one_where_the_sides_print_differently(
        bench_pairs, tmp_path, monkeypatch, capsys):
    before = wall_checkout(tmp_path / "before")
    after = wall_checkout(tmp_path / "after", mark=" ")
    monkeypatch.setattr(bench_pairs, "_commit", lambda root: "0" * 40)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--before", str(before), "--after", str(after),
        "--process-wall", "1", "--out", str(out)])
    assert bench_pairs.main() == 1
    assert "different stdout" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["command"].endswith("--process-wall 1 --out BENCH.json")
    same = {name: entry["same_stdout"]
            for name, entry in doc["process_wall"]["commands"].items()}
    assert same == {**dict.fromkeys(bench_pairs.STARTUP, True),
                    **dict.fromkeys(EVS_COMMANDS, False)}


def test_process_wall_children_write_bytecode_to_their_own_cache(
        bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_pairs._wall_env(tmp_path / "co", tmp_path / "cache")
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(tmp_path / "co" / "src")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "cache")


def test_job_kind_ms_reads_the_numbered_pass_files(bench_pairs, tmp_path):
    """Per job kind, the id without its trailing number, the median
    reference milliseconds over the jobs of every numbered pass; the
    traced pass and other files are left out."""
    def write(name, jobs):
        (tmp_path / name).write_text(json.dumps({"jobs": [
            {"id": job_id, "ref_seconds": seconds}
            for job_id, seconds in jobs]}))

    write("pass-0.json", [("in-l-000", 0.001), ("in-l-001", 0.003),
                          ("axioms-metrics", 0.010), ("builtin-kappa-41",
                                                      0.020)])
    write("pass-1.json", [("in-l-000", 0.002), ("in-l-001", 0.004),
                          ("axioms-metrics", 0.030), ("builtin-kappa-41",
                                                      0.020)])
    write("pass-traced.json", [("in-l-000", 1.0), ("in-l-001", 1.0)])
    write("replays.json", [("in-l-000", 1.0)])
    assert bench_pairs.job_kind_ms(tmp_path) == pytest.approx(
        {"axioms-metrics": 20.0, "builtin-kappa": 20.0, "in-l": 2.5})
    assert bench_pairs.job_kind_ms(tmp_path / "missing") == {}


def test_job_kind_medians_take_the_median_run_of_each_side(bench_pairs):
    pairs = [{side: {"job_kind_ms": {"in-l": ms, "feasible": 2 * ms}}
              for side, ms in (("before", b), ("after", a))}
             for b, a in ((3.0, 1.0), (5.0, 2.0), (4.0, 9.0))]
    assert bench_pairs.job_kind_medians(pairs) == {
        "before": {"in-l": 4.0, "feasible": 8.0},
        "after": {"in-l": 2.0, "feasible": 4.0}}
