"""The verdicts of tools/bench_pair.py on hand-made runs."""

import importlib.util
import json
import os
import py_compile
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]
BETTER = {m["name"]: m["better"] for m in METRICS}
# the sides' commits: the hand-made checkouts below are no git work trees
REVS = ["--parent-rev", "0" * 40, "--change-rev", "1" * 40]


def _runs(parent, change, correct=True):
    """Runs from per-seed {metric: value} dicts of the two sides."""
    return [
        {"seed": seed, "first": "parent",
         "parent": {"correct": True, "attempted": 10, "failed": 0, "metrics": p},
         "change": {"correct": correct, "attempted": 10, "failed": 0, "metrics": c}}
        for seed, (p, c) in enumerate(zip(parent, change), start=1)
    ]


def _verdicts(runs, claim=None):
    return bench_pair.verdicts(bench_pair.summarize(runs, BETTER), len(runs), METRICS, claim)


def _seeds(ops, ms, rss):
    return [{"ops_per_s": o, "op_ms_p50": m, "peak_rss_mb": r} for o, m, r in zip(ops, ms, rss)]


# parent: ops_per_s 10..19 (median 14.5, q1 12.25, q3 16.75)
PARENT = _seeds(range(10, 20), [20.0] * 10, [40.0] * 10)


def test_clear_gain_meets_the_claim():
    # +6 ops/s on nine seeds, one loss; the median gap 19.5 - 14.5 = 5.0
    # beats q3 - q1 = 4.5
    ops = [o + 6 for o in range(10, 19)] + [18]
    runs = _runs(PARENT, _seeds(ops, [20.0] * 10, [42.0] * 10))
    verdict = _verdicts(runs, claim="ops_per_s")
    assert verdict["ops_per_s"]["wins"] == 9
    assert verdict["ops_per_s"]["gain"] == pytest.approx(5.0 / 14.5)
    assert verdict["ops_per_s"]["parent_spread"] == pytest.approx(4.5 / 14.5)
    assert verdict["ops_per_s"]["claim_met"] is True
    # lower is better: 42 MB against 40 is a 5 % loss, inside the 10 % bound
    assert verdict["peak_rss_mb"]["gain"] == pytest.approx(-0.05)
    assert verdict["peak_rss_mb"]["within_bound"] is True
    assert verdict["op_ms_p50"] == {
        "gain": 0.0, "parent_spread": 0.0, "wins": 0, "within_bound": True, "resolved": True
    }
    assert all("claim_met" not in verdict[name] for name in ("op_ms_p50", "peak_rss_mb"))


def test_gain_within_the_spread_is_no_claim():
    # wins every seed, but the median moves by 1.0 < q3 - q1 = 4.5
    runs = _runs(PARENT, _seeds(range(11, 21), [20.0] * 10, [40.0] * 10))
    verdict = _verdicts(runs, claim="ops_per_s")["ops_per_s"]
    assert verdict["wins"] == 10 and verdict["claim_met"] is False


def test_eight_wins_are_too_few():
    ops = [o + 10 for o in range(10, 18)] + [10, 11]
    runs = _runs(PARENT, _seeds(ops, [20.0] * 10, [40.0] * 10))
    verdict = _verdicts(runs, claim="ops_per_s")["ops_per_s"]
    assert verdict["wins"] == 8 and verdict["claim_met"] is False


def test_bound_breach():
    # op_ms_p50 26 against 20: 30 % worse, past the 25 % bound
    runs = _runs(PARENT, _seeds(range(10, 20), [26.0] * 10, [40.0] * 10))
    verdict = _verdicts(runs)
    assert verdict["op_ms_p50"]["gain"] == pytest.approx(-0.3)
    assert verdict["op_ms_p50"]["within_bound"] is False
    assert verdict["ops_per_s"]["within_bound"] is True


def test_spread_past_the_bound_is_unresolved():
    # the parent's spread, 4.5 / 14.5 = 31 %, exceeds the 25 % bound of ops_per_s
    runs = _runs(PARENT, _seeds(range(11, 21), [20.0] * 10, [40.0] * 10))
    verdict = _verdicts(runs)
    assert verdict["ops_per_s"]["wins"] == 10
    assert verdict["ops_per_s"]["within_bound"] is True
    assert verdict["ops_per_s"]["resolved"] is False
    assert verdict["op_ms_p50"]["resolved"] is True
    # unless every change run beats every parent run (the parent's best is 19)
    runs = _runs(PARENT, _seeds(range(20, 30), [20.0] * 10, [40.0] * 10))
    assert _verdicts(runs)["ops_per_s"]["resolved"] is True
    runs = _runs(PARENT, _seeds([19] + list(range(21, 30)), [20.0] * 10, [40.0] * 10))
    assert _verdicts(runs)["ops_per_s"]["resolved"] is False


def test_incorrect_run_fails_the_pair(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}))
    # the first seed runs the parent first, the second the change first
    pairs = _runs(PARENT[:2], PARENT[:2], correct=False)
    calls = iter([pairs[0]["parent"], pairs[0]["change"], pairs[1]["change"], pairs[1]["parent"]])
    monkeypatch.setattr(bench_pair, "run_bench", lambda *args: next(calls))
    out = tmp_path / "bench.json"
    code = bench_pair.main([str(tmp_path / "parent"), str(tmp_path / "change"), *REVS,
                            "--seeds", "1-2", "--claim", "ops_per_s", "--out", str(out)])
    assert code == 1
    record = json.loads(out.read_text())
    assert record["workloads"]["w"]["verdict"]["ops_per_s"]["claim_met"] is False


def test_src_lines_per_side(tmp_path, monkeypatch):
    # lines of src/**/*.py only, nested packages included
    for side, files in {"parent": {"a.py": "x = 1\ny = 2\n"},
                        "change": {"a.py": "x = 1\n", "sub/b.py": "z = 3\n"}}.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "pkg" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (tmp_path / "parent" / "src" / "pkg" / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "change" / "README.md").write_text("outside src\n")
    assert bench_pair.src_lines(tmp_path / "parent") == 2
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}))
    runs = _runs(PARENT[:1], PARENT[:1])[0]
    calls = iter([runs["parent"], runs["change"]])
    monkeypatch.setattr(bench_pair, "run_bench", lambda *args: next(calls))
    out = tmp_path / "bench.json"
    code = bench_pair.main([str(tmp_path / "parent"), str(tmp_path / "change"), *REVS,
                            "--seeds", "1", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["src_lines"] == {"parent": 2, "change": 2}
    assert record["src_lines_net"] == 0


def test_code_lines_ignore_docstring_edits(tmp_path, monkeypatch):
    # a docstring-only edit changes src_lines but not src_code_lines
    parent = (
        '"""Module."""\n\nX = 1  # one\n\n\nclass C:\n    """Short."""\n\n'
        '    def f(self):\n        """Short."""\n        # a comment\n        return X\n'
    )
    change = parent.replace('"""Short."""', '"""Short,\n    now longer."""')
    for side, text in (("parent", parent), ("change", change)):
        path = tmp_path / side / "src" / "pkg" / "m.py"
        path.parent.mkdir(parents=True)
        path.write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}))
    runs = _runs(PARENT[:1], PARENT[:1])[0]
    calls = iter([runs["parent"], runs["change"]])
    monkeypatch.setattr(bench_pair, "run_bench", lambda *args: next(calls))
    out = tmp_path / "bench.json"
    bench_pair.main([str(tmp_path / "parent"), str(tmp_path / "change"), *REVS,
                     "--seeds", "1", "--out", str(out)])
    record = json.loads(out.read_text())
    assert record["src_lines"] == {"parent": 12, "change": 14}
    # X = 1, class C:, def f(self):, return X
    assert record["src_code_lines"] == {"parent": 4, "change": 4}
    assert record["src_code_lines_net"] == 0


def test_code_lines_per_module(tmp_path, monkeypatch):
    # the net per module shows where the lines went: a module edited, one
    # deleted and one added, each counting 0 on the side that lacks it
    sides = {
        "parent": {"a.py": "x = 1\ny = 2\n", "gone.py": "z = 3\n"},
        "change": {"a.py": '"""Doc."""\nx = 1\n', "sub/new.py": "w = 4\nv = 5\n"},
    }
    for side, files in sides.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "pkg" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}))
    runs = _runs(PARENT[:1], PARENT[:1])[0]
    calls = iter([runs["parent"], runs["change"]])
    monkeypatch.setattr(bench_pair, "run_bench", lambda *args: next(calls))
    out = tmp_path / "bench.json"
    bench_pair.main([str(tmp_path / "parent"), str(tmp_path / "change"), *REVS,
                     "--seeds", "1", "--out", str(out)])
    record = json.loads(out.read_text())
    assert record["src_code_lines_by_module"] == {
        "parent": {"pkg/a.py": 2, "pkg/gone.py": 1},
        "change": {"pkg/a.py": 1, "pkg/sub/new.py": 2},
    }
    assert record["src_code_lines_net_by_module"] == {
        "pkg/a.py": -1, "pkg/gone.py": -1, "pkg/sub/new.py": 2
    }
    assert record["src_code_lines"] == {"parent": 3, "change": 3}
    assert record["src_code_lines_net"] == 0


def test_code_lines_count_strings_that_are_not_docstrings():
    # a string assigned or passed spans code lines; a docstring does not
    source = 'def f():\n    """Doc."""\n    s = """a\nb"""\n    return g(\n        s,\n    )\n'
    assert bench_pair.code_lines(source) == 7 - 1  # seven lines, less the docstring


@pytest.mark.parametrize("value, cached", [("1", False), ("", True), (None, True)])
def test_machine_records_bytecode_caching(monkeypatch, value, cached):
    # the runs inherit the environment; an empty value writes bytecode too
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    machine = bench_pair.machine()
    assert machine["bytecode_cached"] is cached
    assert set(machine) == {"nproc", "platform", "python", "numpy", "bytecode_cached"}


def test_stale_bytecode_stops_the_pair(tmp_path, monkeypatch, capsys):
    # a module edited after its .pyc was written compiles again in every run
    # when bytecode is not written; one with no .pyc, or a current one, does not
    for side in ("parent", "change"):
        pkg = tmp_path / side / "src" / "pkg"
        pkg.mkdir(parents=True)
        for name in ("a.py", "b.py"):
            (pkg / name).write_text("x = 1\n")
            py_compile.compile(str(pkg / name),
                               invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
        (pkg / "uncached.py").write_text("y = 2\n")
    (tmp_path / "change" / "src" / "pkg" / "b.py").write_text("x = 12\n")
    assert bench_pair.stale_bytecode(tmp_path / "parent") == []
    assert bench_pair.stale_bytecode(tmp_path / "change") == ["src/pkg/b.py"]
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), *REVS, "--seeds", "1",
            "--out", str(tmp_path / "bench.json")]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    with pytest.raises(SystemExit) as exit_info:
        bench_pair.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "stale bytecode" in err and "change src/pkg/b.py" in err and "parent src/" not in err
    assert not (tmp_path / "bench.json").exists()
    # where bytecode is written, the first run refreshes it: recorded, not fatal
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    runs = _runs(PARENT[:1], PARENT[:1])[0]
    calls = iter([runs["parent"], runs["change"]])
    monkeypatch.setattr(bench_pair, "run_bench", lambda *args: next(calls))
    assert bench_pair.main(argv) == 0
    record = json.loads((tmp_path / "bench.json").read_text())
    assert record["machine"]["stale_bytecode"] == {"parent": [], "change": ["src/pkg/b.py"]}


def test_layers_run_at_every_seed(tmp_path, monkeypatch):
    # one traced run per seed and side, alternating which side goes first as
    # the untraced runs do; the layers get medians, quartiles and wins
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS,
         "per_layer": [{"name": "radial.integrate.self_ms", "better": "lower"}]}))
    calls = []

    def run_bench(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        ms = {"parent": 10.0, "change": 8.0}[checkout.name] + seed
        metrics = {"radial.integrate.self_ms": ms} if trace else PARENT[seed - 1]
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pair, "run_bench", run_bench)
    out = tmp_path / "bench.json"
    assert bench_pair.main([str(tmp_path / "parent"), str(tmp_path / "change"), *REVS,
                            "--seeds", "1-3", "--layers", "--out", str(out)]) == 0
    assert [c for c in calls if c[2] == 1] == [
        ("parent", 1, 1), ("change", 1, 1), ("change", 2, 1), ("parent", 2, 1),
        ("parent", 3, 1), ("change", 3, 1)]
    layers = json.loads(out.read_text())["workloads"]["w"]["layers"]
    assert [(run["seed"], run["first"]) for run in layers["runs"]] == [
        (1, "parent"), (2, "change"), (3, "parent")]
    assert layers["parent"]["radial.integrate.self_ms"] == {"median": 12.0, "q1": 11.5, "q3": 12.5}
    assert layers["change"]["radial.integrate.self_ms"]["median"] == 10.0
    assert layers["change_wins"] == {"radial.integrate.self_ms": 3}


def _git(cwd, *args):
    subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                   env={**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"})


def test_revisions_from_work_trees_or_flags(tmp_path, monkeypatch, capsys):
    # a checkout at the top of its own work tree gives its HEAD; an export
    # inside another repository must not read that repository's HEAD, so it
    # needs its flag, and without one the pair stops before it runs
    repo = tmp_path / "repo"
    (repo / "export").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}))
    _git(repo, "add", "BENCHMARK.json")
    _git(repo, "commit", "-q", "-m", "bench")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    (repo / "export" / "BENCHMARK.json").write_text((repo / "BENCHMARK.json").read_text())
    assert bench_pair.revision(repo) == head
    assert bench_pair.revision(repo / "export") is None
    assert bench_pair.revision(tmp_path) is None  # no work tree at all
    out = tmp_path / "bench.json"
    argv = [str(repo), str(repo / "export"), "--seeds", "1", "--out", str(out)]
    calls = []
    monkeypatch.setattr(bench_pair, "run_bench", lambda *args: calls.append(args) or {
        "correct": True, "attempted": 1, "failed": 0, "metrics": PARENT[0]})
    with pytest.raises(SystemExit) as exit_info:
        bench_pair.main(argv)
    assert exit_info.value.code == 2 and calls == [] and not out.exists()
    assert "--change-rev" in capsys.readouterr().err
    assert bench_pair.main([*argv, "--change-rev", "abc123"]) == 0
    assert json.loads(out.read_text())["revisions"] == {"parent": head, "change": "abc123"}
