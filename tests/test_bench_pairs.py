"""``tools/bench_pairs.py`` keeps what it measured when a run fails."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_run_stops_the_session_and_the_record_is_still_written(tmp_path, monkeypatch):
    bench_pairs = _load_bench_pairs()
    shutil.copy(TOOLS.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    calls = []

    def run_once(tree, work, workload, seed, seconds, trace):
        calls.append((tree.name, workload, seed))
        if len(calls) == 3:
            raise bench_pairs.RunFailed(7, "".join(f"line {i}\n" for i in range(30)))
        metrics = {"ops_per_s": {"value": float(len(calls)), "unit": "1/s"}}
        return {"failed": 0, "attempted": 4, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "extract", lambda side, dest: dest)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "p", "--change", "c", "--pr", "99",
        "--run", "solve_general:0:3:2401", "--run", "plot_data:0:2:2401",
        "--claim", "solve_general:ops_per_s", "--compare-seeds", "901",
    ])
    assert bench_pairs.main() == 1

    # pair 0 runs parent then change; pair 1 starts with the change, which fails
    assert calls == [("parent", "solve_general", 2401), ("change", "solve_general", 2401),
                     ("change", "solve_general", 2402)]
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert record["aborted"] == {
        "side": "change", "workload": "solve_general", "seed": 2402, "trace": 0,
        "exit_code": 7, "stderr_tail": [f"line {i}" for i in range(10, 30)],
    }
    [entry] = record["runs"]
    assert (entry["workload"], entry["seeds"], entry["pairs"]) == ("solve_general", [2401], 1)
    ops = entry["metrics"]["ops_per_s"]
    assert (ops["parent"]["median"], ops["change"]["median"], ops["change_wins"]) == (1.0, 2.0, 1)
    assert "claim" not in record and "outputs" not in record


def test_a_run_with_failed_ops_is_kept_with_its_messages(tmp_path, monkeypatch):
    bench_pairs = _load_bench_pairs()
    shutil.copy(TOOLS.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    calls = []

    def run_once(tree, work, workload, seed, seconds, trace):
        calls.append((tree.name, seed))
        failed = 2 if (tree.name, seed) == ("parent", 2402) else 0
        ops = [f"failed op: solve game-{k}.json: exit 3" for k in range(failed)]
        metrics = {"ops_per_s": {"value": float(len(calls)), "unit": "1/s"}}
        return {"failed": failed, "attempted": 4, "metrics": metrics, "failed_ops": ops}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "extract", lambda side, dest: dest)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "p", "--change", "c", "--pr", "98",
        "--run", "solve_general:0:2:2401",
    ])
    assert bench_pairs.main() == 0

    # a run that exits 0 with failed ops does not stop the session
    assert len(calls) == 4
    record = json.loads((tmp_path / "BENCH_98.json").read_text())
    assert "aborted" not in record
    assert record["failed_runs"] == [{
        "side": "parent", "workload": "solve_general", "seed": 2402, "trace": 0,
        "failed": 2, "attempted": 4,
        "failed_ops": [f"failed op: solve game-{k}.json: exit 3" for k in range(2)],
    }]
    [entry] = record["runs"]
    assert entry["failed"] == {"parent": 2, "change": 0}


def test_run_once_keeps_the_failed_op_lines_of_stderr(tmp_path):
    bench_pairs = _load_bench_pairs()
    tree, work = tmp_path / "tree", tmp_path / "work"
    (tree / "perfbench").mkdir(parents=True)
    work.mkdir()
    (tree / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "print('solve_general seed=5: 4 ops in 1 cycles, 1 failed')\n"
        "print('  failed op: solve game-0-3.json: exit 3', file=sys.stderr)\n"
        "print('a warning', file=sys.stderr)\n"
        "print(json.dumps({'failed': 1, 'attempted': 4, 'metrics': {}}))\n"
    )
    result = bench_pairs.run_once(tree, work, "solve_general", 5, 1.0, 0)
    assert result["failed"] == 1
    assert result["failed_ops"] == ["failed op: solve game-0-3.json: exit 3"]
    assert list(work.iterdir()) == []  # the run's copy is removed
