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
