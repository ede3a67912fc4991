"""Run alternating parent/change benchmark pairs and write a ``BENCH_<pr>.json`` record.

    python3 tools/bench_pairs.py --parent HEAD~1 --change . --pr 11 \\
        --run montecarlo:0:10:2501 --run plot_data:0:5:2401 \\
        --claim montecarlo:ops_per_s --note "what the change does" \\
        --compare-seeds 901 902

PARENT and CHANGE are each a directory (a checkout root) or a git
revision of this repository.  A directory that is a git work tree
contributes the files ``git add -A`` would commit; a revision is
extracted with ``git archive``.  Each ``--run WORKLOAD:TRACE:PAIRS:SEED``
runs ``perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace
TRACE`` for N = SEED .. SEED+PAIRS-1, with S the ``run_seconds`` of
``BENCHMARK.json``, once per side, each run in a fresh copy of its tree,
one run at a time; pair k runs the parent first when k is even and the
change first when k is odd.

The record has, per run set and per metric, the median and quartiles
(``statistics.quantiles``, inclusive) of each side and ``change_wins``,
the number of pairs where the change is strictly better in the
direction ``BENCHMARK.json`` gives the metric.  Traced sets also keep
every run's value.  ``--claim WORKLOAD:METRIC`` adds a verdict on the
untraced set of that workload: it is met when the change wins at least
nine pairs in ten and its median beats the parent's by more than the
parent's interquartile range.  ``--compare-seeds`` runs
``tools/compare_outputs.py`` on the two trees (two cycles) and records
its summary.

The session stops at the first run that exits non-zero or prints
nothing.  The record is still written, with each run set's completed
pairs and an ``aborted`` entry naming the failed run (side, workload,
seed, trace, exit code and the last 20 lines of its stderr), and the
exit status is 1.  A run that finishes with failed operations does not
stop the session; the record lists it under ``failed_runs`` (side,
workload, seed, trace, failed and attempted counts, and the ``failed op:``
lines of its stderr).

The trees and run copies live in a temporary directory that is removed
at the end; the only file written is ``BENCH_<pr>.json`` at the repo
root, so nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARE_CYCLES = 2
IGNORED = shutil.ignore_patterns(".git", ".perfbench_runs", "__pycache__", ".hypothesis",
                                 ".pytest_cache", ".benchmarks")
METHOD = (
    "parent and change run from fresh copies of their trees, one run at a time, alternating "
    "which side runs first in each pair; wins count pairs where the change is strictly better "
    "in the metric's direction"
)


def extract(side: str, dest: Path) -> Path:
    """Materialise a checkout directory or a git revision at a fresh ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    path = Path(side)
    if path.is_dir():
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=path, capture_output=True,
        )
        if files.returncode != 0:  # not a git work tree: copy it whole
            shutil.copytree(path, dest, ignore=IGNORED)
            return dest
        for name in filter(None, files.stdout.decode().split("\0")):
            if (path / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(path / name, dest / name)
        return dest
    archive = subprocess.run(["git", "archive", side], cwd=ROOT, capture_output=True, check=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


class RunFailed(RuntimeError):
    """A ``perfbench/run.py`` run exited non-zero or printed no result line."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(f"perfbench/run.py exited {returncode}")
        self.returncode, self.stderr = returncode, stderr


def run_once(tree: Path, work: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in a fresh copy of ``tree``; its final JSON line."""
    copy = Path(tempfile.mkdtemp(dir=work, prefix="run-"))
    try:
        shutil.copytree(tree, copy, dirs_exist_ok=True)
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RunFailed(done.returncode, done.stderr)
        result = json.loads(lines[-1])
        result["failed_ops"] = [line.strip() for line in done.stderr.splitlines()
                                if line.strip().startswith("failed op:")]
        return result
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(workload: str, trace: int, seeds: list[int], results: dict, better: dict) -> dict:
    """One ``runs`` entry: failures, attempts and per-metric statistics of both sides."""
    parent, change = results["parent"], results["change"]
    entry = {
        "workload": workload,
        "trace": trace,
        "seeds": seeds,
        "pairs": len(seeds),
        "failed": {side: sum(r["failed"] for r in results[side]) for side in results},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in results},
        "metrics": {},
    }
    for name, first in parent[0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        direction = better.get(name)
        sign = {"higher": 1.0, "lower": -1.0}.get(direction, 0.0)
        metric = {
            "unit": first["unit"],
            "better": direction,
            "parent": quartiles(p),
            "change": quartiles(c),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
        if trace:
            metric["parent_runs"], metric["change_runs"] = p, c
        entry["metrics"][name] = metric
    return entry


def claim_verdict(runs: list[dict], workload: str, metric: str) -> dict:
    entry = next(r for r in runs if r["workload"] == workload and r["trace"] == 0)
    m = entry["metrics"][metric]
    parent, change = m["parent"], m["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = (change["median"] - parent["median"]) * (1.0 if m["better"] == "higher" else -1.0)
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "ratio": change["median"] / parent["median"],
        "parent_iqr": iqr,
        "change_wins": m["change_wins"],
        "pairs": entry["pairs"],
        "met": m["change_wins"] >= math.ceil(0.9 * entry["pairs"]) and gain > iqr,
    }


def compare_outputs(parent: Path, change: Path, seeds: list[int]) -> str:
    cmd = [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), str(parent), str(change),
           "--seeds", *map(str, seeds), "--cycles", str(COMPARE_CYCLES)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    summary = next((line for line in done.stdout.splitlines() if "ops compared" in line),
                   f"compare_outputs.py exited {done.returncode}")
    return f"{summary}: warm-up plus {COMPARE_CYCLES} cycles of every workload, seeds {seeds}"


def host() -> str:
    versions = ", ".join(f"{pkg} {metadata.version(pkg)}" for pkg in ("numpy", "jsonschema"))
    return (f"nproc = {os.cpu_count()} {platform.system()} host, "
            f"Python {platform.python_version()}, {versions}")


def parse_run(text: str) -> tuple[str, int, list[int]]:
    workload, trace, pairs, seed = text.split(":")
    return workload, int(trace), list(range(int(seed), int(seed) + int(pairs)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout directory or git revision")
    parser.add_argument("--change", required=True, help="checkout directory or git revision")
    parser.add_argument("--pr", required=True, help="names the record BENCH_<pr>.json")
    parser.add_argument("--run", action="append", required=True, type=parse_run,
                        metavar="WORKLOAD:TRACE:PAIRS:SEED")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--note", default="", help="what the change does, for the record")
    parser.add_argument("--compare-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    record = {"change": args.note, "host": host()}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: extract(getattr(args, side), work / side) for side in ("parent", "change")}
        runs = []
        for workload, trace, seeds in args.run:
            results = {"parent": [], "change": []}
            try:
                for k, seed in enumerate(seeds):
                    for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                        result = run_once(trees[side], work, workload, seed, seconds, trace)
                        results[side].append(result)
                        if result["failed"]:
                            record.setdefault("failed_runs", []).append({
                                "side": side, "workload": workload, "seed": seed, "trace": trace,
                                "failed": result["failed"], "attempted": result["attempted"],
                                "failed_ops": result["failed_ops"],
                            })
                        ops = result["metrics"].get("ops_per_s", {}).get("value")
                        print(f"{workload} trace={trace} seed={seed} {side}: ops_per_s={ops} "
                              f"failed={result['failed']}/{result['attempted']}", flush=True)
            except RunFailed as failed:
                record["aborted"] = {
                    "side": side, "workload": workload, "seed": seed, "trace": trace,
                    "exit_code": failed.returncode,
                    "stderr_tail": failed.stderr.splitlines()[-20:],
                }
                print(f"{workload} trace={trace} seed={seed} {side}: {failed}", flush=True)
            done = min(map(len, results.values()))  # pairs with both sides run
            if done:
                results = {side: got[:done] for side, got in results.items()}
                runs.append(summarise(workload, trace, seeds[:done], results, better))
            if "aborted" in record:
                break
        else:  # every run passed
            if args.claim:
                record["claim"] = claim_verdict(runs, *args.claim.split(":"))
            if args.compare_seeds:
                record["outputs"] = compare_outputs(trees["parent"], trees["change"],
                                                    args.compare_seeds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["command"] = (f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                         "--trace T")
    record["method"] = METHOD
    record["runs"] = runs
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if "aborted" in record:
        print(f"wrote {out}; aborted at the first failed run")
        return 1
    print(f"wrote {out}" + (f"; claim met: {record['claim']['met']}" if args.claim else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
