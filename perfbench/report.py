"""Run every workload and print all benchmark metrics in two tables.

    python3 perfbench/report.py [--seed 1] [--seconds 15]

For each workload this runs ``run.py`` once untraced (end-to-end
metrics) and once traced (per-layer metrics and tracing overhead), each
in its own process, one after the other: about four minutes in all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()

    plain, traced = {}, {}
    for name in WORKLOADS:
        plain[name], notes = run(name, args.seed, args.seconds, 0)
        print("\n".join(notes), flush=True)
        traced[name], notes = run(name, args.seed, args.seconds, 1)
        print("\n".join(notes), flush=True)

    units = {}
    for res in plain.values():
        units.update({k: v["unit"] for k, v in res["metrics"].items()})
    print()
    header = ["workload", "failed/attempted"] + [f"{m} ({units.get(m, '')})" for m in END_TO_END]
    print(" | ".join(header))
    for name, res in plain.items():
        row = [name, f"{res['failed']}/{res['attempted']}"]
        row += [f"{res['metrics'][m]['value']:.4g}" for m in END_TO_END]
        print(" | ".join(row))
    print("samples: every op of a run counts toward ops_per_s and the percentiles "
          "(attempted column); setup_s is the median of 9 fresh set-ups")

    print()
    print(" | ".join(["per-layer metric", "unit"] + list(traced)))
    first = next(iter(traced.values()))["metrics"]
    for metric in first:
        row = [metric, first[metric]["unit"]]
        row += [f"{traced[name]['metrics'][metric]['value']:.4g}" for name in traced]
        print(" | ".join(row))
    print(" | ".join(["traced failed/attempted", ""]
                     + [f"{r['failed']}/{r['attempted']}" for r in traced.values()]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
