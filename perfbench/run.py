"""Run one benchmark workload against the clfgame checkout this file sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``ops_per_s``, ``op_p50_ms``,
``op_p90_ms``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` they are
the per-layer ones from a traced run.  See perfbench/README.md.

The loop is closed: one client, one operation at a time.  Operations run
in whole cycles (see workloads.py) until the program has been busy for
``--seconds`` and at least ``MIN_OPS`` operations have completed.  Each
output is checked after its operation, outside the operation's time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_SAMPLES = 9  # spread over the run, so one slow moment does not set setup_s
IMPORT_SAMPLES = 3
WALL_CAP_S = 120.0  # start no operation after this, so a run ends well within 180 s
COLD_CODE = "import sys; from clfgame.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Result:
    latency_s: float
    error: str | None
    out_bytes: int
    expected_failure: bool = False
    z: float | None = None
    maxrss_kb: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None and not self.expected_failure


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Spawns the program, runs operations on it and checks their outputs."""

    def __init__(self, workload, run_dir: Path):
        import checks

        self.checks = checks
        self.wl = workload
        self.run_dir = run_dir
        self.env = child_env()
        self.stderr = open(run_dir / "stderr.txt", "ab")
        self.worker: subprocess.Popen | None = None
        self.started = time.perf_counter()
        self.cold_spans: list[Path] = []

    # -- set-up --------------------------------------------------------------

    def _spawn_worker(self, setup_only: bool) -> tuple[subprocess.Popen, float]:
        warmup = self.wl.warmup()
        argv = warmup.argv + ["--out", str(self.run_dir / f"warmup.{warmup.fmt}")]
        cmd = [sys.executable, str(BENCH / "worker.py"), "serve", "--warmup", json.dumps(argv)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=self.stderr, env=self.env, cwd=self.run_dir, text=True)
        try:
            ready = json.loads(proc.stdout.readline() or "{}")
        except json.JSONDecodeError:
            ready = {}
        elapsed = time.perf_counter() - t0
        if not ready.get("ready") or ready.get("rc") != 0:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker failed its warm-up command: {ready}")
        return proc, elapsed

    def probe(self) -> float:
        """One set-up sample: a fresh interpreter imports clfgame.cli and runs the warm-up op."""
        proc, elapsed = self._spawn_worker(setup_only=True)
        proc.wait()
        return elapsed

    def start(self) -> float:
        """Start the serving worker (if the workload has one); return its set-up time."""
        if self.wl.cold:
            return self.probe()
        self.worker, elapsed = self._spawn_worker(setup_only=False)
        return elapsed

    def close(self) -> int:
        """Stop the worker; return its peak resident set in KB (0 without a worker)."""
        maxrss = 0
        if self.worker is not None:
            spans = self.run_dir / "spans-worker.jsonl"
            try:
                self._ask({"finish": True, "spans": str(spans)})
                maxrss = self._reply()["maxrss_kb"]
            finally:
                self.worker.stdin.close()
                self.worker.wait(timeout=30)
                self.worker = None
        self.stderr.close()
        return maxrss

    def kill(self) -> None:
        if self.worker is not None:
            self.worker.kill()
            self.worker.wait()
            self.worker = None

    # -- operations ----------------------------------------------------------

    def _ask(self, obj) -> None:
        self.worker.stdin.write(json.dumps(obj) + "\n")
        self.worker.stdin.flush()

    def _reply(self) -> dict:
        line = self.worker.stdout.readline()
        if not line:
            raise RuntimeError("worker exited unexpectedly")
        return json.loads(line)

    def _run_warm(self, op, index: int, trace: bool):
        out = self.run_dir / f"out.{op.fmt}"
        out.unlink(missing_ok=True)
        self._ask({"argv": op.argv + ["--out", str(out)], "trace": trace, "op": index})
        reply = self._reply()
        text = out.read_text() if out.exists() else ""
        return reply["latency_s"], reply["rc"], reply["error"], text, 0

    def _run_cold(self, op, index: int, trace: bool):
        if trace:
            spans = self.run_dir / f"spans-cold-{index}.jsonl"
            self.cold_spans.append(spans)
            argv = [sys.executable, str(BENCH / "worker.py"), "once", "--spans", str(spans), "--"]
        else:
            argv = [sys.executable, "-c", COLD_CODE]
        argv += op.argv
        read_fd, write_fd = os.pipe()
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, write_fd, 1),
            (os.POSIX_SPAWN_DUP2, self.stderr.fileno(), 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        latency = time.perf_counter() - t0
        return latency, os.waitstatus_to_exitcode(status), None, data.decode(), usage.ru_maxrss

    def run(self, op, index: int, trace: bool) -> Result:
        runner = self._run_cold if self.wl.cold else self._run_warm
        latency, rc, crash, text, maxrss = runner(op, index, trace)
        verdict = self.checks.check(op, rc, text)
        error = crash or verdict.error
        expected = error is not None and op.info.get("profile") == "fractional" and crash is None
        return Result(latency, error, len(text.encode()), expected, verdict.z, maxrss)

    def wall(self) -> float:
        return time.perf_counter() - self.started


def measure(runner: Runner, seconds: float, setup: list[float]):
    """Run whole cycles until the program was busy ``seconds`` and MIN_OPS ops completed.

    Set-up samples are appended to ``setup`` between cycles, in step with
    the run's progress, up to SETUP_SAMPLES in all.
    """
    results = []
    busy = 0.0
    cycle = 0
    while runner.wall() < WALL_CAP_S:
        for op in runner.wl.cycle(cycle):
            results.append(runner.run(op, len(results), trace=False))
            busy += results[-1].latency_s
            if runner.wall() >= WALL_CAP_S:
                break
        cycle += 1
        progress = min(1.0, busy / seconds, len(results) / MIN_OPS)
        while len(setup) < 1 + int((SETUP_SAMPLES - 1) * progress):
            setup.append(runner.probe())
        if progress >= 1.0:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.probe())
    return results, cycle


def measure_pairs(runner: Runner, seconds: float):
    """Run every op of whole cycles twice, untraced and traced, until ``seconds`` of untraced time.

    The two runs of an op follow each other, alternating which goes first,
    so a change in host speed during the run hits both sides alike.
    """
    plain, traced = [], []
    cycle = 0
    while runner.wall() < WALL_CAP_S:
        for op in runner.wl.cycle(cycle):
            k = len(plain)
            for trace in (k % 2 == 1, k % 2 == 0):
                (traced if trace else plain).append(runner.run(op, k, trace))
            if runner.wall() >= WALL_CAP_S:
                break
        cycle += 1
        if sum(r.latency_s for r in plain) >= seconds:
            break
    return plain, traced, cycle


def import_split(env: dict) -> dict:
    """Median import times, in ms, each measured in a fresh interpreter."""
    probes = {
        "import.numpy_ms": ("", "import numpy"),
        "import.jsonschema_ms": ("", "import jsonschema"),
        "import.clfgame_ms": ("import numpy, jsonschema", "import clfgame.cli"),
    }
    samples = {name: [] for name in probes}
    for _ in range(IMPORT_SAMPLES):
        for name, (before, stmt) in probes.items():
            code = f"{before}\nimport time\nt0 = time.perf_counter()\n{stmt}\nprint(time.perf_counter() - t0)"
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            samples[name].append(1e3 * float(out.stdout))
    return {name: (statistics.median(v), "ms") for name, v in samples.items()}


def latency_metrics(results: list[Result]) -> tuple[float, float, float]:
    lat = [r.latency_s for r in results]
    return len(lat) / sum(lat), 1e3 * statistics.median(lat), 1e3 * statistics.quantiles(lat, n=10)[8]


def summarize(name: str, seed: int, results: list[Result], runner: Runner, cycles: int) -> None:
    failed = [r for r in results if r.failed]
    known = [r for r in results if r.expected_failure]
    busy = sum(r.latency_s for r in results)
    print(f"{name} seed={seed}: {len(results)} ops in {cycles} cycles, {len(failed)} failed, "
          f"program busy {busy:.2f} s, wall {runner.wall():.2f} s")
    for r in failed[:5]:
        print(f"  failed op: {r.error}", file=sys.stderr)
    if known:
        zs = [r.z for r in known if r.z is not None]
        print(f"  known defect (ROADMAP item 5): {len(known)} fractional-budget simulate ops "
              f"outside the {runner.checks.SIM_BAND_SE:g}-SE band"
              + (f", largest distance {max(zs):.1f} SE" if zs else ""))


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list[Result], int]:
    setup = [runner.start()]
    results, cycles = measure(runner, seconds, setup)
    maxrss = max([runner.close()] + [r.maxrss_kb for r in results])
    ops_per_s, p50, p90 = latency_metrics(results)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"  samples: {len(results)} ops for ops_per_s and the latency percentiles "
          f"({sum(r.latency_s > p90 / 1e3 for r in results)} beyond p90), "
          f"{len(setup)} set-ups for setup_s")
    return metrics, results, cycles


def run_traced(runner: Runner, seconds: float, name: str, seed: int) -> tuple[dict, list[Result], int]:
    """Each op untraced and traced for half the time; per-layer metrics from the traced runs."""
    import tracing

    runner.start()
    plain, traced, cycles = measure_pairs(runner, seconds / 2.0)
    runner.close()

    span_files = runner.cold_spans if runner.wl.cold else [runner.run_dir / "spans-worker.jsonl"]
    span_sets, absent = [], set()
    # a cold op that crashed wrote no spans; it already counts as failed
    for path in filter(Path.exists, span_files):
        spans, missing = tracing.load_spans(path)
        span_sets.append(spans)
        absent.update(missing)
    keep = RUNS / f"{name}-seed{seed}.spans.jsonl"
    with open(keep, "w") as fh:
        for proc, spans in enumerate(span_sets):
            for span in spans:
                fh.write(json.dumps(dict(span, proc=proc)) + "\n")
    if absent:
        print(f"  absent (reported as 0): {', '.join(sorted(absent))}")

    out_bytes = statistics.mean(r.out_bytes for r in traced)
    metrics = tracing.layer_metrics(span_sets, len(traced), out_bytes)
    plain_rate = len(plain) / sum(r.latency_s for r in plain)
    traced_rate = len(traced) / sum(r.latency_s for r in traced)
    metrics["trace.ops_per_s_untraced"] = (plain_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    zs = [r.z for r in plain + traced if r.expected_failure and r.z is not None]
    metrics["simulate.fractional_budget_z"] = (max(zs, default=0.0), "SE")
    metrics.update(import_split(runner.env))
    print(f"  traced {len(traced)} ops, each also run untraced; spans in {keep.relative_to(ROOT)}")
    return metrics, plain + traced, cycles


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through the finally blocks that stop the worker and remove the run directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "clfgame" / "cli.py").is_file():
        print(f"error: no clfgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    runner = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, run_dir, SRC)
        runner = Runner(wl, run_dir)
        if args.trace:
            metrics, results, cycles = run_traced(runner, args.seconds, args.workload, args.seed)
        else:
            metrics, results, cycles = run_untraced(runner, args.seconds)
        summarize(args.workload, args.seed, results, runner, cycles)
    finally:
        if runner is not None:
            runner.kill()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
