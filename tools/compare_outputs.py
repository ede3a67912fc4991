"""Compare the outputs of two clfgame checkouts on the perfbench operations.

    python3 tools/compare_outputs.py PARENT CHANGE --seeds 901 902 --cycles 2

PARENT and CHANGE are checkout roots (each with ``src/clfgame``).  For
every seed and every workload in ``perfbench/workloads.py`` the script
runs the workload's warm-up operation and its first ``--cycles`` cycles,
once against each checkout.  Each checkout runs in one child interpreter
with only its own ``src`` on the path, which calls ``clfgame.cli.main``
in-process for every operation, as the benchmark's warm workers do.
Both children see the same config files at the same paths.

Every operation whose exit code or output bytes differ is printed.  For
JSON reports the differing fields follow, each with its two values, the
absolute difference ``d`` and ``d / (1 + |parent value|)``; for CSV the
first differing line.  A closing summary lists, per field (list indices
folded into ``[*]``), how many reports differ there and the largest
scaled difference.  The exit status is 0 when every operation matches
and 1 otherwise.

``perfbench/workloads.py`` is imported as it is; nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_FIELDS_SHOWN = 12


def collect(checkout: Path, run_dir: Path, out_dir: Path, seeds: list[int], cycles: int) -> None:
    """Child side: run every operation against ``checkout`` and record the results."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    import clfgame.cli

    src = (checkout / "src").resolve()
    if not Path(clfgame.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"clfgame imported from {clfgame.cli.__file__}, not from {src}")
    manifest = []
    for seed in seeds:
        for name, cls in WORKLOADS.items():
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            wl = cls(seed, run_dir, src)
            ops = [wl.warmup()] + [op for k in range(cycles) for op in wl.cycle(k)]
            for index, op in enumerate(ops):
                key = f"{name}-{seed}-{index:03d}"
                out = out_dir / f"{key}.{op.fmt}"
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
                    try:
                        rc = clfgame.cli.main(op.argv + ["--out", str(out)])
                    except Exception as exc:  # a crash is a result to compare, not a tool error
                        rc, err = None, io.StringIO(f"crash: {type(exc).__name__}: {exc}")
                manifest.append(
                    {"key": key, "argv": op.argv, "fmt": op.fmt, "rc": rc, "stderr": err.getvalue()}
                )
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def run_checkout(checkout: Path, work: Path, side: str, seeds: list[int], cycles: int) -> list[dict]:
    out_dir = work / side
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(checkout),
           str(work / "run"), str(out_dir), "--seeds", *map(str, seeds), "--cycles", str(cycles)]
    subprocess.run(cmd, env=env, check=True)
    return json.loads((out_dir / "manifest.json").read_text())


def field_diffs(a, b, path: str = ""):
    """Yield (path, parent value, change value) for every leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from field_diffs(a[k], b[k], f"{path}.{k}" if path else k)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from field_diffs(x, y, f"{path}[{k}]")
    elif type(a) is not type(b) or a != b:
        yield path, a, b


def describe(path: str, a, b) -> tuple[str, float | None]:
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numeric:
        return f"    {path}: {a!r} -> {b!r}", None
    d = abs(b - a)
    scaled = d / (1.0 + abs(a))
    return f"    {path}: {a!r} -> {b!r}  d={d:.3g}  d/(1+|u|)={scaled:.3g}", scaled


def compare(parent: list[dict], change: list[dict], work: Path) -> int:
    differing = 0
    summary: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for p, c in zip(parent, change, strict=True):
        key = p["key"]
        a = work / "parent" / f"{key}.{p['fmt']}"
        b = work / "change" / f"{key}.{c['fmt']}"
        a_bytes = a.read_bytes() if a.exists() else None
        b_bytes = b.read_bytes() if b.exists() else None
        if p["rc"] == c["rc"] and a_bytes == b_bytes:
            continue
        differing += 1
        print(f"{key}  clfgame {' '.join(p['argv'])}")
        if p["rc"] != c["rc"]:
            print(f"  exit {p['rc']} -> {c['rc']}")
            for side, rec in (("parent", p), ("change", c)):
                if rec["stderr"]:
                    print(f"  {side} stderr: {rec['stderr'].strip()}")
        if a_bytes == b_bytes:
            continue
        if a_bytes is None or b_bytes is None:
            print(f"  output written by {'change' if a_bytes is None else 'parent'} only")
        elif p["fmt"] == "json":
            diffs = list(field_diffs(json.loads(a_bytes), json.loads(b_bytes)))
            print(f"  {len(diffs)} JSON field(s) differ")
            for k, (path, x, y) in enumerate(diffs):
                line, scaled = describe(path, x, y)
                if k < MAX_FIELDS_SHOWN:
                    print(line)
                entry = summary[re.sub(r"\[\d+\]", "[*]", path)]
                entry[0] += 1
                entry[1] = max(entry[1], scaled or 0.0)
        else:
            lines = zip(a_bytes.decode().splitlines(), b_bytes.decode().splitlines())
            for n, (x, y) in enumerate(lines, 1):
                if x != y:
                    print(f"  first differing line {n}: {x!r} -> {y!r}")
                    break
            else:
                print("  outputs differ in length")
    print(f"\n{len(parent)} ops compared, {differing} differ")
    for path, (count, scaled) in sorted(summary.items()):
        print(f"  {path}: {count} difference(s), max d/(1+|u|) = {scaled:.3g}")
    return int(differing > 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--collect", nargs=3, metavar=("CHECKOUT", "RUN_DIR", "OUT_DIR"),
                        help=argparse.SUPPRESS)
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--cycles", type=int, default=2)
    args = parser.parse_args()
    if args.collect:
        checkout, run_dir, out_dir = map(Path, args.collect)
        collect(checkout, run_dir, out_dir, args.seeds, args.cycles)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE checkouts are required")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        parent = run_checkout(args.parent.resolve(), work, "parent", args.seeds, args.cycles)
        change = run_checkout(args.change.resolve(), work, "change", args.seeds, args.cycles)
        return compare(parent, change, work)


if __name__ == "__main__":
    sys.exit(main())
