"""The process that runs clfgame commands for the benchmark.

``worker.py serve`` imports ``clfgame.cli``, runs one warm-up command and
then serves one command at a time over stdin/stdout (one JSON object per
line), calling ``clfgame.cli.main`` in-process and timing each call.
With ``--setup-only`` it exits after the warm-up, which is how set-up
time is sampled.

``worker.py once`` runs a single traced command in a fresh interpreter
and writes its spans to a file; the untraced cold path does not use this
script at all.

Both modes need ``src`` of the checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def call_main(main, argv: list[str]) -> tuple[int | None, str | None]:
    """Run ``main(argv)`` and return its exit code, or None and the error of a crash."""
    try:
        return main(argv), None
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1, None
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return None, f"{type(exc).__name__}: {exc}"


def serve(args) -> int:
    # protocol replies go to the original stdout; anything the program
    # prints to fd 1 lands on stderr instead
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    import clfgame.cli

    rc, error = call_main(clfgame.cli.main, json.loads(args.warmup))
    reply({"ready": True, "rc": rc, "error": error})
    if args.setup_only:
        return 0

    tracer = None
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("finish"):
            if tracer is not None:
                tracer.dump(req["spans"])
            reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            break
        if req["trace"] and tracer is None:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        if tracer is not None:
            tracer.op_id = req["op"] if req["trace"] else None
        t0 = time.perf_counter()
        rc, error = call_main(clfgame.cli.main, req["argv"])
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = None
        reply({"rc": rc, "error": error, "latency_s": latency})
    return 0


def once(args) -> int:
    import clfgame.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    rc, error = call_main(clfgame.cli.main, args.argv)
    tracer.op_id = None
    tracer.dump(args.spans)
    if error is not None:
        print(error, file=sys.stderr)
        return 70
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    subs = parser.add_subparsers(dest="mode", required=True)
    p = subs.add_parser("serve")
    p.add_argument("--warmup", required=True, help="JSON list: argv of the warm-up command")
    p.add_argument("--setup-only", action="store_true")
    p = subs.add_parser("once")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "once" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return serve(args) if args.mode == "serve" else once(args)


if __name__ == "__main__":
    sys.exit(main())
