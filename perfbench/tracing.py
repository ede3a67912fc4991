"""Spans around the package's layer boundaries, recorded from outside the package.

The tracer replaces module attributes that the commands call (for
example ``clfgame.cli.support_enumeration`` or ``clfgame.cli._emit``)
with wrappers that record a span: layer name, start, end, parent span and
operation id, plus a few counts taken from the call's arguments and
result.  Spans stay in memory until the process writes them out at the
end.  Wrapping happens only in a traced run; an attribute that no longer
exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

ANALYTIC = (
    "adversary_case",
    "adversary_preconditions",
    "best_response_adv",
    "best_response_def",
    "ccr_intersection",
    "defend_threshold",
    "defender_case",
    "defender_preconditions",
    "mixed_nash_2x2",
)


def _support_counts(args, kwargs, result) -> dict:
    m = args[0] if args else kwargs["m"]
    n, k = m.n_rows, m.n_cols
    return {
        "support_pairs": (2**n - 1) * (2**k - 1),
        "equal_size_pairs": sum(math.comb(n, s) * math.comb(k, s) for s in range(1, min(n, k) + 1)),
        "equilibria_found": len(result),
        "degenerate_ops": int(any(eq.degenerate for eq in result)),
    }


def _trial_counts(args, kwargs, result) -> dict:
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"trials": cfg.trials}


# (module, attribute, layer name, counter)
TARGETS = (
    [
        ("clfgame.cli", "load_spec", "config.load_spec", None),
        ("clfgame.cli", "spec_from_dict", "config.load_spec", None),
        ("clfgame.cli", "validate_spec", "core.validate_spec", None),
        ("clfgame.config", "validate_spec", "core.validate_spec", None),
        ("clfgame.cli", "payoff_matrices", "payoff.payoff_matrices", None),
        ("clfgame.simulate", "utility_adv", "payoff.utility", None),
        ("clfgame.simulate", "utility_def", "payoff.utility", None),
    ]
    + [("clfgame.cli", name, "analytic", None) for name in ANALYTIC]
    + [
        ("clfgame.cli", "support_enumeration", "solver.support_enumeration", _support_counts),
        ("clfgame.cli", "dominance_report", "solver.dominance_report", None),
        ("clfgame.cli", "pure_equilibria", "solver.pure_equilibria", None),
        ("clfgame.cli", "upper_envelope_ccr", "solver.upper_envelope_ccr", None),
        ("clfgame.cli", "build_region_map", "cli.build_region_map", None),
        ("clfgame.cli", "validate_report", "cli.validate_report", None),
        ("clfgame.cli", "_emit", "cli.emit", None),
        ("clfgame.cli", "simulate", "simulate.simulate", _trial_counts),
        ("clfgame.simulate", "simulate", "simulate.simulate", _trial_counts),
        ("clfgame.cli", "convergence_check", "simulate.convergence_check", None),
    ]
)

# layers reported as calls per op and self time per op
TIMED_LAYERS = (
    "solver.support_enumeration",
    "solver.dominance_report",
    "solver.pure_equilibria",
    "solver.upper_envelope_ccr",
    "payoff.payoff_matrices",
    "payoff.utility",
    "analytic",
    "cli.build_region_map",
    "cli.validate_report",
    "cli.emit",
    "cli.handler",
    "simulate.simulate",
    "simulate.convergence_check",
    "config.load_spec",
    "core.validate_spec",
)


class Tracer:
    """Records spans of wrapped calls made while an operation is active."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target attribute, and every ``cmd_*`` handler of the CLI."""
        cli = importlib.import_module("clfgame.cli")
        handlers = [(cli, name, "cli.handler", None) for name in sorted(vars(cli)) if name.startswith("cmd_")]
        if not handlers:
            self.absent.append("clfgame.cli.cmd_*")
        targets = [(importlib.import_module(mod), attr, layer, counter) for mod, attr, layer, counter in TARGETS]
        for module, attr, layer, counter in targets + handlers:
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer, counter))

    def _wrap(self, fn, layer: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = {
                "name": layer,
                "op": tracer.op_id,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent}, fh)
            fh.write("\n")
            for span in self.spans:
                json.dump(span, fh)
                fh.write("\n")


def load_spans(path: Path) -> tuple[list[dict], list[str]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        return [json.loads(line) for line in fh], header["absent"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(span_sets: list[list[dict]], n_ops: int, output_bytes: float) -> dict:
    """Per-layer metrics, each as ``(value, unit)``, from the spans of ``n_ops`` operations.

    ``span_sets`` holds one list per process, since parent indices are
    local to the process that recorded them.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(float)
    for spans in span_sets:
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += span["end"] - span["start"]
            for key, value in span.get("counts", {}).items():
                counts[key] += value
    ops = max(n_ops, 1)
    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / ops, "calls/op")
        out[f"{layer}.self_ms"] = (1e3 * self_s[layer] / ops, "ms/op")
    for key in ("support_pairs", "equal_size_pairs", "equilibria_found"):
        out[f"solver.{key}"] = (counts[key] / ops, "count/op")
    pairs = counts["support_pairs"]
    out["solver.useful_ratio"] = (counts["equilibria_found"] / pairs if pairs else 0.0, "ratio")
    out["solver.degenerate_ops"] = (counts["degenerate_ops"] / ops, "share")
    sim_s = total_s["simulate.simulate"]
    out["simulate.trials_per_s"] = (counts["trials"] / sim_s if sim_s else 0.0, "1/s")
    out["cli.output_bytes"] = (output_bytes, "B/op")
    return out
