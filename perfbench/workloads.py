"""Seeded inputs for the four benchmark workloads.

Every workload is an endless sequence of *cycles*.  A cycle is a fixed
list of operation slots (command, size, kind) in a fixed order; the seed
picks the numbers inside each slot (game entries, map overrides, strategy
profiles, which bundled config).  Because the slots and their order are
the same for every seed, a run that measures whole cycles always measures
the same mix of work, and only the data changes.  The order is fixed
because it matters: a small op right after one that built a 10 MB report
runs measurably slower, and a seeded order moved the median by a fifth.

An operation is a ``clfgame`` argv (without ``--out``) plus what the
checker needs to know about it.  Config files are written into the run
directory, so the program sees only files the benchmark generated.
"""

from __future__ import annotations

import json
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BUNDLED = ("madry_wide", "shafahi_free")


@dataclass
class Op:
    """One benchmark operation: a clfgame argv and what its checker needs."""

    argv: list[str]
    spec_path: Path
    fmt: str = "json"
    info: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


class Workload:
    """Base class: a seeded source of operation cycles."""

    name = ""
    # a fresh interpreter per operation instead of one long-lived worker
    cold = False

    def __init__(self, seed: int, run_dir: Path, src_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.bundled = {}
        for name in BUNDLED:
            path = run_dir / f"{name}.json"
            shutil.copyfile(src_dir / "clfgame" / "data" / f"{name}.json", path)
            self.bundled[name] = path

    def rng(self, cycle: int) -> np.random.Generator:
        """The generator of one cycle; cycle -1 is the warm-up operation."""
        return np.random.default_rng([self.seed % 2**32, zlib.crc32(self.name.encode()), cycle + 1])

    def warmup(self) -> Op:
        raise NotImplementedError

    def slots(self, rng: np.random.Generator, cycle: int) -> list[Op]:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Op]:
        ops = self.slots(self.rng(k), k)
        # the same interleaving of slot kinds for every seed and cycle
        order = np.random.default_rng(zlib.crc32(self.name.encode())).permutation(len(ops))
        return [ops[i] for i in order]


def _write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=1))
    return path


# ---------------------------------------------------------------------------
# solve_general


def synthetic_game(rng: np.random.Generator, n: int, kind: str) -> dict:
    """A config for an n x n game: n models against n - 1 real attacks plus no-attack.

    ``kind`` is ``generic``, ``zero_budget`` (r_max = 0, so the adversary
    is indifferent everywhere) or ``tied`` (attacks 0 and 1 share their
    robustness column and their cost).
    """
    acc = rng.uniform(0.80, 0.99, n)
    rob = rng.uniform(0.0, 1.0, (n, n - 1)) * acc[:, None] * 0.8
    attack_costs = rng.uniform(0.0, 0.5, n - 1)
    if kind == "tied":
        rob[:, 1] = rob[:, 0]
        attack_costs[1] = attack_costs[0]
    r_max = 0.0 if kind == "zero_budget" else float(rng.uniform(0.1, 1.0))
    return {
        "models": [
            {"name": f"m{i}", "acc": float(acc[i]), "ongoing_cost": float(rng.uniform(0.0, 0.05))}
            for i in range(n)
        ],
        "attacks": [
            {"name": f"a{j}", "ongoing_cost": float(attack_costs[j])} for j in range(n - 1)
        ],
        "robustness": [[float(v) for v in row] for row in rob],
        "economics": {
            "R_plus_def": 1.0,
            "R_minus_def": float(rng.uniform(0.0, 0.5)),
            "R_plus_adv": 1.0,
            "R_minus_adv": float(rng.uniform(0.0, 0.5)),
            "I_def": float(rng.uniform(0.0, 100.0)),
            "I_adv": float(rng.uniform(0.0, 100.0)),
            "n": 10000,
            "r_max": r_max,
        },
    }


class SolveGeneral(Workload):
    name = "solve_general"
    # (command, N, kind); 6 of the 25 games are degenerate.  The slots form
    # cost tiers so that the median and the 90th percentile each fall in the
    # middle of a group of like operations rather than on a step between two:
    # 15 small games hold the median, three zero-budget 6 x 6 solves (whose
    # cost does not depend on the drawn numbers) hold the 90th percentile,
    # and one 8 x 8 dominance report sits on top.  Left out: an 8 x 8 solve
    # (2-3 s) or a 7 x 7 solve (0.5-1.5 s, depending on the game) would
    # either take a large share of a cycle or land next to the percentile.
    SLOTS = (
        ("solve", 3, "generic"),
        ("solve", 3, "generic"),
        ("solve", 3, "zero_budget"),
        ("solve", 4, "generic"),
        ("solve", 4, "generic"),
        ("solve", 4, "generic"),
        ("dominance", 3, "generic"),
        ("dominance", 3, "generic"),
        ("dominance", 4, "generic"),
        ("dominance", 4, "generic"),
        ("dominance", 4, "zero_budget"),
        ("dominance", 5, "generic"),
        ("dominance", 5, "generic"),
        ("dominance", 5, "generic"),
        ("dominance", 5, "generic"),
        ("solve", 5, "generic"),
        ("solve", 6, "generic"),
        ("solve", 6, "generic"),
        ("dominance", 6, "generic"),
        ("dominance", 6, "tied"),
        ("dominance", 7, "generic"),
        ("solve", 6, "zero_budget"),
        ("solve", 6, "zero_budget"),
        ("solve", 6, "zero_budget"),
        ("dominance", 8, "generic"),
    )

    def _op(self, rng, command: str, n: int, kind: str, tag: str) -> Op:
        path = _write_json(self.run_dir / f"game-{tag}.json", synthetic_game(rng, n, kind))
        return Op([command, "--spec", str(path)], path, info={"n": n, "kind": kind})

    def warmup(self) -> Op:
        return self._op(self.rng(-1), "solve", 3, "generic", "warmup")

    def slots(self, rng, cycle):
        return [
            self._op(rng, command, n, kind, f"{cycle}-{k}")
            for k, (command, n, kind) in enumerate(self.SLOTS)
        ]


# ---------------------------------------------------------------------------
# plot_data


class PlotData(Workload):
    name = "plot_data"
    # Cost tiers, as in SolveGeneral.  The median falls among the larger of
    # 13 small curves, the 90th percentile among three 10001-point curves,
    # and one 301-grid map (about 10 MB of JSON) sits on top.  Curves have a
    # fixed config per slot (a five-model curve costs about twice a
    # two-model one), so their cost does not depend on the seed; the maps'
    # does, through the drawn overrides, and they sit away from both
    # percentiles.
    # (grid, format); each map slot draws its map kind, config and overrides.
    REGION_SLOTS = ((101, "json"),) * 3 + ((101, "csv"),) * 3 + ((301, "json"),)
    # (grid, format, config)
    CCR_SLOTS = (
        tuple(
            (int(round(101 * 12 ** (k / 12))), ("json", "csv")[k % 2], BUNDLED[k % 2])
            for k in range(13)
        )
        + ((3000, "json", "shafahi_free"), (6000, "csv", "madry_wide"))
        + ((10001, "json", "madry_wide"),) * 3
    )

    def _region(self, rng, grid: int, fmt: str) -> Op:
        config = BUNDLED[int(rng.integers(2))]
        argv = ["region-map", "--spec", str(self.bundled[config]), "--grid", str(grid),
                "--format", fmt]
        info = {"grid": grid, "config": config}
        # overrides use the --opt=value form: argparse would read a negative
        # number in exponent notation, such as -4e-05, as an option name
        if rng.random() < 0.5:
            info["map"] = "adv"
            argv += ["--map", "adv"]
            if rng.random() < 0.5:
                info["mu_adv"] = float(rng.uniform(0.0, 1.0))
                argv.append(f"--mu-adv={info['mu_adv']!r}")
        else:
            info["map"] = "def"
            argv += ["--map", "def"]
            # the default delta_mu_def is only defined for two-model configs
            if config != "madry_wide" or rng.random() < 0.5:
                info["delta_mu_def"] = float(rng.uniform(-0.2, 0.2))
                argv.append(f"--delta-mu-def={info['delta_mu_def']!r}")
            if rng.random() < 0.5:
                info["r_max"] = float(rng.uniform(0.05, 1.0))
                argv.append(f"--r-max={info['r_max']!r}")
        return Op(argv, self.bundled[config], fmt=fmt, info=info)

    def _ccr(self, grid: int, fmt: str, config: str) -> Op:
        argv = ["ccr-curve", "--spec", str(self.bundled[config]), "--grid", str(grid),
                "--format", fmt]
        return Op(argv, self.bundled[config], fmt=fmt, info={"grid": grid, "config": config})

    def warmup(self) -> Op:
        return self._ccr(101, "json", "madry_wide")

    def slots(self, rng, cycle):
        ops = [self._region(rng, grid, fmt) for grid, fmt in self.REGION_SLOTS]
        ops += [self._ccr(*slot) for slot in self.CCR_SLOTS]
        return ops


# ---------------------------------------------------------------------------
# montecarlo


def _probs(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class MonteCarlo(Workload):
    name = "montecarlo"
    # (config, profile, trials); n and r_max are the config's own (n = 10,000).
    # Four mixed 1000-trial runs hold the median and the two mixed
    # 5000-trial runs the 90th percentile.  A pure profile's cost depends on
    # whether the drawn action attacks, so pure runs sit away from both.
    SLOTS = (
        ("madry_wide", "pure", 1000),
        ("shafahi_free", "pure", 1000),
        ("madry_wide", "fractional", 1000),
        ("madry_wide", "mixed", 1000),
        ("madry_wide", "mixed", 1000),
        ("shafahi_free", "mixed", 1000),
        ("shafahi_free", "mixed", 1000),
        ("shafahi_free", "pure", 3000),
        ("madry_wide", "mixed", 5000),
        ("shafahi_free", "mixed", 5000),
    )
    N_MODELS = {"madry_wide": 2, "shafahi_free": 5}

    def _op(self, rng, config: str, profile: str, trials: int) -> Op:
        n_models = self.N_MODELS[config]
        info = {"config": config, "profile": profile}
        extra = []
        if profile == "pure":
            s = np.eye(n_models)[rng.integers(n_models)]
            r = np.eye(2)[rng.integers(2)]
        else:
            s = rng.dirichlet(np.ones(n_models))
            r = rng.dirichlet(np.ones(2))
        if profile == "fractional":
            # budget n * r_max = 2.5, 3.5, ...: the simulator controls only
            # floor(n * r_max) samples, so its mean sits off the analytic
            # utility (ROADMAP item 5).  Half the traffic or more is attacked
            # so the gap shows on both players.
            n = 10 + 4 * int(rng.integers(5))
            r_attack = float(rng.uniform(0.5, 0.9))
            r = np.array([r_attack, 1.0 - r_attack])
            extra = ["--n", str(n), "--r-max", "0.25"]
            info.update(n=n, r_max=0.25)
        argv = ["simulate", "--spec", str(self.bundled[config]), "--s-probs", _probs(s),
                "--r-probs", _probs(r), "--trials", str(trials),
                "--seed", str(int(rng.integers(2**31)))] + extra
        info.update(s=[float(v) for v in s], r=[float(v) for v in r], trials=trials)
        return Op(argv, self.bundled[config], info=info)

    def warmup(self) -> Op:
        return self._op(self.rng(-1), "madry_wide", "mixed", 100)

    def slots(self, rng, cycle):
        return [self._op(rng, *slot) for slot in self.SLOTS]


# ---------------------------------------------------------------------------
# cli_cold


class CliCold(Workload):
    name = "cli_cold"
    cold = True
    # solve, cases and ccr-curve take about a third longer than the other
    # three; running each of them twice puts the median inside that group
    # instead of on the step between the two groups
    COMMANDS = ("validate", "dominance", "envelope") + ("solve", "cases", "ccr-curve") * 2

    def _op(self, rng, command: str) -> Op:
        config = "madry_wide" if command == "cases" else BUNDLED[int(rng.integers(2))]
        argv = [command, "--spec", str(self.bundled[config])]
        info = {"config": config}
        if command == "cases":
            s = float(rng.uniform(0.0, 1.0))
            r = float(rng.uniform(0.0, 1.0))
            info.update(s=[s, 1.0 - s], r=[r, 1.0 - r])
            argv += ["--s-probs", _probs(info["s"]), "--r-probs", _probs(info["r"])]
        return Op(argv, self.bundled[config], info=info)

    def warmup(self) -> Op:
        return self._op(self.rng(-1), "validate")

    def slots(self, rng, cycle):
        return [self._op(rng, command) for command in self.COMMANDS]


WORKLOADS = {cls.name: cls for cls in (SolveGeneral, PlotData, MonteCarlo, CliCold)}
