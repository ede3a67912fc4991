"""Every analysis command succeeds on random valid games and writes strict JSON.

README promises that a valid config never makes ``solve``,
``dominance``, ``envelope``, ``ccr-curve`` or ``region-map`` fail, and
that reports never hold NaN or infinity.  The games are drawn up to 4 x 4,
with zero and full attack budgets, free and costly actions, and rewards
that put break-even points on round numbers.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from clfgame import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COMMANDS = [
    ("solve",),
    ("dominance",),
    ("envelope",),
    ("ccr-curve", "--grid", "5"),
    ("region-map", "--map", "adv", "--grid", "5"),
    ("region-map", "--map", "def", "--grid", "5"),
]


def random_config(rng, n: int, m: int, budget: str, rounded: bool) -> dict:
    def draw(low, high, size=None):
        values = rng.uniform(low, high, size)
        return np.round(values, 1) if rounded else values

    r_max = {"zero": 0.0, "full": 1.0, "uniform": float(rng.uniform(0.0, 1.0))}[budget]
    acc, model_costs = draw(0.0, 1.0, n), draw(0.0, 0.5, n)
    attack_costs, rob = draw(0.0, 0.5, m - 1), draw(0.0, 1.0, (n, m - 1))
    return {
        "models": [
            {"name": f"m{i}", "acc": float(acc[i]), "ongoing_cost": float(model_costs[i])}
            for i in range(n)
        ],
        "attacks": [
            {"name": f"a{j}", "ongoing_cost": float(attack_costs[j])} for j in range(m - 1)
        ],
        "robustness": rob.tolist(),
        "economics": {
            "R_plus_def": float(draw(0.1, 2.0)),
            "R_minus_def": float(draw(0.0, 2.0)),
            "R_plus_adv": float(draw(0.1, 2.0)),
            "R_minus_adv": float(draw(0.0, 2.0)),
            "I_def": float(draw(0.0, 100.0)),
            "I_adv": float(draw(0.0, 100.0)),
            "n": int(rng.integers(1, 10**6)),
            "r_max": r_max,
        },
    }


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    n=st.integers(1, 4),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from(["uniform", "zero", "full"]),
    rounded=st.booleans(),
)
def test_analysis_commands_write_strict_json(n, m, seed, budget, rounded):
    config = random_config(np.random.default_rng(seed), n, m, budget, rounded)
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "game.json")
        out = os.path.join(tmp, "report.json")
        with open(spec, "w") as fh:
            json.dump(config, fh)
        for command in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([command[0], "--spec", spec, "--out", out, *command[1:]])
            assert code == 0, (command, err.getvalue())
            with open(out) as fh:
                json.load(fh, parse_constant=_reject_constant)
