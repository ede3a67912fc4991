"""Every analysis command succeeds on random valid games and writes strict JSON.

README promises that a valid config never makes ``solve``,
``dominance``, ``envelope``, ``ccr-curve`` or ``region-map`` fail, and
that reports never hold NaN or infinity.  The games are drawn up to 4 x 4,
with zero and full attack budgets, free and costly actions, and rewards
that put break-even points on round numbers.  ``simulate`` runs on any
such game and profile and reruns to the same bytes; ``cases`` answers on
ordered 2 x 2 games and refuses every other game with one error line.
Every JSON report parsed here must also match its schema in
``report_schemas``, which the program itself no longer checks.  A game
with one broken field always yields a violation: ``validate`` lists it
and ``solve`` refuses to run.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from clfgame import cli
from report_schemas import validate_report

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
                report = json.load(fh, parse_constant=_reject_constant)
            validate_report(command[0].replace("-", "_"), report)


def random_profile(rng, size: int) -> str:
    """A pure, a fully mixed, or a mixed profile with some zero entries."""
    probs = rng.dirichlet(np.ones(size))
    kind = rng.integers(3)
    if kind == 1:
        probs = np.eye(size)[rng.integers(size)]
    elif kind == 2:
        probs[rng.random(size) < 0.4] = 0.0
        probs = probs / probs.sum() if probs.sum() > 0 else np.eye(size)[0]
    return ",".join(repr(v) for v in probs.tolist())


def order_2x2(rng, config: dict) -> None:
    """Rewrite a 2 x 2 config so that acc_1 > acc_2 > rob_2 > rob_1."""
    rob_1, rob_2, acc_2, acc_1 = np.sort(rng.choice(np.arange(1, 20), 4, replace=False)) / 20
    config["models"][0]["acc"], config["models"][1]["acc"] = float(acc_1), float(acc_2)
    config["robustness"] = [[float(rob_1)], [float(rob_2)]]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    n=st.integers(1, 4),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from(["uniform", "zero", "full"]),
    rounded=st.booleans(),
    ordered=st.booleans(),
    trials=st.integers(1, 50),
)
def test_simulate_and_cases_write_strict_json(n, m, seed, budget, rounded, ordered, trials):
    if ordered:
        n = m = 2
    rng = np.random.default_rng(seed)
    config = random_config(rng, n, m, budget, rounded)
    if ordered:
        order_2x2(rng, config)
    acc = [model["acc"] for model in config["models"]]
    rob = config["robustness"]
    closed_form = n == m == 2 and acc[0] > acc[1] > rob[1][0] > rob[0][0]
    s_probs, r_probs = random_profile(rng, n), random_profile(rng, m)
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "game.json")
        with open(spec, "w") as fh:
            json.dump(config, fh)

        simulate = ["simulate", "--spec", spec, "--s-probs", s_probs, "--r-probs", r_probs,
                    "--trials", str(trials), "--seed", str(seed)]
        code, first, err = run(simulate)
        assert code == 0, err
        validate_report("simulate", json.loads(first, parse_constant=_reject_constant))
        assert run(simulate)[1] == first

        for profile in ([], ["--s-probs", s_probs, "--r-probs", r_probs]):
            code, out, err = run(["cases", "--spec", spec, *profile])
            if closed_form:
                assert code == 0, err
                validate_report("cases", json.loads(out, parse_constant=_reject_constant))
            else:
                assert (code, out) == (1, "")
                assert err.startswith("error: ") and err.count("\n") == 1, err


FAULTS = (
    "acc above 1",
    "negative model cost",
    "negative attack cost",
    "NaN model cost",
    "NaN attack cost",
    "robustness outside [0, 1]",
    "r_max above 1",
    "n = 0",
    "adversary's reward denominator zero",
    "defender's reward denominator zero",
    "duplicate name",
)


def break_field(rng, config: dict, fault: str) -> None:
    """Make exactly one field of a valid config violate a game invariant."""
    models, attacks, economics = config["models"], config["attacks"], config["economics"]
    model, attack = int(rng.integers(len(models))), int(rng.integers(len(attacks)))
    action = models[model] if "model" in fault else attacks[attack]
    if fault == "acc above 1":
        models[model]["acc"] = 1.0 + float(rng.uniform(1e-6, 1.0))
    elif fault.startswith("negative"):
        action["ongoing_cost"] = -float(rng.uniform(1e-6, 1.0))
    elif fault.startswith("NaN"):
        action["ongoing_cost"] = float("nan")
    elif fault == "robustness outside [0, 1]":
        outside = float(rng.uniform(1e-6, 1.0))
        config["robustness"][model][attack] = -outside if rng.integers(2) else 1.0 + outside
    elif fault == "r_max above 1":
        economics["r_max"] = 1.0 + float(rng.uniform(1e-6, 1.0))
    elif fault == "n = 0":
        economics["n"] = 0
    elif fault.endswith("reward denominator zero"):  # R_plus + R_minus of one side
        side = "adv" if fault.startswith("adversary") else "def"
        economics[f"R_plus_{side}"] = economics[f"R_minus_{side}"] = 0.0
    elif len(models) > 1:
        models[-1]["name"] = models[0]["name"]
    else:
        attacks[attack]["name"] = "no_attack"  # the name of the implicit no-attack action


@pytest.mark.parametrize("fault", FAULTS)
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    n=st.integers(1, 4),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from(["uniform", "zero", "full"]),
    rounded=st.booleans(),
)
def test_one_broken_field_is_always_a_violation(n, m, seed, budget, rounded, fault):
    rng = np.random.default_rng(seed)
    config = random_config(rng, n, m, budget, rounded)
    break_field(rng, config, fault)
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "game.json")
        with open(spec, "w") as fh:
            json.dump(config, fh)  # writes a NaN token, which the loader accepts

        code, out, err = run(["validate", "--spec", spec])
        assert code == 1, (fault, err)
        report = json.loads(out)
        validate_report("validate", report)
        assert report["ok"] is False and report["violations"], fault

        code, out, err = run(["solve", "--spec", spec])
        assert (code, out) == (1, ""), fault
        assert err.startswith("error: ") and err.count("\n") == 1, err
