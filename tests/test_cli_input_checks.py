"""Bad flags and unreadable configs exit 1 with one clear line and no report."""

import json

import pytest

from clfgame import cli
from clfgame.config import bundled_config_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_ccr_curve_rejects_grid_below_two(capsys, grid):
    spec = str(bundled_config_path("madry_wide"))
    code, out, err = run_cli(capsys, "ccr-curve", "--spec", spec, "--grid", grid)
    assert code == 1
    assert out == ""
    assert err == "error: grid must be at least 2\n"


def test_ccr_curve_accepts_grid_two(capsys):
    spec = str(bundled_config_path("madry_wide"))
    code, out, _ = run_cli(capsys, "ccr-curve", "--spec", spec, "--grid", "2")
    assert code == 0
    assert '"rho": [\n    0.0,\n    1.0\n  ]' in out


def test_simulate_rejects_negative_seed(capsys):
    spec = str(bundled_config_path("madry_wide"))
    argv = ("--s-probs", "0.5,0.5", "--r-probs", "0.5,0.5", "--trials", "2", "--seed", "-1")
    code, out, err = run_cli(capsys, "simulate", "--spec", spec, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: seed must be a non-negative integer\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["simulate", "--s-probs", "0.2,0.2,0.2,0.2,0.2", "--r-probs", "0.5,0.5", "--trials", "200000"],
    ],
)
def test_csv_is_refused_before_any_work(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("the command ran before refusing --format csv")

    monkeypatch.setattr(cli, "support_enumeration", never)
    monkeypatch.setattr(cli, "simulate", never)
    spec = str(bundled_config_path("shafahi_free"))
    code, out, err = run_cli(capsys, argv[0], "--spec", spec, *argv[1:], "--format", "csv")
    assert (code, out) == (1, "")
    assert err == "error: csv output is only available for the ccr-curve and region-map commands\n"


@pytest.mark.parametrize("text", ["[1, 2]", '{"models": [,]}'])
def test_validate_reads_the_config_like_solve(tmp_path, capsys, text):
    path = tmp_path / "game.json"
    path.write_text(text)
    validate, solve = (run_cli(capsys, command, "--spec", str(path)) for command in ("validate", "solve"))
    assert validate == solve
    code, out, err = solve
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "dominance"])
def test_utilities_that_overflow_are_refused(tmp_path, capfd, command):
    # valid on every field, but n * R_plus is far beyond the float range
    config = {
        "models": [{"name": f"m{i}", "acc": 0.9 - 0.1 * i} for i in range(3)],
        "attacks": [{"name": "fgsm"}, {"name": "pgd"}],
        "robustness": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
        "economics": {
            "R_plus_def": 100, "R_minus_def": 0, "R_plus_adv": 100, "R_minus_adv": 0,
            "I_def": 0, "I_adv": 0, "n": 10**308, "r_max": 0.5,
        },
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(config))
    assert cli.main(["validate", "--spec", str(path)]) == 0
    capfd.readouterr()
    code = cli.main([command, "--spec", str(path)])
    out, err = capfd.readouterr()  # file-descriptor level: LAPACK writes to fd 1 directly
    assert (code, out) == (1, "")
    assert err == "error: utilities overflow the float range; reduce n or the rewards\n"
