import copy
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import hypothesis
import jsonschema
import pytest
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from clfgame import cli, config
from clfgame.analytic import build_region_map
from clfgame.config import (
    CONFIG_SCHEMA,
    ConfigError,
    SpecValidationError,
    bundled_config_path,
    load_spec,
    spec_from_dict,
)
from clfgame.core import ccr_table

from conftest import make_spec
from report_schemas import REPORT_SCHEMAS, validate_report


GOOD_CONFIG = {
    "models": [
        {"name": "standard", "acc": 0.952},
        {"name": "adv_trained", "acc": 0.873},
    ],
    "attacks": [{"name": "pgd"}],
    "robustness": [[0.035], [0.458]],
    "economics": {
        "R_plus_def": 1.0,
        "R_minus_def": 0.0,
        "R_plus_adv": 1.0,
        "R_minus_adv": 0.0,
        "I_def": 0.0,
        "I_adv": 0.0,
        "n": 1000,
        "r_max": 1.0,
    },
}


def write_config(tmp_path, payload, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigLoading:
    def test_spec_from_dict_round_trip(self):
        spec = spec_from_dict(GOOD_CONFIG)
        assert spec.n_models == 2
        assert spec.n_attacks == 2  # no-attack appended last
        assert spec.attacks[-1].no_attack
        assert spec.models[0].acc == 0.952
        assert spec.economics.n == 1000

    def test_bundled_configs_load(self):
        madry = load_spec(bundled_config_path("madry_wide"))
        assert madry.model_names() == ("standard", "adv_trained")
        assert float(madry.robustness[1, 0]) == 0.458
        zoo = load_spec(bundled_config_path("shafahi_free"))
        assert zoo.n_models == 5
        assert zoo.attacks[0].ongoing_cost == 0.6

    def test_schema_rejects_missing_field(self):
        bad = {k: v for k, v in GOOD_CONFIG.items() if k != "economics"}
        with pytest.raises(ConfigError, match="economics"):
            spec_from_dict(bad)

    def test_schema_rejects_unknown_field(self):
        bad = dict(GOOD_CONFIG, extra_knob=1)
        with pytest.raises(ConfigError):
            spec_from_dict(bad)

    def test_schema_points_at_bad_field(self):
        bad = json.loads(json.dumps(GOOD_CONFIG))
        bad["models"][0]["acc"] = "high"
        with pytest.raises(ConfigError, match="models"):
            spec_from_dict(bad)

    def test_robustness_shape_mismatch(self):
        bad = json.loads(json.dumps(GOOD_CONFIG))
        bad["robustness"] = [[0.1, 0.2], [0.3, 0.4]]
        with pytest.raises(ConfigError, match="robustness"):
            spec_from_dict(bad)

    def test_semantic_violations_are_collected(self, tmp_path):
        bad = json.loads(json.dumps(GOOD_CONFIG))
        bad["robustness"] = [[-0.1], [0.458]]
        bad["economics"]["r_max"] = 1.0
        path = write_config(tmp_path, bad)
        with pytest.raises(SpecValidationError) as err:
            load_spec(path)
        assert "robustness out of [0,1]" in str(err.value)
        assert not err.value.report.ok

    def test_broken_json_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"models": [,]}')
        with pytest.raises(ConfigError, match=r"broken\.json:1:"):
            load_spec(str(path))

    def test_missing_file_is_oserror(self):
        with pytest.raises(OSError):
            load_spec("/definitely/not/here.json")


class TestCliExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        code, out, _ = run_cli(capsys, "validate", "--spec", path)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["violations"] == []

    def test_validate_flags_bad_spec(self, tmp_path, capsys):
        bad = json.loads(json.dumps(GOOD_CONFIG))
        bad["models"][0]["acc"] = 1.7
        path = write_config(tmp_path, bad)
        code, out, _ = run_cli(capsys, "validate", "--spec", path)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert any("acc out of [0,1]" in v for v in report["violations"])

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--spec", "/no/such/file.json")
        assert code == 3
        assert "error:" in err

    def test_guard_exits_2(self, tmp_path, capsys):
        big = {
            "models": [{"name": f"m{i}", "acc": 0.9} for i in range(13)],
            "attacks": [{"name": "pgd"}],
            "robustness": [[0.1]] * 13,
            "economics": GOOD_CONFIG["economics"],
        }
        path = write_config(tmp_path, big)
        code, _, err = run_cli(capsys, "solve", "--spec", path)
        assert code == 2
        assert "error:" in err

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "region-map", "--spec", "x.json")
        assert code == 1  # --map is required
        assert "error:" in err

    def test_csv_unavailable_for_solve(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        code, _, err = run_cli(capsys, "solve", "--spec", path, "--format", "csv")
        assert code == 1
        assert "csv output" in err

    def test_non_2x2_cases_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "cases", "--spec", str(bundled_config_path("shafahi_free"))
        )
        assert code == 1


class TestSolveCommand:
    def test_closed_form_route(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        code, out, _ = run_cli(capsys, "solve", "--spec", path)
        assert code == 0
        report = json.loads(out)
        assert report["route"] == "closed_form"
        assert report["ordering_2x2"] is True
        assert report["thresholds"]["defend_threshold"] == pytest.approx(
            0.15737051792828677, abs=1e-12
        )
        assert report["cases"]["adversary_satisfiable"] == ["always_attack"]
        assert report["pure_equilibria"] == [
            {
                "model": 1,
                "attack": 0,
                "model_name": "adv_trained",
                "attack_name": "pgd",
            }
        ]
        assert report["mixed_equilibrium"] is None

    def test_mixed_equilibrium_reported(self, tmp_path, capsys):
        payload = json.loads(json.dumps(GOOD_CONFIG))
        payload["models"] = [
            {"name": "a", "acc": 0.95},
            {"name": "b", "acc": 0.85},
        ]
        payload["robustness"] = [[0.3], [0.7]]
        payload["economics"].update({"R_minus_adv": 1.0, "n": 1, "r_max": 0.45})
        path = write_config(tmp_path, payload)
        code, out, _ = run_cli(capsys, "solve", "--spec", path)
        assert code == 0
        report = json.loads(out)
        eq = report["mixed_equilibrium"]
        assert eq["s"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert eq["r"] == pytest.approx([4 / 9, 5 / 9], abs=1e-12)
        assert report["pure_equilibria"] == []

    def test_support_enumeration_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--spec", str(bundled_config_path("shafahi_free"))
        )
        assert code == 0
        report = json.loads(out)
        assert report["route"] == "support_enumeration"
        assert report["notice"]
        assert report["equilibria"]
        validate_report("solve", report)


class TestTableCommands:
    def test_ccr_curve_csv_equals_json(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        code, out_json, _ = run_cli(
            capsys, "ccr-curve", "--spec", path, "--grid", "11"
        )
        assert code == 0
        report = json.loads(out_json)
        code, out_csv, _ = run_cli(
            capsys, "ccr-curve", "--spec", path, "--grid", "11", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == ["rho", "standard", "adv_trained"]
        assert len(rows) == 12
        for k, row in enumerate(rows[1:]):
            assert float(row[0]) == report["rho"][k]
            assert float(row[1]) == report["ccr"]["standard"][k]
            assert float(row[2]) == report["ccr"]["adv_trained"][k]
        assert report["ccr"]["standard"][0] == 0.952
        assert report["ccr"]["standard"][-1] == 0.035
        assert report["intersections"][0]["rho"] == pytest.approx(
            0.15737051792828677, abs=1e-12
        )

    @pytest.mark.parametrize("grid", [2, 31, 32, 1001])
    def test_ccr_curve_csv_is_csv_writer_over_the_json_columns(self, tmp_path, capsys, grid):
        names = ["a,b", 'say "hi"', " leading space"]
        raw = copy.deepcopy(GOOD_CONFIG)
        raw["models"] = [
            {"name": name, "acc": acc} for name, acc in zip(names, [0.952, 0.873, 0.9])
        ]
        raw["robustness"] = [[0.035], [0.458], [0.2]]
        argv = ("ccr-curve", "--spec", write_config(tmp_path, raw), "--grid", str(grid))
        code, out_json, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out_json)
        code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rho", *names])
        writer.writerows(zip(report["rho"], *(report["ccr"][name] for name in names)))
        assert out_csv == buf.getvalue()
        assert out_csv.startswith('rho,"a,b","say ""hi""", leading space\n')

    def test_region_map_csv_equals_json(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        args = [
            "region-map",
            "--spec",
            path,
            "--map",
            "def",
            "--grid",
            "21",
            "--delta-mu-def",
            "0",
            "--r-max",
            "0.45",
        ]
        code, out_json, _ = run_cli(capsys, *args)
        assert code == 0
        report = json.loads(out_json)
        code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == ["x", "y", "case_label"]
        assert len(rows) == 1 + len(report["cells"])
        for row, cell in zip(rows[1:], report["cells"]):
            assert float(row[0]) == cell["x"]
            assert float(row[1]) == cell["y"]
            assert row[2] == cell["case_label"]

    def test_region_map_point_labels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "region-map",
            "--spec",
            str(bundled_config_path("madry_wide")),
            "--map",
            "adv",
            "--mu-adv",
            "0.2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["mu_adv"] == 0.2
        (point,) = report["points"]
        assert point["name"] == "standard_vs_adv_trained"
        assert point["x"] == 0.458 and point["y"] == 0.035
        assert point["case_label"] == "Case 2"

    def test_region_map_labels_cover_plane(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "region-map",
            "--spec",
            str(bundled_config_path("madry_wide")),
            "--map",
            "def",
            "--grid",
            "13",
            "--delta-mu-def",
            "0.02",
            "--r-max",
            "0.5",
        )
        report = json.loads(out)
        labels = {cell["case_label"] for cell in report["cells"]}
        assert "invalid" in labels
        assert "Case C (and A&B) possible" in labels


class TestEnvelopeCommand:
    def test_model_zoo_breakpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "envelope", "--spec", str(bundled_config_path("shafahi_free"))
        )
        assert code == 0
        report = json.loads(out)
        assert [seg["model_name"] for seg in report["segments"]] == [
            "standard",
            "free_m2",
            "free_m8",
        ]
        assert report["breakpoints"][0]["rho"] == pytest.approx(0.09498, abs=5e-6)
        assert report["breakpoints"][1]["rho"] == pytest.approx(0.29853, abs=5e-6)


class TestDominanceCommand:
    def test_model_zoo_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "dominance", "--spec", str(bundled_config_path("shafahi_free"))
        )
        assert code == 0
        report = json.loads(out)
        by_name = {row["name"]: row for row in report["defender"]}
        assert by_name["free_m10"]["status"] == "pure_dominated"
        assert by_name["free_m10"]["dominated_by_name"] == "free_m8"
        assert by_name["free_m4"]["status"] == "mixed_dominated"
        assert by_name["standard"]["status"] == "undominated"
        assert all(row["status"] == "undominated" for row in report["adversary"])


class TestCasesCommand:
    def test_profiles_are_classified(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        code, out, _ = run_cli(
            capsys,
            "cases",
            "--spec",
            path,
            "--s-probs",
            "0.5,0.5",
            "--r-probs",
            "1,0",
        )
        assert code == 0
        report = json.loads(out)
        assert report["adversary"]["case_at_s"] == "always_attack"
        assert report["adversary"]["best_response_at_s"] == {"kind": "pure", "index": 0}
        assert report["defender"]["case_at_r"] == "always_defend"
        assert report["defender"]["best_response_at_r"] == {"kind": "pure", "index": 1}

    def test_bad_probs_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        code, _, err = run_cli(
            capsys, "cases", "--spec", path, "--s-probs", "0.5,abc"
        )
        assert code == 1
        assert "error:" in err


class TestSimulateCommand:
    def test_deterministic_output_files(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out_path in (out_a, out_b):
            code, _, _ = run_cli(
                capsys,
                "simulate",
                "--spec",
                path,
                "--s-probs",
                "0.5,0.5",
                "--r-probs",
                "0.5,0.5",
                "--trials",
                "20",
                "--n",
                "500",
                "--seed",
                "11",
                "--out",
                str(out_path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["n"] == 500
        assert report["trials"] == 20
        assert len(report["per_trial"]["utility_def"]) == 20
        validate_report("simulate", report)

    def test_convergence_field(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--spec",
            path,
            "--s-probs",
            "0,1",
            "--r-probs",
            "1,0",
            "--trials",
            "60",
            "--n",
            "10000",
            "--seed",
            "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["analytic_utility_def"] == pytest.approx(4580.0, abs=1e-9)
        assert report["convergence_passed"] is True


class TestReportSchemas:
    def test_every_json_report_revalidates(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        invocations = {
            "validate": ["validate", "--spec", path],
            "solve": ["solve", "--spec", path],
            "cases": ["cases", "--spec", path, "--s-probs", "0.5,0.5"],
            "ccr_curve": ["ccr-curve", "--spec", path, "--grid", "5"],
            "region_map": ["region-map", "--spec", path, "--map", "adv", "--grid", "5"],
            "dominance": ["dominance", "--spec", path],
            "envelope": ["envelope", "--spec", path],
            "simulate": [
                "simulate",
                "--spec",
                path,
                "--s-probs",
                "1,0",
                "--r-probs",
                "0,1",
                "--trials",
                "3",
                "--n",
                "50",
            ],
        }
        for command, argv in invocations.items():
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (command, err)
            report = json.loads(out)
            assert report["command"] == command
            validate_report(command, report)


def declared_console_script(name):
    """The ``module:attr`` target that pyproject.toml declares for ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_is_installed(tmp_path):
    # Build the launcher an installer would write for the declared entry
    # point, and run it against the source tree this process imported, so
    # the check needs no install and never picks up a stale installed copy.
    module, _, attr = declared_console_script("clfgame").partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "clfgame"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )

    path = write_config(tmp_path, GOOD_CONFIG)
    proc = subprocess.run(
        ["clfgame", "validate", "--spec", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_config_files_are_read_as_utf8_under_any_locale(tmp_path):
    # RFC 8259 section 8.1: exchanged JSON is UTF-8, whatever the locale says
    path = tmp_path / "game.json"
    models = [{"name": "modèle", "acc": 0.952}, GOOD_CONFIG["models"][1]]
    config = {**GOOD_CONFIG, "models": models}
    path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
    env.update(LANG="C", LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    for command in ("validate", "solve"):
        proc = subprocess.run(
            [sys.executable, "-m", "clfgame.cli", command, "--spec", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2, allow_nan=False) + "\n"
    assert json.loads(proc.stdout)["models"][0] == "modèle"


@pytest.mark.skipif(
    shutil.which("clfgame") is None, reason="clfgame console script not installed"
)
def test_installed_console_script_on_path(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    proc = subprocess.run(
        ["clfgame", "validate", "--spec", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_make_spec_matches_bundled_madry():
    from conftest import madry_spec

    bundled = load_spec(bundled_config_path("madry_wide"))
    local = madry_spec(n=10000)
    assert [m.acc for m in bundled.models] == [m.acc for m in local.models]
    assert (bundled.robustness == local.robustness).all()
    assert bundled.economics.r_max == local.economics.r_max


def _config_3x3() -> dict:
    return {
        "models": [{"name": f"m{i}", "acc": 0.9 - 0.05 * i, "ongoing_cost": 0.01} for i in range(3)],
        "attacks": [{"name": "pgd", "ongoing_cost": 0.1}, {"name": "fgsm", "ongoing_cost": 0.05}],
        "robustness": [[0.1, 0.3], [0.4, 0.5], [0.6, 0.2]],
        "economics": dict(GOOD_CONFIG["economics"], R_minus_adv=0.3, r_max=0.5),
    }


def _set_field(config: dict, field: str, value: float) -> None:
    if field == "robustness":
        config["robustness"][1][0] = value
    elif field == "model_cost":
        config["models"][1]["ongoing_cost"] = value
    elif field == "attack_cost":
        config["attacks"][0]["ongoing_cost"] = value
    else:
        config["economics"][field] = value


NON_FINITE_FIELDS = (
    "robustness",
    "model_cost",
    "attack_cost",
    "R_plus_def",
    "R_minus_def",
    "R_plus_adv",
    "R_minus_adv",
    "I_def",
    "I_adv",
)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_non_finite_config_is_rejected_before_solving(tmp_path, capfd, field, value):
    config = _config_3x3()
    _set_field(config, field, value)
    path = write_config(tmp_path, config)  # json.dumps writes NaN / Infinity tokens

    assert cli.main(["validate", "--spec", path]) == 1
    report = json.loads(capfd.readouterr().out)
    assert report["ok"] is False
    assert any("must be finite" in v for v in report["violations"])

    for command in ("solve", "dominance"):
        code = cli.main([command, "--spec", path])
        # capfd reads file descriptor 1, where LAPACK would print its own errors
        out, err = capfd.readouterr()
        assert code == 1
        assert out == ""
        assert "must be finite" in err


# ---------------------------------------------------------------------------
# schema checks: the tests check every schema against its metaschema; the
# program never does


@pytest.mark.parametrize("name", ["config", *REPORT_SCHEMAS])
def test_schemas_pass_check_schema(name):
    schema = CONFIG_SCHEMA if name == "config" else REPORT_SCHEMAS[name]
    validator_for(schema).check_schema(schema)


# Counts every metaschema check in a fresh interpreter, from the import on.
_COUNT_SCHEMA_CHECKS = """
import contextlib, io, json, sys
import jsonschema

checked = []
for name in dir(jsonschema):
    cls = getattr(jsonschema, name)
    if name.endswith("Validator") and hasattr(cls, "check_schema"):
        def check_schema(schema, *args, original=cls.check_schema, **kwargs):
            checked.append(schema)
            return original(schema, *args, **kwargs)
        cls.check_schema = staticmethod(check_schema)

from clfgame import cli

codes = []
for _ in range(3):
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "checked": len(checked)}))
"""


def _run_fresh(script: str, commands: list[list[str]]):
    """Run ``script`` in a fresh interpreter with ``commands`` as its one argument."""
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_never_check_a_schema(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    commands = [
        ["validate", "--spec", path],
        ["solve", "--spec", path],
        ["region-map", "--spec", path, "--map", "adv", "--grid", "5"],
        ["simulate", "--spec", path, "--s-probs", "0.5,0.5", "--r-probs", "0.5,0.5", "--trials", "5"],
    ]
    assert _run_fresh(_COUNT_SCHEMA_CHECKS, commands) == {"codes": [0] * 12, "checked": 0}


# Runs each command in a fresh interpreter that cannot import jsonschema,
# noting its exit code and stderr.
_WITHOUT_JSONSCHEMA = """
import contextlib, io, json, sys
sys.modules["jsonschema"] = None  # makes every import of it raise ImportError
from clfgame import cli

seen = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        seen.append([cli.main(argv), err.getvalue()])
print(json.dumps(seen))
"""


def test_commands_run_and_word_config_errors_without_jsonschema(tmp_path):
    good = write_config(tmp_path, GOOD_CONFIG)
    commands = [[name, "--spec", good, *rest] for name, *rest in ALL_COMMANDS]
    expected = [[0, ""]] * len(ALL_COMMANDS)
    for case, raw in _malformed_configs().items():
        bad = write_config(tmp_path, raw, name=f"{case}.json")
        commands += [["validate", "--spec", bad], ["solve", "--spec", bad]]
        expected += [[1, f"error: {MALFORMED_CONFIG_ERRORS[case]}\n"]] * 2
    assert _run_fresh(_WITHOUT_JSONSCHEMA, commands) == expected


def _malformed_configs() -> dict[str, dict]:
    missing_key = copy.deepcopy(GOOD_CONFIG)
    del missing_key["economics"]["r_max"]
    wrong_type = copy.deepcopy(GOOD_CONFIG)
    wrong_type["models"][1]["acc"] = "0.873"
    extra_key = copy.deepcopy(GOOD_CONFIG)
    extra_key["attacks"][0]["budget"] = 0.5
    true_as_number = copy.deepcopy(GOOD_CONFIG)
    true_as_number["economics"]["r_max"] = True
    true_as_integer = copy.deepcopy(GOOD_CONFIG)
    true_as_integer["economics"]["n"] = True
    fractional_integer = copy.deepcopy(GOOD_CONFIG)
    fractional_integer["economics"]["n"] = 1.5
    nan_integer = copy.deepcopy(GOOD_CONFIG)
    nan_integer["economics"]["n"] = float("nan")
    true_in_robustness = copy.deepcopy(GOOD_CONFIG)
    true_in_robustness["robustness"][1][0] = True
    # the deeper fault is found first, but the shallower one is reported
    two_faults = copy.deepcopy(wrong_type)
    del two_faults["economics"]["r_max"]
    return {
        "missing key": missing_key,
        "missing section": {k: v for k, v in GOOD_CONFIG.items() if k != "robustness"},
        "wrong type": wrong_type,
        "extra key": extra_key,
        "true as number": true_as_number,
        "true as integer": true_as_integer,
        "not an array": dict(GOOD_CONFIG, models={"name": "standard", "acc": 0.9}),
        "two faults": two_faults,
        "fractional integer": fractional_integer,
        "nan as integer": nan_integer,
        "no models": dict(GOOD_CONFIG, models=[]),
        "true in robustness": true_in_robustness,
        "economics as list": dict(GOOD_CONFIG, economics=list(GOOD_CONFIG["economics"].values())),
    }


MALFORMED_CONFIG_ERRORS = {
    "missing key": "config field economics: 'r_max' is a required property",
    "missing section": "config field <root>: 'robustness' is a required property",
    "wrong type": "config field models/1/acc: '0.873' is not of type 'number'",
    "extra key": "config field attacks/0: Additional properties are not allowed ('budget' was unexpected)",
    "true as number": "config field economics/r_max: True is not of type 'number'",
    "true as integer": "config field economics/n: True is not of type 'integer'",
    "not an array": "config field models: {'name': 'standard', 'acc': 0.9} is not of type 'array'",
    "two faults": "config field economics: 'r_max' is a required property",
    "fractional integer": "config field economics/n: 1.5 is not of type 'integer'",
    "nan as integer": "config field economics/n: nan is not of type 'integer'",
    "no models": "config field models: [] should be non-empty",
    "true in robustness": "config field robustness/1/0: True is not of type 'number'",
    "economics as list": (
        "config field economics: [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1000, 1.0] is not of type 'object'"
    ),
}


@pytest.mark.parametrize("case", list(_malformed_configs()))
def test_schema_errors_match_jsonschema_validate(case):
    raw = _malformed_configs()[case]
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    where = "/".join(str(p) for p in reference.value.absolute_path) or "<root>"
    expected = f"config field {where}: {reference.value.message}"
    for _ in range(3):  # every call words its error afresh
        with pytest.raises(ConfigError) as info:
            spec_from_dict(raw)
        assert str(info.value) == expected == MALFORMED_CONFIG_ERRORS[case]


def test_equally_shallow_faults_report_the_first_found():
    # two faults three levels down: the one in ``models`` comes first in the file
    raw = copy.deepcopy(GOOD_CONFIG)
    raw["models"][0]["acc"] = "high"
    raw["robustness"][1][0] = True
    with pytest.raises(ConfigError) as info:
        spec_from_dict(raw)
    assert str(info.value) == "config field models/0/acc: 'high' is not of type 'number'"


def test_integral_float_n_loads(tmp_path):
    raw = copy.deepcopy(GOOD_CONFIG)
    raw["economics"]["n"] = 1e4  # the schema's integer type takes integral floats
    assert load_spec(write_config(tmp_path, raw)).economics.n == 1e4


@pytest.mark.parametrize("r_max", ["0.3", "1"])  # at 1 every one of the n inputs is attacked
def test_simulate_report_is_the_same_however_the_config_spells_n(tmp_path, capsys, r_max):
    written = []
    for n in (10000, 1e4):
        raw = copy.deepcopy(GOOD_CONFIG)
        raw["economics"]["n"] = n
        out_path = tmp_path / f"{n!r}.json"
        argv = ("--s-probs", "0.5,0.5", "--r-probs", "0.5,0.5", "--trials", "3",
                "--r-max", r_max, "--out", str(out_path))
        path = write_config(tmp_path, raw, name=f"{n!r}-config.json")
        assert run_cli(capsys, "simulate", "--spec", path, *argv) == (0, "", "")
        written.append(out_path.read_bytes())
    assert written[0] == written[1]
    assert b'\n  "n": 10000,\n' in written[0]


# the keywords ``config._faults`` implements
CONFORMS_KEYWORDS = {"type", "required", "additionalProperties", "properties", "items", "minItems"}


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_config_schema_uses_only_keywords_the_fast_check_reads():
    for node in _subschemas(CONFIG_SCHEMA):
        assert node.keys() <= CONFORMS_KEYWORDS, node.keys() - CONFORMS_KEYWORDS
        assert node["type"] in config._TYPES
        assert node.get("additionalProperties", False) is False
        assert node["type"] != "array" or isinstance(node["items"], dict)
        assert node.get("minItems", 1) == 1  # the only count the walk words


def _locations(value, path=()):
    """The path to every dict entry and list item inside ``value``."""
    if isinstance(value, list):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        for key, item in value.items():
            yield (*path, key)
            yield from _locations(item, (*path, key))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


SWAPS = (True, None, "x", 1e4, 1.5, float("nan"), float("inf"), [], {}, tuple)


@st.composite
def mutated_configs(draw):
    """GOOD_CONFIG with one to three keys deleted, keys added, values swapped or sections emptied."""
    raw = copy.deepcopy(GOOD_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "add", "swap", "empty"]))
        paths = list(_locations(raw))
        if kind == "empty":
            raw[draw(st.sampled_from(["models", "attacks"]))] = []
        elif kind == "add":
            targets = [()] + [p for p in paths if isinstance(_at(raw, p), dict)]
            _at(raw, draw(st.sampled_from(targets)))["unknown"] = 0.5
        elif paths:
            path = draw(st.sampled_from(paths))
            parent = _at(raw, path[:-1])
            if kind == "delete":
                del parent[path[-1]]
            else:
                new = draw(st.sampled_from(SWAPS))
                if new is tuple:
                    old = parent[path[-1]]
                    new = tuple(old) if isinstance(old, list) else (old,)
                parent[path[-1]] = copy.deepcopy(new)
    return raw


_REFERENCE_VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(raw=mutated_configs())
def test_fast_check_agrees_with_jsonschema(raw):
    errors = list(_REFERENCE_VALIDATOR.iter_errors(raw))
    assert any(config._faults(raw, CONFIG_SCHEMA)) == bool(errors)
    if errors:
        # the reported fault is one of jsonschema's shallowest, worded as it words it
        depth = min(len(e.absolute_path) for e in errors)
        shallowest = {
            f"config field {'/'.join(map(str, e.absolute_path)) or '<root>'}: {e.message}"
            for e in errors
            if len(e.absolute_path) == depth
        }
        with pytest.raises(ConfigError) as info:
            spec_from_dict(raw)
        assert str(info.value) in shallowest


# ---------------------------------------------------------------------------
# simulate runs the trials once per command

SIMULATE_ARGV = (
    "--s-probs", "0.3,0.7", "--r-probs", "0.6,0.4", "--trials", "25", "--n", "400", "--seed", "8",
)


def test_simulate_command_runs_the_simulation_once(tmp_path, capsys, monkeypatch):
    sim_module = sys.modules["clfgame.simulate"]
    original = sim_module.simulate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sim_module, "simulate", counting)
    monkeypatch.setattr(cli, "simulate", counting)
    path = write_config(tmp_path, GOOD_CONFIG)
    code, out, _ = run_cli(capsys, "simulate", "--spec", path, *SIMULATE_ARGV)
    assert code == 0
    assert json.loads(out)["trials"] == 25
    assert len(calls) == 1


def test_simulate_report_equals_the_one_from_a_second_run(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, GOOD_CONFIG)
    code, reused, _ = run_cli(capsys, "simulate", "--spec", path, *SIMULATE_ARGV)
    assert code == 0
    original = cli.convergence_check
    monkeypatch.setattr(
        cli, "convergence_check", lambda spec, s, r, cfg, sim=None: original(spec, s, r, cfg)
    )
    code, rerun, _ = run_cli(capsys, "simulate", "--spec", path, *SIMULATE_ARGV)
    assert code == 0
    assert reused == rerun


# ---------------------------------------------------------------------------
# input the game cannot represent


def test_n_beyond_float_range_is_rejected(tmp_path, capsys):
    huge = copy.deepcopy(GOOD_CONFIG)
    huge["economics"]["n"] = 10**400
    path = write_config(tmp_path, huge)

    code, out, _ = run_cli(capsys, "validate", "--spec", path)
    assert code == 1
    assert json.loads(out)["violations"] == ["economics: n must be finite"]

    code, out, err = run_cli(capsys, "solve", "--spec", path)
    assert code == 1
    assert out == ""
    assert "economics: n must be finite" in err


@pytest.mark.parametrize("sign", [1, -1])
def test_robustness_beyond_float_range_is_rejected(tmp_path, capsys, sign):
    huge = copy.deepcopy(GOOD_CONFIG)
    huge["robustness"][1][0] = sign * 10**400
    path = write_config(tmp_path, huge)

    code, out, _ = run_cli(capsys, "validate", "--spec", path)
    assert code == 1
    assert json.loads(out)["violations"] == ["robustness must be finite"]

    assert run_cli(capsys, "solve", "--spec", path) == (1, "", "error: robustness must be finite\n")


def test_config_that_is_not_utf8_is_named_in_the_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    for command in ("validate", "solve"):
        code, out, err = run_cli(capsys, command, "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "overrides, violation",
    [
        (
            {"models": [{"name": "standard", "acc": 0.952}, {"name": "standard", "acc": 0.873}]},
            "model name 'standard' is not unique",
        ),
        (
            {"attacks": [{"name": "pgd"}, {"name": "pgd"}], "robustness": [[0.035, 0.035], [0.458, 0.458]]},
            "attack name 'pgd' is not unique",
        ),
        ({"attacks": [{"name": "no_attack"}]}, "attack name 'no_attack' is not unique"),
    ],
)
def test_duplicate_names_are_rejected(tmp_path, capsys, overrides, violation):
    path = write_config(tmp_path, dict(GOOD_CONFIG, **overrides))

    code, out, _ = run_cli(capsys, "validate", "--spec", path)
    assert code == 1
    assert json.loads(out)["violations"] == [violation]

    code, out, err = run_cli(capsys, "solve", "--spec", path)
    assert code == 1
    assert out == ""
    assert violation in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--s-probs", "nan,1", "--r-probs", "0.5,0.5"),
        ("simulate", "--s-probs", "0.5,0.5", "--r-probs", "0.5,nan,0.5"),
        ("cases", "--s-probs", "nan,1"),
    ],
)
def test_non_finite_strategy_flags_are_rejected(tmp_path, capsys, argv):
    path = write_config(tmp_path, GOOD_CONFIG)
    code, out, err = run_cli(capsys, argv[0], "--spec", path, *argv[1:])
    assert code == 1
    assert out == ""
    assert "strategy entries must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--eps", "nan"),
        ("solve", "--eps", "inf"),
        ("dominance", "--eps", "Infinity"),
        ("ccr-curve", "--eps", "1e400"),
        ("solve", "--eps", "abc"),
        ("region-map", "--map", "adv", "--mu-adv", "nan"),
        ("region-map", "--map", "def", "--delta-mu-def", "nan"),
        ("region-map", "--map", "def", "--r-max", "inf"),
        ("simulate", "--s-probs", "0,1", "--r-probs", "1,0", "--r-max", "nan"),
    ],
)
def test_non_finite_float_flags_are_rejected(tmp_path, capsys, argv):
    path = write_config(tmp_path, GOOD_CONFIG)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, argv[0], "--spec", path, "--out", str(out_path), *argv[1:])
    assert code == 1
    assert out == ""
    assert f"argument {argv[-2]}: must be a finite number, got {argv[-1]!r}" in err
    assert not out_path.exists()


ALL_COMMANDS = [
    ("validate",),
    ("solve",),
    ("cases",),
    ("ccr-curve",),
    ("region-map", "--map", "adv"),
    ("dominance",),
    ("envelope",),
    ("simulate", "--s-probs", "0,1", "--r-probs", "1,0"),
]


@pytest.mark.parametrize("eps", ["-1e-12", "-1"])
@pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: c[0])
def test_negative_eps_is_rejected(tmp_path, capsys, command, eps):
    path = write_config(tmp_path, GOOD_CONFIG)
    out_path = tmp_path / "report.json"
    argv = (*command, "--spec", path, "--out", str(out_path), f"--eps={eps}")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --eps: must be at least 0, got {eps!r}\n"
    assert not out_path.exists()


def test_reports_with_non_finite_numbers_are_not_written(tmp_path, capsys, monkeypatch):
    # with the flag check out of the way a NaN reaches the report, which
    # strict JSON cannot hold.  The parser binds the other float flags' type
    # when it is first built, so build it before the patch: a parser built
    # under it would skip their finite check in every later test
    cli.build_parser()
    monkeypatch.setattr(cli, "_finite_float", float)

    # NaNs in the float columns the plot commands write by column: one CCR
    # value, and one distinct y of a region map, which a column of its cells
    # points at
    def ccr_table_with_nan(spec, rho):
        table = ccr_table(spec, rho)
        table[len(rho) // 2, 0, 0] = float("nan")
        return table

    def region_map_with_nan(*args, **kwargs):
        rm = build_region_map(*args, **kwargs)
        ys = rm.ys.copy()
        ys[len(ys) // 2] = float("nan")
        return dataclasses.replace(rm, ys=ys)

    monkeypatch.setattr(cli, "ccr_table", ccr_table_with_nan)
    monkeypatch.setattr(cli, "build_region_map", region_map_with_nan)
    path = write_config(tmp_path, GOOD_CONFIG)
    out_path = tmp_path / "report.json"
    commands = [
        ("solve", "--eps", "nan"),
        ("ccr-curve", "--grid", "41"),
        ("region-map", "--map", "adv", "--grid", "11"),
    ]
    for command in commands:
        for extra in ((), ("--out", str(out_path))):
            code, out, err = run_cli(capsys, command[0], "--spec", path, *command[1:], *extra)
            assert code == 1
            assert out == ""
            assert "not JSON compliant" in err
            assert not out_path.exists()


@pytest.mark.parametrize(
    ("n", "code"),
    [("100000000000000000000", 1), (str(2**63), 1), (str(2**63 - 1), 0), (str(2**54 - 1), 0)],
)
def test_simulate_budgets_near_numpys_largest_count(tmp_path, capsys, n, code):
    # the pure profile puts the whole budget n * r_max under attack, and
    # above 2**53 that float product rounds past n
    path = write_config(tmp_path, GOOD_CONFIG)
    argv = ("--s-probs", "1,0", "--r-probs", "1,0", "--trials", "2", "--r-max", "1", "--n", n)
    got, out, err = run_cli(capsys, "simulate", "--spec", path, *argv)
    assert got == code
    if code:
        assert out == ""
        assert err == "error: n must be at most 2**63 - 1\n"
    else:
        assert json.loads(out, parse_constant=pytest.fail)["n"] == int(n)
        assert err == ""


def test_simulate_rejects_n_beyond_float_range(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    argv = ("--s-probs", "0,1", "--r-probs", "1,0", "--trials", "2", "--n", "1" + "0" * 400)
    code, out, err = run_cli(capsys, "simulate", "--spec", path, *argv)
    assert code == 1
    assert out == ""
    assert "n must be finite" in err
    assert "Traceback" not in err


ATTACK_COMMANDS = [
    ("ccr-curve",),
    ("envelope",),
    ("region-map", "--map", "adv", "--mu-adv=0.3"),
    ("region-map", "--map", "def", "--delta-mu-def=0"),
]


@pytest.mark.parametrize("command", ATTACK_COMMANDS)
@pytest.mark.parametrize("attack", ["-1", "1", "7"])  # 1 is shafahi_free's no-attack index
def test_attack_index_must_name_a_real_attack(capsys, command, attack):
    spec = str(bundled_config_path("shafahi_free"))
    code, out, err = run_cli(capsys, command[0], "--spec", spec, *command[1:], "--attack", attack)
    assert code == 1
    assert out == ""
    assert err == f"error: attack index {attack} out of range: the real attacks are 0..0\n"


@pytest.mark.parametrize("r_max", ["5", "-0.5", "1.0000001"])
def test_region_map_rejects_r_max_outside_unit_interval(tmp_path, capsys, r_max):
    path = write_config(tmp_path, GOOD_CONFIG)
    code, out, err = run_cli(
        capsys, "region-map", "--spec", path, "--map", "def", f"--r-max={r_max}"
    )
    assert code == 1
    assert out == ""
    assert err == "error: r_max out of [0,1]\n"
