"""CLI surface: subcommands, exit codes, config plumbing, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from unsharp.cli import build_parser, parse_effect_spec, parse_model_spec, run
from unsharp.common import DEFAULT_SEED
from unsharp.effects import constant, gaussian, smear
from unsharp.setexpr import parse_set_expr
from unsharp.states import Mixture, Normal, Uniform


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecParsers:
    def test_effect_specs(self):
        f = parse_effect_spec("smear((0,1) | [2,3); gaussian(1/4))")
        assert f == smear(parse_set_expr("(0,1) | [2,3)"), gaussian("1/4"))
        assert parse_effect_spec("const(0.5)") == constant("1/2")
        assert parse_effect_spec("neg(const(1/4))") == constant("3/4")
        assert parse_effect_spec("scale(1/2; const(1))") == constant("1/2")
        g = parse_effect_spec("oplus(scale(1/2; const(1)); scale(1/4; const(1)))")
        assert float(g.value_at(0)) == pytest.approx(0.75)

    def test_model_specs(self):
        assert parse_model_spec("uniform(0, 1)") == Uniform(0, 1)
        assert parse_model_spec("gaussian(0, 1)") == Normal(0, 1)
        m = parse_model_spec("mix(1/2*uniform(0,1); 1/2*gaussian(0,1))")
        assert isinstance(m, Mixture) and len(m.parts) == 2

    def test_bad_specs_rejected(self):
        from unsharp.errors import UnsharpError

        for text in ("smear((0,1))", "wat(1)", "const"):
            with pytest.raises(UnsharpError):
                parse_effect_spec(text)
        for text in ("mix(uniform(0,1))", "bogus(1,2)", "uniform(1)"):
            with pytest.raises(UnsharpError):
                parse_model_spec(text)


class TestSetsCommand:
    def test_measure_line(self, capsys):
        code, out, _ = run_capture(["sets", "--expr", "(0,1)|[2,3)", "--measure"], capsys)
        assert code == 0 and out == "2\n"

    def test_canonical_default(self, capsys):
        code, out, _ = run_capture(["sets", "--expr", "(0,1)|(1,2)"], capsys)
        assert code == 0 and out == "(0, 1) | (1, 2)\n"

    def test_project_and_contains(self, capsys):
        code, out, _ = run_capture(
            ["sets", "--expr", "(0,1)|{5}", "--project", "--contains", "5"], capsys
        )
        assert code == 0 and out == "(0, 1)\ntrue\n"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_capture(["sets", "--expr", "(5,3)"], capsys)
        assert code == 1 and "error" in err

    def test_usage_error_exit_code(self, capsys):
        assert run([]) == 2
        assert run(["frobnicate"]) == 2

    def test_runs_share_no_parsed_state(self, capsys):
        assert build_parser() is build_parser()
        code, out, _ = run_capture(["sets", "--expr", "(0,1)|[2,3)", "--measure"], capsys)
        assert code == 0 and out == "2\n"
        code, out, _ = run_capture(["sets", "--expr", "(0,1)|[2,3)"], capsys)
        assert code == 0 and out == "(0, 1) | [2, 3)\n"


class TestStateCommand:
    def test_point_state_json(self, capsys):
        code, out, _ = run_capture(
            ["state", "--state", "point:0", "--effect", "smear((-1,1); box(1))"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1

    def test_density_state(self, capsys):
        code, out, _ = run_capture(
            ["state", "--state", "density:uniform(0,1)", "--effect", "const(1/4)", "--tol", "1e-10"],
            capsys,
        )
        assert json.loads(out)["value"] == pytest.approx(0.25)

    def test_escaping_state_constant(self, capsys):
        code, out, _ = run_capture(
            ["state", "--state", "escaping", "--effect", "const(2/5)"], capsys
        )
        assert json.loads(out)["value"] == "2/5"

    def test_sharp_state_from_base_file(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"lambda": "0", "depth": 64, "adjoin": ["(0, inf)"]}))
        code, out, _ = run_capture(
            [
                "state",
                "--state",
                f"sharp:{base}",
                "--effect",
                "smear((-1,1); gaussian(1/5))",
                "--tol",
                "1e-9",
            ],
            capsys,
        )
        assert code == 0
        value = json.loads(out)["value"]
        assert value == pytest.approx(1.0, abs=1e-6)


    @pytest.mark.parametrize(
        "state, effect",
        [
            ("density:mix(1*mix(1*uniform(0,1)))", "const(1)"),
            ("density:gaussian(0,1e400)", "smear((0,1);box(1))"),
            ("point:1e400", "smear((0,1);gaussian(1))"),
        ],
    )
    def test_bad_spec_values_are_errors(self, capsys, state, effect):
        code, _, err = run_capture(["state", "--state", state, "--effect", effect], capsys)
        assert code == 1 and err.startswith("error: ")


class TestSmearCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_capture(
            [
                "smear",
                "--set",
                "(0,inf)",
                "--density",
                "box",
                "--param",
                "1",
                "--from",
                "-1",
                "--to",
                "1",
                "--step",
                "1/2",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == ["q,value", "-1,0", "-1/2,0", "0,1/2", "1/2,1", "1,1"]


class TestConstructCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_capture(
            ["construct", "--lambda", "0", "--m", "3", "--depth", "16", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["members"][0]["components"][0] == {"n": 1, "lo": "5/8", "hi": "3/4"}
        assert all(all(cell in (True, None) for cell in row) for row in report["disjoint"])
        assert all(entry["ok"] for entry in report["fmp"])
        assert all(len(entry["witnesses"]) == 16 for entry in report["fmp"])


class TestSimulateCommand:
    def test_csv_deterministic(self, capsys):
        argv = ["simulate", "--density", "uniform(0,1)", "--level", "1", "--n", "500", "--seed", "3"]
        code1, out1, _ = run_capture(argv, capsys)
        code2, out2, _ = run_capture(argv, capsys)
        assert code1 == code2 == 0 and out1 == out2
        header = out1.splitlines()[0]
        assert header == "cell_lo,cell_hi,count,freq,p,deviation"

    def test_out_file_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "cells.csv"
        code, out, _ = run_capture(
            [
                "simulate",
                "--density",
                "gaussian(0,1)",
                "--level",
                "2",
                "--n",
                "2000",
                "--seed",
                "5",
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["seed"] == 5 and summary["n"] == 2000
        assert out_file.read_text().startswith("cell_lo,cell_hi")


class TestConfigAndSeed:
    def test_config_supplies_and_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("expr = (0,1)\n# comment line\nmeasure-unused = x\n")
        code, out, _ = run_capture(["sets", "--config", str(cfg)], capsys)
        assert code == 0 and out == "(0, 1)\n"
        code, out, _ = run_capture(["sets", "--config", str(cfg), "--expr", "(2,3)"], capsys)
        assert out == "(2, 3)\n"

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("UNSHARP_SEED", "99")
        code, out, _ = run_capture(
            ["simulate", "--density", "uniform(0,1)", "--level", "1", "--n", "100", "--format", "json"],
            capsys,
        )
        assert json.loads(out)["seed"] == 99
        monkeypatch.delenv("UNSHARP_SEED")
        code, out, _ = run_capture(
            ["simulate", "--density", "uniform(0,1)", "--level", "1", "--n", "100", "--format", "json"],
            capsys,
        )
        assert json.loads(out)["seed"] == DEFAULT_SEED

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_capture(["sets", "--config", str(cfg), "--expr", "R"], capsys)
        assert code == 1 and "key=value" in err


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_capture(
            ["verify", "--suite", "quotient-soundness", "--cases", "50"], capsys
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_unknown_suite(self, capsys):
        code, _, err = run_capture(["verify", "--suite", "nope"], capsys)
        assert code == 1 and "unknown" in err


# Recorded argv, exit code and stdout SHA-256 of CLI runs; read only.
GOLDEN_FILE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "cli.json"


def _golden_cases():
    cases = json.loads(GOLDEN_FILE.read_text())
    groups = {"density": [], "escaping": [], "simulate": cases["sample"]}
    for case in cases["numeric"]:
        kind = case["argv"][2].partition(":")[0]
        if kind in groups:
            groups[kind].append(case)
    return [
        pytest.param(case, id=f"{kind}-{i:02d}")
        for kind, group in groups.items()
        for i, case in enumerate(group)
    ]


class TestGoldenOutputs:
    """Same argv, same bytes: density and escaping states and simulations."""

    @pytest.mark.parametrize("case", _golden_cases())
    def test_stdout_digest(self, case, capsys):
        code, out, _ = run_capture(case["argv"], capsys)
        assert code == case["code"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
