"""Tests for the experiment driver: configs, reports, CSV, exit codes."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sampdisc
from sampdisc.cli import FIELDS, SAMPLE_FIELDS, SPACE_FIELDS, ExperimentConfig, main, run_experiment
from sampdisc.errors import ConfigError


def run_cli(tmp_path, config, extra_args=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main(["--config", str(cfg), "--out", str(out), *extra_args]), out


TRIG5 = {"kind": "trig", "dimension": 1, "spectrum": [[-2], [-1], [0], [1], [2]]}
TRIG3 = {"kind": "trig", "dimension": 1, "spectrum": [[-1], [0], [1]]}


def test_certify_kind_exact_case():
    report = run_experiment(ExperimentConfig({
        "kind": "certify", "space": TRIG5,
        "sample": {"mode": "equispaced", "m": 5}, "p": 2,
    }))
    assert report.summary["c1_pow"] == pytest.approx(1.0, abs=1e-10)
    assert report.summary["c2_pow"] == pytest.approx(1.0, abs=1e-10)
    assert report.summary["status"] == "certified"


def test_nikolskii_kind():
    report = run_experiment(ExperimentConfig({
        "kind": "nikolskii", "space": TRIG5, "q": 2,
    }))
    assert report.summary["M"] == pytest.approx(math.sqrt(5), abs=1e-10)


def test_generate_kind_serializes_points():
    report = run_experiment(ExperimentConfig({
        "kind": "generate", "space": TRIG5,
        "sample": {"mode": "iid", "m": 4}, "seed": 9,
    }))
    pts = report.records[0]["points"]
    assert len(pts) == 4
    assert all(0 <= x[0] < 2 * math.pi for x in pts)


RECOVER = {
    "kind": "recover",
    "space": TRIG3,
    "sample": {"mode": "equispaced", "m": 9},
    "target": {"spectrum": [[2], [-2]], "coefficients": [[0.5, 0], [0.5, 0]]},
    "p": 2,
}


def test_recover_kind_anchor():
    report = run_experiment(ExperimentConfig(RECOVER))
    assert report.summary["lhs"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert report.summary["holds"]
    assert report.summary["advisory"] is False


def test_recover_record_holds_the_solver_report(tmp_path):
    # the step count and stop reason reach report.json; the summary keeps its four keys
    for p, last in ((4, "stop"), ("inf", "lower_bound")):
        code, out = run_cli(tmp_path / str(p), dict(RECOVER, p=p))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        optimizer = report["records"][0]["optimizer"]
        assert optimizer["iterations"] >= 1 and optimizer["rank"] == 3
        assert last in optimizer
        assert set(report["summary"]) == {"lhs", "rhs", "holds", "advisory"}


def test_recover_kind_sup_norm_is_advisory(tmp_path):
    # the sup-norm certificate is always heuristic, so p = inf ran into
    # HeuristicCertificateError (exit 2) before the CLI allowed it
    code, out = run_cli(tmp_path, dict(RECOVER, p="inf"))
    assert code == 0
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["advisory"] is True
    assert summary["lhs"] >= 0


def test_subsample_kind():
    report = run_experiment(ExperimentConfig({
        "kind": "subsample", "space": TRIG5, "q": 2, "eps": 0.5,
        "budgets": {"stage1_s": 400, "stage2_m": 60, "retries": 40}, "seed": 1,
    }))
    assert report.summary["m"] == 60
    assert report.summary["c1_pow"] >= 0.5


def test_study_scaling_records_curves():
    report = run_experiment(ExperimentConfig({
        "kind": "study-scaling", "Ns": [5, 9], "p": 2, "eps": 0.5,
        "trials": 10, "success_threshold": 0.9, "seed": 1,
    }))
    assert len(report.summary["m_stars"]) == 2
    assert all(m >= n for n, m in zip([5, 9], report.summary["m_stars"]))
    assert report.series_columns == ["N", "m", "trials", "successes", "c1_min", "c2_max"]
    assert report.series


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config", [
    {"kind": "study-scaling", "Ns": [5]},
    {"kind": "study-scaling", "Ns": [5, 5]},
    {"kind": "study-lacunary", "ns": [2, 2]},
], ids=["scaling-one-size", "scaling-one-distinct-size", "lacunary-one-distinct-size"])
def test_study_fits_no_exponent_without_two_distinct_sizes(config):
    # a line through one distinct point is a RankWarning and a made-up exponent
    report = run_experiment(ExperimentConfig(dict(config, p=2, eps=0.5, trials=2,
                                                  success_threshold=0.5, seed=1)))
    assert len(report.summary["m_stars"]) == len(config.get("Ns", config.get("ns")))
    assert not [key for key in report.summary if key.startswith(("exponent_", "residual_"))]


def test_study_tensor_multiplicativity(monkeypatch):
    trig3 = {"kind": "trig", "dimension": 1, "spectrum": [[-1], [0], [1]]}
    calls = []
    certify = sampdisc.cli.certify
    monkeypatch.setattr(sampdisc.cli, "certify", lambda *a, **kw: calls.append(1) or certify(*a, **kw))
    report = run_experiment(ExperimentConfig({
        "kind": "study-tensor", "factors": [trig3, trig3],
        "factor_samples": [{"mode": "iid", "m": 8}, {"mode": "equispaced", "m": 3}],
        "p": 2, "seed": 5,
    }))
    assert report.summary["within_product_interval"]
    # extraction records hold transferred vs direct certificates
    extraction = [r for r in report.records if "transferred" in r]
    assert extraction
    rec = extraction[0]
    assert rec["transferred"]["c1_pow"] == pytest.approx(rec["direct"]["c1_pow"], abs=1e-8)
    # each factor set is certified once, the tensor set once: its direct
    # record is the factor's own certificate
    assert len(calls) == 3
    factor_certs = [r["certificate"] for r in report.records if "factor" in r and "certificate" in r]
    assert [r["direct"] for r in extraction] == factor_certs


def test_config_echo_round_trips():
    data = {"kind": "certify", "space": TRIG5,
            "sample": {"mode": "equispaced", "m": 5}, "p": 2}
    report = run_experiment(ExperimentConfig(json.loads(json.dumps(data))))
    assert report.config == data
    again = run_experiment(ExperimentConfig(report.config))
    assert again.summary == report.summary


def test_validation_missing_seed():
    with pytest.raises(ConfigError) as info:
        run_experiment(ExperimentConfig({
            "kind": "study-scaling", "Ns": [5], "p": 2, "eps": 0.5,
            "trials": 5, "success_threshold": 0.9,
        }))
    assert info.value.path == "seed"


def test_validation_bad_eps_path():
    with pytest.raises(ConfigError) as info:
        run_experiment(ExperimentConfig({
            "kind": "study-scaling", "Ns": [5], "p": 2, "eps": 1.5,
            "trials": 5, "success_threshold": 0.9, "seed": 1,
        }))
    assert info.value.path == "eps"


def test_cli_writes_report_and_series(tmp_path):
    code, out = run_cli(tmp_path, {
        "kind": "study-scaling", "Ns": [3, 5], "p": 2, "eps": 0.5,
        "trials": 8, "success_threshold": 0.9, "seed": 3,
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["version"]
    assert report["seed"] == 3
    assert (out / "series.csv").read_text().startswith("N,m,trials,successes")


def test_cli_csv_deterministic(tmp_path):
    config = {"kind": "study-scaling", "Ns": [3, 5], "p": 2, "eps": 0.5,
              "trials": 8, "success_threshold": 0.9, "seed": 3}
    code1, out1 = run_cli(tmp_path / "a", config)
    code2, out2 = run_cli(tmp_path / "b", config)
    assert code1 == code2 == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_cli_seed_override(tmp_path):
    config = {"kind": "generate", "space": TRIG5,
              "sample": {"mode": "iid", "m": 4}, "seed": 1}
    _, out1 = run_cli(tmp_path / "a", config)
    _, out2 = run_cli(tmp_path / "b", config, extra_args=("--seed", "2"))
    pts1 = json.loads((out1 / "report.json").read_text())["records"][0]["points"]
    pts2 = json.loads((out2 / "report.json").read_text())["records"][0]["points"]
    assert pts1 != pts2


def test_cli_config_error_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, {"kind": "unknown-kind"})
    assert code == 2


@pytest.mark.parametrize("config,field", [
    ({"kind": "certify", "space": {"kind": "trig", "dimension": 1},
      "sample": {"mode": "equispaced", "m": 5}, "p": 2}, "space.spectrum"),
    ({"kind": "study-scaling", "Ns": [5], "p": 2, "eps": "x", "trials": 5,
      "success_threshold": 0.9, "seed": 1}, "eps"),
    ({"kind": "generate", "space": TRIG5, "sample": {"mode": "iid", "m": "many"},
      "seed": 9}, "sample.m"),
    ({"kind": "certify", "space": {"kind": "tensor", "factors": [TRIG5, {"kind": "trig", "dimension": 1}]},
      "sample": {"mode": "equispaced", "m": 15}, "p": 2}, "space.factors.1.spectrum"),
    ({"kind": "study-tensor", "factors": [TRIG5, {"kind": "trig", "dimension": 1}],
      "factor_samples": [{"mode": "equispaced", "m": 5}, {"mode": "equispaced", "m": 3}],
      "p": 2, "seed": 8}, "factors.1.spectrum"),
    # malformed scalars that skipped every check and exited 1 with a traceback
    ({"kind": "certify", "space": TRIG3, "sample": {"mode": "equispaced", "m": 5}, "p": 2,
      "budget": "x"}, "budget"),
    ({"kind": "study-scaling", "Ns": ["a"], "p": 2, "eps": 0.5, "trials": 5,
      "success_threshold": 0.9, "seed": 1}, "Ns.0"),
    ({"kind": "study-lacunary", "ns": [2], "ratio": "x", "p": 4, "eps": 0.5, "trials": 2,
      "success_threshold": 0.9, "seed": 1}, "ratio"),
    ({"kind": "study-scaling", "Ns": [3], "p": 2, "eps": 0.5, "trials": 5,
      "success_threshold": 0.9, "seed": 1, "m_max_factor": "x"}, "m_max_factor"),
    ({"kind": "subsample", "space": TRIG3, "q": 2, "eps": 0.5,
      "budgets": {"stage1_s": 40, "stage2_m": 10, "retries": "x"}, "seed": 1}, "budgets.retries"),
    ({"kind": "generate", "space": TRIG3, "sample": {"mode": "equispaced", "sizes": ["a"]}},
     "sample.sizes.0"),
    ({"kind": "recover", "space": TRIG3, "sample": {"mode": "equispaced", "m": 9},
      "target": {"spectrum": [[2]], "coefficients": ["x"]}, "p": 2}, "target.coefficients.0"),
    # config errors that the library raised without naming the field
    ({"kind": "recover", "space": TRIG3, "sample": {"mode": "equispaced", "m": 9},
      "target": {"spectrum": [[1, 0], [0, 1]], "coefficients": [1, 1]}, "p": 2}, "target.spectrum"),
    ({"kind": "generate", "space": TRIG3, "sample": {"mode": "equispaced"}}, "sample.m"),
    ({"kind": "generate", "space": TRIG3, "sample": {"mode": "equispaced", "sizes": [4, 4]}},
     "sample.sizes"),
    # counts with a fractional part, which ran truncated and exited 0
    ({"kind": "certify", "space": TRIG3, "sample": {"mode": "iid", "m": 20.5}, "p": 2, "seed": 1}, "sample.m"),
    ({"kind": "study-lacunary", "ns": [2], "p": 4, "eps": 0.5, "trials": 2.9, "success_threshold": 0.5,
      "seed": 1, "budget": 4}, "trials"),
    ({"kind": "study-lacunary", "ns": [2, 3.7], "p": 4, "eps": 0.5, "trials": 2, "success_threshold": 0.5,
      "seed": 1, "budget": 4}, "ns.1"),
    ({"kind": "certify", "space": {"kind": "lacunary", "n": 2.5, "ratio": 2},
      "sample": {"mode": "iid", "m": 20}, "p": 2, "seed": 1}, "space.n"),
    ({"kind": "certify", "space": {"kind": "trig", "dimension": 1.7, "spectrum": [[0], [1]]},
      "sample": {"mode": "iid", "m": 20}, "p": 2, "seed": 1}, "space.dimension"),
    # counts and seeds given as strings, which ran as numbers and exited 0
    ({"kind": "certify", "space": {"kind": "lacunary", "n": "3", "ratio": 2},
      "sample": {"mode": "iid", "m": 20}, "p": 2, "seed": 1}, "space.n"),
    ({"kind": "certify", "space": TRIG3, "sample": {"mode": "iid", "m": "20"}, "p": 2, "seed": 1}, "sample.m"),
    ({"kind": "certify", "space": TRIG3, "sample": {"mode": "iid", "m": 20}, "p": 2, "seed": "1"}, "seed"),
    # study sizes that ended in an OverflowError or a numpy ValueError
    ({"kind": "study-lacunary", "ns": [2], "p": "inf", "eps": 0.5, "trials": 2, "success_threshold": 0.5,
      "seed": 1}, "p"),
    ({"kind": "study-lacunary", "ns": [2], "p": 1e6, "eps": 0.5, "trials": 2, "success_threshold": 0.5,
      "seed": 1}, "p"),
    ({"kind": "study-scaling", "Ns": [3], "p": 2, "eps": 0.5, "trials": 2, "success_threshold": 0.5,
      "seed": 1, "m_max_factor": 1e308}, "m_max_factor"),
    ({"kind": "study-scaling", "Ns": [3], "p": 2, "eps": 0.5, "trials": 2, "success_threshold": 0.5,
      "seed": 1, "m_max_factor": 1e200}, "m_max_factor"),
    ({"kind": "study-lacunary", "ns": [3], "ratio": 1e308, "p": 4, "eps": 0.5, "trials": 2,
      "success_threshold": 0.5, "seed": 1}, "ratio"),
])
def test_cli_malformed_field_exits_2_without_traceback(tmp_path, config, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    src = str(Path(sampdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sampdisc.cli", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"config error: {field}:" in proc.stderr


@pytest.mark.parametrize("config", [
    # iid m = 10**11 asked numpy for 745 GiB; m = 1e308 and sizes [1e308]
    # ended in numpy's raw "Maximum allowed dimension exceeded"
    {"kind": "generate", "space": TRIG3, "sample": {"mode": "iid", "m": 10 ** 11}, "seed": 1},
    {"kind": "certify", "space": TRIG3, "sample": {"mode": "iid", "m": 1e308, "seed": 3}, "p": 2},
    {"kind": "generate", "space": TRIG3, "sample": {"mode": "equispaced", "sizes": [1e308]}},
], ids=["generate-iid-1e11", "certify-iid-1e308", "generate-equispaced-1e308"])
def test_cli_sample_past_the_cap_exits_2_without_traceback(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    src = str(Path(sampdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sampdisc.cli", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"more than {sampdisc.norms._MAX_GRID}" in proc.stderr


CERTIFY3 = {"kind": "certify", "space": TRIG3, "sample": {"mode": "iid", "m": 5, "seed": 3}, "p": 2}
TENSOR33 = {"kind": "tensor", "factors": [TRIG3, TRIG3]}
FACTOR_SAMPLES = [{"mode": "equispaced", "m": 3}, {"mode": "equispaced", "m": 3}]


@pytest.mark.parametrize("config,extra,field", [
    (dict(CERTIFY3, budjet=4), (), "budjet"),
    (dict(CERTIFY3, sample={"mode": "iid", "m": 5, "sead": 3}), (), "sample.sead"),
    (dict(CERTIFY3, budgets={"stage1_s": 40}), (), "budgets"),
    # a field another kind reads
    (dict(CERTIFY3, q=7), (), "q"),
    ({"kind": "subsample", "space": TRIG3, "q": 2, "eps": 0.5,
      "budgets": {"stage1_s": 40, "stage2_m": 10, "retry": 5}, "seed": 1}, (), "budgets.retry"),
    # space and sample fields that their kind or mode does not read, which ran and exited 0,
    # the last four read by another kind or mode
    (dict(CERTIFY3, space={"kind": "lacunary", "n": 3, "ratio": 2, "junk": 1}), (), "space.junk"),
    (dict(CERTIFY3, space=dict(TRIG3, lacunary_raito=2)), (), "space.lacunary_raito"),
    (dict(CERTIFY3, space={"kind": "tensor", "factors": [dict(TRIG3, junk=1), TRIG3]},
          sample={"mode": "tensor", "factor_samples": FACTOR_SAMPLES}), (), "space.factors.0.junk"),
    (dict(CERTIFY3, space=dict(TENSOR33, spectrum=[[0, 0]]),
          sample={"mode": "tensor", "factor_samples": FACTOR_SAMPLES}), (), "space.spectrum"),
    (dict(CERTIFY3, space=dict(TRIG3, n=2.5)), (), "space.n"),
    (dict(CERTIFY3, sample={"mode": "iid", "m": 5, "seed": 3, "sizes": [7]}), (), "sample.sizes"),
    (dict(CERTIFY3, sample={"mode": "equispaced", "m": 5, "seed": 4}), (), "sample.seed"),
    (dict(CERTIFY3, space=TENSOR33, sample={"mode": "tensor", "m": 99, "factor_samples": FACTOR_SAMPLES}),
     (), "sample.m"),
])
def test_cli_unknown_field_exits_2_without_traceback(tmp_path, config, extra, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    src = str(Path(sampdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sampdisc.cli", "--config", str(cfg),
                           "--out", str(tmp_path / "out"), *extra],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"config error: {field}: unknown field" in proc.stderr


@pytest.mark.parametrize("config", [
    # a 10^6-node exact rule that the heuristic search would hold 134 times;
    # this ran for minutes inside the s-fold sumset, s - 1 = 499,999 unions
    {"kind": "certify", "space": TRIG3, "sample": {"mode": "equispaced", "m": 5}, "p": 1e6},
    # a 10^12-node exact rule; this asked numpy for 7.28 TiB
    {"kind": "nikolskii", "space": TRIG3, "q": 1e12},
], ids=["certify-p1e6", "nikolskii-q1e12"])
def test_cli_huge_even_exponent_exits_2_without_traceback(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    src = str(Path(sampdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sampdisc.cli", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "exponent" in proc.stderr


def test_cli_sup_grid_past_the_cap_exits_2(tmp_path, capsys):
    # degree 3 on three axes: the sup search would need 192^3 nodes
    space = {"kind": "trig", "dimension": 3, "spectrum": [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]]}
    code, _ = run_cli(tmp_path, {"kind": "certify", "space": space,
                                 "sample": {"mode": "iid", "m": 8}, "p": "inf", "seed": 1})
    assert code == 2
    assert "grid nodes" in capsys.readouterr().err


def test_top_level_kind_and_out_are_known_fields(tmp_path):
    code, out = run_cli(tmp_path, dict(CERTIFY3, out=str(tmp_path / "elsewhere")))
    assert code == 0 and (out / "report.json").exists()


def test_cli_budget_exhaustion_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, {
        "kind": "subsample", "space": TRIG5, "q": 2, "eps": 0.5,
        "budgets": {"stage1_s": 100, "stage2_m": 2, "retries": 2}, "seed": 4,
    })
    assert code == 3


def test_cli_tolerance_option_is_gone(tmp_path):
    # the numerical settings are fixed; argparse rejects the option before any work
    with pytest.raises(SystemExit) as info:
        run_cli(tmp_path, RECOVER, extra_args=("--tolerance", "quad_stop=1e-10"))
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()
    # the report still records the slack the bound check applied
    code, out = run_cli(tmp_path, RECOVER)
    assert code == 0
    assert json.loads((out / "report.json").read_text())["records"][0]["slack"] == 1.05


@pytest.mark.parametrize("flag", ["--p", "--q", "--eps", "--trials", "--threshold"])
def test_cli_field_override_options_are_gone(tmp_path, flag):
    # fields come from the config alone; argparse rejects the option before any work
    with pytest.raises(SystemExit) as info:
        run_cli(tmp_path, CERTIFY3, extra_args=(flag, "3"))
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_unusable_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sampdisc.cli, "run_experiment", lambda config: pytest.fail("ran"))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(RECOVER))
    assert main(["--config", str(cfg), "--out", str(taken)]) == 2
    assert "config error: out: " in capsys.readouterr().err


def test_readme_tolerance_table_matches_defaults():
    # every fixed numerical setting has one README row with its value, and no other row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| constant | value | governs |\n| --- | --- | --- |\n")[1].split("\n\n")[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()]
    constants = {"norms.QUAD_STOP": 1e-9, "_optim.MINIMAX_REL": 1e-4,
                 "_optim.RECOVERY_TOL": 1e-8, "recovery.RECOVERY_SLACK": 1.05}
    assert {name.strip().strip("`"): float(value.strip().strip("`")) for name, value in rows} \
        == constants
    for name, value in constants.items():
        module, _, attr = name.partition(".")
        assert getattr(importlib.import_module(f"sampdisc.{module}"), attr) == value


@pytest.mark.parametrize("intro,tables", [("Experiment kinds and their fields", FIELDS),
                                          ("Space kinds and their fields", SPACE_FIELDS),
                                          ("Sample modes and their fields", SAMPLE_FIELDS)])
def test_readme_field_tables_match_the_cli(intro, tables):
    # each field of each kind or mode has a README row under that kind or mode, and no other field does
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed, names = {}, []
    for row in readme.split(intro)[1].split("\n\n")[1].splitlines()[2:]:
        tag, fields = row.split("|")[1:3]
        names = re.findall(r"`([^`]+)`", tag) or names
        for name in names:
            listed.setdefault(name, set()).update(f.split(".")[0] for f in re.findall(r"`([^`]+)`", fields))
    assert listed == {name: {f[0] for f in table} for name, table in tables.items()}


def _walk_certificates(obj):
    if isinstance(obj, dict):
        if "c1_pow" in obj and "c2_pow" in obj:
            yield obj
        for v in obj.values():
            yield from _walk_certificates(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk_certificates(v)


def test_report_certificates_carry_status_and_method(tmp_path):
    code, out = run_cli(tmp_path, {
        "kind": "study-tensor",
        "factors": [TRIG5, {"kind": "trig", "dimension": 1, "spectrum": [[-1], [0], [1]]}],
        "factor_samples": [{"mode": "equispaced", "m": 5}, {"mode": "iid", "m": 7}],
        "p": 2, "seed": 8,
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    certs = list(_walk_certificates(report["records"]))
    assert certs
    for cert in certs:
        assert cert["status"]
        assert cert["method"]


# Smallest valid config of each kind, and the fields the fuzz test replaces.
FUZZ_BASE = {
    "certify": {"kind": "certify", "space": TRIG3, "sample": {"mode": "equispaced", "m": 3}, "p": 2},
    "nikolskii": {"kind": "nikolskii", "space": TRIG3, "q": 2},
    "generate": {"kind": "generate", "space": TRIG3, "sample": {"mode": "iid", "m": 4}, "seed": 1},
    "subsample": {"kind": "subsample", "space": TRIG3, "q": 2, "eps": 0.5,
                  "budgets": {"stage1_s": 30, "stage2_m": 10, "retries": 3}, "seed": 1},
    "recover": RECOVER,
    "study-scaling": {"kind": "study-scaling", "Ns": [3], "p": 2, "eps": 0.5, "trials": 2,
                      "success_threshold": 0.5, "seed": 1},
    "study-lacunary": {"kind": "study-lacunary", "ns": [2], "p": 4, "eps": 0.5, "trials": 2,
                       "success_threshold": 0.5, "seed": 1, "budget": 4},
    "study-tensor": {"kind": "study-tensor", "factors": [TRIG3, TRIG3],
                     "factor_samples": [{"mode": "equispaced", "m": 3}, {"mode": "iid", "m": 4}],
                     "p": 2, "seed": 1},
}
NESTED = ("space.spectrum", "space.dimension", "sample.m", "sample.mode", "budgets.retries",
          "target.coefficients", "target.spectrum", "factors.0.spectrum", "factor_samples.1")


def _refuse_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


CERTIFICATE_KEYS = {"p", "c1_pow", "c2_pow", "method", "status", "tolerance", "weighted", "c1_lower", "c2_upper"}
RECORD_KEYS = {
    "nikolskii": {"q", "M", "B", "method", "grid_size"},
    "recover": {"p", "c1_norm", "c2_weights", "bound_constant", "lhs", "rhs", "slack", "d_inf",
                "holds", "advisory", "optimizer"},
}


@pytest.mark.parametrize("kind,p", [
    ("certify", 2), ("certify", "inf"), ("nikolskii", None), ("generate", None), ("subsample", None),
    ("recover", 2), ("recover", "inf"), ("study-scaling", None), ("study-lacunary", None),
    ("study-tensor", None),
])
def test_report_records_keep_their_keys_as_strict_json(tmp_path, kind, p):
    # p = inf is written as null, and no record may hold NaN or Infinity
    config = dict(FUZZ_BASE[kind], **({} if p is None else {"p": p}))
    if kind == "subsample":
        config["budgets"] = dict(config["budgets"], retries=40)
    if kind == "study-scaling":
        config["Ns"] = [3, 5]
    code, out = run_cli(tmp_path, config)
    assert code == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    assert list(report) == ["config", "records", "summary", "series_columns", "series",
                            "wall_clock_s", "version", "seed"]
    certificates = list(_walk_certificates(report["records"]))
    assert all(set(c) == CERTIFICATE_KEYS for c in certificates)
    if kind == "certify":
        assert certificates[0]["p"] == (None if p == "inf" else 2.0)
    if kind in RECORD_KEYS:
        (record,) = report["records"]
        assert set(record) == RECORD_KEYS[kind]
    if kind == "nikolskii":
        assert report["summary"] == record
    if kind == "recover":
        assert record["p"] == (None if p == "inf" else 2.0)
        assert isinstance(record["holds"], bool) and record["optimizer"]["rank"] == 3


def _at(config, path):
    """Value at a dotted path of a config, a digit part indexing a list; None if absent."""
    node = config
    for part in path.split("."):
        if isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return None
    return node


def _fuzz_cases():
    return [(kind, path) for kind, base in FUZZ_BASE.items() for path in [*base, *NESTED]
            if _at(base, path) is not None]


def _replaced(config, path, value):
    config = json.loads(json.dumps(config))
    parts = path.split(".")
    node = config
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(parts[-1]) if isinstance(node, list) else parts[-1]] = value
    return config


# integers stay small so that no example can ask for a large grid or point set
_small = st.integers(-64, 3)
WRONG_VALUES = st.one_of(
    st.text(alphabet="xyz", max_size=3), st.none(), st.booleans(), st.integers(-64, -1),
    st.lists(_small, max_size=3), st.dictionaries(st.text(alphabet="xyz", max_size=2), _small, max_size=2),
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(_fuzz_cases()), value=WRONG_VALUES)
def test_cli_wrong_field_types_exit_cleanly(case, value):
    kind, path = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(_replaced(FUZZ_BASE[kind], path, value)))
        code = main(["--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
