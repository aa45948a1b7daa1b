"""Tests for the experiment driver: configs, reports, CSV, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sampdisc
from sampdisc.cli import ExperimentConfig, main, run_experiment
from sampdisc.errors import ConfigError


def run_cli(tmp_path, config, extra_args=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main(["--config", str(cfg), "--out", str(out), *extra_args]), out


TRIG5 = {"kind": "trig", "dimension": 1, "spectrum": [[-2], [-1], [0], [1], [2]]}


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


def test_recover_kind_anchor():
    report = run_experiment(ExperimentConfig({
        "kind": "recover",
        "space": {"kind": "trig", "dimension": 1, "spectrum": [[-1], [0], [1]]},
        "sample": {"mode": "equispaced", "m": 9},
        "target": {"spectrum": [[2], [-2]], "coefficients": [[0.5, 0], [0.5, 0]]},
        "p": 2,
    }))
    assert report.summary["lhs"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert report.summary["holds"]


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


def test_study_tensor_multiplicativity():
    trig3 = {"kind": "trig", "dimension": 1, "spectrum": [[-1], [0], [1]]}
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


def test_cli_budget_exhaustion_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, {
        "kind": "subsample", "space": TRIG5, "q": 2, "eps": 0.5,
        "budgets": {"stage1_s": 100, "stage2_m": 2, "retries": 2}, "seed": 4,
    })
    assert code == 3


def test_cli_tolerance_override(tmp_path):
    from sampdisc import tolerances

    code, _ = run_cli(tmp_path, {
        "kind": "certify", "space": TRIG5,
        "sample": {"mode": "equispaced", "m": 5}, "p": 2,
    }, extra_args=("--tolerance", "recovery_slack=1.2"))
    assert code == 0
    assert tolerances.get("recovery_slack") == 1.2
    tolerances.reset()


def test_cli_rejects_unknown_tolerance(tmp_path):
    code, _ = run_cli(tmp_path, {
        "kind": "certify", "space": TRIG5,
        "sample": {"mode": "equispaced", "m": 5}, "p": 2,
    }, extra_args=("--tolerance", "bogus=1"))
    assert code == 2


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
