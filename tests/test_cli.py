"""End-to-end checks of the command line interface and its exit codes."""

import json
import re

import pytest

from reinforced_ldp import ratesolver
from reinforced_ldp.cli import main
from reinforced_ldp.errors import ConvergenceError, InfeasibleTrajectory
from reinforced_ldp.validation import REPORT_FILENAME

BENCH_MATRIX = [[0.9, 0.1], [0.2, 0.8]]
PROV_RE = re.compile(r"^# config_sha256=[0-9a-f]{64} seed=\d+$")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def kernel_config(tmp_path):
    return write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}})


def test_simulate_writes_paths_and_summary(tmp_path, kernel_config):
    out = tmp_path / "out"
    code = main(["simulate", "--config", kernel_config, "--out", str(out),
                 "--n", "50", "--paths", "2", "--seed", "3"])
    assert code == 0
    path_csv = (out / "path_3.csv").read_text().splitlines()
    assert PROV_RE.match(path_csv[0])
    assert path_csv[1] == "step,state,L_1,L_2"
    assert path_csv[2].startswith("1,1,")
    assert (out / "path_4.csv").exists()
    assert (out / "simulate_summary.csv").exists()


def test_simulate_rerun_byte_identical(tmp_path, kernel_config):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", kernel_config, "--out", str(out),
                     "--n", "200", "--seed", "11"]) == 0
        outs.append((out / "path_11.csv").read_bytes())
    assert outs[0] == outs[1]


def test_exact_laws_and_ball_rates(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "exact": {"n_list": [2, 3], "target": [0.3, 0.7], "radius": 0.05},
    })
    out = tmp_path / "out"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "law_2.csv").exists()
    assert (out / "law_3.csv").exists()
    trend = (out / "rate_trend.csv").read_text().splitlines()
    assert PROV_RE.match(trend[0])


def test_rate_profile_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]], "T": 2.0, "J": 40},
    })
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "rate_profile.csv").read_text().splitlines()
    assert PROV_RE.match(lines[0])
    assert lines[1] == "m_1,m_2,lower,upper,iterations,gap,converged,boundary_flag"
    assert len(lines) == 3
    assert lines[2].endswith(",1,0")


@pytest.mark.parametrize("error", [ConvergenceError, InfeasibleTrajectory])
def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(ratesolver, "solve_rate", fail)
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]], "T": 2.0, "J": 40},
    })
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 5
    assert "solver failure: forced failure" in capsys.readouterr().err


def test_lowerbound_plan_json(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "lowerbound": {"m": [0.6, 0.4], "T": 1.0, "slack": 1.0},
    })
    out = tmp_path / "out"
    assert main(["lowerbound", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
    doc = json.loads((out / "plan.json").read_text())
    assert {"Jc", "c", "delta", "bounds", "provenance"} <= set(doc)
    assert re.match(r"^config_sha256=[0-9a-f]{64} seed=2$", doc["provenance"])


def test_validate_single_criterion(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["validate", "--include", "C5", "--scale", "0.02",
                 "--out", str(out), "--seed", "0"])
    assert code == 0
    text = capsys.readouterr().out
    assert "C5" in text and "pass" in text
    assert (out / REPORT_FILENAME).exists()


def test_zero_kernel_entry_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"matrix": [[1.0, 0.0], [0.2, 0.8]]}})
    assert main(["simulate", "--config", cfg, "--n", "10"]) == 2


def test_unreadable_config_is_config_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing]) == 2


def test_negative_horizon_is_precondition_error(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]]},
    })
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--T", "-1"]) == 3


def test_schedule_cap_is_resource_error(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "lowerbound": {"m": [0.3, 0.7], "T": 2.0, "slack": 1.0,
                       "max_intervals": 100},
    })
    assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_mem_cap_env_is_resource_error(tmp_path, monkeypatch):
    monkeypatch.setenv("REINFORCED_LDP_MEM_CAP_MB", "1")
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": [[0.5, 0.25, 0.25],
                              [0.25, 0.5, 0.25],
                              [0.25, 0.25, 0.5]]},
        "exact": {"n": 3000},
    })
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
