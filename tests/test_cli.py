"""End-to-end checks of the command line interface and its exit codes."""

import json
import re

import pytest

from reinforced_ldp import cli, exact, ratesolver
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


@pytest.mark.parametrize("dv", [False, True])
def test_rate_dv_flag_sets_the_column(tmp_path, dv):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]], "T": 2.0, "J": 40, "dv": dv},
    })
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "rate_profile.csv").read_text().splitlines()[1]
    assert ("dv_rate" in header.split(",")) == dv


def test_rate_dv_flag_string_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]], "T": 2.0, "J": 40, "dv": "false"},
    })
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'rate.dv' has a value of the wrong type" in capsys.readouterr().err


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


def test_mass_drift_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(exact, "MASS_CHECK_ATOL", -1.0)
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "exact": {"n": 5}})
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    assert "drifted from 1" in capsys.readouterr().err


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


def test_retired_lowerbound_keys_are_ignored(tmp_path):
    """The retired keys ``kappa3`` and ``max_intervals`` change neither the plan nor its provenance."""
    plan = {"m": [0.3, 0.7], "T": 2.0, "slack": 1.0, "eps0": 0.3}
    texts = []
    for name, extra in (("new", {}), ("old", {"max_intervals": 2_600_000, "kappa3": 1e-5})):
        cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "lowerbound": {**plan, **extra}},
                           name=f"{name}.json")
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        texts.append((tmp_path / name / "plan.json").read_bytes())
    assert texts[0] == texts[1]
    assert b"kappa3" not in texts[0]


@pytest.mark.parametrize("command,section,as_int,as_float", [
    ("lowerbound", {"m": [0.6, 0.4], "T": 1.0, "slack": 1.0}, {"kappa1": 1}, {"kappa1": 1.0}),
    ("exact", {"n": 3}, {"target": [1, 0], "radius": 1}, {"target": [1.0, 0.0], "radius": 1.0}),
])
def test_provenance_hashes_typed_values(tmp_path, command, section, as_int, as_float):
    """An integer and the equal float in a config give one provenance."""
    lines = []
    for name, extra in (("int", as_int), ("float", as_float)):
        cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, command: {**section, **extra}},
                           name=f"{name}.json")
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        if command == "lowerbound":
            lines.append(json.loads((out / "plan.json").read_text())["provenance"])
        else:
            lines.append((out / "rate_trend.csv").read_text().splitlines()[0])
    assert lines[0] == lines[1]


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


@pytest.mark.parametrize("command,doc,missing", [
    ("simulate", {"kernel": {"mixture": {"alpha": 0.5, "p": [0.4, 0.6]}}}, "kernel.mixture.B"),
    ("simulate", {"kernel": {"qsd": {}}}, "kernel.qsd.p"),
    ("lowerbound", {"kernel": {"matrix": BENCH_MATRIX},
                    "lowerbound": {"m": [0.6, 0.4], "T": 1.0, "runs": {"n_seeds": 1}}}, "lowerbound.runs.n"),
])
def test_missing_config_key_is_config_error(tmp_path, capsys, command, doc, missing):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config needs '{missing}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["ten", None])
def test_wrongly_typed_config_value_is_config_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "simulate": {"n": value}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'simulate.n' has a value of the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("extra,where", [
    ({"runs": {"n_seeds": 1}}, "lowerbound.runs.n"),
    ({"runs": {"n": "many"}}, "lowerbound.runs.n"),
    ({"runs": {"n": 100, "n_seeds": None}}, "lowerbound.runs.n_seeds"),
    ({"n_list": "abc"}, "lowerbound.n_list"),
    ({"n_list": [100], "n_seeds": [3]}, "lowerbound.n_seeds"),
    ({"kappa1": "x"}, "lowerbound.kappa1"),
    ({"kappa2": [0.01]}, "lowerbound.kappa2"),
    ({"include_schedule": "false"}, "lowerbound.include_schedule"),
])
def test_lowerbound_experiment_config_checked_before_plan(tmp_path, monkeypatch, capsys, extra, where):
    def no_plan(*args, **kwargs):
        raise AssertionError("build_plan ran before the config was checked")

    monkeypatch.setattr(cli, "build_plan", no_plan)
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX},
                                  "lowerbound": {"m": [0.6, 0.4], "T": 1.0, **extra}})
    assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"'{where}'" in capsys.readouterr().err


@pytest.mark.parametrize("include", [5, "C6"])
def test_validate_include_must_be_a_list_of_strings(tmp_path, capsys, include):
    cfg = write_config(tmp_path, {"validate": {"include": include}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'validate.include' has a value of the wrong type" in capsys.readouterr().err


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


@pytest.mark.parametrize("step", [0, -0.25])
def test_nonpositive_mesh_step_is_precondition_error(tmp_path, capsys, step):
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "rate": {"mesh_step": step}})
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "need step > 0" in capsys.readouterr().err


def test_mem_cap_env_is_resource_error(tmp_path, monkeypatch):
    monkeypatch.setenv("REINFORCED_LDP_MEM_CAP_MB", "1")
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": [[0.5, 0.25, 0.25],
                              [0.25, 0.5, 0.25],
                              [0.25, 0.25, 0.5]]},
        "exact": {"n": 3000},
    })
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
