"""End-to-end checks of the command line interface and its exit codes."""

import copy
import hashlib
import json
import re
from pathlib import Path

import pytest

from reinforced_ldp import cli, exact, ratesolver
from reinforced_ldp.cli import main
from reinforced_ldp.errors import ConvergenceError
from reinforced_ldp.validation import REPORT_FILENAME

BENCH_MATRIX = [[0.9, 0.1], [0.2, 0.8]]
README = Path(__file__).resolve().parents[1] / "README.md"
PROV_RE = re.compile(r"^# config_sha256=[0-9a-f]{64} seed=\d+$")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def kernel_config(tmp_path):
    return write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}})


class Sentinel(Exception):
    """Raised by a patched entry point once a command is past its config reads."""


def _stop(*args, **kwargs):
    raise Sentinel


@pytest.fixture()
def no_work(monkeypatch):
    """Every subcommand's expensive entry point raises :class:`Sentinel`."""
    for name in ("simulate_chain", "exact_law_levels", "rate_profile", "build_plan", "run_acceptance"):
        monkeypatch.setattr(cli, name, _stop)


@pytest.mark.parametrize("command", ["simulate", "exact", "rate", "lowerbound", "validate"])
def test_readme_example_config_reads_in_every_subcommand(tmp_path, no_work, command):
    """Every subcommand accepts the README's example config and reaches its work."""
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    cfg = write_config(tmp_path, json.loads(block))
    with pytest.raises(Sentinel):
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])


def test_main_calls_share_no_parsed_state(tmp_path, kernel_config, monkeypatch):
    """Consecutive calls reuse one parser, and each sees only its own flags."""
    seen = []

    def capture(args, doc):
        seen.append(vars(args))
        raise Sentinel

    monkeypatch.setattr(cli, "_resolve_seed", capture)
    argvs = [
        ["simulate", "--config", kernel_config, "--out", "a", "--n", "7", "--x0", "2", "--paths", "3", "--seed", "5"],
        ["exact", "--config", kernel_config, "--n", "9"],
        ["simulate", "--config", kernel_config, "--threads", "1"],
    ]
    for argv in argvs:
        with pytest.raises(Sentinel):
            main(argv)
    common = {"config": kernel_config, "out": ".", "seed": None, "threads": None}
    assert seen == [
        {**common, "command": "simulate", "out": "a", "seed": 5, "n": 7, "x0": 2, "paths": 3, "func": cli.cmd_simulate},
        {**common, "command": "exact", "n": 9, "x0": None, "func": cli.cmd_exact},
        {**common, "command": "simulate", "threads": 1, "n": None, "x0": None, "paths": None, "func": cli.cmd_simulate},
    ]
    assert cli._build_parser() is cli._build_parser()


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


# SHA-256 of `simulate` on the bench kernel, seed 0, n=20000, two paths, as
# written by the one-dispatch-per-step loop; any rewrite of the draws must keep them
SIMULATE_DIGESTS = {
    "path_0.csv": "d4e6506a147f581f3c8b7dd540e2f4e19a0099790a116d1b9fb6711939778b58",
    "path_1.csv": "8b6581a87385cf825ea4db03abfe77338bed578c3deb75d9c75fa4097662cbef",
    "simulate_summary.csv": "0f1c29561af6ce425826999f78514d6dcd87e1f69fb7ff38acf0b74ce8640607",
}


def test_simulate_artifacts_match_golden_digests(tmp_path, kernel_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", kernel_config, "--out", str(out),
                 "--n", "20000", "--paths", "2", "--seed", "0"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SIMULATE_DIGESTS}
    assert digests == SIMULATE_DIGESTS


# SHA-256 of `simulate` for d=3 with a third kernel column of 1e-5, seed 12,
# n=50000, as written one %.17g row at a time: step 1 writes 1, L_3 is 0 up
# to step 2036 and lies below 1e-4, in exponent form, from step 10001 on
FALLBACK_KERNEL = [[0.6, 0.39999, 1e-5], [0.3, 0.69999, 1e-5], [0.5, 0.49999, 1e-5]]
FALLBACK_DIGESTS = {
    "path_12.csv": "f14b755ea3b54839841ce3d03e7e4fc2ab776aa0358eeff2bc9014ee777ef6a1",
    "simulate_summary.csv": "51675cf6a5d270c307b83f20ab007bff1c996aadad5568dbde98e5ca999aec01",
}


def test_simulate_exponent_form_values_match_golden_digests(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"matrix": FALLBACK_KERNEL},
                                  "simulate": {"n": 50000, "x0": 1, "paths": 1}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "12"]) == 0
    lines = (out / "path_12.csv").read_text().splitlines()
    assert lines[2] == "1,1,1,0,0"
    assert lines[2 + 10000].endswith(",9.9990000999900015e-05")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FALLBACK_DIGESTS}
    assert digests == FALLBACK_DIGESTS


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


def test_one_state_exact_law(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"matrix": [[1.0]]}, "exact": {"n": 5, "target": [1.0]}})
    out = tmp_path / "out"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "law_5.csv").read_text().splitlines()[1:] == ["c_1,probability", "5,1"]
    assert (out / "rate_trend.csv").read_text().splitlines()[2] == "5,1,0,false,false"


def test_exact_prints_how_many_rates_are_bounds(tmp_path, capsys):
    """At n = 100 nothing is dropped; at n = 300 the far ball's atoms all are,
    so its rate is a bound, and the count line says so."""
    cfg = write_config(tmp_path, {"kernel": {"matrix": [[0.99, 0.01], [0.98, 0.02]]},
                                  "exact": {"n_list": [100, 300], "target": [0.05, 0.95], "radius": 0.05}})
    out = tmp_path / "out"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    assert "exact: 1 of 2 ball rate(s) are lower bounds (rate_is_bound)\n" in capsys.readouterr().out
    rows = (out / "rate_trend.csv").read_text().splitlines()[2:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["false", "true"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_flag_is_config_error(tmp_path, no_work, capsys, value):
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "rate": {"points": [[0.5, 0.5]]}})
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o"), "--T", value]) == 2
    assert "'rate.T' has a value of the wrong type" in capsys.readouterr().err


# `exact` configs: the perfbench d=2 and d=3 workloads at seed 0, and a kernel
# that seldom leaves state 1, whose deep cells print with three-digit exponents
# and whose levels 200 and 400 drop mass below the underflow threshold
EXACT_CONFIGS = {
    "d2": {"kernel": {"matrix": BENCH_MATRIX},
           "exact": {"n_list": [75, 150, 300, 600], "x0": 1, "target": [0.45, 0.55], "radius": 0.05}},
    "d3": {"kernel": {"matrix": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]]},
           "exact": {"n_list": [24, 48, 96], "x0": 1, "target": [0.2, 0.4, 0.4], "radius": 0.1}},
    "deep": {"kernel": {"matrix": [[0.999, 0.001], [0.998, 0.002]]},
             "exact": {"n_list": [100, 200, 400], "x0": 1, "target": [0.99, 0.01], "radius": 0.02}},
}
# SHA-256 of the `exact` artifacts at seed 0, as written by the dict-of-atoms
# law and one %.17g cell at a time; any rewrite of the law or its CSV must keep them.
# The rate_trend.csv files also carry the rate_is_bound column, false on every row.
EXACT_DIGESTS = {
    "d2/law_75.csv": "cf45e5f1505f5eaeed344ef90c3d1a699798c9b13aa77a30471333a63fbd6f38",
    "d2/law_150.csv": "8954811b514afd26fdc885adca2794eec70ac230738c6d4a1a29da20ccae67b4",
    "d2/law_300.csv": "523d71e3079445381058eced6fdbd0bba62562cb34575eb33e2891470248774d",
    "d2/law_600.csv": "fd9629160ff16447aa8dafb0d07076005a2902ae779641f699af4909f2150fff",
    "d2/rate_trend.csv": "030ad6b0f6dc68f1dffff31d693d7e5bdd5e1c61dbd1a7dad5d37d2f2a7eb6f1",
    "d3/law_24.csv": "9d3d2ca7e116d89134ff71a9e3d921170d71def24bd0facb11947368c2ca7f71",
    "d3/law_48.csv": "94f001d834e43f9b38327d895ad41d279da0ae6d044f3dca324aeeb54c0bfc11",
    "d3/law_96.csv": "ed567c1554b5380e5597d9c4a0db7f9103cd0c60cf0e50febec9ac7db943081e",
    "d3/rate_trend.csv": "aba9ef5e50d04b6540593c982db8f1b924103e2b0547fe72dc981a22071addc0",
    "deep/law_100.csv": "dec028226e19bae9b160d7a5fb6e7c657e43fef711e9e1b2c1a81781ce85b82b",
    "deep/law_200.csv": "7353f99cb4773da20ca92149340356d7a99f60a7d32688b42ae930adf3e21b51",
    "deep/law_400.csv": "44f3187ed929c7f3054e182de3daad992a935bf863c39df2435ad481771565ed",
    "deep/rate_trend.csv": "fd68a9dabe9e9f6b1f03de3b7391760efb1e17fa9de7e11ab19b13fd6f59ca5d",
}


def test_exact_artifacts_match_golden_digests(tmp_path, capsys):
    digests = {}
    for name, doc in EXACT_CONFIGS.items():
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        out = tmp_path / name
        assert main(["exact", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
        digests.update({f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in out.iterdir()})
    assert digests == EXACT_DIGESTS
    # the deep case reaches what it is there for: three-digit exponents and dropped mass
    deep = (tmp_path / "deep" / "law_400.csv").read_text()
    assert re.search(r"e-\d{3}$", deep, flags=re.M)
    dropped = [float(x) for x in re.findall(r"dropped mass (\S+)\)", capsys.readouterr().out)]
    assert len(dropped) == 10 and max(dropped[-3:]) > 0.0


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


# SHA-256 of `rate_profile.csv` for a d=2 profile with `dv` on (the point
# (0, 1) is lifted) and a d=3 interior mesh, as written by the lock-step Newton
# solver that centres only its last barrier weight exactly; any batching of the
# solves must keep them
D3_MATRIX = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]]
RATE_CONFIGS = {
    "d2": {"kernel": {"matrix": BENCH_MATRIX},
           "rate": {"points": [[0.3, 0.7], [0.5, 0.5], [0.0, 1.0], [0.8, 0.2]], "T": 4.0, "J": 80, "dv": True}},
    "d3": {"kernel": {"matrix": D3_MATRIX},
           "rate": {"points": [[0.2, 0.2, 0.6], [0.2, 0.4, 0.4], [0.2, 0.6, 0.2],
                               [0.4, 0.2, 0.4], [0.4, 0.4, 0.2], [0.6, 0.2, 0.2]], "T": 4.0, "J": 40}},
}
RATE_DIGESTS = {
    "d2": "8f22d0fbcbce754cebcfed2b338fc7055b806b8ee2a546064138264706576420",
    "d3": "d1db64eb80c4f9434f81d1e0e3e563edfadb2553f555887c8f2d358152142874",
}


def test_rate_profiles_match_golden_digests(tmp_path):
    digests = {}
    for name, doc in RATE_CONFIGS.items():
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        out = tmp_path / name
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        digests[name] = hashlib.sha256((out / "rate_profile.csv").read_bytes()).hexdigest()
    assert digests == RATE_DIGESTS


def test_rate_d3_mesh_solves_its_boundary(tmp_path):
    """Every point of the step-0.25 d=3 mesh converges, those on the boundary
    lifted; points whose last entry is 0 once failed the Newton solve."""
    cfg = write_config(tmp_path, {"kernel": {"matrix": D3_MATRIX}, "rate": {"mesh_step": 0.25, "T": 8.0, "J": 80}})
    out = tmp_path / "o"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "rate_profile.csv").read_text().splitlines()[2:]]
    assert len(rows) == 15
    for row in rows:
        assert row[-2:] == ["1", str(int(min(map(float, row[:3])) == 0.0))]


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


def test_rate_threads_write_the_same_profile(tmp_path):
    """``--threads`` and a top-level ``threads`` key are accepted and change nothing."""
    doc = {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.3, 0.7], [0.5, 0.5], [0.6, 0.4]], "T": 2.0, "J": 40, "dv": True},
    }
    written = []
    for name, extra, argv in (("none", {}, []), ("one", {}, ["--threads", "1"]),
                              ("two", {}, ["--threads", "2"]), ("key", {"threads": "all"}, [])):
        cfg = write_config(tmp_path, {**doc, **extra}, name=f"{name}.json")
        out = tmp_path / name
        assert main(["rate", "--config", cfg, "--out", str(out), *argv]) == 0
        written.append((out / "rate_profile.csv").read_bytes())
    assert written[1:] == written[:1] * 3


def test_rate_dv_flag_string_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]], "T": 2.0, "J": 40, "dv": "false"},
    })
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'rate.dv' has a value of the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ConvergenceError])
def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(cli, "rate_profile", fail)
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]], "T": 2.0, "J": 40},
    })
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 5
    assert "solver failure: forced failure" in capsys.readouterr().err


def test_lapack_argument_error_is_solver_failure(tmp_path, monkeypatch, capsys):
    """A band solve that reports an illegal argument (``info < 0``) exits 5,
    not with a traceback and exit 1."""
    monkeypatch.setattr(ratesolver, "dptsv", lambda d, e, b, **kwargs: (d, e, b, -1))
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [[0.5, 0.5]], "T": 2.0, "J": 40},
    })
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 5
    assert "solver failure: solve_rate: illegal value in argument 1" in capsys.readouterr().err


def _solve_config(command, matrix, m, extra):
    """A ``rate`` or ``lowerbound`` config at the one point ``m``."""
    sect = {"points": [m]} if command == "rate" else {"m": m}
    return {"kernel": {"matrix": matrix}, command: {**sect, **extra}}


SMALLEST_RUNS = {
    f"{command}-{name}-d{len(m)}": (command, _solve_config(command, matrix, m, extra))
    for command in ("rate", "lowerbound")
    for name, extra in (("J1", {"J": 1}), ("T0.01", {"T": 0.01}))
    for matrix, m in ((BENCH_MATRIX, [0.3, 0.7]), (D3_MATRIX, [0.2, 0.3, 0.5]))
}
SMALLEST_RUNS.update({
    "simulate-n1": ("simulate", {"kernel": {"matrix": BENCH_MATRIX}, "simulate": {"n": 1}}),
    "exact-n1-d3": ("exact", {"kernel": {"matrix": D3_MATRIX}, "exact": {"n": 1}}),
    "simulate-d1": ("simulate", {"kernel": {"matrix": [[1.0]]}, "simulate": {"n": 5}}),
    "exact-d1": ("exact", {"kernel": {"matrix": [[1.0]]}, "exact": {"n": 5}}),
    "rate-d1": ("rate", _solve_config("rate", [[1.0]], [1.0], {})),
    "lowerbound-d1": ("lowerbound", _solve_config("lowerbound", [[1.0]], [1.0], {})),
})


@pytest.mark.parametrize("case", sorted(SMALLEST_RUNS))
def test_smallest_legal_sizes_run(tmp_path, capsys, case):
    """Every subcommand runs at its smallest legal sizes (one interval, one
    step, one state) and exits 0 without a traceback."""
    command, doc = SMALLEST_RUNS[case]
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err


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
    assert {"Jc", "delta", "bounds", "provenance"} <= set(doc)
    assert not {"c", "stop_rule", "knots", "schedule"} & set(doc)
    assert re.match(r"^config_sha256=[0-9a-f]{64} seed=2$", doc["provenance"])


# SHA-256 of `lowerbound` on the bench kernel at m=(0.5, 0.5), T=2, slack 1,
# seed 0, with a cost trend over n=1000, 2000 (4 seeds) and two runs at n=10000,
# with the mollified path itself as the schedule, read at the chain's clock, and
# each run's one cost summed per 8192-step block of numpy log1p terms; any
# rewrite of the draws or costs must keep them.  The cost trend's mc_std bits
# follow numpy's SIMD dispatch for log1p
LOWERBOUND_DIGESTS = {
    "plan.json": "3a5e97b0e86f27c1e3485dd9a5b7a69593b2a860dd95466d715321169034a667",
    "cost_trend.csv": "622abf9cb9db00732f615180f0eaf79099428b5eaceacc14f1e6eb334b08257a",
    "runs.csv": "34373838d7e179e957e22dc909ef94aed1dade48b3f77fc393065245e0b186e2",
}


def test_lowerbound_artifacts_match_golden_digests(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "lowerbound": {"m": [0.5, 0.5], "T": 2.0, "slack": 1.0, "eps0": 0.3,
                       "n_list": [1000, 2000], "n_seeds": 4, "runs": {"n": 10000, "n_seeds": 2}},
    })
    out = tmp_path / "out"
    assert main(["lowerbound", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in LOWERBOUND_DIGESTS}
    assert digests == LOWERBOUND_DIGESTS


# SHA-256 of `plan.json` with `include_schedule: true`, seed 0, slack 1: a d=3
# plan, and a short-horizon plan whose mollifier window is capped at half the
# solver mesh; every knot and schedule row of the plan is in the digest.  The
# capped plan's solver cost and cost_mixed are rounding noise at 0 (4.0e-17
# and 3.4e-17), the clamp of cost_mixed at 0 not acting
PLAN_SCHEDULE_DIGESTS = {
    "d3": ([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]], [0.6, 0.3, 0.1], 1.0,
           "72eb29230f86ac5f57b4128e4960beb86f9de2038e050327f9329b8e852de5c2"),
    "kappa2_cap": ([[0.6, 0.4], [0.4, 0.6]], [0.55, 0.45], 0.2,
                   "8aceb556064066ea1f523c039e974e7bad09aaf915a3750befd188398729d923"),
}


@pytest.mark.parametrize("case", sorted(PLAN_SCHEDULE_DIGESTS))
def test_lowerbound_schedule_matches_golden_digest(tmp_path, case):
    matrix, m, T, digest = PLAN_SCHEDULE_DIGESTS[case]
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": matrix},
        "lowerbound": {"m": m, "T": T, "slack": 1.0, "include_schedule": True},
    })
    out = tmp_path / "out"
    assert main(["lowerbound", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    doc = json.loads((out / "plan.json").read_text())
    assert {"knots", "schedule"} <= set(doc)
    assert hashlib.sha256((out / "plan.json").read_bytes()).hexdigest() == digest


RETIRED_LOWERBOUND_KEYS = {"max_intervals": 2_600_000, "kappa1": 0.3, "kappa2": 0.006, "kappa3": 1e-5, "eps_target": 0.1}


def test_retired_lowerbound_keys_are_ignored(tmp_path):
    """The retired keys change neither the plan nor its provenance."""
    plan = {"m": [0.3, 0.7], "T": 2.0, "slack": 1.0, "eps0": 0.3}
    texts = []
    for name, extra in (("new", {}), ("old", RETIRED_LOWERBOUND_KEYS)):
        cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "lowerbound": {**plan, **extra}},
                           name=f"{name}.json")
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        texts.append((tmp_path / name / "plan.json").read_bytes())
    assert texts[0] == texts[1]
    assert b"kappa3" not in texts[0]


@pytest.mark.parametrize("command,section,as_int,as_float", [
    ("lowerbound", {"m": [0.6, 0.4], "T": 1.0}, {"slack": 1}, {"slack": 1.0}),
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


@pytest.mark.parametrize("kernel", [
    {"matrix": [[0.5, 0.5], [1]]},
    {"matrix": [["a", "b"], ["c", "d"]]},
    {"qsd": {"p": "abc"}},
    {"matrix": [["0.9", "0.1"], ["0.2", "0.8"]]},
    {"matrix": [[True, 0.5], [0.2, 0.8]]},
    {"qsd": {"p": ["0.2", "0.3", "0.5"]}},
], ids=["ragged", "text", "qsd-text", "numeric-text", "bool", "qsd-numeric-text"])
def test_malformed_kernel_is_config_error(tmp_path, capsys, kernel):
    cfg = write_config(tmp_path, {"kernel": kernel})
    assert main(["simulate", "--config", cfg, "--n", "10", "--out", str(tmp_path / "o")]) == 2
    assert "expected a regular array of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,where", [
    ("simulate", {"n": 10.7}, "simulate.n"),
    ("simulate", {"n": "10"}, "simulate.n"),
    ("simulate", {"n": True}, "simulate.n"),
    ("simulate", {"x0": 1.5}, "simulate.x0"),
    ("rate", {"points": [[0.5, 0.5]], "T": 2.0, "J": 20.5}, "rate.J"),
    ("exact", {"n_list": [3, 4.5]}, "exact.n_list"),
    ("exact", {"n_list": [3, "4"]}, "exact.n_list"),
    ("lowerbound", {"m": [0.6, 0.4], "n_list": [100], "n_seeds": 2.5}, "lowerbound.n_seeds"),
    ("lowerbound", {"m": [0.6, 0.4], "runs": {"n": 100, "n_seeds": False}}, "lowerbound.runs.n_seeds"),
])
def test_non_integer_count_is_config_error(tmp_path, monkeypatch, capsys, command, section, where):
    monkeypatch.setattr(cli, "build_plan", None)
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, command: section})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
    assert f"'{where}' has a value of the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, "1.5", float("nan"), float("inf")], ids=["bool", "string", "nan", "inf"])
@pytest.mark.parametrize("command,doc,where", [
    ("rate", {"rate": {"points": [[0.5, 0.5]]}}, "rate.T"),
    ("rate", {"rate": {}}, "rate.mesh_step"),
    ("exact", {"exact": {"n": 3, "target": [0.5, 0.5]}}, "exact.radius"),
    ("lowerbound", {"lowerbound": {"m": [0.6, 0.4]}}, "lowerbound.slack"),
    ("validate", {"validate": {"include": ["C5"]}}, "validate.scale"),
    ("simulate", {"kernel": {"mixture": {"p": [0.4, 0.6], "B": BENCH_MATRIX}}}, "kernel.mixture.alpha"),
])
def test_non_number_is_config_error(tmp_path, no_work, capsys, command, doc, where, value):
    """A bool, a numeric string, NaN or Infinity where a number belongs exits 2 naming the key."""
    doc = {"kernel": {"matrix": BENCH_MATRIX}, **copy.deepcopy(doc)}
    *path, key = where.split(".")
    sect = doc
    for name in path:
        sect = sect[name]
    sect[key] = value
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
    assert f"'{where}' has a value of the wrong type" in capsys.readouterr().err


def test_integral_float_count_reads_as_the_integer(tmp_path):
    outputs = []
    for name, n in (("int", 30), ("float", 30.0)):
        cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "simulate": {"n": n, "x0": 2.0}},
                           name=f"{name}.json")
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
        outputs.append([(out / f).read_bytes() for f in ("path_4.csv", "simulate_summary.csv")])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].decode().splitlines()[2].startswith("1,2,")


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
    ({"n_list": [100], "n_seeds": 0}, "lowerbound.n_seeds"),
    ({"runs": {"n": 100, "n_seeds": 0}}, "lowerbound.runs.n_seeds"),
    ({"include_schedule": "false"}, "lowerbound.include_schedule"),
    ({"slack": "1"}, "lowerbound.slack"),
    ({"eps0": True}, "lowerbound.eps0"),
    ({"runs": [100, 2]}, "lowerbound.runs"),
    ({"runs": {"n": 0}}, "lowerbound.runs.n"),
    ({"n_list": [0]}, "lowerbound.n_list"),
    ({"n_list": []}, "lowerbound.n_list"),
    ({"n_list": [1000, -1]}, "lowerbound.n_list"),
])
def test_lowerbound_experiment_config_checked_before_plan(tmp_path, monkeypatch, capsys, extra, where):
    def no_plan(*args, **kwargs):
        raise AssertionError("build_plan ran before the config was checked")

    monkeypatch.setattr(cli, "build_plan", no_plan)
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX},
                                  "lowerbound": {"m": [0.6, 0.4], "T": 1.0, **extra}})
    assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"'{where}'" in capsys.readouterr().err


# at T = 2: t_5 = 1.45 < T, and t_10 = 2.02 leaves no grid point in (0, t_10 - T]
@pytest.mark.parametrize("extra,message", [
    ({"eps0": 0.0, "runs": {"n": 1000}}, "lowerbound: eps0 must be positive"),
    ({"eps0": -0.1, "n_list": [1000]}, "lowerbound: eps0 must be positive"),
    ({"n_list": [1000, 5]}, "lowerbound: need t_n > T, got t_n=1.45 at n=5 for T=2.0"),
    ({"runs": {"n": 10}}, "lowerbound: horizon n=10 leaves no room for the schedule"),
    ({"n_list": [1000], "runs": {"n": 5}}, "lowerbound: need t_n > T"),
    ({"T": -1.0, "runs": {"n": 1000}}, "lowerbound: need a finite T > 0, got -1.0"),
], ids=["eps0-zero", "eps0-negative", "trend-t_n", "runs-room", "runs-t_n", "T-negative"])
def test_lowerbound_run_preconditions_checked_before_plan(tmp_path, monkeypatch, capsys, extra, message):
    """A run setting that no run can meet exits 3 before the plan is built or
    written, and the message names the subcommand."""
    def no_plan(*args, **kwargs):
        raise AssertionError("build_plan ran before the run settings were checked")

    monkeypatch.setattr(cli, "build_plan", no_plan)
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX},
                                  "lowerbound": {"m": [0.6, 0.4], "T": 2.0, **extra}})
    out = tmp_path / "o"
    assert main(["lowerbound", "--config", cfg, "--out", str(out)]) == 3
    assert f"precondition violated: {message}" in capsys.readouterr().err
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("command,section,argv,where", [
    ("rate", {"points": []}, [], "rate.points"),
    ("exact", {"n_list": []}, [], "exact.n_list"),
    ("exact", {"n_list": [0]}, [], "exact.n_list"),
    ("exact", {"n_list": [5, -2]}, [], "exact.n_list"),
    ("exact", {}, ["--n", "0"], "exact.n_list"),
    ("exact", {"n": 0}, [], "exact.n"),
    ("simulate", {"n": 0}, [], "simulate.n"),
])
def test_empty_list_or_zero_count_is_config_error(tmp_path, no_work, capsys, command, section, argv, where):
    """A count list (or rate point list) must be non-empty, each count >= 1, before any solve."""
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, command: section})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1", *argv]) == 2
    assert f"'{where}' must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,doc", [
    (["--include", ","], {}),
    ([], {"validate": {"include": []}}),
], ids=["flag", "config"])
def test_validate_empty_include_is_config_error(tmp_path, capsys, argv, doc):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["validate", "--config", cfg, "--out", str(out), *argv]) == 2
    assert "include names no criterion" in capsys.readouterr().err
    assert not (out / REPORT_FILENAME).exists()


@pytest.mark.parametrize("ball,code", [
    ({"target": [0.2, 0.3, 0.5]}, 2),
    ({"target": [0.5, 0.5], "radius": -0.1}, 3),
], ids=["target-length", "negative-radius"])
def test_exact_ball_checked_before_the_law(tmp_path, no_work, ball, code):
    cfg = write_config(tmp_path, {"kernel": {"matrix": BENCH_MATRIX}, "exact": {"n": 5, **ball}})
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == code


@pytest.mark.parametrize("include", [5, "C6"])
def test_validate_include_must_be_a_list_of_strings(tmp_path, capsys, include):
    cfg = write_config(tmp_path, {"validate": {"include": include}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'validate.include' has a value of the wrong type" in capsys.readouterr().err


def test_unreadable_config_is_config_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing]) == 2


@pytest.mark.parametrize("point", [[0.5, 0.6], [1.4, -0.4]])
def test_off_simplex_rate_point_is_config_error(tmp_path, capsys, point):
    cfg = write_config(tmp_path, {
        "kernel": {"matrix": BENCH_MATRIX},
        "rate": {"points": [point], "T": 2.0, "J": 40},
    })
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
    assert "ProbVec" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rate_profile.csv").exists()


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


def test_output_directory_that_cannot_be_made_is_config_error(tmp_path, kernel_config, capsys):
    """An ``--out`` below a regular file is a configuration error (exit 2)
    naming the directory, not a traceback with exit 1."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    assert main(["simulate", "--config", kernel_config, "--out", str(out), "--n", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot create output directory") and str(out) in err


def test_artifact_that_cannot_be_written_is_config_error(tmp_path, kernel_config, capsys):
    """A directory where ``simulate`` writes a path file is a configuration
    error (exit 2) naming the file, not a traceback with exit 1."""
    out = tmp_path / "out"
    (out / "path_0.csv").mkdir(parents=True)
    assert main(["simulate", "--config", kernel_config, "--out", str(out), "--n", "10", "--paths", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "path_0.csv" in err
