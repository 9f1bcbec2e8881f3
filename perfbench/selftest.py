"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. ``metrics.py`` and ``BENCHMARK.json`` name the same metrics and units.
2. Every output check passes on real smoke-size artifacts and fails on a
   perturbed copy of the artifact or of its reference value.
3. ``run.py --smoke`` prints every metric by name with its unit and ends
   with the JSON result line, untraced and traced.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   ``run.py`` exits non-zero without printing a result.

Takes about a minute.  Exits 0 when every test passes.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads as wl  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _ok(ops) -> bool:
    return bool(ops) and all(ok for _, ok, _ in ops)


def _rewrite_cell(src: Path, dst: Path, column: str, value: str, row: int = 0) -> Path:
    """Copy a package CSV with one cell replaced."""
    lines = src.read_text().splitlines(keepends=True)
    head = 1 if lines[0].startswith("#") else 0
    cols = lines[head].rstrip("\n").split(",")
    cells = lines[head + 1 + row].rstrip("\n").split(",")
    cells[cols.index(column)] = value
    lines[head + 1 + row] = ",".join(cells) + "\n"
    dst.write_text("".join(lines))
    return dst


def _smoke_pass(workload: str):
    import passes

    root = WORK / workload
    shutil.rmtree(root, ignore_errors=True)
    (root / "inputs").mkdir(parents=True)
    p = passes.Pass(workload, 3, True, root / "inputs", REFERENCE)
    p.execute(root / "out")
    return p


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


def test_rate_checks_can_fail():
    p = _smoke_pass("rate")
    assert _ok(p.check()), p.check()
    item = next(i for i in p.inputs if i["name"] == "d2")
    sect, csv_path = item["config"]["rate"], p.out / "d2" / "rate_profile.csv"
    ref = REFERENCE["rate"]["points"]

    def run_check(path=csv_path, reference=ref):
        return checks.check_rate(path, sect["points"], sect["T"], item["kernel"].delta0, reference)[0]

    assert _ok(run_check())
    raised = copy.deepcopy(ref)
    for r in raised:
        r["value"] = 1.0                                   # a reference the solver cannot reach
    assert not _ok(run_check(reference=raised))
    assert not _ok(run_check(path=_rewrite_cell(csv_path, WORK / "r1.csv", "upper", "1.0")))
    assert not _ok(run_check(path=_rewrite_cell(csv_path, WORK / "r2.csv", "lower", "nan")))
    assert not _ok(run_check(path=_rewrite_cell(csv_path, WORK / "r3.csv", "lower", "-1e-3")))
    _, excess = checks.check_rate(csv_path, sect["points"], sect["T"], item["kernel"].delta0, ref)
    assert excess is not None


def test_exact_checks_can_fail():
    p = _smoke_pass("exact")
    assert _ok(p.check())
    item = p.inputs[0]
    cfg = next(c for c in REFERENCE["exact"]["configs"] if c["name"] == item["name"])
    golden = {int(n): cfg["probability"][str(n)][item["target_index"]] for n in item["config"]["exact"]["n_list"]}
    trend = p.out / item["name"] / "rate_trend.csv"
    assert _ok(checks.check_exact(trend, golden))
    assert not _ok(checks.check_exact(trend, {n: g * (1 + 1e-8) for n, g in golden.items()}))
    assert not _ok(checks.check_exact(_rewrite_cell(trend, WORK / "e1.csv", "rate", "0.5"), golden))
    assert not _ok(checks.check_exact(trend, {**golden, 10**6: 0.5}))


def test_plan_checks_can_fail():
    p = _smoke_pass("plan")
    assert _ok(p.check())
    out = p.out / "plan"
    doc = json.loads((out / "plan.json").read_text())
    for key, value in (("bound_mollify", -1.0), ("bound_discretize", -1.0), ("cost_reversed_quad", 1.0)):
        bad = copy.deepcopy(doc)
        bad["bounds"][key] = value
        (WORK / "plan_bad.json").write_text(json.dumps(bad))
        assert not _ok(checks.check_plan_bounds(WORK / "plan_bad.json")), key
    runs = out / "runs.csv"
    assert _ok(checks.check_plan_runs(runs, 2))
    assert not _ok(checks.check_plan_runs(_rewrite_cell(runs, WORK / "p1.csv", "cost_stepsum", "0.5"), 2))
    assert not _ok(checks.check_plan_runs(runs, 3))
    trend = out / "cost_trend.csv"
    last = len(checks.read_csv(trend)) - 1
    assert _ok(checks.check_cost_trend(trend, wl.C10_MARGIN))
    assert not _ok(checks.check_cost_trend(_rewrite_cell(trend, WORK / "p2.csv", "mc_mean", "5.0", last),
                                           wl.C10_MARGIN))


def test_simulate_checks_can_fail():
    import numpy as np
    from reinforced_ldp.chains import simulate_chain
    from reinforced_ldp.exact import exact_law

    p = _smoke_pass("simulate")
    assert _ok(p.check())
    sect, b = p.config["simulate"], p.config["batch"]
    out = p.out / "simulate"
    assert _ok(checks.check_simulate_paths(out, p.seed, sect["paths"], sect["n"]))
    path = out / f"path_{p.seed}.csv"
    backup = path.read_bytes()
    _rewrite_cell(path, path, "L_1", "0.25", sect["n"] - 1)
    assert not _ok(checks.check_simulate_paths(out, p.seed, sect["paths"], sect["n"]))
    path.write_bytes(backup)
    assert not _ok(checks.check_simulate_paths(out, p.seed, sect["paths"], sect["n"] + 1))

    single = simulate_chain(p.kernel, 1, b["n"], p.seed).counts[-1]
    law = exact_law(p.kernel, 1, b["n"]).atoms
    assert _ok(checks.check_batch(p.batch, single, law, wl.TV_LIMIT))
    bad0 = np.array(p.batch)
    bad0[0] = bad0[0][::-1] if bad0[0][0] != bad0[0][1] else bad0[0] + [1, -1]
    assert not _ok(checks.check_batch(bad0, single, law, wl.TV_LIMIT)[:1])
    shifted = np.array(p.batch)
    shifted[: len(shifted) // 20] = [b["n"], 0]            # move 5% of the mass to one atom
    assert not _ok(checks.check_batch(shifted, single, law, wl.TV_LIMIT)[1:])


def test_identical_check_can_fail():
    a = {"x.csv": "00", "y.csv": "11"}
    assert _ok(checks.check_identical(a, dict(a), "p"))
    assert not _ok(checks.check_identical(a, {"x.csv": "00", "y.csv": "12"}, "p"))
    assert not _ok(checks.check_identical(a, {"x.csv": "00"}, "p"))


def _run_smoke(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=170)


def test_smoke_runs_print_every_metric():
    for workload, trace in [(w, 0) for w in wl.WORKLOADS] + [("simulate", 1)]:
        proc = _run_smoke(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        names = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert {k: v["unit"] for k, v in line["metrics"].items()} == names
        printed = dict(names)
        if not trace:
            printed.update({k: u for k, u in metrics.REPORTED.items() if k != "rate_excess" or workload == "rate"})
        for name, unit in printed.items():
            assert any(ln.startswith(f"{workload}.{name} = ") and f" {unit}" in ln for ln in lines), name


def test_fails_without_package():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_smoke("rate", 0, bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"selftest: {len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
