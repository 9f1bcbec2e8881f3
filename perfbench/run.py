"""Benchmark entry point: runs workload passes and reports end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload rate --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload, one report
    python3 perfbench/run.py --workload plan --trace 1        # per-layer metrics
    python3 perfbench/run.py --workload exact --smoke --seconds 1

Run from the root of a source checkout; the package is imported from
``src/``.  A run starts ``STARTS`` fresh interpreters one after another
(``passes.py``); each sets up once and then forks passes until its share
of ``--seconds`` is used, at least one pass each.  Every BLAS/OpenMP pool
is pinned to one thread and the CLI gets ``--threads 1``.  With
``--trace 0`` every pass is untraced and the end-to-end metrics are
printed; with ``--trace 1`` traced and untraced passes alternate and the
per-layer metrics are printed, including the tracing overhead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed and 2 when the checkout holds no
package.

This script itself uses only the standard library.  Working files go to
``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads as wl  # noqa: E402
from checks import check_identical  # noqa: E402

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
STARTS = 3                    # fresh interpreters per run, one setup_s sample each
RUN_LIMIT_S = 170.0           # hard cap on one run, whatever --seconds says
UNCOVERED_TOL_S = 1e-3        # harness time between layer spans allowed beyond the overhead


def machine_info(child: dict | None = None) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    info = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
    }
    if child:
        info.update({k: child[k] for k in ("numpy", "scipy") if k in child})
    info.update({k: "1" for k in PINNED_THREADS})
    return info


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in PINNED_THREADS})
    return env


def run_start(workload: str, seed: int, trace: int, smoke: bool, work: Path, k: int,
              deadline: float, timeout: float) -> dict:
    """One fresh interpreter: set up, then fork passes until ``deadline``."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--work", str(work), "--start", str(k), "--deadline", repr(deadline)]
    if smoke:
        cmd.append("--smoke")
    log = work / f"start_{k}.log"
    t_spawn = time.monotonic()
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=str(ROOT), start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)     # the forked pass too
            proc.wait()
            code = None
    ready = work / f"start_{k}.json"
    rec = {"index": k, "ok": code == 0 and ready.is_file(), "passes": []}
    if ready.is_file():
        rec.update(json.loads(ready.read_text()))
        rec["setup_wall_s"] = rec["t_ready"] - t_spawn
    if not rec["ok"]:
        rec["error"] = "timed out" if code is None else f"exit code {code}"
    for tag, status in rec.pop("forked", []):
        path = work / f"pass_{tag}.json"
        if status == 0 and path.is_file():
            rec["passes"].append({"ok": True, "start": k, **json.loads(path.read_text())})
        else:
            rec["passes"].append({"ok": False, "start": k, "traced": False,
                                  "error": f"pass {tag} exited with status {status}"})
    if not rec["ok"] or not all(p["ok"] for p in rec["passes"]):
        tail = log.read_text()[-2000:] if log.is_file() else ""
        print(f"perfbench: interpreter {k} ({rec.get('error', 'a pass failed')}):\n{tail}", file=sys.stderr)
    return rec


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (float("nan"),) * 2
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_start = time.monotonic()
    starts = []
    for k in range(STARTS):
        elapsed = time.monotonic() - t_start
        deadline = t_start + seconds * (k + 1) / STARTS
        starts.append(run_start(workload, seed, trace, smoke, work, k, deadline,
                                max(RUN_LIMIT_S - elapsed, 1.0)))
        package = starts[-1].get("package")
        if package and not Path(package).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"perfbench: imported {package}, not the checkout's src/")

    ops = [(f"start[{s['index']}]", False, s["error"]) for s in starts if not s["ok"]]
    passes = [p for s in starts for p in s.pop("passes")]
    good = [p for p in passes if p["ok"]]
    for i, p in enumerate(passes):
        if not p["ok"]:
            ops.append((f"pass[{i}]", False, p["error"]))
            continue
        ops += [tuple(op) for op in p["ops"]]
        if p is not good[0]:
            ops += check_identical(good[0]["digests"], p["digests"], f"pass {i}")

    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    walls = [p["cpu_ref_s"] for p in plain]
    setups = [s["setup_s"] for s in starts if "setup_s" in s]
    e2e = {
        "cpu_ref_s": _median(walls),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
    }
    excess = [p["extras"]["rate_excess"] for p in good if "rate_excess" in p["extras"]]
    layers = {}
    if traced:
        for name in metrics.PER_LAYER:
            vals = [p["layers"][name] for p in traced if name in p["layers"]]
            layers[name] = _median(vals) if vals else 0.0
        # rescaled times: the raw difference of a few passes drowns in the vCPU's speed changes
        layers["trace.overhead_s"] = (_median([p["cpu_ref_s"] for p in traced])
                                      - _median([p["cpu_ref_s"] for p in plain]))
        layers["ratesolver.rate_excess"] = _median(excess) if excess else 0.0
        limit = max(layers["trace.overhead_s"], 0.0) + UNCOVERED_TOL_S
        for i, p in enumerate(passes):
            if p["ok"] and p["traced"]:
                unc = p["layers"]["trace.uncovered_s"]
                ok = 0.0 <= unc <= limit
                ops.append((f"trace.self_times_sum[pass {i}]", ok,
                            "" if ok else f"wall minus layer self times {unc:.6f} s > {limit:.6f} s"))
    failed = [op for op in ops if not op[1]]
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds, "smoke": smoke,
        "machine": machine_info(starts[0]),
        "starts": starts,
        "passes": passes,
        "spread": {"cpu_ref_s": _quartiles(walls), "setup_s": _quartiles(setups)},
        "end_to_end": e2e,
        "reported": {
            "wall_s": _median([p["wall_s"] for p in plain]),
            "setup_wall_s": _median([s["setup_wall_s"] for s in starts if "setup_wall_s" in s]),
            "vcpu_speed": _median([p["vcpu_speed"] for p in plain]),
            "failed_frac": len(failed) / len(ops) if ops else 1.0,
            **({"rate_excess": _median(excess)} if excess else {}),
        },
        "per_layer": layers,
        "attempted": len(ops) if ops else 1,
        "failed": len(failed) if ops else 1,
        "failures": [list(op) for op in failed],
        "elapsed_s": time.monotonic() - t_start,
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_run(res: dict) -> None:
    n_plain = sum(1 for p in res["passes"] if not p["traced"])
    n_traced = len(res["passes"]) - n_plain
    m = res["machine"]
    print(f"perfbench: workload={res['workload']} seed={res['seed']} trace={res['trace']} "
          f"passes={len(res['passes'])} (untraced {n_plain}, traced {n_traced}) "
          f"in {res['elapsed_s']:.1f} s")
    print("machine: " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}" for k, v in m.items()))
    for name, unit in metrics.END_TO_END.items():
        q = res["spread"].get(name)
        extra = f"  (median; q1 {_fmt(q[0])} q3 {_fmt(q[1])})" if q else ""
        print(f"{res['workload']}.{name} = {_fmt(res['end_to_end'][name])} {unit}{extra}")
    for name, value in res["reported"].items():
        extra = f"  ({res['failed']} of {res['attempted']} ops)" if name == "failed_frac" else ""
        print(f"{res['workload']}.{name} = {_fmt(value)} {metrics.REPORTED[name]}{extra}")
    for name, value in res["per_layer"].items():
        label = "  (computed)" if name in metrics.COMPUTED else ""
        print(f"{res['workload']}.{name} = {_fmt(value)} {metrics.PER_LAYER[name]}{label}")
    for name, _, detail in res["failures"]:
        print(f"FAILED {name}: {detail}")


def result_line(res: dict, trace: int) -> dict:
    if trace:
        chosen = {k: (res["per_layer"].get(k, 0.0), u) for k, u in metrics.PER_LAYER.items()}
    else:
        chosen = {k: (res["end_to_end"][k], u) for k, u in metrics.END_TO_END.items()}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for a check in seconds")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "reinforced_ldp" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'reinforced_ldp'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        (ROOT / ".perfbench_work" / f"{name}-t{args.trace}" / "result.json").write_text(
            json.dumps(res, indent=1) + "\n")
        print_run(res)
        results.append(res)

    if len(results) == 1:
        line = result_line(results[0], args.trace)
    else:
        line = {
            "correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results
                        for k, v in result_line(r, args.trace)["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
