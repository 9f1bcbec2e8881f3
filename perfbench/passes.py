"""Workload passes, each in a process forked from a freshly set-up interpreter.

``run.py`` starts this script a few times per run.  Each start is a fresh
interpreter that sets up (imports the package, builds kernels, writes the
configs) and records when it is ready: that is one ``setup_s`` sample.
It then forks one child per pass until its deadline.  The child inherits
the imported modules but nothing the workload computes, because the
parent never runs the workload; so no ``lru_cache`` carries over between
passes, and no pass pays the import again.  The child runs the workload's
operations in one timed region, optionally under the span tracer, checks
the outputs and writes a JSON result.  The CLI is driven in-process
through ``reinforced_ldp.cli.main(argv)`` with ``--threads 1``; the one
operation without a CLI route (``simulate_chain_batch``) is called as a
library function.

    python3 perfbench/passes.py --workload rate --seed 0 --trace 0 \\
        --work DIR --start 0 --deadline MONOTONIC_S [--smoke]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedSampler  # noqa: E402

MAX_PASSES = 40               # per interpreter


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


class Pass:
    """Workload-specific set-up, timed operations and checks.

    Set-up builds each kernel once, which validates it, and writes the
    configs.  The CLI builds the kernel again from the config inside the
    timed region, as a user's call would.
    """

    def __init__(self, workload: str, seed: int, smoke: bool, cfg_dir: Path, reference: dict):
        from reinforced_ldp import cli
        from reinforced_ldp.measures import Kernel

        self.cli = cli
        self.Kernel = Kernel
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.cfg_dir = cfg_dir
        self.reference = reference
        self.commands: list[tuple[str, str, str]] = []   # (command, config file, output subdir)
        self.returncodes: list[int] = []
        self.extras: dict[str, float] = {}
        getattr(self, f"_setup_{workload}")()

    # -- set-up ------------------------------------------------------------

    def _setup_rate(self):
        self.inputs = wl.rate_inputs(self.seed, self.smoke)
        for item in self.inputs:
            cfg = _write_config(self.cfg_dir / f"rate_{item['name']}.json", item["config"])
            item["kernel"] = self.Kernel(item["config"]["kernel"]["matrix"])
            self.commands.append(("rate", cfg, item["name"]))

    def _setup_exact(self):
        self.inputs = wl.exact_inputs(self.seed, self.smoke)
        for item in self.inputs:
            self.Kernel(item["config"]["kernel"]["matrix"])
            cfg = _write_config(self.cfg_dir / f"exact_{item['name']}.json", item["config"])
            self.commands.append(("exact", cfg, item["name"]))

    def _setup_plan(self):
        self.config = wl.plan_inputs(self.seed, self.smoke)
        self.Kernel(self.config["kernel"]["matrix"])
        cfg = _write_config(self.cfg_dir / "plan.json", self.config)
        self.commands.append(("lowerbound", cfg, "plan"))

    def _setup_simulate(self):
        self.config = wl.simulate_inputs(self.seed, self.smoke)
        self.kernel = self.Kernel(self.config["kernel"]["matrix"])
        cfg = _write_config(self.cfg_dir / "simulate.json", self.config)
        self.commands.append(("simulate", cfg, "simulate"))

    # -- timed region --------------------------------------------------------

    def execute(self, out: Path):
        self.out = out
        for command, cfg, sub in self.commands:
            argv = [command, "--config", cfg, "--out", str(out / sub), "--seed", str(self.seed), "--threads", "1"]
            self.returncodes.append(self.cli.main(argv))
        if self.workload == "simulate":
            from reinforced_ldp import chains

            b = self.config["batch"]
            self.batch = chains.simulate_chain_batch(self.kernel, 1, b["n"], b["paths"], self.seed)

    # -- checks (after the timed region) -------------------------------------

    def check(self) -> list:
        ops = [(f"cli.{cmd[0]}[{i}]", rc == 0, "" if rc == 0 else f"exit code {rc}")
               for i, (cmd, rc) in enumerate(zip(self.commands, self.returncodes))]
        try:
            return ops + getattr(self, f"_check_{self.workload}")()
        except (OSError, KeyError, ValueError, IndexError) as exc:  # missing or malformed artifact
            return ops + [(f"{self.workload}.artifacts", False, repr(exc))]

    def _check_rate(self):
        ops = []
        excess = None
        for item in self.inputs:
            sect = item["config"]["rate"]
            ref = self.reference["rate"]["points"] if item["name"] == "d2" else []
            got, exc = checks.check_rate(self.out / item["name"] / "rate_profile.csv", sect["points"],
                                         sect["T"], item["kernel"].delta0, ref)
            ops += got
            if exc is not None:
                excess = exc if excess is None else max(excess, exc)
        if excess is not None:
            self.extras["rate_excess"] = excess
        return ops

    def _check_exact(self):
        golden = {c["name"]: c for c in self.reference["exact"]["configs"]}
        ops = []
        for item in self.inputs:
            g = golden[item["name"]]
            idx = item["target_index"]
            expect = {int(n): g["probability"][str(n)][idx] for n in item["config"]["exact"]["n_list"]}
            ops += checks.check_exact(self.out / item["name"] / "rate_trend.csv", expect)
        return ops

    def _check_plan(self):
        out = self.out / "plan"
        sect = self.config["lowerbound"]
        return (checks.check_plan_bounds(out / "plan.json")
                + checks.check_plan_runs(out / "runs.csv", sect["runs"]["n_seeds"])
                + checks.check_cost_trend(out / "cost_trend.csv", wl.C10_MARGIN))

    def _check_simulate(self):
        from reinforced_ldp.chains import simulate_chain
        from reinforced_ldp.exact import exact_law

        sect, b = self.config["simulate"], self.config["batch"]
        ops = checks.check_simulate_paths(self.out / "simulate", self.seed, sect["paths"], sect["n"])
        single = simulate_chain(self.kernel, 1, b["n"], self.seed)
        law = exact_law(self.kernel, 1, b["n"])
        return ops + checks.check_batch(self.batch, single.counts[-1], law.atoms, wl.TV_LIMIT)

    def digests(self) -> dict[str, str]:
        """sha256 of every CSV and JSON artifact the package wrote."""
        out = {}
        for path in sorted(self.out.rglob("*")):
            if path.is_file() and path.suffix in (".csv", ".json"):
                out[str(path.relative_to(self.out))] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out


def run_pass(work: Pass, out: Path, traced: bool, result_path: Path, spans_path: Path) -> None:
    """Body of one forked pass."""
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(metrics.HOOKS)
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        work.execute(out)
        wall = time.perf_counter() - t0
    result = {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": sampler.cpu_s,
        "vcpu_speed": sampler.speed,
        "cpu_ref_s": sampler.cpu_s * sampler.speed,
        "speed_samples": len(sampler.ratios),
        "vcpu": sampler.cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from reinforced_ldp import lowerbound

        nodes_per_piece = len(getattr(lowerbound, "_GL_X", ())) or 1
        result["layers"] = metrics.layer_metrics(
            tracer.aggregate(), tracer.counters, wall, tracer.top_level_s(), nodes_per_piece)
        result["hook_errors"] = tracer.hook_errors
        tracer.write(spans_path)
    ops = work.check()
    result["ops"] = [[name, bool(ok), detail] for name, ok, detail in ops]
    result["extras"] = work.extras
    result["digests"] = work.digests()
    result_path.write_text(json.dumps(result) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--work", required=True, help="directory for results and artifacts")
    p.add_argument("--start", type=int, required=True, help="index of this interpreter in the run")
    p.add_argument("--deadline", type=float, required=True,
                   help="time.monotonic() after which no new pass starts")
    args = p.parse_args(argv)

    work_dir = Path(args.work)
    cfg_dir = work_dir / f"inputs_{args.start}"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    with SpeedSampler(from_process_start=True) as sampler:
        import numpy
        import scipy

        import reinforced_ldp

        work = Pass(args.workload, args.seed, args.smoke, cfg_dir, reference)
    ready = {
        "t_ready": time.monotonic(),
        "setup_cpu_s": sampler.cpu_s,
        "setup_speed": sampler.speed,
        "setup_s": sampler.cpu_s * sampler.speed,
        "package": reinforced_ldp.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    (work_dir / f"start_{args.start}.json").write_text(json.dumps(ready) + "\n")

    forked: list[list] = []
    durations: list[float] = []
    for i in range(MAX_PASSES):
        if durations and time.monotonic() + statistics.median(durations) > args.deadline:
            break
        tag = f"{args.start}_{i}"
        out = work_dir / f"pass_{tag}"
        traced = bool(args.trace) and (args.start + i) % 2 == 0
        sys.stdout.flush()
        sys.stderr.flush()
        t0 = time.monotonic()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                run_pass(work, out, traced, work_dir / f"pass_{tag}.json", work_dir / "spans.csv")
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        durations.append(time.monotonic() - t0)
        forked.append([tag, status])
        shutil.rmtree(out, ignore_errors=True)
    ready["forked"] = forked
    (work_dir / f"start_{args.start}.json").write_text(json.dumps(ready) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
