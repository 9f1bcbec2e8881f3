"""Workload definitions: the inputs each pass feeds the package, by seed and size.

A workload's cost does not depend on the seed.  The seed picks the CLI
``--seed`` (the Philox streams of simulated paths and plan runs), the order
in which rate query points are solved, and which ball target the exact
workload queries; the problem sizes stay fixed, so runs with different
seeds measure the same amount of work.
"""
from __future__ import annotations

import random

BENCH = [[0.9, 0.1], [0.2, 0.8]]
D3 = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5]]

WORKLOADS = ("rate", "exact", "plan", "simulate")

# The d=2 points are the ones the independent SLSQP reference covers.
RATE_REFERENCE = {
    "kernel": BENCH,
    "T": 14.0,
    "J": 140,
    "points": [[0.3, 0.7], [0.5, 0.5], [0.45, 0.55], [0.6, 0.4]],
}
# interior points of the step-0.2 mesh of the d=3 simplex
RATE_D3 = {
    "kernel": D3,
    "T": 8.0,
    "J": 80,
    "points": [
        [0.2, 0.2, 0.6], [0.2, 0.4, 0.4], [0.2, 0.6, 0.2],
        [0.4, 0.2, 0.4], [0.4, 0.4, 0.2], [0.6, 0.2, 0.2],
    ],
}

EXACT_CONFIGS = [
    {
        "name": "d2",
        "kernel": BENCH,
        "x0": 1,
        "radius": 0.05,
        "n_list": [75, 150, 300, 600],
        "targets": [
            [0.3, 0.7], [0.25, 0.75], [0.35, 0.65], [0.4, 0.6],
            [0.45, 0.55], [0.5, 0.5], [0.55, 0.45], [0.6, 0.4],
        ],
    },
    {
        "name": "d3",
        "kernel": D3,
        "x0": 1,
        "radius": 0.1,
        "n_list": [24, 48, 96],
        "targets": [
            [0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.25, 0.35, 0.4], [0.4, 0.3, 0.3],
            [0.2, 0.4, 0.4], [0.3, 0.4, 0.3], [0.35, 0.35, 0.3], [0.25, 0.25, 0.5],
        ],
    },
]

# the bench plan of acceptance criteria C9/C10
PLAN = {
    "m": [0.3, 0.7], "T": 2.0, "slack": 1.0, "max_intervals": 2_600_000, "eps0": 0.3,
    "n_list": [1000, 2000, 4000, 8000, 10000], "n_seeds": 40,
    "runs": {"n": 100_000, "n_seeds": 10},
}
C10_MARGIN = 0.05

SIMULATE = {"n": 50_000, "paths": 2, "batch_n": 20, "batch_paths": 100_000}
TV_LIMIT = 0.015

# Smoke size: every stage of every workload, in seconds.  Checks that need
# reference data use the reference point or level the smoke size keeps.
SMOKE = {
    "rate_d2_points": [[0.6, 0.4]],
    "rate_d3_points": [[0.2, 0.4, 0.4]],
    "exact_levels": 1,
    "plan": {"m": [0.5, 0.5], "n_list": [1000, 2000], "n_seeds": 4, "runs": {"n": 10_000, "n_seeds": 2}},
    "simulate": {"n": 2_000, "paths": 2},
}


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{int(seed)}")


def rate_inputs(seed: int, smoke: bool) -> list[dict]:
    """Two ``rate`` configs (d=2 reference points, d=3 mesh), points shuffled by seed."""
    out = []
    for spec, smoke_points, name in (
        (RATE_REFERENCE, SMOKE["rate_d2_points"], "d2"),
        (RATE_D3, SMOKE["rate_d3_points"], "d3"),
    ):
        points = [list(p) for p in (smoke_points if smoke else spec["points"])]
        _rng(seed, "rate-" + name).shuffle(points)
        out.append({
            "name": name,
            "config": {
                "kernel": {"matrix": spec["kernel"]},
                "rate": {"points": points, "T": spec["T"], "J": spec["J"], "dv": True},
            },
        })
    return out


def exact_inputs(seed: int, smoke: bool) -> list[dict]:
    """Two ``exact`` configs; the seed picks the ball target of each."""
    out = []
    for cfg in EXACT_CONFIGS:
        idx = _rng(seed, "exact-" + cfg["name"]).randrange(len(cfg["targets"]))
        n_list = cfg["n_list"][: SMOKE["exact_levels"]] if smoke else cfg["n_list"]
        out.append({
            "name": cfg["name"],
            "target_index": idx,
            "config": {
                "kernel": {"matrix": cfg["kernel"]},
                "exact": {
                    "n_list": n_list, "x0": cfg["x0"],
                    "target": cfg["targets"][idx], "radius": cfg["radius"],
                },
            },
        })
    return out


def plan_inputs(seed: int, smoke: bool) -> dict:
    sect = dict(PLAN)
    if smoke:
        sect.update(SMOKE["plan"])
    return {"kernel": {"matrix": BENCH}, "lowerbound": sect}


def simulate_inputs(seed: int, smoke: bool) -> dict:
    sizes = dict(SIMULATE)
    if smoke:
        sizes.update(SMOKE["simulate"])
    return {"kernel": {"matrix": BENCH}, "simulate": {"n": sizes["n"], "x0": 1, "paths": sizes["paths"]},
            "batch": {"n": sizes["batch_n"], "paths": sizes["batch_paths"]}}
