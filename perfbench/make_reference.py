"""Write perfbench/reference.json: the reference data the output checks use.

Two independent kinds of reference are stored.

* ``rate``: the discretized discounted-control problem that ``solve_rate``
  minimizes, solved at the four bench points with SLSQP in the trajectory
  parametrisation.  The nodes ``M_1..M_J`` are the variables and the
  control is recovered as ``eta_j = (e^delta M_j - M_{j+1}) / (e^delta - 1)``,
  so every constraint is local and linear: ``M_j`` lies in the simplex and
  ``M_{j+1} <= e^delta M_j``.  The objective is the library's own
  discounted sum ``sum_j w_j R(eta_j || M_j A)``.  The Frank-Wolfe gap at
  the SLSQP point, evaluated by a linear program over the same polytope,
  bounds how far the stored value can sit above the true minimum (to the
  LP's own tolerance, about 1e-9, which can also make the gap read
  slightly negative).
* ``exact``: golden ball probabilities taken from the package's exact-law
  dynamic program, for every level and every candidate target a workload
  seed can select.

Run from the repository root (takes about a minute):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import rel_entr

MAX_RESTARTS = 8
# the rate check allows the solver 1e-6 below the reference, so the
# reference itself must be within a tenth of that of the true minimum
MAX_GAP = 1e-7

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def _trajectory_problem(m1: float, A: np.ndarray, T: float, J: int):
    """Objective, gradient and linear constraints in the node variables (d=2).

    ``x[j-1]`` is the first coordinate of node ``M_j``; ``M_0 = (m1, 1-m1)``.
    """
    delta = T / J
    e = math.exp(delta)
    w = np.exp(-delta * np.arange(J)) * (-math.expm1(-delta))

    def nodes(x):
        first = np.concatenate([[m1], x])
        return np.column_stack([first, 1.0 - first])

    def f_and_grad(x):
        M = nodes(x)
        eta = (e * M[:-1] - M[1:]) / (e - 1.0)
        K = M[:-1] @ A
        val = float(w @ rel_entr(eta, K).sum(axis=1))
        d_eta = w[:, None] * (np.log(np.maximum(eta, 1e-300) / K) + 1.0)
        d_K = -w[:, None] * eta / K
        g_M = np.zeros_like(M)
        g_M[:-1] += d_K @ A.T + d_eta * (e / (e - 1.0))
        g_M[1:] += -d_eta / (e - 1.0)
        g = g_M[1:, 0] - g_M[1:, 1]
        return val, g

    # eta_j >= 0 in both coordinates, as  G x + const >= 0  (x_0 = m1 is fixed):
    #   e x_j - x_{j+1} >= 0   and   (e - 1) - e x_j + x_{j+1} >= 0
    G = np.zeros((2 * J, J))
    const = np.zeros(2 * J)
    for j in range(J):
        G[2 * j, j] = -1.0
        G[2 * j + 1, j] = 1.0
        if j == 0:
            const[0] = e * m1
            const[1] = e * (1.0 - m1) - 1.0
        else:
            G[2 * j, j - 1] = e
            G[2 * j + 1, j - 1] = -e
            const[2 * j + 1] = e - 1.0
    return f_and_grad, G, const


def solve_rate_reference(m, A, T: float, J: int) -> dict:
    A = np.asarray(A, dtype=float)
    m1 = float(m[0])
    f_and_grad, G, const = _trajectory_problem(m1, A, T, J)
    cons = [{"type": "ineq", "fun": lambda x: G @ x + const, "jac": lambda x: G}]
    x = np.full(J, m1)
    gap = math.inf
    iterations = 0
    # SLSQP's quasi-Newton model degrades near the boundary; restarting from
    # the last point rebuilds it.  Stop once the certified gap stops shrinking.
    for _ in range(MAX_RESTARTS):
        res = minimize(
            f_and_grad, x, jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * J,
            constraints=cons, options={"ftol": 1e-16, "maxiter": 5000},
        )
        iterations += int(res.nit)
        x_new = np.clip(res.x, 0.0, 1.0)
        val, g = f_and_grad(x_new)
        # Frank-Wolfe gap: max_y <g, x - y> over the same polytope
        lp = linprog(g, A_ub=-G, b_ub=const, bounds=[(0.0, 1.0)] * J, method="highs")
        if lp.status != 0:
            raise RuntimeError(f"gap LP failed at m={m}: {lp.message}")
        new_gap = float(g @ x_new - lp.fun)
        if new_gap >= gap:
            break
        x, gap, value = x_new, new_gap, val
    if not gap <= MAX_GAP:
        raise RuntimeError(f"reference at m={m} certified only to {gap:.3e} > {MAX_GAP}")
    slack = float((G @ x + const).min())
    return {
        "m": [float(v) for v in m],
        "value": value,
        "fw_gap": gap,
        "lower_certified": value - max(gap, 0.0),
        "min_constraint_slack": slack,
        "slsqp_iterations": iterations,
    }


def main() -> int:
    import reinforced_ldp
    from reinforced_ldp.exact import event_probability, exact_law_levels
    from reinforced_ldp.measures import Kernel

    spec = wl.RATE_REFERENCE
    rate_points = []
    for m in spec["points"]:
        rec = solve_rate_reference(m, spec["kernel"], spec["T"], spec["J"])
        print(f"rate m={rec['m']} value={rec['value']:.10g} gap={rec['fw_gap']:.3e} "
              f"slsqp_it={rec['slsqp_iterations']}")
        rate_points.append(rec)

    exact_configs = []
    for cfg in wl.EXACT_CONFIGS:
        A = Kernel(cfg["kernel"])
        laws = exact_law_levels(A, cfg["x0"], cfg["n_list"])
        probs = {
            str(n): [event_probability(laws[n], np.asarray(t, dtype=float), cfg["radius"])
                     for t in cfg["targets"]]
            for n in cfg["n_list"]
        }
        print(f"exact {cfg['name']}: levels {cfg['n_list']}, {len(cfg['targets'])} targets")
        exact_configs.append({
            "name": cfg["name"], "kernel": cfg["kernel"], "x0": cfg["x0"],
            "radius": cfg["radius"], "targets": cfg["targets"], "probability": probs,
        })

    doc = {
        "generated_by": "perfbench/make_reference.py",
        "package_version": reinforced_ldp.__version__,
        "rate": {
            "method": "SLSQP over the nodes M_1..M_J (trajectory parametrisation); "
                      "fw_gap is the Frank-Wolfe gap from a HiGHS LP over the same polytope",
            "kernel": spec["kernel"], "T": spec["T"], "J": spec["J"],
            "points": rate_points,
        },
        "exact": {"source": "reinforced_ldp.exact.exact_law_levels", "configs": exact_configs},
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
