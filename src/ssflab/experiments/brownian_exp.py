"""Monte Carlo sweep over the hitting-time bounds.

For a grid of (distance, time, dimension) triples the bridge-corrected
half-space estimate must stay below the Gaussian envelope
2 nu exp(-d^2/(4 nu t)) at the 3-sigma level, and in one dimension it must
also match the closed-form crossing law erfc(d / 2 sqrt(t)); selected
configurations of the joint expectation bound are verified alongside, and the
exit chance from the start in the box must match its closed form.
"""

from __future__ import annotations

import itertools

import numpy as np

from .. import brownian as br
from ..harness.parallel import parallel_map
from .base import ExperimentConfig, ResultRecord


def run_brownian(config: ExperimentConfig) -> ResultRecord:
    distances = config.opt("distances")
    times = config.times
    nus = config.opt("nus")
    paths = config.opt("paths")
    bridge = config.opt("bridge")

    rec = ResultRecord("brownian", config.seed, config.digest())

    # one draw serves every time, distance and nu: each axis has its own stream,
    # so an axis-0 estimate is bitwise the same at every nu, and nu sets only
    # the envelope; rows keep (d, t, nu) order
    regions = [br.half_space(0, d) for d in distances]
    per_time = br.simulate_hitting(np.zeros(max(nus)), regions, times, paths=paths,
                                   bridge=bridge, seed=config.seed)

    bound_ok = True
    exact_ok = True
    for (i, d), (t, ests), nu in itertools.product(enumerate(distances),
                                                   zip(times, per_time), nus):
        est = ests[i]
        bound = br.gaussian_bound(np.zeros(nu), regions[i], t, nu)
        exact = br.halfspace_exact(d, t)
        rec.rows.append({
            "x": 0.0, "d": d, "t": t, "nu": nu,
            "p_hat": est.p_hat, "stderr": est.stderr, "bound": bound,
            "exact_if_known": exact, "bridge_flag": est.bridge,
        })
        bound_ok &= est.p_hat + 3.0 * est.stderr <= bound
        if nu == 1:
            exact_ok &= abs(est.p_hat - exact) <= 3.0 * est.stderr
        rec.series.setdefault(f"p_vs_d_t{t}_nu{nu}", []).append([d, est.p_hat])

    rec.add_check("gaussian_bound", "hard", bound_ok, bound_ok, None,
                  "p_hat + 3 sigma below the Gaussian envelope on the whole grid")
    rec.add_check("halfspace_exact_1d", "hard", exact_ok, exact_ok, None,
                  "1D estimates within 3 sigma of erfc(d / 2 sqrt(t))")

    # joint expectation bound: one start inside the box, one outside
    t_joint = config.opt("joint_t")
    box = br.box_region((-1.0, -1.0), (1.0, 1.0))

    def joint(k):
        start = (np.zeros(2), np.array([2.0, 0.0]))[k]
        return br.joint_bound_check(start, box, t_joint, paths=paths,
                                    seed=config.seed + 1 + k)

    inside, outside = parallel_map(joint, (0, 1), config.workers)
    rec.aggregates["joint_inside"] = inside
    rec.aggregates["joint_outside"] = outside
    rec.add_check("joint_bound_inside", "hard", inside["holds_3sigma"],
                  [inside["lhs"], inside["rhs"]], None,
                  "joint expectation bound with start in the box")
    rec.add_check("joint_bound_outside", "hard", outside["holds_3sigma"],
                  [outside["lhs"], outside["rhs"]], None,
                  "joint expectation bound with start at distance 1")
    exit_ok = abs(inside["p_exit"] - inside["p_exit_exact"]) <= 3.0 * inside["p_exit_stderr"]
    rec.add_check("joint_exit_exact", "hard", exit_ok,
                  [inside["p_exit"], inside["p_exit_exact"]], None,
                  "exit chance from the start in the box within 3 sigma of 1 - prod P_j")
    return rec
