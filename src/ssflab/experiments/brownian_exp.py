"""Monte Carlo sweep over the hitting-time bounds.

For a grid of (distance, time, dimension) triples the bridge-corrected
half-space estimate must stay below the Gaussian envelope
2 nu exp(-d^2/(4 nu t)) at the 3-sigma level, and in one dimension it must
also match the closed-form crossing law erfc(d / 2 sqrt(t)); selected
configurations of the joint expectation bound are verified alongside.
"""

from __future__ import annotations

import numpy as np

from .. import brownian as br
from ..harness.parallel import parallel_map
from .base import ExperimentConfig, ExperimentError, ResultRecord


def run_brownian(config: ExperimentConfig) -> ResultRecord:
    distances = [float(d) for d in config.opt("distances", (0.5, 1.0, 2.0))]
    times = [float(t) for t in (config.times or (0.25, 1.0))]
    nus = [int(v) for v in config.opt("nus", (1, 2))]
    paths = int(config.opt("paths", 100_000))
    bridge = bool(config.opt("bridge", True))
    if paths < 1000:
        raise ExperimentError("paths must be at least 1e3")

    rec = ResultRecord("brownian", config.seed, config.digest())

    combos = [(d, t, nu) for d in distances for t in times for nu in nus]

    def one(combo):
        d, t, nu = combo
        x = np.zeros(nu)
        region = br.half_space(0, d)
        est = br.simulate_hitting(x, region, t, paths=paths, bridge=bridge,
                                  seed=config.seed)
        bound = br.gaussian_bound(x, region, t, nu)
        exact = br.halfspace_exact(d, t)
        return est, bound, exact

    results = parallel_map(one, combos, config.workers)

    bound_ok = True
    exact_ok = True
    for (d, t, nu), (est, bound, exact) in zip(combos, results):
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
    t_joint = float(config.opt("joint_t", 0.5))
    box = br.box_region((-1.0, -1.0), (1.0, 1.0))
    inside = br.joint_bound_check(np.zeros(2), box, t_joint, paths=paths,
                                  seed=config.seed + 1)
    outside = br.joint_bound_check(np.array([2.0, 0.0]), box, t_joint,
                                   paths=paths, seed=config.seed + 2)
    rec.aggregates["joint_inside"] = inside
    rec.aggregates["joint_outside"] = outside
    rec.add_check("joint_bound_inside", "hard", inside["holds_3sigma"],
                  [inside["lhs"], inside["rhs"]], None,
                  "joint expectation bound with start in the box")
    rec.add_check("joint_bound_outside", "hard", outside["holds_3sigma"],
                  [outside["lhs"], outside["rhs"]], None,
                  "joint expectation bound with start at distance 1")
    return rec
