"""Sharp cutoff versus lattice-sum cutoff for tailed single-site profiles.

With profiles that are not compactly supported, chi_Lambda V and V_Lambda
differ by the tails reaching across the box boundary; the normalised trace
difference |tr[g(H0 + chi_Lambda V) - g(H0 + V_Lambda)]| / meas(Lambda) must
fall along a growing box schedule.  Compact profiles make the two cutoffs
literally identical, which is flagged as a degenerate (still valid) run.
"""

from __future__ import annotations

import numpy as np

from .. import spectral
from ..harness.parallel import parallel_map
from ..model import SiteBox, assemble_hamiltonian, assemble_potential
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    absolute_site_window, ambient_for, center_origin, centered_absolute_box


def _norm_diff(config: ExperimentConfig, profile, length: int, realization: int) -> float:
    dim, h = config.dimension, config.spacing
    margin = int(config.opt("margin", 24))
    lmax = max(config.schedule)
    grid, _ = ambient_for(centered_absolute_box(lmax, dim), margin, h)
    origin = center_origin(grid)
    field = sample_couplings(config.distribution, absolute_site_window(grid),
                             config.seed, realization)
    g = spectral.BumpFunction(float(config.opt("bump_lo", -2.5)),
                              float(config.opt("bump_hi", 1.0)))
    site_box = SiteBox.centered(grid, length)
    abs_box = centered_absolute_box(length, dim)
    pot_sharp = assemble_potential(grid, profile, field, "sharp", site_box,
                                   origin=origin)
    pot_lat = assemble_potential(grid, profile, field, "lattice_sum", abs_box,
                                 origin=origin)
    h_sharp = assemble_hamiltonian(grid, pot_sharp)
    h_lat = assemble_hamiltonian(grid, pot_lat)
    dl = config.dense_limit
    tr_sharp = float(np.sum(g.value(spectral.eig_all(h_sharp, dense_limit=dl).eigenvalues)))
    tr_lat = float(np.sum(g.value(spectral.eig_all(h_lat, dense_limit=dl).eigenvalues)))
    meas = site_box.measure
    return abs(tr_sharp - tr_lat) / meas


def run_cutoff_equivalence(config: ExperimentConfig) -> ResultRecord:
    if config.dimension not in (1, 2):
        raise ExperimentError("cutoff equivalence runs in 1D or 2D")
    if len(config.schedule) < 2:
        raise ExperimentError("cutoff equivalence needs a growing schedule")
    profile = config.build_profile()

    rec = ResultRecord("cutoff", config.seed, config.digest())
    if profile.is_compact:
        rec.notes.append("compact profile: chi_Lambda V == V_Lambda, degenerate run")

    reals = list(range(config.realizations))
    per_length = []
    for length in config.schedule:
        vals = parallel_map(lambda r, L=length: _norm_diff(config, profile, L, r),
                            reals, config.workers)
        mean = float(np.mean(vals))
        per_length.append(mean)
        for r, v in zip(reals, vals):
            rec.rows.append({"L": length, "realization": r, "norm_diff": float(v)})
        rec.series.setdefault("normdiff_vs_L", []).append([length, mean])

    if profile.is_compact:
        exact_zero = all(v == 0.0 for v in per_length)
        rec.add_check("compact_identity", "hard", exact_zero, per_length, 0.0,
                      "compact profile gives identical cutoffs")
    else:
        decreasing = all(b < a for a, b in zip(per_length, per_length[1:]))
        rec.add_check("strictly_decreasing", "hard", decreasing, per_length, None,
                      "normalised trace difference falls along the schedule")

        decays = [float(v) for v in config.opt("decay_comparison", (1.0, 2.0, 4.0))]
        if len(decays) >= 2 and not profile.is_compact:
            length0 = config.schedule[len(config.schedule) // 2]
            vals = []
            for a in decays:
                prof_a = config.build_profile().__class__.exponential(
                    float(config.profile.get("amplitude", -1.0)), a,
                    config.dimension, config.spacing)
                vals.append(_norm_diff(config, prof_a, length0, 0))
            rec.aggregates["decay_comparison"] = dict(zip(map(str, decays), vals))
            mono = all(b < a for a, b in zip(vals, vals[1:]))
            rec.add_check("decay_monotone", "hard", mono, vals, None,
                          "faster tail decay shrinks the difference at fixed L")
    return rec
