"""Sharp cutoff versus lattice-sum cutoff for tailed single-site profiles.

With profiles that are not compactly supported, chi_Lambda V and V_Lambda
differ by the tails reaching across the box boundary; the normalised trace
difference |tr[g(H0 + chi_Lambda V) - g(H0 + V_Lambda)]| / meas(Lambda) must
fall along a growing box schedule.  Compact profiles make the two cutoffs
literally identical, which is flagged as a degenerate (still valid) run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import spectral, ssf
from ..harness.parallel import parallel_map
from ..model import IntBox, assemble_hamiltonian, assemble_potential
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ResultRecord, ambient_for


def _norm_diff(config: ExperimentConfig, profile, length: int, realization: int) -> float:
    dim, h = config.dimension, config.spacing
    margin = config.opt("margin")
    lmax = max(config.schedule)
    grid = ambient_for(IntBox.centered((lmax,) * dim), margin, h)
    field = sample_couplings(config.distribution, grid.box, config.seed, realization)
    g = spectral.BumpFunction(config.opt("bump_lo"), config.opt("bump_hi"))
    box = IntBox.centered((length,) * dim)
    pot_sharp = assemble_potential(grid, profile, field, "sharp", box)
    pot_lat = assemble_potential(grid, profile, field, "lattice_sum", box)
    h_sharp = assemble_hamiltonian(grid, pot_sharp)
    h_lat = assemble_hamiltonian(grid, pot_lat)
    diff = ssf.trace_difference(spectral.eig_all(h_sharp)[0],
                                spectral.eig_all(h_lat)[0], g)
    return abs(diff) / box.measure(h)


def run_cutoff_equivalence(config: ExperimentConfig) -> ResultRecord:
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

        decays = config.opt("decay_comparison")
        if len(decays) >= 2:
            length0 = config.schedule[len(config.schedule) // 2]
            vals = []
            for a in decays:
                prof_a = replace(config, profile={**config.profile, "decay": a}).build_profile()
                vals.append(_norm_diff(config, prof_a, length0, 0))
            rec.aggregates["decay_comparison"] = dict(zip(map(str, decays), vals))
            mono = all(b < a for a, b in zip(vals, vals[1:]))
            rec.add_check("decay_monotone", "hard", mono, vals, None,
                          "faster tail decay shrinks the difference at fixed L")
    return rec
