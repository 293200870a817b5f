"""Pointwise unboundedness of counting differences versus their tame Laplace
transform, on growing Dirichlet boxes with one fixed central bump.

phi_L(lam) = N(lam; H_0L) - N(lam; H_0L + V) is nonnegative and may grow
without bound in L at fixed lam > 0 (level clusters of the Dirichlet box get
pushed across lam together), whereas Psi_L(t) = tr(exp(-t(H_0L+V)) -
exp(-t H_0L)) stays bounded.  Growth at desk scale is a soft check that
downgrades to a warning; the dual evaluation of Psi_L (trace difference vs
the exact step integral against phi_L) is the hard check.
"""

from __future__ import annotations

import numpy as np

from .. import spectral, ssf
from ..harness.parallel import parallel_map
from ..model import IntBox, assemble_hamiltonian, assemble_potential, \
    free_hamiltonian
from ..randomfield import constant_couplings, sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, gershgorin_window_check


def _box_pair(config: ExperimentConfig, length: int):
    """Free and perturbed operators on the L x L Dirichlet box around the
    one bump, anchored at the origin."""
    grid = ambient_for(IntBox.centered((length, length)), 0, config.spacing)
    profile = config.build_profile()
    field = sample_couplings(constant_couplings(1.0), IntBox((0, 0), (0, 0)),
                             config.seed, 0)
    pot = assemble_potential(grid, profile, field)
    if np.any(pot.values < 0.0):
        raise ExperimentError("kirsch demonstration needs a nonnegative bump")
    h0l = free_hamiltonian(grid)
    hl = assemble_hamiltonian(grid, pot)
    return h0l, hl


def run_kirsch_demo(config: ExperimentConfig) -> ResultRecord:
    if any(lam <= 0.0 for lam in config.energies):
        raise ExperimentError("kirsch energies must be positive")

    rec = ResultRecord("kirsch", config.seed, config.digest())
    lam_grid = np.asarray(config.energies)

    def one(length):
        h0l, hl = _box_pair(config, length)
        gershgorin_window_check(config.energies, hl.potential_values(),
                                2, config.spacing)
        ev0 = spectral.eig_all(h0l)[0]
        ev1 = spectral.eig_all(hl)[0]
        phi = (np.searchsorted(ev0, lam_grid, side="left")
               - np.searchsorted(ev1, lam_grid, side="left"))
        merged = np.sort(np.concatenate([ev0, ev1]))
        dists = np.array([np.min(np.abs(merged - lam)) for lam in lam_grid])
        gs = [spectral.ExpWeight(t) for t in config.times]
        psi_trace = [ssf.trace_difference(ev1, ev0, g) for g in gs]
        psi_step = [ssf.xi_integral(ev1, ev0, g) for g in gs]
        return phi, dists, psi_trace, psi_step

    results = parallel_map(one, config.schedule, config.workers)

    phi_by_l = {}
    dual_ok = True
    dual_worst = 0.0
    rel = config.tol("dual_rel")
    for length, (phi, dists, psi_trace, psi_step) in zip(config.schedule, results):
        phi_by_l[length] = phi
        for lam, p, d in zip(lam_grid, phi, dists):
            rec.rows.append({"L": length, "lam": float(lam), "phi": int(p),
                             "spectral_distance": float(d)})
        for t, a, b in zip(config.times, psi_trace, psi_step):
            rec.rows.append({"L": length, "t": float(t), "psi_trace": a,
                             "psi_step": b})
            err = abs(a - b) / max(abs(a), abs(b), 1e-300)
            dual_worst = max(dual_worst, err)
            dual_ok &= err <= rel
        rec.series.setdefault("phi_vs_lam", []).extend(
            [[float(lam), int(p)] for lam, p in zip(lam_grid, phi)])

    rec.add_check("psi_dual_evaluation", "hard", dual_ok, dual_worst, rel,
                  "trace difference equals -t * exact step integral of phi")

    nonneg = all(bool(np.all(phi >= 0)) for phi in phi_by_l.values())
    rec.add_check("phi_nonnegative", "hard", nonneg, nonneg, None,
                  "nonnegative bump only raises levels")

    lmin, lmax = config.schedule[0], config.schedule[-1]
    growth = int(np.max(phi_by_l[lmax] - phi_by_l[lmin]))
    rec.aggregates["max_growth"] = growth
    grew = growth >= 2
    rec.add_check("phi_growth", "soft", grew, growth, 2,
                  "phi grows by >= 2 somewhere on the lam grid"
                  + ("" if grew else " (warning: not visible at this scale)"))
    if not grew:
        rec.notes.append(f"phi growth only {growth} between L={lmin} and L={lmax}; "
                         "soft check downgraded to warning, data attached")

    # range trend of Psi_L at the first t
    psi_at = {length: results[i][2][0] for i, length in enumerate(config.schedule)}
    vals = list(psi_at.values())
    rng_all = max(vals) - min(vals)
    tail = vals[-2:]
    rng_tail = max(tail) - min(tail)
    rec.aggregates["psi_range_all"] = rng_all
    rec.aggregates["psi_range_tail"] = rng_tail
    rec.add_check("psi_range_trend", "soft", rng_tail <= rng_all + 1e-15,
                  [rng_tail, rng_all], None,
                  "Psi_L spread over the largest boxes within the overall spread")
    rec.series["psi_vs_L"] = [[length, psi_at[length]] for length in config.schedule]
    return rec
