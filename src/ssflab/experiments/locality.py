"""Locality of the functional calculus under sharp cutoffs.

Both normalised traces

    tr[chi_L (g(H0+V) - g(H0+chi_L V))] / meas(Lambda)
    tr[(1-chi_L)(g(H0+chi_L V) - g(H0))] / meas(Lambda)

are surface effects, so along a schedule of boxes their magnitude falls off
like 1/L; the fitted log-log slope against L is the recorded verdict.
"""

from __future__ import annotations

import numpy as np

from .. import spectral
from ..harness.parallel import parallel_map
from ..model import SiteBox, assemble_hamiltonian, assemble_potential, \
    free_hamiltonian
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    absolute_site_window, ambient_for, center_origin, centered_absolute_box, \
    fit_loglog


def _one_realization(config: ExperimentConfig, realization: int):
    dim, h = config.dimension, config.spacing
    margin = int(config.opt("margin", 12))
    lmax = max(config.schedule)
    window = centered_absolute_box(lmax, dim)
    grid, _ = ambient_for(window, margin, h)
    origin = center_origin(grid)
    field = sample_couplings(config.distribution, absolute_site_window(grid),
                             config.seed, realization)
    profile = config.build_profile()
    g = spectral.BumpFunction(float(config.opt("bump_lo", -1.0)),
                              float(config.opt("bump_hi", 2.0)))
    pot_full = assemble_potential(grid, profile, field, origin=origin)
    h_full = assemble_hamiltonian(grid, pot_full)
    h0 = free_hamiltonian(grid)
    dl = config.dense_limit
    diag_full = spectral.diag_of_function(h_full, g, dl)
    diag_free = spectral.diag_of_function(h0, g, dl)

    out = []
    for length in config.schedule:
        box = SiteBox.centered(grid, length)
        pot_cut = assemble_potential(grid, profile, field, "sharp", box,
                                     origin=origin)
        h_cut = assemble_hamiltonian(grid, pot_cut)
        diag_cut = spectral.diag_of_function(h_cut, g, dl)
        mask = box.mask()
        meas = box.measure
        t_inside = float(np.sum((diag_full - diag_cut)[mask])) / meas
        t_outside = float(np.sum((diag_cut - diag_free)[~mask])) / meas
        out.append((length, t_inside, t_outside))
    return out


def run_locality(config: ExperimentConfig) -> ResultRecord:
    if config.dimension != 2:
        raise ExperimentError("locality campaign is two-dimensional")
    if len(config.schedule) < 2:
        raise ExperimentError("locality needs at least two box sizes")

    rec = ResultRecord("locality", config.seed, config.digest())
    results = parallel_map(lambda r: _one_realization(config, r),
                           range(config.realizations), config.workers)

    sched = list(config.schedule)
    t1 = np.zeros((config.realizations, len(sched)))
    t2 = np.zeros_like(t1)
    for r, rows in enumerate(results):
        for k, (length, a, b) in enumerate(rows):
            t1[r, k] = a
            t2[r, k] = b
            rec.rows.append({"L": length, "realization": r,
                             "trace_inside": a, "trace_outside": b})

    m1 = np.abs(t1).mean(axis=0)
    m2 = np.abs(t2).mean(axis=0)
    rec.series["inside_vs_L"] = [[L, float(v)] for L, v in zip(sched, m1)]
    rec.series["outside_vs_L"] = [[L, float(v)] for L, v in zip(sched, m2)]

    lo = config.tol("slope_low", -1.3)
    hi = config.tol("slope_high", -0.7)
    fit1 = fit_loglog(sched, m1)
    fit2 = fit_loglog(sched, m2)
    rec.fits["inside"] = fit1
    rec.fits["outside"] = fit2
    rec.add_check("slope_inside", "hard", lo <= fit1["slope"] <= hi,
                  fit1["slope"], [lo, hi], "volume-normalised interior trace decay")
    rec.add_check("slope_outside", "hard", lo <= fit2["slope"] <= hi,
                  fit2["slope"], [lo, hi], "volume-normalised exterior trace decay")
    return rec
