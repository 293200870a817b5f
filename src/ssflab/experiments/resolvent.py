"""Resolvent powers against the decoupled Dirichlet pair: interface scaling.

For H on the ambient box and H_B^D the direct sum of the Dirichlet
restrictions to a sub-box B and its complement, the trace norm of
(H+E)^(-m) - (H_B^D+E)^(-m) grows like the boundary measure of B; the fitted
slope against meas_1(dB) is the verdict, and the norm must shrink as E moves
away from the spectrum.
"""

from __future__ import annotations

import numpy as np

from .. import spectral
from ..harness.parallel import parallel_map
from ..model import IntBox, assemble_hamiltonian, assemble_potential
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, fit_loglog


def _norms_for(config: ExperimentConfig, width: int, realization: int, energies):
    """({E: trace norm of the difference}, meas(dB)) for one realization: one
    eigenpair each of H, H_B and H_C serves every E."""
    h = config.spacing
    margin = config.opt("margin")
    side = config.opt("box_side")
    m = config.opt("power")
    box = IntBox.centered((side, width))
    grid = ambient_for(box, margin, h)
    field = sample_couplings(config.distribution, grid.box, config.seed, realization)
    pot = assemble_potential(grid, config.build_profile(), field)
    ham = assemble_hamiltonian(grid, pot)
    dense = ham.to_dense()
    blocks = [idx for idx in (grid.indices(box), np.nonzero(~grid.mask(box))[0]) if idx.size]
    block_pairs = [spectral.eig_all(dense[np.ix_(idx, idx)], need_vectors=True)
                   for idx in blocks]
    del dense  # only the blocks read it; H's solve builds its own
    pair = spectral.eig_all(ham, need_vectors=True)

    lam_min = float(pair[0][0])
    if not min(energies) > -lam_min + 0.5:
        raise ExperimentError(
            f"E={min(energies)} too close to the spectrum (needs E > {-lam_min + 0.5})")

    norms = {}
    for e in energies:
        g = spectral.ResolventPower(e, m)
        diff = spectral.matrix_function(pair, g)  # g(H) - (g(H_B) + g(H_C))
        for idx, bp in zip(blocks, block_pairs):
            diff[np.ix_(idx, idx)] -= spectral.matrix_function(bp, g)
        norms[e] = spectral.trace_norm(diff)
    return norms, box.surface_measure(h)


def run_resolvent_power(config: ExperimentConfig) -> ResultRecord:
    e_values = config.opt("e_values")
    e_main = config.opt("e_main")

    rec = ResultRecord("resolvent", config.seed, config.digest())
    reals = list(range(config.realizations))

    # realization 0 of the first width also runs the E sweep, on the same eigenpairs
    sweep = sorted({e_main, *e_values}) if len(e_values) >= 2 else [e_main]
    first = (config.schedule[0], 0)
    norms, boundaries = [], []
    for width in config.schedule:
        vals = parallel_map(
            lambda r, w=width: _norms_for(config, w, r, sweep if (w, r) == first else [e_main]),
            reals, config.workers)
        if width == first[0]:
            swept = vals[0][0]
        mean = float(np.mean([v[e_main] for v, _ in vals]))
        norms.append(mean)
        boundaries.append(vals[0][1])
        for r, (v, b) in zip(reals, vals):
            rec.rows.append({"width": width, "realization": r,
                             "boundary_measure": float(b), "trace_norm": float(v[e_main])})
        rec.series.setdefault("norm_vs_boundary", []).append([float(vals[0][1]), mean])

    fit = fit_loglog(boundaries, norms)
    rec.fits["boundary"] = fit
    lo = config.tol("slope_low")
    hi = config.tol("slope_high")
    rec.add_check("boundary_slope", "hard", lo <= fit["slope"] <= hi,
                  fit["slope"], [lo, hi],
                  "trace norm of the resolvent-power difference vs meas(dB)")

    if len(e_values) >= 2:
        ns = [swept[e] for e in sorted(e_values)]
        rec.aggregates["norm_vs_E"] = dict(zip(map(str, sorted(e_values)), ns))
        rec.add_check("norm_decay_in_E", "hard",
                      all(b < a for a, b in zip(ns, ns[1:])), ns, None,
                      "norm shrinks as E moves away from the spectrum")
    return rec
