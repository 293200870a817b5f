"""Resolvent powers against the decoupled Dirichlet pair: interface scaling.

For H on the ambient box and H_B^D the direct sum of the Dirichlet
restrictions to a sub-box B and its complement, the trace norm of
(H+E)^(-m) - (H_B^D+E)^(-m) grows like the boundary measure of B; the fitted
slope against meas_1(dB) is the verdict, and the norm must shrink as E moves
away from the spectrum.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .. import spectral
from ..harness.parallel import parallel_map
from ..model import IntBox, assemble_hamiltonian, assemble_potential
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, fit_loglog


def _resolvent_power(a: np.ndarray, e: float, m: int) -> np.ndarray:
    n = a.shape[0]
    x = sla.solve(a + e * np.eye(n), np.eye(n), assume_a="pos")
    out = x
    for _ in range(m - 1):
        out = out @ x
    return out


def _norm_for(config: ExperimentConfig, width: int, realization: int, e: float):
    h = config.spacing
    margin = int(config.opt("margin", 8))
    side = int(config.opt("box_side", 8))
    m = int(config.opt("power", 2))
    box = IntBox.centered((side, width))
    grid = ambient_for(box, margin, h)
    field = sample_couplings(config.distribution, grid.box, config.seed, realization)
    pot = assemble_potential(grid, config.build_profile(), field)
    ham = assemble_hamiltonian(grid, pot)
    dense = ham.to_dense()

    lam_min = float(spectral.eig_all(ham).eigenvalues[0])
    if not e > -lam_min + 0.5:
        raise ExperimentError(
            f"E={e} too close to the spectrum (needs E > {-lam_min + 0.5})")

    idx_b = grid.indices(box)
    idx_c = np.nonzero(~grid.mask(box))[0]

    full = _resolvent_power(dense, e, m)
    decoupled = np.zeros_like(full)
    rb = _resolvent_power(dense[np.ix_(idx_b, idx_b)], e, m)
    decoupled[np.ix_(idx_b, idx_b)] = rb
    if idx_c.size:
        rc = _resolvent_power(dense[np.ix_(idx_c, idx_c)], e, m)
        decoupled[np.ix_(idx_c, idx_c)] = rc
    diff = full - decoupled
    return spectral.trace_norm(diff), box.surface_measure(h)


def run_resolvent_power(config: ExperimentConfig) -> ResultRecord:
    if config.dimension != 2:
        raise ExperimentError("resolvent campaign is two-dimensional")
    if len(config.schedule) < 2:
        raise ExperimentError("resolvent needs an interface schedule")
    e_values = [float(v) for v in config.opt("e_values", (1.0, 2.0, 4.0))]
    e_main = float(config.opt("e_main", 2.0))

    rec = ResultRecord("resolvent", config.seed, config.digest())
    reals = list(range(config.realizations))

    norms, boundaries, norm0 = [], [], {}
    for width in config.schedule:
        vals = parallel_map(lambda r, w=width: _norm_for(config, w, r, e_main),
                            reals, config.workers)
        norm0[width] = vals[0][0]  # realization 0 at e_main
        mean = float(np.mean([v for v, _ in vals]))
        norms.append(mean)
        boundaries.append(vals[0][1])
        for r, (v, b) in zip(reals, vals):
            rec.rows.append({"width": width, "realization": r,
                             "boundary_measure": float(b), "trace_norm": float(v)})
        rec.series.setdefault("norm_vs_boundary", []).append([float(vals[0][1]), mean])

    fit = fit_loglog(boundaries, norms)
    rec.fits["boundary"] = fit
    lo = config.tol("slope_low")
    hi = config.tol("slope_high")
    rec.add_check("boundary_slope", "hard", lo <= fit["slope"] <= hi,
                  fit["slope"], [lo, hi],
                  "trace norm of the resolvent-power difference vs meas(dB)")

    if len(e_values) >= 2:
        ns = [norm0[config.schedule[0]] if e == e_main
              else _norm_for(config, config.schedule[0], 0, e)[0] for e in sorted(e_values)]
        rec.aggregates["norm_vs_E"] = dict(zip(map(str, sorted(e_values)), ns))
        rec.add_check("norm_decay_in_E", "hard",
                      all(b < a for a, b in zip(ns, ns[1:])), ns, None,
                      "norm shrinks as E moves away from the spectrum")
    return rec
